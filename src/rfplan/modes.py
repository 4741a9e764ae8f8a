"""Names of the spectrum modes and objectives and of the polarization presets.

They live outside the library modules that use them, so the CLI parser can
offer them as choices and defaults without loading any of those modules.
"""

# aggregation modes (spectrum.aggregate)
MAX_HOLD = "max-hold"
EWMA = "ewma"

DEFAULT_EWMA_ALPHA = 0.3

# channel selector modes and objectives (spectrum.plan)
AP_ONLY = "ap-only"
CLIENT_AWARE = "client-aware"

MINIMAX = "minimax"
WEIGHTED_SUM = "weighted-sum"

# environment presets (polarization) by their cross-polar isolation in dB:
# ~15 in rooms with few reflectors, only ~4 with many metal structures around
PRESET_ISOLATION_DB = {"sparse-room": 15.0, "metal-rich": 4.0}
