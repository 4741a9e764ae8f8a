"""Names of the spectrum aggregation modes, selector modes and objectives.

They live outside the spectrum package, whose modules load numpy, so the
CLI can offer them as choices and defaults without loading it.
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
