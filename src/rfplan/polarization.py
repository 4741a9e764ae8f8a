"""Linear-polarization mismatch and 2x2 MIMO capacity.

Cross-polarized antennas never isolate perfectly indoors: multipath
depolarizes a fraction of the received power, flooring the classic
cos^2 mismatch law. The floor is a single scalar, the diffuse fraction
epsilon, calibrated directly from a measured cross-polar isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    MAX_DB, DomainError, _decibels, _finite, _shown, _uint64, check_fraction, check_snr, check_tilt,
)
from .modes import PRESET_ISOLATION_DB

if TYPE_CHECKING:
    import numpy as np

# Reference tilt for the default tilt-gain slope: +2 dB at a 15 degree
# forward lean of the receiving element.
REFERENCE_TILT_RAD = math.radians(15.0)
DEFAULT_TILT_GAIN_DB_PER_RAD = 2.0 / REFERENCE_TILT_RAD
# the largest real or imaginary part of a channel entry: a field ratio of MAX_DB
_MAX_PART = 10.0 ** (MAX_DB / 20.0)


@dataclass(frozen=True)
class EnvironmentModel:
    """Depolarization floor and tilt response of one propagation environment."""

    diffuse_fraction: float
    tilt_gain_db_per_rad: float = DEFAULT_TILT_GAIN_DB_PER_RAD

    def __post_init__(self):
        fraction = check_fraction("diffuse fraction", self.diffuse_fraction)
        object.__setattr__(self, "diffuse_fraction", fraction)
        slope = _decibels("tilt gain", self.tilt_gain_db_per_rad)
        object.__setattr__(self, "tilt_gain_db_per_rad", slope)


def calibrate_diffuse_from_isolation(isolation_db: float) -> float:
    """Diffuse fraction that reproduces a measured cross-polar isolation.

    epsilon = 10**(-isolation_db/10), so mismatch_loss_db at 90 degrees gives
    back -isolation_db by construction. The isolation lies in [0, MAX_DB], so
    epsilon lies in [1e-100, 1] and never underflows to no diffuse floor.
    """
    return 10.0 ** (-_finite("isolation", isolation_db, 0.0, MAX_DB) / 10.0)


ENVIRONMENT_PRESETS: dict[str, EnvironmentModel] = {
    name: EnvironmentModel(diffuse_fraction=calibrate_diffuse_from_isolation(isolation_db))
    for name, isolation_db in PRESET_ISOLATION_DB.items()
}


def environment_preset(name: str) -> EnvironmentModel:
    try:
        return ENVIRONMENT_PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown environment preset {name!r}; have {sorted(ENVIRONMENT_PRESETS)}"
        ) from None


def mismatch_loss_db(delta_psi_deg: float, env: EnvironmentModel) -> float:
    """Polarization mismatch loss: 10*log10((1-eps)*cos^2(dpsi) + eps).

    Always <= 0; exactly 0 at aligned polarizations; bounded below by the
    diffuse floor 10*log10(eps).
    """
    eps = env.diffuse_fraction
    cos = math.cos(math.radians(_finite("polarization angle", delta_psi_deg)))
    power = (1.0 - eps) * cos * cos + eps
    return 10.0 * math.log10(power) if power > 0 else float("-inf")


def tilt_effect_db(tilt_rad: float, env: EnvironmentModel) -> float:
    """Signal change from leaning the receiving element, linear in the tilt.

    Positive for a forward lean (toward the ground-reflected wave), negative
    backward; odd by construction.
    """
    return env.tilt_gain_db_per_rad * check_tilt("tilt", tilt_rad)


@dataclass(frozen=True, eq=False)
class MimoChannel:
    """2x2 complex channel matrix and mean per-receive-branch SNR, bounded by
    MAX_DB (see errors.py): the SNR as a power ratio, each real and imaginary
    part of an entry as a field ratio (abs() of an entry may overflow)."""

    h: np.ndarray
    snr_linear: float

    def __post_init__(self):
        import numbers

        import numpy as np

        try:
            h = np.asarray(self.h, dtype=complex)
        except (TypeError, ValueError):  # complex() refuses an entry, or the rows are ragged
            raise DomainError(
                f"channel matrix must be a 2x2 array of numbers, got {_shown(self.h)}"
            ) from None
        if h.shape != (2, 2):
            raise DomainError(f"channel matrix must be 2x2, got shape {h.shape}")
        # each entry as given: numpy reads None as nan and a string as its number
        for (i, j), entry in np.ndenumerate(np.asarray(self.h, dtype=object)):
            if not isinstance(entry, numbers.Number) or isinstance(entry, bool):
                raise DomainError(
                    f"channel matrix entry at [{i}, {j}] must be a number, got {_shown(entry)}"
                )
            if not (abs(h[i, j].real) <= _MAX_PART and abs(h[i, j].imag) <= _MAX_PART):
                raise DomainError(f"channel matrix entry {h[i, j]} at [{i}, {j}] must have "
                                  f"real and imaginary parts in [{-_MAX_PART}, {_MAX_PART}]")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "snr_linear", check_snr("snr", self.snr_linear))


def mimo_capacity_bps_hz(channel: MimoChannel) -> float:
    """Shannon capacity log2 det(I + (snr/2) H H^dagger) in bit/s/Hz.

    Evaluated through the eigenvalues of the Hermitian product H H^dagger,
    which keeps the log-det stable for near-singular channels. MimoChannel's
    bounds keep each eigenvalue at most 8e100 and each term's argument at
    most 4e200.
    """
    import numpy as np

    capacity = 0.0
    for lam in np.linalg.eigvalsh(channel.h @ channel.h.conj().T):
        capacity += math.log2(1.0 + channel.snr_linear / 2.0 * max(float(lam), 0.0))
    return capacity


def dual_polarized_channel(
    xpd_linear: float,
    snr_linear: float = 100.0,
    seed: int | None = None,
) -> MimoChannel:
    """Two-branch polarization-diversity channel with cross-polar leakage xpd.

    xpd = 0 gives perfectly isolated branches (H = I), xpd = 1 fully merged
    ones (rank-1 all-ones H). A seed, an int in [0, 2**64 - 1], adds a
    reproducible complex Gaussian perturbation of standard deviation 0.1 per
    entry for Monte-Carlo work.
    """
    s = math.sqrt(check_fraction("cross-polar leakage", xpd_linear))
    import numpy as np

    h = np.array([[1.0, s], [s, 1.0]], dtype=complex)
    if seed is not None:
        rng = np.random.default_rng(_uint64("seed", seed))
        scale = 0.1 / math.sqrt(2.0)
        h = h + scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return MimoChannel(h=h, snr_linear=snr_linear)
