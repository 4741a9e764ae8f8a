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

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# Reference tilt for the default tilt-gain slope: +2 dB at a 15 degree
# forward lean of the receiving element.
REFERENCE_TILT_RAD = math.radians(15.0)
DEFAULT_TILT_GAIN_DB_PER_RAD = 2.0 / REFERENCE_TILT_RAD


@dataclass(frozen=True)
class EnvironmentModel:
    """Depolarization floor and tilt response of one propagation environment."""

    diffuse_fraction: float
    tilt_gain_db_per_rad: float = DEFAULT_TILT_GAIN_DB_PER_RAD

    def __post_init__(self):
        if not 0.0 <= self.diffuse_fraction <= 1.0:
            raise DomainError(
                f"diffuse fraction must lie in [0, 1], got {self.diffuse_fraction}"
            )


def calibrate_diffuse_from_isolation(isolation_db: float) -> float:
    """Diffuse fraction that reproduces a measured cross-polar isolation.

    epsilon = 10**(-isolation_db/10), so mismatch_loss_db at 90 degrees gives
    back -isolation_db by construction.
    """
    if isolation_db < 0:
        raise DomainError(f"isolation must be non-negative dB, got {isolation_db}")
    return 10.0 ** (-isolation_db / 10.0)


# Named anchors: ~15 dB isolation in rooms with few reflectors, only ~4 dB
# with many metal structures around.
ENVIRONMENT_PRESETS: dict[str, EnvironmentModel] = {
    "sparse-room": EnvironmentModel(diffuse_fraction=calibrate_diffuse_from_isolation(15.0)),
    "metal-rich": EnvironmentModel(diffuse_fraction=calibrate_diffuse_from_isolation(4.0)),
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
    cos = math.cos(math.radians(delta_psi_deg))
    power = (1.0 - eps) * cos * cos + eps
    return 10.0 * math.log10(power) if power > 0 else float("-inf")


def tilt_effect_db(tilt_rad: float, env: EnvironmentModel) -> float:
    """Signal change from leaning the receiving element, linear in the tilt.

    Positive for a forward lean (toward the ground-reflected wave), negative
    backward; odd by construction.
    """
    if abs(tilt_rad) > math.pi / 2.0:
        raise DomainError(f"tilt must satisfy |tilt| <= pi/2, got {tilt_rad}")
    return env.tilt_gain_db_per_rad * tilt_rad


@dataclass(frozen=True, eq=False)
class MimoChannel:
    """2x2 complex channel matrix and mean per-receive-branch SNR."""

    h: np.ndarray
    snr_linear: float

    def __post_init__(self):
        import numpy as np

        h = np.asarray(self.h, dtype=complex)
        if h.shape != (2, 2):
            raise DomainError(f"channel matrix must be 2x2, got shape {h.shape}")
        finite = np.isfinite(h)
        if not finite.all():
            i, j = np.argwhere(~finite)[0].tolist()
            raise DomainError(f"channel matrix must be finite, got {h[i, j]} at [{i}, {j}]")
        if not (self.snr_linear > 0 and math.isfinite(self.snr_linear)):
            raise DomainError(f"snr must be positive and finite, got {self.snr_linear}")
        object.__setattr__(self, "h", h)


def mimo_capacity_bps_hz(channel: MimoChannel) -> float:
    """Shannon capacity log2 det(I + (snr/2) H H^dagger) in bit/s/Hz.

    Evaluated through the eigenvalues of the Hermitian product H H^dagger,
    which keeps the log-det stable for near-singular channels.
    """
    import numpy as np

    hh = channel.h @ channel.h.conj().T
    eigenvalues = np.linalg.eigvalsh(hh)
    capacity = 0.0
    for lam in eigenvalues:
        lam = max(float(lam), 0.0)
        capacity += math.log2(1.0 + channel.snr_linear / 2.0 * lam)
    return capacity


def dual_polarized_channel(
    xpd_linear: float,
    snr_linear: float = 100.0,
    seed: int | None = None,
) -> MimoChannel:
    """Two-branch polarization-diversity channel with cross-polar leakage xpd.

    xpd = 0 gives perfectly isolated branches (H = I), xpd = 1 fully merged
    ones (rank-1 all-ones H). A seed adds a reproducible complex Gaussian
    perturbation of standard deviation 0.1 per entry for Monte-Carlo work.
    """
    if not 0.0 <= xpd_linear <= 1.0:
        raise DomainError(f"cross-polar leakage must lie in [0, 1], got {xpd_linear}")
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    import numpy as np

    s = math.sqrt(xpd_linear)
    h = np.array([[1.0, s], [s, 1.0]], dtype=complex)
    if seed is not None:
        rng = np.random.default_rng(seed)
        scale = 0.1 / math.sqrt(2.0)
        h = h + scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return MimoChannel(h=h, snr_linear=snr_linear)
