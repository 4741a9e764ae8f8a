"""Free-space link budget primitives.

All powers are stored in dBm, antenna gains linearly (dimensionless). dB
conversions follow the usual conventions: 10*log10 for power ratios,
20*log10 for field/distance ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError

# Exact SI value; wavelengths below 2.4 GHz folklore (0.125 m) come out as
# 0.12491... from this constant.
SPEED_OF_LIGHT_M_S = 299_792_458.0


class NearFieldError(DomainError):
    """Distance below one wavelength: free-space formulas not applicable."""


@dataclass(frozen=True)
class Frequency:
    """Carrier frequency in hertz."""

    hertz: float

    def __post_init__(self):
        if not (self.hertz > 0 and math.isfinite(self.hertz)):
            raise DomainError(f"frequency must be positive and finite, got {self.hertz}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.hertz


@dataclass(frozen=True)
class AntennaGain:
    """Antenna power gain, stored linearly (1.0 = isotropic)."""

    linear: float

    def __post_init__(self):
        if not (self.linear > 0 and math.isfinite(self.linear)):
            raise DomainError(f"gain must be positive and finite, got {self.linear}")

    @property
    def dbi(self) -> float:
        return 10.0 * math.log10(self.linear)

    @classmethod
    def from_dbi(cls, dbi: float) -> "AntennaGain":
        try:
            return cls(10.0 ** (dbi / 10.0))
        except (OverflowError, DomainError):  # above about 3083 dBi or below -3236
            raise DomainError(f"{dbi} dBi has no positive, finite linear gain") from None


@dataclass(frozen=True)
class LinkGeometry:
    """One radio path: separation and carrier."""

    distance_m: float
    frequency: Frequency

    def __post_init__(self):
        if not (self.distance_m > 0 and math.isfinite(self.distance_m)):
            raise DomainError(f"distance must be positive and finite, got {self.distance_m}")

    @property
    def wavelength_m(self) -> float:
        return self.frequency.wavelength_m


@dataclass(frozen=True)
class LinkBudget:
    """Transmit side plus geometry; received power is derived, never stored."""

    tx_power_dbm: float
    tx_gain: AntennaGain
    rx_gain: AntennaGain
    geometry: LinkGeometry

    @property
    def rx_power_dbm(self) -> float:
        return friis_received_dbm(self)


def _check_far_field(geometry: LinkGeometry) -> None:
    if geometry.distance_m < geometry.wavelength_m:
        raise NearFieldError(
            f"distance {geometry.distance_m} m is inside one wavelength "
            f"({geometry.wavelength_m:.4f} m); free-space result would be meaningless"
        )


def fspl_db(geometry: LinkGeometry, *, enforce_far_field: bool = True) -> float:
    """Free-space path loss, 20*log10(4*pi*R/lambda).

    Raises NearFieldError for R < lambda unless enforce_far_field is False
    (useful only for checking the formula's fixed points), and DomainError
    when 4*pi*R/lambda overflows (or, without the far-field check, reaches 0).
    """
    if enforce_far_field:
        _check_far_field(geometry)
    ratio = _path_ratio(geometry.distance_m, geometry.wavelength_m)
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"4*pi*R/lambda for distance {geometry.distance_m} m and "
                          f"wavelength {geometry.wavelength_m} m leaves the float range")
    return _ratio_db(math.log10(ratio))


def fspl_db_columns(distance_m, frequencies: Sequence[Frequency]):
    """fspl_db over a numpy array of distances, one column per frequency.

    Entry [i, j] equals fspl_db(LinkGeometry(distance_m[i, j], frequencies[j]))
    bit for bit, far-field check included; if any link fails, the first one
    column by column raises what fspl_db raises for it. The ratio and the dB
    scaling are exact IEEE steps and run as array operations; log10 stays
    the scalar math.log10, since numpy's log10 may differ in the last ulp.
    """
    import numpy as np

    wavelength_m = np.array([f.wavelength_m for f in frequencies])
    with np.errstate(all="ignore"):  # a failing link raises below, never warns
        ratio = _path_ratio(distance_m, wavelength_m)
        fails = ~((distance_m >= wavelength_m) & (ratio < math.inf))
    if fails.any():
        j, i = divmod(int(fails.T.argmax()), fails.shape[0])
        fspl_db(LinkGeometry(float(distance_m[i, j]), frequencies[j]))
    log10_ratio = [math.log10(r) for r in ratio.ravel().tolist()]
    return _ratio_db(np.array(log10_ratio).reshape(ratio.shape))


def _path_ratio(distance_m, wavelength_m):
    """4*pi*R/lambda; elementwise on numpy arrays, rounding as on floats."""
    return 4.0 * math.pi * distance_m / wavelength_m


def _ratio_db(log10_ratio):
    """Path loss in dB from log10 of the path ratio; elementwise for arrays."""
    return 20.0 * log10_ratio


def friis_received_dbm(budget: LinkBudget) -> float:
    """Received power: Pt + Gt + Gr - FSPL, everything in dB terms."""
    return (
        budget.tx_power_dbm
        + budget.tx_gain.dbi
        + budget.rx_gain.dbi
        - fspl_db(budget.geometry)
    )


def power_utilization(
    tx_gain: AntennaGain,
    rx_gain: AntennaGain,
    geometry: LinkGeometry,
    *,
    enforce_far_field: bool = True,
) -> float:
    """Fraction of radiated power collected by the receive antenna.

    Gt * A_eff / (4*pi*R^2) with A_eff = Gr * lambda^2 / (4*pi), which reduces
    to Gt * Gr * (lambda / (4*pi*R))^2. Symmetric in the two gains. For stock
    2.4 GHz gear at tens of meters this lands around 1e-6, i.e. nearly all
    radiated energy misses the receiver.
    """
    if enforce_far_field:
        _check_far_field(geometry)
    scale = geometry.wavelength_m / (4.0 * math.pi * geometry.distance_m)
    return tx_gain.linear * rx_gain.linear * scale * scale


def range_ratio_from_gain_delta(delta_db: float) -> float:
    """Distance ratio that keeps received power fixed after a gain change.

    Free space: power goes with 1/R^2, so a delta_db budget improvement buys
    a factor 10**(delta_db/20) of range at constant link quality.
    """
    return 10.0 ** (delta_db / 20.0)
