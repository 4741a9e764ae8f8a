"""Free-space link budget primitives.

All powers are stored in dBm, antenna gains linearly (dimensionless). dB
conversions follow the usual conventions: 10*log10 for power ratios,
20*log10 for field/distance ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    MAX_DB, SPEED_OF_LIGHT_M_S, DomainError, _decibels, _finite, _length, _shown, check_frequency,
)

# the linear gains of -MAX_DB and MAX_DB dBi, as from_dbi computes them
_GAIN_BOUNDS = (10.0 ** (-MAX_DB / 10.0), 10.0 ** (MAX_DB / 10.0))


class NearFieldError(DomainError):
    """Distance below one wavelength: free-space formulas not applicable."""


@dataclass(frozen=True)
class Frequency:
    """Carrier frequency in hertz, whose wavelength is a length (see errors.py)."""

    hertz: float

    def __post_init__(self):
        object.__setattr__(self, "hertz", check_frequency("frequency", self.hertz))

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.hertz


@dataclass(frozen=True)
class AntennaGain:
    """Antenna power gain, stored linearly (1.0 = isotropic), within the
    linear gains of +-MAX_DB dBi (see errors.py)."""

    linear: float

    def __post_init__(self):
        object.__setattr__(self, "linear", _finite("gain", self.linear, *_GAIN_BOUNDS))

    @property
    def dbi(self) -> float:
        return 10.0 * math.log10(self.linear)

    @classmethod
    def from_dbi(cls, dbi: float) -> "AntennaGain":
        return cls(10.0 ** (_decibels("dBi gain", dbi) / 10.0))


@dataclass(frozen=True)
class LinkGeometry:
    """One radio path: separation and carrier."""

    distance_m: float
    frequency: Frequency

    def __post_init__(self):
        object.__setattr__(self, "distance_m", _length("distance", self.distance_m))
        if not isinstance(self.frequency, Frequency):
            raise DomainError(f"frequency must be a Frequency, got {_shown(self.frequency)}")

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

    def __post_init__(self):
        object.__setattr__(self, "tx_power_dbm", _finite("transmit power", self.tx_power_dbm))

    @property
    def rx_power_dbm(self) -> float:
        return friis_received_dbm(self)


def _check_far_field(geometry: LinkGeometry) -> None:
    if geometry.distance_m < geometry.wavelength_m:
        raise NearFieldError(
            f"distance {geometry.distance_m} m is inside one wavelength "
            f"({geometry.wavelength_m:.4f} m); free-space result would be meaningless"
        )


def fspl_db(geometry: LinkGeometry) -> float:
    """Free-space path loss, 20*log10(4*pi*R/lambda).

    Raises NearFieldError for R < lambda. R and lambda are lengths, so the
    ratio lies in [4*pi, 4*pi*1e24], within [4*pi, 1.3e25].
    """
    _check_far_field(geometry)
    return 20.0 * math.log10(4.0 * math.pi * geometry.distance_m / geometry.wavelength_m)


def friis_received_dbm(budget: LinkBudget) -> float:
    """Received power: Pt + Gt + Gr - FSPL, everything in dB terms."""
    return (
        budget.tx_power_dbm
        + budget.tx_gain.dbi
        + budget.rx_gain.dbi
        - fspl_db(budget.geometry)
    )


def power_utilization(tx_gain: AntennaGain, rx_gain: AntennaGain, geometry: LinkGeometry) -> float:
    """Fraction of radiated power collected by the receive antenna.

    Gt * A_eff / (4*pi*R^2) with A_eff = Gr * lambda^2 / (4*pi), which reduces
    to Gt * Gr * (lambda / (4*pi*R))^2. Symmetric in the two gains. For stock
    2.4 GHz gear at tens of meters this lands around 1e-6, i.e. nearly all
    radiated energy misses the receiver. Raises NearFieldError for R < lambda.
    The gains are power ratios and R and lambda lengths, so the result lies in
    [6.3e-251, 6.4e197] (see errors.py).
    """
    _check_far_field(geometry)
    scale = geometry.wavelength_m / (4.0 * math.pi * geometry.distance_m)
    return tx_gain.linear * rx_gain.linear * scale * scale


def range_ratio_from_gain_delta(delta_db: float) -> float:
    """Distance ratio that keeps received power fixed after a gain change.

    Free space: power goes with 1/R^2, so a delta_db budget improvement buys
    a factor 10**(delta_db/20) of range at constant link quality, a field
    ratio in [1e-50, 1e50] for a change within +-MAX_DB.
    """
    return 10.0 ** (_decibels("gain change", delta_db) / 20.0)
