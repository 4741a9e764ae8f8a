"""Accelerating metal-plate lens model.

Between parallel conducting plates spaced a > lambda/2 apart, the guided
phase velocity exceeds c, so the region behaves like a medium with effective
refraction index n = sqrt(1 - (lambda/2a)^2) < 1. A concave plate-edge
profile r(theta) = f*(1-n)/(1 - n*cos(theta)) then turns a spherical
wavefront from a feed at the focus into a plane wave: the path identity
r + n*(f - r*cos(theta)) = f holds on the whole curve.

The link-level effect of adding such a lens is modelled as a configurable
receive-gain uplift plus a hard angular shading sector behind the lens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import (
    MAX_LENGTH_M, DomainError, _finite, _length, _positive, check_aperture, check_gain_uplift,
    check_sample_count, check_throughput, check_tilt_deg,
)
from .linkbudget import (
    AntennaGain,
    Frequency,
    LinkBudget,
    range_ratio_from_gain_delta,
)


# Profile angles closer than this to the aperture edge are not sampled, so
# the curve never ends in a near-duplicate row.
_SLIVER_DEG = 1e-12


class BelowCutoffError(DomainError):
    """Plate spacing at or below lambda/2: the wave does not propagate."""


def effective_index(plate_spacing_m: float, frequency: Frequency) -> float:
    """Effective refraction index n = sqrt(1 - (lambda/(2a))^2), in (0, 1)."""
    plate_spacing_m = _length("plate spacing", plate_spacing_m)
    lam = frequency.wavelength_m
    if plate_spacing_m <= lam / 2.0:
        raise BelowCutoffError(
            f"plate spacing {plate_spacing_m} m is at or below cutoff "
            f"lambda/2 = {lam / 2.0:.5f} m"
        )
    ratio = lam / (2.0 * plate_spacing_m)
    index = math.sqrt(1.0 - ratio * ratio)
    if index == 1.0:
        raise DomainError(
            f"plate spacing {plate_spacing_m} m is so wide against lambda = {lam:.5f} m "
            "that the effective index rounds to 1"
        )
    return index


def profile_radius(focal_m: float, index: float, theta_deg: float) -> float:
    """Plate-edge radius from the focus at polar angle theta.

    r = f*(1-n)/(1 - n*cos(theta)): an ellipse with the feed in the far
    focus, r(0) = f, decreasing toward the rim for n in (0, 1).
    """
    index = _finite("effective index", index)
    if not 0.0 < index < 1.0:
        raise DomainError(f"effective index must lie in (0, 1), got {index}")
    theta = math.radians(check_tilt_deg("profile angle", theta_deg))
    focal_m = _length("focal length", focal_m)
    return focal_m * (1.0 - index) / (1.0 - index * math.cos(theta))


@dataclass(frozen=True)
class LensSpec:
    """Geometry of one cylindrical metal-plate lens."""

    plate_spacing_m: float
    design_frequency: Frequency
    focal_length_m: float
    aperture_half_angle_deg: float

    def __post_init__(self):
        spacing = _length("plate spacing", self.plate_spacing_m)
        effective_index(spacing, self.design_frequency)  # BelowCutoffError for a <= lambda/2
        object.__setattr__(self, "plate_spacing_m", spacing)
        object.__setattr__(self, "focal_length_m", _length("focal length", self.focal_length_m))
        angle = check_aperture("aperture half angle", self.aperture_half_angle_deg)
        object.__setattr__(self, "aperture_half_angle_deg", angle)

    @property
    def index(self) -> float:
        return effective_index(self.plate_spacing_m, self.design_frequency)


@dataclass(frozen=True)
class ProfileSample:
    theta_deg: float
    r_m: float
    y_m: float
    depth_m: float


@dataclass(frozen=True)
class LensProfile:
    """Sampled plate-edge curve; y = r*sin(theta), depth = f - r*cos(theta)."""

    focal_length_m: float
    index: float
    samples: tuple[ProfileSample, ...]


def lens_profile(spec: LensSpec, step_deg: float = 1.0) -> LensProfile:
    """Sample the plate-edge curve from the axis out to the aperture edge."""
    step_deg = _positive("profile step", step_deg)
    n = spec.index
    f = spec.focal_length_m
    # samples sit at k*step, so the angles cannot drift; the first is the
    # axis and the last the edge, even when the edge is inside the sliver
    edge = spec.aperture_half_angle_deg
    check_sample_count(step_deg, edge, "profile step", "aperture half angle")
    ks = range(math.ceil(edge / step_deg) + 2)
    thetas = [k * step_deg for k in ks if k == 0 or k * step_deg < edge - _SLIVER_DEG]
    thetas.append(edge)
    samples = []
    for theta_deg in thetas:
        r = profile_radius(f, n, theta_deg)
        theta = math.radians(theta_deg)
        samples.append(
            ProfileSample(
                theta_deg=theta_deg,
                r_m=r,
                y_m=r * math.sin(theta),
                depth_m=f - r * math.cos(theta),
            )
        )
    return LensProfile(focal_length_m=f, index=n, samples=tuple(samples))


def plate_edge_offset(spec: LensSpec, y_m: float) -> float:
    """Axial depth of the plate edge at transverse offset y from the axis.

    The closed-form root of the path identity (f - n*d)^2 = (f - d)^2 + y^2
    on the branch through the vertex,
    d = y^2 / ((1-n)*(f + sqrt(f^2 - (1+n)/(1-n)*y^2))). Past theta = acos(n)
    the curve turns back toward the axis; only the vertex branch is
    returned. |y| beyond the aperture edge is a DomainError. f is a length
    and |y| at most f, and 1 - n is at least 2**-53, so every term stays
    below 2e40 and d is finite.
    """
    n = spec.index
    f = spec.focal_length_m
    edge_deg = spec.aperture_half_angle_deg
    y_m = _length("offset", y_m, -MAX_LENGTH_M)
    y_edge = profile_radius(f, n, edge_deg) * math.sin(math.radians(edge_deg))
    if not abs(y_m) <= y_edge:
        raise DomainError(
            f"offset {y_m} m lies outside the lens aperture (edge at {y_edge:.6f} m)"
        )
    # the radicand is 0 at the fold theta = acos(n); rounding may take it below
    root = math.sqrt(max(0.0, f * f - (1.0 + n) / (1.0 - n) * y_m * y_m))
    return y_m * y_m / ((1.0 - n) * (f + root))


@dataclass(frozen=True)
class ShadingSector:
    """Hard angular shadow sector behind the lens, seen from the access point."""

    bearing_deg: float = 0.0
    width_deg: float = 0.0
    attenuation_db: float = 10.0

    def __post_init__(self):
        for name in ("bearing_deg", "width_deg", "attenuation_db"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not 0.0 <= self.width_deg < 360.0:
            raise DomainError(f"sector width must lie in [0, 360), got {self.width_deg}")


@dataclass(frozen=True)
class LensEffect:
    """Measured-style link effect of one lens: gain uplift, throughput, shadow.

    Defaults: 6 dB uplift (middle of the 5-7 dB band observed with lensed
    2.4 GHz links) and a 4 % throughput gain at fixed range.
    """

    gain_uplift_db: float = 6.0
    throughput_uplift_fraction: float = 0.04
    shading_sector: ShadingSector = field(default_factory=ShadingSector)

    def __post_init__(self):
        uplift_db = check_gain_uplift("gain uplift", self.gain_uplift_db)
        fraction = check_throughput("throughput uplift", self.throughput_uplift_fraction)
        object.__setattr__(self, "gain_uplift_db", uplift_db)
        object.__setattr__(self, "throughput_uplift_fraction", fraction)


def lens_shadow_sector(
    spec: LensSpec, bearing_deg: float, attenuation_db: float = 10.0
) -> ShadingSector:
    """Shadow sector whose width is the lens aperture as seen from the AP."""
    bearing_deg = _finite("bearing_deg", bearing_deg)  # before % 360: inf % 360 is a nan
    return ShadingSector(
        bearing_deg=bearing_deg % 360.0,
        width_deg=2.0 * spec.aperture_half_angle_deg,
        attenuation_db=attenuation_db,
    )


@dataclass(frozen=True)
class LensReport:
    rx_before_dbm: float
    rx_after_dbm: float
    gain_uplift_db: float
    range_ratio: float
    throughput_multiplier: float


def boost_rx_power(rx_dbm: float, effect: LensEffect) -> LensReport:
    """Apply the lens uplift to a bare received-power figure."""
    rx_dbm = _finite("rx_dbm", rx_dbm)
    return LensReport(
        rx_before_dbm=rx_dbm,
        rx_after_dbm=rx_dbm + effect.gain_uplift_db,
        gain_uplift_db=effect.gain_uplift_db,
        range_ratio=range_ratio_from_gain_delta(effect.gain_uplift_db),
        throughput_multiplier=1.0 + effect.throughput_uplift_fraction,
    )


def apply_lens(budget: LinkBudget, effect: LensEffect) -> tuple[LinkBudget, LensReport]:
    """Fold the lens into a link budget by scaling the receive gain; a gain the
    uplift (up to 30 dB) takes past AntennaGain's MAX_DB dBi is a DomainError."""
    report = boost_rx_power(budget.rx_power_dbm, effect)
    boosted = replace(
        budget,
        rx_gain=AntennaGain(budget.rx_gain.linear * 10.0 ** (effect.gain_uplift_db / 10.0)),
    )
    return boosted, report


def shading_assessment(effect: LensEffect, client_bearings_deg: Sequence[float]) -> list[float]:
    """Per-client attenuation in dB from the lens shadow sector.

    The effect's sector is centered on its bearing, with its width; boundary
    bearings count as shaded. Zero width disables shading entirely.
    """
    sector = effect.shading_sector
    center = sector.bearing_deg % 360.0
    bearings = [_finite("client bearing", bearing) for bearing in client_bearings_deg]
    if sector.width_deg == 0.0:
        return [0.0 for _ in bearings]
    half = sector.width_deg / 2.0
    out = []
    for bearing in bearings:
        delta = (bearing - center) % 360.0
        dist = min(delta, 360.0 - delta)
        out.append(sector.attenuation_db if dist <= half else 0.0)
    return out

