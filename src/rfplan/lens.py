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

from .errors import DomainError, check_sample_count
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
    lam = frequency.wavelength_m
    if plate_spacing_m <= lam / 2.0:
        raise BelowCutoffError(
            f"plate spacing {plate_spacing_m} m is at or below cutoff "
            f"lambda/2 = {lam / 2.0:.5f} m"
        )
    ratio = lam / (2.0 * plate_spacing_m)
    return math.sqrt(1.0 - ratio * ratio)


def profile_radius(focal_m: float, index: float, theta_deg: float) -> float:
    """Plate-edge radius from the focus at polar angle theta.

    r = f*(1-n)/(1 - n*cos(theta)): an ellipse with the feed in the far
    focus, r(0) = f, decreasing toward the rim for n in (0, 1).
    """
    if not 0.0 < index < 1.0:
        raise DomainError(f"effective index must lie in (0, 1), got {index}")
    if abs(theta_deg) > 90.0:
        raise DomainError(f"profile angle must satisfy |theta| <= 90 deg, got {theta_deg}")
    if focal_m <= 0:
        raise DomainError(f"focal length must be positive, got {focal_m}")
    theta = math.radians(theta_deg)
    return focal_m * (1.0 - index) / (1.0 - index * math.cos(theta))


@dataclass(frozen=True)
class LensSpec:
    """Geometry of one cylindrical metal-plate lens."""

    plate_spacing_m: float
    design_frequency: Frequency
    focal_length_m: float
    aperture_half_angle_deg: float

    def __post_init__(self):
        # raises BelowCutoffError for a <= lambda/2
        effective_index(self.plate_spacing_m, self.design_frequency)
        if self.focal_length_m <= 0:
            raise DomainError(f"focal length must be positive, got {self.focal_length_m}")
        if not 0.0 < self.aperture_half_angle_deg < 90.0:
            raise DomainError(
                f"aperture half angle must lie in (0, 90) deg, got {self.aperture_half_angle_deg}"
            )

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
    if not (step_deg > 0 and math.isfinite(step_deg)):
        raise DomainError(f"profile step must be positive and finite, got {step_deg}")
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
    returned. |y| beyond the aperture edge is a DomainError.
    """
    n = spec.index
    f = spec.focal_length_m
    edge_deg = spec.aperture_half_angle_deg
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
        if not 0.0 <= self.gain_uplift_db <= 30.0:
            raise DomainError(f"gain uplift must lie in [0, 30] dB, got {self.gain_uplift_db}")
        if self.throughput_uplift_fraction < 0:
            raise DomainError(
                f"throughput uplift must be non-negative, got {self.throughput_uplift_fraction}"
            )


def lens_shadow_sector(
    spec: LensSpec, bearing_deg: float, attenuation_db: float = 10.0
) -> ShadingSector:
    """Shadow sector whose width is the lens aperture as seen from the AP."""
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
    return LensReport(
        rx_before_dbm=rx_dbm,
        rx_after_dbm=rx_dbm + effect.gain_uplift_db,
        gain_uplift_db=effect.gain_uplift_db,
        range_ratio=range_ratio_from_gain_delta(effect.gain_uplift_db),
        throughput_multiplier=1.0 + effect.throughput_uplift_fraction,
    )


def apply_lens(budget: LinkBudget, effect: LensEffect) -> tuple[LinkBudget, LensReport]:
    """Fold the lens into a link budget by scaling the receive gain."""
    report = boost_rx_power(budget.rx_power_dbm, effect)
    boosted = replace(
        budget,
        rx_gain=AntennaGain(budget.rx_gain.linear * 10.0 ** (effect.gain_uplift_db / 10.0)),
    )
    return boosted, report


def shading_assessment(
    lens_bearing_deg: float,
    effect: LensEffect,
    client_bearings_deg: Sequence[float],
) -> list[float]:
    """Per-client attenuation in dB from the lens shadow sector.

    The sector is centered on lens_bearing_deg with the effect's width;
    boundary bearings count as shaded. Zero width disables shading entirely.
    """
    sector = effect.shading_sector
    if sector.width_deg == 0.0:
        return [0.0 for _ in client_bearings_deg]
    center = lens_bearing_deg % 360.0
    half = sector.width_deg / 2.0
    out = []
    for bearing in client_bearings_deg:
        delta = (bearing - center) % 360.0
        dist = min(delta, 360.0 - delta)
        out.append(sector.attenuation_db if dist <= half else 0.0)
    return out

