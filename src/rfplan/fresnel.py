"""Fresnel-zone geometry and annular-screen diffraction.

A screen plane at distance d1 from the transmitter and d2 from the receiver
divides into annular half-period zones: zone n ends where the detour path
exceeds the direct one by n*lambda/2, at radius r_n = sqrt(n*lambda*d1*d2 /
(d1+d2)). Consecutive zones arrive in antiphase, so blocking even zones with
a conducting annulus *raises* the on-axis field.

The continuous zone coordinate u = r^2*(d1+d2)/(lambda*d1*d2) makes the
on-axis field of an aperture a one-dimensional integral: with the free-path
field normalized to 1, the contribution of the u-interval [a, b] is

    integral_a^b (-i*pi) * K(u) * exp(i*pi*u) du

which telescopes to exp(i*pi*a) - exp(i*pi*b) when the obliquity weight
K(u) = (1 + cos(chi))/2 is dropped. Blocking a set of intervals subtracts
their contributions from 1.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, check_sample_count

if TYPE_CHECKING:
    import numpy as np

# Largest zone coordinate that field ratios and curves accept. It bounds the
# work of one call, about one unit panel per zone, not its accuracy: the
# fixed rule below is exact to rounding at any u. The open-aperture curve has
# not settled there (K(200) is still about 0.67 for 25 m legs at 0.125 m).
U_MAX = 200.0

# Accuracy quadrature results are held to, relative to max(1, |value|); the
# fixed rule's error is orders of magnitude below it.
QUADRATURE_REL_TOL = 1e-6

# Split points within this distance of an interval edge are dropped, so no
# degenerate sliver panels reach the rule.
_SLIVER = 1e-12

# Panels evaluated per pass. Each pass holds a few panels x nodes arrays of
# about 2 MB, so memory stays flat for fine curves, while a curve to U_MAX at
# the default step (about 4,000 panels) still runs in one pass.
_PANEL_BLOCK = 8192


@dataclass(frozen=True)
class PathGeometry:
    """Transmitter -> screen plane -> receiver distances plus wavelength."""

    d1_m: float
    d2_m: float
    lambda_m: float

    def __post_init__(self):
        for name in ("d1_m", "d2_m", "lambda_m"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        # the terms of zone_radius and obliquity_factor to U_MAX, in their order
        # of operations; one that overflows or goes subnormal turns radii into
        # inf or nan and K(u) into nan or a flat 0.5
        d1, d2, lam = self.d1_m, self.d2_m, self.lambda_m
        r_sq = U_MAX * lam * d1 * d2 / (d1 + d2)
        terms = (lam * d1 * d2 / (d1 + d2), d1 * d2, d1 * d1, d2 * d2,
                 (d1 * d1) * (d2 * d2), (d1 * d1 + r_sq) * (d2 * d2 + r_sq))
        if not all(sys.float_info.min <= t < math.inf for t in terms):
            raise DomainError(f"d1_m={d1!r}, d2_m={d2!r}, lambda_m={lam!r}: zone radii "
                              f"or K(u) to u = {U_MAX:g} leave the float range")


def check_zone_number(n: int, name: str = "zone number") -> None:
    """Refuse a zone outside 1..U_MAX: PathGeometry checks the terms only that far."""
    if not 1 <= n <= U_MAX:
        raise DomainError(f"{name} must lie in 1..{U_MAX:g}, got {n}")


def zone_radius(n: int, geometry: PathGeometry) -> float:
    """Outer radius of Fresnel zone n: sqrt(n*lambda*d1*d2/(d1+d2))."""
    check_zone_number(n)
    g = geometry
    return math.sqrt(n * g.lambda_m * g.d1_m * g.d2_m / (g.d1_m + g.d2_m))


def zone_index(r_m: float, geometry: PathGeometry) -> float:
    """Continuous zone coordinate u at radius r; inverse of zone_radius."""
    if r_m < 0:
        raise DomainError(f"radius must be non-negative, got {r_m}")
    g = geometry
    return r_m * r_m * (g.d1_m + g.d2_m) / (g.lambda_m * g.d1_m * g.d2_m)


@dataclass(frozen=True)
class AnnularScreenSpec:
    """Conducting annulus covering exactly one Fresnel zone."""

    geometry: PathGeometry
    r_inner_m: float
    r_outer_m: float
    blocked_zone: int

    def __post_init__(self):
        if not 0.0 <= self.r_inner_m < self.r_outer_m:
            raise DomainError(
                f"need 0 <= r_inner < r_outer, got [{self.r_inner_m}, {self.r_outer_m}]"
            )

    @property
    def outer_diameter_m(self) -> float:
        return 2.0 * self.r_outer_m


def screen_for_zone(n: int, geometry: PathGeometry) -> AnnularScreenSpec:
    """Annular screen spanning zone n: [r_{n-1}, r_n] (r_0 = 0)."""
    check_zone_number(n)
    inner = 0.0 if n == 1 else zone_radius(n - 1, geometry)
    return AnnularScreenSpec(
        geometry=geometry,
        r_inner_m=inner,
        r_outer_m=zone_radius(n, geometry),
        blocked_zone=n,
    )


def shading_cone_deg(r_outer_m: float, distance_m: float) -> float:
    """Full apex angle of the shadow cone a screen of radius r casts.

    The caller picks the apex distance: d1 for the cone seen from the access
    point, d1+d2 for the whole link.
    """
    if distance_m <= 0:
        raise DomainError(f"distance must be positive, got {distance_m}")
    if r_outer_m < 0:
        raise DomainError(f"radius must be non-negative, got {r_outer_m}")
    return 2.0 * math.degrees(math.atan(r_outer_m / distance_m))


@dataclass(frozen=True)
class FieldRatio:
    """On-axis field relative to the unobstructed path."""

    complex_ratio: complex

    @property
    def magnitude(self) -> float:
        return abs(self.complex_ratio)

    @property
    def power_gain_db(self) -> float:
        mag = self.magnitude
        return 20.0 * math.log10(mag) if mag > 0 else float("-inf")


def obliquity_factor(u: float | np.ndarray, geometry: PathGeometry) -> float | np.ndarray:
    """K(u) = (1 + cos(chi))/2 with chi the ray deflection angle at radius r(u).

    u may be a float or a numpy array; the result has the same shape.
    """
    import numpy as np

    g = geometry
    r_sq = u * g.lambda_m * g.d1_m * g.d2_m / (g.d1_m + g.d2_m)
    cos_chi = (g.d1_m * g.d2_m - r_sq) / np.sqrt(
        (g.d1_m * g.d1_m + r_sq) * (g.d2_m * g.d2_m + r_sq)
    )
    return 0.5 * (1.0 + cos_chi)


def _validated_intervals(blocked: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    intervals = []
    for a, b in blocked:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval bounds must be finite, got [{a}, {b}]")
        if not 0.0 <= a < b <= U_MAX:
            raise DomainError(
                f"interval [{a}, {b}] must satisfy 0 <= a < b <= {U_MAX}"
            )
        intervals.append((float(a), float(b)))
    intervals.sort()
    for (a_prev, b_prev), (a_next, b_next) in zip(intervals, intervals[1:]):
        if a_next < b_prev:
            raise DomainError(
                f"blocked intervals [{a_prev}, {b_prev}] and [{a_next}, {b_next}] overlap"
            )
    return intervals


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule, computed once on first use.

    Between integer u the integrand is entire and spans at most half a
    period, so 16 Gauss-Legendre nodes per unit panel are exact to rounding.
    """
    import numpy as np

    return np.polynomial.legendre.leggauss(16)


def _contributions(edges: np.ndarray, geometry: PathGeometry | None) -> np.ndarray:
    """Integral of (-i*pi)*K(u)*exp(i*pi*u) over each [edges[k], edges[k+1]].

    edges must be non-decreasing; K = 1 when geometry is None. The intervals
    are split at interior integers, so each panel lies within one zone, and
    the panels are evaluated _PANEL_BLOCK at a time.
    """
    import numpy as np

    nodes, weights = _gauss_legendre()
    cuts = np.arange(math.floor(edges[0]) + 1.0, math.ceil(edges[-1]))
    above = np.searchsorted(edges, cuts)
    cuts = cuts[(edges[above] - cuts > _SLIVER) & (cuts - edges[above - 1] > _SLIVER)]
    grid = np.sort(np.concatenate((edges, cuts)))
    lo, hi = grid[:-1], grid[1:]
    panels = np.empty(len(lo), dtype=complex)
    for start in range(0, len(lo), _PANEL_BLOCK):
        block = slice(start, start + _PANEL_BLOCK)
        half = (hi[block] - lo[block]) / 2.0
        u = (lo[block] + half)[:, None] + half[:, None] * nodes
        weight = 1.0 if geometry is None else obliquity_factor(u, geometry)
        panels[block] = (weight * np.exp(1j * np.pi * u)) @ weights * (-1j * np.pi * half)
    # fold the panels back onto the caller's intervals
    owner = np.searchsorted(edges, lo, side="right") - 1
    n = len(edges) - 1
    return np.bincount(owner, panels.real, n) + 1j * np.bincount(owner, panels.imag, n)


def field_ratio(
    blocked: Sequence[tuple[float, float]],
    *,
    obliquity: bool = False,
    geometry: PathGeometry | None = None,
    force_quadrature: bool = False,
) -> FieldRatio:
    """Field at the receiver with the given u-intervals blocked.

    Without obliquity the result is the closed form
    1 + sum_k (exp(i*pi*b_k) - exp(i*pi*a_k)); force_quadrature evaluates the
    same integral numerically instead (used to cross-check the closed form).
    With obliquity the contributions are weighted by K(u), which needs the
    path geometry.
    """
    intervals = _validated_intervals(blocked)
    if obliquity and geometry is None:
        raise DomainError("obliquity weighting needs the path geometry")

    if not obliquity and not force_quadrature:
        ratio = 1.0 + 0.0j
        for a, b in intervals:
            ratio += cmath.exp(1j * math.pi * b) - cmath.exp(1j * math.pi * a)
        return FieldRatio(ratio)

    if not intervals:
        return FieldRatio(1.0 + 0.0j)
    import numpy as np

    # the even-numbered gaps between edges are the blocked intervals
    edges = np.array(intervals, dtype=float).ravel()
    blocked_sum = _contributions(edges, geometry if obliquity else None)[::2].sum()
    return FieldRatio(complex(1.0 - blocked_sum))


def partial_field_curve(
    u_max: float,
    step: float = 0.05,
    *,
    obliquity: bool = False,
    geometry: PathGeometry | None = None,
) -> list[tuple[float, float]]:
    """(u, |field of the open aperture [0, u]|) samples for plotting.

    Without obliquity this is |1 - exp(i*pi*u)|, the familiar spiral swing
    between 0 and twice the free field.
    """
    if not 0 < u_max <= U_MAX:
        raise DomainError(f"u_max must lie in (0, {U_MAX}], got {u_max}")
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step}")
    check_sample_count(step, u_max, "step", "u_max")
    if obliquity and geometry is None:
        raise DomainError("obliquity weighting needs the path geometry")
    import numpy as np

    # samples sit at k*step, so the grid cannot drift; the first is 0 and the
    # last u_max, even when u_max is shorter than the sliver
    ks = np.arange(math.ceil(u_max / step) + 2) * step
    u = np.append(ks[: max(1, np.searchsorted(ks, u_max - _SLIVER))], u_max)
    if obliquity:
        field = np.cumsum(_contributions(u, geometry))
    else:
        field = 1.0 - np.exp(1j * np.pi * u[1:])
    return [(0.0, 0.0)] + list(zip(u[1:].tolist(), np.abs(field).tolist()))


def zone_table(geometry: PathGeometry, max_zone: int) -> list[tuple[float, int]]:
    """(radius, zone index) rows out to max_zone."""
    check_zone_number(max_zone, "max_zone")
    return [(zone_radius(n, geometry), n) for n in range(1, max_zone + 1)]

