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
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import (
    U_MAX, DomainError, _length, _positive, check_interval, check_sample_count, check_u_max,
    check_zone_number,
)

if TYPE_CHECKING:
    import numpy as np

# Accuracy quadrature results are held to, relative to max(1, |value|); the
# fixed rule's error is orders of magnitude below it.
QUADRATURE_REL_TOL = 1e-6

# Split points within this distance of an interval edge are dropped, so no
# degenerate sliver panels reach the rule.
_SLIVER = 1e-12

# Panels whose K(u) and weighted phases are formed at once. At 16 nodes a
# chunk's temporaries are 64 KiB per node array and 128 KiB for the complex
# product weight * phase, small enough to be reused from the heap by the next
# chunk and call; whole-curve temporaries of 0.3-1 MB go back to the kernel
# when freed, and the next call faults their pages in afresh. 512 measured
# 2-8% faster than 256, from fewer numpy calls per curve, with the same
# near-zero fault count. At least 2: see _panel_slices.
_PANEL_CHUNK = 512

# Panels of the curve grid at one step whose edges, nodes and phases are
# kept between calls, about 3 MB (see _step_phases). A curve to U_MAX at the
# default step, about 4,000 panels, fits whole. Slices of panels never cross
# a block edge (see _panel_slices).
_PANEL_BLOCK = 8192


@dataclass(frozen=True)
class PathGeometry:
    """Transmitter -> screen plane -> receiver distances plus wavelength.

    All three are lengths (see errors.py), so the terms of zone_radius and
    obliquity_factor to U_MAX lie in [1e-48, about 1e52]: from (d1*d1)*(d2*d2)
    to (d1*d1 + r^2)*(d2*d2 + r^2), r^2 = U_MAX*lambda*d1*d2/(d1+d2) <= 1e26.
    """

    d1_m: float
    d2_m: float
    lambda_m: float

    def __post_init__(self):
        for name in ("d1_m", "d2_m", "lambda_m"):
            object.__setattr__(self, name, _length(name, getattr(self, name)))


def zone_radius(n: int, geometry: PathGeometry) -> float:
    """Outer radius of Fresnel zone n: sqrt(n*lambda*d1*d2/(d1+d2))."""
    n = check_zone_number("zone number", n)
    g = geometry
    return math.sqrt(n * g.lambda_m * g.d1_m * g.d2_m / (g.d1_m + g.d2_m))


def zone_index(r_m: float, geometry: PathGeometry) -> float:
    """Continuous zone coordinate u at radius r; inverse of zone_radius."""
    r_m = _length("radius", r_m, 0.0)
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
        for name in ("r_inner_m", "r_outer_m"):
            object.__setattr__(self, name, _length(name, getattr(self, name), 0.0))
        if not self.r_inner_m < self.r_outer_m:
            raise DomainError(
                f"need r_inner < r_outer, got [{self.r_inner_m}, {self.r_outer_m}]"
            )
        zone = check_zone_number("blocked_zone", self.blocked_zone)
        object.__setattr__(self, "blocked_zone", zone)

    @property
    def outer_diameter_m(self) -> float:
        return 2.0 * self.r_outer_m


def screen_for_zone(n: int, geometry: PathGeometry) -> AnnularScreenSpec:
    """Annular screen spanning zone n: [r_{n-1}, r_n] (r_0 = 0)."""
    n = check_zone_number("zone number", n)
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
    distance_m = _length("distance", distance_m)
    r_outer_m = _length("radius", r_outer_m, 0.0)
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
    intervals = sorted(check_interval("interval", interval) for interval in blocked)
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


def _nodes_and_phases(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rule nodes u of the panels [lo, hi], one row per panel, and exp(i*pi*u)."""
    import numpy as np

    nodes, _ = _gauss_legendre()
    half = (hi - lo) / 2.0
    u = (lo + half)[:, None] + half[:, None] * nodes
    return u, np.exp(1j * np.pi * u)


def _curve_samples(u_max: float, step: float) -> np.ndarray:
    """Curve samples k*step below u_max, then u_max itself.

    Samples sit at k*step, so the grid cannot drift; the first is 0 and the
    last u_max, even when u_max is shorter than the sliver.
    """
    import numpy as np

    # a step at or past u_max keeps only 0, and 2*step could overflow
    ks = np.arange(math.ceil(u_max / step) + 2 if step < u_max else 2) * step
    return np.append(ks[: max(1, np.searchsorted(ks, u_max - _SLIVER))], u_max)


def _panel_edges(edges: np.ndarray) -> np.ndarray:
    """Non-decreasing edges plus the integers between them, bar those within _SLIVER of one."""
    import numpy as np

    cuts = np.arange(math.floor(edges[0]) + 1.0, math.ceil(edges[-1]))
    above = np.searchsorted(edges, cuts)
    cuts = cuts[(edges[above] - cuts > _SLIVER) & (cuts - edges[above - 1] > _SLIVER)]
    return np.sort(np.concatenate((edges, cuts)))


@lru_cache(maxsize=1)
def _step_phases(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, u, exp(i*pi*u)) of the first _PANEL_BLOCK panels of the curve grid at step.

    Neither depends on the geometry, and every curve at one step samples the
    grid k*step, so a curve's leading panels whose edges equal these exactly
    may take their nodes and phases: elementwise, they are the bits a
    recomputation gives. The grid ends once it has _PANEL_BLOCK panels, or at
    U_MAX, so a coarse step cuts no more integers than a curve to U_MAX does
    and a fine one sorts no samples past the block.
    """
    grid = _panel_edges(_curve_samples(min(U_MAX, (_PANEL_BLOCK + 1) * step), step))
    lo, hi = grid[:-1][:_PANEL_BLOCK], grid[1:][:_PANEL_BLOCK]
    table = (lo, hi, *_nodes_and_phases(lo, hi))
    for array in table:
        array.flags.writeable = False  # the cache hands the same arrays to every curve
    return table


def _panel_slices(n: int, known: int):
    """(rows, from_table) slices that cover n panels, the first known from _step_phases.

    A slice lies within one _PANEL_BLOCK block and on one side of the known
    prefix, and holds at most _PANEL_CHUNK + 1 rows. None has one row unless
    its block has: numpy forms a one-row product with its dot routine, which
    adds the 16 terms in another order than a product of more rows, so the
    last bits of a panel would depend on where its slice ends. A block of one
    panel, such as a field ratio's single panel, keeps the dot routine's bits.
    """
    for start in range(0, n, _PANEL_BLOCK):
        stop = min(start + _PANEL_BLOCK, n)
        split = min(max(known, start), stop)
        if stop - start > 1:
            if stop - split == 1:
                split -= 1
            if split - start == 1:
                split = start
        for first, last, from_table in ((start, split, True), (split, stop, False)):
            if first < last:
                cuts = [*range(first, max(first + 1, last - 1), _PANEL_CHUNK), last]
                for a, b in zip(cuts, cuts[1:]):
                    yield slice(a, b), from_table


def _contributions(
    edges: np.ndarray, geometry: PathGeometry | None, step: float | None = None
) -> np.ndarray:
    """Integral of (-i*pi)*K(u)*exp(i*pi*u) over each [edges[k], edges[k+1]].

    edges must be non-decreasing; K = 1 when geometry is None. The intervals
    are split into panels at interior integers (see _panel_edges), and K(u)
    and the rule's row sums are formed _PANEL_CHUNK panels at a time (see
    _panel_slices), so no temporary holds more than one chunk's nodes. A
    curve passes its sample step: its leading panels whose edges equal those
    of _step_phases(step) exactly then take their nodes and phases from that
    table, as views, and only K(u) is evaluated afresh for them.
    """
    import numpy as np

    _, weights = _gauss_legendre()
    grid = _panel_edges(edges)
    lo, hi = grid[:-1], grid[1:]
    known = 0
    if step is not None:
        table_lo, table_hi, table_u, table_phase = _step_phases(step)
        n = min(len(lo), len(table_lo))
        same = (lo[:n] == table_lo[:n]) & (hi[:n] == table_hi[:n])
        known = n if same.all() else int(same.argmin())
    panels = np.empty(len(lo), dtype=complex)
    for rows, from_table in _panel_slices(len(lo), known):
        if from_table:
            u, phase = table_u[rows], table_phase[rows]
        else:
            u, phase = _nodes_and_phases(lo[rows], hi[rows])
        weight = 1.0 if geometry is None else obliquity_factor(u, geometry)
        np.matmul(weight * phase, weights, out=panels[rows])
    panels *= -1j * np.pi * ((hi - lo) / 2.0)
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
    u_max, step = check_u_max("u_max", u_max), _positive("step", step)
    check_sample_count(step, u_max, "step", "u_max")
    if obliquity and geometry is None:
        raise DomainError("obliquity weighting needs the path geometry")
    import numpy as np

    u = _curve_samples(u_max, step)
    if obliquity:
        field = np.cumsum(_contributions(u, geometry, step))
    else:
        field = 1.0 - np.exp(1j * np.pi * u[1:])
    return [(0.0, 0.0)] + list(zip(u[1:].tolist(), np.abs(field).tolist()))


def zone_table(geometry: PathGeometry, max_zone: int) -> list[tuple[float, int]]:
    """(radius, zone index) rows out to max_zone."""
    max_zone = check_zone_number("max_zone", max_zone)
    return [(zone_radius(n, geometry), n) for n in range(1, max_zone + 1)]

