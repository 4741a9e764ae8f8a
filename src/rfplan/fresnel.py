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

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

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

# Panels of the curve grid at one step whose nodes and phases are kept
# between calls, about 3.5 MB (see _step_plan). A curve to U_MAX at the
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

    u may be a float or a numpy array; the result has the same shape. An
    array's temporaries are updated in place, in the order of
    r_sq = u*lambda*d1*d2/(d1+d2) and (d1*d2 - r_sq)/sqrt((d1*d1 + r_sq)*(d2*d2 + r_sq)).
    """
    import numpy as np

    g = geometry
    r_sq = u * g.lambda_m
    r_sq *= g.d1_m
    r_sq *= g.d2_m
    r_sq /= g.d1_m + g.d2_m
    cos_chi, norm = g.d1_m * g.d2_m - r_sq, g.d1_m * g.d1_m + r_sq
    r_sq += g.d2_m * g.d2_m
    norm *= r_sq
    cos_chi /= np.sqrt(norm)
    cos_chi += 1.0
    cos_chi *= 0.5
    return cos_chi


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


def _curve_samples(u_max: float, step: float, first: int = 0) -> np.ndarray:
    """Curve samples k*step below u_max from k = first on, then u_max itself.

    Samples sit at k*step, so the grid cannot drift; the first is 0 and the
    last u_max, even when u_max is shorter than the sliver. A first past 0
    must be a k with k*step below u_max - _SLIVER.
    """
    import numpy as np

    # a step at or past u_max keeps only 0, and 2*step could overflow
    ks = np.arange(first, math.ceil(u_max / step) + 2 if step < u_max else 2) * step
    return np.append(ks[: max(1, np.searchsorted(ks, u_max - _SLIVER))], u_max)


def _panel_edges(edges: np.ndarray) -> np.ndarray:
    """Non-decreasing edges plus the integers between them, bar those within _SLIVER of one."""
    import numpy as np

    cuts = np.arange(math.floor(edges[0]) + 1.0, math.ceil(edges[-1]))
    above = np.searchsorted(edges, cuts)
    cuts = cuts[(edges[above] - cuts > _SLIVER) & (cuts - edges[above - 1] > _SLIVER)]
    return np.sort(np.concatenate((edges, cuts)))


def _panel_slices(n: int, known: int):
    """(rows, from_table) slices that cover n panels, the first known with nodes in the plan.

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


class _Plan(NamedTuple):
    """The part of a quadrature over the intervals between edges that no geometry enters."""

    u: np.ndarray  # nodes of the first len(u) panels, one row each
    phase: np.ndarray  # exp(i*pi*u)
    grid: np.ndarray  # edges of every panel
    scale: np.ndarray  # -i*pi*half-width of every panel
    owner: np.ndarray  # the interval every panel folds onto
    slices: tuple  # _panel_slices of the panels


def _plan(edges: np.ndarray, known: int) -> _Plan:
    """Plan of the intervals between non-decreasing edges, nodes kept for the first known panels.

    Panels split the intervals at interior integers (see _panel_edges). The
    arrays are read-only, since a cache hands them to every call.
    """
    import numpy as np

    grid = _panel_edges(edges)
    lo, hi = grid[:-1], grid[1:]
    plan = _Plan(
        *_nodes_and_phases(lo[:known], hi[:known]), grid,
        -1j * np.pi * ((hi - lo) / 2.0), np.searchsorted(edges, lo, side="right") - 1,
        tuple(_panel_slices(len(lo), known)),
    )
    for array in plan[:-1]:
        array.flags.writeable = False
    return plan


@lru_cache(maxsize=16)
def _interval_plan(intervals: tuple[tuple[float, float], ...]) -> _Plan:
    """Plan of sorted, disjoint intervals and the gaps between them.

    field_ratio keeps the plans of its last 16 sets of at most _PANEL_CHUNK
    intervals. With at most U_MAX integers between them, such a set has fewer
    than 720 panels, so a plan holds at most about 0.3 MB and the cache 5 MB.
    """
    import numpy as np

    return _plan(np.array(intervals, dtype=float).ravel(), _PANEL_BLOCK)


@lru_cache(maxsize=1)
def _step_plan(step: float) -> tuple[list[float], _Plan]:
    """(samples, plan) of the curve grid k*step: its first points, as floats, and its panels.

    plan keeps the nodes of one _PANEL_BLOCK block of panels, which cover the
    intervals between samples whole; with the samples, about 3.5 MB. The grid
    ends at U_MAX or past the block, so a coarse step cuts no more integers
    than a curve to U_MAX does and a fine one sorts no samples past it.
    """
    grid = _curve_samples(min(U_MAX, (_PANEL_BLOCK + 1) * step), step)[:-1]
    plan = _plan(grid, _PANEL_BLOCK)
    # the first panel without nodes is in the first interval not whole
    whole = plan.owner[_PANEL_BLOCK] + 1 if len(plan.owner) > _PANEL_BLOCK else len(grid)
    return grid[:whole].tolist(), plan


def _contributions(plan: _Plan, geometry: PathGeometry | None, n: int) -> np.ndarray:
    """Integral of (-i*pi)*K(u)*exp(i*pi*u) over each of the n intervals of plan.

    K = 1 when geometry is None. K(u) and the rule's row sums are formed a
    slice of plan.slices at a time.
    """
    import numpy as np

    _, weights = _gauss_legendre()
    panels = np.empty(len(plan.scale), dtype=complex)
    for rows, from_table in plan.slices:
        if from_table:
            u, phase = plan.u[rows], plan.phase[rows]
        else:
            u, phase = _nodes_and_phases(plan.grid[:-1][rows], plan.grid[1:][rows])
        weight = 1.0 if geometry is None else obliquity_factor(u, geometry)
        np.matmul(weight * phase, weights, out=panels[rows])
    panels *= plan.scale
    if len(panels) == n:
        # one panel an interval: the fold below adds each to 0.0 too (a
        # zero-width gap hands the next interval its panel, an exact 0)
        return panels + 0.0
    return np.bincount(plan.owner, panels.real, n) + 1j * np.bincount(plan.owner, panels.imag, n)


def _obliquity_field(u_max: float, step: float, geometry: PathGeometry):
    """An obliquity curve's samples past 0, a list of floats then an array, and its field there.

    Its samples below u_max are the grid's, so its first t intervals take their
    panels from _step_plan(step), by count; only the tail past them is planned.
    """
    import numpy as np

    grid, table = _step_plan(step)
    t = max(0, bisect.bisect_left(grid, u_max - _SLIVER) - 1)
    tail = _curve_samples(u_max, step, t)
    rest, known = _plan(tail, 0), int(np.searchsorted(table.owner, t))
    plan = _Plan(
        table.u[:known], table.phase[:known], np.concatenate((table.grid[:known], rest.grid)),
        np.concatenate((table.scale[:known], rest.scale)),
        np.concatenate((table.owner[:known], rest.owner + t)),
        tuple(_panel_slices(known + len(rest.scale), known)),
    )
    return grid[1 : t + 1], tail[1:], np.cumsum(_contributions(plan, geometry, t + len(tail) - 1))


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
    # the even-numbered gaps between edges are the blocked intervals
    key = tuple(intervals)
    plan = (_interval_plan if len(key) <= _PANEL_CHUNK else _interval_plan.__wrapped__)(key)
    sums = _contributions(plan, geometry if obliquity else None, 2 * len(key) - 1)
    return FieldRatio(complex(1.0 - sums[::2].sum()))


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

    if not obliquity:
        u = _curve_samples(u_max, step)[1:]
        return [(0.0, 0.0), *zip(u.tolist(), np.abs(1.0 - np.exp(1j * np.pi * u)).tolist())]
    head, tail, field = _obliquity_field(u_max, step, geometry)
    return [(0.0, 0.0), *zip(head + tail.tolist(), np.abs(field).tolist())]


def zone_table(geometry: PathGeometry, max_zone: int) -> list[tuple[float, int]]:
    """(radius, zone index) rows out to max_zone."""
    max_zone = check_zone_number("max_zone", max_zone)
    return [(zone_radius(n, geometry), n) for n in range(1, max_zone + 1)]

