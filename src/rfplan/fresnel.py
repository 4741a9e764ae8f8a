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

With K(u) the integral is numerical: a Gauss-Legendre rule of as few nodes as
the widest panel allows (see _nodes_for) on panels between integers. A panel's
nodes are added node 0 first and the panels left to right, by a field ratio in
Python floats and by a curve in float64 rows, so no SIMD unit or BLAS kernel
moves a bit. A curve samples errors.sample_grid, as a lens profile does.
"""
from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import pairwise
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    SLIVER, U_MAX, DomainError, _length, _positive, check_interval, check_items,
    check_sample_count, check_u_max, check_zone_number, sample_grid,
)

if TYPE_CHECKING:
    import numpy as np

# Accuracy quadrature results are held to, relative to max(1, |value|); the
# fixed rule's error is orders of magnitude below it.
QUADRATURE_REL_TOL = 1e-6

# Node values of a curve formed at once, at least 16: it bounds memory and
# moves no bit. A chunk's largest temporary, 96 KiB, is reused from the heap,
# where larger ones go back to the kernel: a fresnel-study op faulted in 0.2
# pages at this size, 2.4 at twice it and 5.9 with whole curves.
_CHUNK_NODES = 6144

# Panels of the curve grid at one step whose nodes are kept between calls
# (see _step_plan); a curve to U_MAX at the default step fits whole.
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

    u may be a float, which gives a float and loads no numpy, or a numpy array,
    which gives one of its shape with its temporaries updated in place. Both
    take the operations in the order of r_sq = u*lambda*d1*d2/(d1+d2) and
    (d1*d2 - r_sq)/sqrt((d1*d1 + r_sq)*(d2*d2 + r_sq)).
    """
    g = geometry
    r_sq = u * g.lambda_m
    r_sq *= g.d1_m
    r_sq *= g.d2_m
    r_sq /= g.d1_m + g.d2_m
    cos_chi, norm = g.d1_m * g.d2_m - r_sq, g.d1_m * g.d1_m + r_sq
    r_sq += g.d2_m * g.d2_m
    norm *= r_sq
    if isinstance(norm, float):
        cos_chi /= math.sqrt(norm)
    else:
        import numpy as np
        cos_chi /= np.sqrt(norm)
    cos_chi += 1.0
    cos_chi *= 0.5
    return cos_chi


def _validated_intervals(blocked: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    items = check_items("blocked", blocked, "iterable")
    intervals = sorted(check_interval("interval", interval) for interval in items)
    for (a_prev, b_prev), (a_next, b_next) in zip(intervals, intervals[1:]):
        if a_next < b_prev:
            raise DomainError(
                f"blocked intervals [{a_prev}, {b_prev}] and [{a_next}, {b_next}] overlap"
            )
    return intervals


@cache
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes, ascending, and weights of the n-node Gauss-Legendre rule on [-1, 1].

    Newton's iteration on P_n in Python floats gives the nodes from 0 up, then
    mirrored: no LAPACK routine enters the bits.
    """
    upper = []
    for i in range((n + 1) // 2, 0, -1):
        x = 0.0 if 2 * i == n + 1 else math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(10):  # quadratic from the guess: the last bit has settled
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            x -= p / dp
        upper.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(zip(*[(-x, w) for x, w in reversed(upper[n % 2 :])], *upper))


# _nodes_for's (n!)^4 and (2n+1)((2n)!)^3, as the floats its int*float and float/int made
_REMAINDER_FACTORS = {n: (float(math.factorial(n) ** 4),
                          float((2 * n + 1) * math.factorial(2 * n) ** 3)) for n in range(1, 16)}


def _nodes_for(width: float) -> int:
    """Fewest Gauss-Legendre nodes, at most 16, exact to rounding on panels of the width.

    That is the rule's remainder for an integrand of frequency 5*pi, (n!)^4
    (5*pi*h)^(2n) / ((2n+1) ((2n)!)^3) <= 2^-53: exp(i*pi*u) has frequency pi
    and K(u) varies far more slowly. Unit panels take 16, steps of 0.05 take 6.
    """
    return next((n for n, (top, bottom) in _REMAINDER_FACTORS.items()
                 if top * (5.0 * math.pi * width) ** (2 * n) / bottom <= 2.0**-53), 16)


def _nodes_and_terms(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule nodes u of the panels [lo, hi], one row per node, and their terms S and C.

    A node's share of (-i*pi)*exp(i*pi*u) over its panel is S - i*C, S =
    pi*half*w*sin(pi*u) and C = pi*half*w*cos(pi*u). numpy's complex exp
    calls the C library's cos and sin whatever SIMD the CPU has.
    """
    import numpy as np

    nodes, weights = np.array(_gauss_legendre(n))[:, :, None]
    half = (hi - lo) / 2.0
    u = (lo + half) + nodes * half
    phase = np.exp(1j * np.pi * u)
    scale = weights * (np.pi * half)
    return u, np.stack((phase.imag * scale, phase.real * scale), axis=1)


def _panel_edges(edges: list[float]) -> list[float]:
    """Increasing edges plus the integers between them, bar those within SLIVER of one."""
    cuts = []
    for k in range(math.floor(edges[0]) + 1, math.ceil(edges[-1])):
        above = bisect.bisect_left(edges, k)
        if edges[above] - k > SLIVER and k - edges[above - 1] > SLIVER:
            cuts.append(float(k))
    return sorted(edges + cuts) if cuts else edges


class _Plan(NamedTuple):
    """The part of a quadrature over a row of panels that no geometry enters."""

    u: np.ndarray  # nodes of the first panels, shape (n, known)
    terms: np.ndarray  # their S and C, shape (n, 2, known)
    lo: np.ndarray  # edges of the panels past them, whose nodes come per chunk
    hi: np.ndarray


def _panel_values(plan: _Plan, geometry: PathGeometry) -> np.ndarray:
    """Rows S and C, S - i*C the integral of (-i*pi)*K(u)*exp(i*pi*u) over each panel of plan.

    A chunk of _CHUNK_NODES // n panels at a time, so that temporaries stay
    small. Each chunk sums K(u)*terms over its node rows: numpy reduces the
    outer axis of (nodes, S/C, panels) from 0.0, whole rows in order, row 0
    first; the S/C axis keeps it outer for any panel count, where on (nodes, 1)
    numpy would add pairwise. Every other operation is elementwise: a panel's
    bits depend on no other.
    """
    import numpy as np

    n, known = plan.u.shape
    size = _CHUNK_NODES // n
    kept = [(plan.u[:, i : i + size], plan.terms[:, :, i : i + size])
            for i in range(0, known, size)]
    rest = (_nodes_and_terms(plan.lo[i : i + size], plan.hi[i : i + size], n)
            for i in range(0, len(plan.lo), size))
    sums = [(terms * obliquity_factor(u, geometry)[:, None]).sum(axis=0)
            for u, terms in (*kept, *rest)]
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


@lru_cache(maxsize=1)
def _step_plan(step: float) -> tuple[list[float], np.ndarray, _Plan]:
    """(samples, ends, plan) of the curve grid k*step, at the nodes the step needs.

    plan keeps one _PANEL_BLOCK block of panels, covering the intervals between
    the samples whole; ends[k] is interval k's last panel. The grid ends at
    U_MAX or past the block: a coarse step cuts no more integers than a curve
    to U_MAX, and a fine one sorts no samples past the block.
    """
    import numpy as np

    grid = sample_grid(min(U_MAX, (_PANEL_BLOCK + 1) * step), step)[:-1]
    panels = np.array(_panel_edges(grid))
    ends = np.searchsorted(panels, grid[1:]) - 1
    whole = int(np.searchsorted(ends, _PANEL_BLOCK))
    lo, hi = panels[:-1][:_PANEL_BLOCK], panels[1:][:_PANEL_BLOCK]
    plan = _Plan(*_nodes_and_terms(lo, hi, _nodes_for(min(step, 1.0))), lo[:0], hi[:0])
    for array in (*plan, ends):  # read-only, as every curve at the step shares them
        array.flags.writeable = False
    return grid[: whole + 1], ends[:whole], plan


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

    if not ((obliquity or force_quadrature) and intervals):
        ratio = 1.0 + 0.0j
        for a, b in intervals:
            ratio += cmath.exp(1j * math.pi * b) - cmath.exp(1j * math.pi * a)
        return FieldRatio(ratio)

    # 1 minus the sum of S - i*C over the panels, each term formed and added as
    # _nodes_and_terms and _panel_values do, from 0.0; K = 1 multiplies exactly
    panels = [p for a, b in intervals for p in pairwise(_panel_edges([a, b]))]
    nodes, weights = _gauss_legendre(_nodes_for(max(hi - lo for lo, hi in panels)))
    s, c, k = 0.0, 0.0, 1.0
    for lo, hi in panels:
        half = (hi - lo) / 2.0
        mid, scale = lo + half, math.pi * half
        panel_s = panel_c = 0.0
        for x, w in zip(nodes, weights):
            u = mid + x * half
            if obliquity:
                k = obliquity_factor(u, geometry)
            panel_s += math.sin(math.pi * u) * (w * scale) * k
            panel_c += math.cos(math.pi * u) * (w * scale) * k
        s += panel_s
        c += panel_c
    return FieldRatio(complex(1.0 - s, c))


def partial_field_curve(
    u_max: float,
    step: float = 0.05,
    *,
    obliquity: bool = False,
    geometry: PathGeometry | None = None,
) -> list[tuple[float, float]]:
    """(u, |field of the open aperture [0, u]|) samples for plotting.

    Without obliquity this is |1 - exp(i*pi*u)|, the familiar spiral swing
    between 0 and twice the free field. With it, the first t intervals take
    their panels from _step_plan(step), by count, and only the tail past them
    is planned; the field is the panels' running sum at each interval's end.
    """
    u_max, step = check_u_max("u_max", u_max), _positive("step", step)
    check_sample_count(step, u_max, "step", "u_max")
    if obliquity and geometry is None:
        raise DomainError("obliquity weighting needs the path geometry")
    import numpy as np

    if not obliquity:
        u = sample_grid(u_max, step)[1:]
        field = 1.0 - np.exp(1j * np.pi * np.fromiter(u, float, len(u)))
        s, c = field.real, field.imag
    else:
        grid, ends, table = _step_plan(step)
        t = max(0, bisect.bisect_left(grid, u_max - SLIVER) - 1)
        # below the last kept sample the tail is one interval of the grid's
        tail = [grid[t], u_max] if t + 1 < len(grid) else sample_grid(u_max, step)[t:]
        panels = _panel_edges(tail)
        known = int(ends[t - 1]) + 1 if t else 0
        plan = _Plan(table.u[:, :known], table.terms[:, :, :known],
                     np.array(panels[:-1]), np.array(panels[1:]))
        field = np.cumsum(_panel_values(plan, geometry), axis=1)
        if known + len(panels) != t + len(tail):
            last = np.concatenate((ends[:t], known + np.searchsorted(panels, tail[1:]) - 1))
            field = field[:, last]
        u, (s, c) = grid[1 : t + 1] + tail[1:], field
    # not np.abs, whose complex loop numpy picks by the CPU's SIMD
    return [(0.0, 0.0), *zip(u, np.sqrt(s * s + c * c).tolist())]


def zone_table(geometry: PathGeometry, max_zone: int) -> list[tuple[float, int]]:
    """(radius, zone index) rows out to max_zone."""
    max_zone = check_zone_number("max_zone", max_zone)
    return [(zone_radius(n, geometry), n) for n in range(1, max_zone + 1)]

