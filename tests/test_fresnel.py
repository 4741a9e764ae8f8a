import cmath
import contextlib
import hashlib
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfplan import fresnel
from rfplan.errors import (
    MAX_LENGTH_M,
    MAX_SAMPLES,
    MIN_LENGTH_M,
    DomainError,
    check_sample_count,
)
from rfplan.fresnel import (
    U_MAX,
    AnnularScreenSpec,
    PathGeometry,
    field_ratio,
    obliquity_factor,
    partial_field_curve,
    screen_for_zone,
    shading_cone_deg,
    zone_index,
    zone_radius,
    zone_table,
)

GEOM = PathGeometry(d1_m=25.0, d2_m=25.0, lambda_m=0.125)


def brute_force_ratio(blocked, geometry=None, steps_per_unit=4000):
    """Fixed-step Simpson evaluation of 1 - sum over blocked intervals of
    (-i*pi)*K(u)*exp(i*pi*u) du; deliberately independent of the library."""

    def integrand(u):
        k = obliquity_factor(u, geometry) if geometry is not None else 1.0
        return -1j * math.pi * k * cmath.exp(1j * math.pi * u)

    total = 0j
    for a, b in blocked:
        n = max(2, 2 * round(steps_per_unit * (b - a) / 2))
        h = (b - a) / n
        acc = integrand(a) + integrand(b)
        for i in range(1, n):
            acc += (4 if i % 2 else 2) * integrand(a + i * h)
        total += acc * h / 3
    return 1 - total


def gauss_legendre_ratio(blocked, geometry=None, nodes=32):
    """1 - sum over blocked intervals of the aperture integral, with a
    `nodes`-point Gauss-Legendre rule on each piece between integer u."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0j
    for a, b in blocked:
        grid = np.union1d([a, b], np.arange(math.floor(a) + 1, math.ceil(b)))
        lo, hi = grid[:-1], grid[1:]
        u = ((lo + hi) / 2)[:, None] + ((hi - lo) / 2)[:, None] * x
        k = obliquity_factor(u, geometry) if geometry is not None else 1.0
        total += np.sum((-1j * math.pi * k * np.exp(1j * math.pi * u)) @ w * (hi - lo) / 2)
    return 1 - total


def test_zone_radius_reference_geometry():
    assert zone_radius(1, GEOM) == pytest.approx(1.25, abs=1e-12)
    assert zone_radius(2, GEOM) == pytest.approx(1.7677669529663689, abs=1e-12)


def test_zone_radius_vanishes_with_near_end_placement():
    tiny = PathGeometry(d1_m=1e-9, d2_m=50.0, lambda_m=0.125)
    assert zone_radius(1, tiny) < 1e-4


def test_zone_radius_rejects_zone_zero():
    with pytest.raises(DomainError):
        zone_radius(0, GEOM)


def test_zone_numbers_above_u_max_are_refused():
    # PathGeometry checks the terms of zone_radius only out to U_MAX; a zone
    # number past it reached float() unchecked (10**400 overflowed) or built
    # a table row by row without end
    assert zone_radius(int(U_MAX), GEOM) == pytest.approx(math.sqrt(U_MAX) * 1.25)
    for call in (lambda n: zone_radius(n, GEOM), lambda n: screen_for_zone(n, GEOM)):
        for n in (int(U_MAX) + 1, 10**400):
            with pytest.raises(DomainError, match=f"zone number must lie in 1..200, got {n}$"):
                call(n)
    with pytest.raises(DomainError, match=f"max_zone must lie in 1..200, got {10**26}$"):
        zone_table(GEOM, 10**26)
    assert len(zone_table(GEOM, int(U_MAX))) == U_MAX


@given(
    n=st.integers(min_value=1, max_value=20),
    d1=st.floats(min_value=0.5, max_value=500),
    d2=st.floats(min_value=0.5, max_value=500),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
def test_zone_radius_sqrt_n_scaling_and_symmetry(n, d1, d2, lam):
    g = PathGeometry(d1, d2, lam)
    swapped = PathGeometry(d2, d1, lam)
    assert zone_radius(n, g) / zone_radius(1, g) == pytest.approx(math.sqrt(n), abs=1e-12)
    assert zone_radius(n, g) == pytest.approx(zone_radius(n, swapped), abs=1e-12)


@given(n=st.integers(min_value=1, max_value=20))
def test_zone_index_inverts_zone_radius(n):
    assert zone_index(zone_radius(n, GEOM), GEOM) == pytest.approx(n, abs=1e-9)


def test_zone_index_degenerate_points():
    assert zone_index(0.0, GEOM) == 0.0
    assert zone_index(1.25, GEOM) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        zone_index(-0.1, GEOM)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_zone_index_refuses_non_finite_radius(r):
    # nan and inf came back as the zone coordinate
    with pytest.raises(DomainError, match=f"got {r}$"):
        zone_index(r, GEOM)


def test_zone_index_refuses_radius_whose_coordinate_overflows():
    with pytest.raises(DomainError, match="^radius must lie in .*, got 1e\\+200$"):
        zone_index(1e200, GEOM)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_zone_numbers_must_be_integers(n):
    # 2.5 gave a radius between zones 2 and 3, True zone 1's radius, and
    # screen_for_zone(2.5) an annulus with blocked_zone=2.5
    message = re.escape(f"zone number must be an integer, got {n!r}") + "$"
    for call in (lambda: zone_radius(n, GEOM), lambda: screen_for_zone(n, GEOM)):
        with pytest.raises(DomainError, match=message):
            call()
    with pytest.raises(DomainError, match=re.escape(f"max_zone must be an integer, got {n!r}")):
        zone_table(GEOM, n)


def test_screen_for_zone_two_on_axis_midpoint():
    screen = screen_for_zone(2, GEOM)
    assert screen.r_inner_m == pytest.approx(1.25, abs=1e-12)
    assert screen.r_outer_m == pytest.approx(1.7677669529663689, abs=1e-12)
    assert screen.outer_diameter_m == pytest.approx(3.5355339059327378, abs=1e-12)
    assert screen.blocked_zone == 2


def test_screen_for_zone_near_end_meets_size_budget():
    # pushing the screen toward one end shrinks it below a 2.5 m diameter
    geom = PathGeometry(d1_m=5.0, d2_m=45.0, lambda_m=0.125)
    screen = screen_for_zone(2, geom)
    assert screen.r_outer_m == pytest.approx(1.0606601717798212, abs=1e-12)
    assert screen.outer_diameter_m == pytest.approx(2.1213203435596424, abs=1e-12)
    assert screen.outer_diameter_m <= 2.5


def test_screen_zone_one_starts_at_axis():
    screen = screen_for_zone(1, GEOM)
    assert screen.r_inner_m == 0.0


def test_annular_screen_validation():
    with pytest.raises(DomainError):
        AnnularScreenSpec(GEOM, r_inner_m=1.0, r_outer_m=0.5, blocked_zone=2)
    with pytest.raises(DomainError, match=r"^blocked_zone must be an integer, got 2\.5$"):
        AnnularScreenSpec(GEOM, r_inner_m=0.0, r_outer_m=1.0, blocked_zone=2.5)
    with pytest.raises(DomainError, match=r"^blocked_zone must lie in 1\.\.200, got 0$"):
        AnnularScreenSpec(GEOM, r_inner_m=0.0, r_outer_m=1.0, blocked_zone=0)
    screen = AnnularScreenSpec(GEOM, r_inner_m=0.0, r_outer_m=1.0, blocked_zone=np.int64(2))
    assert type(screen.blocked_zone) is int and screen.blocked_zone == 2


def test_shading_cone_reference_angles():
    assert shading_cone_deg(0.0, 50.0) == 0.0
    assert shading_cone_deg(1.7677669529663689, 50.0) == pytest.approx(4.04973659455468, abs=1e-9)
    assert shading_cone_deg(1.0606601717798212, 45.0) == pytest.approx(2.700448939399231, abs=1e-9)
    with pytest.raises(DomainError):
        shading_cone_deg(1.0, 0.0)


@pytest.mark.parametrize(
    "r, distance, message",
    [
        (math.nan, 50.0, "radius must be a finite number, got nan"),  # was nan
        (math.inf, 50.0, "radius must be a finite number, got inf"),  # was 180
        (1.0, math.nan, "distance must be a finite number, got nan"),  # was nan
        (1.0, math.inf, "distance must be a finite number, got inf"),  # was 0.0
    ],
)
def test_shading_cone_refuses_non_finite_inputs(r, distance, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        shading_cone_deg(r, distance)


def test_field_ratio_empty_blockage_is_exactly_one():
    ratio = field_ratio([])
    assert ratio.complex_ratio == 1.0 + 0.0j
    assert ratio.magnitude == 1.0


def test_field_ratio_zone_two_blocked_triples_field():
    ratio = field_ratio([(1.0, 2.0)])
    assert ratio.complex_ratio.real == pytest.approx(3.0, abs=1e-12)
    assert ratio.complex_ratio.imag == pytest.approx(0.0, abs=1e-12)
    assert ratio.power_gain_db == pytest.approx(9.542425094393248, abs=1e-9)


def test_field_ratio_zone_one_blocked_flips_sign():
    ratio = field_ratio([(0.0, 1.0)])
    assert ratio.complex_ratio.real == pytest.approx(-1.0, abs=1e-12)
    assert ratio.magnitude == pytest.approx(1.0, abs=1e-12)


def test_field_ratio_two_zones_blocked_telescopes_to_one():
    ratio = field_ratio([(0.0, 2.0)])
    assert ratio.complex_ratio.real == pytest.approx(1.0, abs=1e-12)


def test_field_ratio_rejects_bad_intervals():
    with pytest.raises(
        DomainError, match=re.escape("blocked intervals [1.0, 2.0] and [1.5, 2.5] overlap")
    ):
        field_ratio([(1.5, 2.5), (1.0, 2.0)])
    with pytest.raises(DomainError):
        field_ratio([(2.0, 1.0)])  # reversed
    with pytest.raises(DomainError):
        field_ratio([(-1.0, 1.0)])  # negative
    with pytest.raises(DomainError):
        field_ratio([(0.0, U_MAX + 1.0)])  # beyond the supported range
    with pytest.raises(DomainError):
        field_ratio([(1.0, 2.0)], obliquity=True)  # geometry missing


def test_forced_quadrature_matches_closed_form_zone_two():
    closed = field_ratio([(1.0, 2.0)])
    quad = field_ratio([(1.0, 2.0)], force_quadrature=True)
    assert abs(quad.complex_ratio - closed.complex_ratio) < 1e-9
    assert quad.magnitude == pytest.approx(3.0, abs=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=8.0),
    width=st.floats(min_value=0.05, max_value=3.0),
    gap=st.floats(min_value=0.1, max_value=2.0),
    width2=st.floats(min_value=0.05, max_value=3.0),
)
def test_quadrature_agrees_with_closed_form_and_brute_force(a, width, gap, width2):
    blocked = [(a, a + width), (a + width + gap, a + width + gap + width2)]
    closed = field_ratio(blocked)
    quad = field_ratio(blocked, force_quadrature=True)
    brute = brute_force_ratio(blocked)
    assert abs(quad.complex_ratio - closed.complex_ratio) < 1e-6
    assert abs(brute - closed.complex_ratio) < 1e-4


def test_obliquity_factor_unity_on_axis_and_decreasing():
    assert obliquity_factor(0.0, GEOM) == pytest.approx(1.0, abs=1e-12)
    values = [obliquity_factor(u, GEOM) for u in (0.0, 1.0, 5.0, 20.0, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_obliquity_softens_zone_two_enhancement():
    ratio = field_ratio([(1.0, 2.0)], obliquity=True, geometry=GEOM)
    assert 2.5 < ratio.magnitude < 3.0
    brute = brute_force_ratio([(1.0, 2.0)], geometry=GEOM)
    assert abs(ratio.complex_ratio - brute) < 1e-4


@settings(max_examples=10, deadline=None)
@given(
    d1=st.floats(min_value=15.0, max_value=200.0),
    d2=st.floats(min_value=15.0, max_value=200.0),
)
def test_obliquity_zone_two_window_at_wifi_scale(d1, d2):
    # both legs at least 100 wavelengths
    geom = PathGeometry(d1, d2, 0.125)
    ratio = field_ratio([(1.0, 2.0)], obliquity=True, geometry=geom)
    assert 2.5 < ratio.magnitude < 3.0


@given(n=st.integers(min_value=1, max_value=15))
def test_single_even_zone_boosts_single_odd_zone_does_not(n):
    ratio = field_ratio([(float(n - 1), float(n))])
    if n % 2 == 0:
        assert ratio.magnitude > 1.0
    else:
        assert ratio.magnitude <= 1.0 + 1e-12


def test_partial_field_curve_swings_between_zero_and_two():
    curve = partial_field_curve(4.0, step=0.25)
    mags = dict(curve)
    assert mags[0.0] == 0.0
    assert mags[1.0] == pytest.approx(2.0, abs=1e-12)  # zone 1 alone doubles the field
    assert mags[2.0] == pytest.approx(0.0, abs=1e-12)
    assert mags[3.0] == pytest.approx(2.0, abs=1e-12)
    assert max(mags.values()) <= 2.0 + 1e-9


def test_partial_field_curve_obliquity_decays():
    curve = partial_field_curve(6.0, step=0.5, obliquity=True, geometry=GEOM)
    mags = dict(curve)
    # odd-zone peaks shrink once the obliquity weight bites
    assert mags[1.0] < 2.0
    assert mags[5.0] < mags[1.0]


@settings(max_examples=50, deadline=None)
@given(
    points=st.lists(
        st.floats(min_value=0.0, max_value=U_MAX), min_size=2, max_size=6, unique=True
    ),
    d1=st.floats(min_value=0.5, max_value=500),
    d2=st.floats(min_value=0.5, max_value=500),
    lam=st.floats(min_value=0.01, max_value=1.0),
    u_max=st.floats(min_value=0.01, max_value=U_MAX),
)
def test_panel_rule_matches_doubled_rule(points, d1, d2, lam, u_max):
    points = sorted(points)
    blocked = list(zip(points[::2], points[1::2]))
    geom = PathGeometry(d1, d2, lam)
    for geometry, kwargs in ((geom, {"obliquity": True}), (None, {"force_quadrature": True})):
        got = field_ratio(blocked, geometry=geometry, **kwargs).complex_ratio
        ref = gauss_legendre_ratio(blocked, geometry)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    # the curve's running sum ends where one integral over [0, u_max] does,
    # and at each step's node count its samples are those of the doubled rule
    whole = field_ratio([(0.0, u_max)], obliquity=True, geometry=geom).complex_ratio
    for step in (0.05, 0.013, 0.1, 0.5, 3.7):
        curve = partial_field_curve(u_max, step, obliquity=True, geometry=geom)
        assert curve[-1][0] == u_max
        assert curve[-1][1] == pytest.approx(abs(1.0 - whole), abs=1e-12)
        for u, mag in curve[1 :: max(1, len(curve) // 8)]:
            ref = abs(1.0 - gauss_legendre_ratio([(0.0, u)], geom))
            assert abs(mag - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("obliquity", [False, True])
def test_partial_field_curve_samples_do_not_drift(obliquity):
    step = 0.05
    curve = partial_field_curve(144.0, step, obliquity=obliquity, geometry=GEOM)
    assert len(curve) == 2881
    assert [u for u, _ in curve[:-1]] == [k * step for k in range(2880)]
    assert curve[-1][0] == 144.0


def unclipped_curve_samples(u_max, step):
    """The reference for _curve_samples: the same grid, formed in full, overflow and all."""
    with np.errstate(over="ignore"):
        ks = np.arange(math.ceil(u_max / step) + 2) * step
    return np.append(ks[: max(1, np.searchsorted(ks, u_max - fresnel._SLIVER))], u_max)


@given(
    u_max=st.floats(min_value=0.0, max_value=U_MAX, exclude_min=True),
    step=st.floats(min_value=2.5e-4, max_value=400.0)
    | st.floats(min_value=1e300, max_value=sys.float_info.max),
)
@example(u_max=200.0, step=1.7e308)
@example(u_max=200.0, step=sys.float_info.max)
@example(u_max=5e-324, step=sys.float_info.max)
@example(u_max=200.0, step=200.0)
@example(u_max=200.0, step=math.nextafter(200.0, 0.0))
@example(u_max=200.0, step=100.0)
def test_curve_samples_match_the_unclipped_grid(u_max, step):
    assume(u_max / step <= MAX_SAMPLES)
    # under the suite's error::RuntimeWarning an overflow would raise here
    got = fresnel._curve_samples(u_max, step)
    assert got.tobytes() == unclipped_curve_samples(u_max, step).tobytes()


def test_fine_obliquity_curve_memory_is_bounded():
    tracemalloc.start()
    try:
        curve = partial_field_curve(200.0, 0.0005, obliquity=True, geometry=GEOM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 400_001
    assert peak < 128e6  # the returned list alone is about 45 MB


def _clear_plans():
    fresnel._step_plan.cache_clear()
    fresnel._interval_plan.cache_clear()


@contextlib.contextmanager
def _panel_block(block):
    """_PANEL_BLOCK set to block, with no plan of another size kept past either edge."""
    _clear_plans()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fresnel, "_PANEL_BLOCK", block)
        try:
            yield mp
        finally:
            _clear_plans()


def test_blocked_panels_match_one_block():
    # about 20,000 panels: two block edges at the default block size
    blocked = partial_field_curve(200.0, 0.01, obliquity=True, geometry=GEOM)
    assert len(blocked) > 2 * fresnel._PANEL_BLOCK
    with _panel_block(len(blocked) * 2):
        assert partial_field_curve(200.0, 0.01, obliquity=True, geometry=GEOM) == blocked


def _hex_curve(curve):
    return [(u.hex(), mag.hex()) for u, mag in curve]


_CURVE_CALL = st.tuples(
    st.sampled_from([0.05, 0.1, 0.013, 0.5]),
    st.one_of(
        st.floats(min_value=0.0, max_value=U_MAX, exclude_min=True),
        st.integers(min_value=1, max_value=int(U_MAX)).map(float),
    ),
    st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(
    calls=st.lists(_CURVE_CALL, min_size=1, max_size=6),
    d1=st.floats(min_value=1.0, max_value=300.0),
    d2=st.floats(min_value=1.0, max_value=300.0),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
def test_warm_phase_memo_matches_cold(calls, d1, d2, lam):
    # a kept step table's nodes and phases must be the bits a fresh one
    # gives, whatever steps and lengths the calls before it asked for
    geom = PathGeometry(d1, d2, lam)
    for step, u_max, obliquity in calls:
        warm = partial_field_curve(u_max, step, obliquity=obliquity, geometry=geom)
        fresnel._step_plan.cache_clear()
        cold = partial_field_curve(u_max, step, obliquity=obliquity, geometry=geom)
        assert _hex_curve(warm) == _hex_curve(cold)


def test_fine_curve_leaves_the_phase_memo_bounded():
    before = _hex_curve(partial_field_curve(150.0, obliquity=True, geometry=GEOM))
    fine = partial_field_curve(200.0, 0.0005, obliquity=True, geometry=GEOM)
    assert len(fine) == 400_001
    samples, ends, plan = fresnel._step_plan(0.0005)
    assert plan.u.shape[1] == plan.terms.shape[2] == fresnel._PANEL_BLOCK and not len(plan.lo)
    # the intervals between the kept samples end in the kept panels
    assert len(ends) == len(samples) - 1 and ends[-1] < fresnel._PANEL_BLOCK
    after = partial_field_curve(150.0, obliquity=True, geometry=GEOM)
    assert _hex_curve(after) == before
    whole = field_ratio([(0.0, 150.0)], obliquity=True, geometry=GEOM).complex_ratio
    assert after[-1][1] == pytest.approx(abs(1.0 - whole), abs=1e-12)


def test_gauss_legendre_rule_matches_leggauss():
    # no LAPACK in the rule's bits: leggauss starts from eigvalsh. Its weights
    # come from P_n' at those roots, before their Newton step, and lie up to
    # 63 ulp (1.4e-14) from 50-digit values, so only the nodes are held to ulps
    for n in range(1, 17):
        nodes, weights = fresnel._gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert (np.abs(nodes - ref_nodes) <= 2 * np.spacing(np.abs(ref_nodes))).all(), n
        assert (np.abs(weights - ref_weights) <= 2e-14 * ref_weights).all(), n
        assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()


def test_node_count_grows_with_the_panel_width():
    assert fresnel._nodes_for(1.0) == 16 and fresnel._nodes_for(0.05) == 6
    assert [fresnel._nodes_for(h) for h in (0.1, 0.25, 0.5)] == [7, 10, 12]
    counts = [fresnel._nodes_for(h) for h in np.linspace(0.0, 1.0, 10_001).tolist()]
    assert counts[0] == 1 and all(a <= b for a, b in zip(counts, counts[1:]))


def _curve_and_ratio_bits(u_max, step, blocked, geometry):
    curve = partial_field_curve(u_max, step, obliquity=True, geometry=geometry)
    ratios = (field_ratio(blocked, obliquity=True, geometry=geometry).complex_ratio,
              field_ratio(blocked, force_quadrature=True).complex_ratio)
    return _hex_curve(curve), [(z.real.hex(), z.imag.hex()) for z in ratios]


# the deep-fuzz CI step runs the property at 1,000 curves (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(
    step=st.sampled_from([0.05, 0.1, 0.013, 0.5, 3.7]),
    u_max=st.floats(min_value=0.0, max_value=U_MAX, exclude_min=True),
    block=st.sampled_from([2, 37, fresnel._PANEL_BLOCK]),
    chunk_nodes=st.sampled_from([16, 17, 100, 10**6]),
    points=st.lists(
        st.floats(min_value=0.0, max_value=U_MAX), min_size=2, max_size=8, unique=True
    ),
    d1=st.floats(min_value=1.0, max_value=300.0),
    d2=st.floats(min_value=1.0, max_value=300.0),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
def test_chunk_and_block_sizes_leave_every_bit(
    step, u_max, block, chunk_nodes, points, d1, d2, lam
):
    # every operation on a panel's nodes is elementwise and its node rows are
    # added in one fixed order, so neither the panels formed at once nor
    # whether a panel's nodes come from a kept plan moves a bit; at 16 nodes
    # a chunk of 16 node values is one panel
    geom = PathGeometry(d1, d2, lam)
    points = sorted(points)
    blocked = list(zip(points[::2], points[1::2]))
    with _panel_block(fresnel._PANEL_BLOCK):
        expected = _curve_and_ratio_bits(u_max, step, blocked, geom)
    with _panel_block(block) as mp:
        mp.setattr(fresnel, "_CHUNK_NODES", chunk_nodes)
        assert _curve_and_ratio_bits(u_max, step, blocked, geom) == expected


@pytest.mark.parametrize("u_max", [200.0, 137.3])  # 137.3 is off the grid: a tail past the table
def test_warm_curve_temporaries_stay_small(u_max):
    # with the step table built, a curve's temporaries are a few chunks of
    # nodes, not whole-curve arrays
    partial_field_curve(200.0, 0.05, obliquity=True, geometry=GEOM)
    geom = PathGeometry(d1_m=31.0, d2_m=17.0, lambda_m=0.0577)
    tracemalloc.start()
    try:
        curve = partial_field_curve(u_max, 0.05, obliquity=True, geometry=geom)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve[-1][0] == u_max
    assert peak - retained < 1e6


def test_step_table_ends_at_u_max_and_field_ratios_leave_it_alone():
    # not at (_PANEL_BLOCK + 1) * step: a step of 1e6 would cut a million integers
    partial_field_curve(200.0, 1e6, obliquity=True, geometry=GEOM)
    before = fresnel._step_plan.cache_info()
    field_ratio([(0.5, 2.0), (3.0, 150.0)], obliquity=True, geometry=GEOM)
    assert fresnel._step_plan.cache_info() == before
    samples, ends, plan = fresnel._step_plan(1e6)
    assert samples == [0.0] and not len(ends) and plan.u.shape == (16, 0)
    samples, ends, plan = fresnel._step_plan(70.0)  # 0, 70 and 140 below U_MAX
    assert samples == [0.0, 70.0, 140.0] and ends.tolist() == [69, 139]
    assert plan.u.shape == (16, 140)


# three geometries, and u_max on the grid, off it, past U_MAX's table at a
# fine step and below the sliver
PINNED_GEOMETRIES = (GEOM, PathGeometry(31.0, 17.0, 0.0577), PathGeometry(100.0, 5.0, 0.123))
PINNED_U_MAX = (0.01, 1.0, 20.0, 137.3, 144.0, 200.0)


def _digest(values):
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


# sha256 of the float.hex bits each call gives. Every sum is elementwise
# IEEE arithmetic in a fixed order, so they hold on any CPU: CI runs them with
# numpy's SIMD targets capped and under another OpenBLAS kernel, and the
# deep-fuzz step runs them too
@pytest.mark.deep_fuzz
@pytest.mark.parametrize(
    ("step", "digest"),
    [
        (0.05, "606eea8833d928b53673f1324eaa0d208faa1c5b7b37ed8c3bb264fa540bf26b"),
        (0.1, "c615ff7935a53bb4d38b5bbeaf6b26c65eb84b915daff1e8a2d54d8eb9804487"),
        (0.013, "0458ce5fed6e9f4bc4d5af1c9ec9cecd9858665ca65338fe6928f9dfd88ed891"),
        (0.5, "36e0db3c1ab3d523a7fb18ab5d2ce501e5a2f3aaf2f00ed5ac1d7224c740fe3c"),
        # 20,000 panels to U_MAX: past the step table and two block edges
        (0.01, "5a8270ab0a414f5d21b6549b8d1e487fe0b03b3c369e5c2bc5612e3880971131"),
    ],
    ids=["0.05", "0.1", "0.013", "0.5", "0.01"],
)
def test_curve_bits_match_the_pinned_digest(step, digest):
    values = []
    for u_max in PINNED_U_MAX:
        for geometry in (None, *PINNED_GEOMETRIES):
            curve = partial_field_curve(
                u_max, step, obliquity=geometry is not None, geometry=geometry
            )
            values += [x for point in curve for x in point]
    assert _digest(values) == digest


@pytest.mark.deep_fuzz
@pytest.mark.parametrize(
    ("blocked", "digest"),
    [
        ([(1.0, 2.0)], "4f776f939c41dd0c77cf099da39b4bb5ebf7d276c43dd91ddf85f4aa4e94943d"),
        ([(1.0, 2.0), (3.0, 4.0)],
         "1d0d81ff5767b91bb9dd22a66f735871a0bc17873ef45817b88a1c5a1c5a5c29"),
        # a zero-width gap between them
        ([(1.0, 2.0), (2.0, 3.0)],
         "0e83b99ba709c1a7943cbedb3870984732a1d0144315813ae7009dfe604c230f"),
        ([(1.2, 1.3)], "ad06879112e8801b0211096c9730b1ff168191c11659aae3bf133695917ed72c"),
        ([(0.5, 150.0)], "bc202dc30ebb544756c124ddf34bc7b319cc20f97b031080c3cc88ef8893754c"),
    ],
    ids=["zone-2", "zones-2-4", "touching", "sub-panel", "wide"],
)
def test_field_ratio_bits_match_the_pinned_digest(blocked, digest):
    ratios = [field_ratio(blocked, obliquity=True, geometry=g) for g in PINNED_GEOMETRIES]
    ratios.append(field_ratio(blocked, force_quadrature=True))
    parts = [x for r in ratios for x in (r.complex_ratio.real, r.complex_ratio.imag)]
    assert _digest(parts) == digest


# the deep-fuzz CI step runs the property at 1,000 curves (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(
    step=st.sampled_from([0.05, 0.1, 0.013, 0.5, 0.01, 3.7]),
    u_max=st.floats(min_value=0.0, max_value=U_MAX, exclude_min=True),
    block=st.sampled_from([fresnel._PANEL_BLOCK, 37, 2]),
    d1=st.floats(min_value=1.0, max_value=300.0),
    d2=st.floats(min_value=1.0, max_value=300.0),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
@example(step=0.05, u_max=200.0, block=fresnel._PANEL_BLOCK, d1=25.0, d2=25.0, lam=0.125)
@example(step=0.01, u_max=81.93, block=fresnel._PANEL_BLOCK, d1=25.0, d2=25.0, lam=0.125)
def test_curve_from_the_step_plan_matches_one_plan_of_its_samples(step, u_max, block, d1, d2, lam):
    # a curve takes its whole intervals from the step's plan, by sample count,
    # and plans only its tail; planning all of its panels at once, at the
    # step's node count and with no nodes kept, must give the same magnitudes
    # bit for bit
    geom = PathGeometry(d1, d2, lam)
    with _panel_block(block):
        curve = partial_field_curve(u_max, step, obliquity=True, geometry=geom)
    samples = fresnel._curve_samples(u_max, step).tolist()
    assert [u for u, _ in curve] == samples
    panels = fresnel._panel_edges(samples)
    n = fresnel._nodes_for(min(step, 1.0))
    plan = fresnel._Plan(np.empty((n, 0)), np.empty((n, 2, 0)),
                         np.array(panels[:-1]), np.array(panels[1:]))
    field = np.cumsum(fresnel._panel_values(plan, geom), axis=1)
    s, c = field[:, np.searchsorted(panels, samples[1:]) - 1]
    assert _hex_curve(curve[1:]) == _hex_curve(zip(samples[1:], np.sqrt(s * s + c * c).tolist()))


# the deep-fuzz CI step runs the property at 1,000 interval sets (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(
    points=st.lists(
        st.floats(min_value=0.0, max_value=U_MAX), min_size=2, max_size=12, unique=True
    ),
    d1=st.floats(min_value=1.0, max_value=300.0),
    d2=st.floats(min_value=1.0, max_value=300.0),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
def test_kept_interval_plan_matches_a_fresh_one(points, d1, d2, lam):
    points = sorted(points)
    blocked = list(zip(points[::2], points[1::2]))
    geom = PathGeometry(d1, d2, lam)

    def bits(cold):
        parts = []
        for kwargs in ({"obliquity": True, "geometry": geom}, {"force_quadrature": True}):
            if cold:
                fresnel._interval_plan.cache_clear()
            ratio = field_ratio(blocked, **kwargs).complex_ratio
            parts += [ratio.real.hex(), ratio.imag.hex()]
        return parts

    assert bits(cold=True) == bits(cold=False)


def test_interval_plans_kept_are_bounded():
    fresnel._interval_plan.cache_clear()
    for k in range(40):
        field_ratio([(0.5, 1.0 + k)], obliquity=True, geometry=GEOM)
    assert fresnel._interval_plan.cache_info().currsize == 16
    # a set of more intervals than one chunk of unit panels is planned for its call only
    many = [(0.3 * k, 0.3 * k + 0.1) for k in range(fresnel._CHUNK_NODES // 16 + 1)]
    before = fresnel._interval_plan.cache_info()
    field_ratio(many, obliquity=True, geometry=GEOM)
    assert fresnel._interval_plan.cache_info() == before


def test_partial_field_curve_rejects_bad_step():
    for step in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(DomainError, match=str(step)):
            partial_field_curve(5.0, step)


def test_partial_field_curve_bounds_the_sample_count():
    # numpy was asked for 2e302 samples and raised its own ValueError
    message = "^step 1e-300 splits u_max 200.0 into more than 1000000 steps$"
    with pytest.raises(DomainError, match=message):
        partial_field_curve(200.0, 1e-300, obliquity=True, geometry=GEOM)
    with pytest.raises(DomainError, match="5e-324 splits u_max 200.0"):
        partial_field_curve(200.0, 5e-324)  # 200/step overflows to inf


def test_sample_count_limit_is_inclusive():
    check_sample_count(1.0, float(MAX_SAMPLES), "step", "extent")
    check_sample_count(0.0, 1.0, "step", "extent")  # the caller's own check refuses it
    with pytest.raises(DomainError, match="step 1.0 splits extent 1000001.0 into more than"):
        check_sample_count(1.0, MAX_SAMPLES + 1.0, "step", "extent")


def test_quadrature_paths_emit_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partial_field_curve(200.0, obliquity=True, geometry=GEOM)
        field_ratio([(1.0, 2.0), (143.5, 199.9)], obliquity=True, geometry=GEOM)
        field_ratio([(1.0, 2.0), (143.5, 199.9)], force_quadrature=True)


@pytest.mark.parametrize(
    ("d1", "d2", "lam", "named"),
    [
        # geometries whose radii or K(u) would leave the float range
        (1e308, 1e308, 0.125, "d1_m"),  # d1 + d2 and d1*d1 overflow: nan radii
        (1e300, 1e300, 1e300, "d1_m"),  # lambda*d1 overflows: infinite radii
        (1e-300, 1e-300, 1e-300, "d1_m"),  # d1*d2 underflows: K(u) is nan
        (1e200, 25.0, 0.125, "d1_m"),  # d1*d1 overflows: K(u) is a flat 0.5
        (1e-160, 1e100, 0.125, "d1_m"),  # d1*d1 is subnormal: K(0) is 1.0000028
        # and the next float past either end of the domain
        (25.0, math.nextafter(MAX_LENGTH_M, math.inf), 0.125, "d2_m"),
        (25.0, 25.0, math.nextafter(MIN_LENGTH_M, 0.0), "lambda_m"),
    ],
)
def test_path_geometry_outside_the_length_domain_names_the_field(d1, d2, lam, named):
    value = {"d1_m": d1, "d2_m": d2, "lambda_m": lam}[named]
    message = f"^{named} must lie in .*, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        PathGeometry(d1, d2, lam)


# the deep-fuzz CI step runs the domain properties below at 1,000 examples
# (tests/conftest.py)
DOMAIN = settings.get_profile("fuzz")

# log-uniform over the length domain, and its ends as often as a value between them
in_domain_lengths = st.one_of(
    st.sampled_from([MIN_LENGTH_M, MAX_LENGTH_M]),
    st.floats(-12.0, 12.0).map(lambda e: min(max(10.0**e, MIN_LENGTH_M), MAX_LENGTH_M)),
)


def assert_geometry_stays_in_the_float_range(d1, d2, lam):
    """The terms of zone_radius and obliquity_factor lie within PathGeometry's
    written bound, and nothing numpy computes overflows, underflows or turns
    into a nan: what lets PathGeometry go without a check of its terms."""
    geometry = PathGeometry(d1, d2, lam)
    r_sq = U_MAX * lam * d1 * d2 / (d1 + d2)
    terms = (lam * d1 * d2 / (d1 + d2), d1 * d2, d1 * d1, d2 * d2,
             (d1 * d1) * (d2 * d2), (d1 * d1 + r_sq) * (d2 * d2 + r_sq))
    assert all(0.99e-48 <= t <= 1.1e52 for t in terms), terms
    with np.errstate(over="raise", invalid="raise", divide="raise", under="raise"):
        assert math.isfinite(zone_radius(200, geometry))
        assert math.isfinite(zone_index(MAX_LENGTH_M, geometry))
        k = obliquity_factor(np.linspace(0.0, U_MAX, 401), geometry)
        assert ((0.0 <= k) & (k <= 1.0)).all()
        ratio = field_ratio([(1.0, 2.0), (150.0, U_MAX)], obliquity=True, geometry=geometry)
        assert cmath.isfinite(ratio.complex_ratio)
        curve = partial_field_curve(3.0, 0.25, obliquity=True, geometry=geometry)
        assert all(math.isfinite(m) for _, m in curve)


@pytest.mark.parametrize(
    ("d1", "d2", "lam"), itertools.product([MIN_LENGTH_M, MAX_LENGTH_M], repeat=3)
)
def test_path_geometry_at_the_corners_of_the_length_domain_stays_in_the_float_range(d1, d2, lam):
    assert_geometry_stays_in_the_float_range(d1, d2, lam)


@pytest.mark.deep_fuzz
@DOMAIN
@given(d1=in_domain_lengths, d2=in_domain_lengths, lam=in_domain_lengths)
@example(d1=25.0, d2=25.0, lam=0.125)
def test_path_geometry_across_the_length_domain_stays_in_the_float_range(d1, d2, lam):
    assert_geometry_stays_in_the_float_range(d1, d2, lam)


# moderate values, hypothesis's edge-biased floats, and log-uniform ones
# that reach every binary exponent
positive_finite = st.one_of(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)),
)


@settings(max_examples=300, deadline=None)
@given(
    lam=positive_finite,
    d1=positive_finite,
    d2=positive_finite,
    u=st.lists(st.floats(min_value=0.0, max_value=U_MAX), max_size=20),
)
def test_accepted_geometry_obliquity_matches_overflow_free_oracle(lam, d1, d2, u):
    try:
        geom = PathGeometry(d1, d2, lam)
    except DomainError:
        return
    us = np.concatenate((np.linspace(0.0, U_MAX, 201), u))
    for ui, k in zip(us.tolist(), obliquity_factor(us, geom).tolist()):
        # r from logs, so no intermediate product can leave the float range
        r = 0.0 if ui == 0 else math.exp(
            (math.log(ui) + math.log(lam) + math.log(d1) + math.log(d2) - math.log(d1 + d2)) / 2
        )
        oracle = 0.5 * (1.0 + math.cos(math.atan2(r, d1) + math.atan2(r, d2)))
        assert k == pytest.approx(oracle, abs=1e-9)


def test_path_geometry_validation():
    with pytest.raises(DomainError):
        PathGeometry(0.0, 25.0, 0.125)
    with pytest.raises(DomainError):
        PathGeometry(25.0, 25.0, -0.1)
