import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfplan import fresnel
from rfplan.errors import MAX_SAMPLES, DomainError, check_sample_count
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


def test_shading_cone_reference_angles():
    assert shading_cone_deg(0.0, 50.0) == 0.0
    assert shading_cone_deg(1.7677669529663689, 50.0) == pytest.approx(4.04973659455468, abs=1e-9)
    assert shading_cone_deg(1.0606601717798212, 45.0) == pytest.approx(2.700448939399231, abs=1e-9)
    with pytest.raises(DomainError):
        shading_cone_deg(1.0, 0.0)


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

    # the curve's running sum ends where one integral over [0, u_max] does
    last_u, last_mag = partial_field_curve(u_max, obliquity=True, geometry=geom)[-1]
    whole = field_ratio([(0.0, u_max)], obliquity=True, geometry=geom).complex_ratio
    assert last_u == u_max
    assert last_mag == pytest.approx(abs(1.0 - whole), abs=1e-12)


@pytest.mark.parametrize("obliquity", [False, True])
def test_partial_field_curve_samples_do_not_drift(obliquity):
    step = 0.05
    curve = partial_field_curve(144.0, step, obliquity=obliquity, geometry=GEOM)
    assert len(curve) == 2881
    assert [u for u, _ in curve[:-1]] == [k * step for k in range(2880)]
    assert curve[-1][0] == 144.0


def test_fine_obliquity_curve_memory_is_bounded():
    tracemalloc.start()
    try:
        curve = partial_field_curve(200.0, 0.0005, obliquity=True, geometry=GEOM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 400_001
    assert peak < 128e6  # the returned list alone is about 45 MB


def test_blocked_panels_match_one_block(monkeypatch):
    # about 20,000 panels: two block edges at the default block size
    blocked = partial_field_curve(200.0, 0.01, obliquity=True, geometry=GEOM)
    assert len(blocked) > 2 * fresnel._PANEL_BLOCK
    monkeypatch.setattr(fresnel, "_PANEL_BLOCK", len(blocked) * 2)
    assert partial_field_curve(200.0, 0.01, obliquity=True, geometry=GEOM) == blocked


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
    ("d1", "d2", "lam"),
    [
        (1e308, 1e308, 0.125),  # d1 + d2 and d1*d1 overflow: nan radii
        (1e300, 1e300, 1e300),  # lambda*d1 overflows: infinite radii
        (1e-300, 1e-300, 1e-300),  # d1*d2 underflows: K(u) is nan
        (1e200, 25.0, 0.125),  # d1*d1 overflows: K(u) is a flat 0.5
        (1e-160, 1e100, 0.125),  # d1*d1 is subnormal: K(0) is 1.0000028
    ],
)
def test_path_geometry_outside_float_range_names_all_three(d1, d2, lam):
    message = f"d1_m={d1!r}, d2_m={d2!r}, lambda_m={lam!r}: "
    with pytest.raises(DomainError, match=re.escape(message)):
        PathGeometry(d1, d2, lam)


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
