import math
import re
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfplan.errors import MAX_DB, MAX_LENGTH_M, MIN_LENGTH_M, DomainError
from rfplan.lens import (
    BelowCutoffError,
    LensEffect,
    LensSpec,
    ShadingSector,
    apply_lens,
    boost_rx_power,
    effective_index,
    lens_profile,
    lens_shadow_sector,
    plate_edge_offset,
    profile_radius,
    shading_assessment,
)
from rfplan.linkbudget import (
    SPEED_OF_LIGHT_M_S,
    AntennaGain,
    Frequency,
    LinkBudget,
    LinkGeometry,
    range_ratio_from_gain_delta,
)

F_DESIGN = Frequency(2.437e9)
LAM = F_DESIGN.wavelength_m


def spec_with_index_06(aperture=40.0) -> LensSpec:
    # a = 0.625 lambda gives n = sqrt(1 - 0.8^2) = 0.6 exactly
    return LensSpec(
        plate_spacing_m=0.625 * LAM,
        design_frequency=F_DESIGN,
        focal_length_m=0.3,
        aperture_half_angle_deg=aperture,
    )


def test_effective_index_reference_spacings():
    assert effective_index(LAM / math.sqrt(2), F_DESIGN) == pytest.approx(
        0.7071067811865476, abs=1e-12
    )
    assert effective_index(0.625 * LAM, F_DESIGN) == pytest.approx(0.6, abs=1e-12)


def test_effective_index_cutoff():
    with pytest.raises(BelowCutoffError):
        effective_index(0.5 * LAM, F_DESIGN)
    with pytest.raises(BelowCutoffError):
        effective_index(0.3 * LAM, F_DESIGN)


@given(st.floats(min_value=0.51, max_value=50.0))
def test_effective_index_increasing_toward_one(spacing_factor):
    n = effective_index(spacing_factor * LAM, F_DESIGN)
    n_wider = effective_index((spacing_factor + 0.25) * LAM, F_DESIGN)
    assert 0 < n < 1
    assert n_wider > n


def test_effective_index_approaches_free_space():
    assert effective_index(1e4 * LAM, F_DESIGN) == pytest.approx(1.0, abs=1e-8)


def test_profile_radius_vertex_and_reference_points():
    assert profile_radius(0.3, 0.6, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert profile_radius(0.3, 0.6, 20.0) == pytest.approx(0.2751129853029236, abs=1e-12)
    assert profile_radius(0.3, 0.6, 90.0) == pytest.approx(0.12, abs=1e-12)


def test_profile_radius_domain():
    with pytest.raises(DomainError):
        profile_radius(0.3, 1.0, 10.0)
    with pytest.raises(DomainError):
        profile_radius(0.3, 0.0, 10.0)
    # the tilt rule's bound, errors.MAX_TILT_DEG, either way
    for theta in (95.0, -95.0):
        message = rf"^profile angle must lie in \[-90.0, 90.0\], got {theta}$"
        with pytest.raises(DomainError, match=message):
            profile_radius(0.3, 0.6, theta)


@given(
    n=st.floats(min_value=0.05, max_value=0.95),
    theta=st.floats(min_value=0.0, max_value=89.0),
)
def test_profile_radius_decreases_off_axis(n, theta):
    # concave toward the feed: the rim sits closer to the focus than the vertex
    r0 = profile_radius(0.3, n, theta)
    r1 = profile_radius(0.3, n, theta + 1.0)
    assert r1 < r0


@given(
    n=st.floats(min_value=0.05, max_value=0.95),
    theta=st.floats(min_value=-90.0, max_value=90.0),
    focal=st.floats(min_value=0.05, max_value=2.0),
)
def test_equal_phase_identity(n, theta, focal):
    # Fermat: lens path r + n*(f - r*cos(theta)) equals the axial path f
    r = profile_radius(focal, n, theta)
    path = r + n * (focal - r * math.cos(math.radians(theta)))
    assert path == pytest.approx(focal, abs=1e-9)


def test_lens_profile_samples_and_identity():
    spec = spec_with_index_06()
    profile = lens_profile(spec, step_deg=1.0)
    assert profile.samples[0].theta_deg == 0.0
    assert profile.samples[0].r_m == pytest.approx(0.3, abs=1e-12)
    assert profile.samples[0].depth_m == pytest.approx(0.0, abs=1e-12)
    assert profile.samples[-1].theta_deg == spec.aperture_half_angle_deg
    assert len(profile.samples) == 41
    n = profile.index
    for s in profile.samples:
        assert s.y_m == pytest.approx(s.r_m * math.sin(math.radians(s.theta_deg)), abs=1e-12)
        path = s.r_m + n * (0.3 - s.r_m * math.cos(math.radians(s.theta_deg)))
        assert path == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize(
    ("aperture", "step", "n_samples"),
    [(30.0, 0.15, 201), (5.0, 0.1, 51), (35.0, 0.7, 51), (65.0, 1.3, 51)],
)
def test_lens_profile_angles_do_not_drift(aperture, step, n_samples):
    samples = lens_profile(spec_with_index_06(aperture), step_deg=step).samples
    thetas = [s.theta_deg for s in samples]
    assert len(thetas) == n_samples  # no sliver row just short of the edge
    assert thetas[:-1] == [k * step for k in range(n_samples - 1)]
    assert thetas[-1] == aperture


def test_lens_profile_rejects_bad_step():
    for step in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match=str(step)):
            lens_profile(spec_with_index_06(), step_deg=step)


def test_lens_profile_bounds_the_sample_count():
    # range(ceil(40 / 1e-300)) was filtered element by element without end
    message = "^profile step 1e-300 splits aperture half angle 40.0 into more than 1000000 steps$"
    with pytest.raises(DomainError, match=message):
        lens_profile(spec_with_index_06(40.0), step_deg=1e-300)


def test_plate_edge_offset_vertex():
    assert plate_edge_offset(spec_with_index_06(), 0.0) == pytest.approx(0.0, abs=1e-9)


def test_plate_edge_offset_reference_point():
    # independent bisection oracle for y = 0.0941 (theta just past 20 deg)
    # gives depth 0.04148422; consistency with profile_radius checked below
    spec = spec_with_index_06()
    depth = plate_edge_offset(spec, 0.0941)
    assert depth == pytest.approx(0.041484215, abs=1e-7)
    # the depth at exactly theta = 20 deg is slightly shallower
    r20 = profile_radius(0.3, 0.6, 20.0)
    assert depth > 0.3 - r20 * math.cos(math.radians(20.0))


@given(st.floats(min_value=0.0, max_value=39.0))
def test_plate_edge_offset_round_trip(theta_deg):
    spec = spec_with_index_06(aperture=40.0)
    r = profile_radius(0.3, 0.6, theta_deg)
    y = r * math.sin(math.radians(theta_deg))
    depth = plate_edge_offset(spec, y)
    assert depth == pytest.approx(0.3 - r * math.cos(math.radians(theta_deg)), abs=1e-6)


def test_plate_edge_offset_outside_aperture():
    spec = spec_with_index_06(aperture=40.0)
    y_edge = profile_radius(0.3, 0.6, 40.0) * math.sin(math.radians(40.0))
    with pytest.raises(DomainError):
        plate_edge_offset(spec, y_edge * 1.001)
    # negative offsets mirror the positive side
    assert plate_edge_offset(spec, -0.05) == pytest.approx(
        plate_edge_offset(spec, 0.05), abs=1e-9
    )


@given(
    spacing_factor=st.floats(min_value=0.51, max_value=50.0),
    focal=st.floats(min_value=0.01, max_value=10.0),
    # 1.0 puts the aperture edge exactly on the fold theta = acos(n)
    fold_fraction=st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
)
def test_plate_edge_offset_matches_profile_depth(spacing_factor, focal, fold_fraction):
    spacing = spacing_factor * LAM
    n = effective_index(spacing, F_DESIGN)
    aperture = fold_fraction * math.degrees(math.acos(n))
    spec = LensSpec(spacing, F_DESIGN, focal, aperture)
    # The bound is the problem's own conditioning, not the solver's: the
    # profile's r carries a relative rounding of about eps/(1-n) from
    # 1 - n*cos(theta), and near the fold, where dy/dtheta -> 0, a relative
    # change rho in y moves the depth by rho*f/sigma, at most f*sqrt(2*rho).
    # Away from the fold and for n < 0.99 it is below 1e-12*f.
    rho = 8.0 * sys.float_info.epsilon / (1.0 - n)
    for sample in lens_profile(spec, step_deg=aperture / 16.0).samples:
        sigma = math.sqrt(max(0.0, 1.0 - (1.0 + n) / (1.0 - n) * (sample.y_m / focal) ** 2))
        tol = focal * rho * (1.0 + 1.0 / max(sigma, math.sqrt(rho / 2.0)))
        assert abs(plate_edge_offset(spec, sample.y_m) - sample.depth_m) <= tol


def test_plate_edge_offset_rejects_nan():
    with pytest.raises(DomainError, match="nan"):
        plate_edge_offset(spec_with_index_06(), math.nan)


# the deep-fuzz CI step runs the domain property below at 1,000 examples
# (tests/conftest.py)
DOMAIN = settings.get_profile("fuzz")

# log-uniform over the length domain, and its ends as often as a value between them
in_domain_lengths = st.one_of(
    st.sampled_from([MIN_LENGTH_M, MAX_LENGTH_M]),
    st.floats(-12.0, 12.0).map(lambda e: min(max(10.0**e, MIN_LENGTH_M), MAX_LENGTH_M)),
)


@pytest.mark.deep_fuzz
@DOMAIN
@given(
    lam=in_domain_lengths,
    # from just past cutoff to where the index nearly rounds to 1
    spacing_factor=st.sampled_from([0.625, 1e7]) | st.floats(0.5, 1e7, exclude_min=True),
    focal=in_domain_lengths,
    aperture=st.floats(1e-3, 90.0, exclude_max=True),
    fraction=st.sampled_from([-1.0, 0.5, 1.0]) | st.floats(-1.0, 1.0),
)
@example(lam=LAM, spacing_factor=0.625, focal=MAX_LENGTH_M, aperture=40.0, fraction=0.5)
@example(lam=MIN_LENGTH_M, spacing_factor=1e7, focal=MAX_LENGTH_M, aperture=89.0, fraction=1.0)
@example(lam=MAX_LENGTH_M, spacing_factor=0.625, focal=MIN_LENGTH_M, aperture=1.0, fraction=-1.0)
def test_lens_stays_finite_across_the_length_domain(lam, spacing_factor, focal, aperture, fraction):
    # a focal length of 1e160 m, which the domain now refuses, gave an
    # infinite depth at half the aperture edge
    spacing = min(spacing_factor * lam, MAX_LENGTH_M)
    try:
        spec = LensSpec(spacing, Frequency(SPEED_OF_LIGHT_M_S / lam), focal, aperture)
    except DomainError:  # at or below cutoff, or an index that rounds to 1
        assume(False)
    with np.errstate(over="raise", invalid="raise", divide="raise", under="raise"):
        profile = lens_profile(spec, step_deg=aperture / 8.0)
        assert all(math.isfinite(v) for s in profile.samples for v in astuple(s))
        edge = profile.samples[-1].y_m
        assert math.isfinite(plate_edge_offset(spec, fraction * edge))


def test_lens_refuses_a_focal_length_outside_the_length_domain():
    with pytest.raises(DomainError, match=r"^focal length must lie in .*, got 1e\+160$"):
        LensSpec(0.625 * LAM, F_DESIGN, 1e160, 40.0)


def test_apply_lens_defaults_to_measured_band_midpoint():
    effect = LensEffect()
    assert effect.gain_uplift_db == 6.0
    assert 5.0 <= effect.gain_uplift_db <= 7.0
    report = boost_rx_power(-60.0, effect)
    assert report.rx_after_dbm == -54.0
    assert report.throughput_multiplier == 1.04
    assert report.range_ratio == pytest.approx(1.9952623149688795, rel=1e-12)


def test_apply_lens_zero_uplift_is_identity():
    report = boost_rx_power(-60.0, LensEffect(gain_uplift_db=0.0, throughput_uplift_fraction=0.0))
    assert report.rx_after_dbm == -60.0
    assert report.range_ratio == 1.0
    assert report.throughput_multiplier == 1.0


def test_apply_lens_seven_db_hits_upper_range_band():
    report = boost_rx_power(-60.0, LensEffect(gain_uplift_db=7.0))
    assert report.range_ratio == pytest.approx(2.2387211385683394, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=30.0))
def test_apply_lens_range_ratio_matches_link_rule(uplift):
    report = boost_rx_power(-50.0, LensEffect(gain_uplift_db=uplift))
    assert report.range_ratio == range_ratio_from_gain_delta(uplift)


def test_apply_lens_budget_scaling():
    budget = LinkBudget(
        tx_power_dbm=20.0,
        tx_gain=AntennaGain.from_dbi(3.0),
        rx_gain=AntennaGain.from_dbi(3.0),
        geometry=LinkGeometry(10.0, F_DESIGN),
    )
    boosted, report = apply_lens(budget, LensEffect())
    assert report.rx_before_dbm == pytest.approx(budget.rx_power_dbm, abs=1e-12)
    assert report.rx_after_dbm == pytest.approx(budget.rx_power_dbm + 6.0, abs=1e-12)
    assert boosted.rx_power_dbm == pytest.approx(budget.rx_power_dbm + 6.0, abs=1e-9)
    assert boosted.tx_gain == budget.tx_gain


def test_apply_lens_refuses_a_gain_the_uplift_takes_past_the_db_bound():
    budget = LinkBudget(20.0, AntennaGain(1.0), AntennaGain.from_dbi(MAX_DB - 30.0),
                        LinkGeometry(10.0, F_DESIGN))
    assert apply_lens(budget, LensEffect(gain_uplift_db=30.0))[0].rx_gain.dbi == MAX_DB
    with pytest.raises(DomainError, match=r"^gain must lie in \[1e-100, 1e\+100\], got "):
        apply_lens(replace(budget, rx_gain=AntennaGain.from_dbi(MAX_DB - 29.0)),
                   LensEffect(gain_uplift_db=30.0))


def test_effect_validation():
    with pytest.raises(DomainError):
        LensEffect(gain_uplift_db=-1.0)
    with pytest.raises(DomainError):
        LensEffect(gain_uplift_db=31.0)
    with pytest.raises(DomainError):
        LensEffect(throughput_uplift_fraction=-0.1)
    with pytest.raises(DomainError):
        ShadingSector(width_deg=360.0)


def shadow(bearing, width, attenuation=10.0):
    return LensEffect(shading_sector=ShadingSector(bearing, width, attenuation))


def test_shading_zero_width_never_attenuates():
    assert shading_assessment(shadow(90.0, 0.0), [90.0, 0.0, 180.0]) == [0.0, 0.0, 0.0]


def test_shading_sector_membership():
    effect = shadow(90.0, 30.0)
    assert shading_assessment(effect, [80.0, 120.0]) == [10.0, 0.0]
    # boundary bearings count as shaded
    assert shading_assessment(effect, [75.0, 105.0]) == [10.0, 10.0]


def test_shading_wraps_around_north():
    assert shading_assessment(shadow(0.0, 20.0), [355.0, 12.0]) == [10.0, 0.0]
    # a sector built by hand may carry its bearing past a full turn
    assert shading_assessment(shadow(-360.0, 20.0), [355.0, 12.0]) == [10.0, 0.0]


def test_shading_centres_on_the_bearing_the_sector_carries():
    # the sector's own bearing was ignored: the caller passed the centre again
    sector = lens_shadow_sector(spec_with_index_06(aperture=10.0), bearing_deg=370.0)
    effect = LensEffect(shading_sector=sector)
    # centred on 10 degrees, 20 wide
    assert shading_assessment(effect, [0.0, 20.0, 21.0, 190.0, 355.0]) == [10.0] * 2 + [0.0] * 3


# quarter-degree grids keep client + 360*turns exact in floats, so the
# wraparound logic is what gets exercised, not float absorption
@given(
    bearing=st.integers(min_value=0, max_value=4 * 360).map(lambda k: k / 4),
    width=st.integers(min_value=0, max_value=4 * 359).map(lambda k: k / 4),
    client=st.integers(min_value=-4 * 720, max_value=4 * 720).map(lambda k: k / 4),
    turns=st.integers(min_value=-3, max_value=3),
)
def test_shading_invariant_under_full_turns(bearing, width, client, turns):
    effect = shadow(bearing, width, attenuation=7.0)
    a = shading_assessment(effect, [client])
    b = shading_assessment(effect, [client + 360.0 * turns])
    assert a == b
    assert a[0] in (0.0, 7.0)


def test_lens_shadow_sector_uses_aperture_width():
    spec = spec_with_index_06(aperture=40.0)
    sector = lens_shadow_sector(spec, bearing_deg=123.0)
    assert sector.width_deg == 80.0
    assert sector.bearing_deg == 123.0
    assert sector.attenuation_db == 10.0


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: LensSpec(0.625 * LAM, F_DESIGN, math.inf, 40.0), "inf"),
        (lambda: LensSpec(math.nan, F_DESIGN, 0.3, 40.0), "got nan"),
        # (lambda/2a)^2 vanishes against 1: the index was exactly 1.0
        (lambda: LensSpec(1e9, F_DESIGN, 0.3, 40.0), "plate spacing 1000000000.0 m"),
        (lambda: LensEffect(throughput_uplift_fraction=math.nan), "nan"),
        (lambda: LensEffect(throughput_uplift_fraction=math.inf), "inf"),
        (lambda: profile_radius(0.3, 0.6, math.nan), "nan"),
        (lambda: lens_shadow_sector(spec_with_index_06(), math.inf), "inf"),
    ],
)
def test_edge_inputs_raise_a_domain_error_naming_them(call, value):
    with pytest.raises(DomainError, match=re.escape(value)):
        call()


def _profile_floats(spec):
    profile = lens_profile(spec)
    return [profile.index, *(v for sample in profile.samples for v in astuple(sample))]


@pytest.mark.parametrize(
    "call",
    [
        lambda x: _profile_floats(LensSpec(x, F_DESIGN, 0.3, 40.0)),
        lambda x: _profile_floats(LensSpec(0.625 * LAM, F_DESIGN, x, 40.0)),
        lambda x: [profile_radius(0.3, 0.6, x)],
        lambda x: [profile_radius(x, 0.6, 30.0)],
        lambda x: astuple(boost_rx_power(-60.0, LensEffect(throughput_uplift_fraction=x))),
        lambda x: astuple(lens_shadow_sector(spec_with_index_06(), x)),
        lambda x: astuple(lens_shadow_sector(spec_with_index_06(), 0.0, x)),
    ],
)
@given(x=st.floats())
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=7000.0)
def test_any_float_gives_finite_fields_or_raises_domain_error(call, x):
    try:
        values = call(x)
    except DomainError:
        return
    assert all(map(math.isfinite, values))
