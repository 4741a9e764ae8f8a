import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfplan.errors import MAX_DB, MAX_LENGTH_M, MIN_LENGTH_M, U_MAX, DomainError
from rfplan.fresnel import (
    AnnularScreenSpec,
    PathGeometry,
    field_ratio,
    partial_field_curve,
    shading_cone_deg,
    zone_index,
)
from rfplan.growth import CountSeries, GrowthFit, predict_doubling_date
from rfplan.lens import (
    LensEffect,
    LensSpec,
    ShadingSector,
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
    power_utilization,
    range_ratio_from_gain_delta,
)
from rfplan.polarization import (
    EnvironmentModel,
    MimoChannel,
    calibrate_diffuse_from_isolation,
    dual_polarized_channel,
    mimo_capacity_bps_hz,
    mismatch_loss_db,
    tilt_effect_db,
)
from rfplan.spectrum import (
    MAX_HOLD,
    AggregatedSpectrum,
    Client,
    Emitter,
    Scenario,
    SensorSweep,
    simulate_sweeps,
)
from tests.test_linkbudget import in_domain_lengths

FREQ = Frequency(2.437e9)
GAIN = AntennaGain(1.0)
LINK = LinkGeometry(10.0, FREQ)
GEOM = PathGeometry(25.0, 25.0, 0.125)
SPACING = 0.625 * FREQ.wavelength_m
SPEC = LensSpec(SPACING, FREQ, 0.3, 40.0)
ENV = EnvironmentModel(0.1)

# (entry point, what its refusal names, a call with the value in that place)
LIBRARY_INPUTS = [
    ("Frequency", "frequency", Frequency),
    ("AntennaGain", "gain", AntennaGain),
    ("AntennaGain.from_dbi", "dBi gain", AntennaGain.from_dbi),
    ("LinkGeometry", "distance", lambda v: LinkGeometry(v, FREQ)),
    ("LinkBudget", "transmit power", lambda v: LinkBudget(v, GAIN, GAIN, LINK)),
    ("range_ratio_from_gain_delta", "gain change", range_ratio_from_gain_delta),
    ("PathGeometry", "d1_m", lambda v: PathGeometry(v, 25.0, 0.125)),
    ("PathGeometry", "d2_m", lambda v: PathGeometry(25.0, v, 0.125)),
    ("PathGeometry", "lambda_m", lambda v: PathGeometry(25.0, 25.0, v)),
    ("AnnularScreenSpec", "r_inner_m", lambda v: AnnularScreenSpec(GEOM, v, 2.0, 1)),
    ("AnnularScreenSpec", "r_outer_m", lambda v: AnnularScreenSpec(GEOM, 0.0, v, 1)),
    ("zone_index", "radius", lambda v: zone_index(v, GEOM)),
    ("shading_cone_deg", "radius", lambda v: shading_cone_deg(v, 50.0)),
    ("shading_cone_deg", "distance", lambda v: shading_cone_deg(1.0, v)),
    ("field_ratio", "interval bound", lambda v: field_ratio([(v, 2.0)])),
    ("field_ratio", "interval bound", lambda v: field_ratio([(0.0, v)])),
    ("partial_field_curve", "u_max", lambda v: partial_field_curve(v)),
    ("LensSpec", "plate spacing", lambda v: LensSpec(v, FREQ, 0.3, 40.0)),
    ("LensSpec", "focal length", lambda v: LensSpec(SPACING, FREQ, v, 40.0)),
    ("LensSpec", "aperture half angle", lambda v: LensSpec(SPACING, FREQ, 0.3, v)),
    ("effective_index", "plate spacing", lambda v: effective_index(v, FREQ)),
    ("profile_radius", "focal length", lambda v: profile_radius(v, 0.6, 10.0)),
    ("profile_radius", "effective index", lambda v: profile_radius(0.3, v, 10.0)),
    ("profile_radius", "profile angle", lambda v: profile_radius(0.3, 0.6, v)),
    ("plate_edge_offset", "offset", lambda v: plate_edge_offset(SPEC, v)),
    ("ShadingSector", "bearing_deg", lambda v: ShadingSector(bearing_deg=v)),
    ("ShadingSector", "width_deg", lambda v: ShadingSector(width_deg=v)),
    ("ShadingSector", "attenuation_db", lambda v: ShadingSector(attenuation_db=v)),
    ("LensEffect", "gain uplift", lambda v: LensEffect(gain_uplift_db=v)),
    ("LensEffect", "throughput uplift", lambda v: LensEffect(throughput_uplift_fraction=v)),
    ("lens_shadow_sector", "bearing_deg", lambda v: lens_shadow_sector(SPEC, v)),
    ("lens_shadow_sector", "attenuation_db", lambda v: lens_shadow_sector(SPEC, 0.0, v)),
    ("boost_rx_power", "rx_dbm", lambda v: boost_rx_power(v, LensEffect())),
    ("shading_assessment", "client bearing", lambda v: shading_assessment(LensEffect(), [v])),
    ("mismatch_loss_db", "polarization angle", lambda v: mismatch_loss_db(v, ENV)),
    ("MimoChannel", "snr", lambda v: MimoChannel(np.eye(2), v)),
    ("EnvironmentModel", "diffuse fraction", EnvironmentModel),
    ("EnvironmentModel", "tilt gain", lambda v: EnvironmentModel(0.1, v)),
    ("calibrate_diffuse_from_isolation", "isolation", calibrate_diffuse_from_isolation),
    ("tilt_effect_db", "tilt", lambda v: tilt_effect_db(v, ENV)),
    ("dual_polarized_channel", "cross-polar leakage", lambda v: dual_polarized_channel(v)),
    ("dual_polarized_channel", "snr", lambda v: dual_polarized_channel(0.5, v)),
    ("CountSeries", "t_days", lambda v: CountSeries(((v, 1.0), (1.0, 2.0)))),
    ("CountSeries", "count", lambda v: CountSeries(((0.0, v), (1.0, 2.0)))),
    ("predict_doubling_date", "from_t_days",
     lambda v: predict_doubling_date(GrowthFit(1.0, 0.0, 1.0), v)),
    ("GrowthFit", "doubling_days", lambda v: GrowthFit(v, 0.0, 1.0)),
    ("GrowthFit", "intercept_log2", lambda v: GrowthFit(1.0, v, 1.0)),
    ("GrowthFit", "r_squared", lambda v: GrowthFit(1.0, 0.0, v)),
]

# a step just above the sample bound makes a curve of a million samples,
# seconds and up to 0.75 GB, so the property below leaves these out
STEP_INPUTS = [
    ("lens_profile", "profile step", lambda v: lens_profile(SPEC, v)),
    ("partial_field_curve", "step", lambda v: partial_field_curve(1.0, v)),
]

# tests/test_spectrum.py pins the whole refusal text of these
SPECTRUM_INPUTS = [
    ("Client", "client x", lambda v: Client("c0", v, 0.0)),
    ("Client", "client y", lambda v: Client("c0", 0.0, v)),
    ("Emitter", "emitter tx_power_dbm", lambda v: Emitter(6, v, 0.0, 0.0)),
    ("Emitter", "emitter x", lambda v: Emitter(6, 0.0, v, 0.0)),
    ("Emitter", "emitter y", lambda v: Emitter(6, 0.0, 0.0, v)),
    ("Scenario", "ap_position", lambda v: Scenario(ap_position=(v, 0.0))),
    ("Scenario", "noise_floor_dbm",
     lambda v: Scenario(ap_position=(0.0, 0.0), noise_floor_dbm=v)),
    ("Scenario", "shadowing_sigma_db",
     lambda v: Scenario(ap_position=(0.0, 0.0), shadowing_sigma_db=v)),
]

PAST_FLOAT_RANGE = 10**400 - 1  # finite as an int, infinite as a float

# no real input takes any of these
NOT_FINITE_REALS = [PAST_FLOAT_RANGE, -PAST_FLOAT_RANGE, Fraction(10**400), math.nan, math.inf,
                    -math.inf, True, None, "1", np.float64(math.nan)]


def rows(inputs):
    return [pytest.param(name, call, id=f"{entry}-{name}") for entry, name, call in inputs]


@pytest.mark.parametrize(("name", "call"), rows(LIBRARY_INPUTS + STEP_INPUTS + SPECTRUM_INPUTS))
def test_a_value_that_is_not_a_finite_real_is_named(name, call):
    for value in NOT_FINITE_REALS:
        # a bare OverflowError or TypeError escapes pytest.raises and fails the test
        with pytest.raises(DomainError) as info:
            call(value)
        message = str(info.value)
        assert message.startswith(f"{name} must ") and repr(value) in message, value


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@pytest.mark.parametrize(("name", "call"), rows(LIBRARY_INPUTS + SPECTRUM_INPUTS))
@settings.get_profile("fuzz")
@given(value=st.one_of(st.floats(), st.integers(), st.fractions(), st.booleans(), st.none(),
                       st.text()))
def test_any_input_returns_or_raises_a_domain_error(name, call, value):
    try:
        call(value)
    except DomainError:
        pass


# every seed and timestamp the library takes fits 64 bits, by one rule: a
# channel's seed was only non-negative, so it took 2**64 and named -1 apart
@pytest.mark.parametrize(
    ("name", "call"),
    [
        ("seed", lambda v: Scenario(ap_position=(0.0, 0.0), seed=v).seed),
        ("seed", lambda v: dual_polarized_channel(0.25, seed=v).h),
        ("timestamp_ms", lambda v: SensorSweep(0, v, 2_400_000, 1_000, (0,)).timestamp_ms),
    ],
    ids=["scenario-seed", "channel-seed", "sweep-timestamp"],
)
def test_a_seed_or_timestamp_must_fit_64_bits(name, call):
    for value in (-(2**70), -1, 2**64, 2**70):
        with pytest.raises(DomainError, match=f"^{name} must fit 64 bits, got {value}$"):
            call(value)
    for value in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        call(value)


OPEN_FLOOR = Scenario(ap_position=(0.0, 0.0))
_coordinate = st.floats(-1e6, 1e6)
_two_ordered = st.lists(st.floats(0.0, U_MAX), min_size=2, max_size=2, unique=True).map(sorted)

# (what its refusal names, a call with the value in that place, two valid items)
PAIR_INPUTS = [
    ("interval", lambda v: field_ratio([v]), _two_ordered),
    ("ap_position", lambda v: Scenario(ap_position=v), st.tuples(_coordinate, _coordinate)),
    ("sensor 0 position", lambda v: simulate_sweeps(OPEN_FLOOR, [v]),
     st.tuples(_coordinate, _coordinate)),
    ("point", lambda v: CountSeries((v, (1e6, 1.0))),
     st.tuples(st.floats(-1e5, 1e5), st.floats(1e-3, 1e6))),
]
SEQUENCE_INPUTS = [
    ("blocked", field_ratio,
     st.lists(st.floats(0.0, U_MAX), min_size=4, max_size=4, unique=True)
     .map(lambda p: (tuple(sorted(p)[:2]), tuple(sorted(p)[2:])))),
    ("sensor_positions", lambda v: simulate_sweeps(OPEN_FLOOR, v),
     st.tuples(st.tuples(_coordinate, _coordinate), st.tuples(_coordinate, _coordinate))),
    ("clients", lambda v: Scenario(ap_position=(0.0, 0.0), clients=v),
     st.just((Client("c0", 1.0, 2.0), Client("c1", 3.0, 4.0)))),
    ("emitters", lambda v: Scenario(ap_position=(0.0, 0.0), emitters=v),
     st.tuples(*[st.builds(Emitter, st.integers(1, 14), st.floats(-20.0, 30.0), _coordinate,
                           _coordinate)] * 2)),
    ("points", CountSeries,
     st.tuples(st.floats(-1e5, 0.0), st.floats(1.0, 1e5), st.floats(1e-3, 1e6))
     .map(lambda v: ((v[0], v[2]), (v[1], v[2])))),
    ("client bearings", lambda v: shading_assessment(LensEffect(), v),
     st.tuples(st.floats(-720.0, 720.0), st.floats(-720.0, 720.0))),
    ("sweep bins", lambda v: SensorSweep(0, 0, 2_400_000, 1_000, v),
     st.tuples(st.integers(-128, 127), st.integers(-128, 127))),
    ("bins at position 'c1'", lambda v: AggregatedSpectrum("c1", MAX_HOLD, 2_400_000, 1_000, v, {}),
     st.tuples(st.floats(-MAX_DB, MAX_DB), st.floats(-MAX_DB, MAX_DB))),
]

# no pair or sequence input takes any of these: a set's or a mapping's order is
# no sequence's
UNORDERED_OR_NOT_ITERABLE = st.one_of(
    st.sets(st.floats() | st.integers()), st.frozensets(st.floats()),
    st.dictionaries(st.floats() | st.text(), st.integers()), st.none(), st.integers(),
)


def outcome(call, value):
    """call(value)'s result, or the text of the DomainError it raised."""
    try:
        return call(value)
    except DomainError as exc:
        return str(exc)


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@pytest.mark.parametrize(
    ("name", "call", "valid", "pair"),
    [pytest.param(*row, True, id=row[0]) for row in PAIR_INPUTS]
    + [pytest.param(*row, False, id=row[0]) for row in SEQUENCE_INPUTS],
)
@settings.get_profile("fuzz")
@given(data=st.data())
def test_a_pair_or_sequence_is_read_in_order_or_refused_by_name(name, call, valid, pair, data):
    # errors.check_pair and check_items: a bare ValueError, TypeError or
    # AttributeError escapes pytest.raises and fails the test
    bad = UNORDERED_OR_NOT_ITERABLE
    if pair:
        bad |= st.tuples(st.floats()) | st.tuples(st.floats(), st.floats(), st.floats())
    value = data.draw(bad | st.text(), label="value")
    if isinstance(value, str):
        # a string is read as its characters; none is a number, pair or record
        if value or pair:
            with pytest.raises(DomainError) as info:
                call(value)
            assert repr(value) in str(info.value) or repr(value[0]) in str(info.value)
        else:
            assert outcome(call, value) == outcome(call, ())
    else:
        with pytest.raises(DomainError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must ") and repr(value) in str(info.value)
    # two items read from a list or an iterator give what the tuple gives
    items = tuple(data.draw(valid, label="items"))
    expected = outcome(call, items)
    assert outcome(call, list(items)) == expected
    assert outcome(call, iter(items)) == expected


@pytest.mark.parametrize(
    ("call", "message"),
    [
        # the set and the mapping were read in their own order, which gave
        # field ratios of 3.0, the zone-2 ratio
        (lambda: field_ratio([{2.0, 1.0}]), "interval must be an (a, b) pair, got {1.0, 2.0}"),
        (lambda: field_ratio([{1.0: "a", 2.0: "b"}]),
         "interval must be an (a, b) pair, got {1.0: 'a', 2.0: 'b'}"),
        (lambda: Scenario(ap_position={1.0, 2.0}),
         "ap_position must be an (x, y) pair, got {1.0, 2.0}"),
        (lambda: simulate_sweeps(OPEN_FLOOR, [{0.0: 1, 1.0: 2}]),
         "sensor 0 position must be an (x, y) pair, got {0.0: 1, 1.0: 2}"),
        (lambda: CountSeries(points=({1.0, 2.0}, (3.0, 4.0))),
         "point must be an (t_days, count) pair, got {1.0, 2.0}"),
        # each escaped as a bare TypeError, ValueError or AttributeError, or,
        # the emitter, failed later in simulate_sweeps
        (lambda: Scenario(ap_position=(0, 0), clients=5),
         "clients must be a sequence of Clients, got 5"),
        (lambda: Scenario(ap_position=(0, 0), clients=(1,)), "clients[0] must be a Client, got 1"),
        (lambda: Scenario(ap_position=(0, 0), emitters=(1,)),
         "emitters[0] must be an Emitter, got 1"),
        (lambda: CountSeries(points=((1, 2, 3), (2, 4))),
         "point must be an (t_days, count) pair, got (1, 2, 3)"),
        (lambda: CountSeries(points=5), "points must be a sequence of (t_days, count) pairs, got 5"),
        (lambda: shading_assessment(LensEffect(), 5),
         "client bearings must be a sequence of real numbers, got 5"),
        (lambda: simulate_sweeps(OPEN_FLOOR, None),
         "sensor_positions must be a sequence of (x, y) pairs, got None"),
    ],
    ids=["interval-set", "interval-mapping", "ap-position-set", "sensor-position-mapping",
         "point-set", "clients-int", "client-int", "emitter-int", "point-triple", "points-int",
         "bearings-int", "sensor-positions-none"],
)
def test_an_unordered_or_malformed_pair_or_sequence_is_named(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("build", "field"),
    [
        (lambda v: Frequency(v).hertz, "hertz"),
        (lambda v: AntennaGain(v).linear, "linear"),
        (lambda v: LinkGeometry(v, FREQ).distance_m, "distance_m"),
        (lambda v: LinkBudget(v, GAIN, GAIN, LINK).tx_power_dbm, "tx_power_dbm"),
        (lambda v: PathGeometry(v, v, v).lambda_m, "lambda_m"),
        (lambda v: LensSpec(SPACING, FREQ, v, v).focal_length_m, "focal_length_m"),
        (lambda v: ShadingSector(v, v, v).width_deg, "width_deg"),
        (lambda v: LensEffect(v, v).throughput_uplift_fraction, "throughput_uplift_fraction"),
        (lambda v: MimoChannel(np.eye(2), v).snr_linear, "snr_linear"),
        (lambda v: EnvironmentModel(v / 4, v).tilt_gain_db_per_rad, "tilt_gain_db_per_rad"),
        (lambda v: CountSeries(((0, 1), (v, v))).points[1][1], "count"),
        (lambda v: GrowthFit(v, v, v).r_squared, "r_squared"),
    ],
)
@pytest.mark.parametrize("value", [3, Fraction(3, 1), np.float32(3.0), np.int64(3)])
def test_a_real_field_is_stored_as_the_float_it_was_checked_to_be(build, field, value):
    stored = build(value)
    assert type(stored) is float and stored == 3.0, field


# dB values within the bound, and its ends as often as a value between them
in_bound_db = st.sampled_from([-MAX_DB, MAX_DB]) | st.floats(-MAX_DB, MAX_DB)
# a channel entry's part: 0, or a field ratio of a dB value within the bound,
# either sign. A part nearer 0 is allowed too, but its square may underflow in
# H H^dagger, which all="raise" flags; the capacity stays finite, as
# test_any_finite_channel_gives_a_finite_capacity_or_raises_domain_error shows
field_parts = st.sampled_from([0.0, 1e50, -1e50]) | st.builds(
    lambda db, sign: sign * 10.0 ** (db / 20.0), in_bound_db, st.sampled_from([1.0, -1.0])
)


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(
    gains_db=st.tuples(in_bound_db, in_bound_db),
    distance=in_domain_lengths,
    wavelength=in_domain_lengths,
    delta_db=in_bound_db,
    parts=st.lists(field_parts, min_size=8, max_size=8),
    snr_db=in_bound_db,
)
@example(gains_db=(MAX_DB, MAX_DB), distance=MIN_LENGTH_M, wavelength=MIN_LENGTH_M,
         delta_db=MAX_DB, parts=[1e50, -1e50] * 4, snr_db=MAX_DB)
@example(gains_db=(-MAX_DB, -MAX_DB), distance=MAX_LENGTH_M, wavelength=MIN_LENGTH_M,
         delta_db=-MAX_DB, parts=[1e-50, 0.0] * 4, snr_db=-MAX_DB)
def test_ratios_within_the_db_bound_stay_in_the_float_range(
    gains_db, distance, wavelength, delta_db, parts, snr_db
):
    """What lets power_utilization, range_ratio_from_gain_delta, tilt_effect_db
    and mimo_capacity_bps_hz go without a float-range check (see errors.py)."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        frequency = Frequency(SPEED_OF_LIGHT_M_S / wavelength)
        geometry = LinkGeometry(max(distance, frequency.wavelength_m), frequency)
        gt, gr = map(AntennaGain.from_dbi, gains_db)
        assert 6.3e-251 <= power_utilization(gt, gr, geometry) <= 6.4e197
        assert 1e-50 <= range_ratio_from_gain_delta(delta_db) <= 1e50
        assert math.isfinite(tilt_effect_db(-math.pi / 2, EnvironmentModel(0.1, delta_db)))
        h = np.reshape([complex(re, im) for re, im in zip(parts[::2], parts[1::2])], (2, 2))
        capacity = mimo_capacity_bps_hz(MimoChannel(h, 10.0 ** (snr_db / 10.0)))
        assert 0.0 <= capacity < math.inf
