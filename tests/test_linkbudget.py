import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rfplan.errors import MAX_LENGTH_M, MIN_LENGTH_M, DomainError
from rfplan.linkbudget import (
    SPEED_OF_LIGHT_M_S,
    AntennaGain,
    Frequency,
    LinkBudget,
    LinkGeometry,
    NearFieldError,
    fspl_db,
    friis_received_dbm,
    power_utilization,
    range_ratio_from_gain_delta,
)

GHZ = 1e9


def test_wavelength_of_c_hz_is_one_meter():
    assert Frequency(299_792_458.0).wavelength_m == 1.0


def test_wavelength_wifi_bands():
    assert Frequency(2.4 * GHZ).wavelength_m == pytest.approx(0.12491352416666666, rel=1e-12)
    assert Frequency(5.0 * GHZ).wavelength_m == pytest.approx(0.0599584916, rel=1e-12)


def test_nonpositive_frequency_rejected():
    with pytest.raises(DomainError):
        Frequency(0.0)
    with pytest.raises(DomainError):
        Frequency(-2.4 * GHZ)


def test_fspl_at_one_wavelength_is_20_log10_of_4pi():
    f = Frequency(2.4 * GHZ)
    expected = 20 * math.log10(4 * math.pi)
    assert fspl_db(LinkGeometry(f.wavelength_m, f)) == pytest.approx(expected, abs=1e-12)


def test_fspl_reference_values():
    f = Frequency(2.437 * GHZ)
    assert fspl_db(LinkGeometry(10.0, f)) == pytest.approx(60.18489380557786, abs=1e-9)
    assert fspl_db(LinkGeometry(20.0, f)) == pytest.approx(66.20549371885748, abs=1e-9)


def test_fspl_near_field_guard():
    f = Frequency(2.437 * GHZ)
    with pytest.raises(NearFieldError):
        fspl_db(LinkGeometry(0.05, f))
    # exactly one wavelength is allowed
    fspl_db(LinkGeometry(f.wavelength_m, f))


@pytest.mark.parametrize("frequency", [None, 2.4e9, "2.4e9"])
def test_link_geometry_refuses_a_frequency_that_is_not_a_frequency(frequency):
    # LinkGeometry(1.0, None) was once accepted and failed later with an AttributeError
    with pytest.raises(DomainError) as info:
        LinkGeometry(1.0, frequency)
    assert str(info.value) == f"frequency must be a Frequency, got {frequency!r}"


# the lowest and highest frequency, whose wavelengths are the longest and
# shortest lengths
HERTZ_BOUNDS = [SPEED_OF_LIGHT_M_S / MAX_LENGTH_M, SPEED_OF_LIGHT_M_S / MIN_LENGTH_M]
# log-uniform over the length domain, and its ends as often as a value between them
in_domain_lengths = st.one_of(
    st.sampled_from([MIN_LENGTH_M, MAX_LENGTH_M]),
    st.floats(-12.0, 12.0).map(lambda e: min(max(10.0**e, MIN_LENGTH_M), MAX_LENGTH_M)),
)


@pytest.mark.parametrize(
    ("value", "build", "name"),
    [
        (math.nextafter(MAX_LENGTH_M, math.inf), lambda v: LinkGeometry(v, Frequency(GHZ)),
         "distance"),
        (math.nextafter(MIN_LENGTH_M, 0.0), lambda v: LinkGeometry(v, Frequency(GHZ)),
         "distance"),
        (math.nextafter(HERTZ_BOUNDS[0], 0.0), Frequency, "frequency"),
        (math.nextafter(HERTZ_BOUNDS[1], math.inf), Frequency, "frequency"),
    ],
    ids=["distance-up", "distance-down", "frequency-down", "frequency-up"],
)
def test_a_link_outside_the_length_domain_is_refused_by_name(value, build, name):
    message = f"^{name} must lie in .*, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        build(value)


@given(distance=in_domain_lengths, hertz=st.sampled_from(HERTZ_BOUNDS) | st.floats(*HERTZ_BOUNDS))
@example(distance=MAX_LENGTH_M, hertz=HERTZ_BOUNDS[1])
@example(distance=MIN_LENGTH_M, hertz=HERTZ_BOUNDS[1])
@example(distance=MAX_LENGTH_M, hertz=HERTZ_BOUNDS[0])
def test_fspl_ratio_stays_in_its_bound_across_the_length_domain(distance, hertz):
    # what lets fspl_db and power_utilization go without a float-range check:
    # a wavelength is a length too, and the far-field check leaves R >= lambda
    geometry = LinkGeometry(distance, Frequency(hertz))
    assert MIN_LENGTH_M <= geometry.wavelength_m <= MAX_LENGTH_M
    if distance < geometry.wavelength_m:
        with pytest.raises(NearFieldError):
            fspl_db(geometry)
        return
    ratio = 4.0 * math.pi * distance / geometry.wavelength_m
    assert 4 * math.pi * (1 - 1e-15) <= ratio <= 1.3e25
    assert fspl_db(geometry) == 20.0 * math.log10(ratio)
    unit = power_utilization(AntennaGain(1.0), AntennaGain(1.0), geometry)
    assert 0.0 < unit <= (1 + 1e-15) / (4 * math.pi) ** 2


@given(
    r=st.floats(min_value=1.0, max_value=1e5),
    f_ghz=st.floats(min_value=0.5, max_value=60.0),
)
def test_fspl_doubling_distance_costs_6dB(r, f_ghz):
    f = Frequency(f_ghz * GHZ)
    a = fspl_db(LinkGeometry(r, f))
    b = fspl_db(LinkGeometry(2 * r, f))
    assert b - a == pytest.approx(20 * math.log10(2), abs=1e-9)
    assert b > a


@given(
    r=st.floats(min_value=1.0, max_value=1e4),
    f_lo=st.floats(min_value=1.0, max_value=10.0),
    factor=st.floats(min_value=1.001, max_value=10.0),
)
def test_fspl_increasing_in_frequency(r, f_lo, factor):
    a = fspl_db(LinkGeometry(r, Frequency(f_lo * GHZ)))
    b = fspl_db(LinkGeometry(r, Frequency(f_lo * factor * GHZ)))
    assert b > a


def test_friis_reference_link():
    f = Frequency(2.437 * GHZ)
    budget = LinkBudget(
        tx_power_dbm=20.0,
        tx_gain=AntennaGain.from_dbi(3.0),
        rx_gain=AntennaGain.from_dbi(3.0),
        geometry=LinkGeometry(10.0, f),
    )
    assert friis_received_dbm(budget) == pytest.approx(-34.18489380557786, abs=1e-9)
    assert budget.rx_power_dbm == friis_received_dbm(budget)

    farther = LinkBudget(
        tx_power_dbm=20.0,
        tx_gain=AntennaGain.from_dbi(3.0),
        rx_gain=AntennaGain.from_dbi(3.0),
        geometry=LinkGeometry(20.0, f),
    )
    assert friis_received_dbm(farther) == pytest.approx(-40.20549371885748, abs=1e-9)


def test_friis_zero_everything_is_minus_fspl():
    geom = LinkGeometry(37.0, Frequency(2.412 * GHZ))
    budget = LinkBudget(0.0, AntennaGain(1.0), AntennaGain(1.0), geom)
    assert friis_received_dbm(budget) == pytest.approx(-fspl_db(geom), abs=1e-12)


@given(
    pt=st.floats(min_value=-30, max_value=40),
    delta=st.floats(min_value=-20, max_value=20),
)
def test_friis_affine_in_tx_power_with_unit_slope(pt, delta):
    geom = LinkGeometry(15.0, Frequency(2.437 * GHZ))
    gains = dict(tx_gain=AntennaGain.from_dbi(2.0), rx_gain=AntennaGain.from_dbi(1.0))
    base = friis_received_dbm(LinkBudget(pt, geometry=geom, **gains))
    moved = friis_received_dbm(LinkBudget(pt + delta, geometry=geom, **gains))
    assert moved - base == pytest.approx(delta, abs=1e-9)


def test_power_utilization_identity_scale():
    # unit gains at one wavelength, the nearest link the formula takes
    f = Frequency(2.4 * GHZ)
    k = power_utilization(AntennaGain(1.0), AntennaGain(1.0), LinkGeometry(f.wavelength_m, f))
    assert k == pytest.approx(1 / (4 * math.pi) ** 2, rel=1e-12)


def test_power_utilization_names_gains_whose_product_overflows():
    # such gains lie past the dB bound, so AntennaGain names them before
    # power_utilization can multiply them
    with pytest.raises(DomainError) as info:
        AntennaGain(1e300)
    assert str(info.value) == "gain must lie in [1e-100, 1e+100], got 1e+300"


def test_power_utilization_stock_wifi_link():
    # stock gear, gain 2 both ends, 10 m: a few parts per million arrive
    f = Frequency(2.4 * GHZ)
    k10 = power_utilization(AntennaGain(2.0), AntennaGain(2.0), LinkGeometry(10.0, f))
    k20 = power_utilization(AntennaGain(2.0), AntennaGain(2.0), LinkGeometry(20.0, f))
    assert k10 == pytest.approx(3.952384484127397e-06, rel=1e-12)
    assert k20 == pytest.approx(9.880961210318492e-07, rel=1e-12)
    assert k20 == pytest.approx(k10 / 4, rel=1e-12)


def test_power_utilization_near_field_guard():
    f = Frequency(2.4 * GHZ)
    with pytest.raises(NearFieldError):
        power_utilization(AntennaGain(2.0), AntennaGain(2.0), LinkGeometry(0.01, f))


@given(
    gt=st.floats(min_value=0.1, max_value=100),
    gr=st.floats(min_value=0.1, max_value=100),
    r=st.floats(min_value=1.0, max_value=1e4),
    f_ghz=st.floats(min_value=1.0, max_value=6.0),
)
def test_power_utilization_reciprocity_and_inverse(gt, gr, r, f_ghz):
    f = Frequency(f_ghz * GHZ)
    geom = LinkGeometry(r, f)
    a = power_utilization(AntennaGain(gt), AntennaGain(gr), geom)
    b = power_utilization(AntennaGain(gr), AntennaGain(gt), geom)
    assert a == b  # symmetric exactly, multiplication commutes
    inverse = a * (4 * math.pi * r / f.wavelength_m) ** 2 / (gt * gr)
    assert inverse == pytest.approx(1.0, abs=1e-12)


def test_range_ratio_reference_points():
    assert range_ratio_from_gain_delta(0.0) == 1.0
    assert range_ratio_from_gain_delta(5.0) == pytest.approx(1.7782794100389228, rel=1e-12)
    assert range_ratio_from_gain_delta(7.0) == pytest.approx(2.2387211385683394, rel=1e-12)
    assert range_ratio_from_gain_delta(20 * math.log10(2)) == pytest.approx(2.0, abs=1e-12)


@given(k=st.floats(min_value=0.1, max_value=100))
def test_range_ratio_round_trip(k):
    assert range_ratio_from_gain_delta(20 * math.log10(k)) == pytest.approx(k, abs=1e-9)


def test_gain_dbi_round_trip():
    g = AntennaGain.from_dbi(3.0)
    assert g.dbi == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(DomainError):
        AntennaGain(0.0)


def test_geometry_validation():
    with pytest.raises(DomainError):
        LinkGeometry(0.0, Frequency(2.4 * GHZ))
    with pytest.raises(DomainError):
        LinkGeometry(math.inf, Frequency(2.4 * GHZ))


def test_speed_of_light_is_exact_si():
    assert SPEED_OF_LIGHT_M_S == 299_792_458.0


@pytest.mark.parametrize("dbi", [1e308, 3084.0, -1e308, -3300.0])
def test_gain_without_a_finite_linear_value_names_its_dbi(dbi):
    message = f"dBi gain must lie in [-1000.0, 1000.0] dB, got {dbi} dB"
    with pytest.raises(DomainError, match=re.escape(message)):
        AntennaGain.from_dbi(dbi)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: LinkBudget(
            math.nan, AntennaGain(1.0), AntennaGain(1.0), LinkGeometry(10.0, Frequency(GHZ))
        ), "got nan"),
        (lambda: range_ratio_from_gain_delta(7000.0), "7000.0 dB"),
        # these two returned 0.0
        (lambda: range_ratio_from_gain_delta(-7000.0), "got -7000.0 dB"),
        (lambda: power_utilization(
            AntennaGain(5e-324), AntennaGain(5e-324), LinkGeometry(10.0, Frequency(2.4 * GHZ))
        ), "got 5e-324"),
    ],
)
def test_edge_inputs_raise_a_domain_error_naming_them(call, value):
    with pytest.raises(DomainError, match=re.escape(value)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        range_ratio_from_gain_delta,
        lambda x: LinkBudget(
            x, AntennaGain(1.0), AntennaGain(1.0), LinkGeometry(10.0, Frequency(2.4 * GHZ))
        ).rx_power_dbm,
    ],
)
@given(x=st.floats())
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=7000.0)
def test_any_float_gives_a_finite_result_or_raises_domain_error(call, x):
    try:
        result = call(x)
    except DomainError:
        return
    assert math.isfinite(result)
