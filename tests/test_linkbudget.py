import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rfplan.errors import DomainError
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


def test_fspl_log_argument_one_gives_zero():
    lam = Frequency(2.4 * GHZ).wavelength_m
    geom = LinkGeometry(lam / (4 * math.pi), Frequency(2.4 * GHZ))
    assert fspl_db(geom, enforce_far_field=False) == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize(
    ("distance", "hertz", "far_field"),
    [(1e308, 2.4 * GHZ, True), (2e306, 2.4 * GHZ, True), (1e-300, 1e-300, False)],
)
def test_fspl_outside_float_range_names_distance_and_wavelength(distance, hertz, far_field):
    geometry = LinkGeometry(distance, Frequency(hertz))
    message = (
        f"4*pi*R/lambda for distance {distance} m and wavelength "
        f"{geometry.wavelength_m} m leaves the float range"
    )
    with pytest.raises(DomainError, match=re.escape(message)):
        fspl_db(geometry, enforce_far_field=far_field)


@given(
    r=st.floats(min_value=0.5, max_value=1e5),
    f_ghz=st.floats(min_value=0.5, max_value=60.0),
)
def test_fspl_doubling_distance_costs_6dB(r, f_ghz):
    f = Frequency(f_ghz * GHZ)
    a = fspl_db(LinkGeometry(r, f), enforce_far_field=False)
    b = fspl_db(LinkGeometry(2 * r, f), enforce_far_field=False)
    assert b - a == pytest.approx(20 * math.log10(2), abs=1e-9)
    assert b > a


@given(
    r=st.floats(min_value=1.0, max_value=1e4),
    f_lo=st.floats(min_value=1.0, max_value=10.0),
    factor=st.floats(min_value=1.001, max_value=10.0),
)
def test_fspl_increasing_in_frequency(r, f_lo, factor):
    a = fspl_db(LinkGeometry(r, Frequency(f_lo * GHZ)), enforce_far_field=False)
    b = fspl_db(LinkGeometry(r, Frequency(f_lo * factor * GHZ)), enforce_far_field=False)
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
    f = Frequency(2.4 * GHZ)
    r = f.wavelength_m / (4 * math.pi)
    k = power_utilization(
        AntennaGain(1.0), AntennaGain(1.0), LinkGeometry(r, f), enforce_far_field=False
    )
    assert k == pytest.approx(1.0, abs=1e-12)


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
    message = f"{dbi} dBi has no positive, finite linear gain"
    with pytest.raises(DomainError, match=re.escape(message)):
        AntennaGain.from_dbi(dbi)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: LinkBudget(
            math.nan, AntennaGain(1.0), AntennaGain(1.0), LinkGeometry(10.0, Frequency(GHZ))
        ), "got nan"),
        (lambda: range_ratio_from_gain_delta(7000.0), "7000.0 dB"),
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
