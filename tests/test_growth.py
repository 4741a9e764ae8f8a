import functools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfplan import fixtures
from rfplan.errors import DomainError
from rfplan.growth import (
    CountSeries,
    GrowthFit,
    NoGrowthError,
    fit_doubling,
    parse_count_series,
    predict_doubling_date,
    read_count_series,
)


def exponential_series(doubling_days, t_points, base=100.0):
    return CountSeries(tuple((t, base * 2.0 ** (t / doubling_days)) for t in t_points))


def test_two_point_exact_doubling():
    fit = fit_doubling(CountSeries(((0.0, 100.0), (730.0, 200.0))))
    assert fit.doubling_days == pytest.approx(730.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_three_point_exact_exponential():
    fit = fit_doubling(CountSeries(((0.0, 100.0), (365.0, 100.0 * 2**0.5), (730.0, 200.0))))
    assert fit.doubling_days == pytest.approx(730.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_matches_polyfit_oracle():
    # independent least-squares route through numpy
    points = ((0.0, 120.0), (100.0, 180.0), (250.0, 230.0), (400.0, 520.0), (500.0, 610.0))
    series = CountSeries(points)
    fit = fit_doubling(series)
    slope, intercept = np.polyfit(
        [t for t, _ in points], [math.log2(c) for _, c in points], 1
    )
    assert fit.doubling_days == pytest.approx(1.0 / slope, rel=1e-9)
    assert fit.intercept_log2 == pytest.approx(intercept, rel=1e-9)


def test_constant_counts_raise_no_growth():
    with pytest.raises(NoGrowthError):
        fit_doubling(CountSeries(((0.0, 100.0), (10.0, 100.0), (20.0, 100.0))))


def test_series_validation():
    with pytest.raises(DomainError):
        CountSeries(((0.0, 100.0),))
    with pytest.raises(DomainError):
        CountSeries(((0.0, 100.0), (0.0, 120.0)))  # non-increasing t
    with pytest.raises(DomainError):
        CountSeries(((0.0, 100.0), (10.0, -5.0)))  # non-positive count


def test_shrinking_series_has_negative_doubling():
    fit = fit_doubling(CountSeries(((0.0, 200.0), (100.0, 100.0))))
    assert fit.doubling_days == pytest.approx(-100.0, abs=1e-9)
    with pytest.raises(DomainError):
        predict_doubling_date(fit, 0.0)


def test_predict_adds_one_period():
    fit = fit_doubling(CountSeries(((0.0, 100.0), (730.0, 200.0))))
    assert predict_doubling_date(fit, 0.0) == pytest.approx(730.0)
    shifted = fit_doubling(CountSeries(((0.0, 100.0), (600.0, 200.0))))
    assert predict_doubling_date(shifted, 100.0) == pytest.approx(700.0)


@given(
    k=st.floats(min_value=1e-3, max_value=1e3),
    doubling=st.floats(min_value=50.0, max_value=3000.0),
)
def test_count_scaling_leaves_doubling_unchanged(k, doubling):
    t_points = (0.0, 150.0, 400.0, 800.0)
    base = fit_doubling(exponential_series(doubling, t_points))
    scaled = fit_doubling(
        CountSeries(tuple((t, k * c) for t, c in exponential_series(doubling, t_points).points))
    )
    assert scaled.doubling_days == pytest.approx(base.doubling_days, abs=1e-9)
    assert scaled.doubling_days == pytest.approx(doubling, rel=1e-9)


@given(
    shift=st.floats(min_value=-5000.0, max_value=5000.0),
    doubling=st.floats(min_value=50.0, max_value=3000.0),
)
def test_time_shift_leaves_doubling_unchanged(shift, doubling):
    t_points = (0.0, 150.0, 400.0, 800.0)
    base = fit_doubling(exponential_series(doubling, t_points))
    shifted = fit_doubling(
        CountSeries(
            tuple((t + shift, c) for t, c in exponential_series(doubling, t_points).points)
        )
    )
    assert shifted.doubling_days == pytest.approx(base.doubling_days, abs=1e-9)


@given(doubling=st.floats(min_value=100.0, max_value=2000.0))
def test_exact_exponential_recovery(doubling):
    series = exponential_series(doubling, (0.0, 100.0, 300.0, 700.0, 1500.0))
    fit = fit_doubling(series)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.doubling_days == pytest.approx(doubling, rel=1e-9)


def add_left_to_right(values):
    return functools.reduce(operator.add, values, 0.0)


def fit_left_to_right(series):
    """The least-squares fit with every sum taken strictly left to right."""
    ts = [t for t, _ in series.points]
    ys = [math.log2(c) for _, c in series.points]
    n = len(ts)
    t_mean = add_left_to_right(ts) / n
    y_mean = add_left_to_right(ys) / n
    s_tt = add_left_to_right((t - t_mean) ** 2 for t in ts)
    s_ty = add_left_to_right((t - t_mean) * (y - y_mean) for t, y in zip(ts, ys))
    slope = s_ty / s_tt
    intercept = y_mean - slope * t_mean
    ss_res = add_left_to_right((y - (intercept + slope * t)) ** 2 for t, y in zip(ts, ys))
    ss_tot = add_left_to_right((y - y_mean) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return 1.0 / slope, intercept, r_squared


@given(
    st.lists(
        st.tuples(st.floats(0.01, 400.0), st.floats(1.0, 1e6)), min_size=2, max_size=40
    )
)
def test_fit_adds_left_to_right(steps):
    # sum() of floats is compensated from Python 3.12 on; the fit must give
    # the same bits on every Python
    t = 0.0
    points = []
    for dt, count in steps:
        t += dt
        points.append((t, count))
    series = CountSeries(tuple(points))
    try:
        fit = fit_doubling(series)
    except NoGrowthError:
        return
    got = (fit.doubling_days, fit.intercept_log2, fit.r_squared)
    assert [v.hex() for v in got] == [v.hex() for v in fit_left_to_right(series)]


def test_read_count_series_text_and_file(tmp_path):
    text = "# header comment\n0 100\n700, 200\n\n1400 400\n"
    series = parse_count_series(text)
    assert series.points == ((0.0, 100.0), (700.0, 200.0), (1400.0, 400.0))

    path = tmp_path / "counts.txt"
    path.write_text(text)
    assert read_count_series(path) == series

    with pytest.raises(DomainError):
        parse_count_series("0 100 extra\n1 2\n")
    with pytest.raises(DomainError):
        parse_count_series("0 abc\n1 2\n")


def test_read_count_series_missing_file_is_not_parsed_as_text(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_count_series(str(tmp_path / "counts.txt"))


def test_bundled_fixture_doubles_every_700_days():
    series = read_count_series(fixtures.ap_counts_path())
    fit = fit_doubling(series)
    assert fit.doubling_days == pytest.approx(700.0, rel=1e-3)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert predict_doubling_date(fit, series.points[-1][0]) == pytest.approx(5600.0, rel=1e-3)


@pytest.mark.parametrize(
    "points",
    [
        ((0.0, 1.0), (1e300, 2.0)),  # (t - t_mean) ** 2 overflows
        ((0.0, 1.0), (1e-300, 2.0)),  # (t - t_mean) ** 2 rounds to 0
        ((1e308, 1.0), (1.5e308, 2.0)),  # the sum of the times overflows
    ],
)
def test_fit_outside_the_float_range_names_the_time_span(points):
    with pytest.raises(DomainError, match=re.escape(f"times {points[0][0]!r} to {points[-1][0]!r}")):
        fit_doubling(CountSeries(points))


def test_predict_refuses_a_date_beyond_the_float_range():
    fit = GrowthFit(doubling_days=1e308, intercept_log2=0.0, r_squared=1.0)
    with pytest.raises(DomainError, match="float range"):
        predict_doubling_date(fit, 1e308)


def test_growth_fit_refuses_a_field_that_is_not_a_finite_number():
    # tests/test_errors.py names every field; this call once raised a TypeError
    with pytest.raises(DomainError, match="^doubling_days must be a finite number, got None$"):
        predict_doubling_date(GrowthFit(None, 0.0, 1.0), 1.0)


_ANY_TIME = st.floats(allow_nan=False, allow_infinity=False)
_ANY_COUNT = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(st.lists(st.tuples(_ANY_TIME, _ANY_COUNT), min_size=2, max_size=8, unique_by=lambda p: p[0]))
def test_any_valid_series_fits_finite_or_raises_domain_error(points):
    series = CountSeries(tuple(sorted(points)))
    try:
        fit = fit_doubling(series)
    except DomainError:
        return
    assert all(map(math.isfinite, (fit.doubling_days, fit.intercept_log2, fit.r_squared)))
    assert 0.0 <= fit.r_squared <= 1.0
    if fit.doubling_days > 0:
        try:
            t = predict_doubling_date(fit, series.points[-1][0])
        except DomainError:
            return
        assert math.isfinite(t)
