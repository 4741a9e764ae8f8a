"""Doubling-period fits for access-point count series.

Deployed AP counts grow close to exponentially, so a straight line through
log2(count) captures the trend: its inverse slope is the doubling period in
days, and extrapolating one period ahead predicts the next doubling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path

from .errors import DomainError, _finite, _positive, read_text


class NoGrowthError(DomainError):
    """The series is flat: a doubling period is undefined."""


@dataclass(frozen=True)
class CountSeries:
    """(t_days, count) samples, strictly increasing in time."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(
            (_finite("t_days", t), _positive("count", c)) for t, c in self.points
        ))
        if len(self.points) < 2:
            raise DomainError(f"need at least 2 points, got {len(self.points)}")
        for (t0, c0), (t1, c1) in zip(self.points, self.points[1:]):
            if not t1 > t0:
                raise DomainError(f"times must be strictly increasing ({t0} -> {t1})")


@dataclass(frozen=True)
class GrowthFit:
    doubling_days: float
    intercept_log2: float
    r_squared: float

    def __post_init__(self):
        for name in ("doubling_days", "intercept_log2", "r_squared"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


def _sum(values) -> float:
    """Left to right, as sum() of floats was before Python 3.12 compensated it,
    so a fit gives the same bits on every Python."""
    return reduce(add, values, 0.0)


def fit_doubling(series: CountSeries) -> GrowthFit:
    """Least squares of log2(count) against time; doubling = 1/slope.

    Times so far apart that a sum of squares overflows, or so close that it
    rounds to 0, leave the fit undefined in floats: that raises a DomainError
    naming the time span.
    """
    ts = [t for t, _ in series.points]
    ys = [math.log2(c) for _, c in series.points]
    out_of_range = DomainError(
        f"times {ts[0]!r} to {ts[-1]!r}: the least-squares fit leaves the float range"
    )
    n = len(ts)
    try:
        t_mean = _sum(ts) / n
        y_mean = _sum(ys) / n
        s_tt = _sum((t - t_mean) ** 2 for t in ts)
        if not 0.0 < s_tt < math.inf:
            raise out_of_range
        s_ty = _sum((t - t_mean) * (y - y_mean) for t, y in zip(ts, ys))
        slope = s_ty / s_tt
        if slope == 0.0:
            raise NoGrowthError("flat series: log2(count) has zero slope")
        intercept = y_mean - slope * t_mean
        ss_res = _sum((y - (intercept + slope * t)) ** 2 for t, y in zip(ts, ys))
        ss_tot = _sum((y - y_mean) ** 2 for y in ys)
    except OverflowError:
        raise out_of_range from None
    doubling_days = 1.0 / slope
    if not all(map(math.isfinite, (slope, intercept, ss_res, doubling_days))):
        raise out_of_range
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return GrowthFit(
        doubling_days=doubling_days,
        intercept_log2=intercept,
        r_squared=r_squared,
    )


def predict_doubling_date(fit: GrowthFit, from_t_days: float) -> float:
    """Time at which the count has doubled once more, one period out."""
    if fit.doubling_days <= 0:
        raise DomainError(
            f"doubling period must be positive to extrapolate, got {fit.doubling_days}"
        )
    t = _finite("from_t_days", from_t_days) + fit.doubling_days
    if not math.isfinite(t):
        raise DomainError(
            f"{from_t_days!r} + {fit.doubling_days!r} days leaves the float range"
        )
    return t


def parse_count_series(text: str) -> CountSeries:
    """Parse two-column text (t_days count), comma or whitespace separated.

    Blank lines and #-comments are skipped.
    """
    points = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.replace(",", " ").split()
        if len(parts) != 2:
            raise DomainError(f"line {lineno}: expected 't_days count', got {line!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
    return CountSeries(points=tuple(points))


def read_count_series(path: str | Path) -> CountSeries:
    """Read a count-series file; see parse_count_series for the format."""
    return parse_count_series(read_text(path))
