"""Shared error types, the input checks and the one bound on sample counts.

Every input that violates a physical or structural precondition raises
DomainError (or a subclass), so callers can distinguish bad inputs from bugs.
A non-real value, a bool, nan, inf or a number past the float range given to
any public constructor or function where a real number is due is a
DomainError naming it: _finite, _positive, _length and _decibels return the
float that is then stored or used, as _index returns an int for an integer
input and _uint64 one that fits 64 bits. Every length lies in the one domain
below, and every dB value the library turns into a ratio within the one bound
below it. No numpy here: every CLI command loads this module.
"""
import math
import operator


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def _real(value) -> bool:
    """Whether value is a real number other than a bool."""
    # a float skips the numbers.Real ABC check, which costs about 1 us a call,
    # and the import of numbers, which no command needs for its own flags
    if isinstance(value, float):
        return True
    import numbers

    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # it holds an int longer than sys.get_int_max_str_digits()
        return f"an overlong {type(value).__name__}"


def _index(name: str, value) -> int:
    """value as an int; a bool, float or string is rejected, never truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None


def _uint64(name: str, value) -> int:
    """value as an int in [0, 2**64 - 1], the domain of every seed and timestamp."""
    number = _index(name, value)
    if not 0 <= number <= 0xFFFFFFFFFFFFFFFF:
        raise DomainError(f"{name} must fit 64 bits, got {_shown(number)}")
    return number


def _float(value) -> float:
    """value as a float; nan if it is not a real number or lies past the float range."""
    try:
        return float(value) if _real(value) else math.nan
    except OverflowError:
        return math.nan


def _finite(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float, which must be a finite real number in [low, high];
    any other is a DomainError naming it."""
    number = _float(value)
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite number, got {_shown(value)}")
    if not low <= number <= high:
        raise DomainError(f"{name} must lie in [{low}, {high}], got {number!r}")
    return number


# Every length the library takes lies in [MIN_LENGTH_M, MAX_LENGTH_M] metres;
# a radius may also be 0, and a coordinate or offset is signed, within
# +-MAX_LENGTH_M. 1e12 < 2**53, so an int coordinate in range is exact as a
# float. No product of four lengths and no ratio of two leaves the float range
# or goes subnormal: they lie in [1e-48, 1e48] and [1e-24, 1e24], and normal
# floats span [2.2e-308, 1.8e308]. Sums, coordinate differences (at most
# 2*sqrt(2)*MAX_LENGTH_M) and factors such as 4*pi or U_MAX = 200 move these
# bounds by a few decades: fspl_db's ratio lies in [4*pi, 1.3e25],
# PathGeometry's terms in [1e-48, about 1e52], and a simulator link above
# about -2,673 dBm. A radius, coordinate or offset below MIN_LENGTH_M may
# square to a subnormal or 0, right to within 1e-24 m^2, never a nan or inf.
MIN_LENGTH_M = 1e-12
MAX_LENGTH_M = 1e12


def _length(name: str, value, low: float = MIN_LENGTH_M) -> float:
    """value as a float, a length in [low, MAX_LENGTH_M] metres: low is 0.0
    for a radius and -MAX_LENGTH_M for a coordinate or offset."""
    return _finite(name, value, low, MAX_LENGTH_M)


# Every dB value the library turns into a ratio lies within +-MAX_DB, so its
# power ratio 10**(dB/10) lies in [1e-100, 1e100] and its field ratio
# 10**(dB/20) in [1e-50, 1e50]. Two power ratios and the square of a ratio of
# two lengths multiply to within [1e-300, 1e300], inside the normal floats:
# power_utilization's Gt*Gr*(lambda/(4*pi*R))**2 lies in [6.3e-251, 6.4e197].
# A 2x2 channel whose entries' parts are field ratios has eigenvalues of
# H H^dagger of at most 8e100, so at an SNR that is a power ratio 1 +
# snr/2*lambda is at most 4e200. An emitter's and a hand-built bin's dBm share
# the bound.
MAX_DB = 1000.0


def _decibels(name: str, value) -> float:
    """value as a float, a dB figure within +-MAX_DB."""
    number = _finite(name, value)
    if not abs(number) <= MAX_DB:
        raise DomainError(f"{name} must lie in [{-MAX_DB}, {MAX_DB}] dB, got {number!r} dB")
    return number


def _positive(name: str, value, high: float = math.inf) -> float:
    """value as a float, which must be a positive, finite real number of at
    most high; any other is a DomainError naming it."""
    number = _float(value)
    if not 0.0 < number < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
    if not number <= high:
        raise DomainError(f"{name} must lie in (0.0, {high}], got {number!r}")
    return number


# Most steps a lens profile or a partial-field curve may take. Each call holds
# all its samples at once, so this bounds its time and memory, while a step
# such as 1e-300 would loop forever or ask numpy for an array it cannot
# allocate. At the limit the CLI prints an obliquity curve to U_MAX in about
# 3 s and 0.5 GB, and a lens profile table in about 8 s and 0.75 GB (2-CPU Xeon).
MAX_SAMPLES = 1_000_000


def check_sample_count(step: float, extent: float, step_name: str, extent_name: str) -> None:
    """Refuse a step that splits [0, extent] into more than MAX_SAMPLES steps.

    A step that is not positive is left to the caller's own check.
    """
    if step > 0 and extent / step > MAX_SAMPLES:
        raise DomainError(
            f"{step_name} {step!r} splits {extent_name} {extent!r} into more than "
            f"{MAX_SAMPLES} steps"
        )
