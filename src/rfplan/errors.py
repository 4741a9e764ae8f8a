"""Shared error types, the input checks and the one bound on sample counts.

Every input that violates a physical or structural precondition raises
DomainError (or a subclass), so callers can distinguish bad inputs from bugs.
A non-real value, a bool, nan, inf or a number past the float range given to
any public constructor or function where a real number is due is a
DomainError naming it: _finite and _positive return the float that is then
stored or used, as _index returns an int for an integer input. No numpy here:
every CLI command loads this module.
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


def _finite(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float, which must be a finite real number in [low, high];
    any other is a DomainError naming it."""
    try:
        number = float(value) if _real(value) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        number = math.nan
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite number, got {_shown(value)}")
    if not low <= number <= high:
        raise DomainError(f"{name} must lie in [{low}, {high}], got {number!r}")
    return number


def _positive(name: str, value) -> float:
    """value as a float, which must be a positive, finite real number; any
    other is a DomainError naming it."""
    try:
        number = float(value) if _real(value) else math.nan
    except OverflowError:
        number = math.nan
    if not 0.0 < number < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
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
