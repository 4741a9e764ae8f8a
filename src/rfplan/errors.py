"""Shared error types, the input checks and the one bound on sample counts.

Every input that violates a physical or structural precondition raises
DomainError (or a subclass), so callers can distinguish bad inputs from bugs.
A non-real value, a bool, nan, inf or a number past the float range given to
any public constructor or function where a real number is due is a
DomainError naming it: _finite, _positive, _length and _decibels return the
float that is then stored or used, as _index returns an int for an integer
input and _uint64 one that fits 64 bits. Every length lies in the one domain
below, and every dB value the library turns into a ratio within the one bound
below it. Each rule of one input is a check(name, value) here: the library
applies it under its field's name, the CLI under the flag's (cli._DOMAINS).
No numpy here: every CLI command loads this module.
"""
import math
import operator
from functools import partial
from pathlib import Path


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
# Exact SI value; wavelengths below 2.4 GHz folklore (0.125 m) come out as
# 0.12491... from this constant.
SPEED_OF_LIGHT_M_S = 299_792_458.0


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


# Largest zone number and coordinate of field ratios and curves. It bounds the
# work of one call, about one unit panel per zone, not its accuracy: fresnel's
# fixed rule is exact to rounding at any u. The open-aperture curve has not
# settled there (K(200) is still about 0.67 for 25 m legs at 0.125 m).
U_MAX = 200.0
MAX_TILT_DEG = 90.0  # either way; radians(90.0) is pi/2, and radians is monotonic

# The rules of bounded real inputs, each check(name, value) -> the float:
# a carrier frequency, whose wavelength is a length
check_frequency = partial(_finite, low=SPEED_OF_LIGHT_M_S / MAX_LENGTH_M,
                          high=SPEED_OF_LIGHT_M_S / MIN_LENGTH_M)
check_fraction = partial(_finite, low=0.0, high=1.0)  # a diffuse fraction or cross-polar leakage
check_gain_uplift = partial(_finite, low=0.0, high=30.0)  # a lens gain uplift, dB
check_throughput = partial(_finite, low=0.0)  # a fractional throughput gain at fixed range
check_snr = partial(_positive, high=10.0 ** (MAX_DB / 10.0))  # a power ratio of at most MAX_DB
check_u_max = partial(_positive, high=U_MAX)  # the zone coordinate a curve runs to
check_tilt_deg = partial(_finite, low=-MAX_TILT_DEG, high=MAX_TILT_DEG)
check_tilt = partial(_finite, low=-math.radians(MAX_TILT_DEG), high=math.radians(MAX_TILT_DEG))


def check_aperture(name: str, value) -> float:
    """value as a float, a lens aperture half angle in (0, 90) deg."""
    angle = _finite(name, value)
    if not 0.0 < angle < 90.0:
        raise DomainError(f"{name} must lie in (0, 90) deg, got {angle}")
    return angle


def check_alpha(name: str, value):
    """value as given, an EWMA smoothing factor: a real number in (0, 1]."""
    if not (_real(value) and 0.0 < value <= 1.0):
        raise DomainError(f"{name} must be a real number in (0, 1], got {_shown(value)}")
    return value


def _int_range(low: int, high: float, name: str, value) -> int:
    """value as an int in low..high, a bool, float or string refused. A rule binds
    the bounds positionally: keywords would cost channel scoring a dict a call."""
    number = _index(name, value)
    if not low <= number <= high:
        raise DomainError(f"{name} must lie in {low}..{high:g}, got {_shown(number)}")
    return number


ALL_CHANNELS: tuple[int, ...] = tuple(range(1, 15))  # the 2.4 GHz (802.11b/g) channels
check_channel = partial(_int_range, ALL_CHANNELS[0], ALL_CHANNELS[-1])
# PathGeometry bounds the terms of a zone's radius only out to U_MAX
check_zone_number = partial(_int_range, 1, U_MAX)


def check_interval(name: str, value) -> tuple[float, float]:
    """value as a pair of floats (a, b), a blocked span 0 <= a < b <= U_MAX of u."""
    a, b = (_finite(f"{name} bound", bound) for bound in value)
    if not 0.0 <= a < b <= U_MAX:
        raise DomainError(f"{name} [{a}, {b}] must satisfy 0 <= a < b <= {U_MAX}")
    return a, b


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


def read_text(path) -> str:
    """The text of the UTF-8 file at path; one that is not UTF-8 is a DomainError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
