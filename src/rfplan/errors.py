"""Shared error types and the one bound on sample counts.

Every input that violates a physical or structural precondition raises
DomainError (or a subclass), so callers can distinguish bad inputs from bugs.
"""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


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
