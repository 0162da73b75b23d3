"""Exceptions shared across the package, and the size limit on inputs."""

__all__ = ["MAX_POINTS", "DomainError", "LimitError", "UnderdeterminedError", "check_points"]

# String and dilaton reduction recurse once per insertion, two frames at a
# time, so many more insertions than this would exhaust Python's default
# recursion limit of 1000.
MAX_POINTS = 200


class DomainError(ValueError):
    """Raised for inputs outside the stable range, e.g. (g, n) = (0, 2) or (1, 0)."""


class LimitError(DomainError):
    """Raised for inputs beyond a documented size limit (MAX_POINTS)."""


class UnderdeterminedError(RuntimeError):
    """Raised when a best-effort solver cannot pin down a value.

    This is an honest failure signal; it must never be silenced into a guess.
    """


def check_points(n: int) -> None:
    if n > MAX_POINTS:
        raise LimitError(f"at most {MAX_POINTS} insertions are supported, got {n}")
