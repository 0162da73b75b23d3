"""Exceptions shared across the package, and the size limit on inputs."""

__all__ = [
    "MAX_POINTS",
    "MAX_PSI_GENUS",
    "MAX_LAMBDA_GENUS",
    "MAX_BSEQ_GENUS",
    "MAX_VERIFY_GENUS",
    "DomainError",
    "LimitError",
    "UnderdeterminedError",
    "check_points",
    "check_limit",
]

# String and dilaton reduction recurse once per insertion, two frames at a
# time, so many more insertions than this would exhaust Python's default
# recursion limit of 1000.
MAX_POINTS = 200

# Largest genus the command line accepts, so that no single cold command runs
# for more than a few seconds.  Measured on one core of a 2-vCPU x86-64 host,
# Python 3.11, empty memo: <tau_{3g-2}>_g takes 1.1 s at g = 12, 3.7 s at 14
# and 11 s at 16 (about 1.6x per genus); the lambda families are closed forms
# or short solvers (c_g and the lambda_{g-1}^3 constant together 0.015 s at
# g = 50, 0.64 s at 200; lambda_{g-1} with ten balanced points 1.0 s at
# g = 50); b_0..b_G takes 0.17 s at G = 100, 1.0 s at 200 and 3.8 s at 300.
# verify --max-genus, per suite, as whole cold commands: annihilation 0.1 s at
# 14 (linear); bseq 2.0 s at 200 (5.5 s at 300); closed-vs-recursion 3.0 s at
# 40 (15 s at 60); mumford 2.9 s at 80 (22 s at 160); euler 2.8 s at 128 (23 s
# at 256); cg 3.2 s at 200 (15 s at 320); table stops at the published g = 5.
MAX_PSI_GENUS = 14
MAX_LAMBDA_GENUS = 50
MAX_BSEQ_GENUS = 200
MAX_VERIFY_GENUS = {"table": 5, "bseq": MAX_BSEQ_GENUS, "closed-vs-recursion": 40,
                    "annihilation": MAX_PSI_GENUS, "mumford": 80, "euler": 128,
                    "cg": 200}


class DomainError(ValueError):
    """Raised for inputs outside the stable range, e.g. (g, n) = (0, 2) or (1, 0)."""


class LimitError(DomainError):
    """Raised for inputs beyond a documented size limit (the MAX_* above)."""


class UnderdeterminedError(RuntimeError):
    """Raised when a best-effort solver cannot pin down a value.

    This is an honest failure signal; it must never be silenced into a guess.
    """


def check_points(n: int) -> None:
    if n > MAX_POINTS:
        raise LimitError(f"at most {MAX_POINTS} insertions are supported, got {n}")


def check_limit(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise LimitError(f"{name} is at most {cap}, got {value}")
