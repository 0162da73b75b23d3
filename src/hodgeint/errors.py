"""Exceptions shared across the package, and the size limit on inputs.

Every integral family is total on its stable range, so an evaluator fails
only on its input: DomainError outside the domain, LimitError (a DomainError)
beyond a size limit.
"""

__all__ = [
    "MAX_POINTS",
    "MAX_PSI_GENUS",
    "MAX_LAMBDA_GENUS",
    "MAX_BSEQ_GENUS",
    "MAX_EULER_GENUS",
    "MAX_VERIFY_GENUS",
    "DomainError",
    "LimitError",
    "check_points",
    "check_limit",
]

# Every entry, the sum entries psi_or_zero, lambda_*_or_zero and degree0_gw
# included, checks this through combinat.family_key.  String and dilaton
# steps recurse once per insertion, one frame each (combinat.reduction walks
# a step's terms in its own loop): with Python 3.11, counted below the entry,
# 200 insertions reach 200-211 frames on either path (all zeros but one, or
# all ones but one) for psi, every lambda family, the solvers and degree0_gw,
# of Python's default recursion limit of 1000.  A top step needs every exponent
# >= 2, so it removes at most 3g - 3 insertions (psi, about 3 frames each: 45
# at g = 6 with 15 points) or 2g - 2 (lambda_{g-1}, 5 each: 307 at g = 31).
MAX_POINTS = 200

# Largest genus the command line accepts, so that no single cold command runs
# for more than a few seconds.  Measured on one core of a 2-vCPU x86-64 host,
# Python 3.11, empty memo, no bytecode cache: psi with ten balanced points
# takes 0.24 s at g = 12, 0.51 s at 14 (whole commands), 2.9 s at 16
# in-process; one-point and genus-0 psi values are closed forms; the lambda
# families are closed forms or short solvers (c_g and the lambda_{g-1}^3
# constant together 0.015 s at g = 50, 0.64 s at 200; lambda_{g-1} with ten
# balanced points 0.16 s as a whole command at g = 50), and gw0 reaches only
# them (and psi at g = 1; P^2 with ten balanced class-0 points solves
# lambda_g lambda_{g-2} in 0.19 s as a whole command at g = 50); bseq takes
# 0.11 s at G = 100 and 0.27 s at 200 as whole commands, 0.60 s in-process at
# 300; euler --dim 3, as a whole cold command, 0.11 s and 16 MB at g = 1000
# (the class alone is under 1 ms).  verify --max-genus, per suite, as whole
# cold commands: annihilation 0.13 s at 14 (linear); bseq 0.35 s at 200
# (1.1 s in-process at 300); closed-vs-recursion 1.8 s at 40 (8.3 s
# in-process at 60); mumford 0.78 s at 80 (7.0 s in-process at 160); euler
# 0.14 s at 128; cg 1.4 s at 200 (0.71 s at 160; 9.0 s in-process at 320);
# table stops at the published g = 5.
MAX_PSI_GENUS = 14
MAX_LAMBDA_GENUS = 50
MAX_BSEQ_GENUS = 200
MAX_EULER_GENUS = 1000
MAX_VERIFY_GENUS = {"table": 5, "bseq": MAX_BSEQ_GENUS, "closed-vs-recursion": 40,
                    "annihilation": MAX_PSI_GENUS, "mumford": 80, "euler": 128,
                    "cg": 200}


class DomainError(ValueError):
    """Raised for inputs outside the stable range, e.g. (g, n) = (0, 2) or (1, 0)."""


class LimitError(DomainError):
    """Raised for inputs beyond a documented size limit (the MAX_* above)."""


def check_points(n: int) -> None:
    if n > MAX_POINTS:
        raise LimitError(f"at most {MAX_POINTS} insertions are supported, got {n}")


def check_limit(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise LimitError(f"{name} is at most {cap}, got {value}")
