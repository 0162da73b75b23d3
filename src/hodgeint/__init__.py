"""Exact intersection numbers of psi and lambda classes on moduli of stable
curves: closed forms, constraint recursions, obstruction-bundle Euler classes,
and degree-zero descendent invariants, all over ``fractions.Fraction``.

``import hodgeint`` loads the psi/lambda core: ``errors``, ``store``,
``combinat``, ``phase_space``, ``psi``, ``series1d`` and ``hodge``.  The layers
that test the core load on first use: the constraint families
(``constraints``), the obstruction-bundle Euler classes (``mumford``) and the
operators L_k (``operators``).  Their public names below resolve through the
module ``__getattr__``, which imports the defining submodule the first time
one of them is read.
"""

import importlib

from .errors import DomainError
from .hodge import (
    b_constant,
    c_constant,
    gg_const,
    hodge_table,
    kappa_lambda_integral,
    lambda_cube,
    lambda_g,
    lambda_g_gm1,
    lambda_g_gm1_solver,
    lambda_g_solver,
    lambda_gm1,
)
from .psi import point_partition, psi_integral
from .series1d import b_closed_form, b_sequence

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first access
_DEFERRED = {
    **dict.fromkeys(("x_curve", "y_curve", "x_surface", "y_surface"), "constraints"),
    **dict.fromkeys(
        ("LambdaRingElem", "euler_class", "euler_class_genus1", "degree0_gw"), "mumford"
    ),
    **dict.fromkeys(
        (
            "CohomologyData",
            "DifferentialOperator",
            "point_operator",
            "general_operator",
            "commutator",
            "apply_operator",
            "point_data",
            "p1_data",
            "p2_data",
            "p3_data",
        ),
        "operators",
    ),
}

# the names `import hodgeint` binds, then the deferred ones
__all__ = [
    "DomainError",
    "psi_integral",
    "point_partition",
    "b_constant",
    "c_constant",
    "gg_const",
    "lambda_g",
    "lambda_g_solver",
    "lambda_g_gm1",
    "lambda_g_gm1_solver",
    "lambda_gm1",
    "lambda_cube",
    "kappa_lambda_integral",
    "hodge_table",
    "b_sequence",
    "b_closed_form",
]
__all__ += _DEFERRED


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_DEFERRED[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_DEFERRED))
