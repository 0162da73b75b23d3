"""Exact intersection numbers of psi and lambda classes on moduli of stable
curves: closed forms, constraint recursions, obstruction-bundle Euler classes,
and degree-zero descendent invariants, all over ``fractions.Fraction``.
"""

from .constraints import x_curve, x_surface, y_curve, y_surface
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
from .mumford import (
    LambdaRingElem,
    degree0_gw,
    euler_class,
    euler_class_genus1,
)
from .operators import (
    CohomologyData,
    DifferentialOperator,
    apply_operator,
    commutator,
    general_operator,
    p1_data,
    p2_data,
    p3_data,
    point_data,
    point_operator,
)
from .psi import point_partition, psi_integral
from .series1d import b_closed_form, b_sequence

__version__ = "0.1.0"

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
    "x_curve",
    "y_curve",
    "x_surface",
    "y_surface",
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
    "LambdaRingElem",
    "euler_class",
    "euler_class_genus1",
    "degree0_gw",
    "b_sequence",
    "b_closed_form",
]
