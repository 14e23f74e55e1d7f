"""Exact Schubert calculus with osculating and isotropic flags.

Everything is computed over the rationals (or real quadratic extensions of
them when square roots become unavoidable); there is no floating point
anywhere, so every verification in the package is a proof for the specific
inputs it ran on.
"""

from .errors import (DegenerateConfiguration, DimensionMismatch,
                     InfinitelyMany, NegativeExpectedDimension, NoSolution,
                     NotInCellInterior, NotMember, NotNilpotent,
                     SchubertError, UnsupportedGroup, ZeroPolynomial)
from .linalg import (Matrix, QuadExt, det, exp_nilpotent, inverse,
                     kernel, rank, rref, solve_quadratic, square_split)
from .poly import PolyQ
from .flags import (BilinearForm, Flag, GroupKind, curve_point,
                    curve_polynomials, exp_translate_flag, flags_equal,
                    gram_matrix, is_isotropic_flag, nilpotency_index,
                    osculating_flag, principal_nilpotent,
                    random_isotropic_flag)
from .grassmann import (ExpectedDimReport, GrPoint, PermCondition,
                        SchubertCondition, TangentSpace,
                        TransversalityCertificate, cell_interior, codim,
                        condition_codim, expected_dim_report,
                        flag_manifold_dim, iota, membership,
                        pad_to_zero_dimensional, perm_codim,
                        small_solver_gr24, tangent_space,
                        transversality_certificate)
from .wronski import (EHReport, PolyPlane, check_eh_identity,
                      plane_to_grpoint, plane_vanishing_orders,
                      ramification_condition, random_plane, vanishing_order,
                      wronski_solver_gr24, wronskian)

__version__ = "0.1.0"

__all__ = [
    "BilinearForm", "DegenerateConfiguration", "DimensionMismatch",
    "EHReport", "ExpectedDimReport", "Flag", "GrPoint", "GroupKind",
    "InfinitelyMany", "Matrix", "NegativeExpectedDimension", "NoSolution",
    "NotInCellInterior", "NotMember", "NotNilpotent", "PermCondition",
    "PolyPlane", "PolyQ", "QuadExt", "SchubertCondition",
    "SchubertError", "TangentSpace", "TransversalityCertificate",
    "UnsupportedGroup", "ZeroPolynomial", "cell_interior", "check_eh_identity",
    "codim", "condition_codim", "curve_point", "curve_polynomials", "det",
    "exp_nilpotent", "exp_translate_flag", "expected_dim_report",
    "flag_manifold_dim", "flags_equal", "gram_matrix", "inverse",
    "is_isotropic_flag", "iota", "kernel", "membership", "nilpotency_index",
    "osculating_flag", "pad_to_zero_dimensional",
    "perm_codim", "plane_to_grpoint", "plane_vanishing_orders",
    "principal_nilpotent", "ramification_condition", "random_isotropic_flag",
    "random_plane", "rank", "rref", "small_solver_gr24", "solve_quadratic",
    "square_split", "tangent_space",
    "transversality_certificate", "vanishing_order", "wronski_solver_gr24",
    "wronskian",
]
