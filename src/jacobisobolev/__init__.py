"""Exact construction of Sobolev-orthogonal Jacobi-type polynomials.

The package builds, entirely in rational arithmetic, the polynomials that are
orthogonal with respect to a weight on (-1, 1) plus derivative mass terms at
the endpoints, certifies their existence through a Casorati determinant,
assembles a finite-order differential operator having them as eigenfunctions,
and predicts that operator's order from a weighted matrix rank.
"""

from .certify import (
    degree_of_P_check,
    endpoint_jet,
    gram_orthogonal_oracle,
    integrate_against_weight,
    jet,
    rl_cross_check,
    verify_comb_identities,
)
from .construct import DegenerateConfigError, ZSystem, build_z, casorati_lambda, sobolev_poly
from .diffop import (
    AssumptionFailed,
    DiffOp,
    EigenMismatch,
    OperatorBundle,
    build_bundle,
    compose,
    d_operators,
    default_s,
    operator_order,
    verify_eigen,
)
from .exactmath import NEG_INFINITY, Poly, RationalFunction, rat, rat_str
from .jacobi import JacobiContext, jacobi_poly
from .rank import WeightedRankTrace, predicted_order, weighted_rank
from .sobolev import ParameterOutOfRangeError, SobolevConfig, bilinear

__all__ = [
    "AssumptionFailed",
    "DegenerateConfigError",
    "DiffOp",
    "EigenMismatch",
    "JacobiContext",
    "NEG_INFINITY",
    "OperatorBundle",
    "ParameterOutOfRangeError",
    "Poly",
    "RationalFunction",
    "SobolevConfig",
    "WeightedRankTrace",
    "ZSystem",
    "bilinear",
    "build_bundle",
    "build_z",
    "casorati_lambda",
    "compose",
    "d_operators",
    "default_s",
    "degree_of_P_check",
    "endpoint_jet",
    "gram_orthogonal_oracle",
    "integrate_against_weight",
    "jacobi_poly",
    "jet",
    "operator_order",
    "predicted_order",
    "rat",
    "rat_str",
    "rl_cross_check",
    "sobolev_poly",
    "verify_comb_identities",
    "verify_eigen",
    "weighted_rank",
]

__version__ = "1.0.0"
