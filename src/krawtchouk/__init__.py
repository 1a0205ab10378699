"""Exact-arithmetic Krawtchouk matrices, identity verification, and
Boolean-lattice operator algebras."""

__version__ = "0.1.0"

from .combinatorics import binomial, catalan, super_catalan
from .matrices import KrawtchoukMatrix, build_matrix
from .report import IdentityReport
from .zeon import ZeonMatrix, lower_op, op_T, op_Tstar, op_U, raise_op, zeon_mul
from .algebra import (
    AlgebraStats,
    ComponentSpec,
    Family,
    algebra_stats,
    analyze_family,
    center_dimension,
    centralizer_dimension,
    predicted_stats,
    span_closure_dimension,
)

__all__ = [
    "__version__",
    "binomial",
    "catalan",
    "super_catalan",
    "KrawtchoukMatrix",
    "build_matrix",
    "IdentityReport",
    "ZeonMatrix",
    "zeon_mul",
    "raise_op",
    "lower_op",
    "op_T",
    "op_Tstar",
    "op_U",
    "AlgebraStats",
    "ComponentSpec",
    "Family",
    "analyze_family",
    "algebra_stats",
    "span_closure_dimension",
    "centralizer_dimension",
    "center_dimension",
    "predicted_stats",
]
