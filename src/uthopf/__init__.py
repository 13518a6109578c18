"""Exact Hopf algebra computations for class functions of unitriangular
groups over prime fields, with a brute-force finite group engine as an
independent oracle and degreewise induction to the general linear side."""

from .combinatorics import (
    BudgetError,
    Nuio,
    PartialOrder,
    SetComposition,
    natural_unit_interval_orders,
)
from .group_engine import FqMatrix, GroupTable, gl_table, pattern_group, \
    ut_table
from .class_functions import ClassFunction, TensorFunction
from .hopf_core import (
    GradedClassFunction,
    GradedTensor,
    LaurentT,
    ScfElement,
    TensorScf,
    specialize,
    ut_coproduct,
    ut_product,
)
from .gl_bridge import gl_coproduct, gl_product, induce_to_gl

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ClassFunction",
    "FqMatrix",
    "GradedClassFunction",
    "GradedTensor",
    "GroupTable",
    "LaurentT",
    "Nuio",
    "PartialOrder",
    "ScfElement",
    "SetComposition",
    "TensorFunction",
    "TensorScf",
    "gl_coproduct",
    "gl_product",
    "gl_table",
    "induce_to_gl",
    "natural_unit_interval_orders",
    "pattern_group",
    "specialize",
    "ut_coproduct",
    "ut_product",
    "ut_table",
]
