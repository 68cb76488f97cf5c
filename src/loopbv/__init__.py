"""Exact string-topology BV algebra engine for exterior rational models."""

from .kernel import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    AlgebraError,
    Element,
    ModelSpec,
    Monomial,
    Ring,
    random_element,
)
from .models import builtin_model, resolve_model
from .loop import (
    bv_delta,
    loop_bracket,
    loop_product,
    s_star,
)
from .cohomology import (
    coh_delta,
    poincare_dual,
    poincare_dual_inverse,
    to_base,
)
from .extended import (
    BVOps,
    STANDARD_OPS,
    ExtendedClass,
    cap,
    extended_bracket,
    extended_delta,
    extended_product,
    loop_intersection,
)
from .verify import (
    CATALOG,
    CATALOG_VERSION,
    CheckReport,
    IdentityCase,
    mutations,
    replay,
    run_suite,
)
from .expr import ExpressionError, evaluate, parse, to_text

__version__ = "0.1.0"

__all__ = [
    "ANY_DEGREE",
    "INHOMOGENEOUS",
    "AlgebraError",
    "BVOps",
    "CATALOG",
    "CATALOG_VERSION",
    "CheckReport",
    "Element",
    "ExpressionError",
    "ExtendedClass",
    "IdentityCase",
    "ModelSpec",
    "Monomial",
    "Ring",
    "STANDARD_OPS",
    "builtin_model",
    "bv_delta",
    "cap",
    "coh_delta",
    "evaluate",
    "extended_bracket",
    "extended_delta",
    "extended_product",
    "loop_bracket",
    "loop_intersection",
    "loop_product",
    "mutations",
    "parse",
    "poincare_dual",
    "poincare_dual_inverse",
    "random_element",
    "replay",
    "resolve_model",
    "run_suite",
    "s_star",
    "to_base",
    "to_text",
]
