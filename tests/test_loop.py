"""Loop homology: product, BV operator, bracket, constant-loop inclusion."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import loopbv
from loopbv.kernel import AlgebraError, Element, ModelSpec, Ring, random_element, sign_pow
from loopbv.loop import (
    a,
    bv_delta,
    loop_bracket,
    loop_product,
    s_star,
    u,
)
from loopbv.cohomology import v
from loopbv.extended import cap
from loopbv.models import resolve_model

import oracle

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))
E357 = ModelSpec("e357", (3, 5, 7))
MODELS = [S3, SU3, E357]


def _hdeg(x):
    d = x.degree()
    return d if isinstance(d, int) else 0


def _rand_loop(model, tag, trial, terms=2):
    rng = random.Random("loop|%s|%s|%d" % (model.name, tag, trial))
    d = model.dimension
    return random_element(model, Ring.LOOP, (-d - 2, 2 * d), terms, rng, even_cap=5)


# -- product -------------------------------------------------------------------


def test_loop_product_examples():
    a1, u1 = a(S3, 1), u(S3, 1)
    assert loop_product(a1, u1) == a1 * u1
    b = a1 * u1 ** 2
    assert loop_product(Element.unit(S3, Ring.LOOP), b) == b
    assert loop_product(b, Element.unit(S3, Ring.LOOP)) == b
    assert loop_product(a1, a1).is_zero()


def test_loop_product_requires_loop_ring():
    with pytest.raises(AlgebraError):
        loop_product(a(S3, 1), Element.generator(S3, Ring.COH, "odd", 1))
    with pytest.raises(AlgebraError, match="model mismatch"):
        loop_product(a(S3, 1), a(SU3, 1))


# -- partial derivatives ---------------------------------------------------------
# The engine has no partials of its own: {u_i, -} = d/da_i, {a_i, -} = -d/du_i
# and cap(v_i^t, -) = (d/du_i)^t, checked against `bench/oracle.py`.


def test_partial_a_position_sign():
    a1, a2, a3, u1 = (a(E357, 1), a(E357, 2), a(E357, 3), u(E357, 1))
    d_a = lambda x, i: loop_bracket(u(E357, i), x)
    assert d_a(a1 * a2 * a3, 1) == a2 * a3
    assert d_a(a1 * a2 * a3, 2) == -(a1 * a3)
    assert d_a(a1 * a2 * a3, 3) == a1 * a2
    assert d_a(a2 * a3 * u1 ** 2, 3) == -(a2 * u1 ** 2)
    assert d_a(a2 * u1, 1).is_zero()
    assert d_a(a1 * a2 + 3 * a2 * a3, 2) == -a1 + 3 * a3


def test_partial_u_falling_factorial():
    u1, u2 = u(SU3, 1), u(SU3, 2)
    b = a(SU3, 2) * u1 ** 5 * u2
    assert -loop_bracket(a(SU3, 1), b) == 5 * a(SU3, 2) * u1 ** 4 * u2
    assert cap(v(SU3, 1) ** 3, b) == 60 * a(SU3, 2) * u1 ** 2 * u2
    assert cap(v(SU3, 1) ** 5, b) == 120 * a(SU3, 2) * u2
    assert cap(v(SU3, 1) ** 0, b) == b
    assert cap(v(SU3, 2) ** 1, b) == a(SU3, 2) * u1 ** 5


def test_partial_u_beyond_the_exponent_is_zero():
    u1, v1 = u(S3, 1), v(S3, 1)
    assert cap(v1 ** 3, u1 ** 2).is_zero()
    assert (-loop_bracket(a(S3, 1), a(S3, 1))).is_zero()
    # only the terms with a high enough exponent survive
    assert cap(v1 ** 3, u1 ** 2 + u1 ** 4) == 24 * u1


@pytest.mark.parametrize("model", MODELS)
def test_partials_match_direct_differentiation(model):
    for trial in range(30):
        b = _rand_loop(model, "partials", trial, terms=4)
        for i in range(1, model.rank + 1):
            assert loop_bracket(u(model, i), b) == oracle.partial_odd(b, i)
            assert -loop_bracket(a(model, i), b) == oracle.partial_even(b, i)
            assert cap(v(model, i) ** 2, b) == oracle.partial_even(b, i, 2)


def test_oracle_shares_only_kernel_arithmetic_with_the_engine():
    """`bench/oracle.py` is the independent reference: its one `loopbv` import
    is kernel arithmetic, so an operator bug cannot cancel against itself."""
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imports = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "loopbv" in line] == ["from loopbv.kernel import Element, Monomial, Ring, sign_pow"]


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(Path(loopbv.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_in_the_package_is_used(path):
    """A name a module imports is read in that module, or exported by its `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported_names(tree)
    assert sorted(set(_imported_names(tree)) - used) == []


def _ring_member_reads(tree):
    """(function, line) of each `Ring.LOOP` or `Ring.COH` read inside a function or lambda body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for stmt in func.body if isinstance(func.body, list) else [func.body]:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute) and node.attr in ("LOOP", "COH")
                            and isinstance(node.value, ast.Name) and node.value.id == "Ring"):
                        yield getattr(func, "name", "<lambda>"), node.lineno


@pytest.mark.parametrize("name", ["kernel", "loop", "cohomology", "extended", "verify"])
def test_engine_function_bodies_read_the_bound_ring_constants(name):
    """The engine reads `_LOOP` and `_COH`, bound once in `kernel`, not the enum
    members, whose lookup is slow on Python 3.10 and 3.11; tables at module level may."""
    tree = ast.parse((Path(loopbv.__file__).parent / (name + ".py")).read_text(encoding="utf-8"))
    assert list(_ring_member_reads(tree)) == []


@pytest.mark.parametrize("path", sorted(Path(loopbv.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_only_the_kernel_names_the_packed_field_width_and_degree_readers(path):
    """The packed layout and the grading are derived once, in `kernel._Packing`; every other
    module reads them from there or through `Element`, never by the field width or the decoders."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(_imported_names(tree))
    names |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert path.stem == "kernel" or not names & {"_FIELD", "_mono_degree", "_render_key"}


def _cap_calls_passing_bracket(tree):
    """Line of each call that passes `bracket=` to `cap`, called by name or attribute, or through `partial`."""
    is_cap = lambda node: getattr(node, "id", getattr(node, "attr", None)) == "cap"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(keyword.arg == "bracket" for keyword in node.keywords):
            if is_cap(node.func) or (node.args and is_cap(node.args[0])):
                yield node.lineno


def test_no_package_or_test_code_passes_bracket_to_cap():
    """`cap(bracket=)` is kept for the benchmark tracer alone: the package and its tests
    expand eq. 5.2 with `nested_brackets`, so deleting the parameter edits `bench/` only."""
    paths = sorted(Path(loopbv.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    calls = [(path.name, line) for path in paths for line in _cap_calls_passing_bracket(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == []


_PUBLIC_NAMES = [
    "ANY_DEGREE", "AlgebraError", "BVOps", "CATALOG", "CATALOG_VERSION", "CheckReport", "Element",
    "ExpressionError", "ExtendedClass", "INHOMOGENEOUS", "IdentityCase", "ModelSpec", "Monomial", "Ring",
    "STANDARD_OPS", "builtin_model", "bv_delta", "cap", "coh_delta", "evaluate", "extended_bracket",
    "extended_delta", "extended_product", "loop_bracket", "loop_intersection", "loop_product", "mutations",
    "parse", "poincare_dual", "poincare_dual_inverse", "random_element", "replay", "resolve_model",
    "run_suite", "s_star", "to_base", "to_text",
]


def test_public_surface_is_pinned():
    """The package exports exactly these names; a new one is added here on purpose."""
    assert sorted(loopbv.__all__) == _PUBLIC_NAMES
    namespace = {}
    exec("from loopbv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == _PUBLIC_NAMES


@pytest.mark.parametrize("cls, methods", [
    (loopbv.Element, ["degree", "generator", "homogeneous_components", "is_zero", "render", "scale", "terms", "unit",
                      "zero"]),
    (loopbv.ExtendedClass, ["degree", "homogeneous_components", "is_zero", "render", "scale", "unit", "zero"]),
], ids=["Element", "ExtendedClass"])
def test_public_methods_are_pinned(cls, methods):
    """Each operation has one public spelling: a method that restates another
    (such as a second constructor of a pair) is added here on purpose or not at all."""
    public = {name for name in dir(cls) if not name.startswith("_")} - set(cls.__slots__)
    assert sorted(public) == methods


# -- BV operator ---------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_delta_on_ladder(k):
    a1, u1 = a(S3, 1), u(S3, 1)
    assert bv_delta(a1 * u1 ** k) == k * u1 ** (k - 1)
    assert bv_delta(u1 ** k).is_zero()


def test_delta_crossing_sign_example():
    expected = -a(SU3, 1)
    assert bv_delta(a(SU3, 1) * a(SU3, 2) * u(SU3, 2)) == expected


def test_delta_raises_degree_by_one():
    for model in MODELS:
        for trial in range(25):
            b = _rand_loop(model, "deg", trial)
            image = bv_delta(b)
            if not image.is_zero():
                assert image.degree() == _hdeg(b) + 1


@pytest.mark.parametrize("model", MODELS)
def test_delta_matches_direct_differentiation(model):
    for trial in range(60):
        b = _rand_loop(model, "oracle", trial, terms=3)
        assert bv_delta(b) == oracle.delta(b)


@pytest.mark.parametrize("model", MODELS)
def test_delta_squares_to_zero(model):
    for trial in range(60):
        b = _rand_loop(model, "dd", trial, terms=3)
        assert bv_delta(bv_delta(b)).is_zero()


def test_delta_vanishes_on_constant_classes():
    for model in MODELS:
        assert bv_delta(Element.unit(model, Ring.LOOP)).is_zero()
        for trial in range(20):
            rng = random.Random("const|%s|%d" % (model.name, trial))
            x = random_element(model, Ring.LOOP, (-model.dimension, 0), 2, rng, even_cap=0)
            assert bv_delta(s_star(x)).is_zero()


# -- bracket -------------------------------------------------------------------


def test_bracket_examples():
    a1, u1 = a(S3, 1), u(S3, 1)
    assert loop_bracket(a1, u1) == -Element.unit(S3, Ring.LOOP)
    assert loop_bracket(a1, a1).is_zero()
    for k in (1, 2, 4):
        assert loop_bracket(a1, u1 ** k) == -k * u1 ** (k - 1)


def test_bracket_with_a_shared_odd_generator():
    # a1 in both arguments: only the i = 1 terms survive, and a1 stays in the result
    a1, a2, u1 = a(SU3, 1), a(SU3, 2), u(SU3, 1)
    assert loop_bracket(a1 * u1, a1 * a2) == a1 * a2
    assert loop_bracket(a1 * a2, a1 * u1) == -(a1 * a2)
    # two shared odd generators leave nothing
    assert loop_bracket(a1 * a2 * u1, a1 * a2 * u1).is_zero()


def test_bracket_of_generators_matches_partial_derivative_oracle():
    for model in MODELS:
        for i in range(1, model.rank + 1):
            for trial in range(25):
                b = _rand_loop(model, "gen|%d" % i, trial, terms=3)
                assert loop_bracket(a(model, i), b) == -oracle.partial_even(b, i)


def test_bracket_degree_and_bilinearity():
    for trial in range(25):
        b = _rand_loop(SU3, "deg1", trial)
        c = _rand_loop(SU3, "deg2", trial)
        br = loop_bracket(b, c)
        if not br.is_zero():
            assert br.degree() == _hdeg(b) + _hdeg(c) + 1
        # bilinear over inhomogeneous sums
        e = _rand_loop(SU3, "deg3", trial)
        assert loop_bracket(b + e, c) == loop_bracket(b, c) + loop_bracket(e, c)
        assert loop_bracket(c, b + e) == loop_bracket(c, b) + loop_bracket(c, e)


def test_bracket_poisson_induction_cross_check():
    # {a1, u1^k} should satisfy the inductive Poisson step
    # {a1, u1^k} = {a1, u1} u1^{k-1} + u1 {a1, u1^{k-1}}  (all signs even here)
    a1, u1 = a(S3, 1), u(S3, 1)
    for k in range(2, 7):
        direct = loop_bracket(a1, u1 ** k)
        induct = loop_bracket(a1, u1) * u1 ** (k - 1) + u1 * loop_bracket(a1, u1 ** (k - 1))
        assert direct == induct


def test_bv_identity_defines_bracket():
    for model in MODELS:
        for trial in range(40):
            b = _rand_loop(model, "bv1", trial)
            c = _rand_loop(model, "bv2", trial)
            s = sign_pow(_hdeg(b))
            lhs = bv_delta(b * c)
            rhs = bv_delta(b) * c + (b * bv_delta(c)).scale(s) + loop_bracket(b, c).scale(s)
            assert lhs == rhs


@pytest.mark.parametrize("name", ["s3", "s5", "su3", "exterior:3,5,7", "su7"])
def test_closed_form_bracket_matches_bv_identity_bracket(name):
    model = resolve_model(name)
    reference = oracle.bracket
    parities = set()
    for trial in range(30):
        # sums of draws from different windows mix degrees and parities
        b = _rand_loop(model, "mix1", trial) + _rand_loop(model, "mix2", trial)
        c = _rand_loop(model, "mix3", trial) + _rand_loop(model, "mix4", trial)
        parities.update({len(m.odds) % 2 for m in b.terms})
        assert loop_bracket(b, c) == reference(b, c)
        assert loop_bracket(c, b) == reference(c, b)
    assert parities == {0, 1}


# -- constant-loop classes -------------------------------------------------------


def test_s_star_examples():
    assert s_star(Element.unit(SU3, Ring.LOOP)) == Element.unit(SU3, Ring.LOOP)
    both = a(SU3, 1) * a(SU3, 2)
    assert s_star(both) == both
    assert s_star(a(SU3, 2)) == a(SU3, 2)
    with pytest.raises(AlgebraError, match="exterior"):
        s_star(u(SU3, 1))
