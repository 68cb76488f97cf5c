"""Seeded exact-equality verification of the BV identity catalog.

Every identity the engine claims is kept in one catalog, keyed by a stable
id, and checked on random homogeneous draws with exact rational equality.
Runs are deterministic: the report of identity I under seed S draws from
one generator, ``random.Random("S|I")`` (`report_rng`), and trial t takes
the t-th draws of that stream, so a report can always be replayed bit for
bit from (model, seed, identity): `replay` reruns it from trial 0, and a
witness records its trial.  A row that draws nothing is evaluated once per
report, as every trial would check the same classes; its report still
records the trials asked for.  A report of a model that is not the
built-in of its name also stores the model's degrees, so it replays from
the report alone.

An argument is drawn by kind.  `_KINDS` gives each one-class kind its ring,
even cap and default window, d the model dimension: `loop` is loop homology
at cap 6 in (-d-2, 2d), `exterior` loop homology at cap 0 in (-d, 0), `base`
cohomology at cap 0 in (0, d), `coh` cohomology at cap 6 in (0, 2d).  Each
draws in its `ArgSpec`'s window if given; `ext` (base and/or loop classes of
one degree) and `intersect-config` (an `IntersectConfig`) refuse one.
`run_suite` resolves each spec of a row into a draw plan (`_plan`) and binds
the row's check to the bundle and model (``partial(case.evaluate, ops,
model)``) once per report, so a trial makes only its generator calls,
monomial lookups and the check; the minimiser calls the same bound check.

A row's law is its check labels, the text its report prints: `_Compiler`
compiles the trees `expr.parse_label` reads from them once, in one of three
views whose names are `_VIEWS`.  Five rows keep a Python `evaluate(ops,
model, args)`, each for the reason its catalog comment gives; the two
operator commutators run `_leibniz`, which states the Leibniz rule once.

A registry of deliberately broken primitive bundles ("mutations": one sign
flipped, one term dropped or added, or the factors swapped without their
Koszul sign, in Delta, the bracket, the product, the cap, or the cohomology
Delta; each is `STANDARD_OPS` plus the fields its row of `MUTATION_BREAKS`
names) exists so tests can confirm the suite actually detects broken algebra
rather than passing vacuously.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache, partial
from operator import mul
from typing import Callable, NamedTuple

from .kernel import (
    AlgebraError,
    BasisIndex,
    Element,
    ModelSpec,
    Ring,
    _COH,
    _LOOP,
    _unpack,
    basis_index,
    check_count,
    check_index_size,
    sign_pow,
)
from .loop import bv_delta, loop_bracket, s_star
from .loop import a as loop_a
from .loop import u as loop_u
from .cohomology import (
    alpha,
    coh_delta,
    poincare_dual,
    poincare_dual_inverse,
    v,
)
from .models import builtin_named, resolve_model
from .expr import BinOp, Call, ClassList, ExpressionError, Name, Neg, Num, Sign, _err, parse_label
from .extended import (
    BVOps,
    STANDARD_OPS,
    ExtendedClass,
    cap,
    extended_bracket,
    extended_delta,
    extended_product,
    loop_intersection,
    nested_brackets,
)

CATALOG_VERSION = "3"

# windows default to (-d-2, 2d) with this per-argument even-exponent cap:
# small enough for sub-second trials, large enough to hit all sign branches
SUITE_EVEN_CAP = 6


@dataclass(frozen=True)
class ArgSpec:
    """How to draw one random argument: a draw kind, term bound, degree window."""

    kind: str
    max_terms: int = 2
    window: tuple[int, int] | None = None


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    statement: str
    args: tuple[ArgSpec, ...]
    evaluate: Callable  # (ops, model, args) -> list of (label, lhs, rhs)


@dataclass
class CheckReport:
    identity: str
    model: str
    trials: int
    seed: object
    status: str  # "pass" or "fail"
    ops: str = "standard"
    catalog: str = CATALOG_VERSION
    witness: dict | None = None
    generator_degrees: list | None = None  # set only when the model is not the built-in of its name

    def failed(self) -> bool:
        return self.status != "pass"

    def to_json(self) -> str:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("witness", "generator_degrees"):
            if data[name] is None:
                del data[name]
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CheckReport":
        """Read `to_json` output: a missing field without a default is refused,
        a missing one with a default takes it, unknown keys are ignored."""
        try:
            data = json.loads(line)
        except ValueError as exc:  # bad JSON, or a number past the digit limit
            raise AlgebraError("check report JSON is unreadable: %s" % exc) from exc
        if not isinstance(data, dict):
            raise AlgebraError("check report JSON must be an object, got %r" % (data,))
        for f in fields(cls):
            if f.default is MISSING and f.name not in data:
                raise AlgebraError("check report: missing field %r" % f.name)
        report = cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
        is_str = lambda value: isinstance(value, str)
        for name, valid, what in (
            ("identity", is_str, "a string"), ("model", is_str, "a string"), ("ops", is_str, "a string"),
            ("trials", lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer"),
            ("catalog", is_str, "a string"),  # `seed` may be any JSON value: `run_suite` formats it with %s
            ("status", lambda value: value in ("pass", "fail"), '"pass" or "fail"'),
            ("witness", lambda value: value is None or isinstance(value, dict), "an object or null"),
            ("generator_degrees", lambda value: value is None or isinstance(value, list), "a list or null"),
        ):
            if not valid(getattr(report, name)):
                raise AlgebraError("check report: %r must be %s, got %r" % (name, what, getattr(report, name)))
        return report


def reports_to_jsonl(reports) -> str:
    return "\n".join(report.to_json() for report in reports)


# ---------------------------------------------------------------------------
# random draws


def _hdeg(x) -> int:
    """Degree as an int for sign purposes; zero elements count as degree 0."""
    deg = x.degree()
    return deg if isinstance(deg, int) else 0


#: one-class draw kind -> (ring, even-exponent cap, default window from the dimension d)
_KINDS = {
    "loop": (Ring.LOOP, SUITE_EVEN_CAP, lambda d: (-d - 2, 2 * d)),
    "exterior": (Ring.LOOP, 0, lambda d: (-d, 0)),  # constant-loop classes
    "base": (Ring.COH, 0, lambda d: (0, d)),  # cohomology with no v factors
    "coh": (Ring.COH, SUITE_EVEN_CAP, lambda d: (0, 2 * d)),
}


@lru_cache(maxsize=None)
def _class_plan(kind: str, model: ModelSpec, window=None) -> Callable[[int, random.Random], Element]:
    """The draw of a one-class `kind`, in `window`, else in the kind's default
    window, as `draw(max_terms, rng)`; one per (kind, model, window)."""
    ring, even_cap, default = _KINDS[kind]
    index = basis_index(model, ring, even_cap)
    return partial(index.draw, index.degrees_in(*(window or default(model.dimension))))


@lru_cache(maxsize=None)
def _ext_plan(model: ModelSpec) -> tuple[BasisIndex, BasisIndex, tuple[int, ...]]:
    """Where an `ext` draw lands: the base and loop indexes, and the candidate
    degrees n, where a base class of degree -n or a loop class of degree n is populated."""
    lo, hi = _KINDS["loop"][2](model.dimension)
    base, loop = (basis_index(model, *_KINDS[kind][:2]) for kind in ("base", "loop"))
    return base, loop, tuple(sorted({*loop.degrees_in(lo, hi), *(-k for k in base.degrees_in(-hi, -lo))}))


def _draw_extended(base: BasisIndex, loop: BasisIndex, candidates, max_terms: int, rng: random.Random) -> ExtendedClass:
    n = rng.choice(candidates)
    want_coh = base.count(-n) > 0 and rng.random() < 0.6
    want_loop = loop.count(n) > 0 and (rng.random() < 0.8 or not want_coh)
    # a draw in no degree is zero; a pair with neither part takes a loop class of degree 0
    coh = base.draw((-n,) if want_coh else (), max_terms, rng)
    b = loop.draw((n,) if want_loop else () if want_coh else (0,), max_terms, rng)
    return ExtendedClass._of(coh, b)  # a base draw and a loop draw, both over one model


class IntersectConfig(NamedTuple):
    """An `intersect-config` draw: the arguments of `loop_intersection`."""

    ats: list
    frees: list
    family: Element

    def __str__(self) -> str:
        ats, frees = ("; ".join(map(str, part)) for part in (self.ats, self.frees))
        return "at=[%s] free=[%s] family=%s" % (ats, frees, self.family)


def _draw_intersect_config(base: Callable, loop: Callable, rng: random.Random) -> IntersectConfig:
    at_count, free_count = rng.randint(0, 3), rng.randint(0, 3)
    return IntersectConfig(
        [base(1, rng) for _ in range(at_count)],
        [base(2, rng) for _ in range(free_count)],
        loop(2, rng),
    )


def _plan(spec: ArgSpec, model: ModelSpec) -> Callable[[random.Random], object]:
    """Resolve `spec` on `model` once: the returned function draws one argument
    from a generator, making only its generator calls and the monomial lookups.
    Every kind checks `max_terms`; an `intersect-config` draw takes its classes'
    term bounds from its own plan."""
    if spec.kind not in _KINDS:
        if spec.kind not in ("ext", "intersect-config"):
            raise AlgebraError("unknown draw kind %r" % spec.kind)
        if spec.window is not None:
            raise AlgebraError("%r draws take no window: each of their classes has its own" % spec.kind)
    check_count("max_terms", spec.max_terms)
    if spec.kind == "intersect-config":
        return partial(_draw_intersect_config, _class_plan("base", model), _class_plan("loop", model))
    if spec.kind == "ext":
        return partial(_draw_extended, *_ext_plan(model), spec.max_terms)
    return partial(_class_plan(spec.kind, model, spec.window), spec.max_terms)


# ---------------------------------------------------------------------------
# the laws, compiled from the labels that state them

#: Each view's names: the operators `*`, `.`, `cup`, `cap`, the bracket `{}` and the functions a label
#: calls.  A law's source names only ``ops.<slot>``, ``model``, its arguments and this module's names.
_VIEWS = {
    "loop": {
        "*": STANDARD_OPS.product, "{}": STANDARD_OPS.bracket, "Delta": STANDARD_OPS.delta,
        "cup": mul, "cap": STANDARD_OPS.cap, "coh_delta": STANDARD_OPS.coh_delta,
        "s": s_star, "s_star": s_star, "D": poincare_dual, "Dinv": poincare_dual_inverse,
    },
    "coh": {"cup": mul, "cap": STANDARD_OPS.cap, "coh_delta": STANDARD_OPS.coh_delta},
    "ext": {
        "*": extended_product, ".": extended_product, "cup": extended_product,
        "{}": extended_bracket, "D": extended_delta,
        "cap": STANDARD_OPS.cap, "coh_delta": STANDARD_OPS.coh_delta, "Dinv": poincare_dual_inverse,
    },
}
#: each view's 0 and 1, as a law's source writes them
_CONSTANTS = {
    "loop": ("Element.zero(model, _LOOP)", "Element.unit(model, _LOOP)"),
    "coh": ("Element.zero(model, _COH)", "Element.unit(model, _COH)"),
    "ext": ("ExtendedClass.zero(model)", "ExtendedClass.unit(model)"),
}
#: the operations that take lifted operands and the bundle; every other name takes classes as they are
_EXTENDED = (extended_product, extended_bracket, extended_delta)


def _ext_lift(x) -> ExtendedClass:
    """A base class x as (x, 0), a loop class b as (0, b).

    Only draws and the classes operators return are lifted: no check needed."""
    if x.ring is _LOOP:
        return ExtendedClass._of(Element.zero(x.model, _COH), x)
    return ExtendedClass._of(x, Element.zero(x.model, _LOOP))


#: How a law's source names a function: a `STANDARD_OPS` slot as the bundle's, and a
#: function of this module by its name here, which the law looks up when it runs.
_SOURCE_NAMES = {
    **{fn: name for name, fn in globals().items() if callable(fn)},
    **{getattr(STANDARD_OPS, f.name): "ops." + f.name for f in fields(BVOps) if f.name != "name"},
}


class _Compiler:
    """One row's check labels, read in one view, compiled into the source of its law,
    ``law(ops, model, a0, a1, ...)``, which computes each distinct subterm once.

    A pass over the trees of `expr.parse_label`, whose docstring states the grammar.  ``...`` is
    the previous check's right side, ``0`` and ``1`` the view's (`_CONSTANTS`), a pair ``(x,0)``
    or ``(0,x)`` (ext view only) x lifted, ``D<arg>`` ``coh_delta(<arg>)`` and ``|x|`` the degree
    of the drawn class x; arguments are named in order of first use.  The source calls only the
    view's names (`_VIEWS`).  In the ext view the extended operations lift their operands, and
    both sides of a check are lifted before they are compared.  A label outside the grammar or
    its view is an `AlgebraError` that names it and the position.
    """

    def __init__(self, view: str, specs: tuple[ArgSpec, ...], labels: tuple[str, ...]):
        self.view, self.specs = view, specs
        self.names, self.lines, self.locals = [], [], {}
        checks, rhs = [], None
        for label in labels:
            try:
                tree = parse_label(label)
                if not (isinstance(tree, BinOp) and tree.op == "="):
                    raise _err(tree, "expected a check, lhs = rhs")
                lhs = rhs if rhs is not None and tree.left == Name("...") else self.value(tree.left)
                rhs = self.value(tree.right)
            except ExpressionError as exc:
                raise AlgebraError("label %r: %s" % (label, exc)) from None
            sides = [self.lifted(*side) if self.view == "ext" else side[0] for side in (lhs, rhs)]
            checks.append("(%r, %s, %s)" % (label, *sides))
        if len(self.names) != len(specs):
            raise AlgebraError("labels %s name %d arguments, and the row draws %d"
                               % (", ".join(map(repr, labels)), len(self.names), len(specs)))
        self.source = "def law(ops, model, %s):\n%s    return [%s]\n" % (
            ", ".join("a%d" % i for i in range(len(specs))), "".join(self.lines), ", ".join(checks))

    def local(self, code: str) -> str:
        """The name of a local that holds `code`'s value, assigned once per law."""
        if code not in self.locals:
            self.locals[code] = "t%d" % len(self.locals)
            self.lines.append("    %s = %s\n" % (self.locals[code], code))
        return self.locals[code]

    def lifted(self, code: str, ext: bool) -> str:
        return code if ext else self.local("_ext_lift(%s)" % code)

    def apply(self, node, name: str, *operands):
        fn = _VIEWS[self.view].get(name)
        if fn is None:
            raise _err(node, "%r is not a name of the %s view" % (name, self.view))
        args = [self.lifted(*x) for x in operands] + ["ops=ops"] if fn in _EXTENDED else [x[0] for x in operands]
        return self.local("%s(%s)" % (_SOURCE_NAMES[fn], ", ".join(args))), fn in _EXTENDED

    def argument(self, node, name: str):
        if not name.isidentifier():
            raise _err(node, "expected a class, found %r" % name)
        if name not in self.names:
            if len(self.names) == len(self.specs):
                raise _err(node, "names more arguments than the row draws (%d)" % len(self.specs))
            self.names.append(name)
        index = self.names.index(name)
        return "a%d" % index, self.specs[index].kind == "ext"

    def value(self, node):
        """The source of `node`'s value, and whether it is an extended class."""
        kind = type(node)
        if kind is BinOp and node.op in ("+", "-"):
            (left, left_ext), (right, right_ext) = self.value(node.left), self.value(node.right)
            if left_ext != right_ext:
                left, right = self.lifted(left, left_ext), self.lifted(right, right_ext)
            return self.local("%s %s %s" % (left, node.op, right)), left_ext or right_ext
        if kind is BinOp:
            return self.apply(node, node.op, self.value(node.left), self.value(node.right))
        if kind is Call:
            return self.apply(node, node.func, *map(self.value, node.args))
        if kind is Neg or kind is Sign:
            negative, exponents = False, []
            while type(node) is Neg or type(node) is Sign:
                if type(node) is Sign:
                    exponents.append(self.degree(node.exponent, 0))
                negative ^= type(node) is Neg
                node = node.operand
            code, ext = self.value(node)
            if exponents:
                return self.local("%s.scale(%ssign_pow(%s))" % (code, "-" * negative, " + ".join(exponents))), ext
            return (self.local("-" + code) if negative else code), ext
        if kind is ClassList:  # (0,x) or (x,0): x lifted
            if self.view != "ext" or len(node.items) != 2 or Num(0) not in node.items:
                raise _err(node, "expected a class, found a tuple: only the ext view reads one, as (x,0) or (0,x)")
            return self.lifted(*self.value(node.items[node.items[0] == Num(0)])), True
        if kind is Num:
            if node.value not in (0, 1):
                raise _err(node, "expected a class, found %r" % str(node.value))
            return self.local(_CONSTANTS[self.view][node.value == 1]), self.view == "ext"
        if node.text in _VIEWS[self.view]:
            raise _err(node, "%r is not a class" % node.text)
        if node.text[:1] == "D" and len(node.text) > 1:
            return self.apply(node, "coh_delta", self.argument(node, node.text[1:]))
        return self.argument(node, node.text)

    def degree(self, node, context: int) -> str:
        """The source of the degree `node`, in parentheses when it binds looser than `context`."""
        if type(node) is Name:
            return self.local("_hdeg(%s)" % self.argument(node, node.text)[0])
        if type(node) is Num:
            if node.value.denominator != 1:
                raise _err(node, "expected a degree, found %r" % str(node.value))
            return str(node.value)
        power = 2 if node.op == "*" else 1
        text = "%s %s %s" % (self.degree(node.left, power), node.op, self.degree(node.right, power + 1))
        return text if power >= context else "(%s)" % text


def _law(view: str, specs: tuple[ArgSpec, ...], *labels: str) -> Callable:
    """The `evaluate` of a row whose `labels`, read in `view`, state its checks: compiled when
    the catalog is built, and exec'd on its first call, which `table` and `eval` never make."""
    source = _Compiler(view, specs, labels).source
    law = None

    def evaluate(ops, model, args):
        nonlocal law
        if law is None:
            namespace = {}
            exec(source, globals(), namespace)
            law = namespace["law"]
        return law(ops, model, *args)

    return evaluate


def _leibniz(d, k, op, shift, y, z):
    """The Leibniz rule of `d`, of degree `k`, over `op`, whose operands count with
    degree shifted by `shift`: the terms (d(op(y,z)), op(d(y),z), (-1)^{k(|y|+shift)} op(y,d(z)))."""
    return d(op(y, z)), op(d(y), z), op(y, d(z)).scale(sign_pow(k * (_hdeg(y) + shift)))


def _commutator(over: str, label: str) -> Callable:
    """`[D_b, op_c] = op_{{b,c}}` on e, for the bundle's `over` ("product" or "bracket"):
    the Leibniz rule of {b,-}, of degree |b|+1, with its right-hand term moved across."""

    def evaluate(ops, model, args):
        b, c, e = args
        whole, left, right = _leibniz(
            partial(ops.bracket, b), _hdeg(b) + 1, getattr(ops, over), int(over == "bracket"), c, e
        )
        return [(label, whole - right, left)]

    return evaluate


def _cap_expansion(ops, model, args):
    """The cap against eq. 5.2's nested brackets, in canonical then reversed factor order."""
    w, b = args
    capped = ops.cap(w, b)
    return [
        ("cap(w,b) = iterated single caps, " + order, capped, nested_brackets(w, b, ops.product, ops.bracket, forward))
        for order, forward in (("canonical order", False), ("reversed order with Koszul sign", True))
    ]


def _intersection_formula(ops, model, args):
    """`loop_intersection` against an independent assembly: sign and monomial
    recomputed here, the cup product folded right to left."""
    ats, frees, family = args[0]
    lhs = loop_intersection(ats, frees, family, ops=ops)
    sign_exp = -len(frees)
    pieces = list(ats)
    for j, w in enumerate(frees, start=1):
        sign_exp += j * _hdeg(w)
        pieces.append(ops.coh_delta(w))
    omega = Element.unit(model, _COH)
    for piece in reversed(pieces):
        omega = piece * omega
    rhs = ops.cap(omega, family).scale(sign_pow(sign_exp))
    return [("intersection family = sign * cap(assembled class, family)", lhs, rhs)]


# ---------------------------------------------------------------------------
# the catalog


def _ev_model_structure(ops, model, args):
    checks = []
    r = model.rank
    lz = Element.zero(model, _LOOP)
    cz = Element.zero(model, _COH)
    lu = Element.unit(model, _LOOP)
    for i in range(1, r + 1):
        ai, ui = loop_a(model, i), loop_u(model, i)
        ali, vi = alpha(model, i), v(model, i)
        checks.append(("coh_delta(alpha%d) = v%d" % (i, i), ops.coh_delta(ali), vi))
        checks.append(("Delta(a%d*u%d) = 1" % (i, i), ops.delta(ops.product(ai, ui)), lu))
        checks.append(("a%d^2 = 0" % i, ops.product(ai, ai), lz))
        checks.append(("alpha%d^2 = 0" % i, ali * ali, cz))
        checks.append(("Delta(a%d) = 0" % i, ops.delta(ai), lz))
        checks.append(("Delta(u%d) = 0" % i, ops.delta(ui), lz))
        checks.append(("coh_delta(v%d) = 0" % i, ops.coh_delta(vi), cz))
        for j in range(1, r + 1):
            if j != i:
                checks.append(
                    ("Delta(a%d*u%d) = 0" % (i, j), ops.delta(ops.product(ai, loop_u(model, j))), lz)
                )
        for j in range(i + 1, r + 1):
            aj, uj, vj = loop_a(model, j), loop_u(model, j), v(model, j)
            checks.append(("u%du%d = u%du%d" % (i, j, j, i), ops.product(ui, uj), ops.product(uj, ui)))
            checks.append(("v%dv%d = v%dv%d" % (i, j, j, i), vi * vj, vj * vi))
            checks.append(("a%da%d = -a%da%d" % (i, j, j, i), ops.product(ai, aj), -ops.product(aj, ai)))
    return checks


def _row(ident: str, statement: str, view: str, kinds: str, *labels: str) -> IdentityCase:
    """A catalog row that draws one argument of each of `kinds` and checks its `labels`, read in `view`."""
    args = tuple(map(ArgSpec, kinds.split()))
    return IdentityCase(ident, statement, args, _law(view, args, *labels))


def _build_catalog() -> dict[str, IdentityCase]:
    entries = [
        # own evaluate: draws nothing, and labels each generator's checks
        IdentityCase(
            "model-structure",
            "generator relations: odd squares vanish, evens commute, Delta(a_i u_j) = delta_ij, coh_delta(alpha_i) = v_i",
            (),
            _ev_model_structure,
        ),
        _row("loop-commutativity", "b*c = (-1)^{|b||c|} c*b", "loop", "loop loop", "b*c = (-1)^{|b||c|} c*b"),
        _row("loop-associativity", "(b*c)*e = b*(c*e)", "loop", "loop loop loop", "(b*c)*e = b*(c*e)"),
        _row("loop-unit", "s_star[M] is a two-sided unit", "loop", "loop", "1*b = b", "b*1 = b"),
        _row("bracket-antisymmetry", "{b,c} = -(-1)^{(|b|+1)(|c|+1)} {c,b}", "loop", "loop loop",
             "{b,c} = -(-1)^{(|b|+1)(|c|+1)} {c,b}"),
        _row("bv-identity", "Delta(b*c) = Delta(b)*c + (-1)^{|b|} b*Delta(c) + (-1)^{|b|} {b,c}", "loop", "loop loop",
             "Delta(b*c) = Delta(b)*c + (-1)^{|b|}(b*Delta(c) + {b,c})"),
        _row("poisson-identity", "{b,c*e} = {b,c}*e + (-1)^{|c|(|b|+1)} c*{b,e}", "loop", "loop loop loop",
             "{b,c*e} = {b,c}*e + (-1)^{|c|(|b|+1)} c*{b,e}"),
        _row("jacobi-identity", "{b,{c,e}} = {{b,c},e} + (-1)^{(|b|+1)(|c|+1)} {c,{b,e}}", "loop", "loop loop loop",
             "{b,{c,e}} = {{b,c},e} + (-1)^{(|b|+1)(|c|+1)} {c,{b,e}}"),
        _row("delta-squared-zero", "Delta o Delta = 0", "loop", "loop", "Delta(Delta(b)) = 0"),
        _row("delta-constant-loops", "Delta vanishes on constant-loop classes and on the unit", "loop", "exterior",
             "Delta(s_star(x)) = 0", "Delta(1) = 0"),
        # own evaluate: "... on e" states an operator identity, not a formula
        IdentityCase("operator-commutator-product", "[D_b, M_c] = M_{{b,c}} as graded operator commutators",
                     (ArgSpec("loop"),) * 3, _commutator("product", "[D_b, M_c] = M_{{b,c}} on e")),
        # own evaluate: as the row above
        IdentityCase("operator-commutator-bracket", "[D_b, D_c] = D_{{b,c}} as graded operator commutators",
                     (ArgSpec("loop"),) * 3, _commutator("bracket", "[D_b, D_c] = D_{{b,c}} on e")),
        _row("s-star-ring-map", "s_star is a unital ring map from the intersection ring", "loop", "exterior exterior",
             "s(x)*s(y) = s(x*y)", "s(1) = 1"),
        _row("dual-multiplicative", "D(x*y) = D(x) cup D(y) and Dinv o D = id on the exterior subring", "loop",
             "exterior exterior", "D(x*y) = D(x) cup D(y)", "Dinv(D(x)) = x"),
        _row("eq-1.1-base-cap-commutes",
             "alpha cap (x*y) = (alpha cap x)*y = (-1)^{|alpha||x|} x*(alpha cap y) on constant classes", "loop",
             "base exterior exterior",
             "alpha cap (x*y) = (alpha cap x)*y", "alpha cap (x*y) = (-1)^{|alpha||x|} x*(alpha cap y)"),
        _row("eq-4.4-coh-delta-derivation", "coh_delta is an odd derivation for the cup product", "coh", "coh coh",
             "coh_delta(x cup y) = coh_delta(x) cup y + (-1)^{|x|} x cup coh_delta(y)"),
        _row("coh-delta-squared-zero", "coh_delta o coh_delta = 0", "coh", "coh", "coh_delta(coh_delta(x)) = 0"),
        _row("eq-4.6-cap-commutes-product", "cap with a base class graded-commutes with the loop product", "loop",
             "base loop loop",
             "alpha cap (b*c) = (alpha cap b)*c", "alpha cap (b*c) = (-1)^{|alpha||b|} b*(alpha cap c)"),
        _row("eq-4.7-cap-derivation", "cap with coh_delta(alpha) is a derivation of the loop product", "loop",
             "base loop loop", "Dalpha cap (b*c) = (Dalpha cap b)*c + (-1)^{(|alpha|-1)|b|} b*(Dalpha cap c)"),
        _row("eq-4.10-cap-bracket-derivation", "cap with coh_delta(alpha) is a derivation of the loop bracket", "loop",
             "base loop loop", "Dalpha cap {b,c} = {Dalpha cap b,c} + (-1)^{(|alpha|-1)(|b|+1)} {b,Dalpha cap c}"),
        _row("eq-4.24-delta-cap-derivation",
             "Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b), any ring class w", "loop", "coh loop",
             "Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b)"),
        _row("cap-on-constants-trivial", "cap of coh_delta(alpha) with constant-loop classes vanishes", "loop",
             "base exterior", "Dalpha cap s_star(x) = 0"),
        _row("cap-module-axiom", "(w1 cup w2) cap b = w1 cap (w2 cap b) and 1 cap b = b", "coh", "coh coh loop",
             "(w1 cup w2) cap b = w1 cap (w2 cap b)", "1 cap b = b"),
        _row("eq-5.1-cap-is-intersection",
             "alpha cap b = Dinv(alpha)*b and (-1)^{|alpha|} coh_delta(alpha) cap b = {Dinv(alpha),b}", "loop",
             "base loop", "alpha cap b = Dinv(alpha)*b", "(-1)^{|alpha|} Dalpha cap b = {Dinv(alpha),b}"),
        # own evaluate: its labels are prose, and it runs the eq. 5.2 expansion itself
        IdentityCase("eq-5.2-nested-brackets",
                     "cap with a monomial equals the signed nested-bracket expansion, any factor order",
                     (ArgSpec("coh", max_terms=1), ArgSpec("loop")), _cap_expansion),
        _row("intertwiner-duality",
             "extended product/bracket against (0,b) realise Dinv: {(alpha,0),(0,b)} = (0,{Dinv(alpha),b})", "ext",
             "base loop", "{(alpha,0),(0,b)} = (0,{Dinv(alpha),b})", "(alpha,0)*(0,b) = (0,Dinv(alpha)*b)"),
        _row("mixed-product-conventions", "mixed product/bracket conventions between base cohomology and loop classes",
             "ext", "base loop base",
             "alpha.b = alpha cap b", "{alpha,b} = (-1)^{|alpha|} Dalpha cap b", "b.alpha = (-1)^{|alpha||b|} alpha.b",
             "{b,alpha} = -(-1)^{(|alpha|+1)(|b|+1)} {alpha,b}", "{alpha,beta} = 0"),
        _row("eq-4.11-poisson-extended", "extended Poisson: cohomology, cohomology, loop", "ext", "base base loop",
             "{alpha,beta.c} = {alpha,beta}.c + (-1)^{|beta|(|alpha|+1)} beta.{alpha,c}"),
        _row("eq-4.12-poisson-extended", "extended Poisson for a cup product in the first slot", "ext",
             "base base loop",
             "{alpha cup beta,c} = alpha.{beta,c} + (-1)^{|alpha||beta|} beta.{alpha,c}"),
        _row("eq-4.13-poisson-extended", "extended Poisson: cohomology, loop, loop", "ext", "base loop loop",
             "{alpha,b*c} = {alpha,b}*c + (-1)^{|b|(|alpha|+1)} b*{alpha,c}"),
        _row("eq-4.14-poisson-extended", "extended Poisson for a mixed product in the first slot", "ext",
             "base loop loop",
             "{alpha.b,c} = alpha.{b,c} + (-1)^{|alpha||b|} b.{alpha,c}"),
        _row("eq-4.15-jacobi-extended", "extended Jacobi: cohomology, cohomology, loop", "ext", "base base loop",
             "{alpha,{beta,c}} = {{alpha,beta},c} + (-1)^{(|alpha|+1)(|beta|+1)} {beta,{alpha,c}}"),
        _row("eq-4.16-jacobi-extended", "extended Jacobi: cohomology, loop, loop", "ext", "base loop loop",
             "{alpha,{b,c}} = {{alpha,b},c} + (-1)^{(|alpha|+1)(|b|+1)} {b,{alpha,c}}"),
        _row("ext-commutativity", "extended product graded commutativity", "ext", "ext ext", "x.y = (-1)^{|x||y|} y.x"),
        _row("ext-associativity", "extended product associativity", "ext", "ext ext ext", "(x.y).z = x.(y.z)"),
        _row("ext-unit", "(1,0) is the extended unit", "ext", "ext", "(1,0).x = x", "x.(1,0) = x"),
        _row("ext-bv-identity", "extended BV identity", "ext", "ext ext",
             "D(x.y) = D(x).y + (-1)^{|x|}(x.D(y) + {x,y})"),
        _row("ext-poisson", "extended Poisson identity on general classes", "ext", "ext ext ext",
             "{x,y.z} = {x,y}.z + (-1)^{|y|(|x|+1)} y.{x,z}"),
        _row("ext-jacobi", "extended Jacobi identity on general classes", "ext", "ext ext ext",
             "{x,{y,z}} = {{x,y},z} + (-1)^{(|x|+1)(|y|+1)} {y,{x,z}}"),
        _row("ext-bracket-antisymmetry", "extended bracket antisymmetry", "ext", "ext ext",
             "{x,y} = -(-1)^{(|x|+1)(|y|+1)} {y,x}"),
        _row("ext-delta-squared-zero", "extended BV operator squares to zero", "ext", "ext", "D(D(x)) = 0"),
        _row("eq-4.19-curious-identity", "three-way symmetric bracket/product identity in extended arithmetic", "ext",
             "base loop loop",
             "{alpha,b.c} + (-1)^{|b|}alpha.{b,c} = {alpha,b}.c + (-1)^{|b|}{alpha.b,c}",
             "... = (-1)^{(|alpha|+1)|b|}(b.{alpha,c} + (-1)^{|alpha|}{b,alpha.c})"),
        # own evaluate: its one argument is a whole `IntersectConfig`
        IdentityCase("loop-intersection-formula", "loop_intersection equals its signed cap-product formula",
                     (ArgSpec("intersect-config"),), _intersection_formula),
    ]
    catalog = {}
    for case in entries:
        if case.identity_id in catalog:
            raise AlgebraError("duplicate identity id %r" % case.identity_id)
        catalog[case.identity_id] = case
    return catalog


CATALOG: dict[str, IdentityCase] = _build_catalog()


# ---------------------------------------------------------------------------
# mutated primitive bundles


#: Each mutation bundle is `STANDARD_OPS` with the `BVOps` fields of its row
#: replaced: one sign flipped, one term dropped or added, or the factors
#: swapped without their Koszul sign.  The Delta rows write the partials as
#: brackets: {u_i, -} = d/da_i and {a_i, -} = -d/du_i.
MUTATION_BREAKS: dict[str, dict[str, Callable]] = {
    "delta-sign-flip": {"delta": lambda b: -bv_delta(b)},
    # drops the contribution of the last generator pair, d/du_r d/da_r
    "delta-drop-term": {
        "delta": lambda b: bv_delta(b)
        + loop_bracket(loop_a(b.model, b.model.rank), loop_bracket(loop_u(b.model, b.model.rank), b))
    },
    "delta-extra-term": {"delta": lambda b: bv_delta(b) - loop_bracket(loop_a(b.model, 1), b)},
    "bracket-sign-flip": {"bracket": lambda b, c: -loop_bracket(b, c)},
    # the BV-identity bracket without its -b*Delta(c) term
    "bracket-drop-term": {"bracket": lambda b, c: loop_bracket(b, c) + b * bv_delta(c)},
    # the bracket measures how far Delta is from a derivation, and d/da_1 is an
    # odd derivation: this Delta induces the standard bracket, and through it
    # (eq. 5.2) the standard cap, so only `delta` is broken
    "delta-exterior-term": {"delta": lambda b: bv_delta(b) + loop_bracket(loop_u(b.model, 1), b)},
    "cap-sign-flip": {"cap": lambda w, b: -cap(w, b)},
    "product-sign-flip": {"product": lambda b, c: -(b * c)},
    "product-swap-unsigned": {"product": lambda b, c: c * b},
    "coh-delta-sign-flip": {"coh_delta": lambda w: -coh_delta(w)},
    "coh-delta-extra-term": {"coh_delta": lambda w: coh_delta(w) + alpha(w.model, 1) * w},
}


def mutations() -> dict[str, BVOps]:
    """Named broken primitive bundles, each `STANDARD_OPS` plus one break."""
    return {name: replace(STANDARD_OPS, name=name, **breaks) for name, breaks in MUTATION_BREAKS.items()}


#: the seeded sign/term mutations of Delta or the bracket
DELTA_BRACKET_MUTATIONS = (
    "delta-sign-flip",
    "delta-drop-term",
    "delta-extra-term",
    "bracket-sign-flip",
    "bracket-drop-term",
)


def get_ops(name_or_ops) -> BVOps:
    if isinstance(name_or_ops, BVOps):
        return name_or_ops
    if name_or_ops == "standard":
        return STANDARD_OPS
    muts = mutations()
    if isinstance(name_or_ops, str) and name_or_ops in muts:
        return muts[name_or_ops]
    raise AlgebraError(
        "unknown ops bundle %r (known: standard, %s)" % (name_or_ops, ", ".join(sorted(muts)))
    )


# ---------------------------------------------------------------------------
# running, witnesses, replay


def _failing_checks(check, args):
    return [checked for checked in check(args) if checked[1] != checked[2]]


def _render_checks(checks):
    return [{"check": label, "lhs": str(lhs), "rhs": str(rhs)} for label, lhs, rhs in checks]


def _drop_one_term(value):
    """Yield copies of `value` with a single monomial term removed: from a class,
    from one part of a pair or an `IntersectConfig`, or from one item of a list."""
    if isinstance(value, Element):
        for mono in sorted(value._terms, key=partial(_unpack, value.model)):  # in `Monomial` order
            yield Element._of(value.model, value.ring, {m: c for m, c in value._terms.items() if m != mono})
    elif isinstance(value, ExtendedClass):
        for coh in _drop_one_term(value.coh):
            yield ExtendedClass._of(coh, value.loop)
        for loop in _drop_one_term(value.loop):
            yield ExtendedClass._of(value.coh, loop)
    elif isinstance(value, list):  # the arguments, or the ats or frees of an IntersectConfig
        for idx, item in enumerate(value):
            for smaller in _drop_one_term(item):
                yield value[:idx] + [smaller] + value[idx + 1 :]
    else:  # an IntersectConfig
        for name, part in zip(value._fields, value):
            for smaller in _drop_one_term(part):
                yield value._replace(**{name: smaller})


def _minimize_args(check, args, failing):
    """Greedily drop monomial terms while the failure persists; return (args, their failing checks)."""
    for smaller in _drop_one_term(list(args)):
        try:
            still = _failing_checks(check, smaller)
        except AlgebraError:  # dropping a term made the arguments degenerate
            continue
        if still:
            return _minimize_args(check, smaller, still)
    return args, failing


def _build_witness(check, trial, args, failing):
    minimized, minimized_failing = _minimize_args(check, args, failing)
    return {
        "trial": trial,
        "args": [str(v) for v in args],
        "failing": _render_checks(failing),
        "minimized_args": [str(v) for v in minimized],
        "minimized_failing": _render_checks(minimized_failing),
    }


def report_rng(seed, identity_id: str) -> random.Random:
    """The deterministic generator of one report; strings seed via sha512."""
    return random.Random("%s|%s" % (seed, identity_id))


def run_suite(
    model: ModelSpec,
    trials: int,
    seed,
    selection=None,
    ops="standard",
) -> list[CheckReport]:
    """Check identities on seeded random draws; one report per identity.

    `selection` is an iterable of identity ids (None means the full catalog); a
    string, a non-iterable, an empty one or an unknown or non-string id is an error,
    not a silent no-op.
    Reports come back in catalog order.  `ops` names a primitive bundle from
    the registry, for running the suite against deliberately broken algebra.
    """
    check_count("trials", trials)
    ops_obj = get_ops(ops)
    if isinstance(selection, str):
        raise AlgebraError("selection must be a list of identity ids, not the string %r" % selection)
    if not isinstance(selection, (Iterable, type(None))):
        raise AlgebraError("selection must be a list of identity ids, not %r" % (selection,))
    chosen = list(CATALOG if selection is None else selection)
    if not chosen:
        raise AlgebraError("no identity selected (see the catalog for known ids)")
    for ident in chosen:
        if not isinstance(ident, str) or ident not in CATALOG:
            raise AlgebraError("unknown identity id %r (see the catalog for known ids)" % (ident,))
    chosen = [ident for ident in CATALOG if ident in chosen]
    # draws index the basis at this cap: refuse an oversized model before any identity runs
    check_index_size(model, SUITE_EVEN_CAP)
    degrees = None if model == builtin_named(model.name) else list(model.generator_degrees)
    reports = []
    for ident in chosen:
        case = CATALOG[ident]
        status, witness = "pass", None
        plans = [_plan(spec, model) for spec in case.args]  # one per report; trials only draw
        check = partial(case.evaluate, ops_obj, model)  # bound once per report
        rng = report_rng(seed, ident)  # trial t makes the t-th draws of the report's stream
        # a row that draws nothing would check the same classes on every trial
        for trial in range(trials if plans else 1):
            args = [draw(rng) for draw in plans]
            if failing := _failing_checks(check, args):
                status = "fail"
                witness = _build_witness(check, trial, args, failing)
                break
        reports.append(
            CheckReport(
                identity=ident,
                model=model.name,
                trials=trials,
                seed=seed,
                status=status,
                ops=ops_obj.name,
                witness=witness,
                generator_degrees=degrees,
            )
        )
    return reports


def replay(report: CheckReport) -> CheckReport:
    """Re-run one report's identity from its seed; must reproduce it exactly.

    The model is built from the report's degrees when it stores them, else
    resolved from its name; a model, catalog or ops mismatch is an error
    rather than silently ignored.
    """
    if report.catalog != CATALOG_VERSION:
        raise AlgebraError(
            "catalog version mismatch: report has %r, current is %r"
            % (report.catalog, CATALOG_VERSION)
        )
    if report.identity not in CATALOG:
        raise AlgebraError("unknown identity id %r in report" % report.identity)
    stored = report.generator_degrees
    model = resolve_model(report.model) if stored is None else ModelSpec(report.model, stored)
    # a file found under the report's model name may hold a model of another name
    if model.name != report.model:
        raise AlgebraError(
            "model mismatch: report is for %r, which resolves to model %r" % (report.model, model.name)
        )
    result = run_suite(model, report.trials, report.seed, [report.identity], ops=report.ops)[0]
    # a line written before reports stored degrees replays in its own form
    return result if stored is not None else replace(result, generator_degrees=None)
