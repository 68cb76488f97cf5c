"""Seeded exact-equality verification of the BV identity catalog.

Every identity the engine claims is kept in one catalog, keyed by a stable
id, and checked on random homogeneous draws with exact rational equality.
Runs are deterministic: the draw for trial t of identity I under seed S
comes from ``random.Random("S|I|t")``, so a failing report can always be
replayed bit for bit from (model, seed, identity, trial).  A row that draws
nothing is evaluated once per report, as every trial would check the same
classes; its report still records the trials asked for.  A report of a
model that is not the built-in of its name also stores the model's degrees,
so it replays from the report alone.

An argument is drawn by kind.  `_KINDS` gives each one-class kind its ring,
even cap and default window, d the model dimension: `loop` is loop homology
at cap 6 in (-d-2, 2d), `exterior` loop homology at cap 0 in (-d, 0), `base`
cohomology at cap 0 in (0, d), `coh` cohomology at cap 6 in (0, 2d).  Each
draws in its `ArgSpec`'s window if given; `ext` (base and/or loop classes of
one degree) and `intersect-config` (an `IntersectConfig`) refuse one.
`run_suite` resolves each spec of a row into a draw plan once per report
(`_plan`), so a trial makes only its generator calls and monomial lookups.

Each algebra law is written once against a *view*: one algebra's product,
bracket, Delta, zero, unit and argument lift, bound to an ops bundle.  The
views are loop, coh (cup, coh_delta and the zero bracket, as coh_delta is a
derivation) and ext (H^*(M) (+) H_*(LM)).  An identity that is a law is one
catalog row, ``_law(view, law, *check_labels)``; any other identity gets its
own ``evaluate(ops, model, args)`` returning (label, lhs, rhs) checks.

`_leibniz` states the Leibniz rule of a degree-k map d over an operation
once, sign (-1)^{k(|y|+shift)} included.  16 rows run it: the BV identity
(loop, ext, and coh as eq. 4.4), Poisson and Jacobi (loop, ext, eqs. 4.11,
4.13, 4.15, 4.16), the two operator commutators and eqs. 4.7, 4.10 and 4.24.

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
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache, partial
from operator import mul
from typing import Callable, NamedTuple

from .kernel import (
    AlgebraError,
    DrawPlan,
    Element,
    ModelSpec,
    Ring,
    _COH,
    _LOOP,
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

CATALOG_VERSION = "2"

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
        """Read `to_json` output: a missing field without a default raises
        `KeyError`, a missing one with a default takes it, unknown keys are ignored."""
        data = json.loads(line)
        if not isinstance(data, dict):
            raise AlgebraError("check report JSON must be an object, got %r" % (data,))
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING})


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
def _class_plan(kind: str, model: ModelSpec, window=None) -> DrawPlan:
    """The draw plan of a one-class `kind`, in `window`, else in the kind's default
    window; one per (kind, model, window), so plans stay as few as the specs."""
    ring, even_cap, default = _KINDS[kind]
    return DrawPlan(model, ring, window or default(model.dimension), even_cap)


class _ExtPlan(NamedTuple):
    """Where an `ext` draw lands: its candidate degrees n, and by n the plans of
    a base class of degree -n and of a loop class of degree n, where populated."""

    model: ModelSpec
    candidates: tuple[int, ...]
    coh: dict[int, DrawPlan]
    loop: dict[int, DrawPlan]


@lru_cache(maxsize=None)
def _ext_plan(model: ModelSpec) -> _ExtPlan:
    lo, hi = _KINDS["loop"][2](model.dimension)
    loop = {n: _class_plan("loop", model, (n, n)) for n in _class_plan("loop", model, (lo, hi)).degrees}
    coh = {-k: _class_plan("base", model, (k, k)) for k in _class_plan("base", model, (-hi, -lo)).degrees}
    return _ExtPlan(model, tuple(sorted({*loop, *coh})), coh, loop)


def _draw_extended(plan: _ExtPlan, max_terms: int, rng: random.Random) -> ExtendedClass:
    n = rng.choice(plan.candidates)
    want_coh = n in plan.coh and rng.random() < 0.6
    want_loop = n in plan.loop and (rng.random() < 0.8 or not want_coh)
    model = plan.model
    coh = plan.coh[n].draw(max_terms, rng) if want_coh else Element._of(model, _COH, {})
    if want_loop or not want_coh:  # a pair with neither part takes a loop class of degree 0
        loop = plan.loop[n if want_loop else 0].draw(max_terms, rng)
    else:
        loop = Element._of(model, _LOOP, {})
    return ExtendedClass._of(coh, loop)  # a base draw and a loop draw, both over `model`


class IntersectConfig(NamedTuple):
    """An `intersect-config` draw: the arguments of `loop_intersection`."""

    ats: list
    frees: list
    family: Element

    def __str__(self) -> str:
        ats, frees = ("; ".join(map(str, part)) for part in (self.ats, self.frees))
        return "at=[%s] free=[%s] family=%s" % (ats, frees, self.family)


def _draw_intersect_config(base: DrawPlan, loop: DrawPlan, rng: random.Random) -> IntersectConfig:
    at_count, free_count = rng.randint(0, 3), rng.randint(0, 3)
    return IntersectConfig(
        [base.draw(1, rng) for _ in range(at_count)],
        [base.draw(2, rng) for _ in range(free_count)],
        loop.draw(2, rng),
    )


def _plan(spec: ArgSpec, model: ModelSpec) -> Callable[[random.Random], object]:
    """Resolve `spec` on `model` once: the returned function draws one argument
    from a generator, making only its generator calls and the monomial lookups."""
    if spec.kind in _KINDS:
        check_count("max_terms", spec.max_terms)
        return partial(_class_plan(spec.kind, model, spec.window).draw, spec.max_terms)
    if spec.kind not in ("ext", "intersect-config"):
        raise AlgebraError("unknown draw kind %r" % spec.kind)
    if spec.window is not None:
        raise AlgebraError("%r draws take no window: each of their classes has its own" % spec.kind)
    if spec.kind == "ext":
        check_count("max_terms", spec.max_terms)
        return partial(_draw_extended, _ext_plan(model), spec.max_terms)
    return partial(_draw_intersect_config, _class_plan("base", model), _class_plan("loop", model))


def _draw(spec: ArgSpec, model: ModelSpec, rng: random.Random):
    """One argument for `spec`; `run_suite` keeps the plan for a whole report instead."""
    return _plan(spec, model)(rng)


# ---------------------------------------------------------------------------
# algebra views and the laws written once against them

_LOOP1 = (ArgSpec("loop"),)
_LOOP2 = _LOOP1 * 2
_LOOP3 = _LOOP1 * 3
_EXT1 = (ArgSpec("ext"),)
_EXT2 = _EXT1 * 2
_EXT3 = _EXT1 * 3
_BASE_LOOP2 = (ArgSpec("base"),) + _LOOP2
_BASE2_LOOP = (ArgSpec("base"), ArgSpec("base")) + _LOOP1


class _View(NamedTuple):
    """The operations a law uses, bound to one ops bundle and one model."""

    product: Callable
    bracket: Callable
    delta: Callable
    zero: Callable  # () -> the zero class, made only when a law asks
    unit: Callable  # () -> the unit class, likewise
    lift: Callable  # a drawn argument -> an element of this algebra


def _same(x):
    return x


def _loop_view(ops, model) -> _View:
    return _View(
        ops.product, ops.bracket, ops.delta,
        lambda: Element.zero(model, _LOOP), lambda: Element.unit(model, _LOOP), _same,
    )


def _coh_view(ops, model) -> _View:
    """Cup product and coh_delta; coh_delta is a derivation, so its bracket is zero."""
    return _View(
        mul, lambda x, y: Element.zero(model, _COH), ops.coh_delta,
        lambda: Element.zero(model, _COH), lambda: Element.unit(model, _COH), _same,
    )


def _ext_lift(x) -> ExtendedClass:
    """A base class x as (x, 0), a loop class b as (0, b), an extended class as itself.

    Only draws and the loop classes operators return are lifted: no check needed."""
    if isinstance(x, ExtendedClass):
        return x
    if x.ring is _LOOP:
        return ExtendedClass._of(Element.zero(x.model, _COH), x)
    return ExtendedClass._of(x, Element.zero(x.model, _LOOP))


def _ext_view(ops, model) -> _View:
    return _View(
        lambda x, y: extended_product(x, y, ops=ops),
        lambda x, y: extended_bracket(x, y, ops=ops),
        lambda x: extended_delta(x, ops=ops),
        lambda: ExtendedClass.zero(model), lambda: ExtendedClass.unit(model), _ext_lift,
    )


def _commutativity(v, x, y):
    return [(v.product(x, y), v.product(y, x).scale(sign_pow(_hdeg(x) * _hdeg(y))))]


def _associativity(v, x, y, z):
    return [(v.product(v.product(x, y), z), v.product(x, v.product(y, z)))]


def _unit(v, x):
    one = v.unit()
    return [(v.product(one, x), x), (v.product(x, one), x)]


def _antisymmetry(v, x, y):
    return [(v.bracket(x, y), v.bracket(y, x).scale(-sign_pow((_hdeg(x) + 1) * (_hdeg(y) + 1))))]


def _leibniz(d, k, op, shift, y, z):
    """The Leibniz rule of `d`, of degree `k`, over `op`, whose operands count with
    degree shifted by `shift`: the terms (d(op(y,z)), op(d(y),z), (-1)^{k(|y|+shift)} op(y,d(z)))."""
    return d(op(y, z)), op(d(y), z), op(y, d(z)).scale(sign_pow(k * (_hdeg(y) + shift)))


def _bv_identity(v, x, y):
    """Delta fails to be a derivation of the product by exactly (-1)^{|x|} {x,y}."""
    whole, left, right = _leibniz(v.delta, 1, v.product, 0, x, y)
    return [(whole, left + right + v.bracket(x, y).scale(sign_pow(_hdeg(x))))]


def _bracket_derivation(over, shift):
    """The law that {x,-} is a derivation of degree |x|+1 of the product
    (`over` "product", `shift` 0) or of the bracket ("bracket", 1)."""

    def law(v, x, y, z):
        whole, left, right = _leibniz(lambda w: v.bracket(x, w), _hdeg(x) + 1, getattr(v, over), shift, y, z)
        return [(whole, left + right)]

    return law


_poisson = _bracket_derivation("product", 0)
_jacobi = _bracket_derivation("bracket", 1)


def _poisson_product_first(v, x, y, z):
    """Poisson with the product in the first slot: {x.y,z} = x.{y,z} + (-1)^{|x||y|} y.{x,z}."""
    lhs = v.bracket(v.product(x, y), z)
    rhs = v.product(x, v.bracket(y, z)) + v.product(y, v.bracket(x, z)).scale(
        sign_pow(_hdeg(x) * _hdeg(y))
    )
    return [(lhs, rhs)]


def _square_zero(v, x):
    return [(v.delta(v.delta(x)), v.zero())]


def _curious(v, x, y, z):
    """Eq. 4.19: three sums of products and brackets of x, y, z agree.

    The signs read only degree parities, so a base class alpha and its lift
    (alpha, 0), of degree -|alpha|, give the same signs."""
    k, n = _hdeg(x), _hdeg(y)
    sn = sign_pow(n)
    t1 = v.bracket(x, v.product(y, z)) + v.product(x, v.bracket(y, z)).scale(sn)
    t2 = v.product(v.bracket(x, y), z) + v.bracket(v.product(x, y), z).scale(sn)
    t3 = (
        v.product(y, v.bracket(x, z)) + v.bracket(y, v.product(x, z)).scale(sign_pow(k))
    ).scale(sign_pow((k + 1) * n))
    return [(t1, t2), (t2, t3)]


def _law(view, law, *labels):
    """The `evaluate` of a catalog row: `law` on the arguments lifted into `view`, one label per check."""

    def evaluate(ops, model, args):
        v = view(ops, model)
        sides = law(v, *map(v.lift, args))
        return [(label, lhs, rhs) for label, (lhs, rhs) in zip(labels, sides, strict=True)]

    return evaluate


# ---------------------------------------------------------------------------
# identity evaluators


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


def _ev_delta_constant(ops, model, args):
    (x,) = args
    lz = Element.zero(model, _LOOP)
    return [
        ("Delta(s_star(x)) = 0", ops.delta(s_star(x)), lz),
        ("Delta(1) = 0", ops.delta(Element.unit(model, _LOOP)), lz),
    ]


def _operator_commutator(over, shift, label):
    """`evaluate` for [D_b, O_c] = O_{{b,c}} on e: the Leibniz rule of D_b = {b,-} over
    the loop operation `over` ("product" or "bracket"), whose operands count with
    degree shifted by `shift` (0 or 1), with the commutator on the left."""

    def evaluate(ops, model, args):
        b, c, e = args
        whole, left, right = _leibniz(lambda w: ops.bracket(b, w), _hdeg(b) + 1, getattr(ops, over), shift, c, e)
        return [(label, whole - right, left)]

    return evaluate


def _ev_s_star_ring_map(ops, model, args):
    x, y = args
    return [
        ("s(x)*s(y) = s(x*y)", ops.product(s_star(x), s_star(y)), s_star(ops.product(x, y))),
        ("s(1) = 1", s_star(Element.unit(model, _LOOP)), Element.unit(model, _LOOP)),
    ]


def _ev_dual_multiplicative(ops, model, args):
    x, y = args
    return [
        ("D(x*y) = D(x) cup D(y)", poincare_dual(ops.product(x, y)), poincare_dual(x) * poincare_dual(y)),
        ("Dinv(D(x)) = x", poincare_dual_inverse(poincare_dual(x)), x),
    ]


def _cap_commutes(first_label, second_label):
    """`evaluate` for alpha cap (x*y) = (alpha cap x)*y = (-1)^{|alpha||x|} x*(alpha cap y)."""

    def evaluate(ops, model, args):
        al, x, y = args
        lhs = ops.cap(al, ops.product(x, y))
        return [
            (first_label, lhs, ops.product(ops.cap(al, x), y)),
            (second_label, lhs, ops.product(x, ops.cap(al, y)).scale(sign_pow(_hdeg(al) * _hdeg(x)))),
        ]

    return evaluate


def _cap_derivation(over, shift, label):
    """`evaluate` for: Dalpha cap - is a derivation of degree |alpha|-1 of the
    loop operation `over` ("product" or "bracket"), whose operands count with
    degree shifted by `shift` (0 for the product, 1 for the bracket)."""

    def evaluate(ops, model, args):
        al, b, c = args
        da = ops.coh_delta(al)
        whole, left, right = _leibniz(lambda w: ops.cap(da, w), _hdeg(al) - 1, getattr(ops, over), shift, b, c)
        return [(label, whole, left + right)]

    return evaluate


def _ev_delta_cap_derivation(ops, model, args):
    odd = {_LOOP: ops.delta, _COH: ops.coh_delta}  # Delta on loop classes, coh_delta on cohomology
    whole, left, right = _leibniz(lambda x: odd[x.ring](x), 1, ops.cap, 0, *args)
    return [("Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b)", whole, left + right)]


def _ev_cap_constant_trivial(ops, model, args):
    al, x = args
    lhs = ops.cap(ops.coh_delta(al), s_star(x))
    return [("Dalpha cap s_star(x) = 0", lhs, Element.zero(model, _LOOP))]


def _ev_cap_module_axiom(ops, model, args):
    w1, w2, b = args
    return [
        ("(w1 cup w2) cap b = w1 cap (w2 cap b)", ops.cap(w1 * w2, b), ops.cap(w1, ops.cap(w2, b))),
        ("1 cap b = b", ops.cap(Element.unit(model, _COH), b), b),
    ]


def _ev_cap_is_intersection(ops, model, args):
    al, b = args
    a_dual = poincare_dual_inverse(al)
    return [
        ("alpha cap b = Dinv(alpha)*b", ops.cap(al, b), ops.product(a_dual, b)),
        (
            "(-1)^{|alpha|} Dalpha cap b = {Dinv(alpha),b}",
            ops.cap(ops.coh_delta(al), b).scale(sign_pow(_hdeg(al))),
            ops.bracket(a_dual, b),
        ),
    ]


def _ev_nested_brackets(ops, model, args):
    w, b = args
    capped = ops.cap(w, b)
    expand = lambda forward: nested_brackets(w, b, ops.product, ops.bracket, forward)
    return [
        ("cap(w,b) = iterated single caps, canonical order", capped, expand(False)),
        ("cap(w,b) = iterated single caps, reversed order with Koszul sign", capped, expand(True)),
    ]


def _ev_intertwiner(ops, model, args):
    al, b = args
    ext = _ext_view(ops, model)
    A, B = map(ext.lift, args)
    a_dual = poincare_dual_inverse(al)
    return [
        ("{(alpha,0),(0,b)} = (0,{Dinv(alpha),b})", ext.bracket(A, B), ext.lift(ops.bracket(a_dual, b))),
        ("(alpha,0)*(0,b) = (0,Dinv(alpha)*b)", ext.product(A, B), ext.lift(ops.product(a_dual, b))),
    ]


def _ev_def_mixed_conventions(ops, model, args):
    al, b, be = args
    ext = _ext_view(ops, model)
    A, B, C = map(ext.lift, args)
    k, n = _hdeg(al), _hdeg(b)
    ab = ext.product(A, B)
    br = ext.bracket(A, B)
    return [
        ("alpha.b = alpha cap b", ab, ext.lift(ops.cap(al, b))),
        (
            "{alpha,b} = (-1)^{|alpha|} Dalpha cap b",
            br,
            ext.lift(ops.cap(ops.coh_delta(al), b).scale(sign_pow(k))),
        ),
        ("b.alpha = (-1)^{|alpha||b|} alpha.b", ext.product(B, A), ab.scale(sign_pow(k * n))),
        (
            "{b,alpha} = -(-1)^{(|alpha|+1)(|b|+1)} {alpha,b}",
            ext.bracket(B, A),
            br.scale(-sign_pow((k + 1) * (n + 1))),
        ),
        ("{alpha,beta} = 0", ext.bracket(A, C), ext.zero()),
    ]


def _ev_loop_intersection(ops, model, args):
    ((ats, frees, family),) = args
    lhs = loop_intersection(ats, frees, family, ops=ops)
    # independent assembly: sign and monomial recomputed here, cup folded
    # right to left
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


def _build_catalog() -> dict[str, IdentityCase]:
    entries = [
        IdentityCase(
            "model-structure",
            "generator relations: odd squares vanish, evens commute, Delta(a_i u_j) = delta_ij, coh_delta(alpha_i) = v_i",
            (),
            _ev_model_structure,
        ),
        IdentityCase("loop-commutativity", "b*c = (-1)^{|b||c|} c*b", _LOOP2,
                     _law(_loop_view, _commutativity, "b*c = (-1)^{|b||c|} c*b")),
        IdentityCase("loop-associativity", "(b*c)*e = b*(c*e)", _LOOP3,
                     _law(_loop_view, _associativity, "(b*c)*e = b*(c*e)")),
        IdentityCase("loop-unit", "s_star[M] is a two-sided unit", _LOOP1,
                     _law(_loop_view, _unit, "1*b = b", "b*1 = b")),
        IdentityCase(
            "bracket-antisymmetry", "{b,c} = -(-1)^{(|b|+1)(|c|+1)} {c,b}", _LOOP2,
            _law(_loop_view, _antisymmetry, "{b,c} = -(-1)^{(|b|+1)(|c|+1)} {c,b}"),
        ),
        IdentityCase(
            "bv-identity", "Delta(b*c) = Delta(b)*c + (-1)^{|b|} b*Delta(c) + (-1)^{|b|} {b,c}", _LOOP2,
            _law(_loop_view, _bv_identity, "Delta(b*c) = Delta(b)*c + (-1)^{|b|}(b*Delta(c) + {b,c})"),
        ),
        IdentityCase(
            "poisson-identity", "{b,c*e} = {b,c}*e + (-1)^{|c|(|b|+1)} c*{b,e}", _LOOP3,
            _law(_loop_view, _poisson, "{b,c*e} = {b,c}*e + (-1)^{|c|(|b|+1)} c*{b,e}"),
        ),
        IdentityCase(
            "jacobi-identity", "{b,{c,e}} = {{b,c},e} + (-1)^{(|b|+1)(|c|+1)} {c,{b,e}}", _LOOP3,
            _law(_loop_view, _jacobi, "{b,{c,e}} = {{b,c},e} + (-1)^{(|b|+1)(|c|+1)} {c,{b,e}}"),
        ),
        IdentityCase("delta-squared-zero", "Delta o Delta = 0", _LOOP1,
                     _law(_loop_view, _square_zero, "Delta(Delta(b)) = 0")),
        IdentityCase(
            "delta-constant-loops",
            "Delta vanishes on constant-loop classes and on the unit",
            (ArgSpec("exterior"),),
            _ev_delta_constant,
        ),
        IdentityCase(
            "operator-commutator-product",
            "[D_b, M_c] = M_{{b,c}} as graded operator commutators",
            _LOOP3,
            _operator_commutator("product", 0, "[D_b, M_c] = M_{{b,c}} on e"),
        ),
        IdentityCase(
            "operator-commutator-bracket",
            "[D_b, D_c] = D_{{b,c}} as graded operator commutators",
            _LOOP3,
            _operator_commutator("bracket", 1, "[D_b, D_c] = D_{{b,c}} on e"),
        ),
        IdentityCase(
            "s-star-ring-map",
            "s_star is a unital ring map from the intersection ring",
            (ArgSpec("exterior"), ArgSpec("exterior")),
            _ev_s_star_ring_map,
        ),
        IdentityCase(
            "dual-multiplicative",
            "D(x*y) = D(x) cup D(y) and Dinv o D = id on the exterior subring",
            (ArgSpec("exterior"), ArgSpec("exterior")),
            _ev_dual_multiplicative,
        ),
        IdentityCase(
            "eq-1.1-base-cap-commutes",
            "alpha cap (x*y) = (alpha cap x)*y = (-1)^{|alpha||x|} x*(alpha cap y) on constant classes",
            (ArgSpec("base"), ArgSpec("exterior"), ArgSpec("exterior")),
            _cap_commutes("alpha cap (x*y) = (alpha cap x)*y", "alpha cap (x*y) = (-1)^{|alpha||x|} x*(alpha cap y)"),
        ),
        IdentityCase(
            "eq-4.4-coh-delta-derivation",
            "coh_delta is an odd derivation for the cup product",
            (ArgSpec("coh"), ArgSpec("coh")),
            _law(_coh_view, _bv_identity, "coh_delta(x cup y) = coh_delta(x) cup y + (-1)^{|x|} x cup coh_delta(y)"),
        ),
        IdentityCase("coh-delta-squared-zero", "coh_delta o coh_delta = 0", (ArgSpec("coh"),),
                     _law(_coh_view, _square_zero, "coh_delta(coh_delta(x)) = 0")),
        IdentityCase(
            "eq-4.6-cap-commutes-product",
            "cap with a base class graded-commutes with the loop product",
            _BASE_LOOP2,
            _cap_commutes("alpha cap (b*c) = (alpha cap b)*c", "alpha cap (b*c) = (-1)^{|alpha||b|} b*(alpha cap c)"),
        ),
        IdentityCase(
            "eq-4.7-cap-derivation",
            "cap with coh_delta(alpha) is a derivation of the loop product",
            _BASE_LOOP2,
            _cap_derivation(
                "product", 0, "Dalpha cap (b*c) = (Dalpha cap b)*c + (-1)^{(|alpha|-1)|b|} b*(Dalpha cap c)"
            ),
        ),
        IdentityCase(
            "eq-4.10-cap-bracket-derivation",
            "cap with coh_delta(alpha) is a derivation of the loop bracket",
            _BASE_LOOP2,
            _cap_derivation(
                "bracket", 1, "Dalpha cap {b,c} = {Dalpha cap b,c} + (-1)^{(|alpha|-1)(|b|+1)} {b,Dalpha cap c}"
            ),
        ),
        IdentityCase(
            "eq-4.24-delta-cap-derivation",
            "Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b), any ring class w",
            (ArgSpec("coh"), ArgSpec("loop")),
            _ev_delta_cap_derivation,
        ),
        IdentityCase(
            "cap-on-constants-trivial",
            "cap of coh_delta(alpha) with constant-loop classes vanishes",
            (ArgSpec("base"), ArgSpec("exterior")),
            _ev_cap_constant_trivial,
        ),
        IdentityCase(
            "cap-module-axiom",
            "(w1 cup w2) cap b = w1 cap (w2 cap b) and 1 cap b = b",
            (ArgSpec("coh"), ArgSpec("coh"), ArgSpec("loop")),
            _ev_cap_module_axiom,
        ),
        IdentityCase(
            "eq-5.1-cap-is-intersection",
            "alpha cap b = Dinv(alpha)*b and (-1)^{|alpha|} coh_delta(alpha) cap b = {Dinv(alpha),b}",
            (ArgSpec("base"), ArgSpec("loop")),
            _ev_cap_is_intersection,
        ),
        IdentityCase(
            "eq-5.2-nested-brackets",
            "cap with a monomial equals the signed nested-bracket expansion, any factor order",
            (ArgSpec("coh", max_terms=1), ArgSpec("loop")),
            _ev_nested_brackets,
        ),
        IdentityCase(
            "intertwiner-duality",
            "extended product/bracket against (0,b) realise Dinv: {(alpha,0),(0,b)} = (0,{Dinv(alpha),b})",
            (ArgSpec("base"), ArgSpec("loop")),
            _ev_intertwiner,
        ),
        IdentityCase(
            "mixed-product-conventions",
            "mixed product/bracket conventions between base cohomology and loop classes",
            (ArgSpec("base"), ArgSpec("loop"), ArgSpec("base")),
            _ev_def_mixed_conventions,
        ),
        IdentityCase(
            "eq-4.11-poisson-extended", "extended Poisson: cohomology, cohomology, loop", _BASE2_LOOP,
            _law(_ext_view, _poisson, "{alpha,beta.c} = {alpha,beta}.c + (-1)^{|beta|(|alpha|+1)} beta.{alpha,c}"),
        ),
        IdentityCase(
            "eq-4.12-poisson-extended", "extended Poisson for a cup product in the first slot", _BASE2_LOOP,
            _law(
                _ext_view, _poisson_product_first,
                "{alpha cup beta,c} = alpha.{beta,c} + (-1)^{|alpha||beta|} beta.{alpha,c}",
            ),
        ),
        IdentityCase(
            "eq-4.13-poisson-extended", "extended Poisson: cohomology, loop, loop", _BASE_LOOP2,
            _law(_ext_view, _poisson, "{alpha,b*c} = {alpha,b}*c + (-1)^{|b|(|alpha|+1)} b*{alpha,c}"),
        ),
        IdentityCase(
            "eq-4.14-poisson-extended", "extended Poisson for a mixed product in the first slot", _BASE_LOOP2,
            _law(_ext_view, _poisson_product_first, "{alpha.b,c} = alpha.{b,c} + (-1)^{|alpha||b|} b.{alpha,c}"),
        ),
        IdentityCase(
            "eq-4.15-jacobi-extended", "extended Jacobi: cohomology, cohomology, loop", _BASE2_LOOP,
            _law(
                _ext_view, _jacobi,
                "{alpha,{beta,c}} = {{alpha,beta},c} + (-1)^{(|alpha|+1)(|beta|+1)} {beta,{alpha,c}}",
            ),
        ),
        IdentityCase(
            "eq-4.16-jacobi-extended", "extended Jacobi: cohomology, loop, loop", _BASE_LOOP2,
            _law(_ext_view, _jacobi, "{alpha,{b,c}} = {{alpha,b},c} + (-1)^{(|alpha|+1)(|b|+1)} {b,{alpha,c}}"),
        ),
        IdentityCase("ext-commutativity", "extended product graded commutativity", _EXT2,
                     _law(_ext_view, _commutativity, "x.y = (-1)^{|x||y|} y.x")),
        IdentityCase("ext-associativity", "extended product associativity", _EXT3,
                     _law(_ext_view, _associativity, "(x.y).z = x.(y.z)")),
        IdentityCase("ext-unit", "(1,0) is the extended unit", _EXT1,
                     _law(_ext_view, _unit, "(1,0).x = x", "x.(1,0) = x")),
        IdentityCase("ext-bv-identity", "extended BV identity", _EXT2,
                     _law(_ext_view, _bv_identity, "D(x.y) = D(x).y + (-1)^{|x|}(x.D(y) + {x,y})")),
        IdentityCase("ext-poisson", "extended Poisson identity on general classes", _EXT3,
                     _law(_ext_view, _poisson, "{x,y.z} = {x,y}.z + (-1)^{|y|(|x|+1)} y.{x,z}")),
        IdentityCase("ext-jacobi", "extended Jacobi identity on general classes", _EXT3,
                     _law(_ext_view, _jacobi, "{x,{y,z}} = {{x,y},z} + (-1)^{(|x|+1)(|y|+1)} {y,{x,z}}")),
        IdentityCase("ext-bracket-antisymmetry", "extended bracket antisymmetry", _EXT2,
                     _law(_ext_view, _antisymmetry, "{x,y} = -(-1)^{(|x|+1)(|y|+1)} {y,x}")),
        IdentityCase("ext-delta-squared-zero", "extended BV operator squares to zero", _EXT1,
                     _law(_ext_view, _square_zero, "D(D(x)) = 0")),
        IdentityCase(
            "eq-4.19-curious-identity",
            "three-way symmetric bracket/product identity in extended arithmetic",
            _BASE_LOOP2,
            _law(
                _ext_view, _curious,
                "{alpha,b.c} + (-1)^{|b|}alpha.{b,c} = {alpha,b}.c + (-1)^{|b|}{alpha.b,c}",
                "... = (-1)^{(|alpha|+1)|b|}(b.{alpha,c} + (-1)^{|alpha|}{b,alpha.c})",
            ),
        ),
        IdentityCase(
            "loop-intersection-formula",
            "loop_intersection equals its signed cap-product formula",
            (ArgSpec("intersect-config"),),
            _ev_loop_intersection,
        ),
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
    if name_or_ops in muts:
        return muts[name_or_ops]
    raise AlgebraError(
        "unknown ops bundle %r (known: standard, %s)" % (name_or_ops, ", ".join(sorted(muts)))
    )


# ---------------------------------------------------------------------------
# running, witnesses, replay


def _failing_checks(case, ops, model, args):
    return [check for check in case.evaluate(ops, model, args) if check[1] != check[2]]


def _render_checks(checks):
    return [{"check": label, "lhs": str(lhs), "rhs": str(rhs)} for label, lhs, rhs in checks]


def _drop_one_term(value):
    """Yield copies of `value` with a single monomial term removed: from a class,
    from one part of a pair or an `IntersectConfig`, or from one item of a list."""
    if isinstance(value, Element):
        for mono in sorted(value.terms):
            yield Element._of(value.model, value.ring, {m: c for m, c in value.terms.items() if m != mono})
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


def _still_failing(case, ops, model, args) -> list:
    try:
        return _failing_checks(case, ops, model, args)
    except AlgebraError:  # dropping a term made the arguments degenerate
        return []


def _minimize_args(case, ops, model, args, failing):
    """Greedily drop monomial terms while the failure persists; return (args, their failing checks)."""
    for smaller in _drop_one_term(list(args)):
        if still := _still_failing(case, ops, model, smaller):
            return _minimize_args(case, ops, model, smaller, still)
    return args, failing


def _build_witness(case, ops, model, trial, args, failing):
    minimized, minimized_failing = _minimize_args(case, ops, model, args, failing)
    return {
        "trial": trial,
        "args": [str(v) for v in args],
        "failing": _render_checks(failing),
        "minimized_args": [str(v) for v in minimized],
        "minimized_failing": _render_checks(minimized_failing),
    }


def trial_rng(seed, identity_id: str, trial: int) -> random.Random:
    """The deterministic generator for one trial; strings seed via sha512."""
    return random.Random("%s|%s|%d" % (seed, identity_id, trial))


def run_suite(
    model: ModelSpec,
    trials: int,
    seed,
    selection=None,
    ops="standard",
) -> list[CheckReport]:
    """Check identities on seeded random draws; one report per identity.

    `selection` is an iterable of identity ids (None means the full catalog);
    a string, an empty one or an unknown id is an error, not a silent no-op.
    Reports come back in catalog order.  `ops` names a primitive bundle from
    the registry, for running the suite against deliberately broken algebra.
    """
    check_count("trials", trials)
    ops_obj = get_ops(ops)
    if isinstance(selection, str):
        raise AlgebraError("selection must be a list of identity ids, not the string %r" % selection)
    chosen = list(CATALOG if selection is None else selection)
    if not chosen:
        raise AlgebraError("no identity selected (see the catalog for known ids)")
    for ident in chosen:
        if ident not in CATALOG:
            raise AlgebraError("unknown identity id %r (see the catalog for known ids)" % ident)
    chosen = [ident for ident in CATALOG if ident in chosen]
    # draws index the basis at this cap: refuse an oversized model before any identity runs
    check_index_size(model, SUITE_EVEN_CAP)
    degrees = None if model == builtin_named(model.name) else list(model.generator_degrees)
    reports = []
    for ident in chosen:
        case = CATALOG[ident]
        status, witness = "pass", None
        plans = [_plan(spec, model) for spec in case.args]  # one per report; trials only draw
        # a row that draws nothing would check the same classes on every trial
        for trial in range(trials if plans else 1):
            rng = trial_rng(seed, ident, trial)
            args = [draw(rng) for draw in plans]
            if failing := _failing_checks(case, ops_obj, model, args):
                status = "fail"
                witness = _build_witness(case, ops_obj, model, trial, args, failing)
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
