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

Each law is written once against a *view*: one algebra's product, bracket,
Delta, zero, unit and argument lift, bound to an ops bundle, and the bundle
itself (`ops`) for the primitives a law applies across algebras: `cap`,
`coh_delta`, `loop_intersection`, and the loop operations inside an extended
law.  The views are loop, coh (cup, coh_delta and the zero bracket, as
coh_delta is a derivation) and ext (H^*(M) (+) H_*(LM)).  Every row that
draws is ``_law(view, law, *check_labels)``, the law returning one
(lhs, rhs) pair per label; only `model-structure`, which draws nothing and
labels each generator's checks, has its own ``evaluate(ops, model, args)``.

`_leibniz` states the Leibniz rule of a degree-k map d over an operation
once, sign (-1)^{k(|y|+shift)} included.  16 rows run it: the BV identity
(loop, ext, and coh as eq. 4.4), eq. 4.24, and the twelve rows built by
`_derivation(by, over)`, whose `by(v, x)` is {x,-} of degree |x|+1 or
coh_delta(alpha) cap - of degree |alpha|-1, and whose shift is 1 over the
bracket and 0 over the product: Poisson and Jacobi (loop, ext, eqs. 4.11,
4.13, 4.15, 4.16), eqs. 4.7 and 4.10, and the two operator commutators.

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
    BasisIndex,
    Element,
    ModelSpec,
    Ring,
    _COH,
    _LOOP,
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
# algebra views and the laws written once against them

_LOOP1 = (ArgSpec("loop"),)
_LOOP2 = _LOOP1 * 2
_LOOP3 = _LOOP1 * 3
_EXT1 = (ArgSpec("ext"),)
_EXT2 = _EXT1 * 2
_EXT3 = _EXT1 * 3
_EXTERIOR2 = (ArgSpec("exterior"),) * 2
_BASE_LOOP = (ArgSpec("base"),) + _LOOP1
_BASE_LOOP2 = _BASE_LOOP + _LOOP1
_BASE2_LOOP = (ArgSpec("base"),) + _BASE_LOOP


class _View(NamedTuple):
    """The operations a law uses, bound to one ops bundle and one model."""

    product: Callable
    bracket: Callable
    delta: Callable
    zero: Callable  # () -> the zero class, made only when a law asks
    unit: Callable  # () -> the unit class, likewise
    lift: Callable  # a drawn argument -> an element of this algebra
    ops: BVOps  # the bundle itself, for the primitives a law applies across algebras


def _same(x):
    return x


def _loop_view(ops, model) -> _View:
    return _View(
        ops.product, ops.bracket, ops.delta,
        lambda: Element.zero(model, _LOOP), lambda: Element.unit(model, _LOOP), _same, ops,
    )


def _coh_view(ops, model) -> _View:
    """Cup product and coh_delta; coh_delta is a derivation, so its bracket is zero."""
    return _View(
        mul, lambda x, y: Element.zero(model, _COH), ops.coh_delta,
        lambda: Element.zero(model, _COH), lambda: Element.unit(model, _COH), _same, ops,
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
        lambda: ExtendedClass.zero(model), lambda: ExtendedClass.unit(model), _ext_lift, ops,
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


def _bracket_by(v, x):
    """{x,-}, of degree |x|+1."""
    return (lambda w: v.bracket(x, w)), _hdeg(x) + 1


def _cap_by_delta(v, al):
    """coh_delta(alpha) cap -, of degree |alpha|-1."""
    da = v.ops.coh_delta(al)
    return (lambda w: v.ops.cap(da, w)), _hdeg(al) - 1


def _derivation(by, over, commutator=False):
    """The law that the map `by(v, x)` returns, with its degree, is a derivation of the
    view's `over` on y and z, whose operands shift in degree by 1 for a "bracket";
    as a `commutator`, the check reads [d, over(y, -)](z) = over(d(y), z)."""
    shift = int(over == "bracket")

    def law(v, x, y, z):
        d, k = by(v, x)
        whole, left, right = _leibniz(d, k, getattr(v, over), shift, y, z)
        return [(whole - right, left) if commutator else (whole, left + right)]

    return law


_poisson = _derivation(_bracket_by, "product")
_jacobi = _derivation(_bracket_by, "bracket")


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


def _delta_constant(v, x):
    return [(v.delta(s_star(x)), v.zero()), (v.delta(v.unit()), v.zero())]


def _s_star_ring_map(v, x, y):
    return [(v.product(s_star(x), s_star(y)), s_star(v.product(x, y))), (s_star(v.unit()), v.unit())]


def _dual_multiplicative(v, x, y):
    return [
        (poincare_dual(v.product(x, y)), poincare_dual(x) * poincare_dual(y)),
        (poincare_dual_inverse(poincare_dual(x)), x),
    ]


def _cap_commutes(v, al, x, y):
    """alpha cap (x*y) = (alpha cap x)*y = (-1)^{|alpha||x|} x*(alpha cap y)."""
    lhs = v.ops.cap(al, v.product(x, y))
    return [
        (lhs, v.product(v.ops.cap(al, x), y)),
        (lhs, v.product(x, v.ops.cap(al, y)).scale(sign_pow(_hdeg(al) * _hdeg(x)))),
    ]


def _delta_cap_derivation(v, w, b):
    """Eq. 4.24: Delta on loop classes, coh_delta on cohomology, is an odd derivation of the cap."""
    odd = {_LOOP: v.delta, _COH: v.ops.coh_delta}
    whole, left, right = _leibniz(lambda x: odd[x.ring](x), 1, v.ops.cap, 0, w, b)
    return [(whole, left + right)]


def _cap_constant_trivial(v, al, x):
    return [(v.ops.cap(v.ops.coh_delta(al), s_star(x)), v.zero())]


def _cap_module(v, w1, w2, b):
    """The cap makes loop homology a module over the view's product, the cup product."""
    return [(v.ops.cap(v.product(w1, w2), b), v.ops.cap(w1, v.ops.cap(w2, b))), (v.ops.cap(v.unit(), b), b)]


def _cap_is_intersection(v, al, b):
    a_dual = poincare_dual_inverse(al)
    return [
        (v.ops.cap(al, b), v.product(a_dual, b)),
        (v.ops.cap(v.ops.coh_delta(al), b).scale(sign_pow(_hdeg(al))), v.bracket(a_dual, b)),
    ]


def _cap_expansion(v, w, b):
    """The cap against eq. 5.2's nested brackets, in canonical then reversed factor order."""
    capped = v.ops.cap(w, b)
    return [(capped, nested_brackets(w, b, v.product, v.bracket, forward)) for forward in (False, True)]


def _intertwiner(v, A, B):
    """The extended operations on (alpha, 0) and (0, b) against the loop ones on Dinv(alpha) and b."""
    a_dual, b = poincare_dual_inverse(A.coh), B.loop
    return [
        (v.bracket(A, B), v.lift(v.ops.bracket(a_dual, b))),
        (v.product(A, B), v.lift(v.ops.product(a_dual, b))),
    ]


def _mixed_conventions(v, A, B, C):
    al, b = A.coh, B.loop
    k, n = _hdeg(al), _hdeg(b)
    ab, br = v.product(A, B), v.bracket(A, B)
    return [
        (ab, v.lift(v.ops.cap(al, b))),
        (br, v.lift(v.ops.cap(v.ops.coh_delta(al), b).scale(sign_pow(k)))),
        (v.product(B, A), ab.scale(sign_pow(k * n))),
        (v.bracket(B, A), br.scale(-sign_pow((k + 1) * (n + 1)))),
        (v.bracket(A, C), v.zero()),
    ]


def _intersection_formula(v, config):
    """`loop_intersection` against an independent assembly in the coh view: sign
    and monomial recomputed here, the cup product folded right to left."""
    ats, frees, family = config
    lhs = loop_intersection(ats, frees, family, ops=v.ops)
    sign_exp = -len(frees)
    pieces = list(ats)
    for j, w in enumerate(frees, start=1):
        sign_exp += j * _hdeg(w)
        pieces.append(v.delta(w))
    omega = v.unit()
    for piece in reversed(pieces):
        omega = v.product(piece, omega)
    return [(lhs, v.ops.cap(omega, family).scale(sign_pow(sign_exp)))]


def _law(view, law, *labels):
    """The `evaluate` of a catalog row: `law` on the arguments lifted into `view`, one label per check."""

    def evaluate(ops, model, args):
        v = view(ops, model)
        sides = law(v, *map(v.lift, args))
        return [(label, lhs, rhs) for label, (lhs, rhs) in zip(labels, sides, strict=True)]

    return evaluate


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
            "delta-constant-loops", "Delta vanishes on constant-loop classes and on the unit", (ArgSpec("exterior"),),
            _law(_loop_view, _delta_constant, "Delta(s_star(x)) = 0", "Delta(1) = 0"),
        ),
        IdentityCase(
            "operator-commutator-product", "[D_b, M_c] = M_{{b,c}} as graded operator commutators", _LOOP3,
            _law(_loop_view, _derivation(_bracket_by, "product", True), "[D_b, M_c] = M_{{b,c}} on e"),
        ),
        IdentityCase(
            "operator-commutator-bracket", "[D_b, D_c] = D_{{b,c}} as graded operator commutators", _LOOP3,
            _law(_loop_view, _derivation(_bracket_by, "bracket", True), "[D_b, D_c] = D_{{b,c}} on e"),
        ),
        IdentityCase(
            "s-star-ring-map", "s_star is a unital ring map from the intersection ring", _EXTERIOR2,
            _law(_loop_view, _s_star_ring_map, "s(x)*s(y) = s(x*y)", "s(1) = 1"),
        ),
        IdentityCase(
            "dual-multiplicative", "D(x*y) = D(x) cup D(y) and Dinv o D = id on the exterior subring", _EXTERIOR2,
            _law(_loop_view, _dual_multiplicative, "D(x*y) = D(x) cup D(y)", "Dinv(D(x)) = x"),
        ),
        IdentityCase(
            "eq-1.1-base-cap-commutes",
            "alpha cap (x*y) = (alpha cap x)*y = (-1)^{|alpha||x|} x*(alpha cap y) on constant classes",
            (ArgSpec("base"),) + _EXTERIOR2,
            _law(
                _loop_view, _cap_commutes,
                "alpha cap (x*y) = (alpha cap x)*y", "alpha cap (x*y) = (-1)^{|alpha||x|} x*(alpha cap y)",
            ),
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
            "eq-4.6-cap-commutes-product", "cap with a base class graded-commutes with the loop product", _BASE_LOOP2,
            _law(
                _loop_view, _cap_commutes,
                "alpha cap (b*c) = (alpha cap b)*c", "alpha cap (b*c) = (-1)^{|alpha||b|} b*(alpha cap c)",
            ),
        ),
        IdentityCase(
            "eq-4.7-cap-derivation", "cap with coh_delta(alpha) is a derivation of the loop product", _BASE_LOOP2,
            _law(
                _loop_view, _derivation(_cap_by_delta, "product"),
                "Dalpha cap (b*c) = (Dalpha cap b)*c + (-1)^{(|alpha|-1)|b|} b*(Dalpha cap c)",
            ),
        ),
        IdentityCase(
            "eq-4.10-cap-bracket-derivation", "cap with coh_delta(alpha) is a derivation of the loop bracket",
            _BASE_LOOP2,
            _law(
                _loop_view, _derivation(_cap_by_delta, "bracket"),
                "Dalpha cap {b,c} = {Dalpha cap b,c} + (-1)^{(|alpha|-1)(|b|+1)} {b,Dalpha cap c}",
            ),
        ),
        IdentityCase(
            "eq-4.24-delta-cap-derivation",
            "Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b), any ring class w",
            (ArgSpec("coh"), ArgSpec("loop")),
            _law(
                _loop_view, _delta_cap_derivation,
                "Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b)",
            ),
        ),
        IdentityCase(
            "cap-on-constants-trivial", "cap of coh_delta(alpha) with constant-loop classes vanishes",
            (ArgSpec("base"), ArgSpec("exterior")),
            _law(_loop_view, _cap_constant_trivial, "Dalpha cap s_star(x) = 0"),
        ),
        IdentityCase(
            "cap-module-axiom", "(w1 cup w2) cap b = w1 cap (w2 cap b) and 1 cap b = b",
            (ArgSpec("coh"), ArgSpec("coh"), ArgSpec("loop")),
            _law(_coh_view, _cap_module, "(w1 cup w2) cap b = w1 cap (w2 cap b)", "1 cap b = b"),
        ),
        IdentityCase(
            "eq-5.1-cap-is-intersection",
            "alpha cap b = Dinv(alpha)*b and (-1)^{|alpha|} coh_delta(alpha) cap b = {Dinv(alpha),b}",
            _BASE_LOOP,
            _law(
                _loop_view, _cap_is_intersection,
                "alpha cap b = Dinv(alpha)*b", "(-1)^{|alpha|} Dalpha cap b = {Dinv(alpha),b}",
            ),
        ),
        IdentityCase(
            "eq-5.2-nested-brackets",
            "cap with a monomial equals the signed nested-bracket expansion, any factor order",
            (ArgSpec("coh", max_terms=1), ArgSpec("loop")),
            _law(
                _loop_view, _cap_expansion,
                "cap(w,b) = iterated single caps, canonical order",
                "cap(w,b) = iterated single caps, reversed order with Koszul sign",
            ),
        ),
        IdentityCase(
            "intertwiner-duality",
            "extended product/bracket against (0,b) realise Dinv: {(alpha,0),(0,b)} = (0,{Dinv(alpha),b})",
            _BASE_LOOP,
            _law(
                _ext_view, _intertwiner,
                "{(alpha,0),(0,b)} = (0,{Dinv(alpha),b})", "(alpha,0)*(0,b) = (0,Dinv(alpha)*b)",
            ),
        ),
        IdentityCase(
            "mixed-product-conventions",
            "mixed product/bracket conventions between base cohomology and loop classes",
            _BASE_LOOP + (ArgSpec("base"),),
            _law(
                _ext_view, _mixed_conventions,
                "alpha.b = alpha cap b",
                "{alpha,b} = (-1)^{|alpha|} Dalpha cap b",
                "b.alpha = (-1)^{|alpha||b|} alpha.b",
                "{b,alpha} = -(-1)^{(|alpha|+1)(|b|+1)} {alpha,b}",
                "{alpha,beta} = 0",
            ),
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
            "loop-intersection-formula", "loop_intersection equals its signed cap-product formula",
            (ArgSpec("intersect-config"),),
            _law(_coh_view, _intersection_formula, "intersection family = sign * cap(assembled class, family)"),
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

    `selection` is an iterable of identity ids (None means the full catalog);
    a string, an empty one or an unknown or non-string id is an error, not a silent no-op.
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
