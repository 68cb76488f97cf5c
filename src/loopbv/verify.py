"""Seeded exact-equality verification of the BV identity catalog.

Every identity the engine claims is kept in one catalog, keyed by a stable
id, and checked on random homogeneous draws with exact rational equality.
Runs are deterministic: the draw for trial t of identity I under seed S
comes from ``random.Random("S|I|t")``, so a failing report can always be
replayed bit for bit from (model, seed, identity, trial).  A report of a
model that is not the built-in of its name also stores the model's degrees,
so it replays from the report alone.

Each algebra law (commutativity, associativity, unit, antisymmetry, the BV
identity, Poisson, Poisson with a product first, Jacobi, square-zero) is
written once against a *view*: one algebra's product, bracket, Delta, zero,
unit and argument lift, bound to an ops bundle.  The views are loop, coh
(cup and coh_delta) and ext (H^*(M) (+) H_*(LM)).  An identity that is a law
is one catalog row, ``_law(view, law, *check_labels)``; any other identity
gets its own ``evaluate(ops, model, args)`` returning (label, lhs, rhs) checks.

A registry of deliberately broken primitive bundles ("mutations": one sign
flipped or one term dropped in Delta, the bracket, the product, the cap, or
the cohomology Delta; each is `STANDARD_OPS` plus the fields its row of
`MUTATION_BREAKS` names) exists so tests can confirm the suite actually
detects broken algebra rather than passing vacuously.
"""

from __future__ import annotations

import json
import random
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple

from .kernel import (
    AlgebraError,
    Element,
    ModelSpec,
    Ring,
    basis_index,
    random_element,
    sign_pow,
)
from .loop import bv_delta, loop_bracket, partial_a, partial_u, s_star
from .loop import a as loop_a
from .loop import u as loop_u
from .cohomology import (
    alpha,
    coh_delta,
    poincare_dual,
    poincare_dual_inverse,
    to_full,
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
)

CATALOG_VERSION = "1"

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
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING})


def reports_to_jsonl(reports) -> str:
    return "\n".join(report.to_json() for report in reports)


# ---------------------------------------------------------------------------
# random draws


def _default_window(model: ModelSpec) -> tuple[int, int]:
    d = model.dimension
    return (-d - 2, 2 * d)


def _hdeg(x) -> int:
    """Degree as an int for sign purposes; zero elements count as degree 0."""
    deg = x.degree()
    return deg if isinstance(deg, int) else 0


@lru_cache(maxsize=None)
def _extended_degrees(model: ModelSpec):
    """Candidate degrees of an `ext` draw, plus the populated loop and base degrees."""
    lo, hi = _default_window(model)
    loop_degs = frozenset(basis_index(model, Ring.LOOP, SUITE_EVEN_CAP).degrees)
    base_degs = frozenset(basis_index(model, Ring.BASE, 0).degrees)
    candidates = tuple(sorted(
        {n for n in loop_degs if lo <= n <= hi}
        | {-k for k in base_degs if lo <= -k <= hi}
    ))
    return candidates, loop_degs, base_degs


def _draw_extended(model: ModelSpec, rng: random.Random, max_terms: int) -> ExtendedClass:
    candidates, loop_degs, base_degs = _extended_degrees(model)
    n = rng.choice(candidates)
    coh = Element.zero(model, Ring.BASE)
    loop = Element.zero(model, Ring.LOOP)
    want_coh = -n in base_degs and rng.random() < 0.6
    want_loop = n in loop_degs and (rng.random() < 0.8 or not want_coh)
    if want_coh:
        coh = random_element(model, Ring.BASE, (-n, -n), max_terms, rng)
    if want_loop:
        loop = random_element(model, Ring.LOOP, (n, n), max_terms, rng, even_cap=SUITE_EVEN_CAP)
    if coh.is_zero() and loop.is_zero():
        loop = random_element(model, Ring.LOOP, (0, 0), max_terms, rng, even_cap=SUITE_EVEN_CAP)
    return ExtendedClass(coh, loop)


def _draw_intersect_config(model: ModelSpec, rng: random.Random):
    d = model.dimension
    at_count = rng.randint(0, 3)
    free_count = rng.randint(0, 3)
    ats = [random_element(model, Ring.BASE, (0, d), 1, rng) for _ in range(at_count)]
    frees = [random_element(model, Ring.BASE, (0, d), 2, rng) for _ in range(free_count)]
    family = random_element(
        model, Ring.LOOP, _default_window(model), 2, rng, even_cap=SUITE_EVEN_CAP
    )
    return (ats, frees, family)


def _draw(spec: ArgSpec, model: ModelSpec, rng: random.Random):
    d = model.dimension
    window = spec.window if spec.window is not None else _default_window(model)
    kind = spec.kind
    if kind == "loop":
        return random_element(model, Ring.LOOP, window, spec.max_terms, rng, even_cap=SUITE_EVEN_CAP)
    if kind == "exterior":
        return random_element(model, Ring.LOOP, (-d, 0), spec.max_terms, rng, even_cap=0)
    if kind == "base":
        return random_element(model, Ring.BASE, (0, d), spec.max_terms, rng)
    if kind == "coh":
        return random_element(model, Ring.COH, (0, 2 * d), spec.max_terms, rng, even_cap=SUITE_EVEN_CAP)
    if kind == "ext":
        return _draw_extended(model, rng, spec.max_terms)
    if kind == "intersect-config":
        return _draw_intersect_config(model, rng)
    raise AlgebraError("unknown draw kind %r" % kind)


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
    bracket: Callable | None
    delta: Callable
    zero: Callable  # () -> the zero class, made only when a law asks
    unit: Callable  # () -> the unit class, likewise
    lift: Callable  # a drawn argument -> an element of this algebra


def _same(x):
    return x


def _loop_view(ops, model) -> _View:
    return _View(
        ops.product, ops.bracket, ops.delta,
        lambda: Element.zero(model, Ring.LOOP), lambda: Element.unit(model, Ring.LOOP), _same,
    )


def _coh_view(ops, model) -> _View:
    """Cup product and coh_delta; coh_delta is a derivation, so no bracket."""
    return _View(
        mul, None, ops.coh_delta,
        lambda: Element.zero(model, Ring.COH), lambda: Element.unit(model, Ring.COH), _same,
    )


def _ext_lift(x) -> ExtendedClass:
    """A base class x as (x, 0), a loop class b as (0, b), an extended class as itself."""
    if isinstance(x, ExtendedClass):
        return x
    return ExtendedClass.from_loop(x) if x.ring is Ring.LOOP else ExtendedClass.from_coh(x)


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


def _bv_identity(v, x, y):
    s = sign_pow(_hdeg(x))
    lhs = v.delta(v.product(x, y))
    rhs = (
        v.product(v.delta(x), y)
        + v.product(x, v.delta(y)).scale(s)
        + v.bracket(x, y).scale(s)
    )
    return [(lhs, rhs)]


def _poisson(v, x, y, z):
    lhs = v.bracket(x, v.product(y, z))
    rhs = v.product(v.bracket(x, y), z) + v.product(y, v.bracket(x, z)).scale(
        sign_pow(_hdeg(y) * (_hdeg(x) + 1))
    )
    return [(lhs, rhs)]


def _poisson_product_first(v, x, y, z):
    """Poisson with the product in the first slot: {x.y,z} = x.{y,z} + (-1)^{|x||y|} y.{x,z}."""
    lhs = v.bracket(v.product(x, y), z)
    rhs = v.product(x, v.bracket(y, z)) + v.product(y, v.bracket(x, z)).scale(
        sign_pow(_hdeg(x) * _hdeg(y))
    )
    return [(lhs, rhs)]


def _jacobi(v, x, y, z):
    lhs = v.bracket(x, v.bracket(y, z))
    rhs = v.bracket(v.bracket(x, y), z) + v.bracket(y, v.bracket(x, z)).scale(
        sign_pow((_hdeg(x) + 1) * (_hdeg(y) + 1))
    )
    return [(lhs, rhs)]


def _square_zero(v, x):
    return [(v.delta(v.delta(x)), v.zero())]


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
    lz = Element.zero(model, Ring.LOOP)
    cz = Element.zero(model, Ring.COH)
    lu = Element.unit(model, Ring.LOOP)
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
    lz = Element.zero(model, Ring.LOOP)
    return [
        ("Delta(s_star(x)) = 0", ops.delta(s_star(x)), lz),
        ("Delta(1) = 0", ops.delta(Element.unit(model, Ring.LOOP)), lz),
    ]


def _operator_commutator(over, shift, label):
    """`evaluate` for [D_b, O_c] = O_{{b,c}} on e, with O_c the loop operation
    `over` ("product" or "bracket") by c, whose degree is shifted by `shift`
    (0 for the product, 1 for the bracket)."""

    def evaluate(ops, model, args):
        b, c, e = args
        op = getattr(ops, over)
        lhs = ops.bracket(b, op(c, e)) - op(c, ops.bracket(b, e)).scale(
            sign_pow((_hdeg(b) + 1) * (_hdeg(c) + shift))
        )
        rhs = op(ops.bracket(b, c), e)
        return [(label, lhs, rhs)]

    return evaluate


def _ev_s_star_ring_map(ops, model, args):
    x, y = args
    return [
        ("s(x)*s(y) = s(x*y)", ops.product(s_star(x), s_star(y)), s_star(ops.product(x, y))),
        ("s(1) = 1", s_star(Element.unit(model, Ring.LOOP)), Element.unit(model, Ring.LOOP)),
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
        alf = to_full(al)
        lhs = ops.cap(alf, ops.product(x, y))
        return [
            (first_label, lhs, ops.product(ops.cap(alf, x), y)),
            (second_label, lhs, ops.product(x, ops.cap(alf, y)).scale(sign_pow(_hdeg(al) * _hdeg(x)))),
        ]

    return evaluate


def _ev_coh_delta_derivation(ops, model, args):
    x, y = args
    lhs = ops.coh_delta(x * y)
    rhs = ops.coh_delta(x) * y + (x * ops.coh_delta(y)).scale(sign_pow(_hdeg(x)))
    return [("coh_delta(x cup y) = coh_delta(x) cup y + (-1)^{|x|} x cup coh_delta(y)", lhs, rhs)]


def _cap_derivation(over, shift, label):
    """`evaluate` for: Dalpha cap - is a derivation of degree |alpha|-1 of the
    loop operation `over` ("product" or "bracket"), whose operands count with
    degree shifted by `shift` (0 for the product, 1 for the bracket)."""

    def evaluate(ops, model, args):
        al, b, c = args
        op = getattr(ops, over)
        da = ops.coh_delta(to_full(al))
        lhs = ops.cap(da, op(b, c))
        rhs = op(ops.cap(da, b), c) + op(b, ops.cap(da, c)).scale(
            sign_pow((_hdeg(al) - 1) * (_hdeg(b) + shift))
        )
        return [(label, lhs, rhs)]

    return evaluate


def _ev_delta_cap_derivation(ops, model, args):
    w, b = args
    lhs = ops.delta(ops.cap(w, b))
    rhs = ops.cap(ops.coh_delta(w), b) + ops.cap(w, ops.delta(b)).scale(sign_pow(_hdeg(w)))
    return [("Delta(w cap b) = coh_delta(w) cap b + (-1)^{|w|} w cap Delta(b)", lhs, rhs)]


def _ev_cap_constant_trivial(ops, model, args):
    al, x = args
    lhs = ops.cap(ops.coh_delta(to_full(al)), s_star(x))
    return [("Dalpha cap s_star(x) = 0", lhs, Element.zero(model, Ring.LOOP))]


def _ev_cap_module_axiom(ops, model, args):
    w1, w2, b = args
    return [
        ("(w1 cup w2) cap b = w1 cap (w2 cap b)", ops.cap(w1 * w2, b), ops.cap(w1, ops.cap(w2, b))),
        ("1 cap b = b", ops.cap(Element.unit(model, Ring.COH), b), b),
    ]


def _ev_cap_is_intersection(ops, model, args):
    al, b = args
    alf = to_full(al)
    a_dual = poincare_dual_inverse(al)
    return [
        ("alpha cap b = Dinv(alpha)*b", ops.cap(alf, b), ops.product(a_dual, b)),
        (
            "(-1)^{|alpha|} Dalpha cap b = {Dinv(alpha),b}",
            ops.cap(ops.coh_delta(alf), b).scale(sign_pow(_hdeg(al))),
            ops.bracket(a_dual, b),
        ),
    ]


def _ev_nested_brackets(ops, model, args):
    w, b = args
    degs = model.generator_degrees
    if w.is_zero():
        zero = Element.zero(model, Ring.LOOP)
        return [("cap(0,b) = 0", ops.cap(w, b), zero)]
    ((mono, coeff),) = tuple(w.terms.items())
    factors = [("odd", i) for i in mono.odds]
    for idx, k in enumerate(mono.exps):
        factors.extend(("even", idx + 1) for _ in range(k))

    def single(factor, y):
        kind, i = factor
        if kind == "odd":
            return ops.product(loop_a(model, i), y)
        return ops.bracket(loop_a(model, i), y).scale(sign_pow(degs[i - 1]))

    route_a = ops.cap(w, b)
    y = b
    for factor in reversed(factors):
        y = single(factor, y)
    route_b = y.scale(coeff)
    odd_count = len(mono.odds)
    rev_sign = sign_pow(odd_count * (odd_count - 1) // 2)
    y = b
    for factor in factors:
        y = single(factor, y)
    route_c = y.scale(coeff * rev_sign)
    return [
        ("cap(w,b) = iterated single caps, canonical order", route_a, route_b),
        ("cap(w,b) = iterated single caps, reversed order with Koszul sign", route_a, route_c),
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
        ("alpha.b = alpha cap b", ab, ext.lift(ops.cap(to_full(al), b))),
        (
            "{alpha,b} = (-1)^{|alpha|} Dalpha cap b",
            br,
            ext.lift(ops.cap(ops.coh_delta(to_full(al)), b).scale(sign_pow(k))),
        ),
        ("b.alpha = (-1)^{|alpha||b|} alpha.b", ext.product(B, A), ab.scale(sign_pow(k * n))),
        (
            "{b,alpha} = -(-1)^{(|alpha|+1)(|b|+1)} {alpha,b}",
            ext.bracket(B, A),
            br.scale(-sign_pow((k + 1) * (n + 1))),
        ),
        ("{alpha,beta} = 0", ext.bracket(A, C), ext.zero()),
    ]


def _ev_curious_identity(ops, model, args):
    al, b, c = args
    ext = _ext_view(ops, model)
    A, B, C = map(ext.lift, args)
    k, n = _hdeg(al), _hdeg(b)
    sn = sign_pow(n)
    t1 = ext.bracket(A, ext.product(B, C)) + ext.product(A, ext.bracket(B, C)).scale(sn)
    t2 = ext.product(ext.bracket(A, B), C) + ext.bracket(ext.product(A, B), C).scale(sn)
    t3 = (
        ext.product(B, ext.bracket(A, C)) + ext.bracket(B, ext.product(A, C)).scale(sign_pow(k))
    ).scale(sign_pow((k + 1) * n))
    return [
        ("{alpha,b.c} + (-1)^{|b|}alpha.{b,c} = {alpha,b}.c + (-1)^{|b|}{alpha.b,c}", t1, t2),
        ("... = (-1)^{(|alpha|+1)|b|}(b.{alpha,c} + (-1)^{|alpha|}{b,alpha.c})", t2, t3),
    ]


def _ev_loop_intersection(ops, model, args):
    ((ats, frees, family),) = args
    lhs = loop_intersection(ats, frees, family, ops=ops)
    # independent assembly: sign and monomial recomputed here, cup folded
    # right to left
    sign_exp = -len(frees)
    pieces = [to_full(w) for w in ats]
    for j, w in enumerate(frees, start=1):
        sign_exp += j * _hdeg(w)
        pieces.append(ops.coh_delta(to_full(w)))
    omega = Element.unit(model, Ring.COH)
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
            _ev_coh_delta_derivation,
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
            _ev_curious_identity,
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


def _bracket_from_delta(delta):
    """The bracket a Delta induces through the BV identity; the reference
    against which the closed-form `loop_bracket` is checked."""

    def bracket(b, c):
        result = Element.zero(b.model, Ring.LOOP)
        delta_c = delta(c)
        for deg, part in b.homogeneous_components().items():
            s = sign_pow(deg)
            result = result + (
                delta(part * c) - delta(part) * c - (part * delta_c).scale(s)
            ).scale(s)
        return result

    return bracket


#: Each mutation bundle is `STANDARD_OPS` with the `BVOps` fields of its row
#: replaced: one sign flipped, or one term dropped or added.
MUTATION_BREAKS: dict[str, dict[str, Callable]] = {
    "delta-sign-flip": {"delta": lambda b: -bv_delta(b)},
    # drops the contribution of the last generator pair
    "delta-drop-term": {"delta": lambda b: bv_delta(b) - partial_u(partial_a(b, b.model.rank), b.model.rank)},
    "delta-extra-term": {"delta": lambda b: bv_delta(b) + partial_u(b, 1)},
    "bracket-sign-flip": {"bracket": lambda b, c: -loop_bracket(b, c)},
    # the BV-identity bracket without its -b*Delta(c) term
    "bracket-drop-term": {"bracket": lambda b, c: loop_bracket(b, c) + b * bv_delta(c)},
    # the bracket measures how far Delta is from a derivation, and d/da_1 is an
    # odd derivation: this Delta induces the standard bracket, and through it
    # (eq. 5.2) the standard cap, so only `delta` is broken
    "delta-exterior-term": {"delta": lambda b: bv_delta(b) + partial_a(b, 1)},
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


def _render_value(value) -> str:
    if isinstance(value, (Element, ExtendedClass)):
        return str(value)
    if isinstance(value, tuple) and len(value) == 3:
        ats, frees, family = value
        return "at=[%s] free=[%s] family=%s" % (
            "; ".join(str(w) for w in ats),
            "; ".join(str(w) for w in frees),
            family,
        )
    return repr(value)


def _failing_checks(case, ops, model, args):
    return [
        {"check": label, "lhs": _render_value(lhs), "rhs": _render_value(rhs)}
        for label, lhs, rhs in case.evaluate(ops, model, args)
        if lhs != rhs
    ]


def _drop_one_term(value):
    """Yield copies of `value` with a single monomial term removed."""
    if isinstance(value, Element):
        for mono in sorted(value.terms):
            smaller = dict(value.terms)
            del smaller[mono]
            yield Element._of(value.model, value.ring, smaller)
    elif isinstance(value, ExtendedClass):
        for coh in _drop_one_term(value.coh):
            yield ExtendedClass(coh, value.loop)
        for loop in _drop_one_term(value.loop):
            yield ExtendedClass(value.coh, loop)
    elif isinstance(value, tuple) and len(value) == 3:
        ats, frees, family = value
        for idx, w in enumerate(ats):
            for smaller in _drop_one_term(w):
                yield (ats[:idx] + [smaller] + ats[idx + 1 :], frees, family)
        for idx, w in enumerate(frees):
            for smaller in _drop_one_term(w):
                yield (ats, frees[:idx] + [smaller] + frees[idx + 1 :], family)
        for smaller in _drop_one_term(family):
            yield (ats, frees, smaller)


def _minimize_args(case, ops, model, args):
    """Greedily drop monomial terms from the arguments while the failure persists."""
    args = list(args)
    changed = True
    while changed:
        changed = False
        for idx in range(len(args)):
            for smaller in _drop_one_term(args[idx]):
                candidate = args[:idx] + [smaller] + args[idx + 1 :]
                try:
                    still_failing = bool(_failing_checks(case, ops, model, candidate))
                except AlgebraError:
                    # dropping the term made the arguments degenerate
                    still_failing = False
                if still_failing:
                    args = candidate
                    changed = True
                    break
            if changed:
                break
    return args


def _build_witness(case, ops, model, trial, args):
    failing = _failing_checks(case, ops, model, args)
    minimized = _minimize_args(case, ops, model, args)
    return {
        "trial": trial,
        "args": [_render_value(v) for v in args],
        "failing": failing,
        "minimized_args": [_render_value(v) for v in minimized],
        "minimized_failing": _failing_checks(case, ops, model, minimized),
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
    an unknown id is an error, not a silent no-op.  Reports come back in
    catalog order.  `ops` names a primitive bundle from the registry, for
    running the suite against deliberately broken algebra.
    """
    if trials < 1:
        raise AlgebraError("trials must be >= 1, got %d" % trials)
    ops_obj = get_ops(ops)
    if selection is None:
        chosen = list(CATALOG)
    else:
        chosen = list(selection)
        for ident in chosen:
            if ident not in CATALOG:
                raise AlgebraError(
                    "unknown identity id %r (see the catalog for known ids)" % ident
                )
        wanted = set(chosen)
        chosen = [ident for ident in CATALOG if ident in wanted]
    degrees = None if model == builtin_named(model.name) else list(model.generator_degrees)
    reports = []
    for ident in chosen:
        case = CATALOG[ident]
        status, witness = "pass", None
        for trial in range(trials):
            rng = trial_rng(seed, ident, trial)
            args = [_draw(spec, model, rng) for spec in case.args]
            if _failing_checks(case, ops_obj, model, args):
                status = "fail"
                witness = _build_witness(case, ops_obj, model, trial, args)
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


def replay(report: CheckReport, model: ModelSpec | None = None) -> CheckReport:
    """Re-run one report's identity from its seed; must reproduce it exactly.

    The model is built from the report's degrees when it stores them, else
    resolved from its name, unless given; a model, catalog or ops mismatch
    is an error rather than silently ignored.
    """
    if report.catalog != CATALOG_VERSION:
        raise AlgebraError(
            "catalog version mismatch: report has %r, current is %r"
            % (report.catalog, CATALOG_VERSION)
        )
    if report.identity not in CATALOG:
        raise AlgebraError("unknown identity id %r in report" % report.identity)
    stored = report.generator_degrees
    if model is None:
        model = resolve_model(report.model) if stored is None else ModelSpec(report.model, stored)
    if model.name != report.model:
        raise AlgebraError(
            "model mismatch: report is for %r, given model is %r" % (report.model, model.name)
        )
    if stored is not None and list(model.generator_degrees) != stored:
        raise AlgebraError(
            "model mismatch: report for %r has degrees %s, given model has degrees %s"
            % (report.model, stored, list(model.generator_degrees))
        )
    result = run_suite(model, report.trials, report.seed, [report.identity], ops=report.ops)[0]
    # a line written before reports stored degrees replays in its own form
    return result if stored is not None else replace(result, generator_degrees=None)
