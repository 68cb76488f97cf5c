"""Cap products and the extended BV algebra H^*(M) (+) H_*(LM).

The cap product of the full cohomology ring on loop homology is defined
through the bracket calculus (eq. 5.2): on a monomial
w = alpha_T * prod_i v_i^{k_i},

    cap(w, b) = (-1)^{sum_i k_i d_i} * a_T * ({a_i, -} applied k_i times, i ascending)(b)

where a_T is the Poincare dual of alpha_T.  Bracket applications commute
here ({a_i, a_j} = 0 and the operators have even degree), so the ascending
order is a convention, not a choice that affects the result.

Bracketing with a_i is -d/du_i, and every d_i is odd, so the sign
(-1)^{sum_i k_i d_i} cancels against the (-1)^{sum_i k_i} of the derivatives
and the cap has the closed form

    cap(w, b) = a_T * (prod_i (d/du_i)^{k_i})(b).

`cap` evaluates it on each pair of terms, visiting only the v_i a term of
omega contains:

    cap(alpha_T v^K, a_S u^E) = [E >= K] * prod_i E_i!/(E_i - K_i)! * a_T a_S u^{E-K},

with a_T a_S carrying the Koszul sign of merging T and S.  It is the
closed form applied to one term, as (d/du_i)^{K_i} u_i^{E_i} is the falling
factorial E_i!/(E_i - K_i)! times u_i^{E_i - K_i}, and zero for K_i > E_i.
`nested_brackets` is the one expansion of eq. 5.2, through a given product
and bracket; the catalog identity `eq-5.2-nested-brackets` checks the closed
form against it in both factor orders.  `cap(bracket=)` is that expansion
through the loop product; no code in the package passes it, and it stays only
for the benchmark tracer, which counts a cap's brackets, until the tracer drops it.

Extended classes are honest pairs (base cohomology part, loop part), where
the base part is a cohomology class checked to have no v factors; a class
in cohomological degree k counts as homological degree -k, and all signs use
homological degrees.  The multiplicative unit is (1, 0), the unit of H^0(M):
mixed products push cohomology into the loop part (alpha . b = cap(alpha, b)),
the bracket of two cohomology classes vanishes, and the BV operator is the
loop Delta on the loop part and zero on the cohomology part.
`ExtendedClass(w, b)`, the one public spelling of a pair, checks its parts;
pairs built here skip the check (`_of`).

Every operation here takes its loop-homology primitives from a `BVOps`
bundle so that the verification suite can run the same identities against
deliberately broken primitives.  Signs of mixed terms need only degree
parities (a term's number of odd generators mod 2), so the extended operators
split a factor by parity and gather the mixed terms into one term dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Callable

from .kernel import (
    AlgebraError,
    Element,
    ModelSpec,
    _COH,
    _FIELD_MASK,
    _LOOP,
    _below,
    _clean,
    _expect,
    _same_model,
    sign_pow,
)
from .kernel import ANY_DEGREE, INHOMOGENEOUS
from .loop import bv_delta, loop_bracket, loop_product
from .loop import a as loop_a
from .cohomology import coh_delta, to_base


@dataclass(frozen=True)
class BVOps:
    """The injectable primitives: loop product, the two Deltas, bracket, cap.

    Each is linear and returns the ring and model the standard one does."""

    name: str
    product: Callable[[Element, Element], Element]
    delta: Callable[[Element], Element]
    bracket: Callable[[Element, Element], Element]
    cap: Callable[[Element, Element], Element]
    coh_delta: Callable[[Element], Element]


def cap(omega: Element, b: Element, *, bracket=None) -> Element:
    """Cap product of a cohomology class with a loop-homology class.

    Bilinear; the homological degree of the result is deg(b) - deg(omega).
    With `bracket` given, the cap is `nested_brackets` through the loop
    product and that bracket instead of the closed form; only the benchmark
    tracer passes it.
    """
    if omega.ring is not _COH:
        raise AlgebraError("cap: first argument must be a cohomology class, got %s" % omega.ring.value)
    if b.ring is not _LOOP:
        raise AlgebraError("cap: second argument must be a loop-homology class, got %s" % b.ring.value)
    _same_model(omega, b, "cap")
    if bracket is not None:
        return nested_brackets(omega, b, loop_product, bracket)
    if not omega._terms or not b._terms:
        return Element._of(omega.model, _LOOP, {})
    packing = omega.model._packing
    odd, shifts = packing.odd, packing.shifts
    terms = {}
    get, b_items = terms.get, b._terms.items()
    for m_w, coeff_w in omega._terms.items():
        odds_w = m_w & odd
        powers = []  # (field offset, K_i) for each K_i > 0
        for shift in shifts:
            if not (fields := m_w >> shift):
                break
            if k := fields & _FIELD_MASK:
                powers.append((shift, k))
        for m_b, coeff_b in b_items:
            odds_b = m_b & odd
            if odds_w & odds_b:
                continue
            coeff = coeff_w * coeff_b
            for shift, k in powers:
                e = m_b >> shift & _FIELD_MASK
                if e < k:
                    break
                coeff *= perm(e, k)
            else:
                if odds_w and odds_b and (odds_w & _below(odds_b)).bit_count() & 1:
                    coeff = -coeff
                # a_T a_S u^{E-K}: omega's odd mask joins, its exponents leave
                mono = m_b + odds_w - (m_w - odds_w)
                terms[mono] = get(mono, 0) + coeff
    return Element._of(omega.model, _LOOP, _clean(terms))


def nested_brackets(omega: Element, b: Element, product, bracket, forward: bool = False) -> Element:
    """Eq. 5.2: a term c*alpha_T v^K of omega sends b to c times product(a_i, -) for i in T,
    then (-1)^{d_i} bracket(a_i, -) K_i times for each i, applied last factor first; with
    `forward`, first factor first times the Koszul sign (-1)^{|T|(|T|-1)/2}.  The operators
    are linear, so a term stops at a zero partial result."""
    model, result = omega.model, Element.zero(omega.model, _LOOP)
    for mono, coeff in omega.terms.items():
        factors = [(i, False) for i in mono.odds] + [(i, True) for i, k in enumerate(mono.exps, 1) for _ in range(k)]
        if forward:
            coeff *= sign_pow(len(mono.odds) * (len(mono.odds) - 1) // 2)
        y = b
        for i, is_bracket in factors if forward else reversed(factors):
            if not y:
                break
            a_i = loop_a(model, i)
            y = bracket(a_i, y).scale(sign_pow(model.generator_degrees[i - 1])) if is_bracket else product(a_i, y)
        if y:
            result = result + y.scale(coeff)
    return result


STANDARD_OPS = BVOps(
    name="standard",
    product=loop_product,
    delta=bv_delta,
    bracket=loop_bracket,
    cap=cap,
    coh_delta=coh_delta,
)


class ExtendedClass:
    """A pair (base cohomology class, loop homology class) over one model."""

    __slots__ = ("model", "coh", "loop")

    def __init__(self, coh: Element, loop: Element):
        to_base(coh, "ExtendedClass")
        _expect(loop, "ExtendedClass", _LOOP)
        _same_model(coh, loop, "ExtendedClass")
        self.model = coh.model
        self.coh = coh
        self.loop = loop

    # -- constructors --------------------------------------------------

    @classmethod
    def _of(cls, coh: Element, loop: Element) -> "ExtendedClass":
        """Trusted constructor: `coh` a base class, `loop` a loop class, one model."""
        out = object.__new__(cls)
        out.model, out.coh, out.loop = coh.model, coh, loop
        return out

    @classmethod
    def zero(cls, model: ModelSpec) -> "ExtendedClass":
        return cls._of(Element.zero(model, _COH), Element.zero(model, _LOOP))

    @classmethod
    def unit(cls, model: ModelSpec) -> "ExtendedClass":
        return cls._of(Element.unit(model, _COH), Element.zero(model, _LOOP))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.coh) or bool(self.loop)

    def degree(self):
        """Homological degree; cohomological degree k counts as -k."""
        coh, loop = self.coh.degree(), self.loop.degree()
        if coh is ANY_DEGREE:
            return loop
        coh = coh if coh is INHOMOGENEOUS else -coh
        return coh if loop is ANY_DEGREE or loop == coh else INHOMOGENEOUS

    def homogeneous_components(self) -> dict[int, "ExtendedClass"]:
        cohs = {-k: w for k, w in self.coh.homogeneous_components().items()}
        loops = self.loop.homogeneous_components()
        coh0, loop0 = Element.zero(self.model, _COH), Element.zero(self.model, _LOOP)
        return {n: ExtendedClass._of(cohs.get(n, coh0), loops.get(n, loop0)) for n in sorted({*cohs, *loops})}

    # -- linear operations -------------------------------------------------

    def __add__(self, other: "ExtendedClass") -> "ExtendedClass":
        if not isinstance(other, ExtendedClass):
            return NotImplemented
        return ExtendedClass._of(self.coh + other.coh, self.loop + other.loop)

    def __sub__(self, other: "ExtendedClass") -> "ExtendedClass":
        return self + (-other)

    def __neg__(self) -> "ExtendedClass":
        return ExtendedClass._of(-self.coh, -self.loop)

    def scale(self, q) -> "ExtendedClass":
        return ExtendedClass._of(self.coh.scale(q), self.loop.scale(q))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedClass):
            return NotImplemented
        return self.coh == other.coh and self.loop == other.loop

    __hash__ = None

    def render(self, unicode: bool = False) -> str:
        return "(%s, %s)" % (self.coh.render(unicode), self.loop.render(unicode))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<extended %s | %s>" % (self.render(), self.model.name)


def _parity_parts(x: Element) -> list[tuple[int, Element]]:
    """The nonzero parts of `x` of even and of odd degree, as (parity, part)."""
    parts, odd = ({}, {}), x.model._packing.odd
    for mono, coeff in x._terms.items():
        parts[(mono & odd).bit_count() & 1][mono] = coeff
    return [(p, Element._of(x.model, x.ring, terms)) for p, terms in enumerate(parts) if terms]


def _gather(loop: Element, mixed: list) -> Element:
    """`loop` plus sign * c for each (sign, c) in `mixed`, in one term dict."""
    terms = dict(loop._terms)
    get = terms.get
    for sign, c in mixed:
        for mono, coeff in c._terms.items():
            terms[mono] = get(mono, 0) + (coeff if sign > 0 else -coeff)
    return Element._of(loop.model, _LOOP, _clean(terms))


def extended_product(x: ExtendedClass, y: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """The loop product extended over the direct sum; unit is (1, 0)."""
    _same_model(x, y, "extended_product")
    coh = x.coh * y.coh
    loop = ops.product(x.loop, y.loop)
    mixed = [(1, ops.cap(x.coh, y.loop))] if x.coh._terms and y.loop._terms else []
    if y.coh._terms and x.loop._terms:
        # b . alpha = (-1)^{|alpha||b|} alpha . b, per parity part
        loop_parts = _parity_parts(x.loop)
        mixed += [(sign_pow(k * n), ops.cap(w, b)) for k, w in _parity_parts(y.coh) for n, b in loop_parts]
    return ExtendedClass._of(coh, _gather(loop, mixed) if mixed else loop)


def extended_bracket(x: ExtendedClass, y: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """The loop bracket extended over the direct sum.

    {alpha, b} = (-1)^{|alpha|} cap(coh_delta(alpha), b), {alpha, beta} = 0,
    and {b, alpha} flips by -(-1)^{(|alpha|+1)(|b|+1)}; signs in homological
    degrees, per parity part.
    """
    _same_model(x, y, "extended_bracket")
    loop = ops.bracket(x.loop, y.loop)
    mixed = []
    if x.coh._terms and y.loop._terms:
        mixed += [(sign_pow(k), ops.cap(ops.coh_delta(w), y.loop)) for k, w in _parity_parts(x.coh)]
    if y.coh._terms and x.loop._terms:
        # (-1)^k times the flip -(-1)^{(k+1)(n+1)} is (-1)^{(k+1)n}
        loop_parts = _parity_parts(x.loop)
        for k, w in _parity_parts(y.coh):
            dw = ops.coh_delta(w)
            mixed += [(sign_pow((k + 1) * n), ops.cap(dw, b)) for n, b in loop_parts]
    return ExtendedClass._of(Element.zero(x.model, _COH), _gather(loop, mixed) if mixed else loop)


def extended_delta(x: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """BV operator on the direct sum: zero on cohomology, Delta on loops."""
    return ExtendedClass._of(Element.zero(x.model, _COH), ops.delta(x.loop))


def _intersection_class(w: Element, slot: str, pos: int, model: ModelSpec) -> Element:
    """Check one entry of a loop_intersection list and return it."""
    to_base(w, "loop_intersection: %s[%d]" % (slot, pos))
    if w.model != model:
        raise AlgebraError("loop_intersection: %s[%d] is over a different model" % (slot, pos))
    return w


def loop_intersection(
    at_basepoint: list[Element],
    free_time: list[Element],
    family: Element,
    *,
    ops: BVOps = STANDARD_OPS,
) -> Element:
    """Homology class of loops meeting base classes at fixed and free times.

    `at_basepoint` lists the cohomology classes dual to the submanifolds hit
    at prescribed loop times, `free_time` those hit at unconstrained times;
    the result is

        (-1)^{sum_j j*deg(beta_j) - s} cap(alpha_1...alpha_r' *
            coh_delta(beta_1)...coh_delta(beta_s), family)

    with s = len(free_time).  Both lists may be empty; with both empty the
    family is returned unchanged.
    """
    if family.ring is not _LOOP:
        raise AlgebraError("loop_intersection: family must be a loop-homology class")
    model = family.model
    omega = Element.unit(model, _COH)
    for pos, w in enumerate(at_basepoint):
        omega = omega * _intersection_class(w, "at_basepoint", pos, model)
    sign_exp = -len(free_time)
    for pos, w in enumerate(free_time):
        w = _intersection_class(w, "free_time", pos, model)
        if w and not isinstance(w.degree(), int):
            raise AlgebraError(
                "loop_intersection: free_time[%d] is inhomogeneous; "
                "its position-dependent sign needs a single degree" % pos
            )
        sign_exp += (pos + 1) * w.degree() if w else 0  # a zero class zeroes omega
        omega = omega * ops.coh_delta(w)
    return ops.cap(omega, family).scale(sign_pow(sign_exp))
