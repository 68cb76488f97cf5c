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
Passing `bracket=` expands eq. 5.2 with the given bracket instead
(`_cap_by_brackets`); the catalog identity `eq-5.2-nested-brackets` checks
the closed form against the nested brackets.  No code in the package passes
`bracket=`; it stays for the benchmark tracer, which counts a cap's brackets,
and for the tests that check the closed form against eq. 5.2.

Extended classes are honest pairs (base cohomology part, loop part); a class
in cohomological degree k counts as homological degree -k, and all signs use
homological degrees.  The multiplicative unit is (1, 0), the unit of H^0(M):
mixed products push cohomology into the loop part (alpha . b = cap(alpha, b)),
the bracket of two cohomology classes vanishes, and the BV operator is the
loop Delta on the loop part and zero on the cohomology part.

Every operation here takes its loop-homology primitives from a `BVOps`
bundle so that the verification suite can run the same identities against
deliberately broken primitives.
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
    Monomial,
    Ring,
    _add_into,
    _is_exterior,
    _merge_odds,
    _same_model,
    _tuple_new,
    sign_pow,
)
from .loop import bv_delta, loop_bracket, loop_product
from .loop import a as loop_a
from .cohomology import coh_delta, to_base, to_full


@dataclass(frozen=True)
class BVOps:
    """The injectable primitives: loop product, the two Deltas, bracket, cap."""

    name: str
    product: Callable[[Element, Element], Element]
    delta: Callable[[Element], Element]
    bracket: Callable[[Element, Element], Element]
    cap: Callable[[Element, Element], Element]
    coh_delta: Callable[[Element], Element]


def cap(omega: Element, b: Element, *, bracket=None) -> Element:
    """Cap product of a cohomology class with a loop-homology class.

    Bilinear; the homological degree of the result is deg(b) - deg(omega).
    With `bracket` given, the cap is expanded through that bracket (eq. 5.2)
    instead of the closed form; only the benchmark tracer and the eq. 5.2
    reference tests pass it.
    """
    if omega.ring is Ring.BASE:
        omega = to_full(omega)
    if omega.ring is not Ring.COH:
        raise AlgebraError("cap: first argument must be a cohomology class, got %s" % omega.ring.value)
    if b.ring is not Ring.LOOP:
        raise AlgebraError("cap: second argument must be a loop-homology class, got %s" % b.ring.value)
    _same_model(omega, b, "cap")
    if bracket is not None:
        return _cap_by_brackets(omega, b, bracket)
    terms = {}
    b_items = b.terms.items()
    for (odds_w, exps_w), coeff_w in omega.terms.items():
        powers = [(j, k) for j, k in enumerate(exps_w) if k]
        for (odds_b, exps_b), coeff_b in b_items:
            factor = 1
            for j, k in powers:
                e = exps_b[j]
                if e < k:
                    break
                factor *= perm(e, k)
            else:
                sign, odds = _merge_odds(odds_w, odds_b)
                if not sign:
                    continue
                exps = exps_b
                if powers:
                    exps = list(exps_b)
                    for j, k in powers:
                        exps[j] -= k
                    exps = tuple(exps)
                mono = _tuple_new(Monomial, (odds, exps))
                _add_into(terms, mono, coeff_w * coeff_b * (factor if sign > 0 else -factor))
    return Element._of(omega.model, Ring.LOOP, terms)


def _cap_by_brackets(omega: Element, b: Element, bracket) -> Element:
    """The cap expanded through `bracket` by eq. 5.2, term by term of omega."""
    model = omega.model
    no_exps = (0,) * model.rank
    result = Element.zero(model, Ring.LOOP)
    for mono, coeff in omega.terms.items():
        acted = b
        for i, k in enumerate(mono.exps, start=1):
            if k and acted:
                gen = loop_a(model, i)
                for _ in range(k):
                    acted = bracket(gen, acted)
                acted = acted.scale(sign_pow(k * model.generator_degrees[i - 1]))
        if acted:
            a_t = Element._of(model, Ring.LOOP, {Monomial(mono.odds, no_exps): coeff})
            result = result + a_t * acted
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
        if coh.ring is Ring.COH:
            coh = to_base(coh, "ExtendedClass")
        if coh.ring is not Ring.BASE:
            raise AlgebraError("ExtendedClass: coh part must be base cohomology, got %s" % coh.ring.value)
        if loop.ring is not Ring.LOOP:
            raise AlgebraError("ExtendedClass: loop part must be loop homology, got %s" % loop.ring.value)
        _same_model(coh, loop, "ExtendedClass")
        self.model = coh.model
        self.coh = coh
        self.loop = loop

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, model: ModelSpec) -> "ExtendedClass":
        return cls(Element.zero(model, Ring.BASE), Element.zero(model, Ring.LOOP))

    @classmethod
    def unit(cls, model: ModelSpec) -> "ExtendedClass":
        return cls(Element.unit(model, Ring.BASE), Element.zero(model, Ring.LOOP))

    @classmethod
    def from_coh(cls, w: Element) -> "ExtendedClass":
        return cls(w, Element.zero(w.model, Ring.LOOP))

    @classmethod
    def from_loop(cls, b: Element) -> "ExtendedClass":
        return cls(Element.zero(b.model, Ring.BASE), b)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.coh.is_zero() and self.loop.is_zero()

    def degree(self):
        """Homological degree; cohomological degree k counts as -k."""
        from .kernel import ANY_DEGREE, INHOMOGENEOUS

        degs = set()
        for k in self.coh.homogeneous_components():
            degs.add(-k)
        for n in self.loop.homogeneous_components():
            degs.add(n)
        if not degs:
            return ANY_DEGREE
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def homogeneous_components(self) -> dict[int, "ExtendedClass"]:
        parts: dict[int, ExtendedClass] = {}
        for k, w in self.coh.homogeneous_components().items():
            parts[-k] = ExtendedClass(w, Element.zero(self.model, Ring.LOOP))
        for n, b in self.loop.homogeneous_components().items():
            if n in parts:
                parts[n] = ExtendedClass(parts[n].coh, b)
            else:
                parts[n] = ExtendedClass(Element.zero(self.model, Ring.BASE), b)
        return dict(sorted(parts.items()))

    # -- linear operations -------------------------------------------------

    def __add__(self, other: "ExtendedClass") -> "ExtendedClass":
        if not isinstance(other, ExtendedClass):
            return NotImplemented
        return ExtendedClass(self.coh + other.coh, self.loop + other.loop)

    def __sub__(self, other: "ExtendedClass") -> "ExtendedClass":
        return self + (-other)

    def __neg__(self) -> "ExtendedClass":
        return ExtendedClass(-self.coh, -self.loop)

    def scale(self, q) -> "ExtendedClass":
        return ExtendedClass(self.coh.scale(q), self.loop.scale(q))

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


def extended_product(x: ExtendedClass, y: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """The loop product extended over the direct sum; unit is (1, 0)."""
    _same_model(x, y, "extended_product")
    coh = x.coh * y.coh
    loop = ops.product(x.loop, y.loop)
    if not x.coh.is_zero() and not y.loop.is_zero():
        loop = loop + ops.cap(to_full(x.coh), y.loop)
    if not y.coh.is_zero() and not x.loop.is_zero():
        # b . alpha = (-1)^{|alpha||b|} alpha . b, per homogeneous component
        for k, w in y.coh.homogeneous_components().items():
            wf = to_full(w)
            for n, b in x.loop.homogeneous_components().items():
                loop = loop + ops.cap(wf, b).scale(sign_pow(k * n))
    return ExtendedClass(coh, loop)


def extended_bracket(x: ExtendedClass, y: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """The loop bracket extended over the direct sum.

    {alpha, b} = (-1)^{|alpha|} cap(coh_delta(alpha), b), {alpha, beta} = 0,
    and {b, alpha} flips by -(-1)^{(|alpha|+1)(|b|+1)}; signs in homological
    degrees, per homogeneous component.
    """
    _same_model(x, y, "extended_bracket")
    model = x.model
    loop = ops.bracket(x.loop, y.loop)
    if not x.coh.is_zero() and not y.loop.is_zero():
        for k, w in x.coh.homogeneous_components().items():
            loop = loop + ops.cap(ops.coh_delta(to_full(w)), y.loop).scale(sign_pow(k))
    if not y.coh.is_zero() and not x.loop.is_zero():
        for k, w in y.coh.homogeneous_components().items():
            capped_sign = sign_pow(k)
            for n, b in x.loop.homogeneous_components().items():
                flip = -sign_pow((k + 1) * (n + 1))
                term = ops.cap(ops.coh_delta(to_full(w)), b).scale(capped_sign * flip)
                loop = loop + term
    return ExtendedClass(Element.zero(model, Ring.BASE), loop)


def extended_delta(x: ExtendedClass, *, ops: BVOps = STANDARD_OPS) -> ExtendedClass:
    """BV operator on the direct sum: zero on cohomology, Delta on loops."""
    return ExtendedClass(Element.zero(x.model, Ring.BASE), ops.delta(x.loop))


def _intersection_class(w: Element, slot: str, pos: int, model: ModelSpec) -> Element:
    """Check one entry of a loop_intersection list; return it in the full ring."""
    w = to_full(w) if w.ring is Ring.BASE else w
    if w.ring is not Ring.COH:
        raise AlgebraError("loop_intersection: %s[%d] must be a base cohomology class" % (slot, pos))
    if not _is_exterior(w):
        raise AlgebraError("loop_intersection: %s[%d] is not in the base subring" % (slot, pos))
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
    if family.ring is not Ring.LOOP:
        raise AlgebraError("loop_intersection: family must be a loop-homology class")
    model = family.model
    omega = Element.unit(model, Ring.COH)
    for pos, w in enumerate(at_basepoint):
        omega = omega * _intersection_class(w, "at_basepoint", pos, model)
    frees = []
    for pos, w in enumerate(free_time):
        w = _intersection_class(w, "free_time", pos, model)
        if w and not isinstance(w.degree(), int):
            raise AlgebraError(
                "loop_intersection: free_time[%d] is inhomogeneous; "
                "its position-dependent sign needs a single degree" % pos
            )
        frees.append(w)
    if not all(frees):  # every entry is checked before a zero class ends the product
        return Element.zero(model, Ring.LOOP)
    sign_exp = -len(frees)
    for pos, w in enumerate(frees):
        sign_exp += (pos + 1) * w.degree()
        omega = omega * ops.coh_delta(w)
    return ops.cap(omega, family).scale(sign_pow(sign_exp))
