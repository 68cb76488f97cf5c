"""Independent reference operators for checking benchmark outputs.

Delta, coh_delta and the cap product are computed by direct
differentiation on monomials; the bracket comes from the BV identity over
this module's own Delta.  Only kernel arithmetic (`Element`, `Monomial`,
`sign_pow`) is shared with the engine: nothing here calls `bv_delta`,
`loop_bracket`, `cap` or the test helpers, so an operator bug in the engine
cannot cancel against the same bug here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from loopbv.kernel import Element, Monomial, Ring, sign_pow


def _collect(model, ring, pairs) -> Element:
    terms = {}
    for mono, coeff in pairs:
        terms[mono] = terms.get(mono, 0) + coeff
    return Element(model, ring, {m: c for m, c in terms.items() if c})


def partial_odd(b: Element, i: int) -> Element:
    """Left derivative by the i-th odd generator."""
    out = []
    for m, c in b.terms.items():
        if i in m.odds:
            p = m.odds.index(i)  # d/da_i passes over p odd generators
            out.append((Monomial(m.odds[:p] + m.odds[p + 1:], m.exps), c * sign_pow(p)))
    return _collect(b.model, b.ring, out)


def partial_even(b: Element, i: int, times: int = 1) -> Element:
    """The `times`-fold partial derivative by the i-th even generator."""
    out = []
    for m, c in b.terms.items():
        k = m.exps[i - 1]
        if k < times:
            continue
        exps = m.exps[:i - 1] + (k - times,) + m.exps[i:]
        falling = 1
        for f in range(k - times + 1, k + 1):
            falling *= f
        out.append((Monomial(m.odds, exps), c * falling))
    return _collect(b.model, b.ring, out)


def delta(b: Element) -> Element:
    """Delta = sum_i d/du_i d/da_i."""
    result = Element.zero(b.model, Ring.LOOP)
    for i in range(1, b.model.rank + 1):
        result = result + partial_even(partial_odd(b, i), i)
    return result


def coh_delta(x: Element) -> Element:
    """The odd derivation alpha_i -> v_i."""
    out = []
    for m, c in x.terms.items():
        for p, i in enumerate(m.odds):
            exps = m.exps[:i - 1] + (m.exps[i - 1] + 1,) + m.exps[i:]
            out.append((Monomial(m.odds[:p] + m.odds[p + 1:], exps), c * sign_pow(p)))
    return _collect(x.model, Ring.COH, out)


def _degree(model, ring, m: Monomial) -> int:
    degs = model.generator_degrees
    odd = sum(degs[i - 1] for i in m.odds)
    even = sum(k * (degs[i] - 1) for i, k in enumerate(m.exps))
    return (-odd if ring is Ring.LOOP else odd) + even


def bracket(b: Element, c: Element) -> Element:
    """{b,c} = (-1)^|b| (Delta(bc) - Delta(b)c - (-1)^|b| b Delta(c)), per degree of b."""
    parts = {}
    for m, q in b.terms.items():
        parts.setdefault(_degree(b.model, b.ring, m), {})[m] = q
    result = Element.zero(b.model, Ring.LOOP)
    delta_c = delta(c)
    for deg, terms in parts.items():
        part = Element(b.model, Ring.LOOP, terms)
        s = sign_pow(deg)
        result = result + (delta(part * c) - delta(part) * c - (part * delta_c).scale(s)).scale(s)
    return result


def cap(omega: Element, b: Element) -> Element:
    """cap(alpha_T v^K, b) = a_T * d_u^K b, extended linearly in omega."""
    model = omega.model
    result = Element.zero(model, Ring.LOOP)
    for m, q in omega.terms.items():
        acted = b
        for i, k in enumerate(m.exps, start=1):
            if k:
                acted = partial_even(acted, i, k)
        a_t = Element(model, Ring.LOOP, {Monomial(m.odds, (0,) * model.rank): Fraction(1)})
        result = result + (a_t * acted).scale(q)
    return result


def basis(model, ring: Ring, max_degree: int, max_exp: int) -> list[Element]:
    """Monomials with |degree| <= max_degree and total even exponent <= max_exp,
    in (degree, odds, exps) order -- the order `loopbv table` lists them in."""
    r = model.rank
    exps_list = [e for e in itertools.product(range(max_exp + 1), repeat=r) if sum(e) <= max_exp]
    monos = [
        Monomial(odds, exps)
        for size in range(r + 1)
        for odds in itertools.combinations(range(1, r + 1), size)
        for exps in exps_list
    ]
    monos = [m for m in monos if abs(_degree(model, ring, m)) <= max_degree]
    monos.sort(key=lambda m: (_degree(model, ring, m), m.odds, m.exps))
    return [Element(model, ring, {m: Fraction(1)}) for m in monos]
