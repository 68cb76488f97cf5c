"""The loop-homology BV algebra of a model.

The ring is the free graded-commutative algebra on a_i (odd, degree -d_i)
and u_i (even, degree d_i - 1); the unit is the class of constant loops.
Every operator here is built from two partial derivatives:

* d/da_i, the left derivation (a factor of -1 for each odd generator
  standing before a_i), `partial_a`;
* d/du_i, the plain partial derivative, `partial_u`; applied t times to
  u_i^k it brings down the falling factorial k(k-1)...(k-t+1).

The BV operator is the second-order odd operator

    Delta = sum_i (d/du_i) o (d/da_i),

and the bracket is its failure to be a derivation.  For this Delta that
failure is first order in each argument, so the bracket has the closed form

    {b, c} = sum_i (-1)^{p(b)} (d/da_i b)(d/du_i c) + (d/du_i b)(d/da_i c),

where p(b) is the parity of b (the number of odd generators; since every
d_i is odd this is also |b| mod 2).  Expanding Delta(b*c) by the Leibniz
rules of the two derivatives gives Delta(b)*c + (-1)^{|b|} b*Delta(c) plus
exactly these cross terms, so the closed form equals the BV-identity bracket

    {b, c} = (-1)^{|b|} (Delta(b*c) - Delta(b)*c - (-1)^{|b|} b*Delta(c)),

which the verification catalog checks as the `bv-identity` identity.  With
these conventions {a_i, u_j} = -delta_ij.
"""

from __future__ import annotations

from math import perm

from .kernel import (
    AlgebraError,
    Element,
    ModelSpec,
    Monomial,
    Ring,
    _multiply_into,
    _tuple_new,
    sign_pow,
)


def loop_unit(model: ModelSpec) -> Element:
    """s_*[M], the class of constant loops; unit of the loop product."""
    return Element.unit(model, Ring.LOOP)


def a(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, Ring.LOOP, "odd", index)


def u(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, Ring.LOOP, "even", index)


def _require_loop(x: Element, op: str):
    if x.ring is not Ring.LOOP:
        raise AlgebraError("%s: expected a loop-homology class, got %s" % (op, x.ring.value))


def loop_product(b: Element, c: Element) -> Element:
    _require_loop(b, "loop_product")
    _require_loop(c, "loop_product")
    return b * c


def _check_index(b: Element, index: int, op: str):
    if not 1 <= index <= b.model.rank:
        raise AlgebraError(
            "%s: generator index %d out of range: model %r has generators 1..%d"
            % (op, index, b.model.name, b.model.rank)
        )


def _partial_a_terms(terms, index: int, parity: bool = False) -> dict:
    """Terms of d/da_index; with `parity`, each also times (-1)^{p(source)}.

    Removing a_index maps distinct monomials to distinct monomials, so no
    coefficients collide.
    """
    out = {}
    for mono, coeff in terms.items():
        odds = mono.odds
        if index in odds:
            pos = odds.index(index)
            flips = pos + len(odds) if parity else pos
            new = _tuple_new(Monomial, (odds[:pos] + odds[pos + 1:], mono.exps))
            out[new] = -coeff if flips % 2 else coeff
    return out


def _partial_u_terms(terms, index: int, times: int = 1) -> dict:
    """Terms of (d/du_index)^times; injective on the terms it keeps."""
    out = {}
    j = index - 1
    for mono, coeff in terms.items():
        exps = mono.exps
        k = exps[j]
        if k >= times:
            factor = perm(k, times)
            new = _tuple_new(Monomial, (mono.odds, exps[:j] + (k - times,) + exps[j + 1:]))
            out[new] = coeff * factor if factor > 1 else coeff
    return out


def partial_a(b: Element, index: int) -> Element:
    """Left derivative d/da_index: (-1)^pos for the pos odd generators before a_index."""
    _require_loop(b, "partial_a")
    _check_index(b, index, "partial_a")
    return Element._of(b.model, Ring.LOOP, _partial_a_terms(b.terms, index))


def partial_u(b: Element, index: int, times: int = 1) -> Element:
    """(d/du_index)^times; u_index^k goes to k(k-1)...(k-times+1) u_index^(k-times)."""
    _require_loop(b, "partial_u")
    _check_index(b, index, "partial_u")
    if not isinstance(times, int) or times < 0:
        raise AlgebraError("partial_u: times must be a nonnegative integer, got %r" % (times,))
    return Element._of(b.model, Ring.LOOP, _partial_u_terms(b.terms, index, times))


def bv_delta(b: Element) -> Element:
    _require_loop(b, "bv_delta")
    # one pass over the terms: cheaper than composing partial_u o partial_a
    terms = {}
    for mono, coeff in b.terms.items():
        for pos, i in enumerate(mono.odds):
            k = mono.exps[i - 1]
            if k == 0:
                continue
            odds = mono.odds[:pos] + mono.odds[pos + 1:]
            exps = list(mono.exps)
            exps[i - 1] = k - 1
            new = _tuple_new(Monomial, (odds, tuple(exps)))
            # d/da_i passes over `pos` odd generators; d/du_i brings down k
            contrib = coeff * k * sign_pow(pos)
            acc = terms.get(new, 0) + contrib
            if acc == 0:
                terms.pop(new, None)
            else:
                terms[new] = acc
    return Element._of(b.model, Ring.LOOP, terms)


def loop_bracket(b: Element, c: Element) -> Element:
    """{b, c} = sum_i (-1)^{p(b)} (d/da_i b)(d/du_i c) + (d/du_i b)(d/da_i c)."""
    _require_loop(b, "loop_bracket")
    _require_loop(c, "loop_bracket")
    if b.model != c.model:
        raise AlgebraError("loop_bracket: model mismatch (%r vs %r)" % (b.model.name, c.model.name))
    terms = {}
    for i in range(1, b.model.rank + 1):
        left = _partial_a_terms(b.terms, i, parity=True)
        if left:
            right = _partial_u_terms(c.terms, i)
            if right:
                _multiply_into(terms, left, right)
        left = _partial_u_terms(b.terms, i)
        if left:
            right = _partial_a_terms(c.terms, i)
            if right:
                _multiply_into(terms, left, right)
    return Element._of(b.model, Ring.LOOP, terms)


def is_constant_loop_class(b: Element) -> bool:
    """True when b lies in the image of s_*, i.e. uses no u generators."""
    _require_loop(b, "is_constant_loop_class")
    return all(not any(mono.exps) for mono in b.terms)


def s_star(x: Element) -> Element:
    """Include a class of the base manifold into loop homology.

    Base homology classes are written in the exterior generators a_i, so the
    inclusion is the identity on the stored data; the point of the map is the
    subring check.
    """
    _require_loop(x, "s_star")
    if not is_constant_loop_class(x):
        raise AlgebraError("s_star: input is not in the exterior subring (has u factors)")
    return x
