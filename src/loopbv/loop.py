"""The loop-homology BV algebra of a model.

The ring is the free graded-commutative algebra on a_i (odd, degree -d_i)
and u_i (even, degree d_i - 1); the unit is the class of constant loops.
The operators are defined by two partial derivatives:

* d/da_i, the left derivation (a factor of -1 for each odd generator
  standing before a_i);
* d/du_i, the plain partial derivative; applied t times to u_i^k it brings
  down the falling factorial k(k-1)...(k-t+1).

The engine has no function for either: by the closed form below
{u_i, -} = d/da_i and {a_i, -} = -d/du_i, and `bench/oracle.py`
(`partial_odd`, `partial_even`) is their executable definition.

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

`bv_delta` and `loop_bracket` do not build the derivatives: they apply the
structure constants to each term, or pair of terms, and visit only the
generators a term contains.  With pos_S(i) the 0-based position of i in the
ascending index tuple S and a_S the product of the a_i, i in S, in order,

    {a_S u^E, a_T u^F} = sum_{i in S, F_i > 0} (-1)^{pos_S(i)+|S|} F_i a_{S-i} a_T u^{E+F-e_i}
                       + sum_{i in T, E_i > 0} (-1)^{pos_T(i)} E_i a_S a_{T-i} u^{E+F-e_i},

where a product a_A a_B carries the Koszul sign of merging A and B.  This
is the sum over i above term by term: both products of the i-th summand
land on u^{E+F-e_i}.  `loop_bracket` merges S and T once.  When they are
disjoint, a_i at position q of the merged tuple gives both sums the sign
(-1)^{q+|S|} times the sign of the merge.  When they share one index j,
only i = j survives, and its two summands add up to
(-1)^{pos_S(j)+|S|} (F_j - E_j) a_{S-j} a_T u^{E+F-e_j}; two shared indices
leave nothing.
"""

from __future__ import annotations

from operator import add

from .kernel import (
    Element,
    ModelSpec,
    Monomial,
    _LOOP,
    _add_into,
    _expect,
    _exterior,
    _merge_odds,
    _same_model,
    _tuple_new,
)


def a(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, _LOOP, "odd", index)


def u(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, _LOOP, "even", index)


def loop_product(b: Element, c: Element) -> Element:
    _expect(b, "loop_product", _LOOP)
    _expect(c, "loop_product", _LOOP)
    return b * c


def bv_delta(b: Element) -> Element:
    _expect(b, "bv_delta", _LOOP)
    # one pass over the terms, d/du_i o d/da_i on each
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
            _add_into(terms, new, -(coeff * k) if pos % 2 else coeff * k)
    return Element._of(b.model, _LOOP, terms)


def loop_bracket(b: Element, c: Element) -> Element:
    """{b, c}, one pass over the pairs of terms (see the module docstring)."""
    _expect(b, "loop_bracket", _LOOP)
    _expect(c, "loop_bracket", _LOOP)
    _same_model(b, c, "loop_bracket")
    terms = {}
    c_items = c.terms.items()
    for (odds_b, exps_b), coeff_b in b.terms.items():
        size_b = len(odds_b)
        for (odds_c, exps_c), coeff_c in c_items:
            sign, odds = _merge_odds(odds_b, odds_c)
            if sign:
                # disjoint: a_i at position q of the merge has sign (-1)^{q+|S|} times the merge's
                if size_b % 2:
                    sign = -sign
                hits = []  # (i, signed factor, odd indices of the result)
                for q, i in enumerate(odds):
                    k = exps_c[i - 1] if i in odds_b else exps_b[i - 1]
                    if k:
                        hits.append((i, k if q % 2 == (sign < 0) else -k, odds[:q] + odds[q + 1:]))
                if not hits:
                    continue
            else:
                # one shared a_j: only i = j survives, with the factor F_j - E_j
                shared = [i for i in odds_b if i in odds_c]
                if len(shared) > 1:
                    continue
                j = shared[0]
                k = exps_c[j - 1] - exps_b[j - 1]
                if not k:
                    continue
                pos = odds_b.index(j)
                sign, odds = _merge_odds(odds_b[:pos] + odds_b[pos + 1:], odds_c)
                hits = [(j, k if (pos + size_b) % 2 == (sign < 0) else -k, odds)]
            coeff = coeff_b * coeff_c
            summed = list(map(add, exps_b, exps_c))
            for i, k, odds in hits:
                summed[i - 1] -= 1
                mono = _tuple_new(Monomial, (odds, tuple(summed)))
                summed[i - 1] += 1
                _add_into(terms, mono, coeff * k)
    return Element._of(b.model, _LOOP, terms)


def s_star(x: Element) -> Element:
    """Include a class of the base manifold into loop homology.

    Base homology classes are written in the exterior generators a_i, so the
    inclusion is the identity on the stored data; the point of the map is the
    subring check.
    """
    return _exterior(x, "s_star", _LOOP)
