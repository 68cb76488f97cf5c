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
land on u^{E+F-e_i}, and its packed monomial (see `kernel`) is the sum of
the two packed monomials less the bit of a_i and the unit of u_i's field.
When S and T are disjoint, a_i at position q of the merged tuple gives both
sums the sign (-1)^{q+|S|} times the sign of the merge; the parity of q is
bit i of `_below(S | T)`, which is `_below(S) ^ _below(T)`.  When they share
one index j, only i = j survives, and its two summands add up to
(-1)^{pos_S(j)+|S|} (F_j - E_j) a_{S-j} a_T u^{E+F-e_j}; two shared indices
leave nothing.
"""

from __future__ import annotations

from .kernel import (
    Element,
    ModelSpec,
    _FIELD_MASK,
    _LOOP,
    _below,
    _clean,
    _expect,
    _exterior,
    _overflow,
    _same_model,
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
    packing = b.model._packing
    odd, shifts = packing.odd, packing.shifts
    terms = {}
    get = terms.get
    for mono, coeff in b._terms.items():
        if mono <= odd:  # no u factor
            continue
        odds, pos = mono & odd, 0
        while odds:
            bit = odds & -odds
            odds ^= bit
            shift = shifts[bit.bit_length() - 1]
            k = mono >> shift & _FIELD_MASK
            if k:
                # d/da_i passes over `pos` odd generators; d/du_i brings down k
                new = mono - bit - (1 << shift)
                terms[new] = get(new, 0) + (-(coeff * k) if pos & 1 else coeff * k)
            pos += 1
    return Element._of(b.model, _LOOP, _clean(terms))


def loop_bracket(b: Element, c: Element) -> Element:
    """{b, c}, one pass over the pairs of terms (see the module docstring)."""
    _expect(b, "loop_bracket", _LOOP)
    _expect(c, "loop_bracket", _LOOP)
    _same_model(b, c, "loop_bracket")
    model = b.model
    if not b._terms or not c._terms:
        return Element._of(model, _LOOP, {})
    packing = model._packing
    odd, shifts, guard = packing.odd, packing.shifts, packing.guard
    terms = {}
    get, right = terms.get, c._terms.items()
    for m_b, coeff_b in b._terms.items():
        odds_b = m_b & odd
        below_b = _below(odds_b)
        size_b = odds_b.bit_count() & 1
        for m_c, coeff_c in right:
            odds_c = m_c & odd
            shared = odds_b & odds_c
            if not shared:
                # a_i of S needs F_i > 0 and a_i of T needs E_i > 0: no u factor, no term
                hits = (odds_b if m_c > odd else 0) | (odds_c if m_b > odd else 0)
                if not hits:
                    continue
                below_c = _below(odds_c)
                # a_i at position q of the merge: (-1)^{q+|S|} times the merge's sign
                flip = size_b ^ (odds_b & below_c).bit_count() & 1
                position = below_b ^ below_c
                while hits:
                    bit = hits & -hits
                    hits ^= bit
                    shift = shifts[bit.bit_length() - 1]
                    k = (m_c if bit & odds_b else m_b) >> shift & _FIELD_MASK  # the other factor's exponent
                    if k:
                        mono = m_b + m_c - bit - (1 << shift)
                        if mono & guard:
                            raise _overflow(model, mono)
                        coeff = coeff_b * coeff_c * k
                        terms[mono] = get(mono, 0) + (-coeff if bool(position & bit) ^ flip else coeff)
            elif not shared & (shared - 1):
                # one shared a_j: only i = j survives, with the factor F_j - E_j
                shift = shifts[shared.bit_length() - 1]
                k = (m_c >> shift & _FIELD_MASK) - (m_b >> shift & _FIELD_MASK)
                if k:
                    mono = m_b + m_c - shared - (1 << shift)
                    if mono & guard:
                        raise _overflow(model, mono)
                    # pos_S(j) + |S| + the sign of merging S - j and T
                    flip = ((odds_b & (shared - 1)).bit_count() + size_b
                            + ((odds_b ^ shared) & _below(odds_c)).bit_count()) & 1
                    coeff = coeff_b * coeff_c * k
                    terms[mono] = get(mono, 0) + (-coeff if flip else coeff)
    return Element._of(model, _LOOP, _clean(terms))


def s_star(x: Element) -> Element:
    """Include a class of the base manifold into loop homology.

    Base homology classes are written in the exterior generators a_i, so the
    inclusion is the identity on the stored data; the point of the map is the
    subring check.
    """
    return _exterior(x, "s_star", _LOOP)
