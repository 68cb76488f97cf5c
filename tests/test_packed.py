"""Packed monomials: the one-int representation against `Monomial`, the oracle and the exponent limit."""

from __future__ import annotations

import itertools

import oracle
import pytest

from loopbv import kernel
from loopbv.cohomology import coh_delta
from loopbv.extended import cap
from loopbv.kernel import MAX_EXPONENT, AlgebraError, Element, Monomial, Ring, basis_index
from loopbv.loop import bv_delta, loop_bracket
from loopbv.models import resolve_model

# (model, even cap): every monomial of `basis_index` at that cap, in both rings
INDEXED = [("s3", 3), ("su3", 3), ("exterior:3,5,7", 3), ("su8", 1)]


def _packed_basis(model, ring, cap):
    index = basis_index(model, ring, cap)
    return [index.monomial(deg, k) for deg in index.degrees for k in range(index.count(deg))]


def _interleave_sign(left, right) -> int:
    return -1 if sum(i > j for i in left for j in right) % 2 else 1


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("name, cap", INDEXED)
def test_pack_and_unpack_round_trip_on_every_indexed_monomial(name, cap, ring):
    model = resolve_model(name)
    packed = _packed_basis(model, ring, cap)
    assert len(set(packed)) == len(packed) == 2 ** model.rank * len(
        [e for e in itertools.product(range(cap + 1), repeat=model.rank) if sum(e) <= cap])
    for m in packed:
        mono = kernel._unpack(model, m)
        assert kernel._pack(model, mono) == m
        assert Element(model, ring, {mono: 1}) == Element._of(model, ring, {m: 1})
        assert Element._of(model, ring, {m: 3}).terms == {mono: 3}


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("name, cap", INDEXED)
def test_render_and_witness_orders_are_the_monomial_orders(name, cap, ring):
    """`render` sorts by (degree, Monomial) and a witness drops terms in `Monomial` order,
    each read from the packed int; the degree here is the oracle's, from the decoded word."""
    model = resolve_model(name)
    packed = _packed_basis(model, ring, cap)
    monos = [kernel._unpack(model, m) for m in packed]
    by_render = sorted(packed, key=lambda m: kernel._render_key(model, ring, m))
    assert [kernel._unpack(model, m) for m in by_render] == sorted(
        monos, key=lambda mono: (oracle._degree(model, ring, mono), mono))
    by_witness = sorted(packed, key=lambda m: kernel._unpack(model, m))
    assert [kernel._unpack(model, m) for m in by_witness] == sorted(monos)
    for m, mono in zip(packed, monos):
        assert kernel._render_key(model, ring, m) == (oracle._degree(model, ring, mono), *mono)
        assert kernel._mono_degree(model, ring, m) == oracle._degree(model, ring, mono)


def _one_terms(model, ring, cap):
    return [Element._of(model, ring, {m: 1}) for m in _packed_basis(model, ring, cap)]


@pytest.mark.parametrize("name", ["su3", "exterior:3,5,7"])
def test_operators_on_every_pair_of_one_term_monomials_match_the_oracle(name):
    """Product (against the Koszul sign of the decoded words), bracket, cap, Delta and
    coh_delta on every (pair of) one-term monomials of total even exponent <= 2."""
    model = resolve_model(name)
    loops, cohs = _one_terms(model, Ring.LOOP, 2), _one_terms(model, Ring.COH, 2)
    for x in loops:
        assert bv_delta(x) == oracle.delta(x)
        [(mono_x, _)] = x.terms.items()
        for y in loops:
            [(mono_y, _)] = y.terms.items()
            if set(mono_x.odds) & set(mono_y.odds):
                want = {}
            else:
                exps = tuple(map(sum, zip(mono_x.exps, mono_y.exps)))
                want = {Monomial(tuple(sorted(mono_x.odds + mono_y.odds)), exps): _interleave_sign(mono_x.odds, mono_y.odds)}
            assert (x * y).terms == want, (x, y)
            assert loop_bracket(x, y) == oracle.bracket(x, y), (x, y)
    for w in cohs:
        assert coh_delta(w) == oracle.coh_delta(w)
        for b in loops:
            assert cap(w, b) == oracle.cap(w, b), (w, b)


# -- the exponent limit ------------------------------------------------------------

LIMIT_MESSAGE = "limit of %d" % MAX_EXPONENT


def test_the_limit_is_the_largest_exponent_below_a_fields_guard_bit():
    assert MAX_EXPONENT == 2 ** 63 - 1


def test_the_checked_constructor_takes_the_limit_and_refuses_one_more():
    su3 = resolve_model("su3")
    at = Element(su3, Ring.LOOP, {Monomial((1,), (MAX_EXPONENT, 2)): 1})
    assert at.terms == {Monomial((1,), (MAX_EXPONENT, 2)): 1}
    with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (MAX_EXPONENT + 1, LIMIT_MESSAGE)):
        Element(su3, Ring.LOOP, {Monomial((1,), (2, MAX_EXPONENT + 1)): 1})


def test_one_term_power_takes_the_limit_and_refuses_one_more():
    s3 = resolve_model("s3")
    u1 = Element.generator(s3, Ring.LOOP, "even", 1)
    assert (u1 ** MAX_EXPONENT).terms == {Monomial((), (MAX_EXPONENT,)): 1}
    assert ((u1 ** 7).scale(-1) ** (MAX_EXPONENT // 7)).terms == {Monomial((), (MAX_EXPONENT,)): -1}  # 7 divides 2^63 - 1
    for base, n in ((u1, MAX_EXPONENT + 1), (u1 ** 2, MAX_EXPONENT // 2 + 1), (u1 ** MAX_EXPONENT, 2)):
        with pytest.raises(AlgebraError, match=LIMIT_MESSAGE):
            base ** n


def test_many_term_power_is_refused_before_it_is_expanded():
    """The terms with no odd generator expand in a polynomial ring, so x^n holds n times
    their largest exponent exactly: a power past the limit is refused before any product,
    and terms that each hold an odd generator are never refused."""
    huge = 10 ** 23
    s3 = resolve_model("s3")
    with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (huge, LIMIT_MESSAGE)):
        (Element.generator(s3, Ring.LOOP, "even", 1) + Element.unit(s3, Ring.LOOP)) ** huge
    su3 = resolve_model("su3")
    a1, a2 = (Element.generator(su3, Ring.LOOP, "odd", i) for i in (1, 2))
    u1, u2 = (Element.generator(su3, Ring.LOOP, "even", i) for i in (1, 2))
    assert (a1 * u1 + a2 * u1) ** huge == Element.zero(su3, Ring.LOOP)
    assert ((a1 * u1 + Element.unit(su3, Ring.LOOP)) ** huge).terms == {
        Monomial((1,), (1, 0)): huge, Monomial((), (0, 0)): 1}
    with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (MAX_EXPONENT + 1, LIMIT_MESSAGE)):
        (u1 + u2 ** 2) ** (MAX_EXPONENT // 2 + 1)


def test_product_takes_the_limit_and_refuses_one_more():
    su3 = resolve_model("su3")
    a1 = Element.generator(su3, Ring.LOOP, "odd", 1)
    u1, u2 = (Element.generator(su3, Ring.LOOP, "even", i) for i in (1, 2))
    top = u2 ** (MAX_EXPONENT - 1)
    assert (a1 * top * u2 * u1).terms == {Monomial((1,), (1, MAX_EXPONENT)): 1}
    with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (MAX_EXPONENT + 1, LIMIT_MESSAGE)):
        a1 * top * u2 * u2
    with pytest.raises(AlgebraError, match=LIMIT_MESSAGE):
        (u2 ** MAX_EXPONENT) * (u2 ** MAX_EXPONENT)  # the largest sum: no carry into a neighbour field


def test_bracket_takes_the_limit_and_refuses_one_more():
    """{a1 u2^k, u1 u2} = -u2^(k+1) and, with a shared a1, {a1 u2^k, a1 u1 u2} = -a1 u2^(k+1):
    the bracket's E + F - e_1 grows u2 by one."""
    su3 = resolve_model("su3")
    a1 = Element.generator(su3, Ring.LOOP, "odd", 1)
    u1, u2 = (Element.generator(su3, Ring.LOOP, "even", i) for i in (1, 2))
    for odds, c in (((), u1 * u2), ((1,), a1 * u1 * u2)):
        at = loop_bracket(a1 * u2 ** (MAX_EXPONENT - 1), c)
        assert at.terms == {Monomial(odds, (0, MAX_EXPONENT)): -1}
        with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (MAX_EXPONENT + 1, LIMIT_MESSAGE)):
            loop_bracket(a1 * u2 ** MAX_EXPONENT, c)
        with pytest.raises(AlgebraError, match=LIMIT_MESSAGE):
            loop_bracket(c, a1 * u2 ** MAX_EXPONENT)


def test_coh_delta_takes_the_limit_and_refuses_one_more():
    su3 = resolve_model("su3")
    alpha2 = Element.generator(su3, Ring.COH, "odd", 2)
    v2 = Element.generator(su3, Ring.COH, "even", 2)
    assert coh_delta(alpha2 * v2 ** (MAX_EXPONENT - 1)).terms == {Monomial((), (0, MAX_EXPONENT)): 1}
    with pytest.raises(AlgebraError, match="exponent %d exceeds the %s" % (MAX_EXPONENT + 1, LIMIT_MESSAGE)):
        coh_delta(alpha2 * v2 ** MAX_EXPONENT)
