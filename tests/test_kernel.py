"""Graded kernel: canonical arithmetic, degrees, random draws, model JSON."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from loopbv.kernel import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    MAX_INDEXED_RANK,
    AlgebraError,
    Element,
    ModelSpec,
    Monomial,
    Ring,
    add,
    basis_index,
    degree,
    equal,
    multiply,
    random_element,
    scale,
    sign_pow,
)

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))


def _a(model, i):
    return Element.generator(model, Ring.LOOP, "odd", i)


def _u(model, i):
    return Element.generator(model, Ring.LOOP, "even", i)


def _hdeg(x):
    d = x.degree()
    return d if isinstance(d, int) else 0


# -- model validation --------------------------------------------------------


def test_model_dimension_is_sum_of_degrees():
    assert S3.dimension == 3
    assert SU3.dimension == 8
    assert SU3.rank == 2


@pytest.mark.parametrize("bad", [(4,), (3, 2), (0,), (-3,), ()])
def test_model_rejects_bad_degrees(bad):
    with pytest.raises(AlgebraError):
        ModelSpec("bad", bad)


def test_model_diagnostic_names_offending_entry():
    with pytest.raises(AlgebraError, match=r"generator_degrees\[1\] = 4"):
        ModelSpec("su-slip", (3, 4))


def test_model_json_round_trip():
    text = '{"name":"su3","generator_degrees":[3,5]}'
    model = ModelSpec.from_json(text)
    assert model == SU3
    assert ModelSpec.from_json(model.to_json()) == model


def test_model_json_rejects_even_degree_with_diagnostic():
    with pytest.raises(AlgebraError, match=r"generator_degrees\[0\] = 2"):
        ModelSpec.from_json('{"name":"x","generator_degrees":[2,3]}')
    with pytest.raises(AlgebraError):
        ModelSpec.from_json("not json at all")
    with pytest.raises(AlgebraError, match="missing"):
        ModelSpec.from_json('{"name":"x"}')


# -- degrees ------------------------------------------------------------------


def test_degree_examples():
    assert degree(_a(S3, 1)) == -3
    assert degree(Element.unit(S3, Ring.LOOP)) == 0
    mixed = _a(S3, 1) * _u(S3, 1) + _u(S3, 1)
    assert degree(mixed) is INHOMOGENEOUS
    assert degree(Element.zero(S3, Ring.LOOP)) is ANY_DEGREE


def test_degrees_per_ring():
    assert degree(Element.generator(SU3, Ring.COH, "odd", 2)) == 5
    assert degree(Element.generator(SU3, Ring.COH, "even", 2)) == 4
    assert degree(Element.generator(SU3, Ring.BASE, "odd", 1)) == 3
    assert degree(_u(SU3, 2)) == 4


def test_base_ring_rejects_even_generators():
    with pytest.raises(AlgebraError):
        Element.generator(SU3, Ring.BASE, "even", 1)


# -- products -----------------------------------------------------------------


def test_odd_generators_anticommute():
    a1, a2 = _a(SU3, 1), _a(SU3, 2)
    assert multiply(a2, a1) == -(a1 * a2)
    assert equal(a1 * a2, -(a2 * a1))


def test_odd_square_vanishes():
    a1 = _a(S3, 1)
    assert (a1 * a1).is_zero()


def test_distributivity_example():
    a1, u1 = _a(S3, 1), _u(S3, 1)
    assert (a1 + u1) * u1 == a1 * u1 + u1 * u1


def test_add_and_scale_examples():
    a1, u1 = _a(S3, 1), _u(S3, 1)
    assert add(a1, -a1).is_zero()
    assert scale(Fraction(1, 2), 2 * u1) == u1
    assert scale(0, u1).is_zero()


def test_ring_and_model_mixing_is_an_error():
    with pytest.raises(AlgebraError, match="ring mismatch"):
        _a(S3, 1) * Element.generator(S3, Ring.COH, "odd", 1)
    with pytest.raises(AlgebraError, match="model mismatch"):
        _a(S3, 1) * _a(SU3, 1)
    with pytest.raises(AlgebraError):
        equal(_a(S3, 1), Element.generator(S3, Ring.COH, "odd", 1))


def test_power_operator():
    u1 = _u(S3, 1)
    assert u1 ** 0 == Element.unit(S3, Ring.LOOP)
    assert u1 ** 3 == u1 * u1 * u1
    with pytest.raises(AlgebraError):
        u1 ** -1


def test_power_squares_and_multiplies(monkeypatch):
    calls = []
    product = Element.__mul__

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert _u(S3, 1) ** 1000 == Element.monomial(S3, Ring.LOOP, Monomial((), (1000,)))
    # 9 squarings and 6 set bits of 1000; repeated multiplication makes 1000
    assert len(calls) == 15


def test_power_equals_repeated_multiplication():
    alpha1 = Element.generator(SU3, Ring.COH, "odd", 1)
    v2 = Element.generator(SU3, Ring.COH, "even", 2)
    bases = [
        _a(SU3, 1) + _a(SU3, 2).scale(Fraction(2, 3)),  # odd, multi-term
        _u(SU3, 1) + _u(SU3, 2).scale(-3) + Element.unit(SU3, Ring.LOOP),  # even, multi-term
        alpha1 * v2 + v2.scale(5) + Element.unit(SU3, Ring.COH).scale(2),  # cohomology
    ]
    for x in bases:
        expected = Element.unit(SU3, x.ring)
        for n in range(13):
            assert x ** n == expected
            expected = expected * x


def test_canonicalization_idempotent():
    raw = {
        Monomial((1, 2), (0, 3)): Fraction(5, 2),
        Monomial((), (1, 0)): Fraction(-1),
    }
    x = Element(SU3, Ring.LOOP, raw)
    again = Element(SU3, Ring.LOOP, dict(x.terms))
    assert x == again
    assert Element(SU3, Ring.LOOP, {Monomial((1,), (0, 0)): Fraction(0)}).is_zero()


def test_monomial_validation():
    with pytest.raises(AlgebraError):
        Element(SU3, Ring.LOOP, {Monomial((2, 1), (0, 0)): Fraction(1)})
    with pytest.raises(AlgebraError):
        Element(SU3, Ring.LOOP, {Monomial((1,), (0, -1)): Fraction(1)})
    with pytest.raises(AlgebraError):
        Element(SU3, Ring.LOOP, {Monomial((1,), (0,)): Fraction(1)})


# -- algebra laws on random draws --------------------------------------------


@pytest.mark.parametrize("model", [S3, SU3, ModelSpec("e357", (3, 5, 7))])
@pytest.mark.parametrize("ring", [Ring.LOOP, Ring.COH, Ring.BASE])
def test_random_algebra_laws(model, ring):
    d = model.dimension
    window = (-d - 2, 2 * d)
    for trial in range(60):
        rng = random.Random("kernel|%s|%s|%d" % (model.name, ring.value, trial))
        x = random_element(model, ring, window, 2, rng)
        y = random_element(model, ring, window, 2, rng)
        z = random_element(model, ring, window, 2, rng)
        assert (x * y) * z == x * (y * z)
        assert x * y == (y * x).scale(sign_pow(_hdeg(x) * _hdeg(y)))
        one = Element.unit(model, ring)
        assert one * x == x and x * one == x
        product = x * y
        if not product.is_zero():
            assert product.degree() == _hdeg(x) + _hdeg(y)


def test_homogeneous_components_partition():
    x = _a(SU3, 1) + _u(SU3, 2) + 2 * _u(SU3, 1)
    parts = x.homogeneous_components()
    assert set(parts) == {-3, 2, 4}
    total = Element.zero(SU3, Ring.LOOP)
    for part in parts.values():
        assert part.is_homogeneous()
        total = total + part
    assert total == x


# -- random_element contract --------------------------------------------------


def test_random_element_deterministic():
    first = random_element(S3, Ring.LOOP, (-3, 3), 2, 7)
    second = random_element(S3, Ring.LOOP, (-3, 3), 2, 7)
    assert first == second


def test_random_element_single_monomial_window():
    x = random_element(S3, Ring.LOOP, (-3, -3), 1, 7)
    assert set(x.terms) == {Monomial((1,), (0,))}
    assert x.degree() == -3


def test_random_element_degree_two_spans_u1():
    x = random_element(S3, Ring.LOOP, (2, 2), 2, 11)
    assert set(x.terms) == {Monomial((), (1,))}


def test_random_element_empty_window_gives_zero():
    x = random_element(S3, Ring.LOOP, (-5, -4), 2, 3)
    assert x.is_zero()


def test_random_element_homogeneous_and_in_window():
    for trial in range(40):
        x = random_element(SU3, Ring.LOOP, (-10, 16), 3, "w|%d" % trial)
        assert not x.is_zero()
        deg = x.degree()
        assert isinstance(deg, int) and -10 <= deg <= 16
        assert all(coeff != 0 for coeff in x.terms.values())
        assert len(x.terms) <= 3


def test_random_element_respects_even_cap():
    x = random_element(S3, Ring.LOOP, (0, 100), 1, 5, even_cap=0)
    assert all(not any(m.exps) for m in x.terms)
    with pytest.raises(AlgebraError):
        random_element(S3, Ring.LOOP, (3, -3), 1, 5)
    with pytest.raises(AlgebraError):
        random_element(S3, Ring.LOOP, (0, 0), 0, 5)


# -- basis index against brute-force enumeration ----------------------------

RANK12 = ModelSpec("rank12", tuple(range(3, 26, 2)))


def _reference_buckets(model, ring, even_cap):
    """Every monomial with total even exponent <= even_cap, sorted, by degree."""
    r = model.rank
    vectors = [
        exps for exps in itertools.product(range(even_cap + 1), repeat=r)
        if sum(exps) <= even_cap and (ring is not Ring.BASE or not any(exps))
    ]
    buckets = {}
    for size in range(r + 1):
        for odds in itertools.combinations(range(1, r + 1), size):
            for exps in vectors:
                x = Element.monomial(model, ring, Monomial(odds, exps))
                buckets.setdefault(x.degree(), []).append(Monomial(odds, exps))
    return {deg: sorted(monos) for deg, monos in buckets.items()}


@pytest.mark.parametrize("degrees", [(1,), (3,), (3, 5), (1, 3), (1, 1, 5), (3, 5, 7)])
@pytest.mark.parametrize("ring", list(Ring))
def test_basis_index_matches_enumeration(degrees, ring):
    model = ModelSpec("m", degrees)
    for cap in range(7):
        reference = _reference_buckets(model, ring, cap)
        index = basis_index(model, ring, cap)
        assert index.degrees == tuple(sorted(reference))
        for deg, monos in reference.items():
            assert index.count(deg) == len(monos)
            assert [index.monomial(deg, k) for k in range(len(monos))] == monos
        assert index.count(max(reference) + 1) == 0


def test_basis_index_window_is_a_slice_of_degrees():
    index = basis_index(SU3, Ring.LOOP, 4)
    assert index.degrees_in(-4, 6) == tuple(d for d in index.degrees if -4 <= d <= 6)
    assert index.degrees_in(1000, 2000) == ()
    for k in (-1, index.count(0)):
        with pytest.raises(IndexError):
            index.monomial(0, k)
    with pytest.raises(IndexError):
        index.monomial(1001, 0)


@pytest.mark.parametrize("cap", [0, 3, 6])
def test_basis_index_counts_rank_12_without_enumerating(cap):
    index = basis_index(RANK12, Ring.LOOP, cap)
    total = sum(index.count(deg) for deg in index.degrees)
    assert total == 2 ** 12 * comb(12 + cap, 12)
    if cap == 6:
        assert total == 76_038_144
    last = index.degrees[-1]
    assert index.monomial(last, index.count(last) - 1) == Monomial((), (0,) * 11 + (cap,))


@pytest.mark.parametrize("ring", list(Ring))
def test_basis_index_refuses_rank_above_the_limit_before_listing_subsets(monkeypatch, ring):
    def listing(*args):
        raise RuntimeError("listed odd-index subsets")

    monkeypatch.setattr(itertools, "combinations", listing)
    too_big = ModelSpec("exterior:" + ",".join(["1"] * (MAX_INDEXED_RANK + 1)), (1,) * (MAX_INDEXED_RANK + 1))
    with pytest.raises(AlgebraError) as info:
        basis_index(too_big, ring, 2)
    message = str(info.value)
    assert "rank %d" % (MAX_INDEXED_RANK + 1) in message
    assert "limit of %d" % MAX_INDEXED_RANK in message
    assert "2^%d" % (MAX_INDEXED_RANK + 1) in message
    with pytest.raises(AlgebraError, match="rank"):
        random_element(too_big, ring, (-3, 3), 1, 0)
    # at the limit the index is built: the fake listing is reached
    at_limit = ModelSpec("at-limit", (1,) * MAX_INDEXED_RANK)
    with pytest.raises(RuntimeError, match="listed"):
        basis_index(at_limit, ring, 2)


# -- coefficient representation ---------------------------------------------


def _assert_int_coefficients(x):
    assert x.terms and all(type(c) is int for c in x.terms.values()), x.terms


def test_entry_points_store_integral_coefficients_as_int():
    mono = Monomial((1,), (2, 0))
    half = Fraction(1, 2)
    _assert_int_coefficients(Element(SU3, Ring.LOOP, {mono: Fraction(4, 2)}))
    _assert_int_coefficients(Element(SU3, Ring.LOOP, {mono: True}))
    _assert_int_coefficients(Element.monomial(SU3, Ring.LOOP, mono, Fraction(-6, 3)))
    _assert_int_coefficients(Element.monomial(SU3, Ring.LOOP, mono))
    _assert_int_coefficients(Element.unit(SU3, Ring.COH))
    _assert_int_coefficients(Element.generator(SU3, Ring.LOOP, "even", 2))
    _assert_int_coefficients(Element.generator(SU3, Ring.BASE, "odd", 1))
    _assert_int_coefficients(_u(SU3, 1).scale(Fraction(3, 1)))
    _assert_int_coefficients(Fraction(2) * _a(SU3, 2))
    assert type(Element.monomial(SU3, Ring.LOOP, mono, half).terms[mono]) is Fraction
    assert Element.monomial(SU3, Ring.LOOP, mono, half).scale(Fraction(2, 3)).terms[mono] == Fraction(1, 3)
    assert type(_u(SU3, 1).scale(Fraction(-3, 2)).terms[Monomial((), (1, 0))]) is Fraction


def test_random_coefficients_are_int_exactly_when_integral():
    kinds = set()
    for trial in range(300):
        x = random_element(SU3, Ring.LOOP, (-10, 16), 3, "coeff|%d" % trial)
        for c in x.terms.values():
            assert type(c) is int or c.denominator != 1, c
            kinds.add(type(c))
    assert kinds == {int, Fraction}


def test_operators_keep_int_coefficients():
    from loopbv.cohomology import coh_delta
    from loopbv.extended import cap
    from loopbv.loop import bv_delta, loop_bracket

    def integral(ring, seed):
        """A random element with its coefficients cleared of denominators."""
        x = random_element(SU3, ring, (-8, 16), 4, seed)
        return Element(SU3, ring, {m: c * 6 for m, c in x.terms.items()})

    seen = 0
    for trial in range(40):
        b, c = integral(Ring.LOOP, "b|%d" % trial), integral(Ring.LOOP, "c|%d" % trial)
        w = integral(Ring.COH, "w|%d" % trial)
        for value in (b * c, b + c, -b, b - c, bv_delta(b), loop_bracket(b, c), cap(w, b), coh_delta(w)):
            if value:
                _assert_int_coefficients(value)
                seen += 1
    assert seen > 200


def test_int_and_fraction_coefficients_are_interchangeable():
    mono = Monomial((1,), (0, 3))
    as_int = Element(SU3, Ring.LOOP, {mono: 2, Monomial((), (1, 0)): -1})
    as_fraction = Element(SU3, Ring.LOOP, {mono: Fraction(2), Monomial((), (1, 0)): Fraction(-1)})
    assert as_int == as_fraction and equal(as_int, as_fraction)
    assert as_int.render() == as_fraction.render() == "-u1 + 2*a1*u2^3"
    assert as_int.render(unicode=True) == as_fraction.render(unicode=True)
    # arithmetic may leave a Fraction with denominator 1; it behaves as the int
    mixed = Element(SU3, Ring.LOOP, {mono: Fraction(1, 2)}) + Element(SU3, Ring.LOOP, {mono: Fraction(3, 2)})
    assert mixed == Element.monomial(SU3, Ring.LOOP, mono, 2)
    assert mixed.render() == "2*a1*u2^3"


def test_coefficient_of_a_missing_monomial_is_int_zero():
    x = _a(SU3, 1) * _u(SU3, 2)
    assert x.coefficient(Monomial((1,), (0, 1))) == 1
    missing = x.coefficient(Monomial((2,), (0, 0)))
    assert missing == 0 and type(missing) is int


# -- rendering ----------------------------------------------------------------


def test_render_examples():
    a1, u1 = _a(S3, 1), _u(S3, 1)
    assert str(Element.zero(S3, Ring.LOOP)) == "0"
    assert str(Element.unit(S3, Ring.LOOP)) == "1"
    assert str(-a1) == "-a1"
    assert str(a1 * u1 ** 2) == "a1*u1^2"
    assert str(2 * u1 - a1) == "-a1 + 2*u1"
    assert str(Element.generator(S3, Ring.COH, "odd", 1)) == "alpha1"
    assert "α" in Element.generator(S3, Ring.COH, "odd", 1).render(unicode=True)
