"""Graded kernel: canonical arithmetic, degrees, random draws, model JSON."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from loopbv import kernel
from loopbv.kernel import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    MAX_INDEX_ENTRIES,
    AlgebraError,
    BasisIndex,
    Element,
    ModelSpec,
    Monomial,
    Ring,
    basis_index,
    random_element,
    sign_pow,
)
from loopbv.models import builtin_model

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


def test_model_specs_compare_by_value():
    """Equal specs built apart are `==`, hash alike and share one basis index; the
    engine's model check (`is`, then `==`) lets their elements combine."""
    listed, tupled = ModelSpec("su3", [3, 5]), ModelSpec("su3", (3, 5))
    assert listed is not tupled
    assert listed == tupled and hash(listed) == hash(tupled)
    assert basis_index(listed, Ring.LOOP, 2) is basis_index(tupled, Ring.LOOP, 2)
    assert listed != ModelSpec("su3-copy", (3, 5))
    assert listed != ModelSpec("su3", (3, 7))
    assert (listed == 3) is False
    x, y = _a(listed, 1) + _u(listed, 2), _a(tupled, 2) + _u(tupled, 1)
    same_x = _a(tupled, 1) + _u(tupled, 2)
    assert x == same_x and x + y == same_x + y
    assert x * y == same_x * y and x * y


@pytest.mark.parametrize("call, message", [
    (lambda: ModelSpec("x", (3.0,)), "model 'x': generator_degrees[0] = 3.0 is not an integer"),
    (lambda: ModelSpec.from_json("[3]"), "model JSON must be an object with 'name' and 'generator_degrees'"),
    (lambda: ModelSpec.from_json('{"name": 3, "generator_degrees": [3]}'), "model JSON: 'name' must be a string"),
    (lambda: ModelSpec.from_json('{"name": "x", "generator_degrees": "3"}'),
     "model JSON: 'generator_degrees' must be a list of odd integers"),
    (lambda: Element.generator(SU3, Ring.LOOP, "odd", 3), "generator index 3 out of range: model 'su3' has generators 1..2"),
    (lambda: Element.generator(SU3, Ring.LOOP, "middle", 1), "generator kind must be 'odd' or 'even', got 'middle'"),
    (lambda: builtin_model("su1"), "model 'su1': su<n> needs n >= 2"),
], ids=["float-degree", "json-not-object", "json-name", "json-degrees", "generator-index", "generator-kind", "su1"])
def test_a_malformed_model_or_generator_is_refused_with_its_message(call, message):
    with pytest.raises(AlgebraError) as refused:
        call()
    assert str(refused.value) == message


def test_model_json_rejects_even_degree_with_diagnostic():
    with pytest.raises(AlgebraError, match=r"generator_degrees\[0\] = 2"):
        ModelSpec.from_json('{"name":"x","generator_degrees":[2,3]}')
    with pytest.raises(AlgebraError):
        ModelSpec.from_json("not json at all")
    with pytest.raises(AlgebraError, match="missing"):
        ModelSpec.from_json('{"name":"x"}')


# -- degrees ------------------------------------------------------------------


def test_degree_examples():
    assert _a(S3, 1).degree() == -3
    assert Element.unit(S3, Ring.LOOP).degree() == 0
    mixed = _a(S3, 1) * _u(S3, 1) + _u(S3, 1)
    assert mixed.degree() is INHOMOGENEOUS
    assert Element.zero(S3, Ring.LOOP).degree() is ANY_DEGREE


def test_degrees_per_ring():
    assert Element.generator(SU3, Ring.COH, "odd", 2).degree() == 5
    assert Element.generator(SU3, Ring.COH, "even", 2).degree() == 4
    assert _u(SU3, 2).degree() == 4


# -- products -----------------------------------------------------------------


def test_odd_generators_anticommute():
    a1, a2 = _a(SU3, 1), _a(SU3, 2)
    assert a2 * a1 == -(a1 * a2)
    assert a1 * a2 == -(a2 * a1)


def test_odd_square_vanishes():
    a1 = _a(S3, 1)
    assert (a1 * a1).is_zero()


def test_distributivity_example():
    a1, u1 = _a(S3, 1), _u(S3, 1)
    assert (a1 + u1) * u1 == a1 * u1 + u1 * u1


def test_add_and_scale_examples():
    a1, u1 = _a(S3, 1), _u(S3, 1)
    assert (a1 + -a1).is_zero()
    assert (2 * u1).scale(Fraction(1, 2)) == u1
    assert u1.scale(0).is_zero()


def test_ring_and_model_mixing_is_an_error():
    with pytest.raises(AlgebraError, match="ring mismatch"):
        _a(S3, 1) * Element.generator(S3, Ring.COH, "odd", 1)
    with pytest.raises(AlgebraError, match="model mismatch"):
        _a(S3, 1) * _a(SU3, 1)


def test_power_operator():
    u1 = _u(S3, 1)
    assert u1 ** 0 == Element.unit(S3, Ring.LOOP)
    assert u1 ** 3 == u1 * u1 * u1
    with pytest.raises(AlgebraError):
        u1 ** -1


def test_a_bool_is_neither_a_coefficient_nor_an_exponent():
    # `True` is an `int` subclass; model degrees, monomial keys and counts refuse it too
    mono = Monomial((1,), (2, 0))
    for x in (_u(SU3, 1), _a(SU3, 1) + _u(SU3, 2)):
        for flag in (True, False):
            for make in (lambda: flag * x, lambda: x * flag, lambda: x.scale(flag),
                         lambda: Element(SU3, Ring.LOOP, {mono: flag})):
                with pytest.raises(AlgebraError, match="coefficients must be exact rationals, got %s" % flag):
                    make()
            with pytest.raises(AlgebraError, match="powers must be nonnegative integers, got %s" % flag):
                x ** flag


def _count_products(monkeypatch) -> list:
    calls = []
    product = Element.__mul__

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(Element, "__mul__", counted)
    return calls


def test_power_of_one_term_is_one_step(monkeypatch):
    calls = _count_products(monkeypatch)
    assert _u(S3, 1) ** 1000 == Element(S3, Ring.LOOP, {Monomial((), (1000,)): 1})
    assert _a(S3, 1).scale(3) ** 1 == Element(S3, Ring.LOOP, {Monomial((1,), (0,)): 3})
    assert (_a(S3, 1) ** 2).is_zero()
    assert calls == []


def test_power_squares_and_multiplies(monkeypatch):
    calls = _count_products(monkeypatch)
    x = _a(SU3, 1) + _a(SU3, 2)
    assert (x ** 1000).is_zero()  # (a1 + a2)^2 = a1*a2 + a2*a1 = 0
    # 9 squarings and 6 set bits of 1000; repeated multiplication makes 1000
    assert len(calls) == 15


def test_power_equals_repeated_multiplication():
    alpha1 = Element.generator(SU3, Ring.COH, "odd", 1)
    v2 = Element.generator(SU3, Ring.COH, "even", 2)
    bases = [
        _a(SU3, 1) + _a(SU3, 2).scale(Fraction(2, 3)),  # odd, multi-term
        _u(SU3, 1) + _u(SU3, 2).scale(-3) + Element.unit(SU3, Ring.LOOP),  # even, multi-term
        alpha1 * v2 + v2.scale(5) + Element.unit(SU3, Ring.COH).scale(2),  # cohomology
        # one term: the power is one step, not square and multiply
        (_a(SU3, 1) * _u(SU3, 2)).scale(Fraction(2, 3)),
        (_u(SU3, 1) * _u(SU3, 1)).scale(-3),
        alpha1 * v2,
        v2.scale(5),
    ]
    for x in bases:
        expected = Element.unit(SU3, x.ring)
        for n in range(13):
            power = x ** n
            assert power == expected
            for coeff in power.terms.values():
                assert isinstance(coeff, int) == (Fraction(coeff).denominator == 1)
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
    # odd indices and exponents are integers, not floats, strings or bools;
    # a key is checked even when its coefficient is zero
    for key in [((), (0.5,)), ((), (2.0,)), ((1.0,), (0,)), (("1",), (0,)), ((True,), (0,)), ((), (True,))]:
        for coeff in (1, 0):
            with pytest.raises(AlgebraError, match="must be integers"):
                Element(S3, Ring.LOOP, {key: coeff})
    # a key is an (odds, exps) pair of tuples
    for key in [5, "a1", ((1,),), ((1,), (0,), ()), ((1,), 0), (frozenset({1}), (0,))]:
        for coeff in (1, 0):
            with pytest.raises(AlgebraError, match="pair of tuples"):
                Element(S3, Ring.LOOP, {key: coeff})
    with pytest.raises(AlgebraError, match="out of range"):
        Element(S3, Ring.LOOP, {((2,), (0,)): 0})
    assert Element(S3, Ring.LOOP, {((1,), (2,)): 1}) == _a(S3, 1) * _u(S3, 1) ** 2


# -- algebra laws on random draws --------------------------------------------


@pytest.mark.parametrize("model", [S3, SU3, ModelSpec("e357", (3, 5, 7))])
@pytest.mark.parametrize("ring", list(Ring))
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
        assert part.degree() is not INHOMOGENEOUS
        total = total + part
    assert total == x


def _interleave_sign(left, right) -> int:
    """(-1)^#{(i in left, j in right) : i > j}, by counting the pairs."""
    return -1 if sum(i > j for i in left for j in right) % 2 else 1


def test_merge_odds_against_brute_force():
    """Every pair of ascending subsets of {1,...,7}, which cover su8's odd indices, as
    packed masks S and T: a shared index gives a zero product; else the sign is the
    parity of `S & _below(T)`, and the product of a_S and a_T is that sign times the
    monomial of the union, S | T."""
    subsets = [s for size in range(8) for s in itertools.combinations(range(1, 8), size)]
    su8, zeros = _su(8), (0,) * 7
    classes = [Element(su8, Ring.LOOP, {Monomial(s, zeros): 1}) for s in subsets]
    masks = [sum(1 << (i - 1) for i in s) for s in subsets]
    pairs = 0
    for left, x, mask_l in zip(subsets, classes, masks):
        for right, y, mask_r in zip(subsets, classes, masks):
            pairs += 1
            product = (x * y).terms
            if set(left) & set(right):
                assert mask_l & mask_r and product == {}, (left, right)
            else:
                sign = _interleave_sign(left, right)
                assert (-1) ** (mask_l & kernel._below(mask_r)).bit_count() == sign, (left, right)
                assert product == {Monomial(tuple(sorted(left + right)), zeros): sign}, (left, right)
                assert kernel._unpack(su8, mask_l | mask_r).odds == tuple(sorted(left + right))
    assert pairs == 16384


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


@pytest.mark.parametrize("model, window", [(S3, (-3, -3)), (SU3, (-10, 16))],
                         ids=["one-monomial-bucket", "larger-buckets"])
@pytest.mark.parametrize("max_terms", [1.5, True, 2.0])
def test_random_element_refuses_a_term_count_that_is_not_an_int(model, window, max_terms):
    """Whether or not a bucket holds more monomials than the count, a count that
    is not an `int` (a `bool` included) is refused before anything is drawn."""
    with pytest.raises(AlgebraError, match="max_terms must be an integer, got %r" % max_terms):
        random_element(model, Ring.LOOP, window, max_terms, 7)


# -- the sampler: the standard library's calls, made straight to getrandbits --

# n = 1..80 runs `_sample`'s pool branch for every k <= 12 (its set size is 21 for k <= 5 and 85
# for 6 <= k <= 12) and its redraw branch from n = 22 at k <= 5; 100, 1000 and 2^31 redraw
SAMPLER_NS = tuple(range(1, 81)) + (100, 1000, 2 ** 31)


@pytest.mark.parametrize("n", SAMPLER_NS)
def test_sampler_makes_the_standard_library_calls(n):
    """For each k <= min(n, 12) and ten string seeds, `_sample` and `_randbelow` on one
    generator return what `sample`, `choice` and `randint` return on a twin, and leave
    both in the same state."""
    for k in range(1, min(n, 12) + 1):
        for i in range(10):
            seed = "sampler|%d|%d|%d" % (n, k, i)
            a, b = random.Random(seed), random.Random(seed)
            assert kernel._sample(b.getrandbits, n, k) == a.sample(range(n), k)
            assert kernel._randbelow(b.getrandbits, n) == a.choice(range(n))
            assert kernel._randbelow(b.getrandbits, 4) == a.randint(0, 3)
            assert a.getstate() == b.getstate()


@pytest.mark.parametrize("k", [1, 2, 5, 6, 12])
def test_sampler_takes_a_population_past_2_to_the_63(k):
    """There `sample(range(n), k)` overflows; `_sample` redraws, which at this size
    means k draws below n in a row."""
    n = 2 ** 70
    with pytest.raises(OverflowError):
        random.Random("huge|%d" % k).sample(range(n), k)
    a, b = random.Random("huge|%d" % k), random.Random("huge|%d" % k)
    positions = kernel._sample(b.getrandbits, n, k)
    assert len(set(positions)) == k and all(0 <= p < n for p in positions)
    assert positions == [a.randrange(n) for _ in range(k)]
    assert a.getstate() == b.getstate()


def test_draws_read_only_getrandbits():
    """A generator whose other methods raise draws what a plain one of its seed draws."""

    class OnlyBits(random.Random):
        def _refuse(self, *args, **kwargs):
            raise AssertionError("a draw read more than getrandbits")

        random = choice = sample = randint = randrange = _randbelow = _refuse

    for trial in range(20):
        seed = "bits|%d" % trial
        assert random_element(SU3, Ring.COH, (0, 20), 3, OnlyBits(seed)) == random_element(SU3, Ring.COH, (0, 20), 3, seed)


def test_a_draw_in_an_unpopulated_degree_is_zero():
    index = basis_index(SU3, Ring.LOOP, 6)
    empty = index.degrees[-1] + 1
    assert index.count(empty) == 0
    for trial in range(5):
        assert not index.draw((empty,), 2, random.Random("empty|%d" % trial))


# -- basis index against brute-force enumeration ----------------------------

RANK12 = ModelSpec("rank12", tuple(range(3, 26, 2)))


def _reference_buckets(model, ring, even_cap):
    """Every monomial with total even exponent <= even_cap, sorted, by degree."""
    r = model.rank
    vectors = [
        exps for exps in itertools.product(range(even_cap + 1), repeat=r)
        if sum(exps) <= even_cap
    ]
    buckets = {}
    for size in range(r + 1):
        for odds in itertools.combinations(range(1, r + 1), size):
            for exps in vectors:
                x = Element(model, ring, {Monomial(odds, exps): 1})
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
            assert [kernel._unpack(model, index.monomial(deg, k)) for k in range(len(monos))] == monos
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
    assert kernel._unpack(RANK12, index.monomial(last, index.count(last) - 1)) == Monomial((), (0,) * 11 + (cap,))


def _exterior_ones(rank):
    return ModelSpec("exterior:" + ",".join(["1"] * rank), (1,) * rank)


def _su(n):
    return ModelSpec("su%d" % n, tuple(range(3, 2 * n, 2)))


@pytest.mark.parametrize("ring", list(Ring))
def test_basis_index_refuses_too_many_entries_before_listing_them(monkeypatch, ring):
    def listing(*args):
        raise RuntimeError("listed exponent vectors")

    monkeypatch.setattr(kernel, "_exponent_vectors", listing)
    # C(27 + 6, 6) exponent vectors at rank 27 and cap 6
    assert comb(27 + 6, 6) > MAX_INDEX_ENTRIES >= comb(26 + 6, 6)
    with pytest.raises(AlgebraError) as info:
        basis_index(_exterior_ones(27), ring, 6)
    assert str(info.value) == (
        "model %r: a basis index up to total even exponent 6 would need %d exponent vectors, "
        "more than the limit of %d" % (_exterior_ones(27).name, comb(27 + 6, 6), MAX_INDEX_ENTRIES)
    )
    with pytest.raises(AlgebraError, match="exponent vectors"):
        random_element(_exterior_ones(27), ring, (-3, 3), 1, 0, even_cap=6)
    # 101 count tables over a window of 10,201 degrees at su101 (rank 100), cap or no cap
    with pytest.raises(AlgebraError) as info:
        basis_index(_su(101), ring, 0)
    assert str(info.value) == (
        "model 'su101': a basis index up to total even exponent 0 would need 1030301 degree counts, "
        "more than the limit of %d" % MAX_INDEX_ENTRIES
    )
    # within both bounds the index is built: the fake listing is reached
    for model, cap in ((_exterior_ones(26), 6), (_su(100), 0)):
        with pytest.raises(RuntimeError, match="listed"):
            basis_index(model, ring, cap)


def test_rank_24_index_counts_without_listing_odd_tuples(monkeypatch):
    def listing(*args):
        raise RuntimeError("listed odd-index tuples")

    monkeypatch.setattr(itertools, "combinations", listing)
    model = _su(25)
    index = BasisIndex(model, Ring.LOOP, 6)  # uncached: it holds 593,775 exponent vectors
    assert sum(index.count(deg) for deg in index.degrees) == 2 ** 24 * comb(24 + 6, 6)
    middle = index.degrees[len(index.degrees) // 2]
    n = index.count(middle)
    assert n > 10 ** 6
    ends = [kernel._unpack(model, index.monomial(middle, k)) for k in (*range(20), *range(n - 20, n))]
    assert ends == sorted(set(ends))
    for mono in ends:
        assert Element(model, Ring.LOOP, {mono: 1}).degree() == middle
        assert sum(mono.exps) <= 6
    with pytest.raises(IndexError):
        index.monomial(middle, n)


# -- coefficient representation ---------------------------------------------


def _assert_int_coefficients(x):
    assert x.terms and all(type(c) is int for c in x.terms.values()), x.terms


def test_entry_points_store_integral_coefficients_as_int():
    mono = Monomial((1,), (2, 0))
    half = Fraction(1, 2)
    _assert_int_coefficients(Element(SU3, Ring.LOOP, {mono: Fraction(4, 2)}))
    _assert_int_coefficients(Element(SU3, Ring.LOOP, {mono: Fraction(-6, 3)}))
    _assert_int_coefficients(Element(SU3, Ring.LOOP, {mono: 1}))
    _assert_int_coefficients(Element.unit(SU3, Ring.COH))
    _assert_int_coefficients(Element.generator(SU3, Ring.LOOP, "even", 2))
    _assert_int_coefficients(_u(SU3, 1).scale(Fraction(3, 1)))
    _assert_int_coefficients(Fraction(2) * _a(SU3, 2))
    assert type(Element(SU3, Ring.LOOP, {mono: half}).terms[mono]) is Fraction
    assert Element(SU3, Ring.LOOP, {mono: half}).scale(Fraction(2, 3)).terms[mono] == Fraction(1, 3)
    assert type(_u(SU3, 1).scale(Fraction(-3, 2)).terms[Monomial((), (1, 0))]) is Fraction


def test_random_coefficients_are_ints_from_minus_three_to_three():
    seen = set()
    for ring in Ring:
        for trial in range(300):
            x = random_element(SU3, ring, (-10, 16), 3, "coeff|%d" % trial)
            for c in x.terms.values():
                assert type(c) is int and 1 <= abs(c) <= 3, c
                seen.add(c)
    assert seen == {-3, -2, -1, 1, 2, 3}


def test_operators_keep_int_coefficients():
    """Draws have integer coefficients; every operator on them keeps them integers."""
    from loopbv.cohomology import coh_delta
    from loopbv.extended import cap
    from loopbv.loop import bv_delta, loop_bracket

    seen = 0
    for trial in range(40):
        b, c = (random_element(SU3, Ring.LOOP, (-8, 16), 4, "%s|%d" % (name, trial)) for name in "bc")
        w = random_element(SU3, Ring.COH, (-8, 16), 4, "w|%d" % trial)
        for value in (b * c, b + c, -b, b - c, bv_delta(b), loop_bracket(b, c), cap(w, b), coh_delta(w)):
            if value:
                _assert_int_coefficients(value)
                seen += 1
    assert seen > 200


def test_int_and_fraction_coefficients_are_interchangeable():
    mono = Monomial((1,), (0, 3))
    as_int = Element(SU3, Ring.LOOP, {mono: 2, Monomial((), (1, 0)): -1})
    as_fraction = Element(SU3, Ring.LOOP, {mono: Fraction(2), Monomial((), (1, 0)): Fraction(-1)})
    assert as_int == as_fraction
    assert as_int.render() == as_fraction.render() == "-u1 + 2*a1*u2^3"
    assert as_int.render(unicode=True) == as_fraction.render(unicode=True)
    # arithmetic may leave a Fraction with denominator 1; it behaves as the int
    mixed = Element(SU3, Ring.LOOP, {mono: Fraction(1, 2)}) + Element(SU3, Ring.LOOP, {mono: Fraction(3, 2)})
    assert mixed == Element(SU3, Ring.LOOP, {mono: 2})
    assert mixed.render() == "2*a1*u2^3"


def test_coefficient_of_a_missing_monomial_is_int_zero():
    x = _a(SU3, 1) * _u(SU3, 2)
    assert x.terms.get(Monomial((1,), (0, 1)), 0) == 1
    missing = x.terms.get(Monomial((2,), (0, 0)), 0)
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
