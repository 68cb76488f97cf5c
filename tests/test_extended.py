"""Cap products, the extended algebra, and the loop-intersection calculator."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from loopbv.kernel import AlgebraError, Element, ModelSpec, Ring, random_element, sign_pow
from loopbv.loop import a, bv_delta, loop_bracket, loop_unit, s_star, u
from loopbv.cohomology import alpha, coh_delta, coh_unit, poincare_dual_inverse, to_base, to_full, v
from loopbv.extended import (
    ExtendedClass,
    cap,
    extended_bracket,
    extended_delta,
    extended_product,
    loop_intersection,
)

from oracles import cap_oracle

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))
E357 = ModelSpec("e357", (3, 5, 7))
MODELS = [S3, SU3, E357]
SU8 = ModelSpec("su8", (3, 5, 7, 9, 11, 13, 15))  # rank 7


def _hdeg(x):
    d = x.degree()
    return d if isinstance(d, int) else 0


def _rand(model, ring, tag, trial, terms=2, even_cap=5):
    rng = random.Random("x|%s|%s|%s|%d" % (model.name, ring.value, tag, trial))
    d = model.dimension
    windows = {
        Ring.LOOP: (-d - 2, 2 * d),
        Ring.COH: (0, 2 * d),
        Ring.BASE: (0, d),
    }
    return random_element(model, ring, windows[ring], terms, rng, even_cap=even_cap)


# -- cap: desk values against the differentiation oracle -------------------------


def test_cap_with_base_class_is_left_product():
    a1, u1 = a(S3, 1), u(S3, 1)
    for k in range(4):
        assert cap(alpha(S3, 1), u1 ** k) == a1 * u1 ** k


def test_cap_single_v_desk_value():
    u1 = u(S3, 1)
    value = cap(v(S3, 1), u1 ** 2)
    assert value == 2 * u1
    assert value == cap_oracle(v(S3, 1), u1 ** 2)


def test_cap_double_v_desk_value():
    u1 = u(S3, 1)
    value = cap(v(S3, 1) * v(S3, 1), u1 ** 3)
    assert value == 6 * u1
    assert value == cap_oracle(v(S3, 1) * v(S3, 1), u1 ** 3)


def test_cap_of_delta_class_kills_constant_classes():
    # every basis class of the s3 base: 1 and a1
    for x in (loop_unit(S3), a(S3, 1)):
        assert cap(v(S3, 1), s_star(x)).is_zero()
    for x in (loop_unit(SU3), a(SU3, 1), a(SU3, 2), a(SU3, 1) * a(SU3, 2)):
        assert cap(v(SU3, 1), s_star(x)).is_zero()
        assert cap(v(SU3, 2), s_star(x)).is_zero()


@pytest.mark.parametrize("model", MODELS)
def test_cap_matches_differentiation_oracle(model):
    for trial in range(60):
        w = _rand(model, Ring.COH, "capw", trial, terms=2, even_cap=4)
        b = _rand(model, Ring.LOOP, "capb", trial, terms=2)
        assert cap(w, b) == cap_oracle(w, b)


@pytest.mark.parametrize("model", MODELS + [SU8])
def test_closed_form_cap_matches_bracket_expansion_and_oracle(model):
    rng = random.Random("capexp|%s" % model.name)
    r = model.rank

    def odds(avoid=()):
        free = [i for i in range(1, r + 1) if i not in avoid]
        return tuple(sorted(rng.sample(free, rng.randint(0, len(free)))))

    def coeff():
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))

    nonzero = 0
    for trial in range(25):
        w_terms, b_terms = {}, {}
        while len(w_terms) < 3:
            exps = [rng.randint(0, 3) for _ in range(r)]
            exps[rng.randrange(r)] = rng.randint(2, 4)
            w_odds = odds()
            w_terms[(w_odds, tuple(exps))] = coeff()
            # a loop term with u exponents at least these and no odd index in
            # common keeps the cap nonzero
            b_terms[(odds(w_odds), tuple(k + rng.randint(0, 2) for k in exps))] = coeff()
        w = Element(model, Ring.COH, w_terms)
        b = Element(model, Ring.LOOP, b_terms)
        value = cap(w, b)
        assert value == cap(w, b, bracket=loop_bracket)
        assert value == cap_oracle(w, b)
        nonzero += not value.is_zero()
    assert nonzero >= 20


def test_cap_unit_and_degree():
    for trial in range(20):
        b = _rand(SU3, Ring.LOOP, "capdeg", trial)
        assert cap(coh_unit(SU3), b) == b
        w = _rand(SU3, Ring.COH, "capdegw", trial)
        result = cap(w, b)
        if not result.is_zero():
            assert result.degree() == _hdeg(b) - _hdeg(w)


def test_cap_module_axiom_random():
    for model in MODELS:
        for trial in range(40):
            w1 = _rand(model, Ring.COH, "mod1", trial, even_cap=4)
            w2 = _rand(model, Ring.COH, "mod2", trial, even_cap=4)
            b = _rand(model, Ring.LOOP, "mod3", trial)
            assert cap(w1 * w2, b) == cap(w1, cap(w2, b))


def test_cap_ring_checks():
    with pytest.raises(AlgebraError):
        cap(u(S3, 1), u(S3, 1))
    with pytest.raises(AlgebraError):
        cap(alpha(S3, 1), alpha(S3, 1))
    with pytest.raises(AlgebraError, match="model mismatch"):
        cap(alpha(S3, 1), u(SU3, 1))


# -- Theorem-A style derivation laws ----------------------------------------------


@pytest.mark.parametrize("model", [S3, SU3])
def test_cap_commutes_with_loop_product(model):
    for trial in range(40):
        al = _rand(model, Ring.BASE, "tha1", trial)
        b = _rand(model, Ring.LOOP, "tha2", trial)
        c = _rand(model, Ring.LOOP, "tha3", trial)
        alf = to_full(al)
        lhs = cap(alf, b * c)
        assert lhs == cap(alf, b) * c
        assert lhs == (b * cap(alf, c)).scale(sign_pow(_hdeg(al) * _hdeg(b)))


@pytest.mark.parametrize("model", [S3, SU3])
def test_cap_delta_class_derives_product_and_bracket(model):
    for trial in range(40):
        al = _rand(model, Ring.BASE, "thb1", trial)
        b = _rand(model, Ring.LOOP, "thb2", trial)
        c = _rand(model, Ring.LOOP, "thb3", trial)
        da = coh_delta(to_full(al))
        k, n = _hdeg(al), _hdeg(b)
        assert cap(da, b * c) == cap(da, b) * c + (b * cap(da, c)).scale(sign_pow((k - 1) * n))
        assert cap(da, loop_bracket(b, c)) == loop_bracket(cap(da, b), c) + loop_bracket(
            b, cap(da, c)
        ).scale(sign_pow((k - 1) * (n + 1)))


@pytest.mark.parametrize("model", [S3, SU3])
def test_delta_derives_cap(model):
    for trial in range(40):
        w = _rand(model, Ring.COH, "thc1", trial, even_cap=4)
        b = _rand(model, Ring.LOOP, "thc2", trial)
        lhs = bv_delta(cap(w, b))
        rhs = cap(coh_delta(w), b) + cap(w, bv_delta(b)).scale(sign_pow(_hdeg(w)))
        assert lhs == rhs


def test_cap_equals_bracket_route():
    for model in MODELS:
        for trial in range(40):
            al = _rand(model, Ring.BASE, "thd1", trial)
            b = _rand(model, Ring.LOOP, "thd2", trial)
            a_class = poincare_dual_inverse(al)
            assert cap(to_full(al), b) == a_class * b
            lhs = cap(coh_delta(to_full(al)), b).scale(sign_pow(_hdeg(al)))
            assert lhs == loop_bracket(a_class, b)


# -- extended classes ---------------------------------------------------------------


def test_extended_class_degree_bookkeeping():
    x = ExtendedClass(to_base(alpha(S3, 1)), Element.zero(S3, Ring.LOOP))
    assert x.degree() == -3
    y = ExtendedClass.from_loop(u(S3, 1))
    assert y.degree() == 2
    matched = ExtendedClass(to_base(alpha(S3, 1)), a(S3, 1))  # both degree -3
    assert matched.degree() == -3
    mixed = x + y
    from loopbv.kernel import INHOMOGENEOUS

    assert mixed.degree() is INHOMOGENEOUS
    assert ExtendedClass.zero(S3).degree().label == "any-degree"
    parts = mixed.homogeneous_components()
    assert set(parts) == {-3, 2}
    assert sum(parts.values(), ExtendedClass.zero(S3)) == mixed


def test_extended_product_examples():
    a1u = ExtendedClass.from_coh(alpha(S3, 1))
    for k in range(3):
        against = ExtendedClass.from_loop(u(S3, 1) ** k)
        assert extended_product(a1u, against) == ExtendedClass.from_loop(a(S3, 1) * u(S3, 1) ** k)
    x = ExtendedClass.from_coh(alpha(SU3, 1))
    y = ExtendedClass.from_coh(alpha(SU3, 2))
    assert extended_product(x, y) == ExtendedClass.from_coh(alpha(SU3, 1) * alpha(SU3, 2))
    b = ExtendedClass.from_loop(u(SU3, 1))
    c = ExtendedClass.from_loop(a(SU3, 1) * u(SU3, 2))
    assert extended_product(b, c) == ExtendedClass.from_loop(u(SU3, 1) * a(SU3, 1) * u(SU3, 2))


def test_extended_unit_is_one_in_degree_zero_cohomology():
    one = ExtendedClass.unit(SU3)
    assert one.coh == Element.unit(SU3, Ring.BASE)
    assert one.loop.is_zero()
    for trial in range(20):
        x = ExtendedClass(
            _rand(SU3, Ring.BASE, "unit1", trial),
            _rand(SU3, Ring.LOOP, "unit2", trial),
        )
        assert extended_product(one, x) == x
        assert extended_product(x, one) == x


def test_extended_bracket_examples():
    x = ExtendedClass.from_coh(alpha(S3, 1))
    y = ExtendedClass.from_loop(u(S3, 1))
    assert extended_bracket(x, y) == ExtendedClass.from_loop(-loop_unit(S3))
    x2 = ExtendedClass.from_coh(alpha(SU3, 1))
    y2 = ExtendedClass.from_coh(alpha(SU3, 2))
    assert extended_bracket(x2, y2).is_zero()
    for cls in (loop_unit(SU3), a(SU3, 1), a(SU3, 1) * a(SU3, 2)):
        assert extended_bracket(x2, ExtendedClass.from_loop(s_star(cls))).is_zero()


def test_extended_delta_examples():
    assert extended_delta(ExtendedClass.from_coh(alpha(S3, 1))).is_zero()
    assert extended_delta(ExtendedClass.from_loop(a(S3, 1) * u(S3, 1))) == ExtendedClass.from_loop(
        loop_unit(S3)
    )
    assert extended_delta(ExtendedClass.from_loop(u(S3, 1) ** 3)).is_zero()
    # squares to zero even through mixed classes
    for trial in range(20):
        x = ExtendedClass(
            _rand(SU3, Ring.BASE, "dd1", trial),
            _rand(SU3, Ring.LOOP, "dd2", trial),
        )
        assert extended_delta(extended_delta(x)).is_zero()


def test_extended_intertwines_duality():
    for model in MODELS:
        for trial in range(30):
            al = _rand(model, Ring.BASE, "int1", trial)
            b = _rand(model, Ring.LOOP, "int2", trial)
            a_class = poincare_dual_inverse(al)
            assert extended_bracket(
                ExtendedClass.from_coh(al), ExtendedClass.from_loop(b)
            ) == ExtendedClass.from_loop(loop_bracket(a_class, b))
            assert extended_product(
                ExtendedClass.from_coh(al), ExtendedClass.from_loop(b)
            ) == ExtendedClass.from_loop(a_class * b)


def test_extended_model_mismatch():
    with pytest.raises(AlgebraError, match="model mismatch"):
        extended_product(ExtendedClass.unit(S3), ExtendedClass.unit(SU3))


# -- loop intersection ---------------------------------------------------------------


def test_loop_intersection_free_time_example():
    assert loop_intersection([], [alpha(S3, 1)], u(S3, 1) ** 2) == 2 * u(S3, 1)


def test_loop_intersection_two_free_classes_example():
    result = loop_intersection([], [alpha(S3, 1), alpha(S3, 1)], u(S3, 1) ** 3)
    assert result == -6 * u(S3, 1)


def test_loop_intersection_basepoint_only_is_intersection_product():
    for trial in range(25):
        b = _rand(S3, Ring.LOOP, "li", trial)
        assert loop_intersection([alpha(S3, 1)], [], b) == a(S3, 1) * b


def test_loop_intersection_empty_lists_return_family():
    b = a(SU3, 1) * u(SU3, 2)
    assert loop_intersection([], [], b) == b


def test_loop_intersection_rejects_inhomogeneous_free_class():
    mixed = alpha(SU3, 1) + alpha(SU3, 1) * alpha(SU3, 2)
    with pytest.raises(AlgebraError, match="free_time\\[0\\] is inhomogeneous"):
        loop_intersection([], [mixed], u(SU3, 1))


def test_loop_intersection_rejects_non_base_classes():
    with pytest.raises(AlgebraError, match="base"):
        loop_intersection([], [v(SU3, 1)], u(SU3, 1))
    with pytest.raises(AlgebraError, match="base"):
        loop_intersection([v(SU3, 1)], [], u(SU3, 1))


@pytest.mark.parametrize("slot", ["at_basepoint", "free_time"])
def test_loop_intersection_messages_are_pinned(slot):
    def call(bad):
        good = alpha(SU3, 1)
        ats, frees = ([good, bad], []) if slot == "at_basepoint" else ([], [good, bad])
        with pytest.raises(AlgebraError) as info:
            loop_intersection(ats, frees, u(SU3, 1))
        return str(info.value)

    assert call(u(SU3, 1)) == (
        "loop_intersection: %s[1] must be a base cohomology class" % slot
    )
    assert call(v(SU3, 1)) == "loop_intersection: %s[1] is not in the base subring" % slot
    assert call(alpha(S3, 1)) == "loop_intersection: %s[1] is over a different model" % slot


def test_loop_intersection_checks_entries_after_a_zero_class():
    zero = Element.zero(SU3, Ring.COH)
    for frees, message in [
        ([zero, u(SU3, 1)], "free_time[1] must be a base cohomology class"),
        ([zero, v(SU3, 1)], "free_time[1] is not in the base subring"),
        ([zero, alpha(S3, 1)], "free_time[1] is over a different model"),
        ([zero, alpha(SU3, 1) + coh_unit(SU3)], "free_time[1] is inhomogeneous"),
    ]:
        with pytest.raises(AlgebraError) as info:
            loop_intersection([], frees, u(SU3, 1))
        assert str(info.value).startswith("loop_intersection: " + message)
    valid = loop_intersection([], [zero, alpha(SU3, 1) + alpha(SU3, 1) * 3], u(SU3, 1))
    assert valid == Element.zero(SU3, Ring.LOOP)


def test_loop_intersection_family_message_is_pinned():
    with pytest.raises(AlgebraError) as info:
        loop_intersection([], [], alpha(SU3, 1))
    assert str(info.value) == "loop_intersection: family must be a loop-homology class"


def test_loop_intersection_matches_signed_cap_formula():
    # independent recomputation of the position-dependent sign
    for model in [SU3, E357]:
        for trial in range(40):
            rng = random.Random("cfg|%s|%d" % (model.name, trial))
            d = model.dimension
            ats = [
                random_element(model, Ring.BASE, (0, d), 1, rng)
                for _ in range(rng.randint(0, 3))
            ]
            frees = [
                random_element(model, Ring.BASE, (0, d), 2, rng)
                for _ in range(rng.randint(0, 3))
            ]
            fam = random_element(model, Ring.LOOP, (-d - 2, 2 * d), 2, rng, even_cap=5)
            omega = coh_unit(model)
            for w in ats:
                omega = omega * to_full(w)
            exponent = 0
            for j, w in enumerate(frees, start=1):
                exponent += j * _hdeg(w)
                omega = omega * coh_delta(to_full(w))
            exponent -= len(frees)
            expected = cap(omega, fam).scale(sign_pow(exponent))
            assert loop_intersection(ats, frees, fam) == expected
