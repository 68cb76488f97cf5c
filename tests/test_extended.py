"""Cap products, the extended algebra, and the loop-intersection calculator."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from loopbv.kernel import AlgebraError, Element, ModelSpec, Monomial, Ring, random_element, sign_pow
from loopbv.kernel import ANY_DEGREE, INHOMOGENEOUS
from loopbv.loop import a, bv_delta, is_constant_loop_class, loop_bracket, loop_product, loop_unit, s_star, u
from loopbv.cohomology import (
    alpha,
    coh_delta,
    coh_unit,
    is_base,
    poincare_dual,
    poincare_dual_inverse,
    to_base,
    v,
)
from loopbv.extended import (
    STANDARD_OPS,
    ExtendedClass,
    cap,
    extended_bracket,
    extended_delta,
    extended_product,
    loop_intersection,
    nested_brackets,
)

from loopbv.models import resolve_model
from loopbv.verify import CATALOG, _draw_class, _draw_extended, mutations

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
    }
    return random_element(model, ring, windows[ring], terms, rng, even_cap=even_cap)


def _rand_base(model, tag, trial, terms=2):
    """A base class: a cohomology draw in the window (0, d) at even cap 0."""
    rng = random.Random("x|%s|base-cohomology|%s|%d" % (model.name, tag, trial))
    return random_element(model, Ring.COH, (0, model.dimension), terms, rng, even_cap=0)


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


def _small_coh_monomials(model):
    """Every cohomology monomial alpha_T v^K with |T| <= 3 and sum(K) <= 2."""
    r = model.rank
    exps = [k for k in itertools.product(range(3), repeat=r) if sum(k) <= 2]
    odds = [t for n in range(4) for t in itertools.combinations(range(1, r + 1), n)]
    return [Element.monomial(model, Ring.COH, Monomial(t, k)) for t in odds for k in exps]


@pytest.mark.parametrize("name", ["su3", "exterior:3,5,7"])
def test_nested_brackets_in_both_orders_is_the_cap_on_small_monomials(name):
    """Eq. 5.2 through the standard product and bracket, last or first factor
    first (the Koszul sign at |T| = 2 and 3), is the closed-form cap."""
    model = resolve_model(name)
    nonzero_by_odds = {}
    for w in _small_coh_monomials(model):
        ((mono, _),) = w.terms.items()
        for draw in range(2):
            rng = random.Random("nested|%s|%s|%d" % (name, mono, draw))
            b = _draw_class("loop", model, 2, rng)
            value = cap(w, b)
            for forward in (False, True):
                assert nested_brackets(w, b, loop_product, loop_bracket, forward) == value
            nonzero_by_odds[len(mono.odds)] = nonzero_by_odds.get(len(mono.odds), 0) + bool(value)
    assert all(nonzero_by_odds[n] for n in range(min(model.rank, 3) + 1)), nonzero_by_odds


@pytest.mark.parametrize("name", ["su3", "exterior:3,5,7"])
def test_the_nested_bracket_row_takes_a_multi_term_class_and_zero(name):
    model = resolve_model(name)
    evaluate = CATALOG["eq-5.2-nested-brackets"].evaluate
    informative = 0
    for trial in range(10):
        rng = random.Random("nested-multi|%s|%d" % (name, trial))
        w, zero = Element.zero(model, Ring.COH), Element.zero(model, Ring.COH)
        while len(w.terms) < 3:  # one-term draws of any degrees: the cap is linear in w
            w = w + _draw_class("coh", model, 1, rng)
        b = _draw_class("loop", model, 2, rng)
        checks = evaluate(STANDARD_OPS, model, [w, b])
        assert len(checks) == 2 and all(lhs == rhs for _, lhs, rhs in checks)
        informative += not checks[0][1].is_zero()
        for _, lhs, rhs in evaluate(STANDARD_OPS, model, [zero, b]):
            assert lhs == rhs == Element.zero(model, Ring.LOOP)
    assert informative


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
        al = _rand_base(model, "tha1", trial)
        b = _rand(model, Ring.LOOP, "tha2", trial)
        c = _rand(model, Ring.LOOP, "tha3", trial)
        lhs = cap(al, b * c)
        assert lhs == cap(al, b) * c
        assert lhs == (b * cap(al, c)).scale(sign_pow(_hdeg(al) * _hdeg(b)))


@pytest.mark.parametrize("model", [S3, SU3])
def test_cap_delta_class_derives_product_and_bracket(model):
    for trial in range(40):
        al = _rand_base(model, "thb1", trial)
        b = _rand(model, Ring.LOOP, "thb2", trial)
        c = _rand(model, Ring.LOOP, "thb3", trial)
        da = coh_delta(al)
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
            al = _rand_base(model, "thd1", trial)
            b = _rand(model, Ring.LOOP, "thd2", trial)
            a_class = poincare_dual_inverse(al)
            assert cap(al, b) == a_class * b
            lhs = cap(coh_delta(al), b).scale(sign_pow(_hdeg(al)))
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
    assert one.coh == Element.unit(SU3, Ring.COH)
    assert one.loop.is_zero()
    for trial in range(20):
        x = ExtendedClass(
            _rand_base(SU3, "unit1", trial),
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
            _rand_base(SU3, "dd1", trial),
            _rand(SU3, Ring.LOOP, "dd2", trial),
        )
        assert extended_delta(extended_delta(x)).is_zero()


def test_extended_intertwines_duality():
    for model in MODELS:
        for trial in range(30):
            al = _rand_base(model, "int1", trial)
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


# -- the extended operators on inhomogeneous classes ----------------------------------
#
# Draws are homogeneous, so the catalog never hands the extended operators a
# class mixing degree parities.  The references below are the per-degree
# formulation: a loop over homogeneous components, summed with `+` and `.scale`.


def _product_by_components(x, y, ops):
    loop = ops.product(x.loop, y.loop)
    if not x.coh.is_zero() and not y.loop.is_zero():
        loop = loop + ops.cap(x.coh, y.loop)
    if not y.coh.is_zero() and not x.loop.is_zero():
        for k, w in y.coh.homogeneous_components().items():
            for n, b in x.loop.homogeneous_components().items():
                loop = loop + ops.cap(w, b).scale(sign_pow(k * n))
    return ExtendedClass(x.coh * y.coh, loop)


def _bracket_by_components(x, y, ops):
    loop = ops.bracket(x.loop, y.loop)
    if not x.coh.is_zero() and not y.loop.is_zero():
        for k, w in x.coh.homogeneous_components().items():
            loop = loop + ops.cap(ops.coh_delta(w), y.loop).scale(sign_pow(k))
    if not y.coh.is_zero() and not x.loop.is_zero():
        for k, w in y.coh.homogeneous_components().items():
            for n, b in x.loop.homogeneous_components().items():
                flip = -sign_pow((k + 1) * (n + 1))
                loop = loop + ops.cap(ops.coh_delta(w), b).scale(sign_pow(k) * flip)
    return ExtendedClass(Element.zero(x.model, Ring.COH), loop)


def _degree_by_components(x):
    degs = {-k for k in x.coh.homogeneous_components()} | set(x.loop.homogeneous_components())
    if not degs:
        return ANY_DEGREE
    return degs.pop() if len(degs) == 1 else INHOMOGENEOUS


def _parities(x):
    return {len(mono.odds) % 2 for mono in x.terms}


def _mixed_parity_classes(model, count=2):
    """Sums of `ext` draws and base draws of both degree parities, each also
    with its coh part or its loop part replaced by zero."""
    rng = random.Random("mixed-parity|%s" % model.name)
    exts, bases = {0: [], 1: []}, {0: [], 1: []}
    while min(len(drawn) for drawn in [*exts.values(), *bases.values()]) < 2 * count:
        x = _draw_extended(model, rng, 3)
        exts[x.degree() % 2].append(x)  # an `ext` draw is homogeneous
        w = _draw_class("base", model, 3, rng)
        bases[w.degree() % 2].append(ExtendedClass.from_coh(w))
    coh0, loop0 = Element.zero(model, Ring.COH), Element.zero(model, Ring.LOOP)
    out = []
    for i in range(count):
        drawn = [part[2 * i + j] for part in [*exts.values(), *bases.values()] for j in (0, 1)]
        x = sum(drawn, ExtendedClass.zero(model))
        out += [x, ExtendedClass(x.coh, loop0), ExtendedClass(coh0, x.loop)]
    # the mix must reach both parts, or the tests show nothing
    assert any(_parities(x.coh) == {0, 1} for x in out)
    assert any(_parities(x.loop) == {0, 1} for x in out)
    return out


_EXT_MODELS = ["s3", "su3", "exterior:3,5,7"]
_BUNDLES = {"standard": STANDARD_OPS, **mutations()}


@pytest.mark.parametrize("bundle", sorted(_BUNDLES))
@pytest.mark.parametrize("name", _EXT_MODELS)
def test_extended_operators_match_the_per_degree_formulation(name, bundle):
    model, ops = resolve_model(name), _BUNDLES[bundle]
    classes = _mixed_parity_classes(model)
    for x in classes:
        for y in classes:
            assert extended_product(x, y, ops=ops) == _product_by_components(x, y, ops)
            assert extended_bracket(x, y, ops=ops) == _bracket_by_components(x, y, ops)
        assert extended_delta(x, ops=ops) == ExtendedClass(Element.zero(model, Ring.COH), ops.delta(x.loop))


def _assert_honest_pair(x, model):
    """What the public constructor checks, and clean term dicts."""
    assert x.coh.ring is Ring.COH and to_base(x.coh) is x.coh
    assert x.loop.ring is Ring.LOOP
    assert x.model == x.coh.model == x.loop.model == model
    for part in (x.coh, x.loop):
        assert Element(model, part.ring, part.terms).terms == part.terms
        assert all(coeff != 0 for coeff in part.terms.values())


@pytest.mark.parametrize("name", _EXT_MODELS)
def test_engine_built_pairs_keep_the_class_invariants(name):
    model = resolve_model(name)
    classes = _mixed_parity_classes(model)
    results = [ExtendedClass.zero(model), ExtendedClass.unit(model)]
    for ops in _BUNDLES.values():
        for x in classes:
            results += [-x, x.scale(3), x.scale(Fraction(-1, 2)), x.scale(0), extended_delta(x, ops=ops)]
            for y in classes[:4]:
                results += [x + y, x - y, extended_product(x, y, ops=ops), extended_bracket(x, y, ops=ops)]
                results += list(extended_product(x, y, ops=ops).homogeneous_components().values())
    degrees = set()
    for x in classes + results:
        _assert_honest_pair(x, model)
        want = _degree_by_components(x)
        assert x.degree() is want if not isinstance(want, int) else x.degree() == want
        degrees.add(want if isinstance(want, int) else want.label)
    assert {"any-degree", "inhomogeneous"} <= degrees


@pytest.mark.parametrize("name", _EXT_MODELS)
def test_scale_by_one_is_the_class_itself(name):
    model = resolve_model(name)
    for x in _mixed_parity_classes(model):
        for part in (x.coh, x.loop):
            assert part.scale(1) is part
            assert part.scale(Fraction(2, 2)) is part
            assert part.scale(-1) == -part
            assert part.scale(0).is_zero() and part.scale(0).ring is part.ring
        assert x.scale(1) == x and x.scale(1).coh is x.coh and x.scale(1).loop is x.loop
        assert x.scale(-1) == -x
        assert x.scale(0).is_zero()
        _assert_honest_pair(x.scale(0), model)


_MISMATCH = "model mismatch ('s3' vs 'su3')"
_GUARDS = [
    (lambda: a(S3, 1) + a(SU3, 1), "add: " + _MISMATCH),
    (lambda: a(S3, 1) * a(SU3, 1), "multiply: " + _MISMATCH),
    (lambda: loop_bracket(a(S3, 1), u(SU3, 1)), "loop_bracket: " + _MISMATCH),
    (lambda: cap(alpha(S3, 1), u(SU3, 1)), "cap: " + _MISMATCH),
    (lambda: ExtendedClass(alpha(S3, 1), u(SU3, 1)), "ExtendedClass: " + _MISMATCH),
    (lambda: extended_product(ExtendedClass.unit(S3), ExtendedClass.unit(SU3)), "extended_product: " + _MISMATCH),
    (lambda: extended_bracket(ExtendedClass.unit(S3), ExtendedClass.unit(SU3)), "extended_bracket: " + _MISMATCH),
    (lambda: loop_bracket(alpha(S3, 1), u(S3, 1)), "loop_bracket: expected a loop-homology class, got cohomology"),
    (lambda: cap(u(S3, 1), u(S3, 1)), "cap: first argument must be a cohomology class, got loop-homology"),
    (lambda: cap(alpha(S3, 1), v(S3, 1)), "cap: second argument must be a loop-homology class, got cohomology"),
    (lambda: bv_delta(alpha(S3, 1)), "bv_delta: expected a loop-homology class, got cohomology"),
    (lambda: coh_delta(a(S3, 1)), "coh_delta: expected a cohomology class, got loop-homology"),
    (lambda: to_base(a(S3, 1)), "to_base: expected a cohomology class, got loop-homology"),
    (lambda: to_base(v(S3, 1)), "to_base: class has v factors, not in the base subring"),
    (lambda: poincare_dual(alpha(S3, 1)), "poincare_dual: expected a loop-homology class, got cohomology"),
    (lambda: poincare_dual(u(S3, 1)), "poincare_dual: input is not in the exterior subring (has u factors)"),
    (lambda: poincare_dual_inverse(a(S3, 1)),
     "poincare_dual_inverse: expected a cohomology class, got loop-homology"),
    (lambda: poincare_dual_inverse(v(S3, 1)),
     "poincare_dual_inverse: class has v factors, not in the base subring"),
    (lambda: s_star(alpha(S3, 1)), "s_star: expected a loop-homology class, got cohomology"),
    (lambda: s_star(u(S3, 1)), "s_star: input is not in the exterior subring (has u factors)"),
    (lambda: is_base(a(S3, 1)), "is_base: expected a cohomology class, got loop-homology"),
    (lambda: is_constant_loop_class(alpha(S3, 1)),
     "is_constant_loop_class: expected a loop-homology class, got cohomology"),
    (lambda: ExtendedClass(a(S3, 1), u(S3, 1)), "ExtendedClass: coh part must be base cohomology, got loop-homology"),
    (lambda: ExtendedClass(alpha(S3, 1), v(S3, 1)), "ExtendedClass: loop part must be loop homology, got cohomology"),
    (lambda: ExtendedClass.from_coh(v(S3, 1)), "ExtendedClass: class has v factors, not in the base subring"),
    (lambda: ExtendedClass.from_coh(u(S3, 1)), "ExtendedClass: coh part must be base cohomology, got loop-homology"),
    (lambda: loop_intersection([v(S3, 1)], [], u(S3, 1)), "loop_intersection: at_basepoint[0]: class has v factors, not in the base subring"),
]


@pytest.mark.parametrize("call, message", _GUARDS, ids=[message for _, message in _GUARDS])
def test_guard_messages(call, message):
    with pytest.raises(AlgebraError) as info:
        call()
    assert str(info.value) == message


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
        "loop_intersection: %s[1]: expected a cohomology class, got loop-homology" % slot
    )
    assert call(v(SU3, 1)) == "loop_intersection: %s[1]: class has v factors, not in the base subring" % slot
    assert call(alpha(S3, 1)) == "loop_intersection: %s[1] is over a different model" % slot


def test_loop_intersection_checks_entries_after_a_zero_class():
    zero = Element.zero(SU3, Ring.COH)
    for frees, message in [
        ([zero, u(SU3, 1)], "free_time[1]: expected a cohomology class, got loop-homology"),
        ([zero, v(SU3, 1)], "free_time[1]: class has v factors, not in the base subring"),
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
                random_element(model, Ring.COH, (0, d), 1, rng, even_cap=0)
                for _ in range(rng.randint(0, 3))
            ]
            frees = [
                random_element(model, Ring.COH, (0, d), 2, rng, even_cap=0)
                for _ in range(rng.randint(0, 3))
            ]
            fam = random_element(model, Ring.LOOP, (-d - 2, 2 * d), 2, rng, even_cap=5)
            omega = coh_unit(model)
            for w in ats:
                omega = omega * w
            exponent = 0
            for j, w in enumerate(frees, start=1):
                exponent += j * _hdeg(w)
                omega = omega * coh_delta(w)
            exponent -= len(frees)
            expected = cap(omega, fam).scale(sign_pow(exponent))
            assert loop_intersection(ats, frees, fam) == expected
