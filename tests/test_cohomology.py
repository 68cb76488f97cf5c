"""Cohomology ring, circle-action derivation, Poincare duality."""

from __future__ import annotations

import random

import pytest

from loopbv.kernel import AlgebraError, Element, ModelSpec, Ring, random_element, sign_pow
from loopbv.cohomology import (
    alpha,
    coh_delta,
    poincare_dual,
    poincare_dual_inverse,
    to_base,
    v,
)
from loopbv.loop import a, u

import oracle

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))
E357 = ModelSpec("e357", (3, 5, 7))
MODELS = [S3, SU3, E357]


def _hdeg(x):
    d = x.degree()
    return d if isinstance(d, int) else 0


def _rand_coh(model, tag, trial, terms=2):
    rng = random.Random("coh|%s|%s|%d" % (model.name, tag, trial))
    return random_element(model, Ring.COH, (0, 2 * model.dimension), terms, rng, even_cap=5)


def _rand_exterior(model, tag, trial):
    rng = random.Random("ext|%s|%s|%d" % (model.name, tag, trial))
    return random_element(model, Ring.LOOP, (-model.dimension, 0), 2, rng, even_cap=0)


# -- cup product -----------------------------------------------------------------


def test_cup_examples():
    a1 = alpha(S3, 1)
    assert (a1 * a1).is_zero()
    v1 = v(S3, 1)
    assert v1 * a1 == a1 * v1
    a1_su3, a2_su3 = alpha(SU3, 1), alpha(SU3, 2)
    assert a1_su3 * a2_su3 == -(a2_su3 * a1_su3)


def test_cup_rejects_loop_classes():
    with pytest.raises(AlgebraError, match="ring mismatch"):
        alpha(S3, 1) * u(S3, 1)


# -- circle-action derivation ------------------------------------------------------


def test_coh_delta_generator_rules():
    assert coh_delta(alpha(S3, 1)) == v(S3, 1)
    assert coh_delta(v(S3, 1)).is_zero()
    for k in (1, 2, 4):
        assert coh_delta(v(S3, 1) ** k).is_zero()


def test_coh_delta_two_generator_sign():
    lhs = coh_delta(alpha(SU3, 1) * alpha(SU3, 2))
    d1 = SU3.generator_degrees[0]
    rhs = v(SU3, 1) * alpha(SU3, 2) + (alpha(SU3, 1) * v(SU3, 2)).scale(sign_pow(d1))
    assert lhs == rhs


@pytest.mark.parametrize("model", MODELS)
def test_coh_delta_is_a_derivation(model):
    for trial in range(50):
        x = _rand_coh(model, "der1", trial)
        y = _rand_coh(model, "der2", trial)
        lhs = coh_delta(x * y)
        rhs = coh_delta(x) * y + (x * coh_delta(y)).scale(sign_pow(_hdeg(x)))
        assert lhs == rhs


@pytest.mark.parametrize("model", MODELS)
def test_coh_delta_squares_to_zero_and_matches_oracle(model):
    for trial in range(50):
        x = _rand_coh(model, "dd", trial, terms=3)
        assert coh_delta(coh_delta(x)).is_zero()
        assert coh_delta(x) == oracle.coh_delta(x)


def test_coh_delta_lowers_degree_by_one():
    for trial in range(25):
        x = _rand_coh(SU3, "deg", trial)
        image = coh_delta(x)
        if not image.is_zero():
            assert image.degree() == _hdeg(x) - 1


# -- duality -----------------------------------------------------------------------


def test_poincare_dual_examples():
    assert poincare_dual(Element.unit(SU3, Ring.LOOP)) == Element.unit(SU3, Ring.COH)
    assert poincare_dual(a(SU3, 1) * a(SU3, 2)) == to_base(alpha(SU3, 1) * alpha(SU3, 2))
    assert poincare_dual_inverse(to_base(alpha(SU3, 1))) == a(SU3, 1)
    top = a(E357, 1) * a(E357, 2) * a(E357, 3)
    assert poincare_dual(top) == to_base(alpha(E357, 1) * alpha(E357, 2) * alpha(E357, 3))


def test_poincare_dual_rejects_non_exterior():
    with pytest.raises(AlgebraError, match="exterior"):
        poincare_dual(u(SU3, 1))
    with pytest.raises(AlgebraError):
        poincare_dual(alpha(SU3, 1))
    with pytest.raises(AlgebraError, match="base subring"):
        to_base(v(SU3, 1))


@pytest.mark.parametrize("model", MODELS)
def test_dual_is_multiplicative_and_negates_degree(model):
    for trial in range(40):
        x = _rand_exterior(model, "dual1", trial)
        y = _rand_exterior(model, "dual2", trial)
        assert poincare_dual(x * y) == poincare_dual(x) * poincare_dual(y)
        assert poincare_dual_inverse(poincare_dual(x)) == x
        if not x.is_zero():
            assert poincare_dual(x).degree() == -_hdeg(x)


# -- base subring bookkeeping -------------------------------------------------------


def test_to_base():
    with pytest.raises(AlgebraError, match="base subring"):
        to_base(v(S3, 1))
    assert to_base(alpha(S3, 1)) == alpha(S3, 1)
    assert to_base(Element.unit(S3, Ring.COH)) == Element.unit(S3, Ring.COH)
