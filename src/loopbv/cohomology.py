"""The loop-space cohomology ring of a model and Poincare duality.

The full ring is free graded-commutative on alpha_i (odd, degree d_i) and
v_i (even, degree d_i - 1); the base subring H^*(M) is exterior on the
alpha_i alone: a base class is a `Ring.COH` element with no v factors, and
`to_base` is the check that a class lies in the subring.  The circle-action
operator is the odd derivation of degree -1 fixed on generators by

    coh_delta(alpha_i) = v_i,      coh_delta(v_i) = 0,

so v_i is an independent ring generator that coh_delta identifies with the
image of alpha_i.  Poincare duality D maps the exterior subring of loop
homology multiplicatively onto the base subring, D(a_i) = alpha_i; its
inverse realises base classes as constant-loop homology classes.
"""

from __future__ import annotations

from .kernel import Element, ModelSpec, _COH, _LOOP
from .kernel import _clean, _expect, _exterior, _overflow


def alpha(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, _COH, "odd", index)


def v(model: ModelSpec, index: int) -> Element:
    return Element.generator(model, _COH, "even", index)


def coh_delta(x: Element) -> Element:
    """The odd derivation with coh_delta(alpha_i) = v_i; squares to zero."""
    _expect(x, "coh_delta", _COH)
    packing = x.model._packing
    odd, shifts, guard = packing.odd, packing.shifts, packing.guard
    out = {}
    get = out.get
    for mono, coeff in x._terms.items():
        odds, pos = mono & odd, 0
        while odds:
            bit = odds & -odds
            odds ^= bit
            new = mono - bit + (1 << shifts[bit.bit_length() - 1])
            if new & guard:
                raise _overflow(x.model, new)
            # the derivation passes over `pos` odd generators; v_i is even,
            # so sliding it into the exponent block costs nothing
            out[new] = get(new, 0) + (-coeff if pos & 1 else coeff)
            pos += 1
    return Element._of(x.model, _COH, _clean(out))


def to_base(x: Element, op: str = "to_base") -> Element:
    """Return `x` once it is checked to lie in the base subring; messages name `op`."""
    return _exterior(x, op, _COH)


def poincare_dual(x: Element) -> Element:
    """D: exterior loop-homology classes to base cohomology, D(a_i) = alpha_i.

    Multiplicative by construction, D(x*y) = D(x) cup D(y): the Koszul signs
    for reordering the a_i and the alpha_i are identical.
    """
    _exterior(x, "poincare_dual", _LOOP)
    return Element._of(x.model, _COH, dict(x._terms))


def poincare_dual_inverse(w: Element) -> Element:
    """D^{-1}: base cohomology back to constant-loop homology classes."""
    to_base(w, "poincare_dual_inverse")
    return Element._of(w.model, _LOOP, dict(w._terms))
