"""Exact graded-commutative monomial arithmetic over the rationals.

A model is a free graded-commutative algebra on r odd generators and r even
generators, realised in two gradings ("rings"):

* loop homology -- odd generator a_i of degree -d_i, even u_i of degree d_i - 1,
* cohomology    -- odd generator alpha_i of degree d_i, even v_i of degree d_i - 1.

Base cohomology H^*(M) is not a third ring but the exterior subring of
cohomology on the alpha_i alone; `_exterior` is the one membership check,
for it and for the exterior subring of loop homology on the a_i.

Coefficients are exact rationals: every entry point (`Element(...)`,
`Element.unit`, `Element.generator`, `Element.scale`) stores an integral value
as an `int` and any other as a `fractions.Fraction`, so the integer
structure constants of the operators stay in `int` arithmetic.
`random_element` draws integer coefficients in -3..-1 and 1..3 only, so a
seeded draw never leaves `int` arithmetic.
Arithmetic on non-integral coefficients may leave a `Fraction` with
denominator 1; it compares, hashes and prints exactly as the `int` does, so
equality and rendering do not depend on the type.

Signs are produced by the Koszul rule (-1)^{pq} on parities, where the parity
of a generator is its kind (odd/even), never its degree: loop-homology
degrees are negative for the a_i but their parity is odd.

Inside the engine a monomial is one int, packed in the same layout in both
rings.  For a model of rank r, bit i - 1 says whether the odd generator of
index i is present, so the odd part is the mask `m & _Packing.odd`; above
it, from bit r + 64 (i - 1), a 64-bit field holds the exponent of the i-th
even generator.  The unit monomial is 0.  A product of two monomials with
disjoint masks is their sum, d/du_i subtracts one field unit, and
d/da_i subtracts one bit.  The top bit of each field is its guard:
exponents are at most `MAX_EXPONENT` = 2^63 - 1, so a sum of two fields
never carries into the next one, and every place an exponent grows (the
checked constructor, the one-term `**`, `*`, the bracket and `coh_delta`)
tests the guard bits and refuses a larger exponent with an `AlgebraError`
that names the limit.  The Koszul sign of a_S a_T, for disjoint masks S and
T, is (-1)^n with n the number of pairs (i in S, j in T) with i > j; it is
the parity of one population count, n = popcount(S & _below(T)) mod 2,
where bit k of `_below(T)` is the parity of the bits of T below k (Knuth,
TAOCP 4A, 7.1.3).  `Monomial` is the public spelling of a key: the checked
`Element(...)` packs its keys and `Element.terms` decodes them.  `_Packing`
is the one derivation of a model's field offsets, even weights and signed
odd degrees; every reader of the layout or the grading takes them from it.

The engine reads the two rings as the module constants `_LOOP` and `_COH`,
bound once to `Ring.LOOP` and `Ring.COH`; `Ring.LOOP` stays the public
spelling.  Looking up an enum member costs 0.12-0.14 us on Python 3.10 and
3.11 against 0.03 us on 3.12 and 3.13, and a catalog trial makes tens of
such lookups; reading a module constant costs under 0.01 us.  Function
bodies in this module, `loop`, `cohomology`, `extended` and `verify` use the
constants; module-level tables may name the members.

Elements are immutable after construction and all operations are pure, so
models and elements can be shared freely across threads or workers.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from operator import mul
from typing import Mapping, NamedTuple


class AlgebraError(ValueError):
    """Bad algebraic usage: ring or model mixing, non-subring input."""


class Ring(Enum):
    LOOP = "loop-homology"
    COH = "cohomology"


_LOOP, _COH = Ring.LOOP, Ring.COH

_FIELD = 64  # bits per exponent field; the top one is the field's guard
MAX_EXPONENT = 2 ** (_FIELD - 1) - 1
_FIELD_MASK = (1 << _FIELD) - 1


class _Packing:
    """The packed layout of a model's monomials (see the module docstring): the
    odd mask `odd`, the bit offset of each exponent field, the guard bits of all
    fields, and the degrees the fields and bits weigh."""

    __slots__ = ("rank", "odd", "shifts", "guard", "zeros", "odd_degrees", "weights")

    def __init__(self, degrees: tuple[int, ...]):
        rank = len(degrees)
        self.rank = rank
        self.odd = (1 << rank) - 1
        self.shifts = tuple(range(rank, rank + _FIELD * rank, _FIELD))
        # one bit per field: (2^(64r) - 1) / (2^64 - 1) is 1 in every field
        self.guard = ((1 << _FIELD * rank) - 1) // _FIELD_MASK << (rank + _FIELD - 1)
        self.zeros = (0,) * rank
        self.odd_degrees = (tuple(-d for d in degrees), degrees)  # [ring is _COH]: -d_i in loop homology
        self.weights = tuple(d - 1 for d in degrees)  # of the even generators, in both rings


_packing = lru_cache(maxsize=None)(_Packing)


@dataclass(frozen=True)
class ModelSpec:
    """A manifold model: one odd degree per exterior cohomology generator.

    `generator_degrees` lists (d_1, ..., d_r); every d_i must be odd and >= 1.
    The model dimension is d = sum(d_i).
    """

    name: str
    generator_degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "generator_degrees", tuple(self.generator_degrees))
        if len(self.generator_degrees) < 1:
            raise AlgebraError("model %r: need at least one generator degree" % self.name)
        for pos, deg in enumerate(self.generator_degrees):
            if not isinstance(deg, int) or isinstance(deg, bool):
                raise AlgebraError(
                    "model %r: generator_degrees[%d] = %r is not an integer"
                    % (self.name, pos, deg)
                )
            if deg < 1 or deg % 2 == 0:
                raise AlgebraError(
                    "model %r: generator_degrees[%d] = %d must be an odd integer >= 1"
                    % (self.name, pos, deg)
                )
        # not a field: equality, hashing and the repr see the name and the degrees only
        object.__setattr__(self, "_packing", _packing(self.generator_degrees))

    @property
    def rank(self) -> int:
        return len(self.generator_degrees)

    @property
    def dimension(self) -> int:
        return sum(self.generator_degrees)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:  # bad JSON, or a number past the digit limit
            raise AlgebraError("model JSON is unreadable: %s" % exc) from exc
        if not isinstance(data, dict):
            raise AlgebraError("model JSON must be an object with 'name' and 'generator_degrees'")
        try:
            name = data["name"]
            degrees = data["generator_degrees"]
        except KeyError as exc:
            raise AlgebraError("model JSON is missing the %s field" % exc) from exc
        if not isinstance(name, str):
            raise AlgebraError("model JSON: 'name' must be a string")
        if not isinstance(degrees, list):
            raise AlgebraError("model JSON: 'generator_degrees' must be a list of odd integers")
        return cls(name=name, generator_degrees=tuple(degrees))

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "generator_degrees": list(self.generator_degrees)},
            sort_keys=True,
        )


class Monomial(NamedTuple):
    """One basis word: ascending odd-generator indices plus even exponents.

    `odds` holds the 1-based indices of the odd generators present (each at
    most once, strictly ascending); `exps` has one nonnegative entry per even
    generator.  The empty monomial ((), (0,...,0)) is the ring unit.
    """

    odds: tuple[int, ...]
    exps: tuple[int, ...]


def _pack(model: ModelSpec, mono: Monomial) -> int:
    """The packed int of a checked `Monomial` of `model`."""
    m = 0
    for i in mono.odds:
        m |= 1 << (i - 1)
    for k, shift in zip(mono.exps, model._packing.shifts):
        m |= k << shift
    return m


def _unpack(model: ModelSpec, m: int) -> Monomial:
    """The `Monomial` of a packed monomial of `model`."""
    return Monomial(*_render_key(model, _LOOP, m)[1:])


def _exponent_error(k: int) -> AlgebraError:
    return AlgebraError("exponent %d exceeds the limit of %d (2^63 - 1)" % (k, MAX_EXPONENT))


def _overflow(model: ModelSpec, m: int) -> AlgebraError:
    """The error for a packed sum whose guard bits are not all clear."""
    return _exponent_error(max(_unpack(model, m).exps))


def _below(s: int) -> int:
    """The mask whose bit k is the parity of the bits of `s` below k: the Koszul
    sign of a_S a_T is the parity of `(S & _below(T)).bit_count()`.  It is
    negative when `s` has an odd number of bits, which `&` reads as ones above."""
    p = 0
    while s:
        low = s & -s
        s ^= low
        p ^= -(low << 1)  # every bit above `low` flips
    return p


def _clean(terms: dict) -> dict:
    """`terms` without its cancelled entries.  Every engine loop that sums terms
    adds with `terms[m] = get(m, 0) + c` and hands its dict here once."""
    return {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms


def _same_model(x, y, op: str) -> None:
    """Raise unless the classes `x` and `y` are over the same model."""
    if x.model is not y.model and x.model != y.model:
        raise AlgebraError("%s: model mismatch (%r vs %r)" % (op, x.model.name, y.model.name))


def _expect(x: Element, op: str, ring: Ring) -> None:
    """Raise unless `x` lies in `ring`."""
    if x.ring is not ring:
        raise AlgebraError("%s: expected a %s class, got %s" % (op, ring.value, x.ring.value))


_NOT_EXTERIOR = {Ring.LOOP: "%s: input is not in the exterior subring (has u factors)",
                 Ring.COH: "%s: class has v factors, not in the base subring"}


def _exterior(x: Element, op: str, ring: Ring) -> Element:
    """Return `x` once it lies in `ring` with no even generator (u_i or v_i)."""
    _expect(x, op, ring)
    odd = x.model._packing.odd
    if any(m > odd for m in x._terms):
        raise AlgebraError(_NOT_EXTERIOR[ring] % op)
    return x


def _mono_degree(model: ModelSpec, ring: Ring, m: int) -> int:
    """The degree of the packed monomial `m` in `ring`."""
    packing = model._packing
    odd_degrees, deg, bits = packing.odd_degrees[ring is _COH], 0, m & packing.odd
    while bits:
        low = bits & -bits
        deg += odd_degrees[low.bit_length() - 1]
        bits ^= low
    e = m >> packing.rank
    for w in packing.weights:  # sum of k_i * (d_i - 1)
        if not e:
            break
        deg += (e & _FIELD_MASK) * w
        e >>= _FIELD
    return deg


def _render_key(model: ModelSpec, ring: Ring, m: int) -> tuple:
    """(degree, odds, exps) of the packed monomial `m`, decoded: `render` lists
    terms in this order, and (odds, exps) is its `Monomial`."""
    packing = model._packing
    odd_degrees, odds, bits, deg = packing.odd_degrees[ring is _COH], [], m & packing.odd, 0
    while bits:
        low = bits & -bits
        i = low.bit_length()
        odds.append(i)
        deg += odd_degrees[i - 1]
        bits ^= low
    if m > packing.odd:
        exps = tuple([m >> shift & _FIELD_MASK for shift in packing.shifts])
        deg += sum(map(mul, exps, packing.weights))
    else:
        exps = packing.zeros
    return deg, tuple(odds), exps


_GEN_NAMES = {Ring.LOOP: ("a", "u"), Ring.COH: ("alpha", "v")}
_UNICODE_GEN_NAMES = {Ring.LOOP: ("a", "u"), Ring.COH: ("α", "v")}
# (loop names, cohomology names), ASCII then unicode: `render` picks without hashing a `Ring`
_RING_NAMES = tuple((names[_LOOP], names[_COH]) for names in (_GEN_NAMES, _UNICODE_GEN_NAMES))


def _mono_str(packing: _Packing, m: int, odd_name: str, even_name: str, sep: str) -> str:
    parts, bits = [], m & packing.odd
    while bits:
        low = bits & -bits
        parts.append(f"{odd_name}{low.bit_length()}")
        bits ^= low
    if m > packing.odd:
        for i, shift in enumerate(packing.shifts, 1):
            k = m >> shift & _FIELD_MASK
            if k == 1:
                parts.append(f"{even_name}{i}")
            elif k:
                parts.append(f"{even_name}{i}^{k}")
    return sep.join(parts) if parts else "1"


class DegreeMarker:
    """Marker degrees: the zero element is homogeneous of every degree, and
    elements whose terms disagree have no degree at all."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self):
        return self.label


ANY_DEGREE = DegreeMarker("any-degree")
INHOMOGENEOUS = DegreeMarker("inhomogeneous")


def _as_coefficient(q) -> int | Fraction:
    """An exact rational as an `int` when integral, else as a `Fraction`; not a `bool`."""
    if isinstance(q, int) and not isinstance(q, bool):
        return int(q)
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    raise AlgebraError("coefficients must be exact rationals, got %r" % (q,))


class Element:
    """A finite rational linear combination of monomials in one ring.

    Stored terms never carry a zero coefficient and every monomial is
    canonical, so `==` is exact coefficient-wise comparison.  Coefficients
    are `int` or `Fraction` (see the module docstring), and the keys are
    packed monomials; `terms` reads them as `Monomial`s.  Instances are
    treated as immutable; arithmetic returns fresh elements, except that
    `scale(1)` may return the element itself.
    """

    __slots__ = ("model", "ring", "_terms")

    def __init__(self, model: ModelSpec, ring: Ring, terms: Mapping[Monomial, int | Fraction] | None = None):
        self.model = model
        self.ring = ring
        clean: dict[int, int | Fraction] = {}
        if terms:
            r = model.rank
            for mono, coeff in terms.items():
                if not (isinstance(mono, tuple) and len(mono) == 2
                        and isinstance(mono[0], tuple) and isinstance(mono[1], tuple)):
                    raise AlgebraError("monomial %r: expected an (odds, exps) pair of tuples" % (mono,))
                if not all(isinstance(k, int) and not isinstance(k, bool) for k in mono[0] + mono[1]):
                    raise AlgebraError("monomial %r: odd indices and exponents must be integers" % (mono,))
                mono = Monomial(*mono)
                if len(mono.exps) != r:
                    raise AlgebraError("monomial %r: expected %d even exponents" % (mono, r))
                if any(k < 0 for k in mono.exps):
                    raise AlgebraError("monomial %r: negative exponent" % (mono,))
                if max(mono.exps) > MAX_EXPONENT:
                    raise _exponent_error(max(mono.exps))
                if tuple(sorted(set(mono.odds))) != mono.odds:
                    raise AlgebraError("monomial %r: odd indices must be strictly ascending" % (mono,))
                if mono.odds and not (1 <= mono.odds[0] and mono.odds[-1] <= r):
                    raise AlgebraError("monomial %r: odd index out of range 1..%d" % (mono, r))
                coeff = _as_coefficient(coeff)
                if coeff:
                    clean[_pack(model, mono)] = coeff
        self._terms = clean

    @property
    def terms(self) -> dict[Monomial, int | Fraction]:
        """The terms as a fresh dict from `Monomial` to coefficient."""
        return {_unpack(self.model, m): c for m, c in self._terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, model: ModelSpec, ring: Ring, terms: dict[int, int | Fraction]) -> "Element":
        """Trusted constructor for terms the engine built itself.

        `terms` must already be clean: packed monomials of this model, with
        nonzero coefficients (integral ones as `int`), which a loop that sums
        terms keeps by handing its dict to `_clean`.  The new element takes
        ownership of the dict, so the caller must not mutate it afterwards.
        """
        out = object.__new__(cls)
        out.model, out.ring, out._terms = model, ring, terms
        return out

    @classmethod
    def zero(cls, model: ModelSpec, ring: Ring) -> "Element":
        return cls._of(model, ring, {})

    @classmethod
    def unit(cls, model: ModelSpec, ring: Ring) -> "Element":
        return cls._of(model, ring, {0: 1})

    @classmethod
    def generator(cls, model: ModelSpec, ring: Ring, kind: str, index: int) -> "Element":
        if not 1 <= index <= model.rank:
            raise AlgebraError(
                "generator index %d out of range: model %r has generators 1..%d"
                % (index, model.name, model.rank)
            )
        if kind == "odd":
            mono = 1 << (index - 1)
        elif kind == "even":
            mono = 1 << model._packing.shifts[index - 1]
        else:
            raise AlgebraError("generator kind must be 'odd' or 'even', got %r" % kind)
        return cls._of(model, ring, {mono: 1})

    # -- predicates and grading -------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self):
        """Common degree of all terms, ANY_DEGREE for zero, else INHOMOGENEOUS."""
        if not self._terms:
            return ANY_DEGREE
        degs = {_mono_degree(self.model, self.ring, m) for m in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def homogeneous_components(self) -> dict[int, "Element"]:
        buckets: dict[int, dict[int, int | Fraction]] = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(_mono_degree(self.model, self.ring, mono), {})[mono] = coeff
        return {
            deg: Element._of(self.model, self.ring, terms)
            for deg, terms in sorted(buckets.items())
        }

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Element", op: str):
        _same_model(self, other, op)
        if self.ring is not other.ring:
            raise AlgebraError(
                "%s: ring mismatch (%s vs %s)" % (op, self.ring.value, other.ring.value)
            )

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.model is not self.model or other.ring is not self.ring:
            self._check_compatible(other, "add")
        terms = dict(self._terms)
        get = terms.get
        for mono, coeff in other._terms.items():
            terms[mono] = get(mono, 0) + coeff
        return Element._of(self.model, self.ring, _clean(terms))

    def __neg__(self) -> "Element":
        return Element._of(self.model, self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, q) -> "Element":
        q = _as_coefficient(q)
        if q == 1:
            return self
        if q == -1:
            return -self
        terms = {} if q == 0 else {m: q * c for m, c in self._terms.items()}
        return Element._of(self.model, self.ring, terms)

    def __mul__(self, other):
        if not isinstance(other, Element):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if other.model is not self.model or other.ring is not self.ring:
            self._check_compatible(other, "multiply")
        if not self._terms or not other._terms:
            return Element._of(self.model, self.ring, {})
        packing = self.model._packing
        odd, guard = packing.odd, packing.guard
        terms = {}
        get, right = terms.get, other._terms.items()
        for m1, c1 in self._terms.items():
            odds1 = m1 & odd
            for m2, c2 in right:
                odds2 = m2 & odd
                if odds1 & odds2:  # a shared odd generator squares to zero
                    continue
                mono = m1 + m2
                if mono & guard:
                    raise _overflow(self.model, mono)
                coeff = c1 * c2
                if odds1 and odds2 and (odds1 & _below(odds2)).bit_count() & 1:
                    coeff = -coeff
                terms[mono] = get(mono, 0) + coeff
        return Element._of(self.model, self.ring, _clean(terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise AlgebraError("powers must be nonnegative integers, got %r" % (n,))
        # The terms with no odd generator expand in Q[u_1..u_r], which has no zero divisors and
        # in which the u_i-degrees add, and no term holding an odd generator lands on one of
        # them: x^n holds exactly n times their largest exponent, refused here before expanding.
        packing = self.model._packing
        top = n * max((m >> shift & _FIELD_MASK for m in self._terms if not m & packing.odd
                       for shift in packing.shifts), default=0)
        if top > MAX_EXPONENT:
            raise _exponent_error(top)
        if len(self._terms) == 1:  # c*m: one step, as m^n is m with its exponents times n
            if n == 0:
                return Element.unit(self.model, self.ring)
            [(mono, coeff)] = self._terms.items()
            if n >= 2 and mono & packing.odd:  # an odd generator squares to zero
                return Element.zero(self.model, self.ring)
            # below the limit no field carries into the next, so n*m multiplies each exponent by n
            return Element._of(self.model, self.ring, {mono * n: coeff ** n})
        result = Element.unit(self.model, self.ring)
        square = self
        while n:  # square and multiply: about 2*log2(n) products, equal by associativity
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            (self.model is other.model or self.model == other.model)
            and self.ring is other.ring
            and self._terms == other._terms
        )

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    def render(self, unicode: bool = False) -> str:
        if not self._terms:
            return "0"
        model, ring, terms = self.model, self.ring, self._terms
        monos = sorted(terms, key=partial(_render_key, model, ring)) if len(terms) > 1 else terms
        sep = "·" if unicode else "*"
        odd_name, even_name = _RING_NAMES[1 if unicode else 0][ring is _COH]
        packing = model._packing
        pieces = []
        for mono in monos:
            coeff = terms[mono]
            mstr = _mono_str(packing, mono, odd_name, even_name, sep)
            if mstr == "1":
                body = str(coeff)
            elif coeff == 1:
                body = mstr
            elif coeff == -1:
                body = "-" + mstr
            else:
                body = "%s%s%s" % (coeff, sep, mstr)
            if not pieces:
                pieces.append(body)
            elif body.startswith("-"):
                pieces.append("- " + body[1:])
            else:
                pieces.append("+ " + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<%s %s | %s>" % (self.ring.value, self.render(), self.model.name)


def sign_pow(n: int) -> int:
    """(-1)**n for any integer n, negative degrees included."""
    return -1 if n % 2 else 1


# -- basis index and random elements ----------------------------------------

DEFAULT_EVEN_CAP = 8
# Each of the two tables of a `BasisIndex` holds at most this many entries.  At
# rank 24 and cap 6 it lists 593,775 packed exponent vectors, in 0.75 s on a
# shared 2-vCPU Xeon VM (Python 3.11.7).
MAX_INDEX_ENTRIES = 10 ** 6


def check_index_size(model: ModelSpec, even_cap: int) -> None:
    """Raise unless both tables of a `BasisIndex` of `model` up to `even_cap`, in
    either ring, fit `MAX_INDEX_ENTRIES`; neither table is built."""
    rank, degs = model.rank, model.generator_degrees
    # every degree lies in a window this wide, with one count per `_tails` dict
    counts = (rank + 1) * (sum(degs) + even_cap * (max(degs) - 1) + 1)
    for size, what in ((comb(rank + even_cap, rank), "exponent vectors"), (counts, "degree counts")):
        if size > MAX_INDEX_ENTRIES:
            raise AlgebraError(
                "model %r: a basis index up to total even exponent %d would need %d %s, "
                "more than the limit of %d" % (model.name, even_cap, size, what, MAX_INDEX_ENTRIES)
            )


def _exponent_vectors(packing: _Packing, cap: int) -> dict[int, list[int]]:
    """The packed exponent vectors of total <= cap by weighted degree, each list
    in ascending order of the exponent tuples."""
    weights, shifts = packing.weights, packing.shifts
    even, stack = {}, [(0, 0, cap, 0)]
    while stack:  # depth first, smallest entry first: ascending tuple order
        prefix, pos, rest, deg = stack.pop()
        w, shift = weights[pos], shifts[pos]
        if pos + 1 < len(weights) and rest:
            stack.extend((prefix + (h << shift), pos + 1, rest - h, deg + h * w) for h in range(rest, -1, -1))
        else:  # this entry takes every value left and the rest are 0
            bucket = even.setdefault
            for h in range(rest + 1):
                bucket(deg + h * w, []).append(prefix + (h << shift))
    return even


class BasisIndex:
    """The monomials of one ring with total even exponent <= a cap, by degree.

    A monomial's degree is its odd part plus its even part.  The index lists
    `_even[E]`, the packed exponent vectors of even degree E in ascending
    order of their exponent tuples, and only counts odd-index tuples:
    `_tails[i][D]` is the number of degree-D monomials whose odd indices all
    exceed i, so `_tails[r]` holds the sizes of the `_even` lists and
    `_tails[i - 1]` adds to `_tails[i]` its shift by the odd degree of
    generator i.  Finding the k-th monomial of degree D walks the ascending
    `Monomial` order: a tuple S comes first with `_even[D - odd(S)]`, then, for
    each j after S's last index, the tuples extending S by j; the walk builds
    S as a bit mask and returns the mask plus the vector.  `draw` picks its
    monomials by position, so no degree's monomials are listed.
    """

    def __init__(self, model: ModelSpec, ring: Ring, even_cap: int):
        check_index_size(model, even_cap)
        self.model, self.ring = model, ring
        self._even = _exponent_vectors(model._packing, even_cap)
        self._odd = (0,) + model._packing.odd_degrees[ring is _COH]  # 1-based
        self._tails = [{deg: len(vs) for deg, vs in self._even.items()}]
        for shift in reversed(self._odd[1:]):
            step = dict(self._tails[0])
            for deg, n in self._tails[0].items():
                step[deg + shift] = step.get(deg + shift, 0) + n
            self._tails.insert(0, step)
        self.degrees: tuple[int, ...] = tuple(sorted(self._tails[0]))

    def count(self, deg: int) -> int:
        """Number of monomials of degree `deg`."""
        return self._tails[0].get(deg, 0)

    def degrees_in(self, lo: int, hi: int) -> tuple[int, ...]:
        """The populated degrees in [lo, hi], ascending; `lo > hi` is refused."""
        if lo > hi:
            raise AlgebraError("empty degree window (%r, %r)" % (lo, hi))
        return self.degrees[bisect_left(self.degrees, lo):bisect_right(self.degrees, hi)]

    def monomial(self, deg: int, k: int) -> int:
        """The k-th monomial of degree `deg` in ascending `Monomial` order, packed."""
        tails = self._tails
        if not 0 <= k < tails[0].get(deg, 0):
            raise IndexError("degree %d has %d monomials, no position %r" % (deg, self.count(deg), k))
        mask, j, odd, even = 0, 0, self._odd, self._even
        while True:
            vectors = even.get(deg, ())
            if k < len(vectors):
                return mask + vectors[k]
            k -= len(vectors)
            while True:  # the j whose block, the tuples extending `mask` by j, holds k
                j += 1
                block = tails[j].get(deg - odd[j], 0)
                if k < block:
                    break
                k -= block
            mask += 1 << (j - 1)
            deg -= odd[j]

    def draw(self, degrees: tuple[int, ...], max_terms: int, rng: random.Random) -> Element:
        """A draw of up to `max_terms` terms from `rng` in one of `degrees`, each
        populated; `max_terms` must be an `int` >= 1.  Empty `degrees` give zero
        and make no generator call."""
        if not degrees:
            return Element._of(self.model, self.ring, {})
        deg = rng.choice(degrees)
        n = self.count(deg)
        # sample positions exactly as sampling the bucket itself would
        positions = range(n) if max_terms >= n else rng.sample(range(n), max_terms)
        monomial, choice = self.monomial, rng.choice
        terms = {monomial(deg, k): choice(_COEFFICIENTS) for k in positions}
        return Element._of(self.model, self.ring, terms)


# basis_index(model, ring, even_cap): the `BasisIndex`, built once per arguments
basis_index = lru_cache(maxsize=None)(BasisIndex)


# every identity is multilinear over Q, so a rational failure scales to an integral one
_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def check_count(what: str, n) -> None:
    """Raise unless the count `n` is an `int`, not a `bool`, and at least 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise AlgebraError("%s must be an integer, got %r" % (what, n))
    if n < 1:
        raise AlgebraError("%s must be >= 1, got %d" % (what, n))


def random_element(
    model: ModelSpec,
    ring: Ring,
    degree_window,
    max_terms: int,
    seed,
    *,
    even_cap: int = DEFAULT_EVEN_CAP,
) -> Element:
    """Deterministic homogeneous element with degree inside `degree_window`.

    Monomials have total even exponent <= `even_cap`.  A populated degree in
    the window is chosen, then up to `max_terms` distinct monomials of that
    degree, each with a nonzero integer coefficient in -3..3.  Monomials are
    picked by their position in the degree's ascending order through
    `basis_index`, so no bucket is ever listed.  Returns zero only when the
    window admits no monomial.  Passing the same seed twice gives identical
    output; `seed` may also be a `random.Random` to draw from.  This is
    `BasisIndex.draw`, the one draw path.
    """
    check_count("max_terms", max_terms)
    lo, hi = degree_window
    index = basis_index(model, ring, even_cap)
    degrees = index.degrees_in(lo, hi)
    return index.draw(degrees, max_terms, seed if isinstance(seed, random.Random) else random.Random(seed))
