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
from functools import lru_cache
from math import comb
from operator import add, mul
from typing import Mapping, NamedTuple


class AlgebraError(ValueError):
    """Bad algebraic usage: ring or model mixing, non-subring input."""


class Ring(Enum):
    LOOP = "loop-homology"
    COH = "cohomology"


_LOOP, _COH = Ring.LOOP, Ring.COH


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


# The engine builds its own monomials with _tuple_new(Monomial, (odds, exps)),
# which skips the NamedTuple's Python-level __new__.
_tuple_new = tuple.__new__


def _unit_monomial(model: ModelSpec) -> Monomial:
    return Monomial((), (0,) * model.rank)


def _merge_odds(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two ascending index tuples; return (sign, merged) or (0, None).

    The sign is (-1)^n, n the number of pairs (i in left, j in right) with
    i > j: each j counts the entries of `left` above it.  A shared index
    squares an odd generator, so the product vanishes.
    """
    if not left or not right:
        return 1, left + right
    n = 0
    for j in right:
        k = bisect_right(left, j)
        if k and left[k - 1] == j:
            return 0, None
        n += len(left) - k
    return -1 if n & 1 else 1, tuple(sorted(left + right))


def _add_into(terms: dict, mono: Monomial, coeff) -> None:
    """Add `coeff` to `terms[mono]`, deleting the entry when it cancels.  Every
    engine loop that sums terms calls this, so a clean dict stays clean."""
    prev = terms.get(mono)
    if prev is None:
        terms[mono] = coeff
    else:
        prev = prev + coeff
        if prev == 0:
            del terms[mono]
        else:
            terms[mono] = prev


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
    if any(any(mono.exps) for mono in x.terms):
        raise AlgebraError(_NOT_EXTERIOR[ring] % op)
    return x


def _mono_degree(model: ModelSpec, ring: Ring, m: Monomial) -> int:
    degs = model.generator_degrees
    even_part = sum(map(mul, m.exps, degs)) - sum(m.exps)  # sum of k_i * (d_i - 1)
    odd_part = 0
    for i in m.odds:
        odd_part += degs[i - 1]
    return even_part - odd_part if ring is _LOOP else even_part + odd_part


_GEN_NAMES = {Ring.LOOP: ("a", "u"), Ring.COH: ("alpha", "v")}
_UNICODE_GEN_NAMES = {Ring.LOOP: ("a", "u"), Ring.COH: ("α", "v")}
# (loop names, cohomology names), ASCII then unicode: `render` picks without hashing a `Ring`
_RING_NAMES = tuple((names[_LOOP], names[_COH]) for names in (_GEN_NAMES, _UNICODE_GEN_NAMES))


def _mono_str(m: Monomial, odd_name: str, even_name: str, sep: str) -> str:
    parts = [f"{odd_name}{i}" for i in m.odds]
    for i, k in enumerate(m.exps):
        if k == 1:
            parts.append(f"{even_name}{i + 1}")
        elif k > 1:
            parts.append(f"{even_name}{i + 1}^{k}")
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
    are `int` or `Fraction` (see the module docstring).  Instances are
    treated as immutable; arithmetic returns fresh elements, except that
    `scale(1)` may return the element itself.
    """

    __slots__ = ("model", "ring", "terms")

    def __init__(self, model: ModelSpec, ring: Ring, terms: Mapping[Monomial, int | Fraction] | None = None):
        self.model = model
        self.ring = ring
        clean: dict[Monomial, int | Fraction] = {}
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
                if tuple(sorted(set(mono.odds))) != mono.odds:
                    raise AlgebraError("monomial %r: odd indices must be strictly ascending" % (mono,))
                if mono.odds and not (1 <= mono.odds[0] and mono.odds[-1] <= r):
                    raise AlgebraError("monomial %r: odd index out of range 1..%d" % (mono, r))
                coeff = _as_coefficient(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, model: ModelSpec, ring: Ring, terms: dict[Monomial, int | Fraction]) -> "Element":
        """Trusted constructor for terms the engine built itself.

        `terms` must already be clean: canonical monomials of this model and
        ring, nonzero coefficients (integral ones as `int`), which a loop that
        sums terms keeps by adding through `_add_into`.  The new element takes
        ownership of the dict, so the caller must not mutate it afterwards.
        """
        out = object.__new__(cls)
        out.model, out.ring, out.terms = model, ring, terms
        return out

    @classmethod
    def zero(cls, model: ModelSpec, ring: Ring) -> "Element":
        return cls._of(model, ring, {})

    @classmethod
    def unit(cls, model: ModelSpec, ring: Ring) -> "Element":
        return cls._of(model, ring, {_unit_monomial(model): 1})

    @classmethod
    def generator(cls, model: ModelSpec, ring: Ring, kind: str, index: int) -> "Element":
        if not 1 <= index <= model.rank:
            raise AlgebraError(
                "generator index %d out of range: model %r has generators 1..%d"
                % (index, model.name, model.rank)
            )
        if kind == "odd":
            mono = _tuple_new(Monomial, ((index,), (0,) * model.rank))
        elif kind == "even":
            exps = [0] * model.rank
            exps[index - 1] = 1
            mono = _tuple_new(Monomial, ((), tuple(exps)))
        else:
            raise AlgebraError("generator kind must be 'odd' or 'even', got %r" % kind)
        return cls._of(model, ring, {mono: 1})

    # -- predicates and grading -------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Common degree of all terms, ANY_DEGREE for zero, else INHOMOGENEOUS."""
        if not self.terms:
            return ANY_DEGREE
        degs = {_mono_degree(self.model, self.ring, m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def homogeneous_components(self) -> dict[int, "Element"]:
        buckets: dict[int, dict[Monomial, int | Fraction]] = {}
        for mono, coeff in self.terms.items():
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
        self._check_compatible(other, "add")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add_into(terms, mono, coeff)
        return Element._of(self.model, self.ring, terms)

    def __neg__(self) -> "Element":
        return Element._of(self.model, self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, q) -> "Element":
        q = _as_coefficient(q)
        if q == 1:
            return self
        if q == -1:
            return -self
        terms = {} if q == 0 else {m: q * c for m, c in self.terms.items()}
        return Element._of(self.model, self.ring, terms)

    def __mul__(self, other):
        if not isinstance(other, Element):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check_compatible(other, "multiply")
        terms = {}
        right = other.terms.items()
        for (odds1, exps1), c1 in self.terms.items():
            for (odds2, exps2), c2 in right:
                sign, odds = _merge_odds(odds1, odds2)
                if sign:
                    mono = _tuple_new(Monomial, (odds, tuple(map(add, exps1, exps2))))
                    _add_into(terms, mono, c1 * c2 if sign > 0 else -(c1 * c2))
        return Element._of(self.model, self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise AlgebraError("powers must be nonnegative integers, got %r" % (n,))
        if len(self.terms) == 1:  # c*m: one step, as m^n is m with its exponents times n
            if n == 0:
                return Element.unit(self.model, self.ring)
            [(mono, coeff)] = self.terms.items()
            if mono.odds and n >= 2:  # an odd generator squares to zero
                return Element.zero(self.model, self.ring)
            mono = _tuple_new(Monomial, (mono.odds, tuple(k * n for k in mono.exps)))
            return Element._of(self.model, self.ring, {mono: coeff ** n})
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
            self.model == other.model
            and self.ring is other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    def render(self, unicode: bool = False) -> str:
        if not self.terms:
            return "0"
        items = self.terms.items()
        if len(items) > 1:
            def sort_key(item):
                mono, _ = item
                return (_mono_degree(self.model, self.ring, mono), mono.odds, mono.exps)
            items = sorted(items, key=sort_key)
        sep = "·" if unicode else "*"
        odd_name, even_name = _RING_NAMES[1 if unicode else 0][self.ring is _COH]
        pieces = []
        for mono, coeff in items:
            mstr = _mono_str(mono, odd_name, even_name, sep)
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
# rank 24 and cap 6 it lists 593,775 exponent vectors, in 1.7 s on a 2.1 GHz Xeon.
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


def _exponent_vectors(weights: tuple[int, ...], cap: int) -> dict[int, list[tuple[int, ...]]]:
    """The exponent vectors of total <= cap by weighted degree, each list ascending."""
    even, stack = {}, [((), cap, 0)]
    while stack:  # depth first, smallest entry first: ascending tuple order
        prefix, rest, deg = stack.pop()
        w, left = weights[len(prefix)], len(weights) - len(prefix) - 1
        if left and rest:
            stack.extend((prefix + (h,), rest - h, deg + h * w) for h in range(rest, -1, -1))
        else:  # this entry takes every value left and the rest are 0
            for h in range(rest + 1):
                even.setdefault(deg + h * w, []).append(prefix + (h,) + (0,) * left)
    return even


class BasisIndex:
    """The monomials of one ring with total even exponent <= a cap, by degree.

    A monomial's degree is its odd part plus its even part.  The index lists
    `_even[E]`, the exponent vectors of even degree E in ascending order, and
    only counts odd-index tuples: `_tails[i][D]` is the number of degree-D
    monomials whose odd indices all exceed i, so `_tails[r]` holds the sizes
    of the `_even` lists and `_tails[i - 1]` adds to `_tails[i]` its shift by
    the odd degree of generator i.  Finding the k-th monomial of degree D walks
    the ascending `Monomial` order: a tuple S comes first with `_even[D -
    odd(S)]`, then, for each j after S's last index, the tuples extending S by j.
    `draw` picks its monomials by position, so no degree's monomials are listed.
    """

    def __init__(self, model: ModelSpec, ring: Ring, even_cap: int):
        check_index_size(model, even_cap)
        self.model, self.ring = model, ring
        degs = model.generator_degrees
        self._even = _exponent_vectors(tuple(d - 1 for d in degs), even_cap)
        self._odd = (0,) + tuple(-d if ring is _LOOP else d for d in degs)  # 1-based
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

    def monomial(self, deg: int, k: int) -> Monomial:
        """The k-th monomial of degree `deg`, in ascending order."""
        tails = self._tails
        if not 0 <= k < tails[0].get(deg, 0):
            raise IndexError("degree %d has %d monomials, no position %r" % (deg, self.count(deg), k))
        odds, j, odd, even = (), 0, self._odd, self._even
        while True:
            vectors = even.get(deg, ())
            if k < len(vectors):
                return _tuple_new(Monomial, (odds, vectors[k]))
            k -= len(vectors)
            while True:  # the j whose block, the tuples extending `odds` by j, holds k
                j += 1
                block = tails[j].get(deg - odd[j], 0)
                if k < block:
                    break
                k -= block
            odds += (j,)
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
        terms = {}
        for k in positions:
            terms[self.monomial(deg, k)] = rng.choice(_COEFFICIENTS)
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
