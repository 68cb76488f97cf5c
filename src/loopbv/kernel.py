"""Exact graded-commutative monomial arithmetic over the rationals.

A model is a free graded-commutative algebra on r odd generators and r even
generators, realised in three gradings ("rings"):

* loop homology   -- odd generator a_i of degree -d_i, even u_i of degree d_i - 1,
* cohomology      -- odd generator alpha_i of degree d_i, even v_i of degree d_i - 1,
* base cohomology -- the exterior subring on the alpha_i alone.

Coefficients are exact rationals: every entry point (`Element(...)`,
`scale`, `unit`, `generator`, `Element.monomial`, `random_element`) stores
an integral value as an `int` and any other as a `fractions.Fraction`, so
the integer structure constants of the operators stay in `int` arithmetic.
Arithmetic on non-integral coefficients may leave a `Fraction` with
denominator 1; it compares, hashes and prints exactly as the `int` does, so
equality and rendering do not depend on the type.

Signs are produced by the Koszul rule (-1)^{pq} on parities, where the parity
of a generator is its kind (odd/even), never its degree: loop-homology
degrees are negative for the a_i but their parity is odd.

Elements are immutable after construction and all operations are pure, so
models and elements can be shared freely across threads or workers.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple


class AlgebraError(ValueError):
    """Bad algebraic usage: ring or model mixing, non-subring input."""


class Ring(Enum):
    LOOP = "loop-homology"
    COH = "cohomology"
    BASE = "base-cohomology"


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

    def __eq__(self, other):
        # every Element operation compares models, which are nearly always shared
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.generator_degrees) == (other.name, other.generator_degrees)

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
        except json.JSONDecodeError as exc:
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

    The sign counts transpositions needed to interleave `right` into `left`:
    one factor of -1 per pair (i in left, j in right) with i > j.  A shared
    index squares an odd generator, so the product vanishes.
    """
    if not left:
        return 1, right
    if not right:
        return 1, left
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        li, rj = left[i], right[j]
        if li == rj:
            return 0, None
        if li < rj:
            merged.append(li)
            i += 1
        else:
            merged.append(rj)
            # rj jumps over everything still ahead in `left`, all odd
            if (len(left) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def _mono_mul(a: Monomial, b: Monomial):
    sign, odds = _merge_odds(a.odds, b.odds)
    if sign == 0:
        return 0, None
    exps = tuple(x + y for x, y in zip(a.exps, b.exps))
    return sign, _tuple_new(Monomial, (odds, exps))


def _add_into(terms: dict, mono: Monomial, coeff) -> None:
    """Add `coeff` to `terms[mono]`, dropping the entry when it cancels, so
    that a clean term dict stays clean (see `Element._of`)."""
    prev = terms.get(mono)
    if prev is None:
        terms[mono] = coeff
    else:
        prev = prev + coeff
        if prev == 0:
            del terms[mono]
        else:
            terms[mono] = prev


def _mono_degree(model: ModelSpec, ring: Ring, m: Monomial) -> int:
    degs = model.generator_degrees
    odd_part = sum(degs[i - 1] for i in m.odds)
    even_part = sum(k * (degs[i] - 1) for i, k in enumerate(m.exps))
    if ring is Ring.LOOP:
        return -odd_part + even_part
    return odd_part + even_part


_GEN_NAMES = {
    Ring.LOOP: ("a", "u"),
    Ring.COH: ("alpha", "v"),
    Ring.BASE: ("alpha", "v"),
}

_UNICODE_GEN_NAMES = {
    Ring.LOOP: ("a", "u"),
    Ring.COH: ("α", "v"),
    Ring.BASE: ("α", "v"),
}


def _mono_str(ring: Ring, m: Monomial, unicode: bool = False) -> str:
    odd_name, even_name = (_UNICODE_GEN_NAMES if unicode else _GEN_NAMES)[ring]
    sep = "·" if unicode else "*"
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
    """An exact rational as an `int` when integral, else as a `Fraction`."""
    if isinstance(q, int):
        return int(q)
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    raise AlgebraError("coefficients must be exact rationals, got %r" % (q,))


class Element:
    """A finite rational linear combination of monomials in one ring.

    Stored terms never carry a zero coefficient and every monomial is
    canonical, so `==` is exact coefficient-wise comparison.  Coefficients
    are `int` or `Fraction` (see the module docstring).  Instances are
    treated as immutable; arithmetic returns fresh elements.
    """

    __slots__ = ("model", "ring", "terms")

    def __init__(self, model: ModelSpec, ring: Ring, terms: Mapping[Monomial, int | Fraction] | None = None):
        self.model = model
        self.ring = ring
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            r = model.rank
            for mono, coeff in terms.items():
                coeff = _as_coefficient(coeff)
                if coeff == 0:
                    continue
                if not isinstance(mono, Monomial):
                    mono = Monomial(tuple(mono[0]), tuple(mono[1]))
                if len(mono.exps) != r:
                    raise AlgebraError("monomial %r: expected %d even exponents" % (mono, r))
                if any(k < 0 for k in mono.exps):
                    raise AlgebraError("monomial %r: negative exponent" % (mono,))
                if tuple(sorted(set(mono.odds))) != mono.odds:
                    raise AlgebraError("monomial %r: odd indices must be strictly ascending" % (mono,))
                if mono.odds and not (1 <= mono.odds[0] and mono.odds[-1] <= r):
                    raise AlgebraError("monomial %r: odd index out of range 1..%d" % (mono, r))
                if ring is Ring.BASE and any(mono.exps):
                    raise AlgebraError("base-cohomology admits no even generators: %r" % (mono,))
                clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, model: ModelSpec, ring: Ring, terms: dict[Monomial, int | Fraction]) -> "Element":
        """Trusted constructor for terms the engine built itself.

        `terms` must already be clean: canonical monomials of this model and
        ring, nonzero coefficients (integral ones as `int`).  The new element
        takes ownership of the dict, so the caller must not mutate it
        afterwards.
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
            mono = Monomial((index,), (0,) * model.rank)
        elif kind == "even":
            if ring is Ring.BASE:
                raise AlgebraError("base-cohomology admits only odd generators")
            exps = [0] * model.rank
            exps[index - 1] = 1
            mono = Monomial((), tuple(exps))
        else:
            raise AlgebraError("generator kind must be 'odd' or 'even', got %r" % kind)
        return cls._of(model, ring, {mono: 1})

    @classmethod
    def monomial(cls, model: ModelSpec, ring: Ring, mono: Monomial, coeff=1) -> "Element":
        return cls(model, ring, {mono: coeff})

    # -- predicates and grading -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def is_homogeneous(self) -> bool:
        return self.degree() is not INHOMOGENEOUS

    def homogeneous_components(self) -> dict[int, "Element"]:
        buckets: dict[int, dict[Monomial, int | Fraction]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(_mono_degree(self.model, self.ring, mono), {})[mono] = coeff
        return {
            deg: Element._of(self.model, self.ring, terms)
            for deg, terms in sorted(buckets.items())
        }

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(mono, 0)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Element", op: str):
        if self.model != other.model:
            raise AlgebraError(
                "%s: model mismatch (%r vs %r)" % (op, self.model.name, other.model.name)
            )
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
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                acc = acc + coeff
                if acc == 0:
                    del terms[mono]
                else:
                    terms[mono] = acc
        return Element._of(self.model, self.ring, terms)

    def __neg__(self) -> "Element":
        return Element._of(self.model, self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, q) -> "Element":
        q = _as_coefficient(q)
        terms = {} if q == 0 else {m: q * c for m, c in self.terms.items()}
        return Element._of(self.model, self.ring, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other, "multiply")
        terms = {}
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                sign, mono = _mono_mul(m1, m2)
                if sign:
                    _add_into(terms, mono, c1 * c2 if sign > 0 else -(c1 * c2))
        return Element._of(self.model, self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("powers must be nonnegative integers, got %r" % (n,))
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
        pieces = []
        for mono, coeff in items:
            mstr = _mono_str(self.ring, mono, unicode=unicode)
            if mstr == "1":
                body = str(coeff)
            elif coeff == 1:
                body = mstr
            elif coeff == -1:
                body = "-" + mstr
            else:
                body = "%s%s%s" % (coeff, "·" if unicode else "*", mstr)
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


# -- module-level operation names ------------------------------------------


def degree(x: Element):
    return x.degree()


def multiply(x: Element, y: Element) -> Element:
    return x * y


def add(x: Element, y: Element) -> Element:
    return x + y


def scale(q, x: Element) -> Element:
    return x.scale(q)


def equal(x: Element, y: Element) -> bool:
    if x.model != y.model or x.ring is not y.ring:
        raise AlgebraError(
            "equal: cannot compare %s over %r with %s over %r"
            % (x.ring.value, x.model.name, y.ring.value, y.model.name)
        )
    return x.terms == y.terms


def sign_pow(n: int) -> int:
    """(-1)**n for any integer n, negative degrees included."""
    return -1 if n % 2 else 1


# -- basis index and random elements ----------------------------------------

DEFAULT_EVEN_CAP = 8
# The index lists all 2^rank odd-index tuples: on a 2-vCPU VM a 1-trial
# bv-identity check took 2.2 s and 104 MB at rank 18, growing 4x per two ranks.
MAX_INDEXED_RANK = 20


def _exponent_vectors(rank: int, cap: int):
    """Exponent vectors of total <= cap, in ascending tuple order."""
    if rank == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _exponent_vectors(rank - 1, cap - head):
            yield (head,) + tail


class BasisIndex:
    """The monomials of one ring with total even exponent <= a cap, by degree.

    A monomial's degree is its odd part plus its even part, so the degree-D
    bucket, in ascending `Monomial` order, is the concatenation over
    odd-index tuples S (ascending) of S x X(D - odd(S)), where X(E) lists the
    exponent vectors of even degree E in ascending order.  Only X (C(r + cap,
    r) vectors) and the 2^r tuples S are stored, never the 2^r * C(r + cap, r)
    monomials.  The k-th monomial of a bucket is one bisect into the bucket's
    block offsets, which are built on first use of that degree.
    """

    def __init__(self, model: ModelSpec, ring: Ring, even_cap: int):
        if model.rank > MAX_INDEXED_RANK:
            raise AlgebraError(
                "model %r has rank %d, above the limit of %d for drawing or listing basis "
                "monomials: the basis index lists all 2^%d odd-generator subsets"
                % (model.name, model.rank, MAX_INDEXED_RANK, model.rank)
            )
        degs = model.generator_degrees
        odd_sign = -1 if ring is Ring.LOOP else 1
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(1, model.rank + 1), size) for size in range(model.rank + 1)
        )
        self._odds = sorted((S, odd_sign * sum(degs[i - 1] for i in S)) for S in subsets)
        self._even: dict[int, list[tuple[int, ...]]] = {}
        cap = 0 if ring is Ring.BASE else even_cap
        for exps in _exponent_vectors(model.rank, cap):
            even_deg = sum(k * (d - 1) for k, d in zip(exps, degs))
            self._even.setdefault(even_deg, []).append(exps)
        self._counts: Counter[int] = Counter()
        for odd_deg, times in Counter(odd_deg for _, odd_deg in self._odds).items():
            for even_deg, vectors in self._even.items():
                self._counts[odd_deg + even_deg] += times * len(vectors)
        self.degrees: tuple[int, ...] = tuple(sorted(self._counts))
        self._blocks: dict[int, tuple[list[int], list]] = {}

    def count(self, deg: int) -> int:
        """Number of monomials of degree `deg`."""
        return self._counts.get(deg, 0)

    def degrees_in(self, lo: int, hi: int) -> tuple[int, ...]:
        """The populated degrees in [lo, hi], ascending."""
        return self.degrees[bisect_left(self.degrees, lo):bisect_right(self.degrees, hi)]

    def _block_table(self, deg: int):
        table = self._blocks.get(deg)
        if table is None:
            starts, blocks, total = [], [], 0
            for odds, odd_deg in self._odds:
                vectors = self._even.get(deg - odd_deg)
                if vectors:
                    starts.append(total)
                    blocks.append((odds, vectors))
                    total += len(vectors)
            table = self._blocks[deg] = (starts, blocks)
        return table

    def monomial(self, deg: int, k: int) -> Monomial:
        """The k-th monomial of degree `deg`, in ascending order."""
        if not 0 <= k < self.count(deg):
            raise IndexError("degree %d has %d monomials, no position %r" % (deg, self.count(deg), k))
        starts, blocks = self._block_table(deg)
        pos = bisect_right(starts, k) - 1
        odds, vectors = blocks[pos]
        return _tuple_new(Monomial, (odds, vectors[k - starts[pos]]))


@lru_cache(maxsize=None)
def basis_index(model: ModelSpec, ring: Ring, even_cap: int) -> BasisIndex:
    """The cached `BasisIndex` of `ring` up to `even_cap` (ignored for BASE)."""
    return BasisIndex(model, ring, even_cap)


_COEFF_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_COEFF_DENOMINATORS = (1, 1, 2, 3)
# the coefficient of each (numerator, denominator) draw, built once
_COEFFS = {
    (n, d): _as_coefficient(Fraction(n, d)) for n in _COEFF_NUMERATORS for d in _COEFF_DENOMINATORS
}


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
    degree, each with a small nonzero rational coefficient.  Monomials are
    picked by their position in the degree's ascending order through
    `basis_index`, so no bucket is ever listed.  Returns zero only when the
    window admits no monomial.  Passing the same seed twice gives identical
    output; `seed` may also be a `random.Random` to draw from.
    """
    if max_terms < 1:
        raise AlgebraError("max_terms must be >= 1, got %d" % max_terms)
    lo, hi = degree_window
    if lo > hi:
        raise AlgebraError("empty degree window (%r, %r)" % (lo, hi))
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    index = basis_index(model, ring, even_cap)
    degrees = index.degrees_in(lo, hi)
    if not degrees:
        return Element.zero(model, ring)
    deg = rng.choice(degrees)
    n = index.count(deg)
    count = min(max_terms, n)
    # sample positions exactly as sampling the bucket itself would
    positions = range(n) if count == n else rng.sample(range(n), count)
    terms = {}
    for k in positions:
        mono = index.monomial(deg, k)
        terms[mono] = _COEFFS[rng.choice(_COEFF_NUMERATORS), rng.choice(_COEFF_DENOMINATORS)]
    return Element._of(model, ring, terms)
