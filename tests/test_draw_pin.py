"""Pinned random draws: the same seeds must keep drawing the same arguments.

A report is replayed from (model, seed, identity) alone, its trials drawing
in turn from one generator, so the draw for a seed is part of the catalog's
contract.  This test seeds a generator of its own for each line (the order
of the draws within a report is pinned by `test_report_pin.py`) and hashes
the printed output of each catalog `ArgSpec`'s draw plan,
`verify._plan(spec, model)(rng)`, the function `run_suite` draws through
(and of a few specs with wider term bounds or an explicit window), on four
models, and of `kernel.random_element` at exponent caps 0, 6 and 8 in every
ring.  The `base-cohomology` rows draw base classes, cohomology classes at
cap 0, whatever cap their line names.

Changing `DRAW_DIGEST` means old reports no longer replay: it requires
bumping `verify.CATALOG_VERSION` in the same change.

Run ``PYTHONPATH=src python tests/test_draw_pin.py`` to print the digest
without pytest; it exits 1 when the digest differs from `DRAW_DIGEST`.
"""

from __future__ import annotations

import hashlib
import random
import sys

from loopbv import verify
from loopbv.kernel import Ring, random_element
from loopbv.models import resolve_model

DRAW_DIGEST = "4ac101dcd042a27e21ecc6ea69558762f1ecc598ca926e454957b217c90c62ca"

MODELS = ("s3", "su3", "exterior:3,5,7", "su5")
EXTRA_SPECS = (
    verify.ArgSpec("loop", 4),
    verify.ArgSpec("loop", 3, (0, 12)),
    verify.ArgSpec("coh", 5),
    verify.ArgSpec("base", 4),
    verify.ArgSpec("exterior", 5),
    verify.ArgSpec("ext", 3),
)
DRAWS_PER_SPEC = 20
CAPS = (0, 6, 8)
# (line label, ring, cap that overrides the line's cap or None)
RING_ROWS = (
    (Ring.LOOP.value, Ring.LOOP, None),
    (Ring.COH.value, Ring.COH, None),
    ("base-cohomology", Ring.COH, 0),
)


def _specs():
    catalog = {spec for case in verify.CATALOG.values() for spec in case.args}
    return sorted(catalog, key=repr) + list(EXTRA_SPECS)


def draw_lines():
    """One rendered line per draw, in a fixed order."""
    for name in MODELS:
        model = resolve_model(name)
        for spec in _specs():
            for trial in range(DRAWS_PER_SPEC):
                rng = random.Random("pin|%s|%r|%d" % (name, spec, trial))
                value = verify._plan(spec, model)(rng)
                yield "%s %r %d: %s" % (name, spec, trial, value)
        d = model.dimension
        for label, ring, drawn_cap in RING_ROWS:
            for cap in CAPS:
                even_cap = cap if drawn_cap is None else drawn_cap
                for max_terms in (1, 2, 5):
                    for trial in range(4):
                        seed = "pin|%s|%s|%d|%d|%d" % (name, label, cap, max_terms, trial)
                        x = random_element(model, ring, (-d - 2, 3 * d), max_terms, seed, even_cap=even_cap)
                        yield "%s %s cap=%d terms=%d %d: %s" % (name, label, cap, max_terms, trial, x)


def draw_digest() -> str:
    sha = hashlib.sha256()
    for line in draw_lines():
        sha.update(line.encode("utf-8") + b"\n")
    return sha.hexdigest()


def test_draws_match_pinned_digest():
    assert draw_digest() == DRAW_DIGEST


def test_pinned_draws_are_mostly_nonzero():
    lines = list(draw_lines())
    zero = sum(1 for line in lines if line.endswith(": 0"))
    assert len(lines) > 1000
    assert zero < len(lines) // 10


if __name__ == "__main__":
    digest = draw_digest()
    print(digest)
    sys.exit(0 if digest == DRAW_DIGEST else 1)
