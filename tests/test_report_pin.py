"""Pinned verification reports: the same seed must keep giving the same reports.

The catalog's reports are its output: status, witness labels, both sides of
a failing check and the minimized counterexample.  This test hashes
`reports_to_jsonl(run_suite(model, 6, 42, ops=bundle))` for the standard
bundle and every mutation bundle on `s3`, `su3` and `exterior:3,5,7`, so a
refactor of the evaluators that changes a label, a sign convention, a draw
or which mutation a check detects shows up here.  `HIGH_RANK_DIGEST` pins
the standard bundle on `su7` at 3 trials: there a degree holds more than 21
monomials, so `kernel._sample` picks positions by its redraw branch, which
the low-rank models never reach.

Run ``PYTHONPATH=src python tests/test_report_pin.py`` to print both digests
without pytest; it exits 1 when either differs from its pin.
"""

from __future__ import annotations

import hashlib
import sys

from loopbv.models import resolve_model
from loopbv.verify import _class_plan, mutations, reports_to_jsonl, run_suite

REPORT_DIGEST = "39c9f1bae222b57163d85888297af4e90a90b998df8c98996a6f29ad0eb0772e"
HIGH_RANK_DIGEST = "84d8ca07dde0a84836a788b1f274479d99d10cbce4c23f88a79f54278770f3f8"

MODELS = ("s3", "su3", "exterior:3,5,7")
TRIALS = 6
SEED = 42


def report_runs():
    """(model name, bundle name, JSON lines) of every pinned run, in a fixed order."""
    for name in MODELS:
        model = resolve_model(name)
        for bundle in ["standard"] + sorted(mutations()):
            yield name, bundle, reports_to_jsonl(run_suite(model, TRIALS, SEED, ops=bundle))


def _digest(runs) -> str:
    sha = hashlib.sha256()
    for name, bundle, text in runs:
        sha.update(("%s %s\n" % (name, bundle)).encode("utf-8"))
        sha.update(text.encode("utf-8") + b"\n")
    return sha.hexdigest()


def report_digest() -> str:
    return _digest(report_runs())


def high_rank_digest() -> str:
    return _digest([("su7", "standard", reports_to_jsonl(run_suite(resolve_model("su7"), 3, SEED)))])


def test_reports_match_pinned_digest():
    assert report_digest() == REPORT_DIGEST


def test_high_rank_reports_match_pinned_digest():
    draw = _class_plan("loop", resolve_model("su7"))  # partial(index.draw, degrees)
    index, (degrees,) = draw.func.__self__, draw.args
    assert max(map(index.count, degrees)) > 21
    assert high_rank_digest() == HIGH_RANK_DIGEST


if __name__ == "__main__":
    digests = report_digest(), high_rank_digest()
    print("\n".join(digests))
    sys.exit(0 if digests == (REPORT_DIGEST, HIGH_RANK_DIGEST) else 1)
