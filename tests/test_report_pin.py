"""Pinned verification reports: the same seed must keep giving the same reports.

The catalog's reports are its output: status, witness labels, both sides of
a failing check and the minimized counterexample.  This test hashes
`reports_to_jsonl(run_suite(model, 6, 42, ops=bundle))` for the standard
bundle and every mutation bundle on `s3`, `su3` and `exterior:3,5,7`, so a
refactor of the evaluators that changes a label, a sign convention, a draw
or which mutation a check detects shows up here.

Run ``PYTHONPATH=src python tests/test_report_pin.py`` to print the digest
without pytest; it exits 1 when the digest differs from `REPORT_DIGEST`.
"""

from __future__ import annotations

import hashlib
import sys

from loopbv.models import resolve_model
from loopbv.verify import mutations, reports_to_jsonl, run_suite

REPORT_DIGEST = "f889a91f976c32be4b95ccf870156742bf8c8df2397a4c6f512432c8b9e7aba9"

MODELS = ("s3", "su3", "exterior:3,5,7")
TRIALS = 6
SEED = 42


def report_runs():
    """(model name, bundle name, JSON lines) of every pinned run, in a fixed order."""
    for name in MODELS:
        model = resolve_model(name)
        for bundle in ["standard"] + sorted(mutations()):
            yield name, bundle, reports_to_jsonl(run_suite(model, TRIALS, SEED, ops=bundle))


def report_digest() -> str:
    sha = hashlib.sha256()
    for name, bundle, text in report_runs():
        sha.update(("%s %s\n" % (name, bundle)).encode("utf-8"))
        sha.update(text.encode("utf-8") + b"\n")
    return sha.hexdigest()


def test_reports_match_pinned_digest():
    assert report_digest() == REPORT_DIGEST


if __name__ == "__main__":
    digest = report_digest()
    print(digest)
    sys.exit(0 if digest == REPORT_DIGEST else 1)
