"""Pinned `loopbv table` output: the same arguments must keep printing the same text.

`table` is the CLI's basis-by-basis view of the operators, so its text is
part of the program's contract.  This test hashes the stdout and the exit
code of `table --op delta|bracket|cap|product` on `su3` and
`exterior:3,5,7` at `--max-degree 6 --max-exp 2`, with and without
`--unicode`.

Run ``PYTHONPATH=src python tests/test_table_pin.py`` to print the digest
without pytest; it exits 1 when the digest differs from `TABLE_DIGEST`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from loopbv import cli

TABLE_DIGEST = "1508fe9aabe63cc507527bde92214d07ae03a8748c11a319ad6311e7f9f4cdcf"

MODELS = ("su3", "exterior:3,5,7")
OPS = ("delta", "bracket", "cap", "product")


def table_runs():
    """(argv, exit code, stdout) of every pinned table, in a fixed order."""
    for model in MODELS:
        for op in OPS:
            for unicode in (False, True):
                argv = ["table", "--model", model, "--op", op, "--max-degree", "6", "--max-exp", "2"]
                if unicode:
                    argv.append("--unicode")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                yield argv, code, out.getvalue()


def table_digest() -> str:
    sha = hashlib.sha256()
    for argv, code, text in table_runs():
        sha.update(("%s -> %d\n" % (" ".join(argv), code)).encode("utf-8"))
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def test_tables_match_pinned_digest():
    assert table_digest() == TABLE_DIGEST


def test_pinned_tables_are_nonempty():
    for argv, code, text in table_runs():
        assert code == 0, argv
        assert text.count("\n") >= 10, argv


if __name__ == "__main__":
    digest = table_digest()
    print(digest)
    sys.exit(0 if digest == TABLE_DIGEST else 1)
