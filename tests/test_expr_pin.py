"""Pinned expression-language output: the same text must keep giving the same answer.

For every expression of a fixed corpus on `s3`, `su3` and `exterior:3,5,7`
this test hashes the printed parse tree and `describe_value` of the result
(plain and unicode), or the text of the `ExpressionError` raised.  The corpus
is `exprgen.corpus` over one generator index more than the model has (so
the rank check fires too), `exprgen.evaluable_corpus`, and `ERROR_CASES`,
which reaches each diagnostic of the tokenizer, the parser and the
evaluator but the nesting limit (`tests/test_cli.py` covers that one).  It also hashes stdout, stderr and exit code of `cli.main` for
`eval` and `intersect` with and without `--json` and `--unicode`.  A refactor
of the parser, the function table or the CLI output path that changes a
value, a ring or degree label, a message or a position shows up here.

Run ``PYTHONPATH=src:tests python tests/test_expr_pin.py`` to print the
digest without pytest; it exits 1 when the digest differs from `EXPR_DIGEST`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from loopbv import cli
from loopbv.expr import ExpressionError, describe_value, evaluate, parse, to_text
from loopbv.models import resolve_model

from exprgen import corpus, evaluable_corpus

EXPR_DIGEST = "bb279f3d4d851e8d7eec59b08de14f2db8571b5d4f992cb99e2a0d99a99966c9"

MODELS = ("s3", "su3", "exterior:3,5,7")
CORPUS_SIZE = 2500
EVALUABLE_SIZE = 500

ERROR_CASES = (
    # tokens and syntax
    "a1 $ u1", "a1 ** u1", "(a1", "a1 u1", ")", "", "a1 +\n  foo", "b1", "a0",
    "u1^a1", "u1^1/2", "u1^", "1/0", "bracket a1", "cap", "bracket(a1",
    "bracket(a1)", "s(a1, a2)", "Delta()", "intersect(a1, [], u1)",
    "intersect([a1] [a2], u1)", "intersect([alpha1,], [], u1)", "intersect([], [])",
    # rings and ranks
    "a9", "v9", "a1 + alpha1", "a1 - v1", "a1 * alpha1", "product(a1, alpha1)",
    "bracket(alpha1, a1)", "bracket(a1, v1)", "cap(a1, u1)", "cap(alpha1, alpha1)",
    "s(alpha1)", "s(u1)", "D(u1)", "D(alpha1)", "D(a1*u1)", "Dinv(a1)", "Dinv(v1)",
    "intersect([a1], [], u1)", "intersect([], [a1], u1)", "intersect([], [], alpha1)",
    "intersect([v1], [], u1)", "intersect([], [v1], u1)", "intersect([], [alpha1 + 1], u1)",
    "intersect([], [0], u1)", "intersect([], [alpha1, 0], u1)", "intersect([0], [alpha1], a1)",
    # scalars and powers
    "Delta(3)", "s(2)", "D(1/2)", "Dinv(5)", "2^10", "(1/2)^3", "0^0", "u1^0",
    "(a1 + u1)^3", "-(-a1)", "3 - alpha1", "alpha1 - 3", "bracket(2, a1)", "cap(2, u1)",
    "Delta(alpha1*v1)", "Delta(D(a1))", "Dinv(D(a1)) - a1", "intersect([2], [], 3)",
)

CLI_RUNS = (
    ["eval", "--model", "su3", "bracket(a1, u1^3)"],
    ["eval", "--model", "su3", "cap(alpha1*v2, a2*u2^2) + 1/2*a1"],
    ["eval", "--model", "s3", "3/4"],
    ["eval", "--model", "s3", "a1 + u1"],
    ["eval", "--model", "s3", "0*a1"],
    ["eval", "--model", "exterior:3,5,7", "Delta(a1*a2*u3^2)"],
    ["eval", "--model", "su3", "a1 * alpha1"],
    ["eval", "--model", "su3", "foo(a1)"],
    ["intersect", "--model", "su3", "--at", "alpha1", "--free", "alpha2", "--family", "a1*u1^2*u2^3"],
    ["intersect", "--model", "su3", "--at", "alpha1, alpha2", "--family", "u1*u2"],
    ["intersect", "--model", "su3", "--free", "alpha1 + alpha2", "--family", "u1"],
    ["intersect", "--model", "s3", "--at", "2", "--family", "3"],
    ["intersect", "--model", "s3", "--free", "0", "--family", "u1"],
    ["intersect", "--model", "s3", "--family", "a1 + u1^2"],
    ["intersect", "--model", "s3", "--at", "a1", "--family", "u1"],
    ["intersect", "--model", "s3", "--free", "v1", "--family", "u1"],
    ["intersect", "--model", "s3", "--family", "alpha1"],
    ["intersect", "--model", "s3", "--at", "alpha1 +", "--family", "u1"],
)
CLI_FLAGS = ([], ["--json"], ["--unicode"], ["--json", "--unicode"])


def expression_results():
    """(model name, text, result line) for every pinned expression, in a fixed order."""
    for name in MODELS:
        model = resolve_model(name)
        texts = (
            corpus(CORPUS_SIZE, name, rank=model.rank + 1)
            + evaluable_corpus(EVALUABLE_SIZE, name, rank=model.rank)
            + list(ERROR_CASES)
        )
        for text in texts:
            try:
                node = parse(text)
                value = evaluate(node, model)
                result = "%s | %r | %r" % (
                    to_text(node), describe_value(value), describe_value(value, unicode=True)
                )
            except ExpressionError as exc:
                result = "error %s" % exc
            yield name, text, result


def cli_results():
    """(argv, exit code, stdout, stderr) for every pinned CLI run."""
    for argv in CLI_RUNS:
        for flags in CLI_FLAGS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + flags)
            yield argv + flags, code, out.getvalue(), err.getvalue()


def expr_digest() -> str:
    sha = hashlib.sha256()
    for name, text, result in expression_results():
        sha.update(("%s\n%s\n%s\n" % (name, text, result)).encode("utf-8"))
    for argv, code, out, err in cli_results():
        sha.update(("%r %d\n%s\n%s\n" % (argv, code, out, err)).encode("utf-8"))
    return sha.hexdigest()


def test_expressions_match_pinned_digest():
    assert expr_digest() == EXPR_DIGEST


if __name__ == "__main__":
    digest = expr_digest()
    print(digest)
    sys.exit(0 if digest == EXPR_DIGEST else 1)
