"""Command line front end: eval, check, table, intersect, models."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from operator import mul

from .kernel import AlgebraError, Element, ModelSpec, Ring, basis_index
from .models import describe_builtins, resolve_model
from .expr import ExpressionError, describe_value, evaluate, tokenize
from .extended import cap as cap_product
from .loop import bv_delta, loop_bracket
from .verify import reports_to_jsonl, run_suite


def _fail(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def _print_value(args, model: ModelSpec, value, **inputs) -> int:
    """Print `value : ring, degree d`, or with --json one object that also holds `inputs`."""
    rendered, ring, degree = describe_value(value, unicode=args.unicode)
    if args.json:
        if degree not in ("any", "inhomogeneous"):
            degree = int(degree)
        payload = dict(inputs, model=model.name, value=rendered, ring=ring, degree=degree)
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        print("%s : %s, degree %s" % (rendered, ring, degree))
    return 0


def _cmd_eval(args) -> int:
    model = resolve_model(args.model)
    return _print_value(args, model, evaluate(args.expr, model), expr=args.expr)


def _cmd_check(args) -> int:
    model = resolve_model(args.model)
    selection = None
    if args.only:
        selection = []
        for chunk in args.only:
            selection.extend(part.strip() for part in chunk.split(",") if part.strip())
    reports = run_suite(model, args.trials, args.seed, selection, ops=args.ops)
    failed = [report for report in reports if report.failed()]
    if args.json:
        print(reports_to_jsonl(reports))
    else:
        for report in reports:
            print("%-4s %-32s trials=%d" % (report.status.upper(), report.identity, report.trials))
        suffix = "" if args.ops == "standard" else ", ops %s" % args.ops
        print(
            "%d/%d identities passed (model %s, seed %s%s)"
            % (len(reports) - len(failed), len(reports), model.name, args.seed, suffix)
        )
        for report in failed:
            witness = report.witness
            print("counterexample for %s (trial %d):" % (report.identity, witness["trial"]))
            for arg_text in witness["minimized_args"]:
                print("  arg: %s" % arg_text)
            for check in witness["minimized_failing"]:
                print("  %s" % check["check"])
                print("    lhs = %s" % check["lhs"])
                print("    rhs = %s" % check["rhs"])
    return 1 if failed else 0


# about a minute of output: written to a file on a shared 2-vCPU Xeon VM (Python
# 3.11.7), `table --model su5 --op bracket --max-degree 12 --max-exp 3` prints
# 208,000 lines/s (48 s for the limit) and `--model exterior:3,5,7 --op cap
# --max-degree 24 --max-exp 6` 359,000 lines/s (28 s)
TABLE_LINE_LIMIT = 10 ** 7


#: op -> (engine call, the ring of each argument).  The lambdas look the call up
#: among this module's names when a table starts, so a wrapper installed on those
#: names (bench/tracing.py) sees every line's call, and a line pays no lookup.
_TABLE_OPS = {
    "delta": (lambda: bv_delta, (Ring.LOOP,)),
    "product": (lambda: mul, (Ring.LOOP, Ring.LOOP)),
    "bracket": (lambda: loop_bracket, (Ring.LOOP, Ring.LOOP)),
    "cap": (lambda: cap_product, (Ring.COH, Ring.LOOP)),
}


def _table_bases(model: ModelSpec, op: str, max_degree: int, max_exp: int):
    """Each argument's basis index and populated degrees, and the number of lines
    `loopbv table` prints, counted without listing the basis."""
    bases, lines = [], 1
    for ring in _TABLE_OPS[op][1]:
        index = basis_index(model, ring, max_exp)
        degrees = index.degrees_in(-max_degree, max_degree)
        bases.append((index, degrees))
        lines *= sum(map(index.count, degrees))
    return bases, lines


def _cmd_table(args) -> int:
    for flag, value in (("--max-degree", args.max_degree), ("--max-exp", args.max_exp)):
        if value < 0:
            return _fail("%s must be >= 0, got %d" % (flag, value))
    model = resolve_model(args.model)
    bases, lines = _table_bases(model, args.op, args.max_degree, args.max_exp)
    if lines > TABLE_LINE_LIMIT:
        return _fail(
            "table would print %d lines, more than the limit of %d; lower --max-degree or --max-exp"
            % (lines, TABLE_LINE_LIMIT)
        )
    show = lambda e: e.render(unicode=args.unicode)
    write = sys.stdout.write  # one write per line, so the table streams line by line

    def shown(index, degrees):
        """The basis as (element, text) pairs, streamed: each argument is rendered once."""
        for deg in degrees:
            for k in range(index.count(deg)):
                x = Element._of(model, index.ring, {index.monomial(deg, k): 1})
                yield x, show(x)

    call = _TABLE_OPS[args.op][0]()
    if args.op == "delta":
        for b, b_text in shown(*bases[0]):
            write("Delta(%s) = %s\n" % (b_text, show(call(b))))
        return 0
    left = list(shown(*bases[0]))
    right = left if bases[1] == bases[0] else list(shown(*bases[1]))
    for x, x_text in left:
        for y, y_text in right:
            write("%s(%s, %s) = %s\n" % (args.op, x_text, y_text, show(call(x, y))))
    return 0


_OPENER = {")": "(", "]": "["}


def _slot_error(flag: str, text: str) -> str | None:
    """Why option `text` would leave its slot in `intersect([AT], [FREE], FAMILY)`:
    an unbalanced bracket, or a comma outside brackets in the family.  A text
    that does not tokenize is left to the evaluation of the built call."""
    try:
        tokens = tokenize(text)
    except ExpressionError:
        return None
    where = lambda token: "%s: %d:%d: %r" % (flag, token.line, token.col, token.text)
    opened = []
    for token in tokens:
        if token.kind in ("(", "["):
            opened.append(token)
        elif token.kind in _OPENER and (not opened or opened.pop().kind != _OPENER[token.kind]):
            return "%s has no matching %r in the option" % (where(token), _OPENER[token.kind])
        elif token.kind == "," and flag == "--family" and not opened:
            return "%s outside brackets; the family is one class" % where(token)
    return "%s is not closed in the option" % where(opened[-1]) if opened else None


def _cmd_intersect(args) -> int:
    model = resolve_model(args.model)
    for flag, text in (("--at", args.at), ("--free", args.free), ("--family", args.family)):
        problem = _slot_error(flag, text)
        if problem:
            return _fail(problem)
    value = evaluate("intersect([%s], [%s], %s)" % (args.at, args.free, args.family), model)
    return _print_value(args, model, value, at=args.at, free=args.free, family=args.family)


def _cmd_models(args) -> int:
    for line in describe_builtins():
        print(line)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a token `-X...`, X not `-`, as a value unless it is an option
    string (`-h`), so `eval --model s3 -a1` and `--family -u1` need no `--`
    or `=`: no subcommand has another short option."""

    def _parse_optional(self, arg_string):
        if arg_string[1:2] not in ("", "-") and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopbv",
        description="Exact string-topology BV algebra calculator for exterior rational models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("--model", required=True, help="model name, exterior:d1,d2,... or JSON file")
    p_eval.add_argument("expr", help="expression, e.g. 'bracket(a1, u1^3)'")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.add_argument("--unicode", action="store_true", help="pretty generator names")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="run the identity verification suite")
    p_check.add_argument("--model", required=True)
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", default=0, type=int)
    p_check.add_argument(
        "--only",
        action="append",
        metavar="ID[,ID...]",
        help="restrict to these identity ids (repeatable or comma separated)",
    )
    p_check.add_argument("--json", action="store_true", help="one JSON report per line")
    p_check.add_argument(
        "--ops",
        default="standard",
        help=argparse.SUPPRESS,  # mutated primitive bundles, for testing the suite itself
    )
    p_check.set_defaults(func=_cmd_check)

    p_table = sub.add_parser("table", help="tabulate an operation on basis monomials")
    p_table.add_argument("--model", required=True)
    p_table.add_argument("--op", required=True, choices=["product", "bracket", "delta", "cap"])
    p_table.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p_table.add_argument("--max-exp", type=int, default=4, dest="max_exp",
                         help="bound on total even exponents in listed monomials")
    p_table.add_argument("--unicode", action="store_true")
    p_table.set_defaults(func=_cmd_table)

    p_int = sub.add_parser("intersect", help="loop-intersection calculator")
    p_int.add_argument("--model", required=True)
    p_int.add_argument("--at", default="", help="comma list of base classes met at fixed times")
    p_int.add_argument("--free", default="", help="comma list of base classes met at free times")
    p_int.add_argument("--family", required=True, help="loop-homology class of the family")
    p_int.add_argument("--json", action="store_true")
    p_int.add_argument("--unicode", action="store_true")
    p_int.set_defaults(func=_cmd_intersect)

    p_models = sub.add_parser("models", help="list built-in models")
    p_models.set_defaults(func=_cmd_models)

    return parser


# one parser per process, built on the first `main` call
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at interpreter exit
        return code
    except (AlgebraError, ExpressionError) as exc:
        return _fail(str(exc))
    except MemoryError:
        return _fail("out of memory")
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly with the status of a
        # SIGPIPE kill, and point stdout at os.devnull so that the flush at exit
        # cannot fail again, as the SIGPIPE note of Python's `signal` docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except OSError as exc:
        try:
            sys.stdout.flush()  # a stdout that cannot take its text (a full device) fails again
        except OSError:  # and goes to os.devnull, as above, so that nothing fails at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
