"""Command line interface: output formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopbv import cli
from loopbv.cli import _table_bases, build_parser, main
from loopbv.expr import parse, to_text
from loopbv.kernel import AlgebraError
from loopbv.loop import loop_bracket
from loopbv.models import builtin_named, resolve_model
from loopbv.verify import CheckReport, replay


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------


def test_eval_bracket(capsys):
    code, out, err = _run(capsys, "eval", "--model", "s3", "bracket(a1,u1)")
    assert code == 0 and err == ""
    assert out == "-1 : loop-homology, degree 0\n"


def test_eval_json(capsys):
    code, out, _ = _run(capsys, "eval", "--model", "s3", "cap(Delta(alpha1), u1^2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "degree": 2,
        "expr": "cap(Delta(alpha1), u1^2)",
        "model": "s3",
        "ring": "loop-homology",
        "value": "2*u1",
    }


def test_eval_inhomogeneous_degree(capsys):
    code, out, _ = _run(capsys, "eval", "--model", "s3", "a1 + u1")
    assert code == 0
    assert "degree inhomogeneous" in out


def test_eval_scalar(capsys):
    code, out, _ = _run(capsys, "eval", "--model", "s3", "3/2")
    assert code == 0
    assert out == "3/2 : scalar, degree 0\n"


def test_eval_unicode(capsys):
    code, out, _ = _run(capsys, "eval", "--model", "s3", "D(a1)", "--unicode")
    assert code == 0
    assert "α" in out


def test_eval_exterior_model_syntax(capsys):
    code, out, _ = _run(capsys, "eval", "--model", "exterior:3,5,7", "a3*u2")
    assert code == 0
    assert out.startswith("a3*u2 :")


def test_eval_parse_error_exit_code(capsys):
    code, out, err = _run(capsys, "eval", "--model", "s3", "a1 ** u1")
    assert code == 2 and out == ""
    assert "1:5" in err and "unexpected" in err


def test_eval_unknown_model(capsys):
    code, _, err = _run(capsys, "eval", "--model", "torus9", "a1")
    assert code == 2
    assert "unknown model 'torus9'" in err


def test_eval_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"name": "pair", "generator_degrees": [3, 7]}', encoding="utf-8")
    code, out, _ = _run(capsys, "eval", "--model", str(path), "a2")
    assert code == 0
    assert out == "a2 : loop-homology, degree -7\n"


def test_eval_invalid_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"name": "pair", "generator_degrees": [3, 4]}', encoding="utf-8")
    code, _, err = _run(capsys, "eval", "--model", str(path), "a1")
    assert code == 2
    assert "generator_degrees[1] = 4" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "is unreadable: 'utf-8' codec can't decode byte 0xff"),
        (b'{"name": "big", "generator_degrees": [' + b"9" * 5000 + b"]}", "error: model JSON is unreadable: "),
    ],
    ids=["not-utf-8", "number-past-the-digit-limit"],
)
def test_eval_malformed_model_file_is_a_one_line_error(tmp_path, capsys, content, message):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, "eval", "--model", str(path), "a1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


# -- check --------------------------------------------------------------------


def test_check_passes_with_exit_zero(capsys):
    code, out, _ = _run(
        capsys, "check", "--model", "s3", "--trials", "10", "--seed", "7",
        "--only", "bv-identity,ext-unit",
    )
    assert code == 0
    assert "PASS bv-identity" in out and "PASS ext-unit" in out
    assert "2/2 identities passed" in out


def test_check_json_is_deterministic_and_parseable(capsys):
    args = ("check", "--model", "su3", "--trials", "8", "--seed", "3", "--json")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    reports = [CheckReport.from_json(line) for line in out1.strip().splitlines()]
    assert all(report.status == "pass" for report in reports)


def test_check_exit_status_contract_on_failure(capsys):
    code, out, _ = _run(
        capsys, "check", "--model", "s3", "--trials", "30", "--seed", "5",
        "--ops", "delta-sign-flip",
    )
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_check_unknown_identity(capsys):
    code, _, err = _run(capsys, "check", "--model", "s3", "--only", "eq-0.0-nope")
    assert code == 2
    assert "unknown identity id" in err


@pytest.mark.parametrize("only", [[","], [""], [" , ", ","]])
def test_check_refuses_an_empty_selection(capsys, only):
    argv = [arg for chunk in only for arg in ("--only", chunk)]
    code, out, err = _run(capsys, "check", "--model", "s3", "--trials", "1", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: no identity selected (see the catalog for known ids)\n"


def test_check_refuses_model_file_with_a_builtin_name_and_other_degrees(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"name": "su3", "generator_degrees": [3, 7]}', encoding="utf-8")
    code, out, err = _run(capsys, "check", "--model", str(path), "--trials", "2", "--only", "bv-identity")
    assert (code, out) == (2, "")
    assert "named 'su3', the built-in model with degrees [3, 5], but lists degrees [3, 7]" in err


def test_check_accepts_model_file_with_a_builtin_name_and_its_degrees(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"name": "su3", "generator_degrees": [3, 5]}', encoding="utf-8")
    code, out, _ = _run(capsys, "check", "--model", str(path), "--trials", "2", "--only", "bv-identity")
    assert code == 0
    assert "1/1 identities passed (model su3, seed 0)" in out


def test_check_rejects_bad_trials(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--model", "s3", "--trials", "many"])
    capsys.readouterr()


# -- table --------------------------------------------------------------------


def test_table_delta(capsys):
    code, out, _ = _run(capsys, "table", "--model", "s3", "--op", "delta",
                        "--max-degree", "4", "--max-exp", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "Delta(a1) = 0" in lines
    assert "Delta(a1*u1) = 1" in lines
    assert "Delta(u1) = 0" in lines


def test_table_bracket(capsys):
    code, out, _ = _run(capsys, "table", "--model", "s3", "--op", "bracket",
                        "--max-degree", "3", "--max-exp", "1")
    assert code == 0
    assert "bracket(a1, u1) = -1" in out


def test_table_cap(capsys):
    code, out, _ = _run(capsys, "table", "--model", "s3", "--op", "cap",
                        "--max-degree", "2", "--max-exp", "1")
    assert code == 0
    assert "cap(v1, u1) = 1" in out
    assert "cap(1, u1) = u1" in out


@pytest.mark.parametrize("flag, value", [("--max-exp", "-1"), ("--max-degree", "-2")])
def test_table_rejects_negative_bounds(capsys, flag, value):
    code, out, err = _run(capsys, "table", "--model", "s3", "--op", "delta", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("model, op, argv", [
    ("su8", "bracket", []),
    ("su8", "cap", ["--max-degree", "40", "--max-exp", "6"]),
    ("exterior:3,5,7,9,11,13,15,17,19,21,23,25", "delta", ["--max-degree", "400", "--max-exp", "6"]),
    ("exterior:3,5,7,9,11,13,15,17,19,21,23,25", "bracket", []),
])
def test_table_refuses_oversized_tables(capsys, model, op, argv):
    code, out, err = _run(capsys, "table", "--model", model, "--op", op, *argv)
    assert code == 2
    assert out == ""
    assert "lines" in err and "--max-degree" in err and "--max-exp" in err


RANK_21 = "exterior:" + ",".join(["1"] * 21)
RANK_27 = "exterior:" + ",".join(["1"] * 27)
RANK_200 = "exterior:" + ",".join(["1"] * 200)


@pytest.mark.parametrize("argv, count", [
    (("check", "--model", RANK_27, "--trials", "1"), "1107568 exponent vectors"),
    (("check", "--model", RANK_27, "--only", "bv-identity", "--trials", "1", "--json"), "1107568 exponent vectors"),
    (("check", "--model", RANK_200, "--trials", "1"), "98619368491 exponent vectors"),
    (("check", "--model", RANK_200, "--only", "model-structure", "--trials", "1"), "98619368491 exponent vectors"),
    (("table", "--model", "su3", "--op", "bracket", "--max-degree", "2", "--max-exp", "20000"),
     "200030001 exponent vectors"),
    (("table", "--model", "s3", "--op", "delta", "--max-degree", "0", "--max-exp", "30000000"),
     "30000001 exponent vectors"),
], ids=["check-rank-27", "check-only-json-rank-27", "check-rank-200", "check-only-model-structure-rank-200",
        "table-su3-max-exp-20000", "table-s3-max-exp-30000000"])
def test_commands_that_index_the_basis_refuse_an_oversized_index(capsys, argv, count):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and count in err and "limit of 1000000" in err


def test_eval_works_above_the_rank_limit(capsys):
    code, out, err = _run(capsys, "eval", "--model", RANK_21, "bracket(a21, u21^2)")
    assert code == 0 and err == ""
    assert out == "-2*u21 : loop-homology, degree 0\n"


def test_table_size_is_counted_before_printing(capsys):
    model = resolve_model("su3")
    for op in ("delta", "bracket", "product", "cap"):
        code, out, _ = _run(capsys, "table", "--model", "su3", "--op", op,
                            "--max-degree", "8", "--max-exp", "3")
        assert code == 0
        assert len(out.splitlines()) == _table_bases(model, op, 8, 3)[1]


# -- intersect ------------------------------------------------------------------


def test_intersect_example(capsys):
    code, out, _ = _run(
        capsys, "intersect", "--model", "s3", "--free", "alpha1", "--family", "u1^2"
    )
    assert code == 0
    assert out == "2*u1 : loop-homology, degree 2\n"


def test_intersect_json_with_lists(capsys):
    code, out, _ = _run(
        capsys, "intersect", "--model", "su3", "--at", "alpha1, alpha2",
        "--free", "alpha1", "--family", "u1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "su3"
    assert payload["at"] == "alpha1, alpha2"


@pytest.mark.parametrize("flag, nested, flat, value", [
    ("--free", "product(alpha1, alpha2)", "alpha1*alpha2", "2*a1*u1^2*u2 - 2*a2*u1*u2^2 : loop-homology, degree 5"),
    ("--at", "D(product(a1, a2)), alpha1", "alpha1*alpha2, alpha1", "0 : loop-homology, degree any"),
])
def test_intersect_lists_split_only_at_top_level_commas(capsys, flag, nested, flat, value):
    for text in (nested, flat):
        code, out, err = _run(capsys, "intersect", "--model", "su3", flag, text, "--family", "u1^2*u2^2")
        assert (code, out, err) == (0, value + "\n", "")


def test_intersect_rejects_non_base(capsys):
    code, _, err = _run(capsys, "intersect", "--model", "s3", "--free", "v1",
                        "--family", "u1")
    assert code == 2
    assert "base" in err


@pytest.mark.parametrize("free", ["0, u1", "u1, 0"])
def test_intersect_checks_every_free_class_before_a_zero_one(capsys, free):
    code, out, err = _run(capsys, "intersect", "--model", "s3", "--free", free,
                          "--family", "u1^2")
    col = len("intersect([], [") + free.index("u1") + 1  # columns count in the built call
    assert (code, out) == (2, "")
    assert err == (
        "error: 1:%d: intersect free-time class must be a cohomology class, got loop-homology\n" % col
    )


# one row per bad argument: the options, the same call as an expression, and the line both print
_INTERSECT_ERRORS = [
    ("s3", ["--at", "a1", "--family", "u1"], "intersect([a1], [], u1)",
     "1:12: intersect basepoint class must be a cohomology class, got loop-homology"),
    ("s3", ["--family", "alpha1"], "intersect([], [], alpha1)",
     "1:19: intersect family must be a loop-homology class, got cohomology"),
    ("s3", ["--free", "v1", "--family", "u1"], "intersect([], [v1], u1)",
     "1:1: loop_intersection: free_time[0]: class has v factors, not in the base subring"),
    ("su3", ["--free", "alpha1 + alpha2", "--family", "u1"], "intersect([], [alpha1 + alpha2], u1)",
     "1:1: loop_intersection: free_time[0] is inhomogeneous; "
     "its position-dependent sign needs a single degree"),
    ("s3", ["--free", "0, u1", "--family", "u1^2"], "intersect([], [0, u1], u1^2)",
     "1:19: intersect free-time class must be a cohomology class, got loop-homology"),
    ("s3", ["--free", "u1, 0", "--family", "u1^2"], "intersect([], [u1, 0], u1^2)",
     "1:16: intersect free-time class must be a cohomology class, got loop-homology"),
    ("s3", ["--at", "alpha1 +", "--family", "u1"], "intersect([alpha1 +], [], u1)",
     "1:20: unexpected ']'"),
    ("s3", ["--at", "alpha1,", "--family", "u1"], "intersect([alpha1,], [], u1)",
     "1:19: unexpected ']'"),
    # an option that does not tokenize is left to the built call, unbalanced or not
    ("s3", ["--free", "alpha1", "--family", "(u1 $"], "intersect([], [alpha1], (u1 $)",
     "1:29: unexpected character '$'"),
]


@pytest.mark.parametrize("model, options, text, message", _INTERSECT_ERRORS,
                         ids=[text for _, _, text, _ in _INTERSECT_ERRORS])
def test_intersect_and_eval_print_the_same_diagnostic(capsys, model, options, text, message):
    via_intersect = _run(capsys, "intersect", "--model", model, *options)
    via_eval = _run(capsys, "eval", "--model", model, text)
    assert via_intersect == via_eval == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("options, message", [
    # would evaluate the sum of two intersections, `u1 + u1^2`
    (["--family", "u1^2) + intersect([], [], u1"], "--family: 1:5: ')' has no matching '(' in the option"),
    (["--free", "alpha1]) + intersect([], [", "--family", "u1"],
     "--free: 1:7: ']' has no matching '[' in the option"),
    (["--family", "u1, u1"], "--family: 1:3: ',' outside brackets; the family is one class"),
    (["--at", "(alpha1", "--family", "u1"], "--at: 1:1: '(' is not closed in the option"),
    (["--at", "alpha1,\n (alpha1", "--family", "u1"], "--at: 2:2: '(' is not closed in the option"),
    (["--at", "(alpha1]", "--family", "u1"], "--at: 1:8: ']' has no matching '[' in the option"),
    (["--family", "[u1)"], "--family: 1:4: ')' has no matching '(' in the option"),
])
def test_intersect_refuses_an_option_that_leaves_its_slot(capsys, options, message):
    for extra in ([], ["--json"]):
        assert _run(capsys, "intersect", "--model", "s3", *options, *extra) == (2, "", "error: %s\n" % message)


def test_intersect_family_may_hold_commas_inside_brackets(capsys):
    code, out, err = _run(capsys, "intersect", "--model", "s3", "--free", "alpha1", "--family", "product(u1, u1)")
    assert (code, out, err) == (0, "2*u1 : loop-homology, degree 2\n", "")


# -- deep nesting -----------------------------------------------------------------


@pytest.mark.parametrize(
    "command, text, col",
    [
        ("eval", "(" * 200 + "a1" + ")" * 200, 101),
        ("eval", "(" * 2000 + "a1" + ")" * 2000, 101),
        ("eval", "-" * 2000 + "a1", 101),
        ("eval", "s(" * 200 + "a1" + ")" * 200, 201),
        # the `intersect(` call built from the options is one level, and
        # its family starts at column 19
        ("intersect", "(" * 200 + "u1" + ")" * 200, 118),
    ],
    ids=["parens-200", "parens-2000", "minus-2000", "calls-200", "intersect-family"],
)
def test_deep_nesting_is_a_diagnostic(capsys, command, text, col):
    argv = ["eval", "--model", "s3", "--", text] if command == "eval" else [
        "intersect", "--model", "s3", "--family", text]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: 1:%d: expression nests deeper than 100 levels of parentheses, "
        "calls and unary minus\n" % col
    )


_LIMIT = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise
_TOO_LONG = (
    "the result holds an integer of more than %d digits, the interpreter's limit for printing one"
    % _LIMIT
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2^20000", _TOO_LONG),  # 6,021 digits
        ("(2*u1)^20000", _TOO_LONG),
        ("7" * 5000,
         "1:1: number of 5000 digits, more than the interpreter's limit of %d for an integer" % _LIMIT),
    ],
    ids=["scalar-power", "coefficient-power", "literal-5000-digits"],
)
def test_numbers_past_the_digit_limit_are_a_diagnostic(capsys, text, message):
    for flags in ([], ["--json"]):
        code, out, err = _run(capsys, "eval", "--model", "s3", text, *flags)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


_NINES = "9" * 5000
_MODEL_DIGITS = (
    "model name holds a number of 5000 digits, more than the interpreter's limit of %d for an integer" % _LIMIT
)


@pytest.mark.parametrize(
    "model, message",
    [
        ("s" + _NINES, _MODEL_DIGITS),
        ("su" + _NINES, _MODEL_DIGITS),
        ("exterior:3," + _NINES, _MODEL_DIGITS),
        ("exterior:" + _NINES, _MODEL_DIGITS),
        ("exterior:3,-" + _NINES, _MODEL_DIGITS),
        # a part that is no number keeps its own message
        ("exterior:3,x", "model 'exterior:3,x': exterior: wants a comma list of odd integers"),
    ],
    ids=["s", "su", "exterior", "exterior-one-degree", "exterior-signed", "exterior-not-a-number"],
)
def test_model_numbers_past_the_digit_limit_are_a_diagnostic(capsys, model, message):
    code, out, err = _run(capsys, "eval", "--model", model, "a1")
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert len(err) < 200  # the digit count, not the number
    assert builtin_named(model) is None
    with pytest.raises(AlgebraError) as info:
        replay(CheckReport(identity="loop-unit", model=model, trials=1, seed=0, status="pass"))
    assert str(info.value) == message


_EXTERIOR_SHAPE = "model %r: exterior: wants a comma list of odd integers"
_UNKNOWN = "unknown model %r (try s3, su3, exterior:3,5,... or a JSON model file)"


@pytest.mark.parametrize(
    "model, message",
    [
        ("exterior:1_1", _EXTERIOR_SHAPE),
        ("exterior:+3", _EXTERIOR_SHAPE),
        ("exterior: 3", _EXTERIOR_SHAPE),
        ("exterior:\u0663", _EXTERIOR_SHAPE),
        ("exterior:3,5\n", _EXTERIOR_SHAPE),
        ("exterior:", _EXTERIOR_SHAPE),
        ("s3\n", _UNKNOWN),
        ("su3\n", _UNKNOWN),
    ],
    ids=["underscore", "plus", "space", "arabic-indic-digit", "exterior-newline", "exterior-empty", "s-newline",
         "su-newline"],
)
def test_model_names_match_whole_and_in_ascii_digits(capsys, model, message):
    code, out, err = _run(capsys, "eval", "--model", model, "a1")
    assert (code, out, err) == (2, "", "error: %s\n" % (message % model))
    assert builtin_named(model) is None


def test_nesting_up_to_the_limit_evaluates(capsys):
    for text in ("(" * 100 + "a1" + ")" * 100, "-" * 100 + "a1", "s(" * 100 + "a1" + ")" * 100,
                 "-(" * 50 + "a1" + ")" * 50):
        code, out, _ = _run(capsys, "eval", "--model", "s3", "--", text)
        assert (code, out) == (0, "a1 : loop-homology, degree -3\n")


@pytest.mark.parametrize(
    "text, value",
    [
        (" + ".join(["a1"] * 2000), "2000*a1 : loop-homology, degree -3"),
        (" * ".join(["u1"] * 2000), "u1^2000 : loop-homology, degree 4000"),
        (" - ".join(["a1"] * 2000), "-1998*a1 : loop-homology, degree -3"),
        (" + ".join(["2 * a1 * u1"] * 1000) + " - (a1 + u1) * 3",
         "-3*a1 + 2000*a1*u1 - 3*u1 : loop-homology, degree inhomogeneous"),
    ],
    ids=["sum-2000", "product-2000", "difference-2000", "mixed-1000"],
)
def test_long_chains_evaluate_and_print(capsys, text, value):
    code, out, err = _run(capsys, "eval", "--model", "s3", "--", text)
    assert (code, out, err) == (0, value + "\n", "")
    # compare text: dataclass == on a 2,000-deep tree would recurse as deep
    assert to_text(parse(text)) == text


def test_long_chain_error_keeps_the_failing_operator_position(capsys):
    text = " + ".join(["a1"] * 2000) + " + alpha1"
    code, out, err = _run(capsys, "eval", "--model", "s3", "--", text)
    assert (code, out) == (2, "")
    col = len(text) - len("+ alpha1") + 1
    assert err == "error: 1:%d: cannot add loop-homology and cohomology classes: sums live in a single ring\n" % col


# -- leading minus signs ------------------------------------------------------------

_LEADING_MINUS = [
    (["eval", "--model", "s3", "-a1"], "-a1 : loop-homology, degree -3"),
    (["intersect", "--model", "s3", "--family", "-u1"], "-u1 : loop-homology, degree 2"),
    (["intersect", "--model", "su3", "--at", "-alpha1", "--family", "u1"], "-a1*u1 : loop-homology, degree -1"),
    (["eval", "--model", "s3", "--json", "-a1"],
     '{"degree": -3, "expr": "-a1", "model": "s3", "ring": "loop-homology", "value": "-a1"}'),
    (["eval", "--model", "s3", "-3"], "-3 : scalar, degree 0"),
]


@pytest.mark.parametrize("argv, line", _LEADING_MINUS, ids=[" ".join(argv) for argv, _ in _LEADING_MINUS])
def test_a_class_may_start_with_a_minus_sign(capsys, argv, line):
    """No subcommand has a short option but -h, so `-X...` is a value."""
    assert _run(capsys, *argv) == (0, line + "\n", "")


@pytest.mark.parametrize("spaced, escaped", [
    (["eval", "--model", "s3", "-a1"], ["eval", "--model", "s3", "--", "-a1"]),
    (["intersect", "--model", "s3", "--family", "-u1"], ["intersect", "--model", "s3", "--family=-u1"]),
])
def test_the_spaced_and_escaped_forms_agree(capsys, spaced, escaped):
    assert _run(capsys, *spaced) == _run(capsys, *escaped)


@pytest.mark.parametrize("argv", [["eval", "--model", "s3", "--jsn", "a1"], ["eval", "--model", "s3", "-a1", "--jsn"]])
def test_an_unknown_long_flag_is_still_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jsn" in capsys.readouterr().err


# -- models ----------------------------------------------------------------------


def test_models_lists_builtins(capsys):
    code, out, _ = _run(capsys, "models")
    assert code == 0
    assert "s<n>" in out and "su<n>" in out and "exterior:" in out


# -- one parser per process, and stdout -------------------------------------------

# a fresh interpreter running `python -m loopbv.cli`, with help text at 80 columns
_CLI = [sys.executable, "-m", "loopbv.cli"]
_FRESH_ENV = dict(
    os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
    PYTHONIOENCODING="utf-8", COLUMNS="80", PYTHONWARNINGS="error",
)


def test_main_builds_one_parser_and_build_parser_a_fresh_one():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


_SEQUENCES = {
    "check-only": [
        ["check", "--model", "s3", "--trials", "2", "--only", "bv-identity", "--only", "jacobi-identity"],
        ["check", "--model", "s3", "--trials", "2", "--only", "poisson-identity"],
    ],
    "eval-json": [["eval", "--model", "s3", "--json", "bracket(a1, u1^2)"], ["eval", "--model", "s3", "bracket(a1, u1^2)"]],
    "table-unicode": [
        ["table", "--model", "su3", "--op", "cap", "--max-degree", "3", "--max-exp", "1", "--unicode"],
        ["table", "--model", "su3", "--op", "cap", "--max-degree", "3", "--max-exp", "1"],
    ],
    "help": [["--help"], ["models"]],
}


@pytest.mark.parametrize("sequence", _SEQUENCES.values(), ids=_SEQUENCES)
def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch, sequence):
    """The one parser carries nothing from one call to the next."""
    monkeypatch.setenv("COLUMNS", "80")
    outs = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outs.append(capsys.readouterr().out)
        fresh = subprocess.run(_CLI + argv, env=_FRESH_ENV, capture_output=True, encoding="utf-8", timeout=60)
        assert (code, outs[-1]) == (fresh.returncode, fresh.stdout)
    first, second = outs
    if sequence[0][0] == "check":
        assert [line.split()[1] for line in second.splitlines()[:-1]] == ["poisson-identity"]
    elif sequence[0][0] == "eval":
        assert json.loads(first)["value"] == second.split(" : ")[0]
    elif sequence[0][0] == "table":
        assert not first.isascii() and second.isascii()
    else:
        assert first.startswith("usage: loopbv") and "s<n>" in second


_TABLE_FOR_HEAD = ["table", "--model", "exterior:3,5,7", "--op", "bracket", "--max-degree", "6", "--max-exp", "2"]


def test_a_reader_that_closes_the_pipe_early_ends_the_table_quietly():
    """As `loopbv table ... | head -n 1`: no traceback, no `error:`, status 128 + SIGPIPE."""
    with subprocess.Popen(_CLI + _TABLE_FOR_HEAD, env=_FRESH_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"bracket(a1*a2*u1, a1*a2*u1) = 0\n"
    assert (code, err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ["models"],
    ["eval", "--model", "s3", "a1"],
    ["check", "--model", "s3", "--trials", "1", "--only", "bv-identity"],
    ["intersect", "--model", "s3", "--family", "u1"],
    ["table", "--model", "s3", "--op", "delta", "--max-degree", "0", "--max-exp", "0"],
], ids=lambda argv: argv[0])
def test_a_stdout_with_no_reader_ends_every_command_quietly(argv):
    """Even output that fits in stdout's buffer meets the closed pipe inside `main`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(_CLI + argv, env=_FRESH_ENV, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


class _FullDevice:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_any_other_output_error_is_one_error_line(capsys):
    with contextlib.redirect_stdout(_FullDevice()):
        code = main(["models"])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno %d] %s\n" % (errno.ENOSPC, os.strerror(errno.ENOSPC)))


def test_table_calls_its_operator_by_module_name_once_per_line(capsys, monkeypatch):
    """A wrapper installed on `cli.loop_bracket` (as bench/tracing.py does) sees every line's call."""
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return loop_bracket(x, y)

    monkeypatch.setattr(cli, "loop_bracket", counting)
    code, out, _ = _run(capsys, "table", "--model", "su3", "--op", "bracket", "--max-degree", "4", "--max-exp", "1")
    assert code == 0
    assert len(calls) == len(out.splitlines()) > 0
