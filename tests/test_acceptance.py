"""Acceptance gate: each test is one criterion and prints one pass/fail line.

Every check is exact rational equality; nothing here uses tolerances.
"""

from __future__ import annotations

import json
import time

from loopbv.cli import main as cli_main
from loopbv.expr import parse, to_text
from loopbv.kernel import Element, Ring, random_element, sign_pow
from loopbv.loop import a, bv_delta, loop_bracket, s_star, u
from loopbv.cohomology import coh_delta, v
from loopbv.extended import cap, loop_intersection
from loopbv.models import resolve_model
from loopbv.verify import DELTA_BRACKET_MUTATIONS, replay, run_suite

from exprgen import corpus, evaluable_corpus
import oracle

MODELS = [
    resolve_model("s3"),
    resolve_model("s5"),
    resolve_model("su3"),
    resolve_model("exterior:3,5,7"),
]

TRIALS = 500
SEED = 42


def _assert_all_pass(reports, label):
    failed = [r for r in reports if r.failed()]
    for report in failed:
        print("FAIL %s %s witness=%s" % (label, report.identity, report.witness))
    assert not failed, "%s: %d identities failed" % (label, len(failed))


def _run_ids(ids, trials=TRIALS, models=MODELS):
    for model in models:
        _assert_all_pass(run_suite(model, trials, SEED, selection=ids), model.name)


def test_criterion_1_bv_axiom_suite_all_models_under_60s():
    ids = [
        "loop-commutativity",
        "loop-associativity",
        "bv-identity",
        "poisson-identity",
        "jacobi-identity",
        "delta-squared-zero",
    ]
    start = time.time()
    _run_ids(ids)
    elapsed = time.time() - start
    assert elapsed < 60.0, "BV axiom suite took %.1fs" % elapsed
    print(
        "[criterion 1] PASS: BV axioms, %d trials x %d identities x %d models in %.1fs"
        % (TRIALS, len(ids), len(MODELS), elapsed)
    )


def test_criterion_2_cap_compatibility_laws():
    ids = [
        "eq-4.6-cap-commutes-product",
        "eq-4.7-cap-derivation",
        "eq-4.10-cap-bracket-derivation",
        "eq-4.24-delta-cap-derivation",
    ]
    _run_ids(ids)
    print("[criterion 2] PASS: cap/product/bracket compatibility, %d trials per identity per model" % TRIALS)


def test_criterion_3_extended_algebra_suite():
    ids = [
        "eq-4.11-poisson-extended",
        "eq-4.12-poisson-extended",
        "eq-4.13-poisson-extended",
        "eq-4.14-poisson-extended",
        "eq-4.15-jacobi-extended",
        "eq-4.16-jacobi-extended",
        "mixed-product-conventions",
        "ext-commutativity",
        "ext-associativity",
        "ext-unit",
        "ext-bv-identity",
        "ext-poisson",
        "ext-jacobi",
        "ext-bracket-antisymmetry",
        "ext-delta-squared-zero",
    ]
    _run_ids(ids)
    print("[criterion 3] PASS: extended Poisson/Jacobi and full extended BV suite, %d trials" % TRIALS)


def test_criterion_4_cap_module_axiom_and_intertwiner():
    _run_ids(["cap-module-axiom", "intertwiner-duality"])
    print("[criterion 4] PASS: cap module axiom and duality intertwiner, %d draws each" % TRIALS)


def test_criterion_5_desk_values_with_independent_oracle():
    s3 = MODELS[0]
    a1, u1, v1 = a(s3, 1), u(s3, 1), v(s3, 1)
    assert loop_bracket(a1, u1) == -Element.unit(s3, Ring.LOOP)
    for k in range(1, 6):
        expected = k * u1 ** (k - 1)
        assert bv_delta(a1 * u1 ** k) == expected
        assert oracle.delta(a1 * u1 ** k) == expected
    assert cap(v1, u1 ** 2) == 2 * u1 == oracle.cap(v1, u1 ** 2)
    assert cap(v1 * v1, u1 ** 3) == 6 * u1 == oracle.cap(v1 * v1, u1 ** 3)
    for basis_class in (Element.unit(s3, Ring.LOOP), a1):
        assert cap(v1, s_star(basis_class)).is_zero()
        assert oracle.cap(v1, s_star(basis_class)).is_zero()
    print("[criterion 5] PASS: desk values match the direct-differentiation oracle")


def test_criterion_6_loop_intersection_formula_100_configs():
    import random as _random

    checked = 0
    for model in (MODELS[2], MODELS[3]):
        d = model.dimension
        for trial in range(50):
            rng = _random.Random("acc6|%s|%d" % (model.name, trial))
            ats = [
                random_element(model, Ring.COH, (0, d), 1, rng, even_cap=0)
                for _ in range(rng.randint(0, 3))
            ]
            frees = [
                random_element(model, Ring.COH, (0, d), 2, rng, even_cap=0)
                for _ in range(rng.randint(0, 3))
            ]
            family = random_element(model, Ring.LOOP, (-d - 2, 2 * d), 2, rng, even_cap=5)
            omega = Element.unit(model, Ring.COH)
            for w in ats:
                omega = omega * w
            exponent = -len(frees)
            for j, w in enumerate(frees, start=1):
                deg = w.degree()
                exponent += j * (deg if isinstance(deg, int) else 0)
                omega = omega * coh_delta(w)
            expected = cap(omega, family).scale(sign_pow(exponent))
            assert loop_intersection(ats, frees, family) == expected
            checked += 1
    assert checked == 100
    print("[criterion 6] PASS: loop-intersection calculator on %d random configurations" % checked)


def test_criterion_7_curious_identity_200_triples():
    _run_ids(["eq-4.19-curious-identity"], trials=200)
    print("[criterion 7] PASS: three-way bracket/product identity on 200 triples per model")


def test_criterion_8_mutation_sensitivity_with_replayable_witnesses():
    su3 = MODELS[2]
    assert len(DELTA_BRACKET_MUTATIONS) == 5
    for name in DELTA_BRACKET_MUTATIONS:
        reports = run_suite(su3, 40, 99, ops=name)
        failed = [r for r in reports if r.failed()]
        assert failed, "mutation %s went undetected" % name
        report = failed[0]
        assert report.witness is not None and report.witness["failing"]
        assert replay(report) == report, "witness for %s did not replay" % name
    print("[criterion 8] PASS: all 5 Delta/bracket mutations detected, witnesses replay exactly")


def test_criterion_9_parser_round_trip_and_cli_determinism(capsys):
    texts = corpus(200, seed="acceptance", rank=2)
    assert len(texts) == 200
    for text in texts:
        tree = parse(text)
        assert parse(to_text(tree)) == tree

    def run_cli(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    for text in evaluable_corpus(40, seed="acceptance-eval", rank=2):
        first = run_cli("eval", "--model", "su3", text, "--json")
        second = run_cli("eval", "--model", "su3", text, "--json")
        assert first == second
        assert first[0] == 0
        json.loads(first[1])

    check_args = ("check", "--model", "s3", "--trials", "5", "--seed", "1", "--json")
    assert run_cli(*check_args) == run_cli(*check_args)

    code_pass, _ = run_cli("check", "--model", "s3", "--trials", "20", "--seed", "1")
    assert code_pass == 0
    code_fail, _ = run_cli(
        "check", "--model", "s3", "--trials", "30", "--seed", "1", "--ops", "bracket-sign-flip"
    )
    assert code_fail == 1
    print("[criterion 9] PASS: 200-expression round trip, byte-identical CLI output, check exit codes")
