"""Verification suite: determinism, replay, sensitivity, catalog coverage."""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import fields, replace
from operator import mul

import pytest

from loopbv.kernel import AlgebraError, Element, ModelSpec, Ring, basis_index, random_element, sign_pow
from loopbv.extended import STANDARD_OPS, BVOps, ExtendedClass, cap, extended_bracket, extended_product, nested_brackets
from loopbv.cohomology import coh_delta, poincare_dual, poincare_dual_inverse, to_base
from loopbv.loop import bv_delta, loop_bracket, loop_product
from loopbv.models import resolve_model
from loopbv import verify
from loopbv.expr import evaluate
from loopbv.verify import (
    CATALOG,
    ArgSpec,
    CheckReport,
    DELTA_BRACKET_MUTATIONS,
    MUTATION_BREAKS,
    _plan,
    _leibniz,
    get_ops,
    mutations,
    replay,
    report_rng,
    reports_to_jsonl,
    run_suite,
)

import oracle

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))

EXPECTED_IDS = [
    "model-structure",
    "loop-commutativity",
    "loop-associativity",
    "loop-unit",
    "bracket-antisymmetry",
    "bv-identity",
    "poisson-identity",
    "jacobi-identity",
    "delta-squared-zero",
    "delta-constant-loops",
    "operator-commutator-product",
    "operator-commutator-bracket",
    "s-star-ring-map",
    "dual-multiplicative",
    "eq-1.1-base-cap-commutes",
    "eq-4.4-coh-delta-derivation",
    "coh-delta-squared-zero",
    "eq-4.6-cap-commutes-product",
    "eq-4.7-cap-derivation",
    "eq-4.10-cap-bracket-derivation",
    "eq-4.24-delta-cap-derivation",
    "cap-on-constants-trivial",
    "cap-module-axiom",
    "eq-5.1-cap-is-intersection",
    "eq-5.2-nested-brackets",
    "intertwiner-duality",
    "mixed-product-conventions",
    "eq-4.11-poisson-extended",
    "eq-4.12-poisson-extended",
    "eq-4.13-poisson-extended",
    "eq-4.14-poisson-extended",
    "eq-4.15-jacobi-extended",
    "eq-4.16-jacobi-extended",
    "ext-commutativity",
    "ext-associativity",
    "ext-unit",
    "ext-bv-identity",
    "ext-poisson",
    "ext-jacobi",
    "ext-bracket-antisymmetry",
    "ext-delta-squared-zero",
    "eq-4.19-curious-identity",
    "loop-intersection-formula",
]

# identities whose two sides are generically both zero, with an operation
# mutation that makes them fail instead of the generic negated-side probe
ZERO_SIDED = {
    "delta-squared-zero": "delta-extra-term",
    "coh-delta-squared-zero": "coh-delta-extra-term",
    "delta-constant-loops": "delta-exterior-term",
    "cap-on-constants-trivial": "coh-delta-extra-term",
    "ext-delta-squared-zero": "delta-extra-term",
}


def test_catalog_covers_expected_identities_exactly_once():
    assert list(CATALOG) == EXPECTED_IDS
    assert len(set(EXPECTED_IDS)) == len(EXPECTED_IDS)


def test_suite_passes_and_is_deterministic():
    first = run_suite(S3, 30, 42)
    second = run_suite(S3, 30, 42)
    assert first == second
    assert all(report.status == "pass" for report in first)
    assert reports_to_jsonl(first) == reports_to_jsonl(second)
    assert [report.identity for report in first] == EXPECTED_IDS


def test_full_suite_at_200_trials_passes():
    reports = run_suite(S3, 200, 42)
    assert [r.identity for r in reports] == EXPECTED_IDS
    assert all(r.status == "pass" for r in reports)


def test_bv_identity_passes_at_rank_12():
    model = ModelSpec("exterior:3,5,...,25", tuple(range(3, 26, 2)))
    reports = run_suite(model, 3, 42, ["bv-identity"])
    assert [(r.identity, r.status) for r in reports] == [("bv-identity", "pass")]


def test_selection_returns_single_report_in_catalog_order():
    reports = run_suite(SU3, 200, 42, selection={"eq-4.15-jacobi-extended"})
    assert len(reports) == 1
    report = reports[0]
    assert report.identity == "eq-4.15-jacobi-extended"
    assert report.status == "pass"
    assert report.trials == 200 and report.seed == 42
    several = run_suite(SU3, 5, 1, selection=["ext-unit", "bv-identity"])
    assert [r.identity for r in several] == ["bv-identity", "ext-unit"]


def test_unknown_identity_is_an_error():
    with pytest.raises(AlgebraError, match="unknown identity id 'eq-0.0-nope'"):
        run_suite(S3, 5, 1, selection=["eq-0.0-nope"])


@pytest.mark.parametrize("selection", [[], ()])
def test_empty_selection_is_an_error(selection):
    with pytest.raises(AlgebraError, match="no identity selected"):
        run_suite(S3, 5, 1, selection=selection)


def test_string_selection_is_an_error():
    """A string is an iterable of its characters, never of identity ids; a selection that is
    no iterable is refused as well, not left to leak `TypeError`."""
    with pytest.raises(AlgebraError, match="selection must be a list of identity ids, not the string 'bv-identity'"):
        run_suite(SU3, 1, 0, "bv-identity")
    with pytest.raises(AlgebraError, match="^selection must be a list of identity ids, not 5$"):
        run_suite(SU3, 1, 1, 5)


@pytest.mark.parametrize(
    "item",
    [["bv-identity"], {"a": 1}, ("bv-identity",), ("a", "b"), ()],
    ids=["list", "dict", "tuple-known-id", "tuple-pair", "tuple-empty"],
)
def test_a_selection_item_that_is_not_a_string_is_an_error(item):
    """An unhashable item used to leak `TypeError` from the catalog lookup; a
    tuple, the one hashable container, is named whole, never taken as format
    arguments."""
    with pytest.raises(AlgebraError) as info:
        run_suite(S3, 1, 1, [item])
    assert str(info.value) == "unknown identity id %r (see the catalog for known ids)" % (item,)


def test_oversized_model_is_refused_before_any_identity_runs(monkeypatch):
    def ran(*args):
        raise RuntimeError("an identity ran")

    monkeypatch.setattr(verify, "_failing_checks", ran)
    rank_200 = ModelSpec("exterior:" + ",".join(["1"] * 200), (1,) * 200)
    for selection in (None, ["model-structure"]):
        with pytest.raises(AlgebraError, match="98619368491 exponent vectors, more than the limit"):
            run_suite(rank_200, 1, 0, selection)


def test_trials_must_be_positive():
    with pytest.raises(AlgebraError):
        run_suite(S3, 0, 1)


def test_a_bool_trial_count_is_refused():
    """`True` is an `int` subclass; a report would otherwise read `"trials": true`."""
    with pytest.raises(AlgebraError, match="trials must be an integer, got True"):
        run_suite(S3, True, 1, ["loop-unit"])


def test_a_fractional_trial_count_is_refused_on_a_row_that_draws_nothing():
    """`model-structure` runs one trial whatever the count, so only the check stops 2.5."""
    with pytest.raises(AlgebraError, match="trials must be an integer, got 2.5"):
        run_suite(S3, 2.5, 1, ["model-structure"])


def test_a_fractional_trial_count_is_refused_on_a_row_that_draws():
    with pytest.raises(AlgebraError, match="trials must be an integer, got 2.5"):
        run_suite(S3, 2.5, 1, ["loop-unit"])


def test_unknown_ops_bundle_is_an_error():
    with pytest.raises(AlgebraError, match="unknown ops bundle"):
        get_ops("delta-zero-nonsense")


@pytest.mark.parametrize("bundle", [[1], {"a": 1}, 3], ids=["list", "dict", "int"])
def test_a_bundle_that_is_neither_ops_nor_a_name_is_refused(bundle):
    """An unhashable bundle used to leak `TypeError` from the registry lookup."""
    known = "standard, " + ", ".join(sorted(MUTATION_BREAKS))
    message = "unknown ops bundle %r (known: %s)" % (bundle, known)
    with pytest.raises(AlgebraError) as info:
        get_ops(bundle)
    assert str(info.value) == message
    with pytest.raises(AlgebraError) as info:
        run_suite(S3, 1, 1, ["bv-identity"], ops=bundle)
    assert str(info.value) == message


# -- replay --------------------------------------------------------------------


def test_replay_reproduces_pass_report():
    report = run_suite(S3, 20, 9, selection=["bv-identity"])[0]
    assert replay(report) == report


def test_replay_reproduces_fail_report_bit_for_bit():
    failed = [r for r in run_suite(S3, 30, 9, ops="delta-sign-flip") if r.failed()]
    assert failed
    for report in failed[:3]:
        assert report.witness is not None
        assert replay(report) == report


def test_replay_with_altered_seed_differs():
    base = run_suite(SU3, 30, 9, ops="bracket-drop-term", selection=["poisson-identity"])[0]
    other = run_suite(SU3, 30, 10, ops="bracket-drop-term", selection=["poisson-identity"])[0]
    assert base.failed() and other.failed()
    assert base.witness != other.witness


def test_replay_detects_catalog_mismatch():
    report = run_suite(S3, 5, 1, selection=["loop-unit"])[0]
    stale = CheckReport(
        identity=report.identity,
        model=report.model,
        trials=report.trials,
        seed=report.seed,
        status=report.status,
        ops=report.ops,
        catalog="0-ancient",
    )
    with pytest.raises(AlgebraError, match="catalog version mismatch"):
        replay(stale)
    bad_identity = CheckReport(
        identity="eq-9.9-imaginary",
        model="s3",
        trials=5,
        seed=1,
        status="pass",
    )
    with pytest.raises(AlgebraError, match="unknown identity"):
        replay(bad_identity)


def test_replay_refuses_a_catalog_1_report_line():
    # catalog "1" drew rational coefficients and catalog "2" seeded a generator per
    # trial, so the reports of neither replay
    for catalog in ("1", "2"):
        line = ('{"catalog": "%s", "identity": "bv-identity", "model": "su3", "ops": "standard", '
                '"seed": 7, "status": "pass", "trials": 500}' % catalog)
        report = CheckReport.from_json(line)
        assert report.catalog == catalog
        with pytest.raises(AlgebraError) as info:
            replay(report)
        assert str(info.value) == "catalog version mismatch: report has '%s', current is '3'" % catalog


def test_model_file_reusing_a_builtin_name_needs_its_degrees(tmp_path):
    # reports store only the name, so replay would silently run the built-in
    path = tmp_path / "model.json"
    path.write_text('{"name": "su3", "generator_degrees": [3, 7]}', encoding="utf-8")
    with pytest.raises(AlgebraError, match=r"named 'su3', the built-in model with degrees \[3, 5\], but lists degrees \[3, 7\]"):
        resolve_model(str(path))
    path.write_text('{"name": "su3", "generator_degrees": [3, 5]}', encoding="utf-8")
    model = resolve_model(str(path))
    assert model == SU3
    report = run_suite(model, 20, 9, ["bv-identity"], ops="delta-sign-flip")[0]
    assert report.failed() and replay(report) == report
    # no built-in can be named s4, so such a file keeps its own degrees
    path.write_text('{"name": "s4", "generator_degrees": [5]}', encoding="utf-8")
    assert resolve_model(str(path)) == ModelSpec("s4", (5,))


def test_file_model_report_replays_from_its_own_degrees(tmp_path, monkeypatch):
    # the report names the model `pair`, which resolves to the file ./pair
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair").write_text('{"name": "pair", "generator_degrees": [3, 7]}', encoding="utf-8")
    report = run_suite(resolve_model("pair"), 20, 9, ["bv-identity"], ops="delta-sign-flip")[0]
    line = report.to_json()
    assert report.failed() and json.loads(line)["generator_degrees"] == [3, 7]
    (tmp_path / "pair").write_text('{"name": "pair", "generator_degrees": [3, 5]}', encoding="utf-8")
    loaded = CheckReport.from_json(line)
    assert replay(loaded).to_json() == line
    # a line written before reports stored degrees loads, and replays in its own
    # form against the file as it is now, which no longer gives its witness
    data = json.loads(line)
    del data["generator_degrees"]
    old = CheckReport.from_json(json.dumps(data))
    again = replay(old)
    assert old.generator_degrees is None and again.generator_degrees is None
    assert again.failed() and again.witness != old.witness
    # such a line resolves its name, and a file there may hold a model of another name
    (tmp_path / "pair").write_text('{"name": "other", "generator_degrees": [3, 5]}', encoding="utf-8")
    with pytest.raises(AlgebraError) as info:
        replay(old)
    assert str(info.value) == "model mismatch: report is for 'pair', which resolves to model 'other'"


def test_builtin_model_reports_store_no_degrees():
    for report in run_suite(SU3, 3, 1, ["bv-identity", "loop-unit"]):
        assert report.generator_degrees is None
        assert "generator_degrees" not in json.loads(report.to_json())
    # a model under a built-in name with other degrees is not that built-in
    odd = run_suite(ModelSpec("su3", (3, 7)), 3, 1, ["loop-unit"])[0]
    assert odd.generator_degrees == [3, 7] and replay(odd) == odd


# -- report serialization ---------------------------------------------------------


def test_report_json_round_trip():
    reports = run_suite(S3, 10, 3, selection=["bv-identity", "ext-unit"])
    for report in reports:
        line = report.to_json()
        data = json.loads(line)
        assert set(data) >= {"identity", "model", "trials", "seed", "status"}
        assert CheckReport.from_json(line) == report
    failed = [r for r in run_suite(S3, 20, 3, ops="bracket-sign-flip") if r.failed()]
    line = failed[0].to_json()
    assert CheckReport.from_json(line) == failed[0]
    assert json.loads(line)["witness"]["trial"] == failed[0].witness["trial"]
    data = json.loads(reports[0].to_json())
    assert "witness" not in data
    assert CheckReport.from_json(json.dumps(dict(data, extra=1))) == reports[0]
    for optional in ("ops", "catalog"):
        assert CheckReport.from_json(json.dumps({k: x for k, x in data.items() if k != optional})) == reports[0]
    with pytest.raises(AlgebraError) as info:
        CheckReport.from_json(json.dumps({k: x for k, x in data.items() if k != "seed"}))
    assert str(info.value) == "check report: missing field 'seed'"


def _report_line(**fields):
    return json.dumps(dict({"identity": "bv-identity", "model": "s3", "trials": 1, "seed": 1, "status": "pass"}, **fields))


@pytest.mark.parametrize(
    "line, read",
    [("[1]", "[1]"), ('"x"', "'x'"), ("null", "None"), ("3", "3")]
    # a line that is not JSON, and objects whose fields have the wrong type; `read` is the whole message
    + [
        pytest.param(line, message, id=ident)
        for ident, line, message in [
            ("not-json", "not json", "check report JSON is unreadable: Expecting value: line 1 column 1 (char 0)"),
            ("identity-list", _report_line(identity=[1]), "check report: 'identity' must be a string, got [1]"),
            ("model-int", _report_line(model=3), "check report: 'model' must be a string, got 3"),
            ("ops-list", _report_line(ops=[1]), "check report: 'ops' must be a string, got [1]"),
            (
                "generator-degrees-int", _report_line(generator_degrees=5),
                "check report: 'generator_degrees' must be a list or null, got 5",
            ),
            ("status-int", _report_line(status=5), 'check report: \'status\' must be "pass" or "fail", got 5'),
            ("status-other", _report_line(status="ok"), 'check report: \'status\' must be "pass" or "fail", got \'ok\''),
            ("status-list", _report_line(status=["pass"]),
             'check report: \'status\' must be "pass" or "fail", got [\'pass\']'),
            ("witness-int", _report_line(witness=3), "check report: 'witness' must be an object or null, got 3"),
            ("witness-list", _report_line(witness=[1]), "check report: 'witness' must be an object or null, got [1]"),
            ("trials-str", _report_line(trials="x"), "check report: 'trials' must be an integer, got 'x'"),
            ("trials-bool", _report_line(trials=True), "check report: 'trials' must be an integer, got True"),
            ("trials-float", _report_line(trials=2.0), "check report: 'trials' must be an integer, got 2.0"),
            ("catalog-int", _report_line(catalog=5), "check report: 'catalog' must be a string, got 5"),
            ("catalog-null", _report_line(catalog=None), "check report: 'catalog' must be a string, got None"),
        ]
    ],
)
def test_a_report_line_that_is_not_an_object_is_refused(line, read):
    with pytest.raises(AlgebraError) as info:
        CheckReport.from_json(line)
    if read.startswith("check report"):
        assert str(info.value) == read
    else:
        assert str(info.value) == "check report JSON must be an object, got %s" % read


# -- mutation detection ------------------------------------------------------------


def test_registry_contains_five_delta_bracket_mutations():
    assert len(DELTA_BRACKET_MUTATIONS) == 5
    registry = mutations()
    for name in DELTA_BRACKET_MUTATIONS:
        assert name in registry


@pytest.mark.parametrize("name", sorted(MUTATION_BREAKS))
def test_each_bundle_is_the_standard_bundle_plus_its_row(name):
    bundle = mutations()[name]
    assert list(mutations()) == list(MUTATION_BREAKS)
    assert bundle.name == name
    breaks = MUTATION_BREAKS[name]
    slots = [f.name for f in fields(BVOps) if f.name != "name"]
    assert breaks and set(breaks) <= set(slots)
    for slot in slots:
        if slot in breaks:
            assert getattr(bundle, slot) is breaks[slot]
            assert getattr(bundle, slot) is not getattr(STANDARD_OPS, slot)
        else:
            assert getattr(bundle, slot) is getattr(STANDARD_OPS, slot)


def _mixed_loop(model, tag, trial):
    """A loop class with terms of both parities: the sum of two draws."""
    d = model.dimension
    rng = random.Random("mixed|%s|%s|%d" % (model.name, tag, trial))
    return sum(
        (random_element(model, Ring.LOOP, (-d - 2, 2 * d), 2, rng, even_cap=4) for _ in range(2)),
        Element.zero(model, Ring.LOOP),
    )


@pytest.mark.parametrize("name", ["s3", "su3", "exterior:3,5,7"])
def test_mutations_that_keep_the_standard_bracket_and_cap(name):
    """`delta-exterior-term` adds the odd derivation d/da_1 to Delta, which the
    bracket it induces and the eq. 5.2 cap through that bracket do not see: the
    BV-identity bracket is linear in Delta, so Delta + d/da_1 induces the
    standard bracket exactly when d/da_1 satisfies the odd Leibniz rule.
    `bracket-drop-term` is the BV-identity bracket without its -b*Delta(c)."""
    model = resolve_model(name)
    exterior_delta = mutations()["delta-exterior-term"].delta
    drop_term = mutations()["bracket-drop-term"].bracket

    def old_drop_term(b, c):
        return sum(
            ((bv_delta(part * c) - bv_delta(part) * c).scale(sign_pow(deg))
             for deg, part in b.homogeneous_components().items()),
            Element.zero(b.model, Ring.LOOP),
        )

    parities, delta_moved, caps = set(), 0, 0
    for trial in range(30):
        b, c = _mixed_loop(model, "b", trial), _mixed_loop(model, "c", trial)
        rng = random.Random("mixed|%s|w|%d" % (name, trial))
        w = random_element(model, Ring.COH, (0, 2 * model.dimension), 2, rng, even_cap=3)
        parities.update(len(m.odds) % 2 for m in b.terms)
        assert exterior_delta(b) == bv_delta(b) + oracle.partial_odd(b, 1)
        delta_moved += exterior_delta(b) != bv_delta(b)
        assert oracle.bracket(b, c) == loop_bracket(b, c)
        for part in b.homogeneous_components().values():
            whole, left, right = _leibniz(lambda x: oracle.partial_odd(x, 1), 1, mul, 0, part, c)
            assert whole == left + right
        value = cap(w, b)
        caps += not value.is_zero()
        assert nested_brackets(w, b, loop_product, loop_bracket) == value
        assert old_drop_term(b, c) == loop_bracket(b, c) + b * bv_delta(c) == drop_term(b, c)
    assert parities == {0, 1} and delta_moved and caps


#: The break each Delta bundle is documented to make, stated through the
#: oracle's own Delta and partials, with no engine bracket.
DELTA_BREAKS = {
    "delta-drop-term": lambda b: oracle.delta(b) - oracle.partial_even(oracle.partial_odd(b, b.model.rank), b.model.rank),
    "delta-extra-term": lambda b: oracle.delta(b) + oracle.partial_even(b, 1),
    "delta-exterior-term": lambda b: oracle.delta(b) + oracle.partial_odd(b, 1),
}


@pytest.mark.parametrize("bundle", sorted(DELTA_BREAKS))
@pytest.mark.parametrize("name", ["s3", "su3", "exterior:3,5,7"])
def test_each_delta_bundle_equals_its_oracle_statement(name, bundle):
    model = resolve_model(name)
    broken = mutations()[bundle].delta
    rng = random.Random("delta-breaks|%s|%s" % (name, bundle))
    moved = 0
    for _ in range(40):
        b = _plan(ArgSpec("loop", 4), model)(rng)
        assert broken(b) == DELTA_BREAKS[bundle](b), b
        moved += broken(b) != oracle.delta(b)
    assert moved


@pytest.mark.parametrize("name", sorted(mutations()))
def test_every_mutation_is_detected_with_replayable_witness(name):
    reports = run_suite(SU3, 40, 99, ops=name)
    failed = [r for r in reports if r.failed()]
    assert failed, "mutation %s was not detected" % name
    report = failed[0]
    witness = report.witness
    assert witness is not None and "trial" in witness and witness["failing"]
    assert witness["minimized_failing"]
    assert replay(report) == report


def test_a_failing_trial_is_evaluated_once(monkeypatch):
    """The witness reuses the failing checks `run_suite` found, and the
    minimiser returns those of the arguments it keeps: one failing report
    calls `_failing_checks` once per trial run, and after that only from
    `_minimize_args`, once per smaller argument list the minimiser tries."""
    calls, depth, inside = [], [0], [0]
    failing_checks, minimize_args = verify._failing_checks, verify._minimize_args

    def counted(*args):
        calls.append(args)
        return failing_checks(*args)

    def minimizing(check, args, failing):
        # the minimiser recurses through this wrapper: count the calls made
        # during the outermost entry only, so each one is counted once
        before = len(calls)
        depth[0] += 1
        try:
            return minimize_args(check, args, failing)
        finally:
            depth[0] -= 1
            if not depth[0]:
                inside[0] += len(calls) - before

    monkeypatch.setattr(verify, "_failing_checks", counted)
    monkeypatch.setattr(verify, "_minimize_args", minimizing)
    (report,) = run_suite(SU3, 20, 42, ["ext-poisson"], ops="product-swap-unsigned")
    assert report.failed() and report.witness["trial"] == 17
    assert inside[0] > 0
    assert len(calls) - inside[0] == report.witness["trial"] + 1


NO_ARG_IDS = [ident for ident, case in CATALOG.items() if not case.args]


def test_every_row_that_draws_is_a_law():
    """A row's law is its labels: every row is compiled from its check labels by
    `_law`, 38 rows with 53 labels, except the five whose catalog entries give the
    reason for their own `evaluate`, and no hand-written law of a compiled row is left."""
    compiled = verify._law("loop", (ArgSpec("loop"),), "b = b").__qualname__
    assert compiled == "_law.<locals>.evaluate"
    own = [ident for ident, case in CATALOG.items() if case.evaluate.__qualname__ != compiled]
    assert own == [
        "model-structure", "operator-commutator-product", "operator-commutator-bracket",
        "eq-5.2-nested-brackets", "loop-intersection-formula",
    ]
    assert NO_ARG_IDS == ["model-structure"]
    rng = report_rng(42, "labels")
    labels = [
        label
        for ident, case in CATALOG.items() if ident not in own
        for label, _, _ in case.evaluate(STANDARD_OPS, SU3, [_plan(spec, SU3)(rng) for spec in case.args])
    ]
    assert len(CATALOG) - len(own) == 38 and len(labels) == 53
    deleted = [
        "_View", "_loop_view", "_coh_view", "_ext_view", "_commutativity", "_associativity", "_unit",
        "_antisymmetry", "_bv_identity", "_bracket_by", "_cap_by_delta", "_derivation", "_poisson", "_jacobi",
        "_poisson_product_first", "_square_zero", "_curious", "_delta_constant", "_s_star_ring_map",
        "_dual_multiplicative", "_cap_commutes", "_delta_cap_derivation", "_cap_constant_trivial", "_cap_module",
        "_cap_is_intersection", "_intertwiner", "_mixed_conventions",
    ]
    assert [name for name in deleted if hasattr(verify, name)] == []


def test_model_structure_draws_nothing():
    assert "model-structure" in NO_ARG_IDS


@pytest.mark.parametrize("ident", NO_ARG_IDS)
def test_a_row_that_draws_nothing_is_evaluated_once_per_report(ident, monkeypatch):
    """Every trial of a row with no arguments checks the same classes, so a
    report evaluates it once and still records the trial count asked for."""
    calls = []
    case = CATALOG[ident]

    def counted(*args):
        calls.append(args)
        return case.evaluate(*args)

    monkeypatch.setitem(CATALOG, ident, replace(case, evaluate=counted))
    (report,) = run_suite(resolve_model("su7"), 50, 42, [ident])
    assert len(calls) == 1
    assert report.status == "pass" and report.trials == 50
    assert replay(report) == report

    del calls[:]
    (report,) = run_suite(SU3, 50, 42, [ident], ops="delta-sign-flip")
    assert len(calls) == 1
    assert report.failed() and report.trials == 50 and report.witness["trial"] == 0
    assert report.witness["minimized_failing"] == report.witness["failing"]
    assert replay(report) == report


@pytest.mark.parametrize("name", ["s3", "s5", "su3", "exterior:3,5,7", "su7"])
def test_trial_t_makes_the_t_th_draws_of_the_report_stream(name, monkeypatch):
    """`run_suite` plans a row's draws and seeds one generator once per report;
    the arguments trial t evaluates must be the t-th draws of the row's plans,
    `_plan(spec, model)`, from `report_rng(seed, identity)`, and no trial may
    seed a generator of its own."""
    model = resolve_model(name)
    evaluated, seeded, seeded_by_trial = [], [], []
    failing_checks = verify._failing_checks
    row_of = {case.evaluate: ident for ident, case in CATALOG.items()}
    generator = random.Random

    def counted(*args):
        seeded.append(args)
        return generator(*args)

    def recorded(check, args):
        assert check.args == (STANDARD_OPS, model)
        evaluated.append((row_of[check.func], [str(x) for x in args]))
        seeded_by_trial.append((row_of[check.func], len(seeded)))
        return failing_checks(check, args)

    monkeypatch.setattr(verify, "_failing_checks", recorded)
    with monkeypatch.context() as scope:
        scope.setattr(random, "Random", counted)
        reports = run_suite(model, 5, 42)
    assert all(r.status == "pass" for r in reports)
    assert 0 < len(seeded) <= len(reports) == len(CATALOG)
    # the generator count is the same on every trial of a report
    assert len(set(seeded_by_trial)) == len(CATALOG)
    expected = []
    for ident, case in CATALOG.items():
        rng = report_rng(42, ident)
        for trial in range(5 if case.args else 1):
            expected.append((ident, [str(_plan(spec, model)(rng)) for spec in case.args]))
    assert evaluated == expected


def test_witness_minimization_shrinks_or_keeps_arguments():
    failed = [r for r in run_suite(SU3, 40, 5, ops="bracket-drop-term") if r.failed()]
    assert failed
    for report in failed:
        witness = report.witness
        assert len(witness["minimized_args"]) == len(witness["args"])


def test_witness_minimization_drops_terms_of_an_intersection_family(monkeypatch):
    """A broken loop_intersection makes the catalog's intersection check fail;
    the minimizer then drops terms from inside the (at, free, family) draw."""
    original = verify.loop_intersection

    def broken(ats, frees, family, *, ops=STANDARD_OPS):
        value = original(ats, frees, family, ops=ops)
        return -value if frees else value

    monkeypatch.setattr(verify, "loop_intersection", broken)
    runs = [run_suite(SU3, 30, 5, ["loop-intersection-formula"], ops=STANDARD_OPS) for _ in range(2)]
    assert reports_to_jsonl(runs[0]) == reports_to_jsonl(runs[1])
    (report,) = runs[0]
    assert report.failed() and report.ops == "standard"
    witness = report.witness
    drawn, minimized = (evaluate(args[0].split("family=")[1], SU3)
                        for args in (witness["args"], witness["minimized_args"]))
    assert 0 < len(minimized.terms) < len(drawn.terms)


@pytest.mark.parametrize("name", ["s3", "su3", "exterior:3,5,7", "su5"])
def test_base_draws_are_exterior_cohomology_classes(name):
    """Base classes are cohomology classes with no v factors, whichever draw made them."""
    model = resolve_model(name)
    kinds = ("base", "ext", "intersect-config")
    specs = {spec for case in CATALOG.values() for spec in case.args if spec.kind in kinds}
    drawn = nonzero = 0
    for spec in sorted(specs, key=repr):
        for trial in range(40):
            value = _plan(spec, model)(random.Random("base|%s|%r|%d" % (name, spec, trial)))
            if spec.kind == "ext":
                bases = [value.coh]
            elif spec.kind == "intersect-config":
                bases = value[0] + value[1]
            else:
                bases = [value]
            for w in bases:
                assert to_base(w) is w, (spec, w)
                drawn += 1
                nonzero += bool(w)
    assert nonzero > drawn // 4


@pytest.mark.parametrize("kind", ["loop", "exterior", "base", "coh"])
def test_one_class_draws_honour_a_window(kind):
    """Each one-class kind draws inside the window its spec gives, default or not."""
    nonzero = 0
    for window in [(5, 5), (-5, -3), (3, 12), (14, 20)]:
        for trial in range(20):
            x = _plan(ArgSpec(kind, 2, window), SU3)(random.Random("window|%r|%d" % (window, trial)))
            assert x.is_zero() or window[0] <= x.degree() <= window[1], (kind, window, x)
            nonzero += not x.is_zero()
    assert nonzero >= 20
    if kind == "base":
        assert _plan(ArgSpec("base", 2, (5, 5)), SU3)(random.Random(1)).degree() == 5


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_element(SU3, Ring.LOOP, (5, 3), 2, 1),
        lambda: basis_index(SU3, Ring.LOOP, 6).degrees_in(5, 3),
        lambda: _plan(ArgSpec("loop", 2, (5, 3)), SU3),
    ],
    ids=["random_element", "degrees_in", "plan"],
)
def test_an_empty_window_is_refused_with_its_bounds(call):
    with pytest.raises(AlgebraError) as info:
        call()
    assert str(info.value) == "empty degree window (5, 3)"


def test_an_unknown_draw_kind_is_refused():
    with pytest.raises(AlgebraError) as refused:
        _plan(ArgSpec("nope"), SU3)
    assert str(refused.value) == "unknown draw kind 'nope'"


@pytest.mark.parametrize("kind", ["ext", "intersect-config"])
def test_composite_draws_refuse_a_window(kind):
    """`ext` and `intersect-config` draw each class in its own window, so a spec's window is refused."""
    with pytest.raises(AlgebraError, match=re.escape("%r draws take no window" % kind)):
        _plan(ArgSpec(kind, 2, (0, 3)), SU3)(random.Random(1))


@pytest.mark.parametrize("bad", [0, True, 1.5])
@pytest.mark.parametrize("kind", ["loop", "exterior", "base", "coh", "ext", "intersect-config"])
def test_every_draw_kind_refuses_a_bad_term_bound(kind, bad):
    """Every kind checks `max_terms`, `intersect-config` too, though its classes
    take their term bounds from its own plan."""
    with pytest.raises(AlgebraError, match="^max_terms must be "):
        _plan(ArgSpec(kind, bad), SU3)


@pytest.mark.parametrize("name", ["s3", "s5", "su3", "exterior:3,5,7"])
def test_trusted_extended_pairs_pass_the_checked_constructor(name, monkeypatch):
    """`ext` draws and `_ext_lift` build their pairs unchecked (`ExtendedClass._of`);
    every pair a catalog run builds that way must rebuild through the checked
    constructor into an equal class."""
    built = {"_draw_extended": [], "_ext_lift": []}

    def recorded(make):
        def wrapper(*args):
            x = make(*args)
            built[make.__name__].append(x)
            return x
        return wrapper

    for maker in built:
        monkeypatch.setattr(verify, maker, recorded(getattr(verify, maker)))
    model = resolve_model(name)
    for seed in range(8):
        assert not any(r.failed() for r in run_suite(model, 25, seed))
    for pairs in built.values():
        assert len(pairs) > 1000
        for x in pairs:
            assert ExtendedClass(x.coh, x.loop) == x, x


def test_minimiser_pairs_pass_the_checked_constructor(monkeypatch):
    """The witness minimiser drops one term of an `ext` argument into a trusted
    `ExtendedClass._of` pair; under every mutation bundle, each such pair must
    rebuild through the checked constructor into an equal class."""
    dropped = []
    drop = verify._drop_one_term

    def recorded(value):
        for smaller in drop(value):
            if isinstance(smaller, ExtendedClass):
                dropped.append(smaller)
            yield smaller

    monkeypatch.setattr(verify, "_drop_one_term", recorded)
    failed = [r for name in sorted(mutations()) for r in run_suite(SU3, 40, 5, ops=name) if r.failed()]
    assert len(failed) > 20
    assert len(dropped) > 50 and any(x.coh for x in dropped) and any(x.loop for x in dropped)
    for x in dropped:
        assert ExtendedClass(x.coh, x.loop) == x, x


# -- _leibniz against derivations known outside the catalog -----------------------


LEIBNIZ_MODELS = ["s3", "su3", "exterior:3,5,7"]


def _draw_pairs(name, kind, count=50):
    model = resolve_model(name)
    rng = random.Random("leibniz|%s|%s" % (name, kind))
    return model, [(_plan(ArgSpec(kind, 2), model)(rng), _plan(ArgSpec(kind, 2), model)(rng)) for _ in range(count)]


def _partial_a_failures(name, k):
    """How many (draw, i) cases break the Leibniz rule of d/da_i, given degree `k`, over the loop product."""
    model, pairs = _draw_pairs(name, "loop")
    failures = 0
    for y, z in pairs:
        for i in range(1, model.rank + 1):
            whole, left, right = _leibniz(lambda b: oracle.partial_odd(b, i), k, loop_product, 0, y, z)
            failures += whole != left + right
    return failures


@pytest.mark.parametrize("name", LEIBNIZ_MODELS)
def test_leibniz_holds_for_the_partial_derivatives(name):
    """d/da_i is an odd (k = 1) and d/du_i an even (k = 0) derivation of the loop product."""
    assert _partial_a_failures(name, 1) == 0
    model, pairs = _draw_pairs(name, "loop")
    nonzero = 0
    for y, z in pairs:
        for i in range(1, model.rank + 1):
            whole, left, right = _leibniz(lambda b: oracle.partial_even(b, i), 0, loop_product, 0, y, z)
            assert whole == left + right, (y, z, i)
            nonzero += not whole.is_zero()
    assert nonzero > 10


@pytest.mark.parametrize("name", LEIBNIZ_MODELS)
def test_leibniz_holds_for_coh_delta_over_the_cup_product(name):
    _, pairs = _draw_pairs(name, "coh")
    nonzero = 0
    for y, z in pairs:
        whole, left, right = _leibniz(coh_delta, 1, mul, 0, y, z)
        assert whole == left + right, (y, z)
        nonzero += not whole.is_zero()
    assert nonzero > 10


@pytest.mark.parametrize("name", LEIBNIZ_MODELS)
def test_leibniz_fails_for_partial_a_with_the_wrong_parity(name):
    """Declared even, d/da_i misses the sign of its odd y: the Leibniz check can fail."""
    assert _partial_a_failures(name, 0) > 0


# -- sensitivity: each identity check can actually fail ------------------------------


def _negation_detects(identity_id: str, trials: int = 200) -> bool:
    case = CATALOG[identity_id]
    rng = report_rng("sensitivity", identity_id)
    for _ in range(trials):
        args = [_plan(spec, SU3)(rng) for spec in case.args]
        checks = case.evaluate(STANDARD_OPS, SU3, list(args))
        for _, lhs, rhs in checks:
            negated = -rhs
            if lhs != negated:
                return True
    return False


@pytest.mark.parametrize("identity_id", EXPECTED_IDS)
def test_each_identity_has_a_detectable_mutant(identity_id):
    if identity_id in ZERO_SIDED:
        reports = run_suite(SU3, 80, 11, selection=[identity_id], ops=ZERO_SIDED[identity_id])
        assert reports[0].failed(), "op mutation did not break %s" % identity_id
        assert replay(reports[0]) == reports[0]
    else:
        assert _negation_detects(identity_id), (
            "negating one side of %s never fails; the check is vacuous" % identity_id
        )


_NESTED_BRACKET_DETECTORS = {"bracket-drop-term", "bracket-sign-flip", "cap-sign-flip", "product-sign-flip"}


@pytest.mark.parametrize("name, detectors", [
    ("su3", _NESTED_BRACKET_DETECTORS | {"product-swap-unsigned"}),
    ("exterior:3,5,7", _NESTED_BRACKET_DETECTORS | {"product-swap-unsigned"}),
])
def test_the_bundles_the_nested_bracket_row_detects(name, detectors):
    """Pin, at 20 trials and seed 42, which bundles fail `eq-5.2-nested-brackets`:
    its two expansions run through the bundle's product and bracket."""
    model = resolve_model(name)
    failing = {ops for ops in MUTATION_BREAKS
               if run_suite(model, 20, 42, ["eq-5.2-nested-brackets"], ops=ops)[0].failed()}
    assert failing == detectors
    assert not run_suite(model, 20, 42, ["eq-5.2-nested-brackets"])[0].failed()


def _sides(view, kinds, label, *args):
    """The two sides of one label compiled in `view`, on `args` drawn as `kinds`."""
    specs = tuple(map(ArgSpec, kinds.split()))
    ((printed, lhs, rhs),) = verify._law(view, specs, label)(STANDARD_OPS, SU3, list(args))
    assert printed == label
    return lhs, rhs


#: sha256 of the source of every `_law` row, each after a ``# <id>`` line, in catalog order
LAW_SOURCES_DIGEST = "f90804c62609e4ec4dab71b241c5c9e35ac7ef347679fcf7f5f247c2d2a8eb21"


def test_the_compiled_law_sources_are_pinned():
    """The text of the 38 compiled laws, read from each `evaluate` closure's ``source`` cell: a
    change to the label reader or the compiler that changes any law's source shows up here."""
    sources = []
    for ident, case in CATALOG.items():
        evaluate_law = case.evaluate
        if evaluate_law.__qualname__ == "_law.<locals>.evaluate":
            cell = evaluate_law.__closure__[evaluate_law.__code__.co_freevars.index("source")]
            sources.append("# %s\n%s" % (ident, cell.cell_contents))
    text = "\n".join(sources)
    assert (len(sources), len(text)) == (38, 15373)
    assert hashlib.sha256(text.encode()).hexdigest() == LAW_SOURCES_DIGEST


def test_each_view_reads_its_notation():
    """The names of each view: `D` is the dual in the loop view and Delta in the ext
    view, `Dalpha` is `coh_delta(alpha)`, 0 and 1 are the view's own, a pair reads its
    slot in the ext view, like the rest of its label, and lifts it, and a class summed with
    a pair is lifted."""
    rng = report_rng(42, "notation")
    al, b, c = (_plan(ArgSpec(kind), SU3)(rng) for kind in ("base", "loop", "loop"))
    x = _plan(ArgSpec("exterior"), SU3)(rng)
    w = _plan(ArgSpec("coh"), SU3)(rng)
    lift = verify._ext_lift
    assert _sides("loop", "loop loop", "{b,c} = b*c", b, c) == (loop_bracket(b, c), b * c)
    assert _sides("loop", "loop", "Delta(b) = 1", b) == (bv_delta(b), Element.unit(SU3, Ring.LOOP))
    assert _sides("loop", "exterior", "D(x) = Dinv(D(x))", x) == (poincare_dual(x), x)
    assert _sides("loop", "base loop", "Dalpha cap b = 0", al, b) == (
        cap(coh_delta(al), b), Element.zero(SU3, Ring.LOOP))
    assert _sides("coh", "coh loop", "w cup 1 = 1 cap b", w, b) == (w, cap(Element.unit(SU3, Ring.COH), b))
    assert _sides("ext", "loop loop", "D(b) = b.c", b, c) == (
        ExtendedClass(Element.zero(SU3, Ring.COH), bv_delta(b)), extended_product(lift(b), lift(c)))
    assert _sides("ext", "base loop", "(0,{Dinv(alpha),b}) = {alpha,b}", al, b) == (
        lift(loop_bracket(poincare_dual_inverse(al), b)), extended_bracket(lift(al), lift(b)))
    assert _sides("ext", "base loop", "(alpha cup 1,0) = alpha cap b", al, b) == (lift(al), lift(cap(al, b)))
    assert _sides("ext", "base loop", "(alpha,0) + alpha cap b = alpha.b", al, b) == (
        lift(al) + lift(cap(al, b)), extended_product(lift(al), lift(b)))
    assert _sides("ext", "", "(1,0) = 1 + 0") == (ExtendedClass.unit(SU3),) * 2
    looped = evaluate("a1*u1^2", SU3)  # a u factor: no Poincare dual, and a nonzero Delta
    assert _sides("ext", "loop", "(0,D(b)) = D(b)", looped) == (lift(bv_delta(looped)),) * 2


@pytest.mark.parametrize("ident, view, wrong", [
    ("loop-commutativity", "loop", "b*c = -(-1)^{|b||c|} c*b"),
    ("eq-4.4-coh-delta-derivation", "coh", "coh_delta(x cup y) = coh_delta(x) cup y - (-1)^{|x|} x cup coh_delta(y)"),
    ("ext-poisson", "ext", "{x,y.z} = {x,y}.z + (-1)^{|y||x|} y.{x,z}"),
])
def test_a_label_is_evaluated_not_only_printed(ident, view, wrong, monkeypatch):
    """A wrong-sign copy of a catalog label fails on seeded draws where the catalog's label
    passes, and its witness prints the label that was checked."""
    case = CATALOG[ident]
    assert not run_suite(SU3, 20, 42, [ident])[0].failed()
    monkeypatch.setitem(CATALOG, ident, replace(case, evaluate=verify._law(view, case.args, wrong)))
    (report,) = run_suite(SU3, 20, 42, [ident])
    assert report.failed()
    assert {check["check"] for check in report.witness["failing"]} == {wrong}


@pytest.mark.parametrize("view, kinds, labels, message", [
    ("coh", "coh", ["D(x) = x"], "'D' is not a name of the coh view"),
    ("loop", "loop loop", ["{b,c = b"], "expected '}', found '='"),
    ("loop", "loop loop loop", ["b*c = c*b"], "name 2 arguments, and the row draws 3"),
    ("loop", "loop", ["1*b = b", "b*c = c*b"], "names more arguments than the row draws (1)"),
    ("loop", "loop", ["... = b"], "expected a class, found '...'"),
    ("loop", "loop", ["b = (-1)^{|b|+} b"], "expected a degree, found '}'"),
    ("loop", "loop", ["Delta = b"], "'Delta' is not a class"),
    ("loop", "loop", ["b = (0,b)"], "expected a class, found a tuple: only the ext view reads one"),
    ("loop", "loop", ["b = b b"], "expected the end, found 'b'"),
    ("ext", "base", ["(alpha,0 = alpha"], "expected ')', found '='"),
    ("loop", "loop", ["b = " + "(" * 3000 + "b" + ")" * 3000], "1:105: expression nests deeper than 100 levels"),
])
def test_a_malformed_label_is_refused_when_its_row_is_built(view, kinds, labels, message):
    with pytest.raises(AlgebraError, match=re.escape(message)) as refused:
        verify._row("malformed", "a malformed row", view, kinds, *labels)
    assert repr(labels[-1]) in str(refused.value)
