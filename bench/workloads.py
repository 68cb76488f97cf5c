"""The four benchmark workloads: one closed-loop, single-threaded caller each.

A workload resolves its models and warms the engine in `setup` (timed as
`setup_s`), then runs passes.  A pass is the seeded sequence of operations
of the run; every pass of a run repeats the same operations in the same
order.  `run_pass` times each operation, checks every output outside the
timed region and returns a `Pass`.  Engine calls go through module
attributes (`verify.run_suite`, `expr.parse`, `cli.main`, ...) so the
traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter

from loopbv import cli, expr, models, verify
from loopbv.kernel import Element, Monomial, Ring

import oracle

DIGESTS = Path(__file__).with_name("table_digests.json")
ACCEPTANCE_MODELS = ("s3", "s5", "su3", "exterior:3,5,7")
HIGH_RANK_MODELS = ("su7", "su8")
SESSION_MODELS = ("su3", "exterior:3,5,7")


@dataclass
class Pass:
    latencies: array  # seconds per timed operation, in the same order every pass
    busy: array  # seconds per engine call, in the same order every pass
    ops: int  # operations attempted
    failed: int


def _timed_pass(latencies: array, failed: int) -> Pass:
    """A pass in which every operation is one engine call."""
    return Pass(latencies, latencies, len(latencies), failed)


def _report_failure(what: str, detail: str = ""):
    print("FAILED %s %s" % (what, detail), file=sys.stderr)


class CheckWorkload:
    """One `run_suite` call per (model, identity) pair: what `check --only ID` does.

    A pass visits every pair of the full catalog `draws` times, each time
    with another run_suite seed derived from the benchmark seed, in seeded
    order.
    """

    def __init__(self, model_names, trials: int, draws: int, tail_pct: float, passes: int):
        self.model_names = model_names
        self.trials = trials
        self.draws = draws
        self.tail_pct = tail_pct
        self.passes = passes

    def setup(self):
        self.models = [models.resolve_model(name) for name in self.model_names]
        for model in self.models:
            verify.run_suite(model, 1, "warm-up")

    def run_pass(self, seed: int, tracer) -> Pass:
        calls = [(model, ident, "%d/%d" % (seed, draw)) for draw in range(self.draws)
                 for model in self.models for ident in verify.CATALOG]
        random.Random("check|%d" % seed).shuffle(calls)
        latencies, failed = array("d"), 0
        for model, ident, suite_seed in calls:
            tracer.op += 1
            start = perf_counter()
            try:
                (report,) = verify.run_suite(model, self.trials, suite_seed, [ident])
                ok = report.status == "pass"
            except Exception:
                traceback.print_exc()
                ok = False
            latencies.append(perf_counter() - start)
            if not ok:
                failed += 1
                _report_failure("check", "%s %s seed %s" % (model.name, ident, suite_seed))
        return _timed_pass(latencies, failed)


# (model, op, max-degree, max-exp) for `loopbv table`; each entry is one line
TABLES = (
    ("su3", "delta", 12, 6),
    ("su3", "bracket", 8, 3),
    ("su3", "cap", 10, 3),
    ("exterior:3,5,7", "delta", 16, 5),
    ("exterior:3,5,7", "bracket", 6, 2),
    ("exterior:3,5,7", "cap", 10, 3),
)
ORACLE_SAMPLE = 150  # table entries per configuration checked against the oracle


class _LineSink:
    """Stand-in stdout that time-stamps every completed line."""

    def __init__(self, tracer):
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.tracer = tracer

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(perf_counter())
            self.tracer.op += 1
        return len(text)

    def flush(self):
        pass


def table_argv(config) -> list[str]:
    model, op, max_degree, max_exp = config
    return ["table", "--model", model, "--op", op,
            "--max-degree", str(max_degree), "--max-exp", str(max_exp)]


class TableWorkload:
    """`loopbv table` over basis monomials, driven through `cli.main`.

    Per-entry latency is the time between consecutive line writes, so the
    first line of a table, which also pays for argument parsing and basis
    construction, counts towards throughput but not towards the latency
    percentiles.  The seed orders the tables in each pass and picks the
    entries the oracle checks.
    """

    tail_pct = 99.8
    passes = 16

    def setup(self):
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.checked: set = set()
        for model, max_exp in sorted({(c[0], c[3]) for c in TABLES}):
            models.resolve_model(model)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(table_argv((model, "cap", 0, max_exp)))

    def run_pass(self, seed: int, tracer) -> Pass:
        configs = list(TABLES)
        random.Random("table|%d" % seed).shuffle(configs)
        result = Pass(array("d"), array("d"), 0, 0)
        for config in configs:
            sink = _LineSink(tracer)
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(table_argv(config))
            except Exception:
                traceback.print_exc()
                code = None  # fails the check, so every line of the table counts as failed
            result.busy.append(perf_counter() - start)
            ops = max(len(sink.stamps), 1)  # a table that printed nothing was attempted
            result.ops += ops
            for previous, stamp in zip(sink.stamps, sink.stamps[1:]):
                result.latencies.append(stamp - previous)
            with tracer.paused():
                result.failed += min(len(self._check(config, "".join(sink.parts), code, seed)), ops)
        return result

    def _check(self, config, output: str, code: int, seed: int) -> set[int]:
        """Indices of the lines of one table that fail a check."""
        lines = output.splitlines()
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        bad = set()
        if code != 0 or digest != self.digests[" ".join(table_argv(config))]:
            bad = set(range(max(len(lines), 1)))  # no line can be trusted
            _report_failure("table", "%s: exit %s, digest %s" % (config, code, digest))
        if config not in self.checked:
            self.checked.add(config)
            bad |= _oracle_check_table(config, lines, seed)
        return bad


def _oracle_check_table(config, lines: list[str], seed: int) -> set[int]:
    """Indices of sampled table lines that disagree with the oracle."""
    model_name, op, max_degree, max_exp = config
    model = models.resolve_model(model_name)
    loops = oracle.basis(model, Ring.LOOP, max_degree, max_exp)
    if op == "delta":
        entries = [(b,) for b in loops]
    elif op == "bracket":
        entries = [(b, c) for b in loops for c in loops]
    else:
        entries = [(w, b) for w in oracle.basis(model, Ring.COH, max_degree, max_exp) for b in loops]
    if len(entries) != len(lines):
        _report_failure("table", "%s: %d lines, oracle expects %d" % (config, len(lines), len(entries)))
        return set(range(max(len(lines), len(entries))))
    rng = random.Random("table-oracle|%d|%s" % (seed, " ".join(table_argv(config))))
    bad = set()
    for i in rng.sample(range(len(entries)), min(ORACLE_SAMPLE, len(entries))):
        args = entries[i]
        if op == "delta":
            want = "Delta(%s) = %s" % (args[0], oracle.delta(args[0]))
        elif op == "bracket":
            want = "bracket(%s, %s) = %s" % (args[0], args[1], oracle.bracket(*args))
        else:
            want = "cap(%s, %s) = %s" % (args[0], args[1], oracle.cap(*args))
        if lines[i] != want:
            bad.add(i)
            _report_failure("table oracle", "%s line %d: %r != %r" % (config, i, lines[i], want))
    return bad


# ---------------------------------------------------------------------------
# eval-session: a seeded stream of well-typed expressions


class _ExprGen:
    """Random well-typed expression text together with its oracle value.

    Types: "L" loop homology, "C" cohomology, "E" loop classes without u
    (the exterior subring), "B" base cohomology classes, kept homogeneous so
    they can stand at free times in `intersect`.
    """

    def __init__(self, model, rng: random.Random):
        self.model = model
        self.rng = rng
        self.r = model.rank

    def _mono(self, ring, odds=(), exps=None, coeff=1) -> Element:
        exps = exps or (0,) * self.r
        return Element(self.model, ring, {Monomial(tuple(odds), tuple(exps)): Fraction(coeff)})

    def _exps(self, i, k):
        return tuple(k if j == i else 0 for j in range(1, self.r + 1))

    def leaf(self, kind):
        rng, i, j = self.rng, self.rng.randint(1, self.r), self.rng.randint(1, self.r)
        k = rng.randint(1, 3)
        if kind in ("E", "B"):
            name, ring = ("a", Ring.LOOP) if kind == "E" else ("alpha", Ring.COH)
            if i == j or rng.random() < 0.5:
                return "%s%d" % (name, i), self._mono(ring, (i,))
            lo, hi = sorted((i, j))
            return "%s%d*%s%d" % (name, lo, name, hi), self._mono(ring, (lo, hi))
        odd, even, ring = ("a", "u", Ring.LOOP) if kind == "L" else ("alpha", "v", Ring.COH)
        roll = rng.random()
        if roll < 0.3:
            return "%s%d" % (odd, i), self._mono(ring, (i,))
        if roll < 0.6:
            return "%s%d^%d" % (even, j, k), self._mono(ring, (), self._exps(j, k))
        q = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return ("%s*%s%d*%s%d^%d" % (q, odd, i, even, j, k),
                self._mono(ring, (i,), self._exps(j, k), q))

    def gen(self, kind, depth):
        if depth == 0:
            return self.leaf(kind)
        rng, d = self.rng, depth - 1
        roll = rng.random()
        if kind == "L":
            if roll < 0.25:
                (x, vx), (y, vy) = self.gen("L", d), self.gen("L", rng.randint(0, d))
                return "bracket(%s, %s)" % (x, y), oracle.bracket(vx, vy)
            if roll < 0.40:
                x, vx = self.gen("L", d)
                return "Delta(%s)" % x, oracle.delta(vx)
            if roll < 0.60:
                (w, vw), (x, vx) = self.gen("C", rng.randint(0, d)), self.gen("L", d)
                return "cap(%s, %s)" % (w, x), oracle.cap(vw, vx)
            if roll < 0.72:
                (x, vx), (y, vy) = self.gen("L", d), self.gen("L", 0)
                return "product(%s, %s)" % (x, y), vx * vy
            if roll < 0.80:
                x, vx = self.gen("B", d)
                return "Dinv(%s)" % x, Element(self.model, Ring.LOOP, vx.terms)
            if roll < 0.88:
                (x, vx), (y, vy) = self.gen("L", d), self.gen("L", 0)
                return "%s + %s" % (x, y), vx + vy
            return self.intersect(d)
        if kind == "C":
            if roll < 0.35:
                x, vx = self.gen("C", d)
                return "Delta(%s)" % x, oracle.coh_delta(vx)
            if roll < 0.65:
                (x, vx), (y, vy) = self.gen("C", d), self.gen("C", 0)
                return "product(%s, %s)" % (x, y), vx * vy
            if roll < 0.85:
                x, vx = self.gen("E", d)
                return "D(%s)" % x, Element(self.model, Ring.COH, vx.terms)
            (x, vx), (y, vy) = self.gen("C", d), self.gen("C", 0)
            return "%s - %s" % (x, y), vx - vy
        if kind == "E":
            if roll < 0.5:
                x, vx = self.gen("B", d)
                return "Dinv(%s)" % x, Element(self.model, Ring.LOOP, vx.terms)
            x, vx = self.gen("E", d)
            return "s(%s)" % x, vx
        x, vx = self.gen("E", d)  # "B"
        return "D(%s)" % x, Element(self.model, Ring.COH, vx.terms)

    def intersect(self, d):
        rng = self.rng
        ats = [self.gen("B", rng.randint(0, d)) for _ in range(rng.randint(0, 2))]
        frees = [self.gen("B", rng.randint(0, d)) for _ in range(rng.randint(0, 2))]
        family, family_value = self.gen("L", d)
        omega = Element.unit(self.model, Ring.COH)
        for _, w in ats:
            omega = omega * w
        sign_exp = -len(frees)
        for pos, (_, w) in enumerate(frees, start=1):
            if w.is_zero():
                omega = Element.zero(self.model, Ring.COH)
                break
            sign_exp += pos * w.degree()
            omega = omega * oracle.coh_delta(w)
        text = "intersect([%s], [%s], %s)" % (
            ", ".join(t for t, _ in ats), ", ".join(t for t, _ in frees), family)
        return text, oracle.cap(omega, family_value).scale(-1 if sign_exp % 2 else 1)

    def closed_form(self):
        """A family with a textbook value: (text, [formula value, oracle value])."""
        rng, i = self.rng, self.rng.randint(1, self.r)
        k = rng.randint(1, 6)
        u = lambda n, q=1: self._mono(Ring.LOOP, (), self._exps(i, n), q)
        a_i = self._mono(Ring.LOOP, (i,))
        family = rng.randrange(3)
        if family == 0:  # {a_i, u_i^k} = -k u_i^(k-1)
            return "bracket(a%d, u%d^%d)" % (i, i, k), [u(k - 1, -k), oracle.bracket(a_i, u(k))]
        if family == 1:  # Delta(a_i u_i^k) = k u_i^(k-1)
            return "Delta(a%d*u%d^%d)" % (i, i, k), [u(k - 1, k), oracle.delta(a_i * u(k))]
        j = rng.randint(1, k)  # cap(v_i^j, u_i^k) = k!/(k-j)! u_i^(k-j)
        v_ij = self._mono(Ring.COH, (), self._exps(i, j))
        return ("cap(v%d^%d, u%d^%d)" % (i, j, i, k),
                [u(k - j, factorial(k) // factorial(k - j)), oracle.cap(v_ij, u(k))])


POOL_SIZE = 2000  # expressions per pass


def expression_pool(seed: int, model_objs) -> list[tuple]:
    """(model, text, expected values) for every expression of the session."""
    rng = random.Random("eval|%d" % seed)
    pool = []
    for n in range(POOL_SIZE):
        model = model_objs[n % len(model_objs)]
        gen = _ExprGen(model, rng)
        if rng.random() < 0.2:
            text, expected = gen.closed_form()
        else:
            text, value = gen.gen("L" if rng.random() < 0.75 else "C", rng.randint(1, 4))
            expected = [value]
        pool.append((model, text, expected))
    return pool


class EvalWorkload:
    """parse -> evaluate -> describe_value per request, over a seeded pool.

    Each pass requests every pool expression once, in seeded order.  The
    first result of each expression is compared with the oracle value and
    round-tripped through render -> parse -> evaluate; later passes must
    render identically.
    """

    tail_pct = 99.5
    passes = 32

    def setup(self):
        self.models = [models.resolve_model(name) for name in SESSION_MODELS]
        for model in self.models:
            expr.describe_value(expr.evaluate(expr.parse("cap(v1, bracket(a1, u1^2))"), model))
        self.pool = None
        self.rendered: dict[int, tuple] = {}  # pool index -> first describe_value

    def run_pass(self, seed: int, tracer) -> Pass:
        if self.pool is None:
            with tracer.paused():
                self.pool = expression_pool(seed, self.models)
        order = list(range(len(self.pool)))
        random.Random("eval-order|%d" % seed).shuffle(order)
        latencies, results = array("d"), []
        for n in order:
            model, text, _ = self.pool[n]
            tracer.op += 1
            start = perf_counter()
            try:
                value = expr.evaluate(expr.parse(text), model)
                rendered = expr.describe_value(value)
            except Exception:
                traceback.print_exc()
                value = rendered = None
            latencies.append(perf_counter() - start)
            results.append((n, value, rendered))
        with tracer.paused():
            failed = sum(not self._check(n, value, rendered) for n, value, rendered in results)
        return _timed_pass(latencies, failed)

    def _check(self, n, value, rendered) -> bool:
        model, text, expected = self.pool[n]
        if rendered is None:
            _report_failure("eval", "%s raised" % text)
            return False
        if n in self.rendered:
            ok = self.rendered[n] == rendered
        else:
            self.rendered[n] = rendered
            again = expr.evaluate(expr.parse(rendered[0]), model)
            if isinstance(again, Fraction):  # "0", "1", "3/2": a multiple of the unit
                again = Element.unit(model, value.ring).scale(again)
            ok = all(value == want for want in expected) and again == value
        if not ok:
            _report_failure("eval", "%s on %s gave %s" % (text, model.name, rendered[0]))
        return ok


WORKLOADS = {
    "check-acceptance": lambda: CheckWorkload(ACCEPTANCE_MODELS, trials=10, draws=3, tail_pct=98.0, passes=8),
    "check-high-rank": lambda: CheckWorkload(HIGH_RANK_MODELS, trials=3, draws=6, tail_pct=98.0, passes=10),
    "table-basis": TableWorkload,
    "eval-session": EvalWorkload,
}
