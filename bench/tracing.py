"""Outside-in tracing of the loopbv layers for the benchmark's traced run.

`Tracer.install` replaces public names in the running process only: the
`Element` methods, the module-level functions that callers look up (in every
`loopbv` module that imported them), the `bracket=` of `cap`, the `ops=`
bundle handed to `run_suite` and the extended operations (a `BVOps` named
"standard", so reports stay byte-identical), and the `evaluate` field of the
`CATALOG` entries, which only counts informative checks.  Nothing under
`src/` changes.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
operation id) and written out by `dump` when the run ends.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from loopbv import cli, cohomology, expr, extended, kernel, loop, verify
from loopbv.kernel import Element


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.first_s = 0.0
        self._first_seen: set = set()
        self.op = 0  # id shared by every span of the current operation
        self.active = False
        self.wall_s = 0.0  # time spent active
        self._resumed_at = 0.0

    # -- recording ------------------------------------------------------

    def resume(self):
        self.active = True
        self._resumed_at = perf_counter()

    def pause(self):
        if self.active:
            self.wall_s += perf_counter() - self._resumed_at
        self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (output checks, input generation)."""
        was_active = self.active
        self.pause()
        try:
            yield
        finally:
            if was_active:
                self.resume()

    def span(self, name: str, fn):
        """Wrap `fn` so that each active call records one span named `name`."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end

        return traced

    def count(self, key: str, amount: int = 1):
        if self.active:
            self.counts[key] += amount

    # -- installation ---------------------------------------------------

    def install(self):
        """Route every traced public name through this tracer (this process only)."""
        t = self
        orig_mul, orig_add = Element.__mul__, Element.__add__
        orig_init, orig_render = Element.__init__, Element.render

        def mul(x, y):
            if t.active and isinstance(y, Element):
                t.counts["kernel.mul.term_pairs"] += len(x.terms) * len(y.terms)
            return orig_mul(x, y)

        def init(self, *args, **kwargs):
            if t.active:
                t.counts["kernel.element_init.calls"] += 1
            orig_init(self, *args, **kwargs)

        Element.__mul__ = self.span("kernel.mul", mul)
        Element.__add__ = self.span("kernel.add", orig_add)
        Element.__init__ = init
        Element.render = self.span("kernel.render", orig_render)

        orig_random = kernel.random_element

        def random_element(model, ring, window, max_terms, seed, *, even_cap=kernel.DEFAULT_EVEN_CAP):
            key = (model, ring, even_cap)
            if key in t._first_seen or not t.active:
                return orig_random(model, ring, window, max_terms, seed, even_cap=even_cap)
            t._first_seen.add(key)
            start = perf_counter()
            try:
                return orig_random(model, ring, window, max_terms, seed, even_cap=even_cap)
            finally:
                t.first_s += perf_counter() - start

        delta = self.span("loop.bv_delta", loop.bv_delta)
        bracket = self.span("loop.loop_bracket", loop.loop_bracket)
        coh_delta = self.span("cohomology.coh_delta", cohomology.coh_delta)

        def counted_bracket(b, c):
            t.count("extended.cap.bracket_calls")
            return bracket(b, c)

        orig_cap = extended.cap

        def cap(omega, b, *, bracket=counted_bracket):
            return orig_cap(omega, b, bracket=bracket)

        cap = self.span("extended.cap", cap)
        bundle = dataclasses.replace(
            extended.STANDARD_OPS, product=loop.loop_product, delta=delta,
            bracket=bracket, cap=cap, coh_delta=coh_delta,
        )

        def with_ops(name, fn):
            def call(*args, ops=bundle, **kwargs):
                return fn(*args, ops=ops, **kwargs)
            return self.span(name, call)

        orig_run_suite = verify.run_suite

        def run_suite(model, trials, seed, selection=None, ops="standard"):
            if ops == "standard" or ops is extended.STANDARD_OPS:
                ops = bundle
            reports = orig_run_suite(model, trials, seed, selection, ops=ops)
            t.count("verify.trials", trials * len(reports))
            return reports

        replacements = {
            kernel.random_element: self.span("kernel.random_element", random_element),
            loop.bv_delta: delta,
            loop.loop_bracket: bracket,
            cohomology.coh_delta: coh_delta,
            extended.cap: cap,
            extended.extended_product: with_ops("extended.extended_product", extended.extended_product),
            extended.extended_bracket: with_ops("extended.extended_bracket", extended.extended_bracket),
            extended.loop_intersection: with_ops("extended.loop_intersection", extended.loop_intersection),
            verify.run_suite: self.span("verify.run_suite", run_suite),
            expr.parse: self.span("expr.parse", expr.parse),
            expr.evaluate: self.span("expr.evaluate", expr.evaluate),
            expr.describe_value: self.span("expr.describe_value", expr.describe_value),
            cli.main: self._cli_main(cli.main),
        }
        for module in [m for n, m in sys.modules.items() if n == "loopbv" or n.startswith("loopbv.")]:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replacements:
                    setattr(module, attr, replacements[value])

        for ident, case in list(verify.CATALOG.items()):
            verify.CATALOG[ident] = dataclasses.replace(case, evaluate=self._counting(case.evaluate))

    def _cli_main(self, main):
        spans = {}

        def traced_main(argv=None):
            command = argv[0] if argv else "main"
            if command not in spans:
                spans[command] = self.span("cli." + command, main)
            return spans[command](argv)

        return traced_main

    def _counting(self, evaluate):
        def counted(ops, model, args):
            checks = evaluate(ops, model, args)
            if self.active:
                for _label, lhs, rhs in checks:
                    self.counts["verify.checks"] += 1
                    if not (lhs.is_zero() and rhs.is_zero()):
                        self.counts["verify.informative_checks"] += 1
            return checks

        return counted

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.span_start)
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - covered[i]
        return calls, self_s

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.span_start)):
                handle.write(json.dumps([
                    i, self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i],
                ]))
                handle.write("\n")
