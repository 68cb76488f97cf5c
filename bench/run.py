"""Run one loopbv benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the engine from ./src.
A run repeats one seeded pass of operations.  With --trace 0 it runs the
workload's fixed number of passes, stopping early only if S seconds have
gone, and reports the end-to-end metrics.  With --trace 1 every public
entry point of the engine is wrapped (see tracing.py), the pass runs three
times so that counts repeat exactly, and the per-layer metrics are
reported; the spans are written to .bench_traces/.  Every output is
checked; the JSON line says how many operations were attempted and how
many failed.

Each operation's latency is its best over the repeats of the pass: on a
shared 2-vCPU VM, speed changes by up to 1.75x from one second to the
next, and per-operation best times repeat far better from run to run than
medians do (see bench/README.md).  The pass count is fixed so that the
best is taken over as many samples on a fast change as on a slow one.
Set-up time is likewise the best of several fresh interpreters, spread
over the run.
"""

import time

T0 = time.perf_counter()  # set-up time counts from the first statement

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 9  # fresh interpreters per run whose best set-up time is reported
TRACE_PASSES = 3
TAIL_MIN_BEYOND = 10

# spans whose calls and self time are reported
SPANS = (
    "loop.loop_bracket", "loop.bv_delta", "extended.cap", "cohomology.coh_delta",
    "kernel.mul", "kernel.add", "kernel.render", "kernel.random_element",
    "extended.extended_product", "extended.extended_bracket",
    "verify.run_suite", "expr.parse", "expr.evaluate", "cli.table",
)
LAYERS = ("kernel", "loop", "cohomology", "extended", "verify", "expr", "cli")
# (name, unit, better) of the metrics of a traced run, then of an untraced run
PER_LAYER = (
    [(span + ".calls", "count", "lower") for span in SPANS]
    + [(span + ".self_s", "s", "lower") for span in SPANS]
    + [
        ("kernel.mul.term_pairs", "count", "lower"),
        ("kernel.element_init.calls", "count", "lower"),
        ("kernel.random_element.first_s", "s", "lower"),
        ("extended.cap.bracket_calls", "count", "lower"),
        ("verify.trials", "count", "higher"),
        ("verify.informative_ratio", "ratio", "higher"),
    ]
    + [(layer + ".self_s", "s", "lower") for layer in LAYERS]
    + [
        ("unattributed_s", "s", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.ops_per_s", "1/s", "higher"),
    ]
)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Best:
    """Element-wise best (minimum) latencies over the repeats of a pass."""

    def __init__(self):
        self.passes = self.attempted = self.failed = 0
        self.ops = 0  # operations in one pass
        self.latencies = self.busy = None

    def add(self, p):
        self.passes += 1
        self.attempted += p.ops
        self.failed += p.failed
        self.ops = p.ops
        if self.latencies is None:
            self.latencies, self.busy = list(p.latencies), list(p.busy)
        else:
            self.latencies = list(map(min, self.latencies, p.latencies))
            self.busy = list(map(min, self.busy, p.busy))

    def ops_per_s(self) -> float:
        """Operations of one pass over the summed best time of its engine calls."""
        return self.ops / sum(self.busy)


def setup_sample(args) -> float:
    """Set-up time of one more fresh interpreter running the same workload."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def end_to_end_metrics(workload, best, peak_rss_mb, setups) -> dict:
    latencies = sorted(best.latencies)
    if len(latencies) - math.ceil(workload.tail_pct / 100 * len(latencies)) < TAIL_MIN_BEYOND:
        print("warning: fewer than %d samples beyond p%s" % (TAIL_MIN_BEYOND, workload.tail_pct),
              file=sys.stderr)
    values = {
        "ops_per_s": best.ops_per_s(),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, workload.tail_pct) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": 1 - best.failed / best.attempted,
        "setup_s": min(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(tracer, best) -> dict:
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    values = {}
    for span in SPANS:
        values[span + ".calls"] = calls[span]
        values[span + ".self_s"] = self_s[span]
    for key in ("kernel.mul.term_pairs", "kernel.element_init.calls",
                "extended.cap.bracket_calls", "verify.trials"):
        values[key] = counts[key]
    values["kernel.random_element.first_s"] = tracer.first_s
    checks = counts["verify.checks"]
    values["verify.informative_ratio"] = counts["verify.informative_checks"] / checks if checks else 0.0
    for layer in LAYERS:
        values[layer + ".self_s"] = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
    values["unattributed_s"] = tracer.wall_s - sum(self_s.values())
    values["trace.ops"] = best.attempted
    values["trace.ops_per_s"] = best.ops_per_s()
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then print the set-up time in seconds")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "loopbv" / "__init__.py"
    if not source.is_file():
        print("error: %s is missing; run from the root of a loopbv checkout" % source, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import loopbv
    if Path(loopbv.__file__).resolve() != source.resolve():
        print("error: imported loopbv from %s, not %s" % (loopbv.__file__, source), file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
        tracer.resume()
    workload.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    best = Best()
    setups = [setup_s]
    passes = TRACE_PASSES if args.trace else workload.passes
    deadline = time.perf_counter() + args.seconds
    # a traced run always completes its passes, so that its counts repeat exactly
    while best.passes < passes and (args.trace or time.perf_counter() < deadline):
        best.add(workload.run_pass(args.seed, tracer))
        # spread the other set-ups over the run, so that they meet more than one speed phase
        if not args.trace and best.passes * (SETUP_RUNS - 1) >= len(setups) * passes:
            start = time.perf_counter()
            setups.append(setup_sample(args))
            deadline += time.perf_counter() - start
    tracer.pause()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics = per_layer_metrics(tracer, best)
        out = ROOT / ".bench_traces"
        out.mkdir(exist_ok=True)
        tracer.dump(out / ("%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        setups += [setup_sample(args) for _ in range(SETUP_RUNS - len(setups))]
        print("setup samples: %s" % " ".join("%.4f" % s for s in setups), file=sys.stderr)
        metrics = end_to_end_metrics(workload, best, peak_rss_mb, setups)
    print(json.dumps({"correct": best.failed == 0, "attempted": best.attempted,
                      "failed": best.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
