"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed N]

Run it from the root of a checkout.  Checks that

* `loopbv check --json` prints byte-identical reports with and without the
  tracing wrappers installed, and that the traced call really went through
  them;
* two traced runs of each workload on the same seed give identical counts
  (every per-layer metric whose unit is count or ratio);
* the metric names the runs print are exactly those in BENCHMARK.json.

Exits 1 on any mismatch.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHECK_ARGS = (("s3", "7"), ("su3", "3"), ("exterior:3,5,7", "5"))


def check_json_identical() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    from loopbv import cli
    import tracing

    def check_json():
        outputs = []
        for model, seed in CHECK_ARGS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["check", "--model", model, "--trials", "6", "--seed", seed, "--json"])
            outputs.append((code, buffer.getvalue()))
        return outputs

    plain = check_json()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.resume()
    traced = check_json()
    tracer.pause()
    went_through = tracer.counts["verify.trials"] > 0 and tracer.self_times()[0]["loop.loop_bracket"] > 0
    same = plain == traced
    print("check --json traced vs untraced: %s; traced path taken: %s"
          % ("identical" if same else "DIFFERENT", went_through))
    return same and went_through


def traced_run(workload: str, seed: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(BENCH))
    import run

    ok = [m["name"] for m in spec["end_to_end"]] == [name for name, _, _ in run.END_TO_END]
    print("end-to-end names match BENCHMARK.json: %s" % ok)
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        names_ok = list(first["metrics"]) == per_layer
        counts = lambda result: {name: m["value"] for name, m in result["metrics"].items()
                                 if m["unit"] in ("count", "ratio")}
        repeat_ok = counts(first) == counts(second)
        passed = first["correct"] and second["correct"]
        print("%s: counts repeat %s, names match %s, outputs correct %s"
              % (workload, repeat_ok, names_ok, passed))
        if not repeat_ok:
            for name, value in counts(first).items():
                if counts(second)[name] != value:
                    print("  %s: %r vs %r" % (name, value, counts(second)[name]))
        ok = ok and names_ok and repeat_ok and passed
    ok = check_json_identical() and ok
    print("self-test passed" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
