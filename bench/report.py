"""Run every workload untraced and traced and print each metric by name.

    python3 bench/report.py [--seed N]

Run it from the root of a checkout.  For each workload this prints the
end-to-end metrics of an untraced run (capped at BENCHMARK.json's
run_seconds), the per-layer metrics of a traced run and the tracing
overhead (untraced ops_per_s over traced trace.ops_per_s).  Exits 1 if any run fails or any output check mismatches.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print("%s (trace %d) exited with %d" % (workload, trace, done.returncode))
        return None
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, spec["run_seconds"], 0)
        traced = run(workload, args.seed, spec["run_seconds"], 1)
        print("== %s" % workload)
        for result in (plain, traced):
            if result is None:
                ok = False
                continue
            print("  attempted %d, failed %d, correct %s"
                  % (result["attempted"], result["failed"], result["correct"]))
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
        if plain and traced:
            overhead = plain["metrics"]["ops_per_s"]["value"] / traced["metrics"]["trace.ops_per_s"]["value"]
            print("  %-36s %14.3f x" % ("trace overhead", overhead))
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
