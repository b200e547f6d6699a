"""Run-to-run spread of the end-to-end metrics.

    python3 benchmarks/steady.py --runs 10 --first-seed 100 [--workload NAME ...]

Runs run.py once per seed (first-seed, first-seed + 1, ...) on each
workload, one run at a time, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles with n=4) and the spread
(Q3 - Q1) / median next to the bound BENCHMARK.json fixes, plus the share
of failed operations.  The raw results go to .bench_work/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        (out_dir / f"steady-{workload}-{args.first_seed}.json").write_text(json.dumps(results, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share(s) {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            print(f"  {name:<14} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                  f"spread {spread:6.3f}  bound {bound}  spread/bound {spread / bound:5.2f}")
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
