"""Self-test of the benchmark: every workload briefly, untraced and traced.

    python3 benchmarks/selftest.py

Runs run.py in smoke mode (small samplers and horizons, one-second runs)
for each workload with --trace 0 and --trace 1, then checks that:

  * the run exits 0 and its last line has exactly the keys correct,
    attempted, failed and metrics;
  * the metrics are exactly those BENCHMARK.json lists for that mode, with
    matching units and finite; end-to-end metrics are above zero, per-layer
    metrics at least zero (a layer the workload leaves idle reads 0);
  * the outputs are correct, and the only failed operations are the two
    named known-fault probes, each failing in every session of derive-replay;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py exits non-zero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SESSION_OPS = 24


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    done = run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-600:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems += [f"{where}: {line}" for line in lines if line.startswith("PROBLEM")]
        problems.append(f"{where}: outputs are not correct")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: cell["unit"] for name, cell in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} missing, extra or mislabelled")
    for name, cell in result["metrics"].items():
        value = cell["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and (value > 0 or trace and value == 0)):
            problems.append(f"{where}: metric {name} = {value!r}")
    failed_ops = json.loads(next(line for line in lines if line.startswith("FAILED-OPS "))[11:])
    if workload == "derive-replay":
        sessions = result["attempted"] // SESSION_OPS
        want_failed = {name: sessions for name in workloads.PROBES}
        if failed_ops != want_failed or result["attempted"] % SESSION_OPS:
            problems.append(f"{where}: failed operations {failed_ops}, expected {want_failed}")
    elif failed_ops:
        problems.append(f"{where}: failed operations {failed_ops}")
    if result["failed"] != sum(failed_ops.values()):
        problems.append(f"{where}: failed count {result['failed']} disagrees with {failed_ops}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the sources the benchmark must refuse to run."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run([sys.executable, str(bare / HERE.name / "run.py"), "--workload", "check-battery",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["bare directory: run.py did not refuse to run without the sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload:<16} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
