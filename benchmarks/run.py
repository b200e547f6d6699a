"""pmtk benchmark: seeded closed-loop workloads with checked outputs.

    python3 benchmarks/run.py --workload check-battery --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

One process, one client, no threads: each task starts when the previous one
has returned.  A run first sets up (imports pmtk from this checkout's src/,
generates the first round's inputs, runs one warm-up task: the round's first
task at the self-test's small scale), then runs whole rounds of its workload
until the tasks have taken --seconds.  Every round holds the same tasks, with
data drawn from (seed, round number), so no task sees the bytes of an earlier
one and a cache that lasts across calls cannot answer a later round from an
earlier one.  Each round's outputs are checked when the round ends, outside
the timed tasks, and then dropped.  Set-up is timed in this process and in
SETUP_PROCESSES fresh processes, and the median is reported.

--trace 0 reports the end-to-end metrics.  Every task time is divided by
the time of reference_loop(), a fixed piece of pure-Python work that touches
no pmtk code, run right before and right after the task; the task-time
metrics are built from each task's median of these ratios over the run's
rounds, times REFERENCE_S.  On a shared machine the neighbours' load slows
all work by up to 1.8x, in phases of seconds to minutes; the reference loop
slows with it, so the ratio tracks the code and not the neighbours.  The
measured seconds are printed too.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics (see tracing.py) per traced round, including the tracing overhead:
the traced over the untraced time of the same tasks.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give each metric with its
unit and sample count, the failed operations by name, and the span table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("check-battery", "solve-certify", "derive-replay")
SETUP_PROCESSES = 4

END_TO_END = {"setup_s": "s", "task_s_p50": "s", "tasks_per_s": "1/s", "peak_rss_mb": "MB"}

# best time of reference_loop() on the reference machine when uncontended
REFERENCE_S = 0.0065


def _leg(a: float, b: float) -> float:
    return a - b if a > b else b - a


def reference_loop() -> float:
    """Fixed pure-Python work: float arithmetic and calls, no allocation that
    outlives a step, nothing from pmtk.  Its time measures the machine."""
    acc = 0.0
    for i in range(40_000):
        x = (i * 0.618) % 1.0
        acc += _leg(x, 1.0 - x) * x
    return acc


def reference_time(repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def data_seed(seed: int, round_no: int) -> int:
    return seed * 1_000_003 + round_no


def _import_pmtk():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pmtk = importlib.import_module("pmtk")
    if Path(pmtk.__file__).resolve().parent != (src / "pmtk").resolve():
        sys.stderr.write(f"imported pmtk from {pmtk.__file__}, not from {src}\n")
        sys.exit(2)
    return pmtk, importlib.import_module("pmtk.cli")


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import pmtk, build the first round's inputs, run the warm-up task.

    The clock starts before anything imports numpy, so pmtk's own imports
    are timed in full.  Returns (seconds, pmtk, cli, tasks, warm-up task,
    its outcome or exception).
    """
    start = perf_counter()
    pmtk, cli = _import_pmtk()
    import tracing
    import workloads

    build = workloads.WORKLOADS[workload]
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    (workdir / "round-0").mkdir(parents=True, exist_ok=True)
    tasks = build(data_seed(seed, 0), workdir / "round-0", smoke, pmtk)
    warm_task = build(seed, workdir / "warmup", True, pmtk)[0]
    try:
        warm = warm_task.run(tracing.Api(pmtk, cli))
    except Exception as exc:  # reported as a failed operation by the caller
        warm = exc
    return perf_counter() - start, pmtk, cli, tasks, warm_task, warm


def _setup_in_fresh_process(args, index: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(args.workdir / f"setup-{index}")]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """Counters for one run: operations, failures, problems."""

    def __init__(self, pmtk, probes):
        self.pmtk = pmtk
        self.probes = probes
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []

    def record(self, task, outcome) -> None:
        """Count the task's operations and check its output."""
        if isinstance(outcome, Exception):
            self.attempted += 1
            self.failed[task.name] = self.failed.get(task.name, 0) + 1
            self.problems.append(f"{task.name}: raised {type(outcome).__name__}: {outcome}")
            return
        for op, ok in outcome.ops:
            self.attempted += 1
            if not ok:
                self.failed[op] = self.failed.get(op, 0) + 1
                if op not in self.probes:
                    self.problems.append(f"{task.name}: operation {op} failed")
        self.problems += [f"{task.name}: {p}" for p in task.check(self.pmtk, outcome)]


def run_task(task, api, trace_root=None):
    """One timed task; returns (seconds, outcome or the exception it raised)."""
    start = perf_counter()
    try:
        if trace_root is None:
            out = task.run(api)
        else:
            with trace_root:
                out = task.run(api)
    except Exception as exc:
        return perf_counter() - start, exc
    return perf_counter() - start, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pmtk" / "__init__.py").is_file():
        sys.stderr.write(f"no pmtk sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    if args.setup_only:
        reference = reference_time(5)
        seconds, _, _, _, _, warm = setup(args.workload, args.seed, args.smoke, args.workdir)
        if isinstance(warm, Exception):
            raise warm
        reference = min(reference, reference_time(5))
        print(json.dumps({"setup_s": seconds, "reference_s": reference, "digest": warm.digest}))
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    args.workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(args.workdir, ignore_errors=True)
    try:
        return measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure(args) -> int:
    reference = reference_time(5)
    main_dir = args.workdir / "main"
    setup_s, pmtk, cli, tasks, warm_task, warm = setup(args.workload, args.seed, args.smoke, main_dir)
    import tracing
    import workloads

    run = Run(pmtk, workloads.PROBES)
    run.record(warm_task, warm)
    setups = [(setup_s, min(reference, reference_time(5)))]  # (seconds, reference seconds)
    if not args.trace:
        for i in range(1 if args.smoke else SETUP_PROCESSES):
            other = _setup_in_fresh_process(args, i)
            setups.append((other["setup_s"], other["reference_s"]))
            if not isinstance(warm, Exception) and other["digest"] != warm.digest:
                run.problems.append("warm-up output differs between two processes with the same seed")

    api = tracing.Api(pmtk, cli)
    tracer = tracing.Tracer()
    traced = tracing.TracedApi(pmtk, cli, tracer)
    samples: dict[int, list[tuple[float, float]]] = {}  # task -> (seconds, reference seconds)
    traced_by_task: dict[int, list[float]] = {}
    build = workloads.WORKLOADS[args.workload]
    timed = 0.0
    rounds = traced_rounds = 0
    while True:
        round_dir = main_dir / f"round-{rounds}"
        if rounds:
            round_dir.mkdir(parents=True)
            tasks = build(data_seed(args.seed, rounds), round_dir, args.smoke, pmtk)
        outcomes = []
        if args.trace and rounds % 2:
            for task in tasks:
                tracer.task = f"{task.name}#{rounds}"
                seconds, out = run_task(task, traced, tracer.span("task"))
                traced_by_task.setdefault(len(outcomes), []).append(seconds)
                timed += seconds
                if task.extra is not None and not isinstance(out, Exception):
                    with tracer.span("extra"):
                        task.extra(traced, out)
                outcomes.append(out)
            traced_rounds += 1
        else:
            before = reference_time(2)
            for task in tasks:
                seconds, out = run_task(task, api)
                after = reference_time(2)
                samples.setdefault(len(outcomes), []).append((seconds, min(before, after)))
                reference, before = min(reference, after), after
                timed += seconds
                outcomes.append(out)
        for task, out in zip(tasks, outcomes):
            run.record(task, out)
        shutil.rmtree(round_dir, ignore_errors=True)
        rounds += 1
        if timed >= args.seconds and (traced_rounds or not args.trace):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, again = run_task(warm_task, api)
    if not isinstance(warm, Exception) and (isinstance(again, Exception) or again.digest != warm.digest):
        run.problems.append("warm-up task gave other bytes when run again in the same process")

    measured = None
    if args.trace:
        untraced = {i: [s for s, _ in per_task] for i, per_task in samples.items()}
        metrics = tracer.metrics(traced_rounds, _overhead(untraced, traced_by_task))
        units = tracing.PER_LAYER
        counts = {}
        report_spans(args, tracer)
    else:
        typical = [statistics.median(s / ref for s, ref in per_task) * REFERENCE_S
                   for per_task in samples.values()]
        metrics = {
            "setup_s": statistics.median(s * REFERENCE_S / ref for s, ref in setups),
            "task_s_p50": statistics.median(typical),
            "tasks_per_s": len(typical) / sum(typical),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        counts = {"setup_s": len(setups), "task_s_p50": len(typical), "tasks_per_s": len(typical),
                  "peak_rss_mb": 1}
        times = [s for per_task in samples.values() for s, _ in per_task]
        measured = (f"  measured: set-up median {statistics.median(s for s, _ in setups):.6g} s, "
                    f"median over all {len(times)} task runs {statistics.median(times):.6g} s; "
                    f"reference loop best {reference:.6g} s")

    failed = sum(run.failed.values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"tasks/round {len(tasks)}  operations attempted {run.attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]:<8}" + (f" n={counts[name]}" if name in counts else ""))
    if measured:
        print(measured)
        for i, task in enumerate(tasks):
            per_task = samples[i]
            ratios = [s / ref for s, ref in per_task]
            print(f"  task {task.name:<27} median {statistics.median(s for s, _ in per_task):<10.6g} s  "
                  f"best {min(s for s, _ in per_task):<10.6g} s  median/reference {statistics.median(ratios):<8.4g} "
                  f"n={len(per_task)}")
    print("FAILED-OPS " + json.dumps(run.failed, sort_keys=True))
    for problem in run.problems[:50]:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _overhead(untraced: dict[int, list[float]], traced: dict[int, list[float]]) -> float:
    """Traced over untraced time of the same tasks (median time per task)."""
    both = [i for i in traced if i in untraced]
    num = sum(statistics.median(traced[i]) for i in both)
    den = sum(statistics.median(untraced[i]) for i in both)
    return num / den if den else 0.0


def report_spans(args, tracer) -> None:
    """Write the spans and print the span table."""
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"  {'span':<44} {'calls':>7} {'total s':>10} {'self s':>10}")
    for name, calls, total, self_s in tracer.summary()[:40]:
        print(f"  {name:<44} {calls:>7} {total:>10.4f} {self_s:>10.4f}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = cell
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
