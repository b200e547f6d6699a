"""How the benchmark calls pmtk, untraced or traced, and the per-layer metrics.

``Api`` forwards every attribute to the ``pmtk`` package, so a task reads
``api.build_report(...)`` exactly as a user's script reads
``pmtk.build_report(...)``.  ``TracedApi`` returns the same functions wrapped
in spans named ``<module>.<function>``, swaps ``Sampler`` for a subclass
whose draws are spans, counts top-level oracle calls on the descriptors a
task hands it through ``counted``, and, around each CLI command, wraps the
public functions of other modules that ``pmtk.cli`` holds in its namespace,
so the command's span has the library calls it made as children.  No code
under ``src/`` changes; tracing lives entirely on this side of the package
boundary.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Each traced task
is a root span ``task``, and the breakdown that follows it a root span
``extra``.  The per-layer metrics count only the spans under ``task``, apart
from the axiom checks timed one by one (BREAKDOWN), which count only the
spans under ``extra``.  Times and counts are per traced round, so a faster
pmtk, which fits more rounds into a run, does not read as more work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import types
from time import perf_counter

LAYERS = ("spaces", "axioms", "transforms", "series", "solvers", "fixtures")

# metric name -> unit, in report order; every traced run reports every one,
# 0 where the workload leaves the layer idle
PER_LAYER = {
    "spaces.sampler_s": "s",
    "spaces.sampler_draws": "count",
    "spaces.oracle_evals": "count",
    "spaces.oracle_evals_per_sample": "ratio",
    "spaces.eval_distance_ns": "ns/call",
    "spaces.io_s": "s",
    "axioms.build_report_s": "s",
    "axioms.samples_per_s": "1/s",
    "axioms.pm1_s": "s",
    "axioms.pm2_s": "s",
    "axioms.pm3_s": "s",
    "axioms.pm4_s": "s",
    "axioms.metric_type_s": "s",
    "axioms.positivity_s": "s",
    "axioms.min_K_s": "s",
    "axioms.classify_s": "s",
    "transforms.derive_s": "s",
    "transforms.derived_eval_ns": "ns/call",
    "series.certify_s": "s",
    "series.terms_per_s": "1/s",
    "series.rate_terms_s": "s",
    "series.relaxed_s": "s",
    "solvers.solve_s": "s",
    "solvers.orbit_steps": "count",
    "solvers.steps_per_s": "1/s",
    "solvers.hypothesis_entries": "count",
    "solvers.bound_check_s": "s",
    "solvers.scan_s": "s",
    "solvers.gauge_setup_s": "s",
    "fixtures.replay_s": "s",
    "cli.check_s": "s",
    "cli.transform_s": "s",
    "cli.solve_s": "s",
    "cli.series_s": "s",
    "cli.fixtures_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}

# self-time metrics: metric -> span names whose self times it sums
SELF_TIME = {
    "spaces.io_s": ("spaces.load_space", "spaces.save_space", "spaces.write_json_atomic"),
    "axioms.build_report_s": ("axioms.build_report",),
    "axioms.pm1_s": ("axioms.check_pm1",),
    "axioms.pm2_s": ("axioms.check_pm2",),
    "axioms.pm3_s": ("axioms.check_pm3",),
    "axioms.pm4_s": ("axioms.check_pm4",),
    "axioms.metric_type_s": ("axioms.check_metric_type",),
    "axioms.positivity_s": ("axioms.check_positivity",),
    "axioms.min_K_s": ("axioms.estimate_min_K",),
    "axioms.classify_s": ("axioms.classify",),
    "series.certify_s": ("series.certify_alpha_series",),
    "series.rate_terms_s": ("series.kannan_rate_terms", "series.product_terms_Cn"),
    "series.relaxed_s": ("series.check_relaxed_hypotheses",),
    "solvers.solve_s": ("solvers.solve_pair_banach", "solvers.solve_pair_kannan", "solvers.solve_pair_power",
                        "solvers.solve_admissible", "solvers.solve_family"),
    "solvers.bound_check_s": ("solvers.verify_bound",),
    "solvers.scan_s": ("solvers.uniqueness_scan", "solvers.per_map_fixed_point_check",
                       "solvers.scan_limit_candidates", "solvers.detect_cauchy"),
    "solvers.gauge_setup_s": ("solvers.phi_sqrt", "solvers.phi_identity", "solvers.phi_power",
                              "solvers.psi_sum", "solvers.psi_max"),
    "fixtures.replay_s": ("fixtures.run_fixture",),
    "cli.check_s": ("cli.check",),
    "cli.transform_s": ("cli.transform",),
    "cli.solve_s": ("cli.solve",),
    "cli.series_s": ("cli.series",),
    "cli.fixtures_s": ("cli.fixtures",),
}

# self-time metrics taken from the one-by-one axiom checks under ``extra``
BREAKDOWN = ("axioms.pm1_s", "axioms.pm2_s", "axioms.pm3_s", "axioms.pm4_s", "axioms.metric_type_s",
             "axioms.positivity_s", "axioms.min_K_s", "axioms.classify_s")


class Api:
    """pmtk as a user script calls it: a name from the package, or else from
    the module of the layer that defines it (``check_positivity`` lives only
    in ``pmtk.axioms``)."""

    def __init__(self, pmtk, cli):
        self.pmtk = pmtk
        self.cli = cli

    def __getattr__(self, name):
        return self._lookup(name)

    def _lookup(self, name):
        for module in (self.pmtk, *(getattr(self.pmtk, layer) for layer in LAYERS)):
            if hasattr(module, name):
                return getattr(module, name)
        raise AttributeError(name)

    def counted(self, space):
        return space

    def dispatch(self, argv, outputs=()):
        """One in-process CLI command with its output captured.

        Returns (exit code, stdout, stderr); an exception that escapes
        ``pmtk.cli.dispatch`` propagates to the caller.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.dispatch(list(argv))
        return code, out.getvalue(), err.getvalue()

    def microloop(self, space, pairs, derived: bool) -> None:
        pass


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self):
        # span: [id, parent id, name, task, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = None
        self.evals = 0
        self.micro = {False: [0.0, 0], True: [0.0, 0]}  # derived? -> [seconds, calls]

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, self.task,
               perf_counter(), 0.0, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        evals = self.evals
        try:
            yield rec[6]
        finally:
            rec[5] = perf_counter()
            self._stack.pop()
            if self.evals != evals:
                rec[6]["evals"] = self.evals - evals

    def wrap(self, fn):
        """fn with a span named <module>.<function> around each call."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                _annotate(attrs, result)
                return result

        return traced

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return {s[0]: (s[5] - s[4]) - covered.get(s[0], 0.0) for s in self.spans}

    def metrics(self, rounds: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced round (rounds = traced rounds)."""
        selfs = self.self_times()
        roots: dict[int, str] = {}
        by_name: dict[str, dict[str, list]] = {"task": {}, "extra": {}}  # root name -> span name -> spans
        for s in self.spans:
            roots[s[0]] = s[2] if s[1] is None else roots[s[1]]
            if s[1] is not None:
                by_name[roots[s[0]]].setdefault(s[2], []).append(s)
        tasks = by_name["task"]

        def self_sum(names, under=tasks) -> float:
            return sum(selfs[s[0]] for n in names for s in under.get(n, ())) / rounds

        def attr_sum(names, key) -> float:
            return sum(s[6].get(key, 0) for n in names for s in tasks.get(n, ()))

        def total(names) -> float:
            return sum(s[5] - s[4] for n in names for s in tasks.get(n, ()))

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        m = {name: self_sum(spans, by_name["extra"] if name in BREAKDOWN else tasks)
             for name, spans in SELF_TIME.items()}
        draws = [n for n in tasks if n.startswith("spaces.Sampler.")]
        m["spaces.sampler_s"] = self_sum(draws)
        m["spaces.sampler_draws"] = sum(len(tasks[n]) for n in draws) / rounds
        m["spaces.oracle_evals"] = sum(s[6].get("evals", 0) for s in self.spans if s[1] is None
                                       and s[2] == "task") / rounds
        counted = [s for s in tasks.get("axioms.build_report", ()) if s[6].get("evals")]
        m["spaces.oracle_evals_per_sample"] = ratio(sum(s[6]["evals"] for s in counted),
                                                    sum(s[6]["samples"] for s in counted))
        m["spaces.eval_distance_ns"] = ratio(self.micro[False][0] * 1e9, self.micro[False][1])
        m["transforms.derived_eval_ns"] = ratio(self.micro[True][0] * 1e9, self.micro[True][1])
        m["transforms.derive_s"] = self_sum([n for n in tasks if n.startswith("transforms.")])
        m["axioms.samples_per_s"] = ratio(attr_sum(["axioms.build_report"], "samples"),
                                          total(["axioms.build_report"]))
        m["series.terms_per_s"] = ratio(attr_sum(["series.certify_alpha_series"], "terms"),
                                        m["series.certify_s"] * rounds)
        solves = SELF_TIME["solvers.solve_s"]
        m["solvers.orbit_steps"] = attr_sum(solves, "steps") / rounds
        m["solvers.hypothesis_entries"] = attr_sum(solves, "hypotheses") / rounds
        m["solvers.steps_per_s"] = ratio(m["solvers.orbit_steps"], m["solvers.solve_s"])
        m["cli.bytes_written"] = attr_sum([n for n in tasks if n.startswith("cli.")], "bytes") / rounds
        m["trace.overhead_ratio"] = overhead_ratio
        return {name: m[name] for name in PER_LAYER}

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total s, self s), largest self time first."""
        selfs = self.self_times()
        rows: dict[str, list] = {}
        for s in self.spans:
            row = rows.setdefault(s[2], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[5] - s[4]
            row[2] += selfs[s[0]]
        return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "task", "start", "end", "attrs")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s)), sort_keys=True) + "\n")


def _annotate(attrs: dict, result) -> None:
    """Work counts read off a call's result at the span that made it."""
    if hasattr(result, "checks") and hasattr(result, "min_K_estimate"):
        attrs["samples"] = sum(c.samples_checked for c in result.checks.values())
    elif hasattr(result, "trace") and hasattr(result, "hypothesis_log"):
        attrs["steps"] = result.trace.steps_taken
        attrs["hypotheses"] = len(result.hypothesis_log)
    elif hasattr(result, "horizon_checked"):
        attrs["terms"] = result.horizon_checked


class TracedApi(Api):
    """Api with spans, oracle counts, a traced Sampler and CLI hooks."""

    def __init__(self, pmtk, cli, tracer: Tracer):
        super().__init__(pmtk, cli)
        self.tracer = tracer
        self.Sampler = _sampler_class(pmtk.Sampler, tracer)

    def __getattr__(self, name):
        obj = self._lookup(name)
        if isinstance(obj, types.FunctionType):
            return self.tracer.wrap(obj)
        return obj

    def counted(self, space):
        tracer, fn = self.tracer, space.oracle.fn

        def counting(x, y):
            tracer.evals += 1
            return fn(x, y)

        return dataclasses.replace(space, oracle=dataclasses.replace(space.oracle, fn=counting))

    def dispatch(self, argv, outputs=()):
        hooked = {}
        for name, obj in vars(self.cli).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__.rsplit(".", 1)[-1] in LAYERS):
                hooked[name] = obj
        hooked["Sampler"] = self.cli.Sampler
        try:
            for name, obj in hooked.items():
                setattr(self.cli, name, self.Sampler if name == "Sampler" else self.tracer.wrap(obj))
            with self.tracer.span(f"cli.{argv[0]}") as attrs:
                try:
                    return super().dispatch(argv)
                finally:
                    attrs["bytes"] = sum(_size(p) for p in outputs)
        finally:
            for name, obj in hooked.items():
                setattr(self.cli, name, obj)

    def microloop(self, space, pairs, derived: bool) -> None:
        evaluate = self.pmtk.eval_distance
        start = perf_counter()
        for x, y in pairs:
            evaluate(space, x, y)
        cell = self.tracer.micro[derived]
        cell[0] += perf_counter() - start
        cell[1] += len(pairs)


def _size(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)
    return os.path.getsize(path) if os.path.exists(path) else 0


def _sampler_class(base, tracer: Tracer):
    """A Sampler subclass whose three draws are spans."""

    class TracedSampler(base):
        def points(self, count=None):
            with tracer.span("spaces.Sampler.points"):
                return super().points(count)

        def pairs(self, count=None):
            with tracer.span("spaces.Sampler.pairs"):
                return super().pairs(count)

        def chains(self, chain_len, count=None):
            with tracer.span("spaces.Sampler.chains"):
                return super().chains(chain_len, count)

    return TracedSampler
