"""The benchmark's workloads: seeded inputs, the tasks of one round, and checks.

A workload builds one *round* from a data seed: a fixed list of tasks
whose shape (which spaces, which solvers, which commands) never depends on
the seed, so every round attempts the same operations and costs about the
same.  The seed picks the data inside each task: domain bounds, basepoints,
exponents, starting points, contraction constants within a narrow band,
sampler seeds and rate-sequence parameters.  run.py draws a new data seed
for every round, so no round repeats the bytes of another.

Each task runs through an ``Api`` object (see tracing.py), so the same code
serves the untraced and the traced run.  ``run`` is the timed part.
``check`` compares the outcome against reference.py; it runs on every
outcome, after its round.  ``extra`` runs in traced rounds only, after the
timed part: it times each axiom check on its own and runs the evaluation
microloops.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# The two known faults that derive-replay probes on every session.
PROBES = ("neg-oracle-exit", "readme-domain-doc")

CLOSED = [0.0, 1.0, False, False]


@dataclass
class Outcome:
    """What one task produced.

    ``blob`` is everything the task serialized or wrote, hashed for the
    byte-identity check; ``ops`` lists (operation, succeeded) pairs; the
    rest is context for ``check`` and ``extra``.
    """

    blob: bytes
    ops: list[tuple[str, bool]]
    context: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.blob).hexdigest()


@dataclass
class Task:
    name: str
    run: Callable  # (api) -> Outcome
    check: Callable  # (pmtk, Outcome) -> list[str]
    extra: Callable | None = None  # (api, Outcome) -> None, traced runs only


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _single(name: str, blob: str, **context) -> Outcome:
    return Outcome(blob.encode(), [(name, True)], context)


def _sampler_pairs(pmtk, space, count: int = 2000, seed: int = 0):
    return pmtk.Sampler(seed=seed, region=space.domain, grid_density=8, random_count=count).pairs()


def _is_derived(space) -> bool:
    spec = space.oracle.spec
    top = spec.get("op") if isinstance(spec, dict) else None
    return top in ("pt", "dp", "basepoint") or bool(space.provenance and "construction" in space.provenance)


def _microloop(space):
    """extra() for a task on one space: the eval_distance microloop."""
    def extra(api, out: Outcome) -> None:
        api.microloop(space, _sampler_pairs(api.pmtk, space), _is_derived(space))
    return extra


def _breakdown(api, space, sampler, mode: str) -> None:
    """Each public check on its own, on the task's space and sampler."""
    api.check_pm1(space, sampler)
    api.check_pm2(space, sampler)
    api.check_pm3(space, sampler)
    api.check_pm4(space, sampler, chain_mode=mode)
    api.check_metric_type(space, sampler, chain_mode=mode)
    api.check_positivity(space, sampler)
    api.estimate_min_K(space, sampler, chain_mode=mode)
    api.classify(space, sampler, chain_mode=mode)


# ---------------------------------------------------------------------------
# check-battery


def _box(rng: random.Random, dims: int, open_: bool = False) -> list:
    out = []
    for _ in range(dims):
        lo = round(rng.uniform(0.0, 0.5), 3)
        out.append([lo, round(lo + rng.uniform(1.0, 2.0), 3), open_, open_])
    return out


def _battery_cases(rng: random.Random) -> list[tuple[str, dict, str, dict]]:
    """(name, space document, chain mode, what the mathematics says).

    min_K is the interval (lo, lo_open, hi] holding the true smallest
    coefficient over the sampled region.
    """
    one = (1.0, False, 1.0)
    sq = {"op": "power", "base": {"op": "absdiff"}, "q": 2}
    e2_box = _box(rng, 1, open_=True)
    w = e2_box[0][1] - e2_box[0][0]
    e2_box_hi = (w * w + 4.0) / (w * w / 2.0 + 4.0)
    x_dom = _box(rng, 1)
    x0 = round(rng.uniform(x_dom[0][0], x_dom[0][1]), 3)
    return [
        ("e1-maxpow", {"oracle": {"op": "sum", "args": [
            {"op": "power", "base": {"op": "max"}, "q": 2}, sq]},
            "K": 4.0, "n": 1, "domain": _box(rng, 1), "class": "PartialBMetric"},
         "exact", {"claim_holds": True, "min_K": (1.0, True, 4.0)}),
        ("max", {"oracle": {"op": "max"}, "K": 1.0, "n": 1, "domain": _box(rng, 1),
                 "class": "PartialBMetric"},
         "exact", {"claim_holds": True, "min_K": (1.0, False, 1.0)}),
        ("absdiff-sq-2d", {"oracle": sq, "K": 2.0, "n": 1, "domain": _box(rng, 2),
                           "class": "PartialBMetric"},
         "exact", {"claim_holds": True, "min_K": (1.0, True, 2.0)}),
        # p = (x - y)^2 + 2 on an open interval of width w: the midpoint chain
        # is worst, so min K <= (w^2 + 4) / (w^2 / 2 + 4)
        ("e2-shifted-square", {"oracle": {"op": "affine", "arg": sq, "offset": 2.0},
                               "K": 2.0, "n": 1, "domain": e2_box, "class": "PartialBMetric",
                               "complete": False},
         "exact", {"claim_holds": True, "min_K": (1.0, True, e2_box_hi)}),
        ("basepoint-absdiff", {"oracle": {"op": "basepoint", "source": {"op": "absdiff"}, "x0": [x0]},
                               "K": 1.0, "n": 2, "domain": x_dom, "class": "KPMS"},
         "upto", {"claim_holds": True, "min_K": one}),
        ("pt-max", {"oracle": {"op": "pt", "source": {"op": "max"}}, "K": 1.0, "n": 1,
                    "domain": _box(rng, 1), "class": "Metric"},
         "exact", {"claim_holds": True, "min_K": one}),
        # (a + b + c + d)^2 <= 4 (a^2 + b^2 + c^2 + d^2) with equality on equal
        # legs: the claim K = 1 fails and min K lies in (1, 4]
        ("absdiff-sq-3d-order3", {"oracle": sq, "K": 1.0, "n": 3, "domain": _box(rng, 3),
                                  "class": "KPMS"},
         "exact", {"claim_holds": False, "min_K": (1.0, True, 4.0)}),
    ]


def check_battery(seed: int, workdir: Path, smoke: bool, pmtk) -> list[Task]:
    rng = random.Random(seed)
    count = 300 if smoke else 2_500
    tasks = []
    for name, doc, mode, expect in _battery_cases(rng):
        doc.setdefault("hausdorff", False)
        doc.setdefault("complete", True)
        path = workdir / f"{name}.json"
        path.write_text(_dumps(doc) + "\n")
        tasks.append(_battery_task(name, path, doc, mode, expect, rng.randrange(2**63), count))
    return tasks


def _battery_task(name, path, doc, mode, expect, sampler_seed, count) -> Task:
    def run(api) -> Outcome:
        space = api.counted(api.load_space(str(path)))
        sampler = api.Sampler(seed=sampler_seed, region=space.domain, random_count=count)
        report = api.build_report(space, sampler, chain_mode=mode, with_labels=True)
        return _single(name, _dumps(report.to_json_dict()), space=space, sampler=sampler)

    def check(pmtk, out: Outcome) -> list[str]:
        report = json.loads(out.blob)
        sampler = pmtk.Sampler(seed=sampler_seed, region=out.context["space"].domain, random_count=count)
        return ref.check_battery_report(doc, report, sampler, mode, expect)

    def extra(api, out: Outcome) -> None:
        space, sampler = out.context["space"], out.context["sampler"]
        _breakdown(api, space, sampler, mode)
        plain = api.pmtk.load_space(str(path))
        api.microloop(plain, _sampler_pairs(api.pmtk, plain, seed=sampler_seed), _is_derived(plain))

    return Task(name, run, check, extra)


# ---------------------------------------------------------------------------
# solve-certify


def recip_sq(base: int, eta: int):
    """1 / (1 + base^eta)^2, exact while the power is small."""
    if eta >= 1024:
        return 0.0
    if eta <= 64:
        return Fraction(1, (1 + base**eta) ** 2)
    return (1.0 / (1.0 + float(base) ** eta)) ** 2


def e5_delta(i: int, j: int) -> Fraction:
    return Fraction(1, 3) + Fraction(1, abs(i - j) + 6)


def _space(pmtk, expr, K: float, domain=None, claim: str = "PartialBMetric"):
    return pmtk.SpaceDescriptor(
        oracle=pmtk.build_oracle(expr), coeff_K=K, polygon_order_n=1,
        domain=pmtk.Box(tuple(tuple(b) for b in (domain or [CLOSED]))),
        class_claim=pmtk.SpaceClass(claim),
    )


def _scale_family(pmtk, base: float):
    return pmtk.MapFamily(
        generator=lambda i: pmtk.SelfMap.scalar(lambda t, i=i: t * base**-i, label=f"T_{i}"),
        label=f"geometric{base:g}",
    )


def _jump_family(pmtk):
    def jump(i):
        plateau = float(Fraction(2, 3) + Fraction(1, i + 2))
        return pmtk.SelfMap.scalar(lambda t: 1.0 if t > 0.0 else plateau, label=f"T_{i}")
    return pmtk.MapFamily(generator=jump, label="jump")


def _pair_task(name, space, expr, kind, c, x0, scan_grid) -> Task:
    """One pair or single-map solver on x -> c x, whose fixed point is 0.

    kind picks the scheme: banach (k = c), kannan (k just above c/(1+c),
    envelope rate k/(1-k)), power (T^2 with k = c^2), admissible (constant
    weights 2 and 2c, rate c).
    """
    f = ref.compile_formula(expr)
    K = space.coeff_K
    if kind == "kannan":
        k = c / (1.0 + c) + 0.002
        rate = k / (1.0 - k)
    elif kind == "power":
        k = rate = c * c
    else:
        k = rate = c

    def run(api) -> Outcome:
        s = api.counted(space)
        T = api.SelfMap.scalar(lambda t: c * t, label="T")
        if kind == "banach":
            report = api.solve_pair_banach(s, T, T, x0, k)
        elif kind == "kannan":
            report = api.solve_pair_kannan(s, T, T, x0, k)
        elif kind == "power":
            report = api.solve_pair_power(s, T, T, x0, k, 2, 2)
        else:
            weights = api.AdmissibilityConfig(alpha=lambda x, y: 2.0, beta=lambda x, y: 2.0 * c,
                                              C_alpha=2.0, C_beta=2.0 * c)
            report = api.solve_admissible(s, T, x0, weights)
        bound = api.verify_bound(s, report.trace, K, rate, report.trace.step_dist[0], tol=1e-12)
        second = api.uniqueness_scan(s, T, report.point, grid_points=scan_grid)
        doc = {"report": report.to_json_dict(), "bound": bound.to_json_dict(),
               "second_fixed_point": None if second is None else list(second.coords)}
        return _single(name, _dumps(doc), report=report, bound=bound, second=second)

    def check(pmtk, out: Outcome) -> list[str]:
        report = out.context["report"]
        per_step = [c, c] if kind == "power" else [c]
        xs = ref.scale_orbit(x0, per_step, report.trace.steps_taken)
        problems = ref.check_pair_orbit(f, report, xs, K, rate, tol_point=1e-8)
        if not out.context["bound"].satisfied:
            problems.append("the program's own envelope check failed at tol 1e-12")
        if out.context["second"] is not None:
            problems.append(f"scan found a second fixed point {out.context['second']} of x -> {c} x")
        x = report.point.coords[0]
        want = ref.residual(f, x, c * (c * x) if kind == "power" else c * x)
        got = report.residuals["T" if kind == "admissible" else "T1"]
        if abs(got - want) > 1e-15:
            problems.append(f"residual {got} != reference {want}")
        return problems

    return Task(name, run, check, _microloop(space))


def _family_task(name, space, family, scheme, gauge, delta, gate, x0, expect) -> Task:
    """A countable family under one gate, then the per-map uniqueness scan.

    expect: "point" (the analytic fixed point), "tol" on it, and "gate", a
    callable returning the reference fields of the gate record.
    """
    def run(api) -> Outcome:
        s = api.counted(space)
        F = getattr(api, gauge)()
        report = api.solve_family(s, family, x0, scheme, F, delta, gate)
        per_map = api.per_map_fixed_point_check(s, family, report, delta=delta, indices=(1, 2, 3, 5))
        doc = {"report": report.to_json_dict(),
               "per_map": [{"index": m.index, "residual": m.residual, "verdict": m.verdict} for m in per_map]}
        return _single(name, _dumps(doc), report=report, per_map=per_map)

    def check(pmtk, out: Outcome) -> list[str]:
        report, problems = out.context["report"], []
        x = report.point.coords[0]
        if abs(x - expect["point"]) > expect["tol"]:
            problems.append(f"fixed point {x}, analytic {expect['point']}")
        if not (report.converged and report.checks_passed):
            problems.append(f"orbit {report.trace.stop_reason}, checks_passed={report.checks_passed}")
        want_gate = expect["gate"]()
        got_gate = {k: report.extras["gate"][k] for k in want_gate}
        if got_gate != want_gate:
            problems.append(f"gate {got_gate} != reference {want_gate}")
        verdicts = [m.verdict for m in out.context["per_map"]]
        if verdicts != ["unique"] * 4:
            problems.append(f"per-map verdicts {verdicts}, the maps share one fixed point")
        return problems

    return Task(name, run, check, _microloop(space))


def _alpha_gate_reference(delta, s, horizon, grid):
    def want():
        terms = ref.rate_terms([delta(i, i + 1) for i in range(1, horizon + 1)], s, True)
        return ref.brute_certificate(terms, grid)
    return want


def _relaxed_gate_reference(delta, s, horizon):
    def want():
        est, summable = ref.relaxed_expectation(delta, s, horizon, (1, 2, 3, 5, 8, 13, 21))
        return {"limsup_ok": all(e < 1.0 for e in est), "cn_summable": summable}
    return want


def _certificate_task(name, make_deltas, s, with_2s) -> Task:
    """Averaged-sum certificate over a rate sequence built from deltas."""
    def run(api) -> Outcome:
        seq = api.kannan_rate_terms(make_deltas(), s, with_2s_factor=with_2s)
        cert = api.certify_alpha_series(seq)
        return _single(name, _dumps(cert.to_json_dict()), terms=seq.terms, cert=cert)

    def check(pmtk, out: Outcome) -> list[str]:
        terms = ref.rate_terms(make_deltas(), s, with_2s)
        problems = []
        if list(out.context["terms"]) != terms:
            problems.append("rate terms differ from delta^s/(1-delta^s)")
        problems += ref.check_certificate(out.context["cert"].to_json_dict(), terms, pmtk.series.DEFAULT_LAMBDA_GRID)
        return problems

    return Task(name, run, check)


def _float_series_task(name, terms) -> Task:
    def run(api) -> Outcome:
        cert = api.certify_alpha_series(api.RateSequence(terms))
        return _single(name, _dumps(cert.to_json_dict()), cert=cert)

    def check(pmtk, out: Outcome) -> list[str]:
        return ref.check_certificate(out.context["cert"].to_json_dict(), list(terms),
                                     pmtk.series.DEFAULT_LAMBDA_GRID)

    return Task(name, run, check)


def _relaxed_task(name, delta, s, horizon) -> Task:
    probes = (1, 2, 3, 5, 8, 13, 21)

    def run(api) -> Outcome:
        rep = api.check_relaxed_hypotheses(delta, s, horizon, probes)
        return _single(name, _dumps(rep.to_json_dict()), rep=rep)

    def check(pmtk, out: Outcome) -> list[str]:
        rep, problems = out.context["rep"], []
        est, summable = ref.relaxed_expectation(delta, s, horizon, probes)
        if any(abs(a - b) > 1e-12 * max(abs(b), 1e-300) for a, b in zip(rep.limsup_estimates, est)):
            problems.append(f"limsup estimates {rep.limsup_estimates} != {est}")
        if rep.cn_summable is not summable or not rep.accepted:
            problems.append(f"cn_summable={rep.cn_summable}, ratio test says {summable}")
        return problems

    return Task(name, run, check)


def _cauchy_task(pmtk, name, length, grid) -> Task:
    """Cauchy diagnosis and limit scan on x_m = 1/(2m) in E2's open interval.

    p(x, y) = (x - y)^2 + 2, so the sequence is Cauchy with distance limit
    2 but its limit 0 lies outside (0, 1).  A grid point x reads as a limit
    candidate when p(x_m, x) - p(x, x) = (x_m - x)^2 falls under the
    threshold, so candidates can only sit within sqrt(threshold) of 0.
    """
    expr = {"op": "affine", "arg": {"op": "power", "base": {"op": "absdiff"}, "q": 2}, "offset": 2.0}
    space = _space(pmtk, expr, 2.0, [[0.0, 1.0, True, True]])
    pts = [pmtk.Point.of(1.0 / (2.0 * m)) for m in range(1, length + 1)]
    threshold = 1e-6

    def run(api) -> Outcome:
        s = api.counted(space)
        diag = api.detect_cauchy(s, pts[:200], window=20)
        found = api.scan_limit_candidates(s, pts, grid_points=grid, window=20, threshold=threshold)
        doc = {"cauchy": diag.to_json_dict(), "candidates": [list(p.coords) for p in found]}
        return _single(name, _dumps(doc), diag=diag, found=found)

    def check(pmtk, out: Outcome) -> list[str]:
        diag, problems = out.context["diag"], []
        if not (diag.is_cauchy and not diag.is_zero_cauchy and abs(diag.limit_estimate - 2.0) <= 1e-6):
            problems.append(f"Cauchy diagnosis {diag.to_json_dict()}, want limit 2 +/- 1e-6")
        for p in out.context["found"]:
            if abs(p.coords[0]) > math.sqrt(threshold):
                problems.append(f"limit candidate {p.coords[0]} farther than sqrt(threshold) from 0")
        if space.domain.contains(pmtk.Point.of(0.0)):
            problems.append("the true limit 0 lies inside the domain")
        return problems

    return Task(name, run, check, _microloop(space))


def solve_certify(seed: int, workdir: Path, smoke: bool, pmtk) -> list[Task]:
    rng = random.Random(seed)
    H = 500 if smoke else 10_000
    scan_grid = 200 if smoke else 1000

    def band(lo):  # a contraction constant jittered inside a narrow band
        return round(lo + rng.uniform(0.0, 0.002), 6)

    def start():
        return round(rng.uniform(0.9, 1.0), 6)

    line_expr = {"op": "absdiff"}
    line = _space(pmtk, line_expr, 1.0, claim="Metric")
    pt_expr = {"op": "pt", "source": {"op": "max"}}
    pt_max = _space(pmtk, pt_expr, 1.0, claim="Metric")
    tasks = [
        _pair_task("banach-line", line, line_expr, "banach", band(0.97), start(), scan_grid),
        _pair_task("banach-pt-max", pt_max, pt_expr, "banach", band(0.95), start(), scan_grid),
        _pair_task("kannan-line", line, line_expr, "kannan", band(0.93), start(), scan_grid),
        _pair_task("power-line", line, line_expr, "power", band(0.96), start(), scan_grid),
        _pair_task("admissible-line", line, line_expr, "admissible", band(0.94), start(), scan_grid),
    ]

    sq_max = _space(pmtk, {"op": "power", "base": {"op": "max"}, "q": 2}, 2.0)
    sq_abs = _space(pmtk, {"op": "power", "base": {"op": "absdiff"}, "q": 2}, 2.0)

    def d_min(i, j):
        return recip_sq(2, min(i, j))

    def d_first(i, j):
        return recip_sq(2, i)

    e3_grid = tuple(sorted(set(pmtk.series.DEFAULT_LAMBDA_GRID) | {2.0**0.5 * 0.5}))
    e3_gate = pmtk.AlphaSeriesGate(with_2s_factor=True, horizon=H, grid=e3_grid)
    alpha_gate = pmtk.AlphaSeriesGate(with_2s_factor=True, horizon=H)
    relaxed = pmtk.RelaxedCnGate(horizon=200)
    zero = {"point": 0.0, "tol": 1e-8}
    grid_base = rng.choice((8.0, 12.0, 16.0))
    tasks += [
        # E3: the first rate term is sqrt(2)/2 and the pinned grid holds it,
        # so the certificate is lambda = sqrt(2)/2 from index 1
        _family_task("family-e3", sq_max, _scale_family(pmtk, 16.0), "kannan3", "phi_sqrt", d_min,
                     e3_gate, start(), {**zero, "gate": lambda: {"status": "certified", "lambda": 2.0**0.5 * 0.5,
                                                                 "n_lambda": 1}}),
        _family_task("family-e4", sq_abs, _scale_family(pmtk, 4.0), "kannan", "phi_sqrt", d_first,
                     relaxed, start(), {**zero, "gate": _relaxed_gate_reference(d_first, 0.5, 200)}),
        _family_task("family-e5", _space(pmtk, line_expr, 1.0), _jump_family(pmtk), "chatterjea",
                     "phi_identity", e5_delta, relaxed, start(),
                     {"point": 1.0, "tol": 0.0, "gate": _relaxed_gate_reference(e5_delta, 1.0, 200)}),
        _family_task("family-geometric-alpha", sq_abs, _scale_family(pmtk, grid_base), "kannan",
                     "phi_sqrt", d_min, alpha_gate, start(),
                     {**zero, "gate": _alpha_gate_reference(d_min, 0.5, H, pmtk.series.DEFAULT_LAMBDA_GRID)}),
        _family_task("family-geometric-relaxed", sq_max, _scale_family(pmtk, grid_base), "kannan",
                     "phi_sqrt", d_first, relaxed, start(),
                     {**zero, "gate": _relaxed_gate_reference(d_first, 0.5, 200)}),
    ]

    # b is even, so the terms 2/(b - 1 + 2i) run over odd denominators; the
    # parity decides how large the prefix denominators grow, so it is fixed
    a, b = rng.randrange(3, 9), rng.choice((4, 6, 8))
    tasks += [
        _certificate_task("series-harmonic", lambda: [Fraction(1, a + i) for i in range(1, H + 1)], 1.0, False),
        _certificate_task("series-odd-harmonic", lambda: [Fraction(1, b + 2 * i) for i in range(1, H + 1)], 1.0, True),
        _relaxed_task("series-relaxed", d_first, 0.5, 100 if smoke else 1000),
    ]
    # criterion-8 kind: c q^i, one flat sequence per round and three decaying
    for j, flat in enumerate((True, False, False, False)):
        q = 1.0 if flat else rng.uniform(0.3, 0.9995)
        c = rng.uniform(0.05, 3.0)
        tasks.append(_float_series_task(f"series-float-{j}", tuple(c * q**i for i in range(H))))
    tasks.append(_cauchy_task(pmtk, "cauchy-e2", 200 if smoke else 400, 200 if smoke else 2000))
    return tasks


# ---------------------------------------------------------------------------
# derive-replay


def derive_replay(seed: int, workdir: Path, smoke: bool, pmtk) -> list[Task]:
    rng = random.Random(seed)
    hi = round(rng.uniform(1.0, 3.0), 3)
    dom = [[0.0, hi, False, False]]
    x0 = round(rng.uniform(0.0, hi), 3)
    q = rng.choice((1.5, 2.0, 2.5, 3.0))
    c = round(0.9 + rng.uniform(0.0, 0.002), 6)
    # the line metric keeps the Kannan step hypothesis for bases 12 and up
    base = rng.choice((12.0, 16.0))
    seeds = [rng.randrange(2**31) for _ in range(16)]
    series_q, series_c = rng.uniform(0.3, 0.999), rng.uniform(0.05, 3.0)
    series_terms = [series_c * series_q**i for i in range(200)]
    series_deltas = [1.0 / (rng.randrange(3, 9) + i) for i in range(1, 201)]
    return [_session_task(workdir / "session", dom, x0, q, c, base, seeds,
                          series_terms, series_deltas, smoke)]


def _session_task(root: Path, dom, x0, q, c, fam_base, seeds, series_terms, series_deltas, smoke) -> Task:
    """One CLI session: transform chains, checks, solves, series, fixtures.

    Every expected exit code comes from the mathematics of its input: the
    constructions' theorems say each derived space satisfies its claimed
    axioms (exit 0), the squared distance claimed at K = 1 breaks the
    polygon inequality (exit 2), and each series exit follows the
    brute-force certificate.
    """
    one = (1.0, False, 1.0)

    def p(name: str) -> str:
        return str(root / name)

    base_docs = {
        "max": {"oracle": {"op": "max"}, "K": 1.0, "n": 1, "domain": dom, "class": "PartialBMetric",
                "hausdorff": False, "complete": True},
        "absdiff": {"oracle": {"op": "absdiff"}, "K": 1.0, "n": 1, "domain": dom, "class": "Metric",
                    "hausdorff": False, "complete": True},
        "sq-claims-k1": {"oracle": {"op": "power", "base": {"op": "absdiff"}, "q": 2}, "K": 1.0, "n": 1,
                         "domain": dom, "class": "PartialBMetric", "hausdorff": False, "complete": True},
        "neg-oracle": {"oracle": {"op": "affine", "arg": {"op": "absdiff"}, "offset": -0.5}, "K": 1.0,
                       "n": 1, "domain": [CLOSED], "class": "PartialBMetric", "hausdorff": False,
                       "complete": True},
        # the space document exactly as the package README shows it
        "readme": {"oracle": {"op": "max"}, "K": 1.0, "n": 1,
                   "domain": {"bounds": [[0.0, 1.0, False, False]]}, "class": "PartialBMetric",
                   "hausdorff": False, "complete": True},
    }
    # (output, input, extra args, expected min-K interval of the result)
    transforms = [
        ("pt-max", "max", ["--kind", "pt"], one),
        ("dp-max", "max", ["--kind", "dp"], one),
        ("bp-absdiff", "absdiff", ["--kind", "basepoint", "--x0", repr(x0)], one),
        ("pow-max", "max", ["--kind", "power", "--q", repr(q)], one),
        ("sum-max-absdiff", "max", ["--kind", "sum", "--space2", p("absdiff.json")], one),
        ("pt-pow-max", "pow-max", ["--kind", "pt"], one),
        ("pow-bp", "bp-absdiff", ["--kind", "power", "--q", "2.0"], (1.0, False, 2.0)),
        ("sum-bp-dp", "bp-absdiff", ["--kind", "sum", "--space2", p("dp-max.json")], one),
    ]
    checked = [t[0] for t in transforms] + ["sq-claims-k1"]
    # the CLI's default check sampler is 16 grid points per axis, 1000 draws
    grid, count = (4, 100) if smoke else (16, 1000)
    check_sizes = ["--grid-density", str(grid), "--random-count", str(count)] if smoke else []
    fixtures = ["E1-maxpow"] if smoke else ["all"]
    solve_cfgs = {
        "banach": ("banach-pair", {"T1": {"kind": "scale", "factor": c}, "T2": {"kind": "scale", "factor": c},
                                   "k": c, "x0": 1.0}),
        "family": ("family", {"family": {"kind": "geometric", "base": fam_base},
                              "delta": {"kind": "recip-sq", "base": 2, "index": "first"},
                              "gauge": "sqrt", "scheme": "kannan", "gate": {"kind": "relaxed-cn"}, "x0": 1.0}),
    }

    def run(api) -> Outcome:
        root.mkdir(parents=True, exist_ok=True)
        ops: list[tuple[str, bool]] = []
        codes: dict[str, int] = {}
        for name, doc in base_docs.items():
            (root / f"{name}.json").write_text(_dumps(doc) + "\n")

        def cmd(op: str, argv: list[str], outputs=(), ok_codes=(0, 2, 3)) -> None:
            try:
                code, _, _ = api.dispatch(argv, outputs)
            except Exception:  # an uncaught error out of dispatch fails the operation
                code = None
            codes[op] = code
            ops.append((op, code in ok_codes))

        for i, (out, src, args, _) in enumerate(transforms):
            cmd(f"transform:{out}", ["transform", p(f"{src}.json"), *args, "--seed", str(seeds[i]),
                                     "--out", p(f"{out}.json")], [p(f"{out}.json")], ok_codes=(0,))
        for i, name in enumerate(checked):
            cmd(f"check:{name}", ["check", p(f"{name}.json"), "--classify", "--seed", str(seeds[8 + i % 8]),
                                  *check_sizes, "--out", p(f"check-{name}.json")], [p(f"check-{name}.json")])
        cmd("neg-oracle-exit", ["check", p("neg-oracle.json")], ok_codes=(2, 65))
        cmd("readme-domain-doc", ["check", p("readme.json")], ok_codes=(0, 2, 65))
        for name, (scheme, cfg) in solve_cfgs.items():
            cmd(f"solve:{name}", ["solve", "--scheme", scheme, "--space", p("absdiff.json"),
                                  "--config", json.dumps(cfg), "--report-out", p(f"solve-{name}.json"),
                                  "--trace-out", p(f"solve-{name}.csv")],
                [p(f"solve-{name}.json"), p(f"solve-{name}.csv")])
        cmd("series:terms", ["series", "--terms", ",".join(map(repr, series_terms)),
                             "--out", p("series-terms.json")], [p("series-terms.json")])
        cmd("series:deltas", ["series", "--deltas", ",".join(map(repr, series_deltas)), "--s", "1.0",
                              "--with-2s-factor", "--out", p("series-deltas.json")], [p("series-deltas.json")])
        cmd("fixtures", ["fixtures", "run", *fixtures, "--out", p("fixtures")], [p("fixtures")])
        files = sorted(f for f in root.rglob("*") if f.is_file())
        blob = b"".join(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() for f in files)
        return Outcome(blob, ops, {"codes": codes})

    def check(pmtk, out: Outcome) -> list[str]:
        codes, problems = out.context["codes"], []

        def load(name):
            return json.loads((root / name).read_text())

        for name, _, _, min_k in transforms:
            doc = load(f"{name}.json")
            problems += _derived_doc_problems(name, doc, q, x0)
            if codes[f"check:{name}"] != 0:
                problems.append(f"check:{name} exited {codes[f'check:{name}']}, mathematics says 0")
            problems += _session_check_report(pmtk, name, doc, load(f"check-{name}.json"),
                                              {"claim_holds": True, "min_K": min_k}, grid, count)
        bad = base_docs["sq-claims-k1"]
        if codes["check:sq-claims-k1"] != 2:
            problems.append(f"check:sq-claims-k1 exited {codes['check:sq-claims-k1']}, the K = 1 claim fails")
        problems += _session_check_report(pmtk, "sq-claims-k1", bad, load("check-sq-claims-k1.json"),
                                          {"claim_holds": False, "min_K": (1.0, True, 2.0)}, grid, count)
        problems += _solve_problems(load("solve-banach.json"), (root / "solve-banach.csv").read_text(),
                                    c, codes["solve:banach"])
        fam = load("solve-family.json")["report"]
        if codes["solve:family"] != 0 or abs(fam["point"][0]) > 1e-8 or not fam["converged"]:
            problems.append(f"family solve exited {codes['solve:family']} at {fam['point']}")
        for name, terms in (("terms", series_terms),
                            ("deltas", ref.rate_terms(series_deltas, 1.0, True))):
            want = ref.brute_certificate(terms, pmtk.series.DEFAULT_LAMBDA_GRID)
            got = load(f"series-{name}.json")["certificate"]
            if got != want:
                problems.append(f"series:{name} certificate {got} != brute-force {want}")
            want_code = {"certified": 0, "refuted_at_horizon": 2, "inconclusive": 3}[want["status"]]
            if codes[f"series:{name}"] != want_code:
                problems.append(f"series:{name} exited {codes[f'series:{name}']}, want {want_code}")
        if codes["fixtures"] != 0:
            problems.append(f"fixtures exited {codes['fixtures']}")
        problems += _fixture_problems(root / "fixtures")
        return problems

    def extra(api, out: Outcome) -> None:
        for i, name in enumerate(checked):
            space = api.pmtk.load_space(p(f"{name}.json"))
            sampler = api.Sampler(seed=seeds[8 + i % 8], region=space.domain, grid_density=grid,
                                  random_count=count)
            _breakdown(api, space, sampler, "exact")
            api.microloop(space, _sampler_pairs(api.pmtk, space), _is_derived(space))

    return Task("session", run, check, extra)


def _derived_doc_problems(name: str, doc: dict, q: float, x0: float) -> list[str]:
    """Theory's coefficient, order and class for each construction, and
    closed forms: pt(max) = |x - y| to 1e-12, dp bitwise 0 on the diagonal."""
    problems = []
    want = {
        "pt-max": (1.0, "MetricType"), "dp-max": (1.0, "MetricType"), "bp-absdiff": (1.0, "KPMS"),
        "pow-max": (2.0 ** (q - 1.0), "KPMS"), "sum-max-absdiff": (1.0, "KPMS"),
        "pt-pow-max": (2.0 ** (q - 1.0), "MetricType"), "pow-bp": (2.0, "KPMS"), "sum-bp-dp": (1.0, "KPMS"),
    }[name]
    if (doc["K"], doc["class"], doc["n"]) != (want[0], want[1], 1):
        problems.append(f"{name}: K={doc['K']} class={doc['class']} n={doc['n']}, theory says {want}")
    lo, hi = doc["domain"][0][:2]
    xs = np.linspace(lo, hi, 257).reshape(-1, 1)
    ys = xs[::-1].copy()
    f = ref.compile_formula(doc["oracle"])
    if name == "pt-max" and np.abs(f(xs, ys) - np.abs(xs - ys)[:, 0]).max() > 1e-12:
        problems.append("pt(max) differs from |x - y| by more than 1e-12")
    if name == "dp-max" and (f(xs, xs) != 0.0).any():
        problems.append("dp(max) is not bitwise 0 on the diagonal")
    if name == "bp-absdiff" and doc["oracle"]["x0"] != [x0]:
        problems.append(f"basepoint {doc['oracle']['x0']} != {x0}")
    return problems


def _session_check_report(pmtk, name, doc, written, expect, grid, count) -> list[str]:
    report = written["report"]
    region = pmtk.Box.from_json(doc["domain"])
    sampler = pmtk.Sampler(seed=written["meta"]["seed"], region=region, grid_density=grid, random_count=count)
    return [f"check:{name}: {x}" for x in ref.check_battery_report(doc, report, sampler, "exact", expect)]


def _solve_problems(doc: dict, csv: str, c: float, code) -> list[str]:
    problems = []
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    xs = [float(r[1]) for r in rows]
    want = ref.scale_orbit(1.0, [c], len(xs) - 1)
    if xs != want:
        problems.append("solve trace differs from x_m = c x_{m-1}")
    rep = doc["report"]
    if code != 0 or not rep["converged"] or abs(rep["point"][0]) > 1e-8:
        problems.append(f"banach solve exited {code}, point {rep['point']}")
    if rep["steps_taken"] != len(xs) - 1:
        problems.append("report and trace disagree on the step count")
    return problems


def _fixture_problems(fx_dir: Path) -> list[str]:
    """Frozen fixture values against their closed forms."""
    problems = []
    closed = {
        "E1-maxpow": {"dist_1_2": max(1.0, 2.0) ** 2 + (1.0 - 2.0) ** 2, "self_3": 3.0**2},
        "E2-open-interval": {"dist_q1_q3": (0.75 - 0.25) ** 2 + 2.0, "self_half": 2.0},
        "E5-chatterjea-family": {"fixed_coord": 1.0},
    }
    for path in sorted(fx_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if not doc["all_passed"]:
            problems.append(f"fixture {doc['name']} did not pass")
        for key, value in closed.get(doc["name"], {}).items():
            if doc["observed"][key] != value:
                problems.append(f"fixture {doc['name']}: {key} = {doc['observed'][key]}, closed form {value}")
        if doc["name"] == "E2-open-interval" and abs(doc["observed"]["cauchy_limit"] - 2.0) > 1e-6:
            problems.append("fixture E2: Cauchy limit is not 2")
        if doc["name"] == "E3-kannan-family" and doc["observed"]["gate_lambda"] != 2.0**0.5 * 0.5:
            problems.append("fixture E3: gate lambda is not sqrt(2)/2")
    if not problems and not any(fx_dir.glob("*.json")):
        problems.append("no fixture results were written")
    return problems


WORKLOADS = {
    "check-battery": check_battery,
    "solve-certify": solve_certify,
    "derive-replay": derive_replay,
}
