"""End-to-end acceptance battery.

Each test is one acceptance criterion and prints a single pass line when it
holds; pytest -v therefore shows one verdict line per criterion.  Numeric
tolerances are stated inline and are not loosened anywhere.  The final test
replays the first eight criteria twice and requires byte-identical report
JSON, so everything here must stay free of timestamps and unseeded sampling.
"""

import json
import math
import time
from fractions import Fraction

from pmtk.axioms import (
    check_metric_type,
    check_pm1,
    check_pm2,
    check_pm3,
    check_pm4,
    estimate_min_K,
)
from pmtk.fixtures import e3_delta, e4_delta, e5_delta, get_fixture
from pmtk.series import (
    DEFAULT_LAMBDA_GRID,
    RateSequence,
    certify_alpha_series,
    product_terms_Cn,
)
from pmtk.solvers import (
    DEFAULT_PROBES,
    AlphaSeriesGate,
    RelaxedCnGate,
    detect_cauchy,
    per_map_fixed_point_check,
    phi_identity,
    phi_sqrt,
    scan_limit_candidates,
    solve_family,
    solve_pair_banach,
    solve_pair_kannan,
    verify_bound,
)
from pmtk.spaces import (
    Box,
    Point,
    Sampler,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    eval_distance,
)
from pmtk.transforms import from_metric_with_basepoint, induced_dp, to_pt

import numpy as np


def _metric_line():
    return SpaceDescriptor(
        oracle=build_oracle({"op": "absdiff"}),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box.closed(0.0, 1.0),
        class_claim=SpaceClass.METRIC,
    )


def _max_line():
    return SpaceDescriptor(
        oracle=build_oracle({"op": "max"}),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box.closed(0.0, 1.0),
        class_claim=SpaceClass.PARTIAL_B_METRIC,
    )


# ---------------------------------------------------------------------------
# criterion payloads; each returns a JSON-ready dict so the determinism
# criterion can replay all of them and compare bytes


def _run_criterion_1():
    fx = get_fixture("E3-kannan-family")
    cfg = fx.scheme_config
    started = time.perf_counter()
    gate = AlphaSeriesGate(
        with_2s_factor=True, horizon=cfg["gate"]["horizon"], grid=tuple(cfg["gate"]["grid"])
    )
    report = solve_family(
        fx.space, fx.maps, cfg["x0"], scheme=cfg["scheme"], F=phi_sqrt(),
        delta=e3_delta, gate=gate,
    )
    elapsed = time.perf_counter() - started
    return {
        "fixed_coord": report.point.coords[0],
        "converged": report.converged,
        "residuals": dict(sorted(report.residuals.items())),
        "gate": report.extras["gate"],
        "payload_elapsed": None,  # kept out of the byte comparison
    }, elapsed, report


def test_criterion_01_family_solver_with_root2_certificate():
    payload, elapsed, report = _run_criterion_1()
    assert payload["converged"]
    assert abs(payload["fixed_coord"]) <= 1e-8
    probe_keys = {f"T_{m}" for m in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 103)}
    assert set(payload["residuals"]) == probe_keys
    assert all(r <= 1e-8 for r in payload["residuals"].values())
    gate = payload["gate"]
    assert gate["kind"] == "alpha-series"
    assert gate["status"] == "certified"
    assert gate["lambda"] == math.sqrt(2.0) / 2.0
    assert gate["n_lambda"] == 1
    assert gate["horizon_checked"] == 10_000
    assert elapsed < 1.0
    print("criterion 1: PASS (certified family solve, lambda = sqrt(2)/2, n = 1)")


def _run_criterion_2():
    deltas = [e4_delta(i, i + 1) for i in range(1, 21)]
    products = product_terms_Cn(deltas, 0.5)
    exact = [c == Fraction(1, 2 ** (n * (n + 1) // 2)) for n, c in enumerate(products, start=1)]
    fx = get_fixture("E4-relaxed-family")
    report = solve_family(
        fx.space, fx.maps, fx.scheme_config["x0"], scheme="kannan", F=phi_sqrt(),
        delta=e4_delta, gate=RelaxedCnGate(horizon=200),
    )
    return {
        "products": [str(c) for c in products],
        "all_exact": all(exact),
        "fixed_coord": report.point.coords[0],
        "converged": report.converged,
    }


def test_criterion_02_dyadic_products_stay_exact():
    payload = _run_criterion_2()
    assert payload["all_exact"]
    assert payload["products"][19] == f"1/{2 ** 210}"
    assert payload["converged"]
    assert abs(payload["fixed_coord"]) <= 1e-8
    print("criterion 2: PASS (C_n = 2^(-n(n+1)/2) exactly for n <= 20, orbit reaches 0)")


def _run_criterion_3():
    deltas = [e5_delta(i, i + 1) for i in range(1, 51)]
    products = product_terms_Cn(deltas, 1.0)
    worst_rel = max(
        abs(float(c) - float(Fraction(10, 11) ** n)) / float(Fraction(10, 11) ** n)
        for n, c in enumerate(products, start=1)
    )
    fx = get_fixture("E5-chatterjea-family")
    report = solve_family(
        fx.space, fx.maps, fx.scheme_config["x0"], scheme="chatterjea", F=phi_identity(),
        delta=e5_delta, gate=RelaxedCnGate(horizon=200),
    )
    checks = per_map_fixed_point_check(
        fx.space, fx.maps, report, delta=e5_delta, indices=DEFAULT_PROBES, grid_points=1000
    )
    return {
        "worst_rel": worst_rel,
        "exact_products": all(
            c == Fraction(10, 11) ** n for n, c in enumerate(products, start=1)
        ),
        "fixed_coord": report.point.coords[0],
        "per_map": [{"index": c.index, "verdict": c.verdict, "residual": c.residual} for c in checks],
    }


def test_criterion_03_jump_family_fixes_one_exactly():
    payload = _run_criterion_3()
    assert payload["fixed_coord"] == 1.0
    assert payload["worst_rel"] <= 1e-12
    assert payload["exact_products"]
    assert len(payload["per_map"]) == len(DEFAULT_PROBES)
    assert all(row["verdict"] == "unique" for row in payload["per_map"])
    print("criterion 3: PASS (fixed point exactly 1, C_n = (10/11)^n, per-map uniqueness)")


def _run_criterion_4():
    fx = get_fixture("E2-open-interval")
    pts = [Point.of(1.0 / (2.0 * m)) for m in range(1, 201)]
    diag = detect_cauchy(fx.space, pts, window=20)
    candidates = scan_limit_candidates(fx.space, pts, grid_points=1000, window=20)
    return {
        "limit_estimate": diag.limit_estimate,
        "is_cauchy": diag.is_cauchy,
        "is_zero_cauchy": diag.is_zero_cauchy,
        "candidates": [list(c.coords) for c in candidates],
    }


def test_criterion_04_cauchy_without_a_limit_point():
    payload = _run_criterion_4()
    assert payload["is_cauchy"]
    assert 2.0 - 1e-6 <= payload["limit_estimate"] <= 2.0 + 1e-6
    assert payload["is_zero_cauchy"] is False
    assert payload["candidates"] == []
    print("criterion 4: PASS (0-Cauchy toward 2, no limit point in the open interval)")


def _run_criterion_5():
    fx = get_fixture("E1-maxpow")
    space = fx.space
    started = time.perf_counter()
    pair_sampler = Sampler(seed=20240801, region=space.domain, grid_density=24, random_count=2_000)
    chain_sampler = Sampler(seed=20240801, region=space.domain, grid_density=24, random_count=10_000)
    core = {
        "pm1": check_pm1(space, pair_sampler).verdict,
        "pm2": check_pm2(space, pair_sampler).verdict,
        "pm3": check_pm3(space, pair_sampler).verdict,
    }
    pm4 = check_pm4(space, chain_sampler, K=4.0)
    min_K = estimate_min_K(space, chain_sampler)
    unweighted = check_metric_type(space, pair_sampler)
    d1 = unweighted["D1"]
    elapsed = time.perf_counter() - started
    payload = {
        "core": core,
        "pm4": pm4.verdict,
        "pm4_samples": pm4.samples_checked,
        "min_K": min_K,
        "d1": d1.verdict,
        "d1_witness": [list(p.coords) for p in d1.witnesses[0].points] if d1.witnesses else None,
    }
    return payload, elapsed


def test_criterion_05_squared_space_is_weighted_but_not_plain():
    payload, elapsed = _run_criterion_5()
    assert payload["core"] == {"pm1": "pass", "pm2": "pass", "pm3": "pass"}
    assert payload["pm4"] == "pass"
    assert payload["pm4_samples"] >= 10_000
    assert 1.0 < payload["min_K"] <= 4.0
    assert payload["d1"] == "fail"
    assert payload["d1_witness"] is not None
    assert elapsed < 2.0
    print("criterion 5: PASS (pm1-pm4 at K=4 over 10^4 chains, D1 fails with witness)")


def _run_criterion_6():
    max_space = _max_line()
    sampler = Sampler(seed=20240806, region=max_space.domain, grid_density=24, random_count=10_000)

    flat = to_pt(max_space)
    worst_pt = 0.0
    for x, y in sampler.pairs():
        got = eval_distance(flat, x, y)
        want = abs(x.coords[0] - y.coords[0])
        worst_pt = max(worst_pt, abs(got - want))

    dp = induced_dp(max_space)
    diag_bad = sum(1 for p in sampler.points(2_000) if eval_distance(dp, p, p) != 0.0)
    off_bad = 0
    for x, y in sampler.pairs():
        if x.coords == y.coords:
            continue
        if eval_distance(dp, x, y) != eval_distance(max_space, x, y):
            off_bad += 1

    metric = _metric_line()
    lifted = from_metric_with_basepoint(metric, 0.0)
    pair_sampler = Sampler(seed=20240806, region=lifted.domain, grid_density=24, random_count=10_000)
    chain_sampler = Sampler(seed=20240806, region=lifted.domain, grid_density=16, random_count=3_400)
    core = {
        "pm1": check_pm1(lifted, pair_sampler).verdict,
        "pm2": check_pm2(lifted, pair_sampler).verdict,
        "pm3": check_pm3(lifted, pair_sampler).verdict,
    }
    pm4 = check_pm4(lifted, chain_sampler, chain_len=3, K=1.0, chain_mode="upto")
    return {
        "worst_pt": worst_pt,
        "diag_bad": diag_bad,
        "off_bad": off_bad,
        "lifted_core": core,
        "lifted_pm4": pm4.verdict,
        "lifted_pm4_samples": pm4.samples_checked,
    }


def test_criterion_06_transforms_round_trip_cleanly():
    payload = _run_criterion_6()
    assert payload["worst_pt"] <= 1e-12
    assert payload["diag_bad"] == 0
    assert payload["off_bad"] == 0
    assert payload["lifted_core"] == {"pm1": "pass", "pm2": "pass", "pm3": "pass"}
    assert payload["lifted_pm4"] == "pass"
    assert payload["lifted_pm4_samples"] >= 10_000
    print("criterion 6: PASS (pt matches |x-y|, dp exact, basepoint lift satisfies pm1-pm4)")


def _run_criterion_7():
    line = _metric_line()
    half = SelfMap.scalar(lambda t: 0.5 * t, label="half")
    banach = solve_pair_banach(line, half, half, x0=1.0, k=0.5)
    bound = verify_bound(
        line, banach.trace, K=1.0, rate=0.5, seed_dist=banach.trace.step_dist[0], tol=1e-12
    )
    quarter = SelfMap.scalar(lambda t: 0.25 * t, label="quarter")
    kannan = solve_pair_kannan(line, quarter, quarter, x0=1.0, k=0.4)
    steps = kannan.trace.step_dist
    ratios = [steps[i + 1] / steps[i] for i in range(len(steps) - 1) if steps[i] > 0.0]
    return {
        "banach_converged": banach.converged,
        "bound_satisfied": bound.satisfied,
        "bound_indices_even": all(e % 2 == 0 for e in bound.indices),
        "kannan_converged": kannan.converged,
        "kannan_envelope": kannan.assumptions["envelope_rate"],
        "max_ratio": max(ratios),
    }


def test_criterion_07_pair_solvers_respect_their_envelopes():
    payload = _run_criterion_7()
    assert payload["banach_converged"]
    assert payload["bound_satisfied"]
    assert payload["bound_indices_even"]
    assert payload["kannan_converged"]
    assert abs(payload["kannan_envelope"] - 2.0 / 3.0) <= 1e-15
    assert payload["max_ratio"] <= 2.0 / 3.0 + 1e-12
    print("criterion 7: PASS (geometric envelope at tol 1e-12, step ratios under 2/3)")


def _brute_status(terms, lam):
    # independent plain-loop re-derivation of the averaged-sum verdict for a
    # single lambda, with the same left-to-right float accumulation
    H = len(terms)
    prefix = []
    acc = 0.0
    for t in terms:
        acc = acc + float(t)
        prefix.append(acc)
    last_violation = 0
    for L in range(1, H + 1):
        if prefix[L - 1] > lam * L:
            last_violation = L
    if last_violation + 1 <= H // 2:
        return "certified"
    averages = [prefix[L - 1] / L for L in range(1, H + 1)]
    window = max(2, min(50, H // 4))
    tail = averages[-window:]
    descending = all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    if descending and averages[-1] > lam:
        return "inconclusive"
    for L in range(H, 0, -1):
        if prefix[L - 1] > lam * L:
            return "refuted_at_horizon"
    return "inconclusive"


def _run_criterion_8():
    horizon = 1000
    agreements = 0
    comparisons = 0
    full_statuses = []
    for trial, child in enumerate(np.random.SeedSequence(20240811).spawn(100)):
        rng = np.random.default_rng(child)
        flat = rng.random() < 0.25
        q = 1.0 if flat else float(rng.uniform(0.3, 0.9995))
        c = float(rng.uniform(0.05, 3.0))
        terms = tuple(c * q**i for i in range(horizon))
        seq = RateSequence(terms, provenance=f"trial {trial}")
        brute_by_lambda = {}
        for lam in DEFAULT_LAMBDA_GRID:
            cert = certify_alpha_series(seq, (lam,))
            brute = _brute_status(terms, lam)
            brute_by_lambda[lam] = brute
            comparisons += 1
            if cert.status == brute:
                agreements += 1
        full = certify_alpha_series(seq)
        full_statuses.append(full.status)
        any_brute_cert = any(v == "certified" for v in brute_by_lambda.values())
        if (full.status == "certified") != any_brute_cert:
            comparisons += 1  # force a visible mismatch in the assertions
    return {
        "comparisons": comparisons,
        "agreements": agreements,
        "full_statuses": full_statuses,
    }


def test_criterion_08_certifier_matches_brute_force_partial_sums():
    payload = _run_criterion_8()
    assert payload["comparisons"] == 100 * len(DEFAULT_LAMBDA_GRID)
    assert payload["agreements"] == payload["comparisons"]
    seen = set(payload["full_statuses"])
    assert "certified" in seen and "refuted_at_horizon" in seen
    print("criterion 8: PASS (1100/1100 lambda verdicts agree with the brute checker)")


def _full_report():
    c1, _, _ = _run_criterion_1()
    c5, _ = _run_criterion_5()
    return {
        "criterion_1": c1,
        "criterion_2": _run_criterion_2(),
        "criterion_3": _run_criterion_3(),
        "criterion_4": _run_criterion_4(),
        "criterion_5": c5,
        "criterion_6": _run_criterion_6(),
        "criterion_7": _run_criterion_7(),
        "criterion_8": _run_criterion_8(),
    }


def test_criterion_09_reports_are_byte_identical_across_runs():
    first = json.dumps(_full_report(), indent=2, sort_keys=True).encode()
    second = json.dumps(_full_report(), indent=2, sort_keys=True).encode()
    assert first == second
    print("criterion 9: PASS (two seeded replays produce byte-identical report JSON)")
