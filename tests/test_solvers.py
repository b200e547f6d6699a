"""Orbit solvers: gauges, hypothesis logs, bound checks, diagnostics."""

import math
from fractions import Fraction

import pytest

from pmtk.errors import ConstructionError, GateError, InputError
from pmtk.solvers import (
    AdmissibilityConfig,
    AlphaSeriesGate,
    PhiFunction,
    PsiFunction,
    RelaxedCnGate,
    detect_cauchy,
    iterate_power,
    per_map_fixed_point_check,
    phi_identity,
    phi_power,
    phi_sqrt,
    psi_max,
    psi_sum,
    residual,
    scan_limit_candidates,
    solve_admissible,
    solve_family,
    solve_pair_banach,
    solve_pair_kannan,
    solve_pair_power,
    trace_from_points,
    uniqueness_scan,
    verify_bound,
)
from pmtk.spaces import (
    Box,
    MapFamily,
    Point,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    eval_distance,
)


def line_space(lo=0.0, hi=1.0, spec=None, K=1.0, claim=SpaceClass.METRIC):
    return SpaceDescriptor(
        oracle=build_oracle(spec or {"op": "absdiff"}),
        coeff_K=K,
        polygon_order_n=1,
        domain=Box.closed(lo, hi),
        class_claim=claim,
    )


def scale_map(c, label=None):
    return SelfMap.scalar(lambda t: c * t, label=label or f"x{c:g}")


def reciprocal_family(base=5.0):
    return MapFamily(
        lambda i: SelfMap.scalar(lambda t, i=i: t / (base * i), label=f"T_{i}"),
        label="reciprocal",
    )


# ---------------------------------------------------------------------------
# gauges and penalties


def test_builtin_gauges_evaluate():
    assert phi_sqrt()(0.25) == 0.5
    assert phi_identity()(0.7) == 0.7
    assert phi_power(0.5)(4.0) == 2.0
    with pytest.raises(InputError):
        phi_sqrt()(-1.0)


def test_gauge_rejects_bad_degree():
    with pytest.raises(InputError):
        phi_power(0.0)
    with pytest.raises(InputError):
        PhiFunction(math.sqrt, degree_s=1.5)


def test_gauge_rejects_nonvanishing_origin():
    with pytest.raises(InputError, match="vanish"):
        PhiFunction(lambda t: t + 1.0, degree_s=1.0)


def test_gauge_rejects_decreasing_evaluator():
    with pytest.raises(InputError, match="non-decreasing"):
        PhiFunction(lambda t: -t if t > 2.0 else t, degree_s=1.0)


def test_gauge_rejects_jump_discontinuity():
    with pytest.raises(InputError, match="discontinuous"):
        PhiFunction(lambda t: 0.0 if t < 2.0 else 1.0, degree_s=1.0)


def test_gauge_rejects_superadditive_evaluator():
    with pytest.raises(InputError, match="sub-additive"):
        PhiFunction(lambda t: t * t, degree_s=1.0)


def test_gauge_rejects_wrong_homogeneity_degree():
    with pytest.raises(InputError, match="homogeneous"):
        PhiFunction(math.sqrt, degree_s=1.0)


def test_penalty_validation_and_call():
    psi = psi_sum(2)
    assert psi(0.25, 0.5) == 0.75
    assert psi_max(3)(0.1, 0.7, 0.2) == 0.7
    with pytest.raises(InputError):
        psi(0.1, 0.2, 0.3)
    with pytest.raises(InputError):
        PsiFunction(lambda a, b: a + b + 1.0, arity=2)
    with pytest.raises(InputError):
        PsiFunction(lambda a, b: 0.0, arity=2)
    with pytest.raises(InputError):
        PsiFunction(lambda a, b, c, d: a, arity=4)


# ---------------------------------------------------------------------------
# orbit plumbing


def test_iterate_power_composes():
    T = scale_map(0.5)
    assert iterate_power(T, 1) is T
    cubed = iterate_power(T, 3)
    assert cubed(Point.of(0.8)).coords == (0.1,)
    assert cubed.label.endswith("^3")
    with pytest.raises(InputError):
        iterate_power(T, 0)
    with pytest.raises(InputError):
        iterate_power(T, 1.5)


def test_residual_compares_against_both_self_distances():
    sq_max = line_space(spec={"op": "power", "base": {"op": "max"}, "q": 2.0}, K=2.0, claim=SpaceClass.KPMS)
    T = scale_map(0.5)
    # p(x, Tx) = x^2 equals p(x, x), but p(Tx, Tx) = x^2/4 lags behind
    assert residual(sq_max, 0.5, T) == 0.25 - 0.0625
    assert residual(sq_max, 0.0, T) == 0.0
    line = line_space()
    assert residual(line, 0.5, T) == 0.25


def test_trace_from_points_wraps_sequences():
    sp = line_space()
    trace = trace_from_points(sp, [1.0, 0.5, 0.25])
    assert trace.step_dist == (0.5, 0.25)
    assert trace.self_dist == (0.0, 0.0, 0.0)
    assert not trace.converged
    assert trace.stop_reason == "synthetic"
    assert trace.final.coords == (0.25,)
    assert trace.steps_taken == 2
    with pytest.raises(InputError):
        trace_from_points(sp, [1.0])


def test_verify_bound_even_index_envelope():
    sp = line_space()
    trace = trace_from_points(sp, [2.0**-n for n in range(11)])
    good = verify_bound(sp, trace, K=1.0, rate=0.5, seed_dist=0.5)
    assert good.satisfied
    assert good.indices == tuple(range(0, 10, 2))
    # K rate^e/(1-rate) * seed = 2^-e for this orbit
    assert good.theoretical[0] == 1.0
    assert all(e <= t for t, e in zip(good.theoretical, good.empirical))
    bad = verify_bound(sp, trace, K=1.0, rate=0.25, seed_dist=0.5)
    assert not bad.satisfied
    with pytest.raises(InputError):
        verify_bound(sp, trace, K=1.0, rate=1.0, seed_dist=0.5)


# ---------------------------------------------------------------------------
# alternating pair solvers


def test_banach_pair_on_exact_halving():
    sp = line_space()
    half = scale_map(0.5)
    rep = solve_pair_banach(sp, half, half, x0=1.0, k=0.5)
    assert rep.converged
    assert rep.trace.stop_reason == "step_tol"
    # halving in binary keeps the one-step contraction bitwise tight
    assert rep.worst_slack == 0.0
    assert rep.bound_check is not None and rep.bound_check.satisfied
    assert rep.checks_passed
    assert rep.residuals["T1"] <= 1e-10
    assert rep.extras["scheme"] == "banach-pair"
    assert not rep.extras["hypothesis_violated"]
    doc = rep.to_json_dict()
    assert doc["converged"] is True
    assert doc["stop_reason"] == "step_tol"


def test_banach_pair_rejects_bad_constant_and_start():
    sp = line_space()
    half = scale_map(0.5)
    with pytest.raises(InputError):
        solve_pair_banach(sp, half, half, x0=1.0, k=1.0)
    with pytest.raises(InputError):
        solve_pair_banach(sp, half, half, x0=2.0, k=0.5)
    with pytest.raises(InputError):
        solve_pair_banach(sp, half, half, x0=1.0, k=0.5, max_iter=0)


def test_banach_pair_halts_on_violated_step_hypothesis():
    sp = line_space()
    rep = solve_pair_banach(sp, scale_map(1 / 3), scale_map(1 / 5), x0=1.0, k=0.2)
    assert not rep.converged
    assert rep.trace.stop_reason == "hypothesis_violated"
    assert rep.extras["hypothesis_violated"]
    assert rep.worst_slack < 0


def test_banach_pair_can_record_violations_without_halting():
    sp = line_space()
    rep = solve_pair_banach(
        sp, scale_map(1 / 3), scale_map(1 / 5), x0=1.0, k=0.2, halt_on_violation=False
    )
    assert rep.converged
    assert rep.extras["hypothesis_violated"]
    assert rep.worst_slack < 0
    assert not rep.checks_passed


def test_banach_pair_exhausts_iteration_budget():
    sp = line_space()
    rep = solve_pair_banach(sp, scale_map(0.9), scale_map(0.9), x0=1.0, k=0.9, max_iter=5)
    assert not rep.converged
    assert rep.trace.stop_reason == "max_iter"
    assert rep.bound_check is None


def test_orbit_escape_is_a_construction_error():
    sp = line_space()
    outward = SelfMap.scalar(lambda t: t + 0.5)
    with pytest.raises(ConstructionError):
        solve_pair_banach(sp, outward, outward, x0=0.75, k=0.5)


def test_power_pair_reports_original_residuals():
    sp = line_space()
    half = scale_map(0.5)
    rep = solve_pair_power(sp, half, half, x0=1.0, k=0.3, r1=2, r2=3)
    assert rep.converged
    assert rep.extras["scheme"] == "banach-pair-power"
    assert rep.extras["powers"] == [2, 3]
    assert rep.extras["original_residuals"]["T1"] <= 1e-9


def test_kannan_pair_respects_coefficient_cap():
    sp = line_space()
    quarter = scale_map(0.25)
    rep = solve_pair_kannan(sp, quarter, quarter, x0=1.0, k=0.25)
    assert rep.converged
    assert rep.worst_slack is not None and rep.worst_slack >= 0.0
    assert rep.assumptions["envelope_rate"] == pytest.approx(1 / 3)
    assert rep.bound_check.satisfied
    wide = line_space(spec={"op": "power", "base": {"op": "absdiff"}, "q": 2.0}, K=4.0, claim=SpaceClass.KPMS)
    with pytest.raises(InputError, match="0.25"):
        solve_pair_kannan(wide, quarter, quarter, x0=1.0, k=0.25)


# ---------------------------------------------------------------------------
# admissible single-map solver


def quarter_config(beta_ceiling=0.6):
    return AdmissibilityConfig(
        alpha=lambda x, y: 2.0,
        beta=lambda x, y: 0.5,
        C_alpha=2.0,
        C_beta=beta_ceiling,
    )


def test_admissible_solver_happy_path():
    sp = line_space()
    rep = solve_admissible(sp, scale_map(0.25), x0=1.0, config=quarter_config())
    assert rep.converged
    assert rep.checks_passed
    assert rep.worst_slack is not None and rep.worst_slack >= 0.0
    labels = {e.label for e in rep.hypothesis_log}
    assert labels == {"alpha-floor", "beta-ceiling", "weighted-contraction"}
    assert rep.assumptions["envelope_rate"] == 0.3
    assert rep.bound_check.satisfied


def test_admissible_gate_requires_rate_to_clear_coefficient():
    sp = line_space()
    cfg = AdmissibilityConfig(lambda x, y: 1.0, lambda x, y: 1.0, C_alpha=1.0, C_beta=2.0)
    with pytest.raises(InputError, match="C_beta"):
        solve_admissible(sp, scale_map(0.25), x0=1.0, config=cfg)


def test_admissible_rejects_inadmissible_start():
    sp = line_space()
    cfg = AdmissibilityConfig(lambda x, y: 1.0, lambda x, y: 0.5, C_alpha=2.0, C_beta=0.6)
    with pytest.raises(InputError, match="not admissible"):
        solve_admissible(sp, scale_map(0.25), x0=1.0, config=cfg)
    high_beta = AdmissibilityConfig(lambda x, y: 2.0, lambda x, y: 0.7, C_alpha=2.0, C_beta=0.6)
    with pytest.raises(InputError, match="not admissible"):
        solve_admissible(sp, scale_map(0.25), x0=1.0, config=high_beta)


def test_admissible_halts_when_weights_decay():
    sp = line_space()
    cfg = AdmissibilityConfig(
        alpha=lambda x, y: 2.0 if x.coords[0] >= 0.1 else 1.0,
        beta=lambda x, y: 0.5,
        C_alpha=2.0,
        C_beta=0.6,
    )
    rep = solve_admissible(sp, scale_map(0.25), x0=1.0, config=cfg)
    assert not rep.converged
    assert rep.trace.stop_reason == "hypothesis_violated"
    assert rep.extras["hypothesis_violated"]


def test_admissibility_config_validation():
    with pytest.raises(InputError):
        AdmissibilityConfig(lambda x, y: 1.0, lambda x, y: 0.5, C_alpha=0.0, C_beta=0.5)
    with pytest.raises(InputError):
        AdmissibilityConfig(lambda x, y: 1.0, lambda x, y: 0.5, C_alpha=1.0, C_beta=-0.1)


# ---------------------------------------------------------------------------
# countable family solver


def test_family_solver_with_series_gate():
    sp = line_space()
    fam = reciprocal_family()
    rep = solve_family(
        sp,
        fam,
        x0=1.0,
        scheme="kannan",
        F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4),
        gate=AlphaSeriesGate(horizon=200),
    )
    assert rep.converged
    assert rep.checks_passed
    assert rep.extras["gate"]["kind"] == "alpha-series"
    assert rep.extras["gate"]["status"] == "certified"
    assert rep.extras["gate"]["lambda"] == 0.7
    assert rep.extras["gate"]["n_lambda"] == 1
    assert rep.extras["noncommon_probes"] == []
    assert rep.bound_check.satisfied
    assert all(e.label == "kannan-step" for e in rep.hypothesis_log)
    # the logged right side is delta (steps[-2] + steps[-1]) under the identity gauge
    s = rep.trace.step_dist
    for entry in rep.hypothesis_log:
        m = entry.step
        assert entry.lhs == s[m - 1]
        assert entry.rhs == pytest.approx(0.25 * (s[m - 2] + s[m - 1]), abs=1e-15)


def test_family_solver_gate_rejection_blocks_iteration():
    sp = line_space()
    fam = reciprocal_family()
    with pytest.raises(GateError, match="averaged-series"):
        solve_family(
            sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
            delta=lambda i, j: 0.45, gate=AlphaSeriesGate(horizon=50),
        )
    with pytest.raises(GateError, match="relaxed-hypothesis"):
        solve_family(
            sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
            delta=lambda i, j: 0.6, gate=RelaxedCnGate(horizon=40),
        )


def test_family_solver_with_relaxed_gate():
    sp = line_space()
    fam = reciprocal_family()
    rep = solve_family(
        sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4), gate=RelaxedCnGate(horizon=60),
    )
    assert rep.converged
    assert rep.extras["gate"]["kind"] == "relaxed-cn"
    assert rep.extras["gate"]["cn_summable"] is True


def test_family_solver_validates_scheme_and_penalty():
    sp = line_space()
    fam = reciprocal_family()
    kwargs = dict(x0=1.0, F=phi_identity(), delta=lambda i, j: 0.25, gate=AlphaSeriesGate(horizon=40))
    with pytest.raises(InputError, match="scheme"):
        solve_family(sp, fam, scheme="newton", **kwargs)
    with pytest.raises(InputError, match="nonnegative"):
        solve_family(sp, fam, scheme="kannan", gamma=-1.0, **kwargs)
    with pytest.raises(InputError, match="penalty function"):
        solve_family(sp, fam, scheme="kannan", gamma=0.1, **kwargs)
    with pytest.raises(InputError, match="arity"):
        solve_family(sp, fam, scheme="kannan", gamma=0.1, psi=psi_sum(3), **kwargs)
    with pytest.raises(InputError, match="gate"):
        solve_family(sp, fam, scheme="kannan", x0=1.0, F=phi_identity(),
                     delta=lambda i, j: 0.25, gate=None)


def test_family_scheme_names_normalize():
    sp = line_space()
    fam = reciprocal_family()
    rep = solve_family(
        sp, fam, x0=1.0, scheme="Kannan-3", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4), gate=AlphaSeriesGate(horizon=60),
    )
    assert rep.extras["scheme"] == "kannan3"
    s = rep.trace.step_dist
    for entry in rep.hypothesis_log:
        m = entry.step
        want = 0.25 * (s[m - 2] + s[m - 1] + s[m - 2])
        assert entry.rhs == pytest.approx(want, abs=1e-15)


def test_family_penalty_reduces_the_right_side():
    sp = line_space()
    fam = MapFamily(lambda i: SelfMap.scalar(lambda t, i=i: t / (6.0 * i), label=f"T_{i}"))
    rep = solve_family(
        sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
        delta=lambda i, j: 0.25, gate=AlphaSeriesGate(horizon=60),
        gamma=0.05, psi=psi_sum(2),
    )
    assert rep.converged
    assert rep.worst_slack >= 0.0
    s = rep.trace.step_dist
    for entry in rep.hypothesis_log:
        m = entry.step
        inner = s[m - 2] + s[m - 1]
        assert entry.rhs == pytest.approx(0.25 * inner - 0.05 * inner, abs=1e-15)


def test_chatterjea_schemes_log_cross_distances():
    sp = line_space()
    fam = reciprocal_family()
    rep = solve_family(
        sp, fam, x0=1.0, scheme="chatterjea", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4), gate=AlphaSeriesGate(horizon=60),
    )
    assert rep.converged
    xs = rep.trace.iterates
    for entry in rep.hypothesis_log:
        m = entry.step
        cross = eval_distance(sp, xs[m - 2], xs[m])
        assert entry.rhs == pytest.approx(0.25 * cross, abs=1e-15)

    rep3 = solve_family(
        sp, fam, x0=1.0, scheme="chatterjea3", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 9), gate=AlphaSeriesGate(horizon=60),
    )
    assert rep3.converged
    assert rep3.extras["gate"]["lambda"] == 0.3
    xs, s = rep3.trace.iterates, rep3.trace.step_dist
    for entry in rep3.hypothesis_log:
        m = entry.step
        to_j = eval_distance(sp, xs[m - 2], fam(m)(xs[m - 2]))
        to_i = eval_distance(sp, xs[m - 1], fam(m - 1)(xs[m - 1]))
        want = (to_j + to_i + s[m - 2]) / 9.0
        assert entry.rhs == pytest.approx(want, abs=1e-15)


def test_family_power_iterates_each_member():
    sp = line_space()
    fam = reciprocal_family()
    rep = solve_family(
        sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4), gate=AlphaSeriesGate(horizon=60), r=2,
    )
    assert rep.converged
    assert rep.extras["power_r"] == 2
    # first step applies T_1 twice: 1 -> 1/5 -> 1/25
    assert rep.trace.iterates[1].coords[0] == pytest.approx(1.0 / 25.0, abs=1e-15)


# ---------------------------------------------------------------------------
# per-map diagnostics


def family_report(sp, fam, delta_value=Fraction(1, 4)):
    return solve_family(
        sp, fam, x0=1.0, scheme="kannan", F=phi_identity(),
        delta=lambda i, j: delta_value, gate=AlphaSeriesGate(horizon=60),
    )


def test_per_map_check_unique_verdicts():
    sp = line_space()
    fam = reciprocal_family()
    rep = family_report(sp, fam)
    checks = per_map_fixed_point_check(sp, fam, rep, delta=lambda i, j: 0.25, indices=(1, 2, 3))
    assert all(c.verdict == "unique" for c in checks)
    assert all(c.residual <= 1e-9 for c in checks)


def test_per_map_check_rejects_large_coefficient():
    sp = line_space()
    fam = reciprocal_family()
    rep = family_report(sp, fam)
    checks = per_map_fixed_point_check(sp, fam, rep, delta=lambda i, j: 0.6, indices=(1, 2))
    assert all(c.verdict == "rejected" for c in checks)


def test_per_map_check_flags_nonfixing_member():
    sp = line_space()
    rep = family_report(sp, reciprocal_family())
    shifted = MapFamily(
        lambda i: SelfMap.scalar(lambda t: 0.75) if i == 1
        else SelfMap.scalar(lambda t, i=i: t / (5.0 * i))
    )
    checks = per_map_fixed_point_check(sp, shifted, rep, indices=(1, 2))
    assert checks[0].verdict == "not_fixed"
    assert checks[0].residual == pytest.approx(0.75, abs=1e-9)
    assert checks[1].verdict == "unique"


def test_per_map_check_surfaces_competing_fixed_points():
    sp = line_space()
    plateau = MapFamily(
        lambda i: SelfMap.scalar(lambda t, i=i: t if t >= 0.5 else t / (5.0 * i))
    )
    rep = solve_family(
        sp, plateau, x0=0.4, scheme="kannan", F=phi_identity(),
        delta=lambda i, j: Fraction(1, 4), gate=AlphaSeriesGate(horizon=60),
    )
    assert rep.converged
    checks = per_map_fixed_point_check(sp, plateau, rep, indices=(1,))
    assert checks[0].verdict == "second_fixed_point"
    assert checks[0].second_point is not None
    assert checks[0].second_point.coords[0] >= 0.5


def test_per_map_check_needs_convergence():
    sp = line_space()
    rep = solve_pair_banach(sp, scale_map(0.9), scale_map(0.9), x0=1.0, k=0.9, max_iter=3)
    with pytest.raises(InputError):
        per_map_fixed_point_check(sp, reciprocal_family(), rep)


def test_uniqueness_scan_finds_separated_fixed_point():
    sp = line_space()
    plateau = SelfMap.scalar(lambda t: t if t >= 0.5 else 0.0)
    second = uniqueness_scan(sp, plateau, Point.of(0.0))
    assert second is not None and second.coords[0] >= 0.5
    assert uniqueness_scan(sp, scale_map(0.5), Point.of(0.0)) is None


# ---------------------------------------------------------------------------
# sequence diagnostics


def test_detect_cauchy_zero_and_nonzero():
    line = line_space()
    geo = [2.0**-n for n in range(1, 51)]
    diag = detect_cauchy(line, geo, window=10)
    assert diag.is_cauchy and diag.is_zero_cauchy
    shifted = line_space(spec={"op": "affine", "arg": {"op": "power", "base": {"op": "absdiff"}, "q": 2.0}, "offset": 2.0}, K=2.0, claim=SpaceClass.KPMS)
    diag2 = detect_cauchy(shifted, geo, window=10)
    assert diag2.is_cauchy and not diag2.is_zero_cauchy
    assert diag2.limit_estimate == pytest.approx(2.0, abs=1e-6)
    doc = diag2.to_json_dict()
    assert doc["window"] == 10
    with pytest.raises(InputError):
        detect_cauchy(line, geo[:20], window=10)


def test_limit_scan_keeps_only_the_true_limit():
    line = line_space()
    geo = [2.0**-n for n in range(1, 61)]
    found = scan_limit_candidates(line, geo, grid_points=500, window=20)
    assert len(found) == 1
    assert found[0].coords == (0.0,)
    with pytest.raises(InputError):
        scan_limit_candidates(line, geo[:30], window=20)


@pytest.mark.parametrize("window", [0, -3])
def test_detect_cauchy_rejects_window_below_one(window):
    # a window of 0 would take the whole sequence as its tail, -3 all but three points
    pts = [1.0 / (2.0 * m) for m in range(1, 31)]
    with pytest.raises(InputError, match="window must be at least 1"):
        detect_cauchy(line_space(), pts, window=window)


@pytest.mark.parametrize("window", [0, -3])
def test_limit_scan_rejects_window_below_one(window):
    pts = [1.0 / (2.0 * m) for m in range(1, 31)]
    with pytest.raises(InputError, match="window must be at least 1"):
        scan_limit_candidates(line_space(), pts, grid_points=10, window=window)
