"""Bundled example spaces, map families, and their end-to-end checks.

Five fixtures exercise every layer of the toolkit:

  E1-maxpow            closed interval with a max-plus-square oracle and an
                       exactly-tight alternating pair contraction
  E2-open-interval     an incomplete space whose orbits are Cauchy with a
                       positive distance limit and no limit point in the
                       domain
  E3-kannan-family     countable family under the three-term displacement
                       scheme, gated by an averaged-series certificate
  E4-relaxed-family    countable family admitted by the relaxed
                       limsup-and-summability gate
  E5-chatterjea-family cross-displacement family whose orbit fixates
                       bitwise after two steps

run_fixture replays a fixture end to end and diffs every frozen expectation
against the observed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Mapping

from .axioms import build_report
from .errors import CatalogError
from .series import kannan_rate_terms
from .solvers import (
    AlphaSeriesGate,
    RelaxedCnGate,
    detect_cauchy,
    per_map_fixed_point_check,
    residual,
    scan_limit_candidates,
    solve_family,
    solve_pair_banach,
)
from .spaces import (
    Box,
    MapFamily,
    Point,
    Sampler,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    domain_point,
    eval_distance,
    eval_row,
)

FIXTURE_NAMES = (
    "E1-maxpow",
    "E2-open-interval",
    "E3-kannan-family",
    "E4-relaxed-family",
    "E5-chatterjea-family",
)


@dataclass(frozen=True)
class Expectation:
    """A frozen value the fixture must reproduce, with its comparison slack."""

    value: float | int | bool
    tol: float = 0.0
    note: str = ""


@dataclass(frozen=True)
class Fixture:
    name: str
    space: SpaceDescriptor
    maps: object  # MapFamily, tuple of SelfMap, or None
    scheme_config: Mapping
    expected: Mapping[str, Expectation]


# ---------------------------------------------------------------------------
# displacement coefficients


def _recip_sq_delta(pow_base: int, eta: int) -> float | Fraction:
    # 2.0**eta overflows at 1024, and the true value is indistinguishable
    # from zero long before that
    if eta >= 1024:
        return 0.0
    if eta <= 64:
        return Fraction(1, (1 + pow_base**eta) ** 2)
    return (1.0 / (1.0 + float(pow_base) ** eta)) ** 2


def e3_delta(i: int, j: int) -> float | Fraction:
    return _recip_sq_delta(2, min(i, j))


def e4_delta(i: int, j: int) -> float | Fraction:
    return _recip_sq_delta(2, i)


def e5_delta(i: int, j: int) -> Fraction:
    return Fraction(1, 3) + Fraction(1, abs(i - j) + 6)


# ---------------------------------------------------------------------------
# fixture construction


def _fixture_space(oracle_spec, K: float, domain: Box, **flags) -> SpaceDescriptor:
    # every fixture claims an order-1 partial b-metric
    return SpaceDescriptor(oracle=build_oracle(oracle_spec), coeff_K=K, polygon_order_n=1, domain=domain,
                           class_claim=SpaceClass.PARTIAL_B_METRIC, **flags)


def _e5_jump(i: int) -> SelfMap:
    plateau = float(Fraction(2, 3) + Fraction(1, i + 2))

    def fn(t: float) -> float:
        return 1.0 if t > 0.0 else plateau

    return SelfMap.scalar(fn, label=f"T_{i}")


def _e5_family() -> MapFamily:
    return MapFamily(generator=_e5_jump, label="jump")


def _e3_pinned_grid() -> tuple[float, ...]:
    # augment the default grid with the first rate term itself; the
    # partial-sum comparison at L = 1 is then an exact equality, so that
    # value certifies from index 1 and wins the smallest-lambda tie-break
    from .series import DEFAULT_LAMBDA_GRID

    first = kannan_rate_terms([e3_delta(1, 2)], 0.5, with_2s_factor=True).terms[0]
    return tuple(sorted(set(DEFAULT_LAMBDA_GRID) | {float(first)}))


def get_fixture(name: str) -> Fixture:
    if name == "E1-maxpow":
        return Fixture(
            name=name,
            space=_fixture_space(
                {
                    "op": "sum",
                    "args": [
                        {"op": "power", "base": {"op": "max"}, "q": 2},
                        {"op": "power", "base": {"op": "absdiff"}, "q": 2},
                    ],
                },
                4.0,
                Box.closed(0.0, 10.0),
                complete_asserted=True,
            ),
            maps=(SelfMap.scalar(lambda t: 0.25 * t, label="quarter"),) * 2,
            scheme_config={"scheme": "banach-pair", "k": 1.0 / 16.0, "x0": 10.0},
            expected={
                "dist_1_2": Expectation(5.0, note="max(1,2)^2 + (1-2)^2"),
                "self_3": Expectation(9.0),
                "pair_fixed_coord": Expectation(0.0, tol=1e-5),
                "pair_bound_ok": Expectation(True),
                "pair_worst_slack": Expectation(0.0, note="the contraction is exactly tight"),
                "claim_supported": Expectation(True),
            },
        )
    if name == "E2-open-interval":
        return Fixture(
            name=name,
            space=_fixture_space(
                {"op": "affine", "arg": {"op": "power", "base": {"op": "absdiff"}, "q": 2}, "offset": 2.0},
                2.0,
                Box.open(0.0, 1.0),
                complete_asserted=False,
            ),
            maps=None,
            scheme_config={"sequence": "half-reciprocal", "length": 200, "window": 20},
            expected={
                "dist_q1_q3": Expectation(2.25, note="(0.75-0.25)^2 + 2"),
                "self_half": Expectation(2.0),
                "cauchy_limit": Expectation(2.0, tol=1e-6),
                "is_cauchy": Expectation(True),
                "is_zero_cauchy": Expectation(False),
                "limit_candidates": Expectation(0, note="no point of the open interval fits"),
                "claim_supported": Expectation(True),
            },
        )
    if name == "E3-kannan-family":
        return Fixture(
            name=name,
            space=_fixture_space({"op": "power", "base": {"op": "max"}, "q": 2}, 2.0, Box.closed(0.0, 1.0)),
            maps=MapFamily.geometric(16.0, "scale16"),
            scheme_config={
                "scheme": "kannan3",
                "gauge": "sqrt",
                "x0": 1.0,
                "gate": "alpha-series",
                "gate_horizon": 10_000,
                "gate_grid": _e3_pinned_grid(),
            },
            expected={
                "gate_lambda": Expectation(0.7071067811865476, note="sqrt(2)/2, bitwise"),
                "gate_n": Expectation(1),
                "fixed_coord": Expectation(0.0, tol=1e-8),
                "bound_ok": Expectation(True),
                "hyp_ok": Expectation(True),
                "probe_residual_max": Expectation(0.0, tol=1e-9),
                "claim_supported": Expectation(True),
            },
        )
    if name == "E4-relaxed-family":
        return Fixture(
            name=name,
            space=_fixture_space({"op": "power", "base": {"op": "absdiff"}, "q": 2}, 2.0, Box.closed(0.0, 1.0)),
            maps=MapFamily.geometric(4.0, "scale4"),
            scheme_config={
                "scheme": "kannan",
                "gauge": "sqrt",
                "x0": 1.0,
                "gate": "relaxed-cn",
                "gate_horizon": 200,
            },
            expected={
                "gate_accepted": Expectation(True),
                "fixed_coord": Expectation(0.0, tol=1e-8),
                "bound_ok": Expectation(True),
                "hyp_ok": Expectation(True),
                "probe_residual_max": Expectation(0.0, tol=1e-9),
                "claim_supported": Expectation(True),
            },
        )
    if name == "E5-chatterjea-family":
        return Fixture(
            name=name,
            space=_fixture_space({"op": "absdiff"}, 1.0, Box.closed(0.0, 1.0), hausdorff_asserted=True),
            maps=_e5_family(),
            scheme_config={
                "scheme": "chatterjea",
                "gauge": "identity",
                "x0": 0.0,
                "gate": "relaxed-cn",
                "gate_horizon": 200,
            },
            expected={
                "fixed_coord": Expectation(1.0, note="T_1(0) lands on 1.0 exactly"),
                "steps_taken": Expectation(2),
                "display_violations": Expectation(0),
                "bound_ok": Expectation(True),
                "hyp_ok": Expectation(True),
                "probe_residual_max": Expectation(0.0),
                "claim_supported": Expectation(True),
            },
        )
    raise CatalogError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


# ---------------------------------------------------------------------------
# replay


def _gauge(name: str):
    from .solvers import phi_identity, phi_sqrt

    return {"sqrt": phi_sqrt, "identity": phi_identity}[name]()


def _delta_for(name: str) -> Callable[[int, int], float | Fraction]:
    return {
        "E3-kannan-family": e3_delta,
        "E4-relaxed-family": e4_delta,
        "E5-chatterjea-family": e5_delta,
    }[name]


def _e5_display_violations(space: SpaceDescriptor, family: MapFamily, tol: float = 1e-9) -> int:
    """Sample the cross-displacement inequality on its three case regions.

    Positive-positive pairs, one-sided zeros, and the double zero with
    distinct indices each stress a different branch of the jump maps.
    Together the regions are every pair (x, y) of the points k/12,
    k = 0..12, so each image T_i x and each row p(x, T_i .) is computed once
    per index.
    """
    xs = [domain_point(space, k / 12.0) for k in (*range(1, 13), 0)]
    images = {i: [domain_point(space, family(i)(x)) for x in xs] for i in range(1, 7)}
    # to[i][a][b] = p(x_a, T_i x_b): both rhs terms, p(x, T_j y) and p(y, T_i x)
    to = {i: [eval_row(space, x, tx) for x in xs] for i, tx in images.items()}
    violations = 0
    for i, j in permutations(images, 2):
        d = float(e5_delta(i, j))
        for a, tx in enumerate(images[i]):
            x_tj = to[j][a]
            for b, lhs in enumerate(eval_row(space, tx, images[j])):
                if lhs > d * (x_tj[b] + to[i][b][a]) + tol:
                    violations += 1
    return violations


def _half_reciprocal_points(length: int) -> list[Point]:
    return [Point.of(1.0 / (2.0 * m)) for m in range(1, length + 1)]


def run_fixture(name: str, seed: int = 0) -> dict:
    """Replay one fixture and diff its frozen expectations.

    Returns a JSON-ready document with the observed values, the per-key
    comparison, and an overall verdict.
    """
    fx = get_fixture(name)
    sampler = Sampler(seed=seed, region=fx.space.domain, grid_density=16, random_count=1500)
    axiom_report = build_report(fx.space, sampler)
    observed: dict = {
        "claim_supported": axiom_report.claim_supported,
        "min_K_estimate": axiom_report.min_K_estimate,
    }
    stages: dict = {
        "axioms": {
            "claim_supported": axiom_report.claim_supported,
            "verdicts": {k: c.verdict for k, c in sorted(axiom_report.checks.items())},
            "min_K_estimate": axiom_report.min_K_estimate,
        }
    }

    if name == "E1-maxpow":
        observed["dist_1_2"] = eval_distance(fx.space, 1.0, 2.0)
        observed["self_3"] = eval_distance(fx.space, 3.0, 3.0)
        T1, T2 = fx.maps
        report = solve_pair_banach(
            fx.space, T1, T2, fx.scheme_config["x0"], fx.scheme_config["k"]
        )
        observed["pair_fixed_coord"] = report.point.coords[0]
        observed["pair_bound_ok"] = bool(report.bound_check and report.bound_check.satisfied)
        observed["pair_worst_slack"] = report.worst_slack
        stages["pair_solve"] = report.to_json_dict()

    elif name == "E2-open-interval":
        observed["dist_q1_q3"] = eval_distance(fx.space, 0.25, 0.75)
        observed["self_half"] = eval_distance(fx.space, 0.5, 0.5)
        pts = _half_reciprocal_points(fx.scheme_config["length"])
        diag = detect_cauchy(fx.space, pts, window=fx.scheme_config["window"])
        observed["cauchy_limit"] = diag.limit_estimate
        observed["is_cauchy"] = diag.is_cauchy
        observed["is_zero_cauchy"] = diag.is_zero_cauchy
        candidates = scan_limit_candidates(
            fx.space, pts, grid_points=1000, window=fx.scheme_config["window"]
        )
        observed["limit_candidates"] = len(candidates)
        stages["cauchy"] = diag.to_json_dict()
        stages["limit_scan"] = {"candidates": [list(c.coords) for c in candidates]}

    else:
        cfg = fx.scheme_config
        if cfg["gate"] == "alpha-series":
            gate = AlphaSeriesGate(
                with_2s_factor=True,
                horizon=cfg["gate_horizon"],
                grid=tuple(cfg["gate_grid"]),
            )
        else:
            gate = RelaxedCnGate(horizon=cfg["gate_horizon"])
        report = solve_family(
            fx.space,
            fx.maps,
            cfg["x0"],
            scheme=cfg["scheme"],
            F=_gauge(cfg["gauge"]),
            delta=_delta_for(name),
            gate=gate,
        )
        observed["fixed_coord"] = report.point.coords[0]
        observed["steps_taken"] = report.trace.steps_taken
        observed["bound_ok"] = bool(report.bound_check and report.bound_check.satisfied)
        observed["hyp_ok"] = report.worst_slack is None or report.worst_slack >= -1e-9
        observed["probe_residual_max"] = max(report.residuals.values())
        gate_rec = report.extras["gate"]
        if name == "E3-kannan-family":
            observed["gate_lambda"] = gate_rec["lambda"]
            observed["gate_n"] = gate_rec["n_lambda"]
        if name == "E4-relaxed-family":
            observed["gate_accepted"] = gate_rec["limsup_ok"] and gate_rec["cn_summable"] is not False
        if name == "E5-chatterjea-family":
            observed["display_violations"] = _e5_display_violations(fx.space, fx.maps)
        stages["family_solve"] = report.to_json_dict()
        per_map = per_map_fixed_point_check(
            fx.space, fx.maps, report, delta=_delta_for(name), indices=(1, 2, 3, 5)
        )
        stages["per_map"] = [
            {"index": c.index, "residual": c.residual, "verdict": c.verdict} for c in per_map
        ]
        observed["per_map_unique"] = all(c.verdict == "unique" for c in per_map)

    comparisons: dict = {}
    all_ok = True
    for key, exp in fx.expected.items():
        got = observed.get(key)
        if isinstance(exp.value, bool):
            ok = got is exp.value
        elif got is None:
            ok = False
        else:
            ok = abs(float(got) - float(exp.value)) <= exp.tol
        comparisons[key] = {
            "want": exp.value,
            "tol": exp.tol,
            "got": got,
            "ok": ok,
            "note": exp.note,
        }
        all_ok = all_ok and ok
    return {
        "name": name,
        "seed": seed,
        "observed": observed,
        "expected": comparisons,
        "stages": stages,
        "all_passed": all_ok,
    }


def list_fixtures() -> tuple[str, ...]:
    return FIXTURE_NAMES
