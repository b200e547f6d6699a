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
against the observed value.  solve_from_config reads the solve configs of
`pmtk solve`; each of E1 and E3-E5 keeps one as its scheme_config.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Mapping

import numpy as np

from .axioms import build_report
from .errors import CatalogError, InputError, UsageError
from .series import kannan_rate_terms
from .solvers import (
    AdmissibilityConfig,
    AlphaSeriesGate,
    FixedPointReport,
    PhiFunction,
    PsiFunction,
    RelaxedCnGate,
    detect_cauchy,
    penalty_arity,
    per_map_fixed_point_check,
    phi_identity,
    phi_power,
    phi_sqrt,
    psi_max,
    psi_sum,
    scan_limit_candidates,
    solve_admissible,
    solve_family,
    solve_pair_banach,
    solve_pair_kannan,
    solve_pair_power,
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
# solve config documents

_REQUIRED = object()


def _field(doc: dict, key: str, convert: Callable = float, default=_REQUIRED):
    """convert(doc.get(key, default)); InputError names key if it is required and missing or convert fails."""
    raw = doc.get(key, default)
    if raw is _REQUIRED:
        raise InputError(f"solve config needs {key!r}")
    try:
        return convert(raw)
    except InputError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {key!r} in solve config: {raw!r}") from exc


def _coords(raw) -> tuple[float, ...]:
    return tuple(float(v) for v in raw) if isinstance(raw, list) else (float(raw),)


def _map(spec: dict) -> SelfMap:
    kind = spec.get("kind")
    if kind == "scale":
        factor = _field(spec, "factor")
        return SelfMap.closed_form(lambda t: factor * t)
    if kind == "affine":
        a = _field(spec, "scale", float, 1.0)
        b = _field(spec, "offset", float, 0.0)
        return SelfMap.closed_form(lambda t: a * t + b)
    if kind == "const":
        c = _field(spec, "value")
        return SelfMap.closed_form(lambda t: c)
    raise InputError(f"unknown map kind {kind!r} (expected scale, affine, or const)")


def _family(spec: dict) -> MapFamily:
    kind = spec.get("kind")
    if kind == "geometric":
        base = _field(spec, "base")
        if not (base > 1.0):
            raise InputError(f"geometric family base must exceed 1, got {base}")
        return MapFamily.geometric(base, f"geometric{base:g}")
    if kind == "fixture":
        fx = get_fixture(_field(spec, "name", str))
        if not isinstance(fx.maps, MapFamily):
            raise InputError(f"fixture {fx.name!r} does not carry a map family")
        return fx.maps
    raise InputError(f"unknown family kind {kind!r} (expected geometric or fixture)")


def _recip_sq_delta(pow_base: int, eta: int) -> float | Fraction:
    # 2.0**eta overflows at 1024, and the true value is indistinguishable
    # from zero long before that
    if eta >= 1024:
        return 0.0
    if eta <= 64:
        return Fraction(1, (1 + pow_base**eta) ** 2)
    return (1.0 / (1.0 + float(pow_base) ** eta)) ** 2


def _delta(spec: dict) -> Callable[[int, int], float | Fraction]:
    kind = spec.get("kind")
    if kind == "const":
        value = _field(spec, "value")
        return lambda i, j: value
    if kind == "recip-sq":
        base = _field(spec, "base", int, 2)
        index = spec.get("index", "min")
        if index == "min":
            return lambda i, j: _recip_sq_delta(base, min(i, j))
        if index == "first":
            return lambda i, j: _recip_sq_delta(base, i)
        raise InputError(f"recip-sq index must be 'min' or 'first', got {index!r}")
    if kind == "shifted-recip":
        num = _field(spec, "num", int, 1)
        den = _field(spec, "den", int, 3)
        shift = _field(spec, "shift", int, 6)
        # the delta is evaluated only at i != j, where abs(i - j) >= 1
        if den < 1:
            raise InputError(f"shifted-recip 'den' must be at least 1, got {den}")
        if shift < 0:
            raise InputError(f"shifted-recip 'shift' must be at least 0, got {shift}")
        return lambda i, j: Fraction(num, den) + Fraction(1, abs(i - j) + shift)
    if kind == "fixture":
        # a fixture without a delta raises KeyError, which the caller's _field reports
        return _delta(get_fixture(_field(spec, "name", str)).scheme_config["delta"])
    raise InputError(f"unknown delta kind {kind!r}")


def _phi(spec) -> PhiFunction:
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "sqrt":
        return phi_sqrt()
    if kind == "identity":
        return phi_identity()
    if kind == "power":
        return phi_power(_field(spec, "s"))
    raise InputError(f"unknown gauge kind {kind!r} (expected sqrt, identity, or power)")


def _psi(spec, arity: int) -> PsiFunction:
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "sum":
        return psi_sum(arity)
    if kind == "max":
        return psi_max(arity)
    raise InputError(f"unknown penalty kind {kind!r} (expected sum or max)")


def _gate(spec: dict) -> AlphaSeriesGate | RelaxedCnGate:
    kind = spec.get("kind")
    if kind == "alpha-series":
        return AlphaSeriesGate(
            with_2s_factor=_field(spec, "with_2s_factor", bool, True),
            horizon=_field(spec, "horizon", int, 10_000),
            grid=_field(spec, "grid", lambda grid: tuple(float(g) for g in grid) if grid else None, None),
        )
    if kind == "relaxed-cn":
        return RelaxedCnGate(horizon=_field(spec, "horizon", int, 200))
    raise InputError(f"unknown gate kind {kind!r} (expected alpha-series or relaxed-cn)")


def _weight(spec: dict, name: str) -> Callable:
    if spec.get("kind") != "const":
        raise InputError(f"{name} weight must be {{'kind': 'const', 'value': ...}} for now")
    value = _field(spec, "value")
    return lambda x, y: value


def solve_from_config(space: SpaceDescriptor, scheme: str, cfg: dict, x0=None) -> FixedPointReport:
    """Run one solver on space as the config document cfg sets it up.

    scheme is banach-pair, kannan-pair, admissible or family, as for
    `pmtk solve --scheme`; x0, when given, replaces the document's own x0.
    The whole document is read before the solver starts, so a malformed
    field raises InputError and the solver's own errors pass unchanged.
    """
    if x0 is None:
        if "x0" not in cfg:
            raise UsageError("solve needs --x0 or an x0 entry in the config")
        x0 = _field(cfg, "x0", _coords)
    common = {
        "step_tol": _field(cfg, "step_tol", float, 1e-10),
        "max_iter": _field(cfg, "max_iter", int, 10_000),
        "halt_on_violation": _field(cfg, "halt_on_violation", bool, True),
    }
    if scheme in ("banach-pair", "kannan-pair"):
        T1 = _field(cfg, "T1", _map)
        T2 = _field(cfg, "T2", _map)
        k = _field(cfg, "k")
        if scheme == "kannan-pair":
            return solve_pair_kannan(space, T1, T2, x0, k, **common)
        if "r1" in cfg or "r2" in cfg:
            r1, r2 = _field(cfg, "r1", int, 1), _field(cfg, "r2", int, 1)
            return solve_pair_power(space, T1, T2, x0, k, r1, r2, **common)
        return solve_pair_banach(space, T1, T2, x0, k, **common)
    if scheme == "admissible":
        T = _field(cfg, "T", _map)
        config = AdmissibilityConfig(
            alpha=_field(cfg, "alpha", lambda spec: _weight(spec, "alpha")),
            beta=_field(cfg, "beta", lambda spec: _weight(spec, "beta")),
            C_alpha=_field(cfg, "C_alpha"),
            C_beta=_field(cfg, "C_beta"),
        )
        return solve_admissible(space, T, x0, config, **common)
    if scheme == "family":
        family = _field(cfg, "family", _family)
        F = _field(cfg, "gauge", _phi, "identity")
        delta = _field(cfg, "delta", _delta)
        gate = _field(cfg, "gate", _gate, {"kind": "relaxed-cn"})
        inner_scheme = _field(cfg, "scheme", str, "kannan")
        gamma = _field(cfg, "gamma", float, 0.0)
        psi = _field(cfg, "psi", lambda spec: _psi(spec, penalty_arity(inner_scheme))) if "psi" in cfg else None
        r = _field(cfg, "r", int, 1)
        return solve_family(space, family, x0, scheme=inner_scheme, F=F, delta=delta, gate=gate,
                            r=r, gamma=gamma, psi=psi, **common)
    raise UsageError(f"unknown solve scheme {scheme!r}")


# ---------------------------------------------------------------------------
# displacement coefficients

_E3_DELTA = {"kind": "recip-sq", "index": "min"}
_E4_DELTA = {"kind": "recip-sq", "index": "first"}
_E5_DELTA = {"kind": "shifted-recip", "num": 1, "den": 3, "shift": 6}

e3_delta = _delta(_E3_DELTA)
e4_delta = _delta(_E4_DELTA)
e5_delta = _delta(_E5_DELTA)


# ---------------------------------------------------------------------------
# fixture construction


def _fixture_space(oracle_spec, K: float, domain: Box, **flags) -> SpaceDescriptor:
    # every fixture claims an order-1 partial b-metric
    return SpaceDescriptor(oracle=build_oracle(oracle_spec), coeff_K=K, polygon_order_n=1, domain=domain,
                           class_claim=SpaceClass.PARTIAL_B_METRIC, **flags)


def _e5_jump(i: int) -> SelfMap:
    plateau = float(Fraction(2, 3) + Fraction(1, i + 2))

    return SelfMap.closed_form(lambda t: np.where(t > 0.0, 1.0, plateau), label=f"T_{i}")


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
        quarter = {"kind": "scale", "factor": 0.25}
        cfg = {"T1": quarter, "T2": quarter, "k": 1.0 / 16.0, "x0": 10.0}
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
            maps=(_map(cfg["T1"]), _map(cfg["T2"])),
            scheme_config=cfg,
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
        cfg = {
            "family": {"kind": "geometric", "base": 16.0},
            "delta": _E3_DELTA,
            "scheme": "kannan3",
            "gauge": "sqrt",
            "x0": 1.0,
            "gate": {"kind": "alpha-series", "horizon": 10_000, "grid": _e3_pinned_grid()},
        }
        return Fixture(
            name=name,
            space=_fixture_space({"op": "power", "base": {"op": "max"}, "q": 2}, 2.0, Box.closed(0.0, 1.0)),
            maps=_family(cfg["family"]),
            scheme_config=cfg,
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
        cfg = {
            "family": {"kind": "geometric", "base": 4.0},
            "delta": _E4_DELTA,
            "scheme": "kannan",
            "gauge": "sqrt",
            "x0": 1.0,
            "gate": {"kind": "relaxed-cn", "horizon": 200},
        }
        return Fixture(
            name=name,
            space=_fixture_space({"op": "power", "base": {"op": "absdiff"}, "q": 2}, 2.0, Box.closed(0.0, 1.0)),
            maps=_family(cfg["family"]),
            scheme_config=cfg,
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
                "family": {"kind": "fixture", "name": name},
                "delta": _E5_DELTA,
                "scheme": "chatterjea",
                "gauge": "identity",
                "x0": 0.0,
                "gate": {"kind": "relaxed-cn", "horizon": 200},
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
        report = solve_from_config(fx.space, "banach-pair", fx.scheme_config)
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
        report = solve_from_config(fx.space, "family", fx.scheme_config)
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
            fx.space, fx.maps, report, delta=_delta(fx.scheme_config["delta"]), indices=(1, 2, 3, 5)
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
