"""Iterative fixed-point solvers with hypothesis and bound instrumentation.

Every solver drives one orbit, records the weighted step and self distances,
re-evaluates the contraction hypothesis it relies on at each step, and, once
the orbit settles, checks the a-priori distance bound the theory promises.
A hypothesis violation is never silently absorbed: by default it halts the
iteration with the witness step in the log, and with halt_on_violation=False
it is recorded while the orbit keeps running.

Orbit termination:
  residual_tol          the iterate repeated bitwise
  step_tol              weighted step below tolerance and equal to the
                        self distance at the same index, within tolerance
  hypothesis_violated   a logged hypothesis entry went negative
  max_iter              budget exhausted (converged stays False)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConstructionError, GateError, InputError, OracleValueError
from .series import (
    DEFAULT_LAMBDA_GRID,
    certify_alpha_series,
    check_relaxed_hypotheses,
    kannan_rate_terms,
    product_terms_Cn,
)
from .spaces import (
    DEFAULT_TOL,
    OPEN_ENDPOINT_MARGIN,
    MapFamily,
    Point,
    SelfMap,
    SpaceDescriptor,
    _eval_column,
    as_point,
    domain_error,
    domain_point,
    eval_distance,
    eval_row,
    eval_terms,
    self_distance,
)

DEFAULT_STEP_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_PROBES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 103)


# ---------------------------------------------------------------------------
# traces and reports


@dataclass(frozen=True)
class IterationTrace:
    """Full record of one orbit.

    step_dist[m-1] = p(x_{m-1}, x_m);  self_dist[m] = p(x_m, x_m).
    """

    iterates: tuple[Point, ...]
    step_dist: tuple[float, ...]
    self_dist: tuple[float, ...]
    converged: bool
    stop_reason: str

    @property
    def final(self) -> Point:
        return self.iterates[-1]

    @property
    def steps_taken(self) -> int:
        return len(self.step_dist)


@dataclass(frozen=True)
class HypothesisEntry:
    """One re-evaluated hypothesis inequality: slack = rhs - lhs."""

    step: int
    label: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BoundCheck:
    """Empirical distances against the theoretical envelope at chosen indices."""

    indices: tuple[int, ...]
    theoretical: tuple[float, ...]
    empirical: tuple[float, ...]
    satisfied: bool
    description: str

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "theoretical": [float(t) for t in self.theoretical],
            "empirical": [float(e) for e in self.empirical],
            "satisfied": self.satisfied,
            "description": self.description,
        }


@dataclass
class FixedPointReport:
    point: Point
    residuals: dict[str, float]
    trace: IterationTrace
    bound_check: BoundCheck | None
    hypothesis_log: tuple[HypothesisEntry, ...]
    worst_slack: float | None
    assumptions: dict
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.trace.converged

    @property
    def checks_passed(self) -> bool:
        ok = self.bound_check is None or self.bound_check.satisfied
        hyp_ok = self.worst_slack is None or self.worst_slack >= -DEFAULT_TOL
        return ok and hyp_ok

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point.coords),
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "converged": self.converged,
            "stop_reason": self.trace.stop_reason,
            "steps_taken": self.trace.steps_taken,
            "final_step_dist": self.trace.step_dist[-1] if self.trace.step_dist else None,
            "final_self_dist": self.trace.self_dist[-1],
            "bound_check": self.bound_check.to_json_dict() if self.bound_check else None,
            "hypothesis_entries": len(self.hypothesis_log),
            "worst_slack": self.worst_slack,
            "assumptions": self.assumptions,
            "extras": self.extras,
        }


def residual(space: SpaceDescriptor, x, T: SelfMap) -> float:
    """Fixed-point defect of x under T.

    Indistinguishability needs the cross distance to match both self
    distances, so the defect is the larger of the two gaps:

        max(p(x, Tx) - p(x, x), p(x, Tx) - p(Tx, Tx)).

    Comparing only against p(x, x) is not enough; oracles of the
    max-of-coordinates kind keep p(x, Tx) = p(x, x) along entire rays.
    """
    p = as_point(x, space.dim)
    img = T(p)
    cross = eval_distance(space, p, img)
    return max(cross - self_distance(space, p), cross - self_distance(space, img))


def trace_from_points(space: SpaceDescriptor, points: Sequence) -> IterationTrace:
    """Wrap an externally produced sequence so bound checks can run on it."""
    pts = tuple(as_point(p, space.dim) for p in points)
    if len(pts) < 2:
        raise InputError("a trace needs at least two points")
    steps = tuple(eval_distance(space, pts[i], pts[i + 1]) for i in range(len(pts) - 1))
    selfs = tuple(self_distance(space, p) for p in pts)
    return IterationTrace(pts, steps, selfs, converged=False, stop_reason="synthetic")


# ---------------------------------------------------------------------------
# altering-distance and pairing functions


@dataclass(frozen=True)
class PhiFunction:
    """Monotone sub-additive gauge F with F(0) = 0 and F(a t) = a^s F(t).

    The degree s drives every rate-term computation, so construction samples
    all five properties (plus a refinement-based jump scan standing in for
    continuity) and refuses evaluators that break them.
    """

    evaluator: Callable[[float], float]
    degree_s: float
    label: str = "F"

    def __post_init__(self) -> None:
        if not (0.0 < self.degree_s <= 1.0):
            raise InputError(f"gauge degree must lie in (0, 1], got {self.degree_s}")
        f = self.evaluator
        tol = DEFAULT_TOL
        if abs(f(0.0)) > tol:
            raise InputError(f"gauge must vanish at zero, got F(0) = {f(0.0)}")
        hi = 4.0
        gaps = []
        for density in (65, 513, 4097):
            grid = np.linspace(0.0, hi, density)
            vals = [f(float(t)) for t in grid]
            for a, b in zip(vals, vals[1:]):
                if b < a - tol:
                    raise InputError(f"gauge must be non-decreasing (drop near {a} -> {b})")
            gaps.append(max(abs(b - a) for a, b in zip(vals, vals[1:])))
        # a genuine jump keeps its height under refinement; continuous growth shrinks
        if gaps[2] > 10.0 * tol and gaps[2] > 0.9 * gaps[1]:
            raise InputError("gauge looks discontinuous: grid refinement did not shrink the largest gap")
        rng = np.random.default_rng(20240917)
        for a, b in rng.uniform(0.0, hi, size=(64, 2)):
            if f(float(a + b)) > f(float(a)) + f(float(b)) + tol:
                raise InputError(f"gauge must be sub-additive, violated at ({a}, {b})")
        for a, t in rng.uniform(0.01, hi, size=(64, 2)):
            want = (float(a) ** self.degree_s) * f(float(t))
            got = f(float(a * t))
            if abs(got - want) > max(tol, 1e-9 * abs(want)):
                raise InputError(
                    f"gauge is not homogeneous of degree {self.degree_s}: "
                    f"F({a}*{t}) = {got}, expected {want}"
                )
        for t in rng.uniform(1e-6, hi, size=32):
            if f(float(t)) <= 0.0:
                raise InputError(f"gauge must be positive away from zero, got F({t}) = {f(float(t))}")

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise InputError(f"gauge argument must be nonnegative, got {t}")
        return float(self.evaluator(t))


def phi_sqrt() -> PhiFunction:
    return PhiFunction(math.sqrt, degree_s=0.5, label="sqrt")


def phi_identity() -> PhiFunction:
    return PhiFunction(lambda t: t, degree_s=1.0, label="identity")


def phi_power(s: float) -> PhiFunction:
    if not (0.0 < s <= 1.0):
        raise InputError(f"power gauge degree must lie in (0, 1], got {s}")
    return PhiFunction(lambda t: t**s, degree_s=s, label=f"power{s:g}")


@dataclass(frozen=True)
class PsiFunction:
    """Penalty term: zero exactly at the origin, positive elsewhere."""

    evaluator: Callable[..., float]
    arity: int
    label: str = "psi"

    def __post_init__(self) -> None:
        if self.arity not in (2, 3):
            raise InputError(f"penalty arity must be 2 or 3, got {self.arity}")
        zero = self.evaluator(*([0.0] * self.arity))
        if abs(zero) > DEFAULT_TOL:
            raise InputError(f"penalty must vanish at the origin, got {zero}")
        rng = np.random.default_rng(20240918)
        for row in rng.uniform(0.0, 3.0, size=(48, self.arity)):
            args = [float(v) for v in row]
            if max(args) <= 0.0:
                continue
            if self.evaluator(*args) <= 0.0:
                raise InputError(f"penalty must be positive off the origin, got psi{tuple(args)} <= 0")

    def __call__(self, *args: float) -> float:
        if len(args) != self.arity:
            raise InputError(f"penalty expects {self.arity} arguments, got {len(args)}")
        return float(self.evaluator(*args))


def psi_sum(arity: int = 2) -> PsiFunction:
    return PsiFunction(lambda *a: sum(a), arity=arity, label="sum")


def psi_max(arity: int = 2) -> PsiFunction:
    return PsiFunction(lambda *a: max(a), arity=arity, label="max")


# ---------------------------------------------------------------------------
# orbit engine


def iterate_power(T: SelfMap, r: int) -> SelfMap:
    if not (isinstance(r, int) and r >= 1):
        raise InputError(f"iterate power must be a positive integer, got {r!r}")
    if r == 1:
        return T

    def _composed(p: Point) -> Point:
        out = p
        for _ in range(r):
            out = T(out)
        return out

    return SelfMap(apply=_composed, label=f"{T.label}^{r}")


HypCheck = Callable[[int, list[Point], list[float]], list[HypothesisEntry]]


def _run_orbit(
    space: SpaceDescriptor,
    x0,
    step_map: Callable[[int], SelfMap],
    hyp_check: HypCheck | None = None,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
    hyp_tol: float = DEFAULT_TOL,
) -> tuple[IterationTrace, list[HypothesisEntry], bool]:
    if max_iter < 1:
        raise InputError(f"iteration budget must be positive, got {max_iter}")
    start = as_point(x0, space.dim)
    if not space.domain.contains(start):
        raise InputError(f"starting point {start.coords} outside the domain")
    iterates: list[Point] = [start]
    steps: list[float] = []
    selfs: list[float] = [self_distance(space, start)]
    log: list[HypothesisEntry] = []
    violated = False
    converged = False
    stop = "max_iter"
    for m in range(1, max_iter + 1):
        x_new = step_map(m)(iterates[-1])
        if not space.domain.contains(x_new):
            raise ConstructionError(
                f"orbit left the domain at step {m}", witness=(iterates[-1], x_new)
            )
        iterates.append(x_new)
        steps.append(eval_distance(space, iterates[-2], x_new))
        selfs.append(self_distance(space, x_new))
        if hyp_check is not None:
            entries = hyp_check(m, iterates, steps)
            log.extend(entries)
            if any(e.slack < -hyp_tol for e in entries):
                violated = True
                if halt_on_violation:
                    stop = "hypothesis_violated"
                    break
        if x_new.coords == iterates[-2].coords:
            converged = True
            stop = "residual_tol"
            break
        if steps[-1] <= step_tol and abs(selfs[-1] - steps[-1]) <= step_tol:
            converged = True
            stop = "step_tol"
            break
    trace = IterationTrace(tuple(iterates), tuple(steps), tuple(selfs), converged, stop)
    return trace, log, violated


def verify_bound(
    space: SpaceDescriptor,
    trace: IterationTrace,
    K: float,
    rate: float,
    seed_dist: float,
    tol: float = DEFAULT_TOL,
) -> BoundCheck:
    """Check p(x_e, x_m) <= K rate^e / (1 - rate) * seed for all later m.

    The envelope indexes the orbit at even positions e = 0, 2, 4, ...; each
    pair step of an alternating orbit advances the exponent by two, so the
    even subsequence is where the theoretical rate applies cleanly.
    """
    if not (0.0 <= rate < 1.0):
        raise InputError(f"bound rate must lie in [0, 1), got {rate}")
    N = len(trace.iterates) - 1
    if N < 1:
        raise InputError("bound check needs at least one step")
    indices: list[int] = []
    theo: list[float] = []
    emp: list[float] = []
    scale = K * seed_dist / (1.0 - rate)
    # each iterate passes the domain check once, on first use
    points: list[Point | None] = [None] * (N + 1)

    def point(i: int) -> Point:
        points[i] = domain_point(space, trace.iterates[i])
        return points[i]

    for e in range(0, N, 2):
        later = range(e + 1, N + 1)
        if N - e > 400:
            stride = (N - e) // 400 + 1
            later = list(range(e + 1, N + 1, stride))
            if later[-1] != N:
                later.append(N)
        x = points[e] or point(e)
        try:
            ys = [points[m] or point(m) for m in later]
        except InputError:
            # a pair-by-pair loop evaluates the pairs before the failing iterate first
            eval_row(space, x, list(takewhile(bool, (points[m] for m in later))))
            raise
        observed = max(eval_row(space, x, ys))
        indices.append(e)
        theo.append(scale * rate**e)
        emp.append(observed)
    ok = all(o <= t + tol for o, t in zip(emp, theo))
    return BoundCheck(
        tuple(indices),
        tuple(theo),
        tuple(emp),
        ok,
        "p(x_e, x_m) <= K rate^e/(1-rate) * p(x_0, x_1), even e, all m > e",
    )


def _worst(log: list[HypothesisEntry]) -> float | None:
    return min((e.slack for e in log), default=None)


def _residuals(space: SpaceDescriptor, x: Point, maps: Iterable[tuple[str, SelfMap]]) -> dict[str, float]:
    return {name: residual(space, x, T) for name, T in maps}


def _report(
    space: SpaceDescriptor,
    orbit: tuple[IterationTrace, list[HypothesisEntry], bool],
    rate: float,
    maps: Iterable[tuple[str, SelfMap]],
    scheme: str,
    **assumptions,
) -> FixedPointReport:
    """The report of a solver whose envelope is verify_bound's at the given rate."""
    trace, log, violated = orbit
    bound = None
    if trace.converged and trace.step_dist:
        bound = verify_bound(space, trace, space.coeff_K, rate, trace.step_dist[0])
    return FixedPointReport(
        point=trace.final,
        residuals=_residuals(space, trace.final, maps),
        trace=trace,
        bound_check=bound,
        hypothesis_log=tuple(log),
        worst_slack=_worst(log),
        assumptions={"complete_asserted": space.complete_asserted, **assumptions},
        extras={"scheme": scheme, "hypothesis_violated": violated},
    )


# ---------------------------------------------------------------------------
# alternating pair solvers


def _pair_orbit(
    space: SpaceDescriptor,
    T1: SelfMap,
    T2: SelfMap,
    x0,
    label: str,
    rhs: Callable[[float, float], float],
    step_tol: float,
    max_iter: int,
    halt_on_violation: bool,
) -> tuple[IterationTrace, list[HypothesisEntry], bool]:
    """The orbit of T1 at odd steps and T2 at even steps.

    From step 2 on, each step logs the hypothesis label with the last step
    distance as lhs and rhs(last step, the step before) as rhs.
    """

    def hyp(m: int, xs: list[Point], steps: list[float]) -> list[HypothesisEntry]:
        if m < 2:
            return []
        return [HypothesisEntry(m, label, steps[-1], rhs(steps[-1], steps[-2]))]

    return _run_orbit(space, x0, lambda m: T1 if m % 2 == 1 else T2, hyp, step_tol, max_iter, halt_on_violation)


def solve_pair_banach(
    space: SpaceDescriptor,
    T1: SelfMap,
    T2: SelfMap,
    x0,
    k: float,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
) -> FixedPointReport:
    """Alternating orbit under p(T1 x, T2 y) <= k p(x, y), k in [0, 1).

    The step hypothesis re-checked on the orbit is the induced one-step
    contraction p(x_m, x_{m+1}) <= k p(x_{m-1}, x_m).
    """
    if not (0.0 <= k < 1.0):
        raise InputError(f"contraction constant must lie in [0, 1), got {k}")
    orbit = _pair_orbit(space, T1, T2, x0, "step-contraction", lambda last, prev: k * prev,
                        step_tol, max_iter, halt_on_violation)
    return _report(space, orbit, k, (("T1", T1), ("T2", T2)), "banach-pair", contraction_constant=k)


def solve_pair_power(
    space: SpaceDescriptor,
    T1: SelfMap,
    T2: SelfMap,
    x0,
    k: float,
    r1: int,
    r2: int,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
) -> FixedPointReport:
    """Pair solver applied to the iterated maps T1^r1, T2^r2.

    The fixed point of the composed pair also fixes the original maps when
    it is unique; both residual sets are reported so that claim is visible.
    """
    S1 = iterate_power(T1, r1)
    S2 = iterate_power(T2, r2)
    report = solve_pair_banach(space, S1, S2, x0, k, step_tol, max_iter, halt_on_violation)
    report.extras["scheme"] = "banach-pair-power"
    report.extras["powers"] = [r1, r2]
    report.extras["original_residuals"] = _residuals(space, report.point, (("T1", T1), ("T2", T2)))
    return report


def solve_pair_kannan(
    space: SpaceDescriptor,
    T1: SelfMap,
    T2: SelfMap,
    x0,
    k: float,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
) -> FixedPointReport:
    """Alternating orbit under p(T1 x, T2 y) <= k [p(x, T1 x) + p(y, T2 y)].

    Needs k < min(1/K, 1/2); the envelope rate is h = k/(1-k).
    """
    cap = min(1.0 / space.coeff_K, 0.5)
    if not (0.0 <= k < cap):
        raise InputError(
            f"displacement constant must lie in [0, {cap}) for coefficient {space.coeff_K}, got {k}"
        )
    h = k / (1.0 - k)
    orbit = _pair_orbit(space, T1, T2, x0, "displacement-sum", lambda last, prev: k * (last + prev),
                        step_tol, max_iter, halt_on_violation)
    return _report(space, orbit, h, (("T1", T1), ("T2", T2)), "kannan-pair",
                   displacement_constant=k, envelope_rate=h)


# ---------------------------------------------------------------------------
# admissible single-map solver


@dataclass(frozen=True)
class AdmissibilityConfig:
    """Weight pair (alpha, beta) with floor C_alpha and ceiling C_beta.

    The contraction requires alpha(x,y) p(Tx,Ty) <= beta(x,y) p(x,y) with
    alpha >= C_alpha > 0 and beta <= C_beta along the orbit, and the rate
    C_beta/C_alpha must clear the space coefficient: K C_beta < C_alpha.
    """

    alpha: Callable[[Point, Point], float]
    beta: Callable[[Point, Point], float]
    C_alpha: float
    C_beta: float

    def __post_init__(self) -> None:
        if not (self.C_alpha > 0.0):
            raise InputError(f"alpha floor must be positive, got {self.C_alpha}")
        if not (self.C_beta >= 0.0):
            raise InputError(f"beta ceiling must be nonnegative, got {self.C_beta}")


def solve_admissible(
    space: SpaceDescriptor,
    T: SelfMap,
    x0,
    config: AdmissibilityConfig,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
    tol: float = DEFAULT_TOL,
) -> FixedPointReport:
    """Single-map solver for weighted contractions with orbit weights.

    Per step the log holds three entries: the alpha floor, the beta ceiling
    (both propagation obligations), and the weighted contraction itself.
    """
    rate = config.C_beta / config.C_alpha
    if not (space.coeff_K * config.C_beta < config.C_alpha):
        raise InputError(
            f"admissibility needs K C_beta < C_alpha; got K={space.coeff_K}, "
            f"C_beta={config.C_beta}, C_alpha={config.C_alpha}"
        )
    start = as_point(x0, space.dim)
    first = T(start)
    a0 = float(config.alpha(start, first))
    b0 = float(config.beta(start, first))
    if a0 < config.C_alpha - tol:
        raise InputError(f"starting point is not admissible: alpha(x0, Tx0) = {a0} < {config.C_alpha}")
    if b0 > config.C_beta + tol:
        raise InputError(f"starting point is not admissible: beta(x0, Tx0) = {b0} > {config.C_beta}")

    weights: dict[int, tuple[float, float]] = {}

    def hyp(m: int, xs: list[Point], steps: list[float]) -> list[HypothesisEntry]:
        a = float(config.alpha(xs[m - 1], xs[m]))
        b = float(config.beta(xs[m - 1], xs[m]))
        weights[m - 1] = (a, b)
        entries = [
            HypothesisEntry(m, "alpha-floor", config.C_alpha, a),
            HypothesisEntry(m, "beta-ceiling", b, config.C_beta),
        ]
        if m >= 2:
            a_prev, b_prev = weights[m - 2]
            entries.append(
                HypothesisEntry(m, "weighted-contraction", a_prev * steps[-1], b_prev * steps[-2])
            )
        return entries

    orbit = _run_orbit(space, start, lambda m: T, hyp, step_tol, max_iter, halt_on_violation)
    return _report(space, orbit, rate, (("T", T),), "admissible",
                   alpha_floor=config.C_alpha, beta_ceiling=config.C_beta, envelope_rate=rate)


# ---------------------------------------------------------------------------
# countable family solver


@dataclass(frozen=True)
class AlphaSeriesGate:
    """Entry gate: certify the averaged rate-term series before iterating."""

    with_2s_factor: bool = True
    horizon: int = 10_000
    grid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RelaxedCnGate:
    """Entry gate: sampled limsup and product summability conditions."""

    horizon: int = 200


_SCHEMES = ("kannan", "kannan3", "chatterjea", "chatterjea3")


def _scheme_key(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def _normalize_scheme(name: str) -> str:
    key = _scheme_key(name)
    for scheme in _SCHEMES:
        if key == scheme:
            return scheme
    raise InputError(f"unknown family scheme {name!r}; expected one of {_SCHEMES}")


def penalty_arity(scheme: str) -> int:
    """How many arguments a family scheme's penalty psi takes: 3 for the three-term schemes, else 2."""
    return 3 if _scheme_key(scheme) in ("kannan3", "chatterjea3") else 2


def solve_family(
    space: SpaceDescriptor,
    family: MapFamily,
    x0,
    scheme: str,
    F: PhiFunction,
    delta: Callable[[int, int], float | Fraction],
    gate: AlphaSeriesGate | RelaxedCnGate,
    r: int = 1,
    gamma: float = 0.0,
    psi: PsiFunction | None = None,
    probes: Sequence[int] = DEFAULT_PROBES,
    step_tol: float = DEFAULT_STEP_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    halt_on_violation: bool = True,
) -> FixedPointReport:
    """Orbit x_m = T_m^r(x_{m-1}) under a gauged displacement scheme.

    The gate must accept the rate data before any iteration happens; a
    rejected gate raises instead of producing a report.  During the run the
    scheme inequality is re-evaluated at the consecutive index pair
    (i, j) = (m-1, m) with (x, y) = (x_{m-2}, x_{m-1}), skipped once the
    orbit has fixated bitwise.  After convergence the gauged product bound
    F(step_n) <= C_n F(step_0) is verified, and the probe maps' residuals
    at the limit expose which family members share the fixed point.
    """
    scheme = _normalize_scheme(scheme)
    arity = penalty_arity(scheme)
    if gamma < 0.0:
        raise InputError(f"penalty weight must be nonnegative, got {gamma}")
    if gamma > 0.0 and psi is None:
        raise InputError("a positive penalty weight needs a penalty function")
    if psi is not None and psi.arity != arity:
        raise InputError(f"scheme {scheme} pairs with a {arity}-argument penalty, got arity {psi.arity}")

    if isinstance(gate, AlphaSeriesGate):
        diag = [delta(i, i + 1) for i in range(1, gate.horizon + 1)]
        terms = kannan_rate_terms(diag, F.degree_s, with_2s_factor=gate.with_2s_factor)
        cert = certify_alpha_series(terms, gate.grid or DEFAULT_LAMBDA_GRID)
        gate_record = {"kind": "alpha-series", **cert.to_json_dict()}
        if not cert.certified:
            raise GateError(f"averaged-series gate rejected the family: {gate_record}")
    elif isinstance(gate, RelaxedCnGate):
        relaxed = check_relaxed_hypotheses(delta, F.degree_s, gate.horizon)
        gate_record = {"kind": "relaxed-cn", **relaxed.to_json_dict()}
        if not relaxed.accepted:
            raise GateError(f"relaxed-hypothesis gate rejected the family: {gate_record}")
    else:
        raise InputError(f"unknown gate {gate!r}")

    composed: dict[int, SelfMap] = {}

    def step_map(m: int) -> SelfMap:
        if m not in composed:
            composed[m] = iterate_power(family(m), r)
        return composed[m]

    def hyp(m: int, xs: list[Point], steps: list[float]) -> list[HypothesisEntry]:
        if m < 2:
            return []
        x_prev, y_prev = xs[m - 2], xs[m - 1]
        if x_prev.coords == y_prev.coords:
            return []
        d = float(delta(m - 1, m))
        lhs = F(steps[-1])
        if scheme == "kannan":
            parts = (steps[-2], steps[-1])
            inner = d * (parts[0] + parts[1])
        elif scheme == "kannan3":
            parts = (steps[-2], steps[-1], steps[-2])
            inner = d * (parts[0] + parts[1] + parts[2])
        elif scheme == "chatterjea":
            cross_xy = eval_distance(space, x_prev, xs[m])
            cross_yx = eval_distance(space, y_prev, y_prev)
            parts = (cross_xy, cross_yx)
            inner = d * (cross_xy + cross_yx)
        else:  # chatterjea3
            to_j = eval_distance(space, x_prev, step_map(m)(x_prev))
            to_i = eval_distance(space, y_prev, step_map(m - 1)(y_prev))
            parts = (to_j, to_i, steps[-2])
            inner = d * (to_j + to_i + steps[-2])
        rhs = F(inner)
        if gamma > 0.0 and psi is not None:
            rhs -= F(gamma * psi(*parts))
        return [HypothesisEntry(m, f"{scheme}-step", lhs, rhs)]

    trace, log, violated = _run_orbit(
        space, x0, step_map, hyp, step_tol, max_iter, halt_on_violation
    )

    bound = None
    if trace.converged and len(trace.step_dist) >= 2:
        n_steps = len(trace.step_dist)
        cns = product_terms_Cn([delta(i, i + 1) for i in range(1, n_steps)], F.degree_s)
        f0 = F(trace.step_dist[0])
        indices = tuple(range(1, n_steps))
        theo = tuple(float(c) * f0 for c in cns)
        emp = tuple(F(trace.step_dist[n]) for n in indices)
        ok = all(e <= t + DEFAULT_TOL for e, t in zip(emp, theo))
        bound = BoundCheck(indices, theo, emp, ok, "F(step_n) <= C_n F(step_0), C_n the running rate product")

    final = trace.final
    residuals = _residuals(space, final, ((f"T_{i}", family(i)) for i in probes))
    return FixedPointReport(
        point=final,
        residuals=residuals,
        trace=trace,
        bound_check=bound,
        hypothesis_log=tuple(log),
        worst_slack=_worst(log),
        assumptions={
            "complete_asserted": space.complete_asserted,
            "hausdorff_asserted": space.hausdorff_asserted,
            "gauge_degree": F.degree_s,
        },
        extras={
            "scheme": scheme,
            "gate": gate_record,
            "power_r": r,
            "hypothesis_violated": violated,
            "noncommon_probes": [i for i in probes if residuals[f"T_{i}"] > DEFAULT_TOL],
        },
    )


# ---------------------------------------------------------------------------
# post-hoc diagnostics


@dataclass(frozen=True)
class PerMapCheck:
    index: int
    residual: float
    verdict: str  # "unique", "second_fixed_point", "not_fixed", "rejected"
    second_point: Point | None = None


def _grid_rows(space: SpaceDescriptor, count: int) -> np.ndarray:
    per_axis = max(2, round(count ** (1.0 / space.dim)))
    return space.domain.grid(per_axis, OPEN_ENDPOINT_MARGIN)


def _domain_grid(space: SpaceDescriptor, count: int) -> list[Point]:
    return [Point(tuple(row)) for row in _grid_rows(space, count).tolist()]


def _second_fixed_point(space: SpaceDescriptor, y: Point, x_star: Point, tol: float) -> bool:
    sep = 0.0 if y.coords == x_star.coords else eval_distance(space, y, x_star)
    return sep > 10.0 * tol


def _batch_scan(space: SpaceDescriptor, T: SelfMap, x_star: Point, grid: np.ndarray,
                tol: float) -> tuple[Point | None, int]:
    """uniqueness_scan's loop over a prefix of the grid, with T.array and one eval_terms call.

    The prefix ends at the first row whose image is non-finite, of the
    wrong dimension or outside the domain.  Returns the loop's answer if it
    falls in the prefix, else None and the row where the loop must go on;
    that row raises the loop's error.  An oracle failure anywhere in the
    batch sends the whole scan to the loop, which meets it in its own order.
    """
    with np.errstate(all="ignore"):  # overflow and nan images count as bad rows
        images = np.asarray(T.array(grid), dtype=float)
    if images.shape != grid.shape:
        return None, 0
    good = np.isfinite(images).all(axis=1) & space.domain.contains_rows(grid) & space.domain.contains_rows(images)
    stop = len(grid) if good.all() else int(good.argmin())
    try:
        v = eval_terms(space, np.stack([grid[:stop], images[:stop]], axis=1), ((0, 1), (0, 0), (1, 1)))
    except (ConstructionError, OracleValueError):
        return None, 0
    # residual's max(a, b): a unless b is larger
    a, b = v[:, 0] - v[:, 1], v[:, 0] - v[:, 2]
    for r in np.flatnonzero(np.where(b > a, b, a) <= tol).tolist():
        y = Point(tuple(grid[r].tolist()))
        if _second_fixed_point(space, y, x_star, tol):
            return y, stop
    return None, stop


def uniqueness_scan(
    space: SpaceDescriptor,
    T: SelfMap,
    x_star: Point,
    grid_points: int = 1000,
    tol: float = DEFAULT_TOL,
) -> Point | None:
    """Grid scan for a second fixed point clearly separated from x_star.

    The grid is walked in order and the first qualifying point returned.
    A map with an array form is evaluated in one batch up to its first
    unusable image; the residual loop covers the rest and scalar maps.
    """
    grid = _grid_rows(space, grid_points)
    start = 0
    if T.array is not None:
        found, start = _batch_scan(space, T, x_star, grid, tol)
        if found is not None:
            return found
    for row in grid[start:].tolist():
        y = Point(tuple(row))
        if residual(space, y, T) <= tol and _second_fixed_point(space, y, x_star, tol):
            return y
    return None


def per_map_fixed_point_check(
    space: SpaceDescriptor,
    family: MapFamily,
    report: FixedPointReport,
    delta: Callable[[int, int], float | Fraction] | None = None,
    indices: Sequence[int] = DEFAULT_PROBES,
    grid_points: int = 1000,
    tol: float = DEFAULT_TOL,
) -> tuple[PerMapCheck, ...]:
    """Per-index verdicts on whether the family limit fixes each probed map.

    An index is rejected outright when its own displacement coefficient
    delta(i, i+1) reaches 1/2, since the per-map uniqueness argument needs
    the strict half bound.  Otherwise the residual decides fixedness and a
    grid scan looks for a competing fixed point.
    """
    if not report.converged:
        raise InputError("per-map checks need a converged family orbit")
    out: list[PerMapCheck] = []
    for i in indices:
        T = family(i)
        res = residual(space, report.point, T)
        if delta is not None and not (float(delta(i, i + 1)) < 0.5):
            out.append(PerMapCheck(i, res, "rejected"))
            continue
        if res > tol:
            out.append(PerMapCheck(i, res, "not_fixed"))
            continue
        second = uniqueness_scan(space, T, report.point, grid_points, tol)
        if second is not None:
            out.append(PerMapCheck(i, res, "second_fixed_point", second))
        else:
            out.append(PerMapCheck(i, res, "unique"))
    return tuple(out)


@dataclass(frozen=True)
class CauchyDiagnosis:
    limit_estimate: float
    spread: float
    is_cauchy: bool
    is_zero_cauchy: bool
    window: int

    def to_json_dict(self) -> dict:
        return {
            "limit_estimate": self.limit_estimate,
            "spread": self.spread,
            "is_cauchy": self.is_cauchy,
            "is_zero_cauchy": self.is_zero_cauchy,
            "window": self.window,
        }


def detect_cauchy(
    space: SpaceDescriptor,
    points: Sequence,
    window: int = 10,
    tol: float = 1e-6,
) -> CauchyDiagnosis:
    """Trailing-window test of p(x_n, x_m) settling to a common limit.

    All pair distances inside the trailing window must agree within tol for
    the Cauchy verdict; the mean is the limit estimate, and a near-zero
    estimate flags the orbit as vanishing-distance Cauchy.
    """
    if window < 1:
        raise InputError(f"window must be at least 1, got {window}")
    pts = [as_point(p, space.dim) for p in points]
    if len(pts) <= 2 * window:
        raise InputError(f"need more than {2 * window} points for a window of {window}")
    tail = pts[-window:]
    dists = [
        eval_distance(space, tail[a], tail[b])
        for a in range(len(tail))
        for b in range(a + 1, len(tail))
    ]
    est = float(np.mean(dists))
    spread = float(max(dists) - min(dists))
    return CauchyDiagnosis(
        limit_estimate=est,
        spread=spread,
        is_cauchy=spread <= tol,
        is_zero_cauchy=spread <= tol and est <= tol,
        window=window,
    )


def scan_limit_candidates(
    space: SpaceDescriptor,
    seq_points: Sequence,
    grid_points: int = 1000,
    window: int = 20,
    threshold: float = 1e-6,
) -> tuple[Point, ...]:
    """Grid points x with p(x_m, x) -> p(x, x) along the sequence tail.

    Two residuals must both clear the threshold: the raw mean of
    |p(x_m, x) - p(x, x)| over the trailing window, and the extrapolated
    intercept of a quadratic fit in 1/m over the upper half of the
    sequence.  The fit catches slow drifts the raw window average hides.
    """
    if window < 1:
        raise InputError(f"window must be at least 1, got {window}")
    pts = [as_point(p, space.dim) for p in seq_points]
    M = len(pts)
    if M < 2 * window:
        raise InputError(f"need at least {2 * window} sequence points")
    half = list(range(M // 2, M + 1))
    half = [m for m in half if 1 <= m <= M]
    inv = np.array([1.0 / m for m in half])
    # the window ends the fit range; the rest is checked once a grid point needs it
    tail: list[Point] | None = None
    head: list[Point] | None = None

    def inside(seq: list[Point], x: Point) -> list[Point]:
        # a pair-by-pair loop evaluates the pairs before an outside point first
        ok = list(takewhile(space.domain.contains, seq))
        if len(ok) < len(seq):
            _eval_column(space, ok, x)
            raise domain_error(space, seq[len(ok)].coords)
        return seq

    found: list[Point] = []
    for x in _domain_grid(space, grid_points):
        p_self = self_distance(space, x)
        if tail is None:
            tail = inside(pts[M - window:], x)
        tail_vals = _eval_column(space, tail, x)
        raw = abs(float(np.mean(tail_vals)) - p_self)
        if raw > 100.0 * threshold:
            continue  # fit cannot rescue a residual this large
        if head is None:
            head = inside([pts[m - 1] for m in half[:len(half) - len(tail)]], x)
        vals = np.array(_eval_column(space, head, x) + tail_vals)
        coeffs = np.polyfit(inv, vals, deg=2)
        intercept = float(coeffs[-1])
        fit_res = abs(intercept - p_self)
        if max(raw, fit_res) <= threshold:
            found.append(x)
    return tuple(found)
