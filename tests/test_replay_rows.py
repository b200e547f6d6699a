"""The row-evaluated fixture-replay loops against their case-by-case forms.

_e5_display_violations maps each sample point once per index and evaluates
the oracle by rows; scan_limit_candidates checks the sequence tail against
the domain once and evaluates p(x_m, x) one column per grid point; the
basepoint construction evaluates its domination scan as one batch.  The
references below are the plain loops, one eval_distance call per distance.
Both must give the same counts, candidates and provenance, and the scan the
same errors with the same messages.
"""

import math

import numpy as np
import pytest

from pmtk.errors import DomainError, InputError, OracleValueError
from pmtk.fixtures import _e5_display_violations, _e5_family, e5_delta, get_fixture
from pmtk.solvers import _domain_grid, scan_limit_candidates
from pmtk.spaces import (
    Box,
    MapFamily,
    Point,
    Sampler,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    as_point,
    build_oracle,
    eval_distance,
    oracle_from_callable,
    self_distance,
)
from pmtk.axioms import check_metric_type
from pmtk.transforms import from_metric_with_basepoint

# ---------------------------------------------------------------------------
# references: one eval_distance call per distance


def reference_e5_violations(space, family, tol=1e-9):
    grid = [k / 12.0 for k in range(1, 13)]
    idx = [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]
    violations = 0

    def check(x, y, i, j):
        nonlocal violations
        px, py = Point.of(x), Point.of(y)
        Ti, Tj = family(i), family(j)
        lhs = eval_distance(space, Ti(px), Tj(py))
        d = float(e5_delta(i, j))
        rhs = d * (eval_distance(space, px, Tj(py)) + eval_distance(space, py, Ti(px)))
        if lhs > rhs + tol:
            violations += 1

    for i, j in idx:
        for x in grid:
            for y in grid:
                check(x, y, i, j)
        for x in grid:
            check(x, 0.0, i, j)
            check(0.0, x, i, j)
        check(0.0, 0.0, i, j)
    return violations


def reference_scan(space, seq_points, grid_points=1000, window=20, threshold=1e-6):
    pts = [as_point(p, space.dim) for p in seq_points]
    M = len(pts)
    if M < 2 * window:
        raise InputError(f"need at least {2 * window} sequence points")
    half = list(range(M // 2, M + 1))
    half = [m for m in half if 1 <= m <= M]
    inv = np.array([1.0 / m for m in half])
    found = []
    for x in _domain_grid(space, grid_points):
        p_self = self_distance(space, x)
        tail_vals = [eval_distance(space, pts[m - 1], x) for m in range(M - window + 1, M + 1)]
        raw = abs(float(np.mean(tail_vals)) - p_self)
        if raw > 100.0 * threshold:
            continue
        vals = np.array([eval_distance(space, pts[m - 1], x) for m in half])
        coeffs = np.polyfit(inv, vals, deg=2)
        intercept = float(coeffs[-1])
        fit_res = abs(intercept - p_self)
        if max(raw, fit_res) <= threshold:
            found.append(x)
    return tuple(found)


def reference_basepoint_note(space, base, sampler, tol=1e-9):
    hypothesis_violations = 0
    witness = None
    for x, y in sampler.pairs(count=600):
        if x.coords == y.coords:
            continue
        if eval_distance(space, base, x) > eval_distance(space, x, y) + tol:
            hypothesis_violations += 1
            if witness is None:
                witness = (list(x.coords), list(y.coords))
    note = {"construction": "basepoint", "x0": list(base.coords)}
    if hypothesis_violations:
        note["warning"] = "sampled basepoint domination hypothesis failed"
        note["hypothesis_violations"] = hypothesis_violations
        note["hypothesis_witness"] = witness
    return note


# ---------------------------------------------------------------------------
# helpers


def counted(oracle, box, claim=SpaceClass.KPMS, K=1.0, n=1):
    """A space whose oracle records each call."""
    oracle = build_oracle(oracle) if not hasattr(oracle, "fn") else oracle
    calls = []
    fn = oracle.fn
    space = SpaceDescriptor(
        oracle=type(oracle)(fn=lambda x, y: calls.append(1) or fn(x, y), spec=oracle.spec),
        coeff_K=K, polygon_order_n=n, domain=box, class_claim=claim,
    )
    return space, calls


def raised(fn, *args, **kwargs):
    with pytest.raises(InputError) as err:
        fn(*args, **kwargs)
    return type(err.value), str(err.value)


UNIT = Box.closed(0.0, 1.0)

# ---------------------------------------------------------------------------
# E5 display check

SPACES = {
    "absdiff": {"op": "absdiff"},
    "power": {"op": "power", "base": {"op": "absdiff"}, "q": 2.0},
    "pt-max": {"op": "pt", "source": {"op": "max"}},
}

FAMILIES = {
    "jump": _e5_family(),
    "geometric": MapFamily.geometric(2.0, "geo"),
    # T_i x = x + i/7, wrapped back into [0, 1)
    "wrap": MapFamily(generator=lambda i: SelfMap.scalar(lambda t: math.fmod(t + i / 7.0, 1.0)), label="wrap"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("oracle", sorted(SPACES))
def test_e5_violation_counts_match_the_case_loop(oracle, family):
    space, calls = counted(SPACES[oracle], UNIT)
    counts = []
    # a negative slack also counts near-ties, so every combination sees violations
    for tol in (-0.05, 0.0, 1e-9):
        del calls[:]
        got = _e5_display_violations(space, FAMILIES[family], tol)
        # 13 rows per index for p(x, T_i .), 13 per ordered index pair for the left side
        assert len(calls) == 13 * 13 * 6 + 13 * 13 * 30
        counts.append(got)
        assert got == reference_e5_violations(space, FAMILIES[family], tol)
    assert max(counts) > 0


def test_e5_fixture_count_is_zero_with_fewer_oracle_calls():
    fx = get_fixture("E5-chatterjea-family")
    space, calls = counted(fx.space.oracle, fx.space.domain)
    assert _e5_display_violations(space, fx.maps) == 0
    assert len(calls) == 6084
    del calls[:]
    assert reference_e5_violations(space, fx.maps) == 0
    assert len(calls) == 15210


def test_e5_invalid_oracle_and_outside_points_raise_the_same_error_types():
    # the check only ever runs on the E5 fixture, so it keeps the error types
    # but may name a different first point than the case-by-case loop
    nan_space, _ = counted(oracle_from_callable(lambda a, b: float("nan")), UNIT)
    assert raised(_e5_display_violations, nan_space, _e5_family())[0] is OracleValueError
    assert raised(reference_e5_violations, nan_space, _e5_family())[0] is OracleValueError
    # the jump maps send positive points to 1.0, and 7/12 .. 1 lie outside [0, 0.5]
    half, _ = counted({"op": "absdiff"}, Box.closed(0.0, 0.5))
    assert raised(_e5_display_violations, half, _e5_family())[0] is DomainError
    assert raised(reference_e5_violations, half, _e5_family())[0] is DomainError


# ---------------------------------------------------------------------------
# limit scan


def half_reciprocal(n, offset=0.0):
    return [Point.of(offset + 1.0 / (2.0 * m)) for m in range(1, n + 1)]


def towards(limit, n, dim=1):
    """x_m = limit + 0.3 (-0.9)^m on each axis: an oscillating approach."""
    return [Point(tuple(limit + 0.3 * (-0.9) ** m for _ in range(dim))) for m in range(1, n + 1)]


SCANS = {
    "E2": (get_fixture("E2-open-interval").space.oracle.spec, Box.open(0.0, 1.0), half_reciprocal(200), 1000),
    "absdiff": ({"op": "absdiff"}, UNIT, towards(0.4, 120), 2000),
    "max": ({"op": "max"}, UNIT, half_reciprocal(150, offset=0.2), 500),
    "absdiff-2d": ({"op": "absdiff"}, Box(((0.0, 1.0, False, False),) * 2), towards(0.5, 80, dim=2), 500),
}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_candidates_match_the_pairwise_loop(name):
    spec, box, seq, grid = SCANS[name]
    space, calls = counted(spec, box)
    sizes = []
    for threshold in (1e-6, 1e-4, 1e-2, 0.1, 0.3):
        del calls[:]
        got = scan_limit_candidates(space, seq, grid_points=grid, window=20, threshold=threshold)
        new_calls = len(calls)
        del calls[:]
        want = reference_scan(space, seq, grid_points=grid, window=20, threshold=threshold)
        assert got == want
        assert new_calls <= len(calls)
        sizes.append(len(got))
    assert max(sizes) > 0


def test_scan_of_the_e2_fixture_evaluates_each_distance_once():
    fx = get_fixture("E2-open-interval")
    space, calls = counted(fx.space.oracle, fx.space.domain)
    assert scan_limit_candidates(space, half_reciprocal(200), grid_points=1000, window=20) == ()
    # p(x, x) and the 20 window distances per grid point, and the other 81
    # fit-range distances for the 13 grid points that pass the raw screen
    assert len(calls) == 1000 * 21 + 13 * 81
    del calls[:]
    assert reference_scan(space, half_reciprocal(200), grid_points=1000, window=20) == ()
    assert len(calls) == 1000 * 21 + 13 * 101


@pytest.mark.parametrize("where", ["tail", "tail-first", "fit-range", "fit-range-first"])
def test_outside_sequence_point_raises_the_same_domain_error(where):
    seq = towards(0.4, 120)
    index = {"tail": 110, "tail-first": 100, "fit-range": 75, "fit-range-first": 59}[where]
    seq[index] = Point.of(1.5)
    space, _ = counted({"op": "absdiff"}, UNIT)
    got = raised(scan_limit_candidates, space, seq, grid_points=500, window=20, threshold=0.3)
    assert got == raised(reference_scan, space, seq, grid_points=500, window=20, threshold=0.3)
    assert got == (DomainError, f"point (1.5,) outside domain {UNIT.to_json()}")


def test_outside_point_in_the_fit_range_is_not_an_error_when_no_grid_point_passes():
    seq = towards(0.4, 120)
    seq[70] = Point.of(1.5)
    space, _ = counted({"op": "absdiff"}, UNIT)
    # the window's residual is at least 0.1 everywhere, so the fit range is never read
    assert scan_limit_candidates(space, seq, grid_points=500, window=20, threshold=1e-6) == ()
    assert reference_scan(space, seq, grid_points=500, window=20, threshold=1e-6) == ()


def oracle_that(bad):
    """absdiff, except where bad(a, b) names the invalid value to return."""
    def fn(a, b):
        v = bad(a, b)
        return abs(a - b) if v is None else v
    return oracle_from_callable(fn)


SEQ = towards(0.4, 120)
TAIL_POINT, HEAD_POINT = SEQ[105].coords[0], SEQ[70].coords[0]
INVALID = {
    "nan-self": lambda a, b: float("nan") if a == b and a > 0.5 else None,
    "negative-tail": lambda a, b: -0.25 if a == TAIL_POINT and b > 0.3 else None,
    "nan-fit-range": lambda a, b: float("nan") if a == HEAD_POINT else None,
    "inf-everywhere": lambda a, b: math.inf,
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_oracle_value_raises_the_same_error(case):
    space, _ = counted(oracle_that(INVALID[case]), UNIT)
    got = raised(scan_limit_candidates, space, SEQ, grid_points=500, window=20, threshold=0.3)
    assert got == raised(reference_scan, space, SEQ, grid_points=500, window=20, threshold=0.3)
    assert got[0] is OracleValueError


def test_invalid_value_before_an_outside_tail_point_is_reported_first():
    seq = list(SEQ)
    seq[110] = Point.of(-1.0)
    space, _ = counted(oracle_that(lambda a, b: -0.25 if a == TAIL_POINT else None), UNIT)
    got = raised(scan_limit_candidates, space, seq, grid_points=500, window=20, threshold=0.3)
    assert got == raised(reference_scan, space, seq, grid_points=500, window=20, threshold=0.3)
    assert got[0] is OracleValueError


def test_scan_keeps_its_errors_for_short_sequences_and_wrong_dimensions():
    space, _ = counted({"op": "absdiff"}, UNIT)
    with pytest.raises(InputError, match="at least 40 sequence points"):
        scan_limit_candidates(space, SEQ[:39], window=20)
    with pytest.raises(InputError, match="expected a 1-dimensional point"):
        scan_limit_candidates(space, SEQ[:-1] + [Point.of(0.1, 0.1)], window=20)


# ---------------------------------------------------------------------------
# basepoint construction


BASEPOINT_CASES = {
    "absdiff-default": ({"op": "absdiff"}, UNIT, 0.5, None),
    "absdiff-300": ({"op": "absdiff"}, UNIT, 0.0, Sampler(seed=4, region=UNIT, grid_density=8, random_count=300)),
    "absdiff-1000": ({"op": "absdiff"}, UNIT, 0.25, Sampler(seed=9, region=UNIT, grid_density=12, random_count=1000)),
    "discrete": ({"op": "dp", "source": {"op": "const", "value": 1.0}}, UNIT, 0.5, None),
    "absdiff-2d": ({"op": "absdiff"}, Box(((0.0, 1.0, False, False),) * 2), (0.5, 0.5), None),
}


@pytest.mark.parametrize("case", sorted(BASEPOINT_CASES))
def test_basepoint_provenance_and_oracle_calls_match_the_pair_loop(case):
    spec, box, x0, sampler = BASEPOINT_CASES[case]
    space, calls = counted(spec, box, claim=SpaceClass.METRIC_TYPE)
    derived = from_metric_with_basepoint(space, x0, sampler)
    made = len(calls)
    del calls[:]
    used = sampler or Sampler(seed=0, region=box, grid_density=12, random_count=600)
    check_metric_type(space, used, K=1.0, chain_len=1)
    base = Point(tuple(x0)) if isinstance(x0, tuple) else Point.of(x0)
    want = reference_basepoint_note(space, base, used)
    assert made == len(calls)
    assert derived.provenance == want
    if case != "discrete":
        assert want["hypothesis_violations"] > 0
