"""verify_bound against the pair-by-pair loop over eval_distance.

verify_bound checks each iterate against the domain once and evaluates the
oracle one row per even index e.  The reference below is the plain form:
one eval_distance call per (e, m) pair.  Both must give the same BoundCheck,
bit for bit, the same errors with the same messages, and the same number of
oracle calls.
"""

import struct

import pytest

from pmtk.errors import DomainError, InputError, OracleValueError
from pmtk.solvers import BoundCheck, IterationTrace, verify_bound
from pmtk.spaces import (
    Box,
    Point,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    eval_distance,
    oracle_from_callable,
)

# ---------------------------------------------------------------------------
# reference: one eval_distance call per pair


def later_indices(N, e):
    later = range(e + 1, N + 1)
    if N - e > 400:
        stride = (N - e) // 400 + 1
        later = list(range(e + 1, N + 1, stride))
        if later[-1] != N:
            later.append(N)
    return later


def reference_bound(space, trace, K, rate, seed_dist, tol=1e-9):
    N = len(trace.iterates) - 1
    indices, theo, emp = [], [], []
    scale = K * seed_dist / (1.0 - rate)
    for e in range(0, N, 2):
        later = later_indices(N, e)
        observed = max(eval_distance(space, trace.iterates[e], trace.iterates[m]) for m in later)
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


def bits(values):
    return [(type(v), struct.pack("<d", v)) for v in values]


def assert_same_bound(got, want):
    assert got == want
    assert bits(got.theoretical) == bits(want.theoretical)
    assert bits(got.empirical) == bits(want.empirical)


def counted(expr, dim, lo=0.0, hi=1.0):
    oracle = expr if not isinstance(expr, dict) else build_oracle(expr)
    calls = []
    fn = oracle.fn
    space = SpaceDescriptor(
        oracle=type(oracle)(fn=lambda x, y: calls.append(1) or fn(x, y), spec=oracle.spec),
        coeff_K=1.0, polygon_order_n=1,
        domain=Box(((lo, hi, False, False),) * dim),
        class_claim=SpaceClass.KPMS,
    )
    return space, calls


def orbit(N, dim, c=0.99):
    """A wobbling decay towards 0 inside [0, 1]^dim; no two iterates repeat."""
    coords = [0.9 - 0.05 * k for k in range(dim)]
    pts = []
    for m in range(N + 1):
        pts.append(Point(tuple(coords)))
        coords = [c * x + (1e-3 * (k + 1) if m % 3 == 0 else 0.0) for k, x in enumerate(coords)]
    return IterationTrace(tuple(pts), (0.5,) * N, (0.0,) * (N + 1), converged=False, stop_reason="synthetic")


ORACLES = [
    {"op": "absdiff"},
    {"op": "max"},
    {"op": "affine", "arg": {"op": "power", "base": {"op": "absdiff"}, "q": 2}, "offset": 0.25},
]

# ---------------------------------------------------------------------------
# parity


ENVELOPES = ((1.0, 0.99, 1e-9), (2.0, 0.5, 1e-12), (1.0, 0.999, 0.0))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 17, 400, 401, 402, 645, 1200])
def test_one_dimensional_orbits_match_pairwise_loop(N):
    trace = orbit(N, 1)
    pairs = sum(len(later_indices(N, e)) for e in range(0, N, 2))
    # small orbits run every oracle, long ones one oracle each
    for i in range(3) if N <= 402 else [N % 3]:
        space, calls = counted(ORACLES[i], 1)
        K, rate, tol = ENVELOPES[i]
        got = verify_bound(space, trace, K, rate, 0.7, tol=tol)
        assert len(calls) == pairs
        assert_same_bound(got, reference_bound(space, trace, K, rate, 0.7, tol=tol))


@pytest.mark.parametrize("N", [1, 2, 5, 401, 1200])
def test_two_dimensional_orbits_match_pairwise_loop(N):
    trace = orbit(N, 2, c=0.995)
    space, calls = counted(ORACLES[N % 2], 2)
    got = verify_bound(space, trace, 1.5, 0.9, 0.3)
    assert len(calls) == sum(len(later_indices(N, e)) for e in range(0, N, 2))
    assert_same_bound(got, reference_bound(space, trace, 1.5, 0.9, 0.3))


def test_iterates_given_as_plain_numbers_are_coerced_like_eval_distance():
    pts = (0.5, 0.25, [0.125], Point.of(0.0625))
    trace = IterationTrace(pts, (0.1,) * 3, (0.0,) * 4, converged=False, stop_reason="synthetic")
    space, _ = counted({"op": "absdiff"}, 1)
    assert_same_bound(verify_bound(space, trace, 1.0, 0.5, 0.25), reference_bound(space, trace, 1.0, 0.5, 0.25))


# ---------------------------------------------------------------------------
# errors


def raised(fn, *args):
    with pytest.raises(InputError) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("outside", [1, 2, 250, 450, 600])
def test_iterate_outside_the_domain_raises_the_same_domain_error(outside):
    trace = orbit(600, 1)
    pts = list(trace.iterates)
    pts[outside] = Point.of(3.0)
    bad = IterationTrace(tuple(pts), trace.step_dist, trace.self_dist, False, "synthetic")
    space, _ = counted({"op": "absdiff"}, 1)
    got = raised(verify_bound, space, bad, 1.0, 0.5, 0.5)
    assert got == raised(reference_bound, space, bad, 1.0, 0.5, 0.5)
    assert got[0] is DomainError
    assert "(3.0,) outside domain" in got[1]


def test_wrong_dimension_iterate_raises_the_same_input_error():
    trace = orbit(20, 1)
    pts = list(trace.iterates)
    pts[7] = Point.of(0.1, 0.1)
    bad = IterationTrace(tuple(pts), trace.step_dist, trace.self_dist, False, "synthetic")
    space, _ = counted({"op": "absdiff"}, 1)
    got = raised(verify_bound, space, bad, 1.0, 0.5, 0.5)
    assert got == raised(reference_bound, space, bad, 1.0, 0.5, 0.5)
    assert "expected a 1-dimensional point" in got[1]


@pytest.mark.parametrize("N", [30, 700])
def test_negative_oracle_raises_the_same_error_naming_both_points(N):
    trace = orbit(N, 1)
    x, y = trace.iterates[4].coords[0], trace.iterates[N - 1].coords[0]
    space, _ = counted(oracle_from_callable(lambda a, b: -0.5 if (a, b) == (x, y) else abs(a - b)), 1)
    got = raised(verify_bound, space, trace, 1.0, 0.5, 0.5)
    assert got == raised(reference_bound, space, trace, 1.0, 0.5, 0.5)
    assert got == (OracleValueError, f"oracle returned invalid distance -0.5 at {(x,)}, {(y,)}")


def test_invalid_value_before_an_outside_iterate_is_reported_first():
    # the pair (x_0, x_1) is evaluated before x_5 is ever used
    trace = orbit(10, 1)
    pts = list(trace.iterates)
    pts[5] = Point.of(-2.0)
    bad = IterationTrace(tuple(pts), trace.step_dist, trace.self_dist, False, "synthetic")
    x0, x1 = pts[0].coords[0], pts[1].coords[0]
    space, _ = counted(oracle_from_callable(lambda a, b: float("nan") if (a, b) == (x0, x1) else abs(a - b)), 1)
    got = raised(verify_bound, space, bad, 1.0, 0.5, 0.5)
    assert got == raised(reference_bound, space, bad, 1.0, 0.5, 0.5)
    assert got[0] is OracleValueError and "nan" in got[1]
