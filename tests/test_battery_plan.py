"""The axiom battery's evaluation plan against per-point loops over eval_distance.

build_report draws each sampler stream once as an array and evaluates each
distance on it once.  The reference below is the plain form of every check:
each check draws its own Point stream and calls eval_distance per distance.
Both must give equal reports, witnesses and labels included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk.axioms import (
    MAX_WITNESSES,
    AxiomCheck,
    AxiomReport,
    ClassLabel,
    Witness,
    build_report,
    check_metric_type,
    check_pm1,
    check_pm2,
    check_pm3,
    check_pm4,
    check_positivity,
    classify,
    estimate_min_K,
)
from pmtk.spaces import (
    DEFAULT_TOL,
    Box,
    Sampler,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    chebyshev,
    eval_distance,
)

# ---------------------------------------------------------------------------
# reference: one loop per check


def _collect(axiom, witnesses, n):
    return AxiomCheck(axiom, "fail" if witnesses else "pass", tuple(witnesses[:MAX_WITNESSES]), n)


def ref_pm1(sp, s, tol):
    witnesses, n = [], 0
    for x in s.points(count=256):
        n += 1
        a, b = eval_distance(sp, x, x), eval_distance(sp, x, x)
        if abs(a - b) > tol:
            witnesses.append(Witness("pm1", (x, x), a, b))
    for x, y in s.pairs():
        n += 1
        if chebyshev(x, y) <= 10.0 * tol:
            continue
        pxy = eval_distance(sp, x, y)
        if eval_distance(sp, x, x) == pxy and eval_distance(sp, y, y) == pxy:
            witnesses.append(Witness("pm1", (x, y), pxy, pxy))
    return _collect("pm1", witnesses, n)


def ref_pair_check(sp, s, axiom, tol):
    """pm2, positivity, and the symmetry check under the name pm3 or D2."""
    witnesses, n = [], 0
    for x, y in s.pairs():
        n += 1
        if axiom == "pm2":
            lhs, rhs = eval_distance(sp, x, x), eval_distance(sp, x, y)
            bad = lhs > rhs + tol
        elif axiom == "positivity":
            if chebyshev(x, y) <= 10.0 * tol:
                continue
            lhs, rhs = eval_distance(sp, x, y), 0.0
            bad = lhs <= tol
        else:
            lhs, rhs = eval_distance(sp, x, y), eval_distance(sp, y, x)
            bad = abs(lhs - rhs) > tol
        if bad:
            witnesses.append(Witness(axiom, (x, y), lhs, rhs))
    return _collect(axiom, witnesses, n)


def ref_d1(sp, s, tol):
    witnesses, n = [], 0
    for x in s.points(count=512):
        n += 1
        v = eval_distance(sp, x, x)
        if v > tol:
            witnesses.append(Witness("D1", (x,), v, 0.0))
    return _collect("D1", witnesses, n)


def _sides(sp, chain, weighted):
    x, *mid, y = chain
    lhs = eval_distance(sp, x, y)
    if weighted:
        lhs = lhs + sum(eval_distance(sp, z, z) for z in mid)
    legs = [x, *mid, y]
    return lhs, sum(eval_distance(sp, legs[i], legs[i + 1]) for i in range(len(legs) - 1))


def ref_chain_check(sp, s, axiom, lengths, K, weighted, tol):
    witnesses, n = [], 0
    for length in lengths:
        for chain in s.chains(length):
            n += 1
            lhs, bracket = _sides(sp, chain, weighted)
            if lhs > K * bracket + tol:
                witnesses.append(Witness(axiom, chain, lhs, K * bracket))
    return _collect(axiom, witnesses, n)


def ref_min_K(sp, s, lengths, tol):
    best = 1.0
    for length in lengths:
        for chain in s.chains(length):
            lhs, bracket = _sides(sp, chain, True)
            if bracket <= 0.0:
                if lhs > tol:
                    return float("inf")
                continue
            best = max(best, lhs / bracket)
    return best


def _lengths(sp, mode):
    n = sp.polygon_order_n
    return [n] if mode == "exact" else list(range(1, n + 1))


def ref_labels(sp, s, mode, tol):
    labels = []
    lengths, K = _lengths(sp, mode), sp.coeff_K
    core = (ref_pm1(sp, s, tol), ref_pair_check(sp, s, "pm2", tol), ref_pair_check(sp, s, "pm3", tol))
    if all(c.passed for c in core):
        declared = ref_chain_check(sp, s, "pm4", lengths, K, True, tol).passed
        if declared:
            labels.append(ClassLabel(SpaceClass.KPMS, sp.polygon_order_n, K))
        if sp.polygon_order_n == 1:
            if declared:
                labels.append(ClassLabel(SpaceClass.PARTIAL_B_METRIC, 1, K))
        elif ref_chain_check(sp, s, "pm4", [1], K, True, tol).passed:
            labels.append(ClassLabel(SpaceClass.PARTIAL_B_METRIC, 1, K))
        if ref_chain_check(sp, s, "pm4", [2], 1.0, True, tol).passed:
            labels.append(ClassLabel(SpaceClass.PARTIAL_RECTANGULAR, 2, 1.0))
    d_checks = (ref_d1(sp, s, tol), ref_pair_check(sp, s, "D2", tol),
                ref_chain_check(sp, s, "D3", lengths, K, False, tol))
    if all(c.passed for c in d_checks):
        labels.append(ClassLabel(SpaceClass.METRIC_TYPE, sp.polygon_order_n, K))
        pos = ref_pair_check(sp, s, "positivity", tol)
        tri = ref_chain_check(sp, s, "pm4", [1], 1.0, True, tol)
        if pos.passed and tri.passed:
            labels.append(ClassLabel(SpaceClass.METRIC, 1, 1.0))
    return tuple(labels)


def reference_report(sp, s, mode, tol=DEFAULT_TOL):
    lengths, K = _lengths(sp, mode), sp.coeff_K
    checks = {
        "pm1": ref_pm1(sp, s, tol),
        "pm2": ref_pair_check(sp, s, "pm2", tol),
        "pm3": ref_pair_check(sp, s, "pm3", tol),
        "pm4": ref_chain_check(sp, s, "pm4", lengths, K, True, tol),
        "D1": ref_d1(sp, s, tol),
        "D2": ref_pair_check(sp, s, "D2", tol),
        "D3": ref_chain_check(sp, s, "D3", lengths, K, False, tol),
    }
    if sp.class_claim is SpaceClass.METRIC:
        checks["positivity"] = ref_pair_check(sp, s, "positivity", tol)
    min_K = None
    if all(checks[k].passed for k in ("pm1", "pm2", "pm3")):
        min_K = ref_min_K(sp, s, lengths, tol)
    return AxiomReport(sp.class_claim, checks, min_K, mode, ref_labels(sp, s, mode, tol))


# ---------------------------------------------------------------------------
# random expression spaces

LEAVES = [{"op": "absdiff"}, {"op": "max"}, {"op": "const", "value": 0.5},
          {"op": "pt", "source": {"op": "max"}}, {"op": "power", "base": {"op": "absdiff"}, "q": 2.0}]


def _grow(children):
    return st.one_of(
        st.builds(lambda b, q: {"op": "power", "base": b, "q": q}, children, st.sampled_from([0.5, 2.0, 3.0])),
        st.builds(lambda a, sc, off: {"op": "affine", "arg": a, "scale": sc, "offset": off},
                  children, st.sampled_from([0.5, 2.0]), st.sampled_from([0.0, 0.25, 2.0])),
        st.builds(lambda a, b: {"op": "sum", "args": [a, b]}, children, children),
        st.builds(lambda a: {"op": "dp", "source": a}, children),
    )


@st.composite
def spaces(draw):
    dims = draw(st.integers(1, 2))
    bounds = []
    for _ in range(dims):
        lo = draw(st.sampled_from([0.0, 0.25, 0.5]))
        flags = draw(st.tuples(st.booleans(), st.booleans()))
        bounds.append((lo, lo + draw(st.sampled_from([0.5, 1.0, 2.0])), *flags))
    box = Box(tuple(bounds))
    x0 = [lo + 0.5 * (hi - lo) for lo, hi, _, _ in box.bounds]
    leaves = st.sampled_from(LEAVES + [{"op": "basepoint", "source": {"op": "absdiff"}, "x0": x0}])
    expr = draw(st.recursive(leaves, _grow, max_leaves=3))
    n = draw(st.integers(1, 3))
    K = draw(st.sampled_from([1.0, 1.5, 4.0]))
    claims = [SpaceClass.KPMS, SpaceClass.METRIC_TYPE, SpaceClass.METRIC]
    if n == 1:
        claims.append(SpaceClass.PARTIAL_B_METRIC)
    if n == 2 and K == 1.0:
        claims.append(SpaceClass.PARTIAL_RECTANGULAR)
    space = SpaceDescriptor(oracle=build_oracle(expr), coeff_K=K, polygon_order_n=n, domain=box,
                            class_claim=draw(st.sampled_from(claims)))
    sampler = Sampler(seed=draw(st.integers(0, 2**64 - 1)), region=box,
                      grid_density=draw(st.integers(2, 6)), random_count=draw(st.integers(1, 30)))
    return space, sampler


@settings(max_examples=40, deadline=None)
@given(case=spaces(), mode=st.sampled_from(["exact", "upto"]))
def test_report_equals_reference_loops_and_one_by_one_checks(case, mode):
    space, sampler = case
    report = build_report(space, sampler, chain_mode=mode, with_labels=True)
    assert report == reference_report(space, sampler, mode)

    one_by_one = {
        "pm1": check_pm1(space, sampler),
        "pm2": check_pm2(space, sampler),
        "pm3": check_pm3(space, sampler),
        "pm4": check_pm4(space, sampler, chain_mode=mode),
        **check_metric_type(space, sampler, chain_mode=mode),
    }
    if space.class_claim is SpaceClass.METRIC:
        one_by_one["positivity"] = check_positivity(space, sampler)
    assert report.checks == one_by_one
    assert list(report.checks) == list(one_by_one)
    if report.min_K_estimate is not None:
        assert report.min_K_estimate == estimate_min_K(space, sampler, chain_mode=mode)
    assert report.labels == classify(space, sampler, chain_mode=mode)


# ---------------------------------------------------------------------------
# work done by one battery


class RecordingSampler(Sampler):
    """A Sampler that logs its array draws and refuses per-point streams."""

    def point_array(self, count=None):
        DRAWS.append(("points", count))
        return super().point_array(count)

    def pair_array(self, count=None):
        DRAWS.append(("pairs", count))
        return super().pair_array(count)

    def chain_array(self, chain_len, count=None):
        DRAWS.append(("chains", chain_len))
        return super().chain_array(chain_len, count)

    def points(self, count=None):
        raise AssertionError("the battery drew a per-point stream")

    pairs = chains = points


DRAWS: list = []


@pytest.mark.parametrize("claim,n,mode,chain_lengths", [
    (SpaceClass.METRIC, 1, "exact", [1, 2]),  # chains(2) is the rectangular probe
    (SpaceClass.METRIC_TYPE, 3, "upto", [1, 2, 3]),  # both probes reuse the declared lengths
])
def test_battery_draws_each_stream_once_and_evaluates_each_distance_once(claim, n, mode, chain_lengths):
    N = 40
    calls = []
    oracle = build_oracle({"op": "absdiff"})
    counting = type(oracle)(fn=lambda x, y: calls.append(1) or oracle.fn(x, y), spec=oracle.spec)
    space = SpaceDescriptor(oracle=counting, coeff_K=1.0, polygon_order_n=n, domain=Box.closed(0.0, 1.0),
                            class_claim=claim)
    DRAWS.clear()
    report = build_report(space, RecordingSampler(seed=1, region=space.domain, random_count=N),
                          chain_mode=mode, with_labels=True)
    assert [lb.kind for lb in report.labels][-1] is SpaceClass.METRIC
    expected_draws = [("points", 256), ("pairs", None), ("points", 512)] + [("chains", L) for L in chain_lengths]
    assert sorted(DRAWS, key=repr) == sorted(expected_draws, key=repr)
    # pm1 evaluates each of 256 self-distances twice, D1 each of 512 once;
    # a pair gives p(x,x), p(y,y), p(x,y), p(y,x); a chain of length L
    # gives p(x,y), L self-distances and L + 1 legs
    assert len(calls) == 2 * 256 + 512 + 4 * N + sum((2 * L + 2) * N for L in chain_lengths)
