"""Reference checker: recomputes every checked value without calling pmtk.

pmtk objects enter here only as inputs (a sampler's point streams, a
report's fields, an orbit's iterates).  Distances, verdicts, envelopes and
certificates are recomputed from plain Python and numpy formulas and then
compared against what the program reported.  Each public ``check_*``
function returns a list of problem strings; an empty list means the output
is correct.

Float operations follow the program's documented evaluation order (for
example the self-distance terms of ``pt`` are summed before subtracting),
and powers go through Python's own ``**`` rather than ``numpy.power``,
whose results differ in the last bit on a few percent of inputs.  That
keeps exact ties (the pm1 plateau test) decidable on both sides.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
MAX_WITNESSES = 16


# ---------------------------------------------------------------------------
# oracle formulas over (N, d) coordinate arrays


def _pow(values: np.ndarray, q: float) -> np.ndarray:
    return np.fromiter((v**q for v in values.tolist()), dtype=float, count=len(values))


def compile_formula(expr):
    """Turn a JSON oracle expression into f(X, Y) over (N, d) float arrays."""
    op = expr["op"]
    if op == "absdiff":
        def absdiff(X, Y):
            if X.shape[1] == 1:
                return np.abs(X[:, 0] - Y[:, 0])
            return np.abs(X - Y).max(axis=1)
        return absdiff
    if op == "max":
        return lambda X, Y: np.maximum(X.max(axis=1), Y.max(axis=1))
    if op == "const":
        value = float(expr["value"])
        return lambda X, Y: np.full(len(X), value)
    if op == "power":
        base, q = compile_formula(expr["base"]), float(expr["q"])
        return lambda X, Y: _pow(base(X, Y), q)
    if op == "affine":
        arg = compile_formula(expr["arg"])
        scale, offset = float(expr.get("scale", 1.0)), float(expr.get("offset", 0.0))
        return lambda X, Y: scale * arg(X, Y) + offset
    if op == "sum":
        parts = [compile_formula(a) for a in expr["args"]]

        def total(X, Y):
            acc = np.zeros(len(X))
            for part in parts:
                acc = acc + part(X, Y)
            return acc
        return total
    if op == "pt":
        src = compile_formula(expr["source"])

        def pt(X, Y):
            v = 2.0 * src(X, Y) - (src(X, X) + src(Y, Y))
            return np.where(v < 0.0, 0.0, v)
        return pt
    if op == "dp":
        src = compile_formula(expr["source"])
        return lambda X, Y: np.where((X == Y).all(axis=1), 0.0, src(X, Y))
    if op == "basepoint":
        src = compile_formula(expr["source"])
        x0 = np.asarray(expr["x0"], dtype=float)

        def bp(X, Y):
            B = np.broadcast_to(x0, X.shape)
            a, b = src(X, B), src(Y, B)
            return 0.5 * ((src(X, Y) + np.minimum(a, b)) + np.maximum(a, b))
        return bp
    raise ValueError(f"no reference formula for op {op!r}")


def point_array(points) -> np.ndarray:
    """(N, d) array from a sequence of pmtk Points."""
    return np.array([p.coords for p in points], dtype=float)


def tuple_arrays(tuples) -> list[np.ndarray]:
    """One (N, d) array per tuple position from pmtk pair or chain streams."""
    width = len(tuples[0])
    return [point_array([t[i] for t in tuples]) for i in range(width)]


def _chebyshev(X, Y) -> np.ndarray:
    return np.abs(X - Y).max(axis=1)


# ---------------------------------------------------------------------------
# axiom battery


def _chain_lengths(order: int, mode: str) -> list[int]:
    return [order] if mode == "exact" else list(range(1, order + 1))


def _chain_sides(f, arrays, weighted: bool):
    X, *mid, Y = arrays
    lhs = f(X, Y)
    if weighted:
        selfs = np.zeros(len(X))
        for Z in mid:
            selfs = selfs + f(Z, Z)
        lhs = lhs + selfs
    bracket = np.zeros(len(X))
    legs = [X, *mid, Y]
    for a, b in zip(legs, legs[1:]):
        bracket = bracket + f(a, b)
    return lhs, bracket


def expected_battery(f, doc: dict, sampler, mode: str) -> dict:
    """Verdicts, sample counts, witness indices and min-K from the streams.

    Returns {check: (violation mask, samples, witness rows)} plus "min_K".
    Witness rows are tuples of coordinate tuples in stream order.
    """
    K, order, claim = float(doc["K"]), int(doc["n"]), doc["class"]
    out: dict = {}
    pts256 = point_array(sampler.points(count=256))
    pair_stream = sampler.pairs()
    X, Y = tuple_arrays(pair_stream)
    pxx, pyy, pxy, pyx = f(X, X), f(Y, Y), f(X, Y), f(Y, X)
    distinct = _chebyshev(X, Y) > 10.0 * TOL

    def rows(mask, arrays):
        idx = np.flatnonzero(mask)[:MAX_WITNESSES]
        return [tuple(tuple(a[i].tolist()) for a in arrays) for i in idx]

    det = np.abs(f(pts256, pts256) - f(pts256, pts256)) > TOL
    plateau = distinct & (pxx == pxy) & (pyy == pxy)
    out["pm1"] = (bool(det.any() or plateau.any()), len(pts256) + len(X),
                  rows(det, [pts256, pts256]) + rows(plateau, [X, Y]))
    out["pm2"] = (bool((pxx > pxy + TOL).any()), len(X), rows(pxx > pxy + TOL, [X, Y]))
    sym = np.abs(pxy - pyx) > TOL
    out["pm3"] = (bool(sym.any()), len(X), rows(sym, [X, Y]))
    out["D2"] = out["pm3"]
    pts512 = point_array(sampler.points(count=512))
    d1 = f(pts512, pts512) > TOL
    out["D1"] = (bool(d1.any()), len(pts512), rows(d1, [pts512]))
    if claim == "Metric":
        pos = distinct & (pxy <= TOL)
        out["positivity"] = (bool(pos.any()), len(X), rows(pos, [X, Y]))

    pm4_bad, d3_bad, pm4_rows, d3_rows, n_chains = False, False, [], [], 0
    best, infinite = 1.0, False
    for length in _chain_lengths(order, mode):
        arrays = tuple_arrays(sampler.chains(length))
        n_chains += len(arrays[0])
        lhs, bracket = _chain_sides(f, arrays, weighted=True)
        bad = lhs > K * bracket + TOL
        pm4_bad |= bool(bad.any())
        pm4_rows += rows(bad, arrays)
        d_lhs, d_bracket = _chain_sides(f, arrays, weighted=False)
        dbad = d_lhs > K * d_bracket + TOL
        d3_bad |= bool(dbad.any())
        d3_rows += rows(dbad, arrays)
        zero = bracket <= 0.0
        if (zero & (lhs > TOL)).any():
            infinite = True
        ok = ~zero
        if ok.any():
            best = max(best, float((lhs[ok] / bracket[ok]).max()))
    out["pm4"] = (pm4_bad, n_chains, pm4_rows[:MAX_WITNESSES])
    out["D3"] = (d3_bad, n_chains, d3_rows[:MAX_WITNESSES])
    core_ok = not (out["pm1"][0] or out["pm2"][0] or out["pm3"][0])
    out["min_K"] = (math.inf if infinite else best) if core_ok else None
    return out


def _witness_violates(f, check: str, K: float, points) -> bool:
    arrays = [np.array([p], dtype=float) for p in points]
    if check == "pm1":
        X, Y = arrays
        if points[0] == points[1]:
            return bool(abs(f(X, X)[0] - f(X, X)[0]) > TOL)
        return bool(f(X, X)[0] == f(X, Y)[0] == f(Y, Y)[0])
    if check == "pm2":
        X, Y = arrays
        return bool(f(X, X)[0] > f(X, Y)[0] + TOL)
    if check in ("pm3", "D2"):
        X, Y = arrays
        return bool(abs(f(X, Y)[0] - f(Y, X)[0]) > TOL)
    if check == "D1":
        return bool(f(arrays[0], arrays[0])[0] > TOL)
    if check == "positivity":
        X, Y = arrays
        return bool(f(X, Y)[0] <= TOL)
    lhs, bracket = _chain_sides(f, arrays, weighted=(check == "pm4"))
    return bool(lhs[0] > K * bracket[0] + TOL)


def check_battery_report(doc: dict, report: dict, sampler, mode: str, expect: dict) -> list[str]:
    """Compare a serialized axiom report with the reference recomputation.

    ``expect`` carries what the mathematics says about the space: whether
    the claim holds, and the interval (lo, lo_open, hi) that contains the
    true smallest coefficient.
    """
    problems: list[str] = []
    f = compile_formula(doc["oracle"])
    ref = expected_battery(f, doc, sampler, mode)
    K = float(doc["K"])
    if report["claim_supported"] is not expect["claim_holds"]:
        problems.append(f"claim_supported={report['claim_supported']}, mathematics says {expect['claim_holds']}")
    names = set(ref) - {"min_K"}
    if set(report["checks"]) != names:
        problems.append(f"checks {sorted(report['checks'])} != expected {sorted(names)}")
    for name in sorted(names & set(report["checks"])):
        bad, samples, want_rows = ref[name]
        got = report["checks"][name]
        if got["verdict"] != ("fail" if bad else "pass"):
            problems.append(f"{name}: verdict {got['verdict']}, reference {'fail' if bad else 'pass'}")
        if got["samples"] != samples:
            problems.append(f"{name}: {got['samples']} samples, sampler sizes give {samples}")
        got_rows = [tuple(tuple(p) for p in w["points"]) for w in got["witnesses"]]
        if got_rows != want_rows[:MAX_WITNESSES]:
            problems.append(f"{name}: witnesses differ from the first violations in stream order")
        for w in got["witnesses"]:
            if not _witness_violates(f, name, K, [tuple(p) for p in w["points"]]):
                problems.append(f"{name}: witness {w['points']} shows no violation")
    got_k, want_k = report["min_K_estimate"], ref["min_K"]
    if (got_k is None) != (want_k is None):
        problems.append(f"min_K_estimate {got_k}, reference {want_k}")
    elif want_k is not None:
        if not (got_k == want_k or abs(got_k - want_k) <= 1e-12 * abs(want_k)):
            problems.append(f"min_K_estimate {got_k} != reference {want_k}")
        # rounding can lift a supremum that a sampled chain attains by an ulp
        lo, lo_open, hi = expect["min_K"]
        if not ((lo < got_k if lo_open else lo <= got_k) and got_k <= hi * (1.0 + 1e-12)):
            problems.append(f"min_K_estimate {got_k} outside {'(' if lo_open else '['}{lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# orbits


def scale_orbit(x0: float, step_factors: list[float], steps: int) -> list[float]:
    """Iterates where each step multiplies by every factor of ``step_factors`` in turn."""
    out = [float(x0)]
    for _ in range(steps):
        x = out[-1]
        for factor in step_factors:
            x = float(factor * x)
        out.append(x)
    return out


def check_pair_orbit(f, report, xs: list[float], K: float, rate: float, tol_point: float) -> list[str]:
    """Analytic fixed point 0, the exact orbit, and the geometric envelope.

    The envelope is recomputed over every later index, not the program's
    strided subset: p(x_e, x_m) <= K rate^e / (1 - rate) p(x_0, x_1).
    """
    problems: list[str] = []
    got = [p.coords[0] for p in report.trace.iterates]
    if got != xs[: len(got)] or len(got) != len(xs):
        problems.append("orbit iterates differ from x_m = c x_{m-1}")
    if not report.converged:
        problems.append(f"orbit did not converge ({report.trace.stop_reason})")
    if abs(got[-1]) > tol_point:
        problems.append(f"fixed point {got[-1]} is not 0 within {tol_point}")
    arr = np.array(xs, dtype=float).reshape(-1, 1)
    seed = f(arr[:1], arr[1:2])[0]
    scale = K * seed / (1.0 - rate)
    N = len(xs) - 1
    for e in range(0, N, 2):
        later = arr[e + 1:]
        observed = f(np.broadcast_to(arr[e], later.shape), later).max()
        if observed > scale * rate**e + TOL:
            problems.append(f"orbit leaves its envelope at e={e}: {observed} > {scale * rate**e}")
            break
    return problems


def residual(f, x: float, image: float) -> float:
    X, T = np.array([[x]]), np.array([[image]])
    cross = f(X, T)[0]
    return float(max(cross - f(X, X)[0], cross - f(T, T)[0]))


# ---------------------------------------------------------------------------
# rate series


def _exact_power(d: Fraction, s: float):
    """d**s exactly for integer s, or half-integer s on perfect squares; else None."""
    if float(s).is_integer():
        return d ** int(s)
    if float(2 * s).is_integer():
        rn, rd = math.isqrt(d.numerator), math.isqrt(d.denominator)
        if rn * rn == d.numerator and rd * rd == d.denominator:
            return Fraction(rn, rd) ** int(2 * s)
    return None


def rate_terms(deltas, s: float, with_2s: bool) -> list:
    """delta^s / (1 - delta^s) times 2^s, exact wherever the inputs allow."""
    if not with_2s:
        factor = 1
    elif float(s).is_integer():
        factor = Fraction(2) ** int(s)
    else:
        factor = 2.0**s
    out = []
    for d in deltas:
        ds = _exact_power(d, s) if isinstance(d, Fraction) else None
        if ds is None:
            ds = float(d) ** s
            ratio = ds / (1.0 - ds)
        else:
            ratio = ds / (1 - ds)
        if isinstance(ratio, Fraction) and not isinstance(factor, float):
            out.append(factor * ratio)
        else:
            out.append(float(factor) * float(ratio))
    return out


def brute_certificate(terms, grid) -> dict:
    """Averaged-sum certificate by direct partial-sum search.

    Exact sequences are decided in integers: the partial sum P_L = a/b
    violates lambda = u/v at L when a v > u L b.  The grid values are read
    as the decimals they are written as.
    """
    exact = all(isinstance(t, Fraction) for t in terms)
    H = len(terms)
    prefix = []
    acc = Fraction(0) if exact else 0.0
    for t in terms:
        acc = acc + t
        prefix.append(acc)
    grid = sorted(set(float(g) for g in grid))
    candidates = []
    for lam in grid:
        last = 0
        if exact:
            q = Fraction(repr(lam))
            u, v = q.numerator, q.denominator
            for L, P in enumerate(prefix, start=1):
                if P.numerator * v > u * L * P.denominator:
                    last = L
        else:
            for L, P in enumerate(prefix, start=1):
                if P > lam * L:
                    last = L
        if last + 1 <= H // 2:
            candidates.append((last + 1, lam))
    if candidates:
        n0, lam = min(candidates)
        return {"status": "certified", "lambda": lam, "n_lambda": n0, "horizon_checked": H, "witness_L": None}
    top = grid[-1]
    averages = [float(P) / L for L, P in enumerate(prefix, start=1)]
    window = max(2, min(50, H // 4))
    tail = averages[-window:]
    if all(b < a for a, b in zip(tail, tail[1:])) and averages[-1] > top:
        return {"status": "inconclusive", "lambda": None, "n_lambda": None, "horizon_checked": H, "witness_L": None}
    top_cmp = Fraction(repr(top)) if exact else top
    for L in range(H, 0, -1):
        if prefix[L - 1] > top_cmp * L:
            return {"status": "refuted_at_horizon", "lambda": None, "n_lambda": None,
                    "horizon_checked": H, "witness_L": L}
    return {"status": "inconclusive", "lambda": None, "n_lambda": None, "horizon_checked": H, "witness_L": None}


def check_certificate(got: dict, terms, grid) -> list[str]:
    want = brute_certificate(terms, grid)
    return [] if got == want else [f"certificate {got} != brute-force {want}"]


def relaxed_expectation(delta, s: float, horizon: int, j_probes) -> tuple[list[float], bool]:
    """limsup estimates per probed j and the ratio-test verdict on C_n."""
    lo = max(1, horizon // 2)
    estimates = []
    for j in j_probes:
        estimates.append(max((float(delta(i, j)) ** s for i in range(lo, horizon + 1) if i != j), default=0.0))
    c, prev, ratios = 1.0, None, []
    for n in range(1, horizon + 1):
        d = float(delta(n, n + 1)) ** s
        c = c * d / (1.0 - d)
        if prev is not None and n > lo:
            ratios.append(0.0 if prev == 0.0 else c / prev)
        prev = c
    return estimates, bool(ratios) and max(ratios) < 1.0 - 1e-9
