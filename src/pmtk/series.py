"""Rate sequences, averaged-sum certificates, and summability gates.

The contraction schemes for countable map families hand each iteration step a
rate term built from a coefficient delta_i in [0, 1).  Convergence needs the
running averages of those terms to fall under some lambda < 1 eventually:

    sum_{i=1}^{L} a_i <= lambda * L   for all L >= n(lambda).

certify_alpha_series searches a lambda grid for the smallest index n(lambda)
at which the property provably holds over the checked horizon, preferring
certificates that kick in earliest.  Terms are kept as exact rationals
whenever the inputs allow it, so certificates at the horizon are decided by
integer arithmetic, not float accumulation: sum_{i<=L} a_i > lambda L is the
integer comparison P_num q > p L P_den between the prefix sum P_L and
lambda's rational form p/q.  A float screen with a proven error bound
decides the comparisons that are clear by a wide relative margin and leaves
the close ones to the integers, so exact prefix sums are only added up as
far as a close comparison needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

DEFAULT_LAMBDA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

Number = float | Fraction


@dataclass(frozen=True)
class RateSequence:
    """Finite prefix of a nonnegative term sequence, 1-indexed conceptually."""

    terms: tuple[Number, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        if not self.terms:
            raise InputError("a rate sequence needs at least one term")
        for t in self.terms:
            if isinstance(t, Fraction):
                if t < 0:
                    raise InputError(f"negative rate term {t}")
            else:
                tf = float(t)
                if not math.isfinite(tf) or tf < 0.0:
                    raise InputError(f"invalid rate term {t!r}")

    @property
    def horizon(self) -> int:
        return len(self.terms)


def _exact_exponent(s: float) -> Fraction | None:
    """s as a Fraction when it is an integer or half-integer, else None."""
    fs = Fraction(s).limit_denominator(10**6)
    if float(fs) != float(s) or fs.denominator > 2:
        return None
    return fs


def _exact_base(base: Fraction, fs: Fraction | None) -> tuple[int, int, int] | None:
    """(a, b, k) with base**fs == (a/b)**k exactly, or None when it is irrational.

    Half-integer powers stay exact only when numerator and denominator are
    perfect squares.
    """
    if fs is None:
        return None
    num, den = base.numerator, base.denominator
    if fs.denominator == 1:
        return num, den, fs.numerator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rn, rd, fs.numerator
    return None


def _pow(base: Number, s: float) -> Number:
    if isinstance(base, Fraction):
        exact = _exact_base(base, _exact_exponent(s))
        if exact is not None:
            a, b, k = exact
            return Fraction(a, b) ** k
        return float(base) ** s
    return float(base) ** s


def kannan_rate_terms(
    deltas: Sequence[Number],
    s: float,
    with_2s_factor: bool = False,
) -> RateSequence:
    """Per-step rate terms delta^s / (1 - delta^s), optionally times 2^s.

    Each delta must lie in [0, 1).  Fraction inputs stay exact whenever the
    exponent allows; the optional 2^s factor is exact for integer s and
    multiplies through a float square root otherwise.
    """
    if not (s > 0.0):
        raise InputError(f"exponent s must be positive, got {s}")
    fs = _exact_exponent(s)
    factor: Number = 1
    if with_2s_factor:
        factor = Fraction(2) ** int(fs) if fs is not None and fs.denominator == 1 else 2.0**s
    # with d^s = (a/b)^k, the exact term is factor a^k / (b^k - a^k)
    exact_factor = factor.numerator if isinstance(factor, (int, Fraction)) else None
    terms: list[Number] = []
    for d in deltas:
        if isinstance(d, Fraction):
            if not (0 <= d < 1):
                raise InputError(f"delta must lie in [0, 1), got {d}")
            exact = _exact_base(d, fs)
            if exact is not None:
                a, b, k = exact
                ak = a**k
                if exact_factor is not None:
                    terms.append(Fraction(exact_factor * ak, b**k - ak))
                else:
                    terms.append(float(factor) * (ak / (b**k - ak)))
                continue
            ds = float(d) ** s
        else:
            df = float(d)
            if not (0.0 <= df < 1.0):
                raise InputError(f"delta must lie in [0, 1), got {d!r}")
            ds = df**s
        terms.append(float(factor) * float(ds / (1.0 - ds)))
    return RateSequence(tuple(terms), provenance=f"delta^s/(1-delta^s), s={s}, factor2s={with_2s_factor}")


def product_terms_Cn(deltas: Sequence[Number], s: float) -> tuple[Number, ...]:
    """Cumulative products C_n = prod_{i<=n} delta_i^s / (1 - delta_i^s)."""
    base = kannan_rate_terms(deltas, s, with_2s_factor=False).terms
    out: list[Number] = []
    acc: Number = 1
    for t in base:
        if isinstance(acc, (int, Fraction)) and isinstance(t, Fraction):
            acc = acc * t
        else:
            acc = float(acc) * float(t)
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class AlphaSeriesCertificate:
    """Outcome of the averaged-sum search over a finite horizon.

    status is "certified", "refuted_at_horizon", or "inconclusive".  For a
    certificate, lam and n_lambda give the witnessing pair; for a refutation,
    witness_L is the largest checked L whose average exceeds every grid
    lambda.
    """

    status: str
    lam: float | None
    n_lambda: int | None
    horizon_checked: int
    witness_L: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "lambda": self.lam,
            "n_lambda": self.n_lambda,
            "horizon_checked": self.horizon_checked,
            "witness_L": self.witness_L,
        }


def certify_alpha_series(
    seq: RateSequence,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> AlphaSeriesCertificate:
    """Search for (lambda, n) with sum_{i<=L} a_i <= lambda L for all L >= n.

    Candidates are required to stabilize within the first half of the
    horizon, so the certified tail is at least as long as the ramp-up it
    excuses.  Among grid values that certify, the earliest kick-in index
    wins, with the smaller lambda breaking ties.  When nothing certifies,
    the tail of running averages decides between a horizon refutation
    (averages flat or rising above the whole grid) and an inconclusive
    verdict (still strictly descending).
    """
    grid = sorted(set(float(l) for l in lambda_grid))
    if not grid or grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise InputError(f"lambda grid must lie strictly inside (0, 1), got {lambda_grid!r}")
    terms = seq.terms
    H = len(terms)
    prefix = _ExactPrefix(terms) if all(isinstance(t, Fraction) for t in terms) else _FloatPrefix(terms)

    candidates: list[tuple[int, float]] = []
    for lam in grid:
        n0 = prefix.last_violation(lam) + 1
        if n0 <= H // 2:
            candidates.append((n0, lam))
    if candidates:
        n0, lam = min(candidates)
        return AlphaSeriesCertificate("certified", lam, n0, H)

    lam_max = grid[-1]
    window = max(2, min(50, H // 4))
    tail = [prefix.average(L) for L in range(max(1, H - window + 1), H + 1)]
    descending = all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    if descending and tail[-1] > float(lam_max):
        return AlphaSeriesCertificate("inconclusive", None, None, H)
    witness = prefix.last_violation(lam_max)
    if witness == 0:
        # every grid value fails only on kick-in speed, not on the tail
        return AlphaSeriesCertificate("inconclusive", None, None, H)
    return AlphaSeriesCertificate("refuted_at_horizon", None, None, H, witness_L=witness)


class _FloatPrefix:
    """Float prefix sums of a sequence, compared against lam * L in floats."""

    def __init__(self, terms: Sequence[Number]):
        acc = 0.0
        sums = []
        for t in terms:
            acc = acc + float(t)
            sums.append(acc)
        self.sums = np.array(sums)

    def average(self, L: int) -> float:
        return float(self.sums[L - 1]) / L

    def last_violation(self, lam: float) -> int:
        """The largest L with sum_{i<=L} a_i > lam L, or 0 when there is none."""
        return _last(self.sums > lam * np.arange(1, len(self.sums) + 1))


class _ExactPrefix:
    """Exact prefix sums P_L of an all-Fraction sequence, against lam's rational form p/q.

    The screen is the running float sum of the correctly rounded terms over
    L.  Adding L nonnegative floats in order is off by less than L u
    relative (u = 2^-53, the unit roundoff), so where the screen clears p/q
    by the margin, P_L > p/q L is decided.  Where it does not, the integer
    comparison P_num q > p L P_den decides, on exact prefix sums that are
    added up once, in order, only as far as such a comparison needs.
    Underflow costs at most 2^-1075 per term, far below the margin of any
    p/q >= 1e-9; p = 0 is screened only by a positive sum, and a term past
    the float range screens as inf, which exceeds every p/q L.
    """

    def __init__(self, terms: Sequence[Fraction]):
        self.terms = terms
        H = len(terms)
        rounded = np.array([_quotient(t.numerator, t.denominator) for t in terms])
        with np.errstate(over="ignore"):  # a sum past the float range screens as inf
            self.screen = np.cumsum(rounded) / np.arange(1, H + 1)
        # L u for the sum, a few u for the division and for p/q, and a floor
        self.margin = 1e-12 + 4.0 * H * 2.0**-53
        self.sums: list[Fraction] = []

    def _sum(self, L: int) -> Fraction:
        acc = self.sums[-1] if self.sums else Fraction(0)
        for t in self.terms[len(self.sums):L]:
            acc += t
            self.sums.append(acc)
        return self.sums[L - 1]

    def average(self, L: int) -> float:
        P = self._sum(L)
        return _quotient(P.numerator, P.denominator) / L

    def last_violation(self, lam: float) -> int:
        """The largest L with P_L > lam L, or 0 when there is none."""
        lam_q = Fraction(lam).limit_denominator(10**9)
        p, q = lam_q.numerator, lam_q.denominator
        b = p / q
        above = self.screen > b * (1.0 + self.margin)
        last = _last(above)
        close = np.flatnonzero(~above & ~(self.screen < b * (1.0 - self.margin)))
        for i in close[::-1].tolist():
            if i < last:
                break
            P = self._sum(i + 1)
            if P.numerator * q > p * (i + 1) * P.denominator:
                return i + 1
        return last


def _last(mask: np.ndarray) -> int:
    """1 + the index of the last True entry, or 0 when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[-1]) + 1 if len(hits) else 0


def _quotient(n: int, d: int) -> float:
    """n / d correctly rounded, as float(Fraction(n, d)); inf where that overflows."""
    try:
        return n / d
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RelaxedReport:
    """Sampled evidence for the weaker family hypotheses.

    limsup_ok: per fixed second index j, the large-i coefficients stay
    bounded away from 1.  cn_summable: the product terms C_n pass a ratio
    test (True), provably diverge (False), or resist the horizon (None).
    """

    limsup_ok: bool
    limsup_estimates: tuple[float, ...]
    cn_summable: bool | None
    horizon: int

    @property
    def accepted(self) -> bool:
        return self.limsup_ok and self.cn_summable is not False

    def to_json_dict(self) -> dict:
        return {
            "limsup_ok": self.limsup_ok,
            "limsup_estimates": [float(e) for e in self.limsup_estimates],
            "cn_summable": self.cn_summable,
            "horizon": self.horizon,
        }


def check_relaxed_hypotheses(
    delta_matrix: Callable[[int, int], Number],
    s: float,
    horizon: int = 200,
    j_probes: Sequence[int] = (1, 2, 3, 5, 8, 13, 21),
) -> RelaxedReport:
    """Estimate limsup_i delta(i, j)^s per probed j and test C_n summability.

    The limsup estimate is the maximum over the upper half of the horizon.
    Summability uses the C_n ratio tail: all ratios < 1 passes, all >= 1
    fails, and a flat plateau of equal values counts as convergence of the
    partial sums only when the plateau value is below 1.
    """
    if horizon < 8:
        raise InputError(f"horizon too small: {horizon}")
    estimates: list[float] = []
    lo = max(1, horizon // 2)
    for j in j_probes:
        worst = 0.0
        for i in range(lo, horizon + 1):
            if i == j:
                continue
            v = float(_pow(_as_number(delta_matrix(i, j)), s))
            if v > worst:
                worst = v
        estimates.append(worst)
    limsup_ok = all(e < 1.0 for e in estimates)

    diag = [_as_number(delta_matrix(i, i + 1)) for i in range(1, horizon + 1)]
    for d in diag:
        dv = float(d)
        if not (0.0 <= dv < 1.0):
            return RelaxedReport(limsup_ok, tuple(estimates), False, horizon)
    cns = product_terms_Cn(diag, s)
    tail_lo = max(1, horizon // 2)
    ratios: list[float] = []
    for n in range(tail_lo, len(cns)):
        prev, cur = float(cns[n - 1]), float(cns[n])
        if prev == 0.0:
            ratios.append(0.0)
        else:
            ratios.append(cur / prev)
    summable: bool | None
    if not ratios:
        summable = None
    elif max(ratios) < 1.0 - 1e-9:
        summable = True
    elif min(ratios) >= 1.0:
        summable = False
    else:
        spread = max(ratios) - min(ratios)
        if spread <= 1e-12 and max(ratios) < 1.0:
            summable = True
        else:
            summable = None
    return RelaxedReport(limsup_ok, tuple(estimates), summable, horizon)


def _as_number(v) -> Number:
    if isinstance(v, Fraction):
        return v
    return float(v)
