"""The certifier's integer comparisons and the rate terms against plain loops.

certify_alpha_series decides sum_{i<=L} a_i > lambda L on exact sequences by
a float screen with an integer fallback, and kannan_rate_terms builds exact
terms straight from integers.  The references below are the plain forms: a
Fraction comparison per (lambda, L) and a Fraction power per term.  Both
must give the same certificates and the same terms, types included.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk.series import DEFAULT_LAMBDA_GRID, RateSequence, _ExactPrefix, certify_alpha_series, kannan_rate_terms

# ---------------------------------------------------------------------------
# references: one Fraction comparison per (lambda, L), one power per term


def reference_certificate(terms, lambda_grid=DEFAULT_LAMBDA_GRID):
    grid = sorted(set(float(l) for l in lambda_grid))
    H = len(terms)
    all_fraction = all(isinstance(t, Fraction) for t in terms)

    prefix = []
    acc = Fraction(0) if all_fraction else 0.0
    for t in terms:
        acc = acc + t if all_fraction else float(acc) + float(t)
        prefix.append(acc)

    candidates = []
    for lam in grid:
        lam_cmp = Fraction(lam).limit_denominator(10**9) if all_fraction else lam
        last_violation = 0
        for L in range(1, H + 1):
            if prefix[L - 1] > lam_cmp * L:
                last_violation = L
        n0 = last_violation + 1
        if n0 <= H // 2:
            candidates.append((n0, lam))
    if candidates:
        n0, lam = min(candidates)
        return ("certified", lam, n0, None)

    lam_max = grid[-1]
    lam_max_cmp = Fraction(lam_max).limit_denominator(10**9) if all_fraction else lam_max
    averages = [float(prefix[L - 1]) / L for L in range(1, H + 1)]
    window = max(2, min(50, H // 4))
    tail = averages[-window:]
    descending = all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    if descending and averages[-1] > float(lam_max):
        return ("inconclusive", None, None, None)
    witness = None
    for L in range(H, 0, -1):
        if prefix[L - 1] > lam_max_cmp * L:
            witness = L
            break
    if witness is None:
        return ("inconclusive", None, None, None)
    return ("refuted_at_horizon", None, None, witness)


def reference_pow(base, s):
    if isinstance(base, Fraction):
        fs = Fraction(s).limit_denominator(10**6)
        if float(fs) == float(s):
            if fs.denominator == 1:
                return base ** int(fs)
            if fs.denominator == 2:
                num, den = base.numerator, base.denominator
                rn, rd = math.isqrt(num), math.isqrt(den)
                if rn * rn == num and rd * rd == den:
                    return Fraction(rn, rd) ** fs.numerator
        return float(base) ** s
    return float(base) ** s


def reference_rate_terms(deltas, s, with_2s_factor):
    factor = 1
    if with_2s_factor:
        fs = Fraction(s).limit_denominator(10**6)
        if fs.denominator == 1 and float(fs) == float(s):
            factor = Fraction(2) ** int(fs)
        else:
            factor = 2.0**s
    terms = []
    for d in deltas:
        ds = reference_pow(d, s) if isinstance(d, Fraction) else float(d) ** s
        if isinstance(ds, Fraction):
            ratio = ds / (1 - ds)
        else:
            ratio = ds / (1.0 - ds)
        if isinstance(factor, (int, Fraction)) and isinstance(ratio, Fraction):
            terms.append(factor * ratio)
        else:
            terms.append(float(factor) * float(ratio))
    return terms


def certificate(terms, grid=DEFAULT_LAMBDA_GRID):
    cert = certify_alpha_series(RateSequence(tuple(terms)), lambda_grid=grid)
    return (cert.status, cert.lam, cert.n_lambda, cert.witness_L)


def rational(lam):
    return Fraction(lam).limit_denominator(10**9)


# grids with values whose rational form p/q is not the float itself
GRIDS = st.sampled_from([
    DEFAULT_LAMBDA_GRID,
    tuple(sorted(set(DEFAULT_LAMBDA_GRID) | {2.0**0.5 * 0.5})),
    (1.0 / 3.0, 0.123456789123, 0.5),
    (0.7,),
])

# ---------------------------------------------------------------------------
# certificates


exact_terms = st.one_of(
    st.fractions(min_value=0, max_value=3, max_denominator=60),
    # tiny terms over many-digit denominators: the screen underflows to 0
    st.builds(Fraction, st.integers(0, 5), st.sampled_from([1, 3, 10**20, 10**400])),
)


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(exact_terms, min_size=1, max_size=80), grid=GRIDS)
def test_exact_certificate_equals_fraction_loop(terms, grid):
    assert certificate(terms, grid) == reference_certificate(terms, grid)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(st.one_of(st.floats(min_value=0.0, max_value=3.0), exact_terms), min_size=1, max_size=80),
    grid=GRIDS,
)
def test_float_and_mixed_certificate_equals_float_loop(terms, grid):
    # one float term sends the whole sequence down the float path
    assert certificate(terms, grid) == reference_certificate(terms, grid)


@settings(max_examples=150, deadline=None)
@given(
    grid=GRIDS,
    which=st.integers(0, 10),
    ramp=st.lists(st.fractions(min_value=0, max_value=2, max_denominator=9), max_size=6),
    H=st.integers(2, 60),
    nudges=st.lists(st.tuples(st.integers(0, 59), st.integers(-10, 10)), max_size=5),
    scale=st.sampled_from([0, 10**15, 10**16, 10**18]),
)
def test_ties_and_near_ties_equal_fraction_loop(grid, which, ramp, H, nudges, scale):
    """Prefix sums on lambda L exactly, or off it by 1e-15 relative or less.

    Every term is lambda's rational form p/q, so P_L = lambda L at each L
    after the ramp; a nudge moves one term by k/scale of p/q, which the
    float screen cannot see and the integer fallback must decide.
    """
    lam = sorted(grid)[which % len(grid)]
    lam_q = rational(lam)
    terms = list(ramp) + [lam_q] * H
    for i, k in nudges:
        if scale and i < len(terms):
            terms[i] = max(Fraction(0), terms[i] + lam_q * Fraction(k, scale))
    assert certificate(terms, grid) == reference_certificate(terms, grid)
    floats = [float(t) for t in terms]
    assert certificate(floats, grid) == reference_certificate(floats, grid)


wide_terms = st.builds(
    lambda n, e, sign: Fraction(n) * Fraction(10) ** (sign * e),
    st.integers(0, 10**6), st.integers(0, 320), st.sampled_from([-1, 1]),
)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(st.one_of(wide_terms, exact_terms), min_size=1, max_size=60),
    lam=st.sampled_from(sorted(set(DEFAULT_LAMBDA_GRID) | {2.0**0.5 * 0.5, 1e-12})),
)
def test_screen_verdicts_equal_integer_comparisons(terms, lam):
    # magnitudes from 1e-320 to 1e326: float sums lose small terms, underflow
    # and overflow, and the last violation must still be the exact one
    lam_q = rational(lam)
    prefix, want, acc = _ExactPrefix(tuple(terms)), 0, Fraction(0)
    for L, t in enumerate(terms, start=1):
        acc += t
        if acc > lam_q * L:
            want = L
    assert prefix.last_violation(lam) == want


def test_integer_fallback_decides_what_floats_cannot():
    # P_L = L/2 + 1e-17 exceeds L/2 at every L, yet each average rounds to
    # 0.5 in floats: only the integer comparison sees the violations
    terms = [Fraction(1, 2) + Fraction(1, 10**17)] + [Fraction(1, 2)] * 9
    want = ("refuted_at_horizon", None, None, 10)
    assert reference_certificate(terms, (0.5,)) == want
    assert certificate(terms, (0.5,)) == want
    assert certificate([float(t) for t in terms], (0.5,)) == ("certified", 0.5, 1, None)


def test_irrational_lambda_is_compared_in_its_rational_form():
    lam = 2.0**0.5 * 0.5
    lam_q = rational(lam)
    assert float(lam_q) == lam and lam_q != Fraction(lam)
    # terms equal to p/q tie with p/q L and certify from the first index
    assert certificate([lam_q] * 20, (lam,)) == ("certified", lam, 1, None)
    terms = [lam_q + Fraction(1, 10**30)] + [lam_q] * 19
    assert certificate(terms, (lam,)) == reference_certificate(terms, (lam,)) == ("refuted_at_horizon", None, None, 20)


def test_long_exact_sequences_equal_fraction_loop():
    harmonic = [Fraction(1, 5 + i) for i in range(1, 1501)]
    odd = list(kannan_rate_terms([Fraction(1, 6 + 2 * i) for i in range(1, 1501)], 1.0, True).terms)
    flat = [Fraction(99, 100)] * 700 + [Fraction(1, 7)] * 800
    for terms in (harmonic, odd, flat):
        assert certificate(terms) == reference_certificate(terms)


def test_refuted_sequence_past_the_float_range_gets_a_verdict():
    # each term is about 1e800, so the tail averages leave the float range;
    # they read inf instead of raising OverflowError
    seq = kannan_rate_terms([Fraction(10**400 - 1, 10**400)] * 4, 1.0)
    cert = certify_alpha_series(seq)
    assert (cert.status, cert.witness_L) == ("refuted_at_horizon", 4)


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.one_of(wide_terms, exact_terms), min_size=1, max_size=60))
def test_exact_average_is_the_float_of_the_prefix_sum(terms):
    prefix, acc = _ExactPrefix(tuple(terms)), Fraction(0)
    for L, t in enumerate(terms, start=1):
        acc += t
        try:
            want = float(acc) / L
        except OverflowError:
            want = math.inf
        assert prefix.average(L) == want


# ---------------------------------------------------------------------------
# rate terms


EXPONENTS = [1.0, 2, 3.0, 0.5, 1.5, 2.5, 2.0**0.5, 0.3, 1.0 / 3.0]
deltas = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(39, 40), max_denominator=40),
    # perfect squares stay exact under half-integer exponents
    st.builds(lambda a, b: Fraction(a * a, b * b), st.integers(0, 9), st.integers(10, 30)),
    st.floats(min_value=0.0, max_value=0.99),
)


@settings(max_examples=150, deadline=None)
@given(ds=st.lists(deltas, min_size=1, max_size=12), s=st.sampled_from(EXPONENTS), with_2s=st.booleans())
def test_rate_terms_equal_power_loop_values_and_types(ds, s, with_2s):
    got = kannan_rate_terms(ds, s, with_2s_factor=with_2s).terms
    want = reference_rate_terms(ds, s, with_2s)
    assert list(got) == want
    assert [type(t) for t in got] == [type(t) for t in want]


@pytest.mark.parametrize("s", EXPONENTS)
@pytest.mark.parametrize("with_2s", [False, True])
def test_rate_term_types_per_exponent_kind(s, with_2s):
    ds = [Fraction(0), Fraction(1, 9), Fraction(2, 7), 0.25]
    got = kannan_rate_terms(ds, s, with_2s_factor=with_2s).terms
    want = reference_rate_terms(ds, s, with_2s)
    assert list(got) == want
    assert [type(t) for t in got] == [type(t) for t in want]
    integer = float(s).is_integer()
    half = (2 * float(s)).is_integer() and not integer
    # exact for integer s; for half-integer s only without the float 2^s factor
    # and only on perfect squares (0 and 1/9, not 2/7)
    exact = [integer, integer, integer, False]
    if half and not with_2s:
        exact = [True, True, False, False]
    assert [isinstance(t, Fraction) for t in got] == exact
