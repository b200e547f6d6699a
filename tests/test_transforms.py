"""Derived-space constructions: preconditions, results, provenance notes."""

import pytest

from pmtk.errors import InputError
from pmtk.spaces import (
    DEFAULT_TOL,
    Box,
    Sampler,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    eval_distance,
    oracle_from_callable,
)
from pmtk.transforms import (
    TransformSpec,
    _default_check_sampler,
    _require_weighted_core,
    apply_transform,
    from_metric_with_basepoint,
    induced_dp,
    power_pms,
    sum_pm_bm,
    to_pt,
)

SQ_DIFF = {"op": "power", "base": {"op": "absdiff"}, "q": 2.0}


def make_space(oracle_spec, K=1.0, n=1, claim=SpaceClass.KPMS, lo=0.0, hi=1.0):
    oracle = oracle_spec if not isinstance(oracle_spec, (dict, str)) else build_oracle(oracle_spec)
    return SpaceDescriptor(
        oracle=oracle,
        coeff_K=K,
        polygon_order_n=n,
        domain=Box.closed(lo, hi),
        class_claim=claim,
    )


def sample_pairs(space, n=200, seed=9):
    return Sampler(seed=seed, region=space.domain, grid_density=8, random_count=n).pairs()


# ---------------------------------------------------------------------------
# weighted to unweighted


def test_pt_of_max_oracle_is_absolute_difference():
    sp = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    derived = to_pt(sp)
    assert derived.class_claim is SpaceClass.METRIC_TYPE
    assert derived.coeff_K == 1.0
    assert derived.provenance["construction"] == "pt"
    assert "posthoc_unweighted_axioms" not in derived.provenance
    for x, y in sample_pairs(sp):
        got = eval_distance(derived, x, y)
        want = abs(x.coords[0] - y.coords[0])
        assert abs(got - want) <= 1e-12


def test_pt_above_coefficient_one_records_posthoc_verdicts():
    sp = make_space(SQ_DIFF, K=2.0)
    derived = to_pt(sp)
    note = derived.provenance
    assert note["coefficient_above_one"] is True
    assert note["posthoc_unweighted_axioms"] == {"D1": "pass", "D2": "pass", "D3": "pass"}
    assert "warning" not in note
    # the derived distance is 2 (x - y)^2
    assert eval_distance(derived, 0.0, 1.0) == 2.0


def test_pt_posthoc_failure_becomes_warning_not_error():
    # fourth powers need coefficient 8, so the declared 2 fails post hoc
    quartic = {"op": "power", "base": {"op": "absdiff"}, "q": 4.0}
    derived = to_pt(make_space(quartic, K=2.0))
    note = derived.provenance
    assert note["posthoc_unweighted_axioms"]["D3"] == "fail"
    assert "warning" in note


def test_pt_rejects_asymmetric_input():
    sp = make_space(oracle_from_callable(lambda a, b: a))
    with pytest.raises(InputError, match="pm3"):
        to_pt(sp)


def counting_space(fn):
    calls = []
    oracle = build_oracle({"op": "max"}) if fn is None else oracle_from_callable(fn)
    counted = type(oracle)(fn=lambda x, y: calls.append(1) or oracle.fn(x, y), spec=oracle.spec)
    return make_space(counted, claim=SpaceClass.PARTIAL_B_METRIC), calls


def test_weighted_core_checks_share_one_evaluation_plan():
    # 256 points evaluated twice for pm1's determinism probe, then the 600
    # pairs of the 600-draw sampler evaluated at (x,x), (y,y), (x,y), (y,x)
    # once for pm1, pm2 and pm3 together: 512 + 2,400 calls, not 7,712
    sp, calls = counting_space(None)
    _require_weighted_core(sp, _default_check_sampler(sp), DEFAULT_TOL, "the test")
    assert len(calls) == 2 * 256 + 4 * 600 == 2_912
    calls.clear()
    to_pt(sp)
    assert len(calls) == 2_912


def test_weighted_core_reports_the_first_failing_axiom():
    # the messages the three checks gave when each ran on its own plan
    first = "the weighted-to-unweighted transform needs axiom "
    cases = [
        # a plateau of ones (pm1) that is also asymmetric (pm3)
        (lambda a, b: 1.0 + (a > b), "pm1 on the input; violated at ((0.0,), (0.058823529411764705,)) "
                                     "(lhs=1.0, rhs=1.0)"),
        # large self-distances (pm2) that are also asymmetric (pm3)
        (lambda a, b: 2.0 * a + 0.5 * b, "pm2 on the input; violated at ((0.058823529411764705,), (0.0,)) "
                                         "(lhs=0.14705882352941177, rhs=0.11764705882352941)"),
        (lambda a, b: 1.0 + a, "pm3 on the input; violated at ((0.058823529411764705,), (0.0,)) "
                               "(lhs=1.0588235294117647, rhs=1.0)"),
    ]
    for fn, message in cases:
        sp, calls = counting_space(fn)
        with pytest.raises(InputError) as err:
            to_pt(sp)
        assert str(err.value) == first + message
        assert len(calls) == 2_912


def test_pt_rejects_unserializable_oracle():
    sp = make_space(oracle_from_callable(lambda a, b: abs(a - b)))
    with pytest.raises(InputError, match="serializable"):
        to_pt(sp)


# ---------------------------------------------------------------------------
# basepoint construction


def test_basepoint_construction_from_line_metric():
    sp = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    derived = from_metric_with_basepoint(sp, 0.0)
    assert derived.class_claim is SpaceClass.KPMS
    assert derived.coeff_K == 1.0
    assert derived.provenance["x0"] == [0.0]
    # [|x-y| + x + y] / 2 collapses to max(x, y) for this input
    for x, y in sample_pairs(sp, n=64):
        assert eval_distance(derived, x, y) == pytest.approx(
            max(x.coords[0], y.coords[0]), abs=1e-15
        )
    # the domination hypothesis genuinely fails on a line segment, and the
    # construction records that instead of refusing
    assert "warning" in derived.provenance
    assert derived.provenance["hypothesis_violations"] > 0


def test_basepoint_hypothesis_clean_for_discrete_distance():
    discrete = {"op": "dp", "source": {"op": "const", "value": 1.0}}
    sp = make_space(discrete, claim=SpaceClass.METRIC)
    derived = from_metric_with_basepoint(sp, 0.5)
    assert "warning" not in derived.provenance
    assert eval_distance(derived, 0.25, 0.75) == 1.5
    assert eval_distance(derived, 0.25, 0.25) == 1.0
    assert eval_distance(derived, 0.5, 0.5) == 0.0


def test_basepoint_rejects_nonvanishing_self_distance():
    sp = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    with pytest.raises(InputError, match="D1"):
        from_metric_with_basepoint(sp, 0.0)


def test_basepoint_must_lie_in_domain():
    sp = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    with pytest.raises(InputError, match="outside"):
        from_metric_with_basepoint(sp, 2.0)


# ---------------------------------------------------------------------------
# induced diagonal-zero distance


def test_induced_dp_zeroes_diagonal_and_keeps_rest():
    sp = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    derived = induced_dp(sp)
    assert derived.class_claim is SpaceClass.METRIC_TYPE
    assert derived.coeff_K == sp.coeff_K
    assert derived.polygon_order_n == sp.polygon_order_n
    for x, y in sample_pairs(sp, n=64):
        assert eval_distance(derived, x, x) == 0.0
        if x.coords != y.coords:
            assert eval_distance(derived, x, y) == eval_distance(sp, x, y)


def test_induced_dp_needs_polygon_at_declared_coefficient():
    sp = make_space(SQ_DIFF, K=1.0)  # true coefficient is 2
    with pytest.raises(InputError, match="polygon"):
        induced_dp(sp)


# ---------------------------------------------------------------------------
# powers and sums


def test_power_construction_doubles_coefficient_per_power():
    sp = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    derived = power_pms(sp, 2.0)
    assert derived.coeff_K == 2.0
    assert derived.polygon_order_n == 1
    assert derived.class_claim is SpaceClass.KPMS
    assert eval_distance(derived, 0.0, 0.5) == 0.25
    cubed = power_pms(sp, 3.0)
    assert cubed.coeff_K == 4.0


def test_power_construction_validates_exponent_and_input():
    sp = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    with pytest.raises(InputError, match="exponent"):
        power_pms(sp, 0.5)
    loose = make_space(SQ_DIFF, K=2.0)  # fails the polygon check at 1
    with pytest.raises(InputError, match="polygon"):
        power_pms(loose, 2.0)


def test_sum_construction_combines_weighted_and_unweighted():
    first = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    second = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    derived = sum_pm_bm(first, second)
    assert derived.coeff_K == 1.0
    assert derived.class_claim is SpaceClass.KPMS
    assert derived.complete_asserted
    assert "warning" not in derived.provenance
    assert eval_distance(derived, 0.25, 0.75) == 0.75 + 0.5
    assert eval_distance(derived, 0.4, 0.4) == 0.4


def test_sum_construction_inherits_larger_coefficient_and_completeness():
    first = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    second = SpaceDescriptor(
        oracle=build_oracle(SQ_DIFF),
        coeff_K=2.0,
        polygon_order_n=1,
        domain=first.domain,
        class_claim=SpaceClass.METRIC_TYPE,
        complete_asserted=False,
    )
    derived = sum_pm_bm(first, second)
    assert derived.coeff_K == 2.0
    assert not derived.complete_asserted


def test_sum_construction_error_paths():
    first = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    other_domain = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC, hi=2.0)
    with pytest.raises(InputError, match="domain"):
        sum_pm_bm(first, other_domain)
    nonvanishing = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    with pytest.raises(InputError, match="D1"):
        sum_pm_bm(first, nonvanishing)


# ---------------------------------------------------------------------------
# dispatch


def test_apply_transform_dispatch():
    sp = make_space({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    line = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    assert apply_transform(sp, TransformSpec("pt")).class_claim is SpaceClass.METRIC_TYPE
    assert apply_transform(sp, TransformSpec("dp")).class_claim is SpaceClass.METRIC_TYPE
    got = apply_transform(line, TransformSpec("basepoint", basepoint=(0.0,)))
    assert got.class_claim is SpaceClass.KPMS
    assert apply_transform(line, TransformSpec("power", exponent=2.0)).coeff_K == 2.0
    assert apply_transform(sp, TransformSpec("sum", second=line)).coeff_K == 1.0


def test_apply_transform_reports_missing_arguments():
    sp = make_space({"op": "absdiff"}, claim=SpaceClass.METRIC)
    with pytest.raises(InputError, match="--x0"):
        apply_transform(sp, TransformSpec("basepoint"))
    with pytest.raises(InputError, match="--q"):
        apply_transform(sp, TransformSpec("power"))
    with pytest.raises(InputError, match="--space2"):
        apply_transform(sp, TransformSpec("sum"))
    with pytest.raises(InputError, match="unknown"):
        apply_transform(sp, TransformSpec("fold"))
