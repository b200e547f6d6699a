"""Worked-example catalog: frozen values must replay bit-for-bit."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk.errors import CatalogError, InputError
from pmtk.fixtures import (
    FIXTURE_NAMES,
    _delta,
    e3_delta,
    e4_delta,
    e5_delta,
    get_fixture,
    list_fixtures,
    run_fixture,
)


def test_catalog_lists_all_examples():
    names = list_fixtures()
    assert names == FIXTURE_NAMES
    assert len(names) == 5
    for name in names:
        assert get_fixture(name).name == name


def test_unknown_name_is_a_catalog_error():
    with pytest.raises(CatalogError, match="available"):
        get_fixture("E9-missing")


def test_displacement_coefficient_tiers():
    # exact rational band
    assert e3_delta(1, 2) == Fraction(1, 9)
    assert e3_delta(2, 1) == Fraction(1, 9)
    assert e4_delta(3, 80) == Fraction(1, 81)
    # float band past the exact cutoff
    mid = e4_delta(70, 1)
    assert isinstance(mid, float) and 0.0 < mid < 1e-40
    # hard zero once the power would overflow
    assert e4_delta(1024, 1) == 0.0
    assert e3_delta(2000, 1500) == 0.0
    assert e5_delta(1, 2) == Fraction(10, 21)
    assert e5_delta(4, 1) == Fraction(1, 3) + Fraction(1, 9)


@settings(max_examples=200, deadline=None)
@given(num=st.integers(-100, 100), den=st.integers(-5, 20), shift=st.integers(-5, 20))
def test_shifted_recip_delta_is_rejected_or_finite_off_the_diagonal(num, den, shift):
    try:
        delta = _delta({"kind": "shifted-recip", "num": num, "den": den, "shift": shift})
    except InputError as exc:
        assert den < 1 or shift < 0
        assert ("'den'" if den < 1 else "'shift'") in str(exc)
        return
    for i in range(1, 51):
        for j in range(1, 51):
            if i != j:
                assert math.isfinite(float(delta(i, j)))


def test_maxpow_example_replays():
    doc = run_fixture("E1-maxpow")
    assert doc["all_passed"]
    assert doc["observed"]["dist_1_2"] == 5.0
    assert doc["observed"]["self_3"] == 9.0
    assert doc["observed"]["pair_worst_slack"] == 0.0
    assert doc["observed"]["min_K_estimate"] == pytest.approx(1.2899, abs=1e-3)
    assert doc["stages"]["axioms"]["verdicts"]["pm4"] == "pass"


def test_open_interval_example_replays():
    doc = run_fixture("E2-open-interval")
    assert doc["all_passed"]
    assert doc["observed"]["self_half"] == 2.0
    assert doc["observed"]["dist_q1_q3"] == 2.25
    assert abs(doc["observed"]["cauchy_limit"] - 2.0) <= 1e-6
    assert doc["observed"]["is_zero_cauchy"] is False
    assert doc["observed"]["limit_candidates"] == 0
    assert doc["stages"]["limit_scan"]["candidates"] == []


def test_kannan_family_example_replays():
    doc = run_fixture("E3-kannan-family")
    assert doc["all_passed"]
    assert doc["observed"]["gate_lambda"] == 0.7071067811865476
    assert doc["observed"]["gate_n"] == 1
    assert abs(doc["observed"]["fixed_coord"]) <= 1e-8
    assert doc["observed"]["probe_residual_max"] <= 1e-9
    assert doc["observed"]["per_map_unique"] is True


def test_relaxed_family_example_replays():
    doc = run_fixture("E4-relaxed-family")
    assert doc["all_passed"]
    assert doc["observed"]["gate_accepted"] is True
    assert abs(doc["observed"]["fixed_coord"]) <= 1e-8
    assert doc["observed"]["steps_taken"] <= 10
    assert doc["stages"]["family_solve"]["extras"]["gate"]["kind"] == "relaxed-cn"


def test_chatterjea_family_example_replays():
    doc = run_fixture("E5-chatterjea-family")
    assert doc["all_passed"]
    assert doc["observed"]["fixed_coord"] == 1.0
    assert doc["observed"]["steps_taken"] == 2
    assert doc["observed"]["display_violations"] == 0
    assert doc["observed"]["probe_residual_max"] == 0.0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_replay_is_deterministic(name):
    first = json.dumps(run_fixture(name, seed=7), sort_keys=True)
    second = json.dumps(run_fixture(name, seed=7), sort_keys=True)
    assert first == second


def test_expectation_table_drives_the_verdict():
    doc = run_fixture("E1-maxpow")
    rows = doc["expected"]
    assert set(rows) == set(get_fixture("E1-maxpow").expected)
    assert all(row["ok"] for row in rows.values())
    assert rows["dist_1_2"]["want"] == 5.0
    assert rows["pair_worst_slack"]["tol"] == 0.0
