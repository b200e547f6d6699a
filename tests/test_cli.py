"""Command line behavior: exit codes, report documents, determinism."""

import json
import os

import pytest

from pmtk.cli import dispatch
from pmtk.fixtures import get_fixture, run_fixture
from pmtk.spaces import Box, SpaceClass, SpaceDescriptor, build_oracle, dump_json, save_space


def write_space(path, spec=None, K=1.0, claim=SpaceClass.METRIC):
    space = SpaceDescriptor(
        oracle=build_oracle(spec or {"op": "absdiff"}),
        coeff_K=K,
        polygon_order_n=1,
        domain=Box.closed(0.0, 1.0),
        class_claim=claim,
    )
    save_space(space, str(path))
    return str(path)


BANACH_CFG = {
    "T1": {"kind": "scale", "factor": 0.5},
    "T2": {"kind": "scale", "factor": 0.5},
    "k": 0.5,
    "x0": 1.0,
}


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# global plumbing


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["--version"])
    assert info.value.code == 0
    assert "pmtk" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "usage error" in err


# ---------------------------------------------------------------------------
# fixtures


def test_fixtures_list_prints_catalog(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    assert out.splitlines() == [
        "E1-maxpow",
        "E2-open-interval",
        "E3-kannan-family",
        "E4-relaxed-family",
        "E5-chatterjea-family",
    ]


def test_fixtures_run_writes_result_document(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, "fixtures", "run", "E1-maxpow", "--out", str(out_dir))
    assert code == 0
    assert "E1-maxpow: ok" in out
    doc = json.loads((out_dir / "E1-maxpow.json").read_text())
    assert doc["all_passed"] is True
    assert doc["observed"]["dist_1_2"] == 5.0


def test_fixtures_run_unknown_name(capsys):
    code, _, err = run(capsys, "fixtures", "run", "E9-missing")
    assert code == 65
    assert "error" in err


@pytest.mark.parametrize("name, scheme, stage", [
    ("E1-maxpow", "banach-pair", "pair_solve"),
    ("E3-kannan-family", "family", "family_solve"),
    ("E4-relaxed-family", "family", "family_solve"),
    ("E5-chatterjea-family", "family", "family_solve"),
])
def test_fixture_scheme_config_is_a_solve_config(capsys, tmp_path, name, scheme, stage):
    fx = get_fixture(name)
    save_space(fx.space, str(tmp_path / "space.json"))
    (tmp_path / "config.json").write_text(json.dumps(fx.scheme_config))
    code, out, _ = run(
        capsys, "solve", "--scheme", scheme, "--space", str(tmp_path / "space.json"),
        "--config", str(tmp_path / "config.json"),
    )
    assert code == 0
    assert json.loads(out)["report"] == json.loads(dump_json(run_fixture(name)["stages"][stage]))


# ---------------------------------------------------------------------------
# check


def test_check_supported_claim_exits_zero(capsys, tmp_path):
    path = write_space(tmp_path / "line.json")
    code, out, _ = run(capsys, "check", path, "--random-count", "400")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["claim_supported"] is True
    assert doc["meta"]["seed"] == 0


def test_check_failed_claim_exits_two(capsys, tmp_path):
    path = write_space(tmp_path / "maxline.json", spec={"op": "max"}, claim=SpaceClass.METRIC)
    code, out, _ = run(capsys, "check", path, "--random-count", "300")
    assert code == 2
    doc = json.loads(out)
    assert doc["report"]["claim_supported"] is False


def test_check_missing_file_exits_sixtyfive(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 65
    assert "error" in err


def test_check_negative_oracle_is_rejected_input(capsys, tmp_path):
    spec = {"op": "affine", "arg": {"op": "absdiff"}, "offset": -0.5}
    path = write_space(tmp_path / "neg.json", spec=spec, claim=SpaceClass.PARTIAL_B_METRIC)
    code, _, err = run(capsys, "check", path, "--random-count", "50")
    assert code == 65
    assert "invalid distance -0.5 at (0.0,), (0.0,)" in err


def test_check_rejects_domain_in_object_form(capsys, tmp_path):
    path = tmp_path / "space.json"
    doc = json.loads(open(write_space(path)).read())
    doc["domain"] = {"bounds": doc["domain"]}
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == 65
    assert "malformed domain" in err


def test_check_report_is_byte_stable(capsys, tmp_path):
    path = write_space(tmp_path / "line.json")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(capsys, "check", path, "--seed", "9", "--out", str(out1))[0] == 0
    assert run(capsys, "check", path, "--seed", "9", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_classify_lists_labels(capsys, tmp_path):
    path = write_space(tmp_path / "line.json")
    code, out, _ = run(capsys, "check", path, "--classify", "--random-count", "300")
    assert code == 0
    doc = json.loads(out)
    kinds = [row["kind"] for row in doc["report"]["labels"]]
    assert "Metric" in kinds and "KPMS" in kinds


def test_check_seed_comes_from_environment(capsys, tmp_path, monkeypatch):
    path = write_space(tmp_path / "line.json")
    monkeypatch.setenv("PMT_SEED", "123")
    code, out, _ = run(capsys, "check", path, "--random-count", "300")
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 123
    monkeypatch.setenv("PMT_SEED", "not-a-number")
    assert run(capsys, "check", path)[0] == 65


# ---------------------------------------------------------------------------
# transform


def test_transform_pt_writes_loadable_space(capsys, tmp_path):
    src = write_space(tmp_path / "maxline.json", spec={"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    dst = tmp_path / "derived.json"
    code, out, _ = run(capsys, "transform", src, "--kind", "pt", "--out", str(dst))
    assert code == 0
    doc = json.loads(out)
    assert doc["written"] == str(dst)
    stored = json.loads(dst.read_text())
    assert stored["K"] == 1.0


def test_transform_basepoint_requires_x0(capsys, tmp_path):
    src = write_space(tmp_path / "line.json")
    dst = tmp_path / "derived.json"
    code, _, err = run(capsys, "transform", src, "--kind", "basepoint", "--out", str(dst))
    assert code == 65
    assert "--x0" in err
    code2, _, _ = run(
        capsys, "transform", src, "--kind", "basepoint", "--x0", "0.0", "--out", str(dst)
    )
    assert code2 == 0


def test_transform_rejects_unknown_kind(capsys, tmp_path):
    src = write_space(tmp_path / "line.json")
    code, _, err = run(capsys, "transform", src, "--kind", "mystery", "--out", "x.json")
    assert code == 64
    assert "usage error" in err


# ---------------------------------------------------------------------------
# series


def test_series_certified_terms_exit_zero(capsys):
    terms = ",".join(str(1.0 / (n + 2)) for n in range(60))
    code, out, _ = run(capsys, "series", "--terms", terms)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["status"] == "certified"
    assert doc["horizon"] == 60


def test_series_refuted_terms_exit_two(capsys):
    code, out, _ = run(capsys, "series", "--terms", ",".join(["1.0"] * 30))
    assert code == 2
    assert json.loads(out)["certificate"]["status"] == "refuted_at_horizon"


def test_series_inconclusive_terms_exit_three(capsys):
    terms = ",".join(str(3.0 * 0.9**n) for n in range(12))
    code, out, _ = run(capsys, "series", "--terms", terms)
    assert code == 3
    assert json.loads(out)["certificate"]["status"] == "inconclusive"


def test_series_deltas_path_builds_kannan_terms(capsys):
    deltas = ",".join(["0.25"] * 40)
    code, out, _ = run(capsys, "series", "--deltas", deltas, "--s", "1.0", "--with-2s-factor")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["lambda"] == 0.7
    assert cert["n_lambda"] == 1


def test_series_usage_errors(capsys):
    assert run(capsys, "series")[0] == 64
    assert run(capsys, "series", "--terms", "0.5", "--deltas", "0.5")[0] == 64
    assert run(capsys, "series", "--deltas", "0.5,0.5")[0] == 64


def test_series_horizon_truncates_and_validates(capsys):
    terms = ",".join(["1.0"] * 5 + ["0.0"] * 45)
    code, out, _ = run(capsys, "series", "--terms", terms, "--horizon", "5")
    assert code == 2
    assert json.loads(out)["horizon"] == 5
    assert run(capsys, "series", "--terms", terms, "--horizon", "51")[0] == 65
    assert run(capsys, "series", "--terms", "not,numbers")[0] == 65


def test_series_custom_grid(capsys):
    code, out, _ = run(capsys, "series", "--terms", "0.4,0.4,0.4", "--grid", "0.5")
    assert code == 0
    assert json.loads(out)["certificate"]["lambda"] == 0.5


# ---------------------------------------------------------------------------
# solve


def test_solve_banach_pair_writes_report_and_trace(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space,
        "--config", json.dumps(BANACH_CFG),
        "--report-out", str(report_path), "--trace-out", str(trace_path),
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["report"]["converged"] is True
    assert doc["report"]["point"] == [pytest.approx(0.0, abs=1e-9)]
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "n,x0,step_dist,self_dist,hyp_slack"
    assert lines[1].startswith("0,1.0,")
    assert len(lines) > 3
    assert all(row.count(",") == 4 for row in lines)


def test_outputs_get_the_mode_of_a_plain_open(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    plain = tmp_path / "plain.txt"
    old = os.umask(0o027)
    try:
        plain.write_text("x")
        outputs = [tmp_path / "check.json", tmp_path / "report.json", tmp_path / "trace.csv"]
        assert run(capsys, "check", space, "--random-count", "50", "--out", str(outputs[0]))[0] == 0
        assert run(
            capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", json.dumps(BANACH_CFG),
            "--report-out", str(outputs[1]), "--trace-out", str(outputs[2]),
        )[0] == 0
    finally:
        os.umask(old)
    assert plain.stat().st_mode & 0o777 == 0o640
    assert [p.stat().st_mode for p in outputs] == [plain.stat().st_mode] * 3


def test_solve_reports_are_byte_stable(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["solve", "--scheme", "banach-pair", "--space", space, "--config", json.dumps(BANACH_CFG)]
    assert run(capsys, *args, "--report-out", str(r1))[0] == 0
    assert run(capsys, *args, "--report-out", str(r2))[0] == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_power_pair_via_config_keys(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = dict(BANACH_CFG, k=0.3, r1=2, r2=3)
    code, out, _ = run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 0
    assert json.loads(out)["report"]["extras"]["scheme"] == "banach-pair-power"


def test_solve_kannan_pair(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "T1": {"kind": "scale", "factor": 0.25},
        "T2": {"kind": "scale", "factor": 0.25},
        "k": 0.25,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "kannan-pair", "--space", space,
        "--config", json.dumps(cfg), "--x0", "1.0",
    )
    assert code == 0
    assert json.loads(out)["report"]["converged"] is True


def test_solve_admissible(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "T": {"kind": "scale", "factor": 0.25},
        "alpha": {"kind": "const", "value": 2.0},
        "beta": {"kind": "const", "value": 0.5},
        "C_alpha": 2.0,
        "C_beta": 0.6,
        "x0": 1.0,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "admissible", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 0
    assert json.loads(out)["report"]["extras"]["scheme"] == "admissible"


def test_solve_family_with_series_gate(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "family": {"kind": "geometric", "base": 5.0},
        "delta": {"kind": "const", "value": 0.25},
        "scheme": "kannan",
        "gauge": "identity",
        "gate": {"kind": "alpha-series", "horizon": 100},
        "x0": 1.0,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "family", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["extras"]["gate"]["status"] == "certified"


def test_solve_family_penalty_takes_the_arity_of_the_folded_scheme_name(capsys, tmp_path):
    # "Kannan-3" folds to kannan3, whose penalty takes three arguments
    space = write_space(tmp_path / "line.json")
    cfg = {
        "family": {"kind": "geometric", "base": 5.0},
        "delta": {"kind": "const", "value": 0.25},
        "scheme": "Kannan-3",
        "psi": "max",
        "gamma": 0.1,
        "x0": 1.0,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "family", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 0
    assert json.loads(out)["report"]["extras"]["scheme"] == "kannan3"


def test_solve_family_gate_rejection_is_data_error(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "family": {"kind": "geometric", "base": 5.0},
        "delta": {"kind": "const", "value": 0.45},
        "gate": {"kind": "alpha-series", "horizon": 50},
        "x0": 1.0,
    }
    code, _, err = run(
        capsys, "solve", "--scheme", "family", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 65
    assert "gate" in err or "series" in err


def test_solve_exit_three_when_budget_runs_out(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "T1": {"kind": "scale", "factor": 0.9},
        "T2": {"kind": "scale", "factor": 0.9},
        "k": 0.9,
        "x0": 1.0,
        "max_iter": 3,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 3
    assert json.loads(out)["report"]["converged"] is False


def test_solve_exit_two_when_hypothesis_logged_failures(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg = {
        "T1": {"kind": "scale", "factor": 0.3333333333333333},
        "T2": {"kind": "scale", "factor": 0.2},
        "k": 0.2,
        "x0": 1.0,
        "halt_on_violation": False,
    }
    code, out, _ = run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["report"]["converged"] is True
    assert doc["report"]["worst_slack"] < 0


def test_solve_usage_and_data_errors(capsys, tmp_path):
    space = write_space(tmp_path / "line.json")
    cfg_no_x0 = {"T1": BANACH_CFG["T1"], "T2": BANACH_CFG["T2"], "k": 0.5}
    assert run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space,
        "--config", json.dumps(cfg_no_x0),
    )[0] == 64
    assert run(
        capsys, "solve", "--scheme", "newton", "--space", space, "--config", "{}"
    )[0] == 64
    assert run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", "not json {"
    )[0] == 65
    assert run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space, "--config", "[1, 2]"
    )[0] == 65
    cfg_bad_map = dict(BANACH_CFG, T1={"kind": "rotate"})
    assert run(
        capsys, "solve", "--scheme", "banach-pair", "--space", space,
        "--config", json.dumps(cfg_bad_map),
    )[0] == 65


FAMILY_CFG = {
    "family": {"kind": "geometric", "base": 5.0},
    "delta": {"kind": "const", "value": 0.25},
    "x0": 1.0,
}
ADMISSIBLE_CFG = {
    "T": {"kind": "scale", "factor": 0.25},
    "alpha": {"kind": "const", "value": 2.0},
    "beta": {"kind": "const", "value": 0.5},
    "C_alpha": 2.0,
    "C_beta": 0.6,
    "x0": 1.0,
}


@pytest.mark.parametrize("scheme, cfg", [
    ("banach-pair", {key: v for key, v in BANACH_CFG.items() if key != "T1"}),
    ("banach-pair", dict(BANACH_CFG, k="abc")),
    ("banach-pair", dict(BANACH_CFG, T1="half")),
    ("banach-pair", dict(BANACH_CFG, T1={"kind": "scale"})),
    ("family", {key: v for key, v in FAMILY_CFG.items() if key != "delta"}),
    ("family", dict(FAMILY_CFG, delta={"kind": "fixture", "name": "E1-maxpow"})),
    ("family", dict(FAMILY_CFG, gauge={"kind": "power"})),
    ("admissible", dict(ADMISSIBLE_CFG, alpha="const")),
    ("banach-pair", dict(BANACH_CFG, x0="a")),
])
def test_solve_malformed_config_is_data_error(capsys, tmp_path, scheme, cfg):
    space = write_space(tmp_path / "line.json")
    code, out, err = run(
        capsys, "solve", "--scheme", scheme, "--space", space, "--config", json.dumps(cfg)
    )
    assert code == 65
    assert err.startswith("error:")
    assert out == ""
