"""Tests for configs, reports, the check runner, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynsamp_lab
from dynsamp_lab import checks, cli, config, presets, report
from dynsamp_lab.config import ConfigError


def shift_config(**overrides):
    raw = {
        "schema_version": 1,
        "dimension": 3,
        "operator": {"kind": "nilpotent_shift", "dimension": 3},
        "generators": [[1.0, 0.0, 0.0]],
        "horizon": 3,
        "checks": ["orbit-bounds", "surjectivity"],
        "seed": 7,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = config.parse_config(shift_config())
    echoed = config.config_to_dict(cfg)
    cfg2 = config.parse_config(echoed)
    assert config.config_to_dict(cfg2) == echoed
    assert config.config_hash(cfg) == config.config_hash(cfg2)


def test_config_complex_entries():
    raw = shift_config(
        operator={"kind": "dense",
                  "entries": [[0.0, 0.5], 0.0, 0.0, 0.0]},
        dimension=2,
        generators=[[[1.0, 0.0], [0.0, 1.0]]],
        checks=["orbit-bounds"],
    )
    cfg = config.parse_config(raw)
    op = cfg.operator_array()
    assert op[0, 0] == 0.5j
    gen = cfg.generator_arrays()[0]
    assert gen[1] == 1.0j


def test_config_rejects_zero_weight():
    raw = shift_config(weights={"kind": "explicit", "values": [1.0, 0.0, 1.0]})
    with pytest.raises(ConfigError, match="nonzero"):
        config.parse_config(raw)


def test_config_rejects_dimension_mismatch():
    raw = shift_config(dimension=4)
    with pytest.raises(ConfigError):
        config.parse_config(raw)


def test_config_rejects_bad_generator_length():
    raw = shift_config(generators=[[1.0, 0.0]])
    with pytest.raises(ConfigError):
        config.parse_config(raw)


def test_config_rejects_unknown_check():
    raw = shift_config(checks=["no-such-check"])
    with pytest.raises(ConfigError):
        config.parse_config(raw, known_checks=checks.KNOWN_CHECKS)


def test_block_diag_operator():
    raw = shift_config(
        operator={"kind": "block_diag", "blocks": [
            {"kind": "nilpotent_shift", "dimension": 2},
            {"kind": "diagonal", "values": [0.5]},
        ]},
        checks=["orbit-bounds"],
    )
    op = config.parse_config(raw).operator_array()
    assert op[1, 0] == 1.0 and op[2, 2] == 0.5
    assert op[2, 0] == 0.0


# ---------------------------------------------------------------------------
# runner and report
# ---------------------------------------------------------------------------

def test_run_experiment_shift():
    cfg = config.parse_config(shift_config())
    rep = checks.run_experiment(cfg)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["surjectivity"].outputs["criterion_iv"] <= 1e-10
    assert by_name["surjectivity"].outputs["consistent"] is True
    payload = json.loads(rep.to_json())
    report.validate_report(payload)
    echoed = config.parse_config(payload["metadata"]["config"])
    assert config.config_hash(echoed) == payload["metadata"]["config_hash"]


def test_report_deterministic_for_same_seed():
    cfg = config.parse_config(shift_config())
    h1 = checks.run_experiment(cfg).payload_hash()
    h2 = checks.run_experiment(cfg).payload_hash()
    assert h1 == h2


def test_parallel_matches_sequential():
    cfg = config.parse_config(shift_config(
        checks=["orbit-bounds", "surjectivity", "riesz-profile",
                "kernel-invariance"]))
    seq = checks.run_experiment(cfg, parallel=False)
    par = checks.run_experiment(cfg, parallel=True)
    assert seq.payload_hash() == par.payload_hash()
    assert [c.name for c in par.checks] == list(cfg.checks)


def test_hypothesis_violation_becomes_check_failure():
    # unitary operator: the exact orbit frame operator diverges
    raw = shift_config(
        operator={"kind": "circulant", "first_row": [0.0, 0.0, 1.0]},
        checks=["surjectivity"],
    )
    rep = checks.run_experiment(config.parse_config(raw))
    assert not rep.passed
    assert rep.checks[0].error is not None
    assert "DivergentSeries" in rep.checks[0].error


def test_csv_export():
    cfg = config.parse_config(shift_config(checks=["orbit-bounds"]))
    rep = checks.run_experiment(cfg)
    table = rep.to_csv()
    lines = table.strip().splitlines()
    assert lines[0] == "check,section,key,value"
    assert any("orbit-bounds,outputs,a_opt" in line for line in lines)


def test_jsonify_complex_and_inf():
    data = report.jsonify({"z": 1 + 2j, "x": float("inf"), "v": np.arange(2)})
    assert data == {"z": [1.0, 2.0], "x": "inf", "v": [0, 1]}


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_writes_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(shift_config()))
    code = cli.main(["run", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    report.validate_report(payload)
    assert payload["passed"] is True


def test_cli_run_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.csv"
    cfg_path.write_text(json.dumps(shift_config(checks=["orbit-bounds"])))
    code = cli.main(["run", str(cfg_path), "--out", str(out_path),
                     "--format", "csv"])
    assert code == 0
    assert out_path.read_text().startswith("check,section,key,value")


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(shift_config(checks=["bogus"])))
    out_path = tmp_path / "report.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out_path)]) == 1


def test_cli_zero_weight_diagnostic(tmp_path, capsys):
    raw = shift_config(weights={"kind": "explicit", "values": [1.0, 0.0, 1.0]})
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "nonzero" in capsys.readouterr().err


def test_cli_check_failure_exit_code(tmp_path):
    raw = shift_config(
        operator={"kind": "circulant", "first_row": [0.0, 0.0, 1.0]},
        checks=["surjectivity"],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_cli_unknown_preset():
    assert cli.main(["repro", "nonexistent"]) == 1


def test_cli_repro_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["repro", "shift-orbit", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    report.validate_report(payload)


def test_cli_cache_env(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("DYNSAMP_CACHE", str(cache))
    out = tmp_path / "rep.json"
    assert cli.main(["repro", "shift-orbit", "--out", str(out)]) == 0
    cached = list(cache.glob("*.json"))
    assert len(cached) == 1
    payload = json.loads(cached[0].read_text())
    assert payload["metadata"]["config_hash"] == cached[0].stem


def test_preset_configs_parse():
    for name in presets.PRESET_NAMES:
        cfg = presets.preset_config(name)
        for check_name in cfg.checks:
            assert check_name.split(":", 1)[0] in checks.KNOWN_CHECKS


def test_repro_dim_override():
    cfg = presets.preset_config("shift-orbit", dim=6)
    assert cfg.dimension == 6
    rep = checks.run_experiment(cfg)
    assert rep.passed


def test_all_presets_run_clean():
    for name in presets.PRESET_NAMES:
        rep = checks.run_experiment(presets.preset_config(name))
        failed = [(c.name, c.error) for c in rep.checks if not c.passed]
        assert rep.passed, (name, failed)


def test_iterated_check_via_runner():
    raw = shift_config(
        operator={"kind": "circulant", "first_row": [0.0, 0.0, 1.0]},
        checks=["iterated-frame-operator"],
        params={"iterated-frame-operator": {"horizon": 12}},
    )
    rep = checks.run_experiment(config.parse_config(raw))
    assert rep.passed
    assert rep.checks[0].outputs["verdict"] == "cannot-be-frame"


def test_satisfiability_check_via_runner():
    raw = shift_config(
        checks=["satisfiability:riesz_orbit_perturbation"],
        params={"satisfiability:riesz_orbit_perturbation": {
            "trials": 20, "min_satisfying": 1}},
    )
    rep = checks.run_experiment(config.parse_config(raw))
    assert rep.passed
    assert rep.checks[0].outputs["tried"] == 20


def test_cli_run_parallel_and_tol(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(shift_config()))
    code = cli.main(["run", str(cfg_path), "--out", str(out_path),
                     "--tol", "1e-9", "--parallel"])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["metadata"]["config"]["tolerances"]["default"] == 1e-9


def test_cli_unknown_certificate_suffix(tmp_path):
    raw = shift_config(checks=["perturbation:bogus"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1


# ---------------------------------------------------------------------------
# overflowing iterated frame operators: report, not warnings
# ---------------------------------------------------------------------------

def run_subprocess(tmp_path, raw):
    """``dynsamp run`` in a fresh interpreter, so stderr is the real one."""
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(raw))
    src = str(Path(dynsamp_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "dynsamp_lab.cli", "run", str(cfg_path),
         "--out", str(out_path)],
        capture_output=True, text=True, env=env, timeout=120)
    record = json.loads(out_path.read_text())["checks"][0]
    return proc, record


def iterated_config(weight, horizon):
    # S = weight^2 * (frame operator of the diagonal orbit): a large weight
    # drives the iterates S^n g, or their squared norms, past float64
    return {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [0.5, 0.25]},
        "generators": [[1.0, 1.0]],
        "weights": {"kind": "constant", "value": weight},
        "horizon": horizon,
        "checks": ["iterated-frame-operator"],
    }


def test_cli_overflowing_iterate_is_an_error_record_without_warnings(tmp_path):
    proc, record = run_subprocess(tmp_path, iterated_config(1e30, 8))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert record["error"] == ("LinAlgError: iterate S^n g is not finite "
                               "in float64 at n = 6")
    assert record["outputs"] == {}


def test_cli_overflowing_squared_bound_is_inf_without_warnings(tmp_path):
    proc, record = run_subprocess(tmp_path, iterated_config(1e45, 4))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert record["error"] is None
    bounds = record["outputs"]["prefix_upper_bounds"]
    assert bounds[2:] == ["inf", "inf"]
    assert all(isinstance(b, float) for b in bounds[:2])
    assert record["outputs"]["verdict"] == "cannot-be-frame"
