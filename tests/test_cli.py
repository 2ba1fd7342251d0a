"""Tests for configs, reports, the check runner, and the CLI."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
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
    op = cfg.operator
    assert op[0, 0] == 0.5j
    gen = cfg.generators[0]
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
    with pytest.raises(ConfigError, match="unknown check 'no-such-check'"):
        checks.run_experiment(config.parse_config(raw))


def test_block_diag_operator():
    raw = shift_config(
        operator={"kind": "block_diag", "blocks": [
            {"kind": "nilpotent_shift", "dimension": 2},
            {"kind": "diagonal", "values": [0.5]},
        ]},
        checks=["orbit-bounds"],
    )
    op = config.parse_config(raw).operator
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


@pytest.mark.parametrize("operator", [
    {"kind": "dense", "entries": [[0.5, -0.0], 0.0, 0.25, [0.0, 0.5],
                                  0.0, 0.0, 0.0, 0.0, 0.1],
     "values": [1.0]},
    {"kind": "block_diag", "blocks": [
        {"kind": "circulant", "first_row": [0.0, [0.5, 0.1]]},
        {"kind": "diagonal", "dimension": 1, "values": [0.25]}]},
])
def test_one_config_run_twice_gives_equal_payloads_from_read_only_arrays(
        operator):
    cfg = config.parse_config(shift_config(
        operator=operator, generators=[[1.0, 0.5, [0.0, 0.25]], [0.0, 1.0, 0.0]],
        checks=["orbit-bounds", "stein", "kernel-invariance",
                "perturbation:riesz_orbit_perturbation"]))
    arrays = (cfg.operator, *cfg.generators)
    before = [a.copy() for a in arrays]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    first, second = (checks.run_experiment(cfg) for _ in range(2))
    assert first.payload_hash() == second.payload_hash()
    assert first.to_dict()["metadata"] == second.to_dict()["metadata"]
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


@pytest.mark.parametrize("values", [[0.0, 0.0], [1e-170, 0.0]])
def test_stein_check_on_an_operator_whose_squared_norm_is_zero(tmp_path,
                                                               values):
    # ||T||^2 is 0 in float64 (1e-170 squared underflows): every term of
    # the series past n = 0 is 0, so the brute-force depth is 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config(
        dimension=2, operator={"kind": "diagonal", "values": values},
        generators=[[1.0, 0.5]], checks=["stein"])))
    out = tmp_path / "r.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    [record] = json.loads(out.read_text())["checks"]
    assert record["outputs"]["truncation_depth"] == 1
    assert record["margins"]["brute_force_error"] <= 1e-10


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

def test_cli_run_summary_follows_redirected_stdout(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", str(cfg_path), "--out",
                         str(tmp_path / "report.json")])
    assert code == 0
    assert buf.getvalue().splitlines() == [
        "  orbit-bounds: pass", "  surjectivity: pass", "overall: pass"]


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


@pytest.mark.parametrize("command", ["run", "repro"])
def test_cli_unwritable_report_path_exits_1_with_one_line(tmp_path, capsys,
                                                          command):
    # run: --out names a directory; repro: a path under an existing file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config()))
    (tmp_path / "file").write_text("")
    out = str(tmp_path) if command == "run" else str(tmp_path / "file" / "x.json")
    argv = ["run", str(cfg_path)] if command == "run" \
        else ["repro", "shift-orbit", "--dim", "4"]
    assert cli.main([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot write report {out}: [Errno ")


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


@pytest.mark.parametrize("weights", [
    {"kind": "constant", "value": 0.0},
    {"kind": "geometric", "value": 0.0},
    {"kind": "explicit", "values": [1.0, 0.5]},  # horizon 3 needs 3
])
def test_cli_bad_weight_sequence_is_refused_at_load(tmp_path, capsys, weights):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(shift_config(weights=weights)))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weights: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("weights", [
    None, {"kind": "geometric", "value": 0.99},
], ids=["unweighted", "weighted"])
def test_cli_horizon_no_array_can_hold_is_refused_at_load(tmp_path, capsys,
                                                          weights):
    # 3 x 1 x 10^20 complex entries: past np.intp, refused before the weight
    # sequence or the orbit is allocated
    raw = shift_config(horizon=10**20)
    if weights is not None:
        raw["weights"] = weights
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 100000000000000000000 is too long")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


def test_cli_underflowing_geometric_weight_names_n(tmp_path, capsys):
    # 0.5**1075 rounds to 0 in float64, although the ratio 0.5 is nonzero
    raw = shift_config(weights={"kind": "geometric", "value": 0.5},
                       horizon=1100)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: weights: geometric weight r^n underflows to 0 in float64 "
        "at n = 1075 (|r| = 0.5)\n")
    assert not (tmp_path / "r.json").exists()


def test_overflowing_geometric_weights_load_without_warnings():
    # the sequence is computed at load; its overflow is the orbit's error
    raw = shift_config(weights={"kind": "geometric", "value": 1e30},
                       horizon=40, checks=["orbit-bounds"])
    rep = checks.run_experiment(config.parse_config(raw))
    assert rep.checks[0].error.startswith("LinAlgError: orbit vector")


def test_cli_check_failure_exit_code(tmp_path):
    raw = shift_config(
        operator={"kind": "circulant", "first_row": [0.0, 0.0, 1.0]},
        checks=["surjectivity"],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("check", ["surjectivity", "periodic", "nogo-proxy"])
def test_one_orbit_checks_refuse_several_generators(tmp_path, check):
    # each of these describes the orbit of one generator: a second one is
    # refused with one line, not silently dropped
    raw = shift_config(
        operator={"kind": "circulant", "first_row": [0.0, 1.0, 0.0]},
        generators=[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], checks=[check])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "r.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
    record, = json.loads(out.read_text())["checks"]
    assert record["passed"] is False
    assert record["error"] == f"InvalidInput: {check} check needs a single generator"


def test_cli_unknown_preset():
    assert cli.main(["repro", "nonexistent"]) == 1


@pytest.mark.parametrize("argv,message", [
    (["circulant-zmodel", "--seed", "-5"],
     "config does not match schema: -5 is less than the minimum of 0"),
    (["vacuity-search", "--seed", "-2"],
     "config does not match schema: -2 is less than the minimum of 0"),
    (["shift-orbit", "--dim", "-3"], "preset dimension must be >= 1, got -3"),
] + [([name, "--dim", "0"], "preset dimension must be >= 1, got 0")
     for name in presets.PRESET_NAMES])
def test_cli_repro_refuses_a_negative_seed_and_a_dim_below_one(capsys, argv,
                                                              message):
    assert cli.main(["repro", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    def rebuild():
        raise AssertionError("parser rebuilt per call")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config()))
    out = tmp_path / "run.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert cli.main(["repro", "shift-orbit", "--dim", "4",
                     "--out", str(tmp_path / "repro.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg_path)])  # --out is required
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    # a bad argv leaves the parser as it was
    assert cli.main(["repro", "shift-orbit", "--dim", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_cli_repro_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["repro", "shift-orbit", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    report.validate_report(payload)


def test_preset_configs_parse():
    for name in presets.PRESET_NAMES:
        cfg = presets.preset_config(name)
        for check_name in cfg.checks:
            assert check_name in checks.REGISTRY


def test_repro_dim_override():
    cfg = presets.preset_config("shift-orbit", dim=6)
    assert cfg.dimension == 6
    rep = checks.run_experiment(cfg)
    assert rep.passed


def test_repro_aldroubi_dim_54_keeps_divergent_series_text(tmp_path):
    # 1 - 2^-54 rounds to 1 in float64: ||T||_2 = 1, so the Stein solve
    # still runs the eigensolve and refuses with rho(T) = 1
    out = tmp_path / "report.json"
    assert cli.main(["repro", "aldroubi-diagonal", "--dim", "54",
                     "--out", str(out)]) == 2
    errors = [(c["name"], c["error"])
              for c in json.loads(out.read_text())["checks"] if c["error"]]
    assert errors == [("stein", "DivergentSeries: spectral radius 1 >= 1; "
                                "orbit series diverges")]


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
                     "--tol", "1e-9"])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["metadata"]["config"]["tolerances"]["default"] == 1e-9


def test_cli_unknown_certificate_suffix(tmp_path):
    raw = shift_config(checks=["perturbation:bogus"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 1


def diagonal_config(check, params):
    return {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [0.5, 0.3]},
        "generators": [[0.1, 0.1]],
        "horizon": 8,
        "checks": [check],
        "params": {check: params},
    }


def test_multi_generator_riesz_via_runner():
    check = "perturbation:multi_generator_riesz"
    raw = diagonal_config(
        check, {"w_operator": {"kind": "diagonal", "values": [0.4, 0.2]}})
    rep = checks.run_experiment(config.parse_config(raw))
    assert rep.passed and rep.checks[0].error is None
    [inst] = rep.checks[0].outputs["instances"]
    assert inst["name"] == "multi_generator_riesz"
    h = inst["hypothesis_values"]
    assert h["lambda"] == pytest.approx(0.5)
    assert h["generator_energy"] == pytest.approx(0.02)
    assert inst["margin"] == pytest.approx(h["threshold"] - 0.02)
    assert inst["verdict"] is (inst["margin"] > 0)


def test_two_operator_riesz_sum_via_runner_emits_both_instances():
    check = "perturbation:two_operator_riesz_sum"
    raw = diagonal_config(
        check, {"second_operator": {"kind": "diagonal", "values": [0.45, 0.3]}})
    rep = checks.run_experiment(config.parse_config(raw))
    assert rep.passed and rep.checks[0].error is None
    frame, riesz_sum = rep.checks[0].outputs["instances"]
    assert frame["name"] == "two_operator_frame"
    assert riesz_sum["name"] == "two_operator_riesz_sum"
    # only the first coordinate differs: sum_n |0.5^n - 0.45^n|^2 0.1^2
    exact = sum((0.5**n - 0.45**n) ** 2 * 0.01 for n in range(8))
    h = riesz_sum["hypothesis_values"]
    assert h["difference_sum"] == pytest.approx(exact, rel=1e-12)
    assert riesz_sum["verdict"] is True
    assert riesz_sum["conclusion"]["a_opt"] > 0


GALLERY = presets._perturbation_gallery(3, 7)
RIESZ = "perturbation:riesz_orbit_perturbation"
SCALED = "perturbation:scaled_generator_perturbation"


def gallery_with(check, **params):
    raw = json.loads(json.dumps(GALLERY))
    raw["params"][check].update(params)
    return raw


def misspelt_gallery():
    raw = gallery_with(RIESZ)
    block = raw["params"][RIESZ]
    block["subspace_coord"] = block.pop("subspace_coords")
    return raw


def search_config(params):
    check = "satisfiability:two_operator_frame"
    return dict(diagonal_config(check, params), checks=[check])


MALFORMED_PARAMS = {
    "subspace_coords out of range": (
        gallery_with(RIESZ, subspace_coords=[10]), "subspace_coords 10"),
    "psi_direction of wrong length": (
        gallery_with(RIESZ, psi_direction=[1.0, 0.0]), "psi_direction length"),
    "psi_scales not numbers": (
        gallery_with(RIESZ, psi_scales=["a"]), ".psi_scales[0]"),
    "horizon not an integer": (
        gallery_with(RIESZ, horizon="x"), ".horizon"),
    "trials not an integer": (
        search_config({"trials": "x"}), ".trials"),
    "NaN in psi_direction": (
        gallery_with(SCALED, psi_direction=[float("nan"), 0.0]), "not finite"),
    "zero trials": (
        search_config({"trials": 0}), "minimum of 1"),
    "multi_generator_riesz without w_operator": (
        diagonal_config("perturbation:multi_generator_riesz", {}),
        "'w_operator' is a required property"),
    "misspelt key": (
        misspelt_gallery(), "'subspace_coord' was unexpected"),
    "iterated horizon past 2^53": (
        shift_config(checks=["iterated-frame-operator"],
                     params={"iterated-frame-operator": {"horizon": 10**400}}),
        "is greater than the maximum of 9007199254740992"),
    "operator dimension that disagrees with its values": (
        gallery_with(RIESZ, operator={"kind": "diagonal", "dimension": 7,
                                      "values": [0.5, 0.1, 0.2]}),
        "diagonal operator dimension 7 does not match its data, "
        "of dimension 3"),
    "subspace_coords repeated": (
        gallery_with(RIESZ, subspace_coords=[2, 2.0]),
        "subspace_coords [2, 2.0] repeats a coordinate"),
}


@pytest.mark.parametrize("case", list(MALFORMED_PARAMS))
def test_cli_refuses_malformed_params(tmp_path, capsys, case):
    raw, message = MALFORMED_PARAMS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_path = tmp_path / "r.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: params[") and message in err
    assert not out_path.exists()


BAD_BLOCKS = {
    "a block that is a number": ([5], "5 is not of type 'object'"),
    "a block whose values are a number": (
        [{"kind": "diagonal", "values": 5}], "5 is not of type 'array'"),
    "no blocks": ([], "block_diag operator needs at least one block"),
    "a diagonal block without values": (
        [{"kind": "diagonal", "first_row": [0.5]}],
        "diagonal operator needs 'values'"),
    "a diagonal block with empty values": (
        [{"kind": "diagonal", "values": []}],
        "diagonal operator needs 'values'"),
    "a shift block without dimension": (
        [{"kind": "nilpotent_shift", "values": [0.5]}],
        "nilpotent_shift operator needs 'dimension'"),
    "a circulant block without first_row": (
        [{"kind": "circulant"}], "circulant operator needs 'first_row'"),
    "a dense block without entries": (
        [{"kind": "dense", "values": [0.5]}],
        "dense operator needs row-major 'entries'"),
    "a dense block of three entries": (
        [{"kind": "dense", "entries": [0.5, 0.0, 0.5]}],
        "dense entries length 3 is not a perfect square"),
    "a non-finite scalar in an ignored field": (
        [{"kind": "nilpotent_shift", "dimension": 3,
          "entries": [[0.0, float("inf")]]}],
        "complex scalar [0.0, inf] is not finite"),
    "a block whose dimension disagrees with its values": (
        [{"kind": "diagonal", "dimension": 7, "values": [0.5, 0.1]}],
        "diagonal operator dimension 7 does not match its data, "
        "of dimension 2"),
    "a nested block_diag whose dimension disagrees with its blocks": (
        [{"kind": "block_diag", "dimension": 2, "blocks": [
            {"kind": "nilpotent_shift", "dimension": 3}]}],
        "block_diag operator dimension 2 does not match its data, "
        "of dimension 3"),
}


@pytest.mark.parametrize("placement", ["config", "params"])
@pytest.mark.parametrize("case", list(BAD_BLOCKS))
def test_cli_refuses_malformed_nested_blocks(tmp_path, capsys, case,
                                             placement):
    blocks, message = BAD_BLOCKS[case]
    operator = {"kind": "block_diag", "blocks": blocks}
    raw = shift_config(operator=operator) if placement == "config" \
        else gallery_with(RIESZ, operator=operator)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_path = tmp_path / "r.json"
    assert cli.main(["run", str(cfg_path), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    assert not out_path.exists()


def test_params_for_unconfigured_check_refused():
    raw = shift_config(params={"orbit-bound": {}})
    with pytest.raises(ConfigError, match="names no configured check"):
        checks.run_experiment(config.parse_config(raw))


# ---------------------------------------------------------------------------
# iterated frame operators past float64: report in log10, no warnings
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


def assert_finite_log10_record(proc, record, horizons):
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert record["error"] is None
    out = record["outputs"]
    assert out["verdict"] == "cannot-be-frame"
    assert out["horizons"] == horizons
    assert all(isinstance(b, float) for b in out["log10_upper_bounds"])


def test_cli_iterate_past_float64_is_a_log10_record_without_warnings(tmp_path):
    # S^6 g overflows float64 here; the check never forms it
    proc, record = run_subprocess(tmp_path, iterated_config(1e30, 8))
    assert_finite_log10_record(proc, record, [1, 2, 4, 8])
    assert record["outputs"]["log10_upper_bounds"][-1] > 308


def test_cli_squared_bound_past_float64_is_a_log10_record_without_warnings(
        tmp_path):
    proc, record = run_subprocess(tmp_path, iterated_config(1e45, 4))
    assert_finite_log10_record(proc, record, [1, 2, 4])
    assert record["outputs"]["log10_upper_bounds"][-1] > 308


def test_cli_iterated_horizon_of_a_billion_runs_in_a_second():
    raw = {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [0.5, 0.25]},
        "generators": [[0.5, 0.5]],
        "horizon": 8,
        "checks": ["iterated-frame-operator"],
        "params": {"iterated-frame-operator": {"horizon": 10**9}},
    }
    start = time.perf_counter()
    rep = checks.run_experiment(config.parse_config(raw))
    assert time.perf_counter() - start < 1.0
    out = rep.checks[0].outputs
    assert rep.checks[0].error is None
    assert out["verdict"] == "bessel"
    assert out["horizons"][-1] == 10**9
    assert 10.0**out["log10_upper_bounds"][-1] == pytest.approx(
        out["upper_bound"], rel=1e-12)


def test_cli_overflowing_orbit_is_an_error_record_without_warnings(tmp_path):
    # 1e10^31 overflows float64; the orbit is built once and both orbit
    # checks record the error
    proc, record = run_subprocess(tmp_path, {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [1e10, 0.5]},
        "generators": [[1.0, 1.0]],
        "horizon": 40,
        "checks": ["orbit-bounds", "kernel-invariance"],
    })
    assert proc.returncode == 2
    assert proc.stderr == ""
    records = json.loads((tmp_path / "report.json").read_text())["checks"]
    for rec in records:
        assert rec["error"] == ("LinAlgError: orbit vector a_n T^n phi is "
                                "not finite in float64 at n = 31")
        assert rec["outputs"] == {}


def test_cli_overflowing_bessel_bound_is_an_error_record_without_warnings(
        tmp_path):
    # the orbit and its spectrum are finite; sum ||phi||^2 / (1 - ||T||^2)
    # is not
    proc, record = run_subprocess(tmp_path, {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [0.999999999999, 0.25]},
        "generators": [[1e150, 1e150]],
        "horizon": 4,
        "checks": ["orbit-bounds"],
    })
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert record["error"] == ("LinAlgError: contractive Bessel bound sum "
                               "||phi||^2 / (1 - ||T||^2) is not finite in "
                               "float64")
    assert record["outputs"] == {}


@pytest.mark.parametrize("weights", [[1e-171, 1e153, 1.0],
                                     [1e153, 1e-171, 1.0]])
def test_cli_weight_ratio_past_float64_is_an_error_record_without_warnings(
        tmp_path, weights):
    # every weight and orbit vector is finite; a_0 / a_1 underflows to 0
    # or overflows, and both checks that read the weighted shift refuse it
    proc, _ = run_subprocess(tmp_path, {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "nilpotent_shift", "dimension": 2},
        "generators": [[1.0, 0.5]],
        "weights": {"kind": "explicit", "values": weights},
        "horizon": 3,
        "checks": ["representation", "kernel-invariance"],
    })
    assert proc.returncode == 2
    assert proc.stderr == ""
    records = json.loads((tmp_path / "report.json").read_text())["checks"]
    for rec in records:
        assert rec["error"] == ("LinAlgError: weight ratio a_k / a_{k+1} is "
                                "0 or not finite in float64 at k = 0")
        assert rec["outputs"] == {}


# ---------------------------------------------------------------------------
# the runtime needs numpy alone: jsonschema is the tests' schema oracle
# ---------------------------------------------------------------------------

def run_python(code, *argv):
    """``python -c code argv...`` with this package on the path."""
    src = str(Path(dynsamp_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
from dynsamp_lab import cli
raise SystemExit(cli.main(sys.argv[1:]))
"""


def test_commands_run_where_jsonschema_cannot_be_imported(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config()))
    proc = run_python(WITHOUT_JSONSCHEMA, "run", str(cfg_path),
                      "--out", str(tmp_path / "r.json"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "r.json").read_text())["passed"]

    proc = run_python(WITHOUT_JSONSCHEMA, "repro", "shift-orbit", "--dim", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]

    cfg_path.write_text(json.dumps(shift_config(horizon="3")))
    proc = run_python(WITHOUT_JSONSCHEMA, "run", str(cfg_path),
                      "--out", str(tmp_path / "bad.json"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: config does not match schema: '3' is not of type 'integer'"]


def test_the_cli_does_not_import_jsonschema(tmp_path):
    proc = run_python(
        "import sys\n"
        "from dynsamp_lab import cli\n"
        "cli.main(['repro', 'shift-orbit', '--out', sys.argv[1]])\n"
        "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))",
        str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# start-up: what a command loads
# ---------------------------------------------------------------------------

def test_an_orbit_run_does_not_load_the_certificate_module(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(shift_config(checks=[
        "orbit-bounds", "stein", "surjectivity", "kernel-invariance",
        "representation", "iterated-frame-operator"])))
    proc = run_python(
        "import sys\n"
        "from dynsamp_lab import cli\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'dynsamp_lab.perturb' in sys.modules)",
        str(cfg_path), str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_no_record_class_is_a_dataclass():
    # records are NamedTuples (or plain classes where a cached_property
    # needs an instance dict): a dataclass execs its generated methods at
    # import
    found = []
    for path in sorted(Path(dynsamp_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if "dataclass" in ast.unparse(target):
                        found.append(f"{path.name}:{node.name}")
    assert found == []


def test_the_registry_reads_its_certificate_rows_off_the_one_table():
    # importing checks leaves perturb unloaded; reading REGISTRY gives all
    # 23 rows, each certificate schema perturb.CERTIFICATES' own
    proc = run_python(
        "import sys\n"
        "from dynsamp_lab import checks\n"
        "loaded = 'dynsamp_lab.perturb' in sys.modules\n"
        "rows = checks.REGISTRY\n"
        "from dynsamp_lab import perturb\n"
        "print(loaded, len(rows), all(\n"
        "    rows[f'perturbation:{c}'][1] is k.params\n"
        "    and f'satisfiability:{c}' in rows\n"
        "    for c, k in perturb.CERTIFICATES.items()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 23 True"
