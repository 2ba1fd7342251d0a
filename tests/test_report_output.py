"""Report output and shared work per run: the report file against the
indented dump it replaced, the two hashes recomputed from the file, and
one Stein solve per (generators, tolerance) in a run."""

import hashlib
import json

import numpy as np
import pytest

from dynsamp_lab import checks, cli, config, numkit, presets, report
from dynsamp_lab.config import canonical_json

LADDER_CHECKS = [
    "orbit-bounds", "stein", "surjectivity", "riesz-profile",
    "kernel-invariance", "iterated-frame-operator", "representation",
    "ratio-bound",
]


def pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


def dense_ladder_config(d: int, seed: int = 5, generators: int = 1,
                        names=LADDER_CHECKS, **extra) -> dict:
    """A dense orbit-ladder rung: 0.9 x a random complex matrix scaled to
    norm one, Gaussian complex generators, horizon 4d."""
    rng = np.random.default_rng([seed, d])
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
    gens = [pairs(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            for _ in range(generators)]
    return {"schema_version": 1, "dimension": d, "horizon": 4 * d,
            "operator": {"kind": "dense", "entries": pairs(t)},
            "generators": gens, "checks": list(names), "seed": seed,
            **extra}


def indented_dump(rep: report.ExperimentReport) -> str:
    """The report text as written before the compact layout: the same
    payload, ``json.dumps(..., sort_keys=True, indent=2)``."""
    payload = rep.to_dict()
    payload["payload_hash"] = rep.payload_hash(payload)
    return json.dumps(payload, sort_keys=True, indent=2)


def assert_file_parity(rep: report.ExperimentReport,
                       cfg: config.ExperimentConfig) -> None:
    text = rep.to_json()
    parsed = json.loads(text)
    assert parsed == json.loads(indented_dump(rep))
    report.validate_report(parsed)

    # one line per check record, between the opening and closing lines
    lines = text.split("\n")
    assert lines[0] == '{"checks":['
    assert lines[-1].startswith('],"metadata":{"config":')
    records = [json.loads(line.rstrip(",")) for line in lines[1:-1]]
    assert records == parsed["checks"]

    # both hashes recomputed from the file alone
    stable = {k: v for k, v in parsed.items() if k != "payload_hash"}
    stable["checks"] = [{k: v for k, v in c.items() if k != "wall_time"}
                        for c in parsed["checks"]]
    assert parsed["payload_hash"] == hashlib.sha256(
        canonical_json(stable).encode()).hexdigest()
    assert parsed["payload_hash"] == rep.payload_hash()
    echo_hash = hashlib.sha256(
        canonical_json(parsed["metadata"]["config"]).encode()).hexdigest()
    assert parsed["metadata"]["config_hash"] == echo_hash
    assert rep.config_hash == hashlib.sha256(
        canonical_json(config.config_to_dict(cfg)).encode()).hexdigest()
    assert rep.config_hash == config.config_hash(cfg)


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_report_file_matches_indented_dump_on_presets(name):
    cfg = presets.preset_config(name)
    assert_file_parity(checks.run_experiment(cfg), cfg)


def test_report_file_matches_indented_dump_on_dense_ladder_rung():
    cfg = config.parse_config(dense_ladder_config(16))
    assert_file_parity(checks.run_experiment(cfg), cfg)


def test_report_file_keeps_non_finite_sentinels_and_errors():
    cfg = config.parse_config(dense_ladder_config(4, names=["stein"]))
    rep = checks.run_experiment(cfg)
    rep.checks.append(report.CheckRecord(
        name="stein",
        inputs={"array": np.array([1.5, np.nan]), "z": 1 - 2j},
        outputs={"nan": float("nan"), "inf": np.inf, "ninf": -np.inf,
                 "values": np.array([0.25, np.inf, -np.inf]),
                 "nested": {"flag": np.bool_(True), "count": np.int64(3)}},
        margins={"slack": -0.0},
        passed=False,
        wall_time=0.125,
        error="NotAFrame: lower bound 0",
    ))
    assert_file_parity(rep, cfg)
    outputs = json.loads(rep.to_json())["checks"][-1]["outputs"]
    assert outputs["nan"] == "nan"
    assert outputs["inf"] == "inf" and outputs["ninf"] == "-inf"
    assert outputs["values"] == [0.25, "inf", "-inf"]


def test_repro_prints_the_report_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    argv = ["repro", "shift-orbit", "--seed", "3"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("\n")
    written = out.read_text()
    assert printed.count("\n") == written.count("\n") + 1

    def untimed(text):
        payload = json.loads(text)
        for check in payload["checks"]:
            check.pop("wall_time")
        return payload

    assert untimed(printed) == untimed(written)


# ---------------------------------------------------------------------------
# one Stein solve per (generators, tolerance) in a run
# ---------------------------------------------------------------------------

@pytest.fixture
def stein_calls(monkeypatch):
    calls = []
    solve = numkit.stein_doubling

    def counted(t, c, spectrum, tol):
        calls.append(tol)
        return solve(t, c, spectrum, tol)

    monkeypatch.setattr(numkit, "stein_doubling", counted)
    return calls


def outputs_by_check(rep):
    assert all(c.error is None for c in rep.checks)
    return {c.name: report.jsonify(c.outputs) for c in rep.checks}


def run(raw):
    return checks.run_experiment(config.parse_config(raw))


@pytest.mark.parametrize("extra, generators, solves", [
    ({}, 1, 1),
    ({"tolerances": {"default": 1e-12}}, 1, 1),
    ({"tolerances": {"stein": 1e-10}}, 1, 2),
])
def test_stein_and_surjectivity_share_one_solve(stein_calls, extra,
                                                generators, solves):
    raw = dense_ladder_config(6, generators=generators,
                              names=["stein", "surjectivity"], **extra)
    both = outputs_by_check(run(raw))
    assert len(stein_calls) == solves
    # each check's outputs are those of a run of that check alone
    for name in ("stein", "surjectivity"):
        alone = outputs_by_check(run(dict(raw, checks=[name])))
        assert alone == {name: both[name]}


def test_two_generator_stein_solves_once_beside_a_refused_surjectivity(
        stein_calls):
    # surjectivity describes one orbit: with two generators it refuses
    # before solving, and stein's record is that of a run of stein alone
    raw = dense_ladder_config(6, generators=2, names=["stein", "surjectivity"])
    stein, surjectivity = run(raw).checks
    assert len(stein_calls) == 1
    assert surjectivity.error == \
        "InvalidInput: surjectivity check needs a single generator"
    assert outputs_by_check(run(dict(raw, checks=["stein"]))) == \
        {"stein": report.jsonify(stein.outputs)}


def test_tol_flag_gives_stein_its_own_solve(tmp_path, stein_calls):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dense_ladder_config(
        6, names=["stein", "surjectivity"])))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json"),
                     "--tol", "1e-9"])
    assert code in (0, 2)
    assert sorted(stein_calls) == [1e-12, 1e-9]


def test_failed_solve_is_recorded_by_each_check(stein_calls):
    # a unitary operator: the orbit series diverges in both checks
    raw = dense_ladder_config(3, names=["stein", "surjectivity"])
    raw["operator"] = {"kind": "circulant", "first_row": [0.0, 1.0, 0.0]}
    rep = run(raw)
    assert [c.error.split(":")[0] for c in rep.checks] == \
        ["DivergentSeries", "DivergentSeries"]
    assert len(stein_calls) == 2  # a solve that raises is not cached
