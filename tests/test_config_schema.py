"""The config and report schemas and the scalar rule.

The config schema states structure only; ``config.parse_complex`` owns the
rule for complex scalars.  The oracle below is the earlier contract: every
scalar leaf had to match a two-branch ``oneOf`` schema, and then the fields a
kind reads went through the earlier ``parse_complex``.
"""

import ast
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dynsamp_lab import checks, cli, config, report
from dynsamp_lab.config import ConfigError

OLD_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2},
    ]
}


def old_parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot parse complex scalar from {value!r}")


def old_accepts(leaf, read: bool) -> bool:
    """Old schema on the leaf, then the old parse if the kind reads it."""
    try:
        jsonschema.validate(leaf, OLD_COMPLEX)
        if read:
            old_parse_complex(leaf)
    except (jsonschema.ValidationError, ConfigError):
        return False
    return True


def new_accepts(raw) -> bool:
    try:
        config.parse_config(raw)
    except ConfigError:
        return False
    return True


def base(**overrides):
    raw = {
        "schema_version": 1,
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [0.5, 0.25]},
        "generators": [[1.0, 0.5]],
        "horizon": 2,
        "checks": ["orbit-bounds"],
    }
    raw.update(overrides)
    return raw


# (label, kind reads the field, config builder with the leaf in place)
FIELDS = [
    ("operator.values", True, lambda x: base(
        operator={"kind": "diagonal", "values": [0.5, x]})),
    ("operator.first_row", True, lambda x: base(
        operator={"kind": "circulant", "first_row": [0.5, x]})),
    ("operator.entries", True, lambda x: base(
        operator={"kind": "dense", "entries": [x, 0.0, 0.0, 0.5]})),
    ("generators", True, lambda x: base(generators=[[1.0, 0.5], [0.5, x]])),
    ("weights.value constant", True, lambda x: base(
        weights={"kind": "constant", "value": x})),
    ("weights.value geometric", True, lambda x: base(
        weights={"kind": "geometric", "value": x})),
    ("weights.values explicit", True, lambda x: base(
        weights={"kind": "explicit", "values": [1.0, x]})),
    ("operator.values on a shift", False, lambda x: base(
        operator={"kind": "nilpotent_shift", "dimension": 2, "values": [x]})),
    ("operator.first_row on a diagonal", False, lambda x: base(
        operator={"kind": "diagonal", "values": [0.5, 0.25],
                  "first_row": [x]})),
    ("operator.entries on a diagonal", False, lambda x: base(
        operator={"kind": "diagonal", "values": [0.5, 0.25], "entries": [x]})),
    ("operator.values on a block_diag", False, lambda x: base(
        operator={"kind": "block_diag", "values": [x], "blocks": [
            {"kind": "diagonal", "values": [0.5, 0.25]}]})),
    ("weights.value explicit", False, lambda x: base(
        weights={"kind": "explicit", "values": [1.0, 1.0], "value": x})),
    ("weights.values constant", False, lambda x: base(
        weights={"kind": "constant", "value": 1.0, "values": [x]})),
]

# Leaves with the same verdict under the old and the new rule; the numbers
# are nonzero and inside the unit disk so no other stage refuses them.
CORPUS = [
    2, 0.5, -0.25, np.float64(0.75), [0.5, -0.5], [1, 0], [np.float64(0.1), 2],
    True, False, "1", "abc", None, {}, {"re": 1.0}, [], [1], [1, 2, 3],
    ["1", 2], [True, 0], [0.5, False], [None, 1], [[1, 2], 3], [[1, 2]],
    [[0.5, 0.5], [0.5, 0.5]], (0.5, 0.5), 1j, 0.5 + 0.5j,
]

# Leaves the new rule refuses wherever they stand; the old contract let them
# through (non-finite values everywhere, complex objects where the kind
# ignored the field).
NOW_REFUSED = [
    math.nan, math.inf, -math.inf, np.float64("nan"), [math.nan, 0.0],
    [0.0, math.inf], [-math.inf, 1], 1j, 0.5 + 0.5j,
]


@pytest.mark.parametrize("label,read,build", FIELDS,
                         ids=[label for label, _, _ in FIELDS])
def test_acceptance_matches_old_schema_then_old_parse(label, read, build):
    for leaf in CORPUS:
        if not read and isinstance(leaf, complex):
            continue  # the one change besides non-finite values; see below
        assert new_accepts(build(leaf)) == old_accepts(leaf, read), leaf
    for leaf in NOW_REFUSED:
        assert not new_accepts(build(leaf)), leaf


@pytest.mark.parametrize("label,read,build", FIELDS,
                         ids=[label for label, _, _ in FIELDS])
def test_nothing_the_old_schema_refused_gets_through(label, read, build):
    for leaf in CORPUS + NOW_REFUSED:
        if not old_accepts(leaf, read=False):
            assert not new_accepts(build(leaf)), leaf


def test_parse_complex_rule():
    assert config.parse_complex(2) == 2 + 0j
    assert config.parse_complex(np.float64(0.5)) == 0.5 + 0j
    assert config.parse_complex([0.5, -1]) == 0.5 - 1j
    with pytest.raises(ConfigError, match="not finite"):
        config.parse_complex([0.0, math.nan])
    with pytest.raises(ConfigError, match="not finite"):
        config.parse_complex(10**400)  # beyond float64
    for leaf in (True, [1, True], (1, 2), [1j, 0], "2", [1, 2, 3]):
        with pytest.raises(ConfigError, match="cannot parse"):
            config.parse_complex(leaf)


def test_parse_complex_refuses_integers_that_float64_rounds():
    assert config.parse_complex(2**53) == complex(2**53)
    assert config.parse_complex([-(2**60), 3]) == complex(-(2**60), 3)
    assert config.parse_complex(np.int64(2**62)) == complex(2**62)
    for leaf in (2**53 + 1, -(2**53 + 1), np.int64(2**53 + 1),
                 [0.5, 2**63 - 1], 10**300):
        with pytest.raises(ConfigError, match="float64 cannot hold exactly"):
            config.parse_complex(leaf)
    with pytest.raises(ConfigError, match="tolerance 'default'"):
        config.parse_config(base(tolerances={"default": 2**53 + 1}))


@pytest.mark.parametrize("raw", [
    base(dimension="2"),
    base(horizon=0),
    base(operator={"kind": "nonesuch"}),
    base(generators=[]),
    base(generators=[0.5, 0.5]),
    base(weights={"kind": "explicit", "values": 1.0}),
    base(tolerances={"default": "abc"}),
    base(checks=[]),
    base(seed=-1),
    {"dimension": 2},
])
def test_schema_error_is_the_one_jsonschema_validate_picks(raw):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, config.CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        config.parse_config(raw)
    assert str(got.value) == (
        f"config does not match schema: {expected.value.message}")


def test_tolerances_must_be_finite_numbers():
    assert config.parse_config(base(tolerances={"default": 1e-9, "kernel": 1})
                               ).tolerances == {"default": 1e-9, "kernel": 1}
    for value in ("abc", True, None, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tolerance|schema"):
            config.parse_config(base(tolerances={"default": value}))


# ---------------------------------------------------------------------------
# the schemas, and the report self-check on every write
# ---------------------------------------------------------------------------

def test_schemas_match_the_meta_schema():
    jsonschema.Draft202012Validator.check_schema(config.CONFIG_SCHEMA)
    jsonschema.Draft202012Validator.check_schema(report.REPORT_SCHEMA)
    for _, params_schema in checks.REGISTRY.values():
        jsonschema.Draft202012Validator.check_schema(params_schema)


def dense_config(d: int, rng) -> dict:
    entries = 0.5 / d * rng.standard_normal((d * d, 2))
    return {
        "schema_version": 1,
        "dimension": d,
        "operator": {"kind": "dense", "entries": entries.tolist()},
        "generators": [rng.standard_normal(d).tolist()],
        "horizon": 2,
        "checks": ["orbit-bounds"],
    }


def test_validation_does_not_recheck_the_schemas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("schema meta-check on the hot path")

    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                        refuse)
    cfg = config.parse_config(dense_config(128, np.random.default_rng(3)))
    assert cfg.operator.shape == (128, 128)
    rep = checks.run_experiment(cfg)
    payload = json.loads(rep.to_json())
    report.validate_report(payload)
    del payload["payload_hash"]
    with pytest.raises(config.SchemaError, match="payload_hash"):
        report.validate_report(payload)


def test_hashes_of_built_payloads_match_fresh_ones():
    cfg = config.parse_config(base(checks=["orbit-bounds", "stein"]))
    rep = checks.run_experiment(cfg)
    payload = json.loads(rep.to_json())
    assert payload["payload_hash"] == rep.payload_hash()
    assert payload["metadata"]["config_hash"] == config.config_hash(cfg)
    # hashing a built payload leaves it as it was
    built = rep.to_dict()
    rep.payload_hash(built)
    assert all("wall_time" in check for check in built["checks"])


# ---------------------------------------------------------------------------
# command line: malformed values exit 1 with one line
# ---------------------------------------------------------------------------

def run_cli(tmp_path, capsys, raw, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw, allow_nan=True))
    code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r.json"),
                     *extra])
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("raw,named", [
    (base(generators=[[math.nan, 1.0]]), "nan"),
    (base(operator={"kind": "dense", "entries": [0.5, 0.0, math.inf, 0.5]}),
     "inf"),
    (base(operator={"kind": "dense", "entries": [0.5, [0.0, -math.inf],
                                                 0.0, 0.5]}), "-inf"),
    (base(weights={"kind": "geometric", "value": [0.5, math.nan]}), "nan"),
])
def test_cli_refuses_non_finite_scalars(tmp_path, capsys, raw, named):
    code, err = run_cli(tmp_path, capsys, raw)
    assert code == 1
    assert len(err) == 1 and "not finite" in err[0] and named in err[0]


@pytest.mark.parametrize("tolerances", [{"default": "abc"},
                                        {"default": math.inf},
                                        {"kernel": math.nan}])
def test_cli_refuses_bad_tolerances(tmp_path, capsys, tolerances):
    code, err = run_cli(tmp_path, capsys, base(tolerances=tolerances))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_refuses_a_misspelt_tolerance(tmp_path, capsys):
    code, err = run_cli(tmp_path, capsys, base(
        checks=["representation"], tolerances={"representaton": 1.0}))
    assert code == 1
    assert err == ["error: config does not match schema: Additional "
                   "properties are not allowed ('representaton' was "
                   "unexpected)"]
    assert not (tmp_path / "r.json").exists()


def test_every_tolerance_a_check_reads_is_in_the_table():
    # run.tol(key) falls back to TOLERANCES[key]: each key a check passes
    # is a string literal, and the table holds exactly those keys
    tree = ast.parse(Path(checks.__file__).read_text())
    keys = [node.args[0] for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "tol"]
    assert all(isinstance(k, ast.Constant) for k in keys)
    assert {k.value for k in keys} == set(config.TOLERANCES)


# an operator spec whose dimension disagrees: exit 1, one line naming it
# (tests/test_cli.py has the other faults, in nested blocks and params)
@pytest.mark.parametrize("spec,message", [
    ({"kind": "circulant", "first_row": [0.5, 0.25, 0.0]},
     "operator dimension 3 does not match configured 2"),
    ({"kind": "diagonal", "dimension": 7, "values": [0.5, 0.1]},
     "diagonal operator dimension 7 does not match its data, of dimension 2"),
    ({"kind": "block_diag", "dimension": 3, "blocks": [
        {"kind": "diagonal", "values": [0.5, 0.1]}]},
     "block_diag operator dimension 3 does not match its data, "
     "of dimension 2"),
])
def test_cli_refuses_an_operator_whose_dimension_disagrees(tmp_path, capsys,
                                                           spec, message):
    code, err = run_cli(tmp_path, capsys, base(operator=spec))
    assert code == 1 and err == [f"error: {message}"]


def test_a_block_diag_names_its_first_faulty_block_first():
    # each block is parsed whole before the next: the first block's missing
    # field is named, not the later block's non-finite scalar
    raw = base(operator={"kind": "block_diag", "blocks": [
        {"kind": "diagonal"}, {"kind": "diagonal", "values": [math.nan]}]})
    with pytest.raises(ConfigError) as exc:
        config.parse_config(raw)
    assert str(exc.value) == "diagonal operator needs 'values'"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_cli_refuses_non_finite_tol_flag(tmp_path, capsys, tol):
    code, err = run_cli(tmp_path, capsys, base(), f"--tol={tol}")
    assert code == 1
    assert len(err) == 1 and "tolerance 'default'" in err[0]


@pytest.mark.parametrize("raw", [
    base(generators=[[2**53 + 1, 0.5]]),
    base(operator={"kind": "dense",
                   "entries": [0.5, 0.0, [0.0, -(2**53 + 1)], 0.5]}),
    base(weights={"kind": "explicit", "values": [1.0, 2**53 + 1]}),
])
def test_cli_refuses_integers_that_float64_rounds(tmp_path, capsys, raw):
    code, err = run_cli(tmp_path, capsys, raw)
    assert code == 1
    assert len(err) == 1 and "9007199254740993" in err[0] \
        and "float64 cannot hold exactly" in err[0]


# ---------------------------------------------------------------------------
# bulk scalar arrays: the same refusals, the same echo, the same operator
# ---------------------------------------------------------------------------

def dense_d128(bad=None, at=16000):
    """A d = 128 dense config, all float pairs, with ``bad`` at ``entries[at]``."""
    rng = np.random.default_rng(128)
    t = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    entries = [[z.real, z.imag] for z in t.reshape(-1) / 300.0]
    # signed zeros and subnormals
    entries[:3] = [[-0.0, 0.0], [5e-324, -0.0], [-0.0, 1e-310]]
    if bad is not None:
        entries[at] = bad
    g = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    return {"schema_version": 1, "dimension": 128, "horizon": 512,
            "operator": {"kind": "dense", "entries": entries},
            "generators": [[[z.real, z.imag] for z in g]],
            "checks": ["orbit-bounds"]}


@pytest.mark.parametrize("bad,message", [
    ([True, 0.0], "cannot parse complex scalar from [True, 0.0]"),
    ([2**53 + 1, 0.0], "complex scalar [9007199254740993, 0.0] is an "
                       "integer that float64 cannot hold exactly"),
    (json.loads("[Infinity, 0.0]"), "complex scalar [inf, 0.0] is not finite"),
    ([0.0, math.nan], "complex scalar [0.0, nan] is not finite"),
    ([0.5], "cannot parse complex scalar from [0.5]"),
    ([0.5, 0.0, 0.0], "cannot parse complex scalar from [0.5, 0.0, 0.0]"),
    ("x", "cannot parse complex scalar from 'x'"),
])
def test_a_bad_scalar_deep_in_a_bulk_array_keeps_its_message(bad, message):
    with pytest.raises(ConfigError) as exc:
        config.parse_config(dense_d128(bad))
    assert str(exc.value) == message
    raw = dense_d128()
    raw["generators"][0][100] = bad
    with pytest.raises(ConfigError) as exc:
        config.parse_config(raw)
    assert str(exc.value) == message


def test_bulk_scalars_equal_per_scalar_parsing():
    raw = dense_d128()
    cfg = config.parse_config(raw)
    for got, items in ((cfg.operator.reshape(-1), raw["operator"]["entries"]),
                       (cfg.generators[0], raw["generators"][0])):
        old = np.array([config.parse_complex(v) for v in items])
        assert got.dtype == complex and got.shape == old.shape
        # bit for bit, signed zeros and subnormals included
        assert got.tobytes() == old.tobytes()
    assert [math.copysign(1.0, z.real) for z in cfg.operator.reshape(-1)[:3]] \
        == [-1.0, 1.0, -1.0]


def per_scalar_echo(raw, cfg):
    """``config_to_dict`` as it was: one ``parse_complex`` and one
    ``encode_complex`` per scalar of the raw operator and generators."""
    def scalars(items):
        return [config.encode_complex(config.parse_complex(v)) for v in items]

    def operator(spec):
        out = {"kind": spec["kind"]}
        if spec["kind"] == "block_diag":
            out["blocks"] = [operator(b) for b in spec["blocks"]]
            return out
        if "dimension" in spec:
            out["dimension"] = spec["dimension"]
        for key in ("values", "first_row", "entries"):
            if key in spec:
                out[key] = scalars(spec[key])
        return out

    out = {
        "schema_version": config.SCHEMA_VERSION,
        "dimension": raw["dimension"],
        "operator": operator(raw["operator"]),
        "generators": [scalars(g) for g in raw["generators"]],
        "horizon": raw["horizon"],
        "checks": list(raw["checks"]),
        "tolerances": dict(cfg.tolerances),
        "seed": cfg.seed,
        "params": cfg.params,
    }
    if cfg.weights is not None:
        w = {"kind": cfg.weights.kind}
        if cfg.weights.value is not None:
            w["value"] = config.encode_complex(cfg.weights.value)
        if cfg.weights.values is not None:
            w["values"] = [config.encode_complex(v) for v in cfg.weights.values]
        out["weights"] = w
    return out


@pytest.mark.parametrize("raw", [
    dense_d128(),
    base(operator={"kind": "circulant", "first_row": [0.5, [0.0, -0.0]]},
         weights={"kind": "explicit", "values": [1.0, [0.5, 2.0]]}),
    base(operator={"kind": "block_diag", "blocks": [
        {"kind": "diagonal", "values": [[0.5, -0.0]]},
        {"kind": "nilpotent_shift", "dimension": 1}]},
        weights={"kind": "geometric", "value": 0.9}),
    base(generators=[[1, [0.5, 1e-310]], [[0.25, 0.0], [-0.0, 0.0]]]),
    # fields the kind ignores, and a non-block dimension, are echoed
    base(operator={"kind": "diagonal", "dimension": 2,
                   "values": [0.5, [0.25, -0.0]], "first_row": [1, [0.5, 1e-310]],
                   "entries": [[-0.0, 0.0]]}),
    base(operator={"kind": "nilpotent_shift", "dimension": 2,
                   "values": [[0.5, 1.0], 2]}),
    # a nested block_diag echoes only kinds and blocks at each level
    base(dimension=3, generators=[[1.0, 0.5, 0.25]], operator={
        "kind": "block_diag", "dimension": 3, "values": [0.5], "blocks": [
            {"kind": "block_diag", "entries": [[0.5, -0.0]], "blocks": [
                {"kind": "circulant", "first_row": [0.5, [0.0, 0.25]]}]},
            {"kind": "dense", "dimension": 1, "entries": [[0.25, -0.0]],
             "values": [1, 2, 3]}]}),
])
def test_the_echo_and_config_hash_equal_the_per_scalar_encoders(raw):
    cfg = config.parse_config(raw)
    echo = config.canonical_json(config.config_to_dict(cfg))
    old = config.canonical_json(per_scalar_echo(raw, cfg))
    assert echo == old
    assert config.config_hash(cfg) == hashlib.sha256(old.encode()).hexdigest()


@pytest.mark.parametrize("d", [1, 2, 7, 128])
def test_the_circulant_is_the_stack_of_rolled_rows(d):
    rng = np.random.default_rng(d)
    row = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    t, echo = config.parse_operator(
        {"kind": "circulant", "first_row": config.encode_scalars(row)})
    old = np.stack([np.roll(row, k) for k in range(d)], axis=0)
    assert t.tobytes() == old.tobytes()
    assert echo == {"kind": "circulant", "first_row": config.encode_scalars(row)}


# ---------------------------------------------------------------------------
# integral floats: the schema takes 2.0 for an integer, so the run does too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw", [
    base(dimension=2.0, checks=["stein"]),
    base(horizon=4.0),
    base(dimension=3, generators=[[1.0, 0.0, 0.0]],
         operator={"kind": "nilpotent_shift", "dimension": 3.0}),
    base(checks=["surjectivity"],
         params={"surjectivity": {"witness_horizon": 3.0}}),
], ids=["dimension", "horizon", "nilpotent_shift dimension",
        "witness_horizon"])
def test_cli_runs_a_config_with_an_integral_float_count(tmp_path, capsys, raw):
    code, err = run_cli(tmp_path, capsys, raw)
    assert (code, err) == (0, [])


@pytest.mark.parametrize("raw,digest", [
    (base(dimension=2.0),
     "3905db771b3c1ea7d98e74d7d5fdb3d7acbb1ea6ea7a32e72f6d3295390bab41"),
    (base(horizon=4.0, checks=["stein"]),
     "f8148ca5040952f130cea48b69bf16b6d38526dc6fa22e62e6681461c256b741"),
    (base(operator={"kind": "diagonal", "dimension": 2.0,
                    "values": [0.5, 0.25]}),
     "e14f2ad8acaab67107d127ae82ac7cc1f7e07db71a7e0b44cbb1fc9ebd3f74b3"),
])
def test_integral_floats_are_echoed_as_given(raw, digest):
    # configs that ran before integral floats were converted keep their hash
    cfg = config.parse_config(raw)
    assert checks.run_experiment(cfg).passed
    assert config.config_hash(cfg) == digest
