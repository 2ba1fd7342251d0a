"""The config and report schemas and the scalar rule.

The config schema states structure only; ``config.parse_complex`` owns the
rule for complex scalars.  The oracle below is the earlier contract: every
scalar leaf had to match a two-branch ``oneOf`` schema, and then the fields a
kind reads went through the earlier ``parse_complex``.
"""

import json
import math

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
    assert config.parse_config(base(tolerances={"default": 1e-9, "rank": 1})
                               ).tolerances == {"default": 1e-9, "rank": 1}
    for value in ("abc", True, None, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tolerance|schema"):
            config.parse_config(base(tolerances={"default": value}))


# ---------------------------------------------------------------------------
# compiled validators
# ---------------------------------------------------------------------------

def test_schemas_match_the_meta_schema():
    jsonschema.Draft202012Validator.check_schema(config.CONFIG_SCHEMA)
    jsonschema.Draft202012Validator.check_schema(report.REPORT_SCHEMA)


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
    assert cfg.operator_array().shape == (128, 128)
    rep = checks.run_experiment(cfg)
    payload = json.loads(rep.to_json())
    report.validate_report(payload)
    del payload["payload_hash"]
    with pytest.raises(jsonschema.ValidationError, match="payload_hash"):
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
                                        {"rank": math.nan}])
def test_cli_refuses_bad_tolerances(tmp_path, capsys, tolerances):
    code, err = run_cli(tmp_path, capsys, base(tolerances=tolerances))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")


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
