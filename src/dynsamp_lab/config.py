"""Declarative experiment configuration.

Configs are versioned JSON documents; complex scalars serialize as
two-element ``[re, im]`` arrays (plain numbers are accepted on input).
The schema states the structure and is compiled once, at import;
``parse_complex`` alone owns the scalar rule and walks every scalar leaf.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .dynsamp import WeightSpec, nilpotent_shift
from .errors import InvalidInput

SCHEMA_VERSION = 1

_OPERATOR_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["diagonal", "nilpotent_shift", "circulant",
                          "dense", "block_diag"]},
        "dimension": {"type": "integer", "minimum": 1},
        "values": {"type": "array"},
        "first_row": {"type": "array"},
        "entries": {"type": "array"},
        "blocks": {"type": "array"},
    },
    "required": ["kind"],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"type": "integer"},
        "dimension": {"type": "integer", "minimum": 1},
        "operator": _OPERATOR_SPEC,
        "generators": {
            "type": "array",
            "items": {"type": "array"},
            "minItems": 1,
        },
        "weights": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["constant", "geometric", "explicit"]},
                "value": {"type": ["number", "array"]},
                "values": {"type": "array"},
            },
            "required": ["kind"],
        },
        "horizon": {"type": "integer", "minimum": 1},
        "checks": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
    },
    "required": ["dimension", "operator", "generators", "horizon", "checks"],
}

_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


class ConfigError(InvalidInput):
    """Configuration failed to parse or validate (CLI exit code 1)."""


def _real(x, value) -> float:
    """``x`` as a finite float, refusing integers that float64 would round;
    ``value`` is the scalar named on refusal."""
    if type(x) is not float and (isinstance(x, bool)
                                 or not isinstance(x, numbers.Real)):
        raise ConfigError(f"cannot parse complex scalar from {value!r}")
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ConfigError(f"complex scalar {value!r} is not finite")
    if isinstance(x, numbers.Integral) and int(f) != x:
        raise ConfigError(f"complex scalar {value!r} is an integer that "
                          f"float64 cannot hold exactly")
    return f


def parse_complex(value) -> complex:
    """A finite real number, or ``[re, im]`` of finite real numbers.

    Booleans are not numbers, and an integer must be one that float64
    holds exactly (``2**53 + 1`` is refused, not rounded).  This is the
    only check on scalar leaves: the schema leaves them to it.
    """
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"cannot parse complex scalar from {value!r}")
        return complex(_real(value[0], value), _real(value[1], value))
    return complex(_real(value, value))


def parse_tolerances(raw: dict) -> dict:
    """Tolerance overrides by name; every value a finite real number."""
    for name, value in raw.items():
        try:
            _real(value, value)
        except ConfigError:
            raise ConfigError(f"tolerance {name!r} must be a finite number "
                              f"that float64 holds, got {value!r}") from None
    return dict(raw)


def encode_complex(value: complex) -> list[float]:
    z = complex(value)
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    dimension: int | None = None
    values: tuple[complex, ...] | None = None
    first_row: tuple[complex, ...] | None = None
    entries: tuple[complex, ...] | None = None
    blocks: tuple["OperatorSpec", ...] | None = None


def _parse_scalars(raw: dict, key: str) -> tuple[complex, ...] | None:
    return tuple(map(parse_complex, raw[key])) if key in raw else None


def parse_operator_spec(raw: dict) -> OperatorSpec:
    kind = raw.get("kind")
    # the schema does not look at scalar leaves, so every scalar field is
    # parsed here, also the ones this kind ignores
    values, first_row, entries = (
        _parse_scalars(raw, key) for key in ("values", "first_row", "entries"))
    if kind == "block_diag":
        blocks = tuple(parse_operator_spec(b) for b in raw.get("blocks", ()))
        if not blocks:
            raise ConfigError("block_diag operator needs at least one block")
        return OperatorSpec(kind=kind, blocks=blocks,
                            dimension=raw.get("dimension"))
    return OperatorSpec(kind=kind, dimension=raw.get("dimension"),
                        values=values, first_row=first_row, entries=entries)


def operator_dimension(spec: OperatorSpec) -> int:
    if spec.kind == "diagonal":
        if not spec.values:
            raise ConfigError("diagonal operator needs 'values'")
        return len(spec.values)
    if spec.kind == "nilpotent_shift":
        if not spec.dimension:
            raise ConfigError("nilpotent_shift operator needs 'dimension'")
        return spec.dimension
    if spec.kind == "circulant":
        if not spec.first_row:
            raise ConfigError("circulant operator needs 'first_row'")
        return len(spec.first_row)
    if spec.kind == "dense":
        if not spec.entries:
            raise ConfigError("dense operator needs row-major 'entries'")
        n = len(spec.entries)
        d = int(round(n**0.5))
        if d * d != n:
            raise ConfigError(f"dense entries length {n} is not a perfect square")
        return d
    if spec.kind == "block_diag":
        return sum(operator_dimension(b) for b in spec.blocks)
    raise ConfigError(f"unknown operator kind {spec.kind!r}")


def build_operator(spec: OperatorSpec) -> np.ndarray:
    d = operator_dimension(spec)
    if spec.kind == "diagonal":
        return np.diag(np.array(spec.values, dtype=complex))
    if spec.kind == "nilpotent_shift":
        return nilpotent_shift(d)
    if spec.kind == "circulant":
        row = np.array(spec.first_row, dtype=complex)
        return np.stack([np.roll(row, k) for k in range(d)], axis=0)
    if spec.kind == "dense":
        return np.array(spec.entries, dtype=complex).reshape(d, d)
    if spec.kind == "block_diag":
        out = np.zeros((d, d), dtype=complex)
        at = 0
        for block in spec.blocks:
            bd = operator_dimension(block)
            out[at:at + bd, at:at + bd] = build_operator(block)
            at += bd
        return out
    raise ConfigError(f"unknown operator kind {spec.kind!r}")


def operator_spec_to_dict(spec: OperatorSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.kind == "block_diag":
        out["blocks"] = [operator_spec_to_dict(b) for b in spec.blocks]
        return out
    if spec.dimension is not None:
        out["dimension"] = spec.dimension
    if spec.values is not None:
        out["values"] = [encode_complex(v) for v in spec.values]
    if spec.first_row is not None:
        out["first_row"] = [encode_complex(v) for v in spec.first_row]
    if spec.entries is not None:
        out["entries"] = [encode_complex(v) for v in spec.entries]
    return out


def parse_weight_spec(raw: dict | None) -> WeightSpec | None:
    if raw is None:
        return None
    kind = raw.get("kind")
    # parsed even where the kind ignores it; see parse_operator_spec
    value = parse_complex(raw["value"]) if "value" in raw else None
    values = [parse_complex(v) for v in raw.get("values", ())]
    try:
        if kind == "constant":
            return WeightSpec.constant(1.0 if value is None else value)
        if kind == "geometric":
            if value is None:
                raise ConfigError("geometric weights need 'value'")
            return WeightSpec.geometric(value)
        if kind == "explicit":
            if not values:
                raise ConfigError("explicit weights need 'values'")
            if any(abs(v) == 0.0 for v in values):
                raise ConfigError("weights must be nonzero scalars")
            return WeightSpec.explicit(values)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown weight kind {kind!r}")


def weight_spec_to_dict(spec: WeightSpec | None) -> dict | None:
    if spec is None:
        return None
    out: dict = {"kind": spec.kind}
    if spec.value is not None:
        out["value"] = encode_complex(spec.value)
    if spec.values is not None:
        out["values"] = [encode_complex(v) for v in spec.values]
    return out


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    dimension: int
    operator: OperatorSpec
    generators: tuple[tuple[complex, ...], ...]
    horizon: int
    checks: tuple[str, ...]
    weights: WeightSpec | None = None
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    params: dict = field(default_factory=dict)

    def generator_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(g, dtype=complex) for g in self.generators)

    def operator_array(self) -> np.ndarray:
        return build_operator(self.operator)


def parse_config(raw: dict, known_checks=None) -> ExperimentConfig:
    err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if err is not None:
        raise ConfigError(f"config does not match schema: {err.message}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    operator = parse_operator_spec(raw["operator"])
    dim = raw["dimension"]
    op_dim = operator_dimension(operator)
    if op_dim != dim:
        raise ConfigError(
            f"operator dimension {op_dim} does not match configured {dim}"
        )
    generators = tuple(tuple(map(parse_complex, g)) for g in raw["generators"])
    for g in generators:
        if len(g) != dim:
            raise ConfigError(f"generator length {len(g)} != dimension {dim}")
    weights = parse_weight_spec(raw.get("weights"))
    checks = tuple(raw["checks"])
    if known_checks is not None:
        for name in checks:
            base = name.split(":", 1)[0]
            if base not in known_checks:
                raise ConfigError(f"unknown check {name!r}")
    return ExperimentConfig(
        dimension=dim,
        operator=operator,
        generators=generators,
        horizon=raw["horizon"],
        checks=checks,
        weights=weights,
        tolerances=parse_tolerances(raw.get("tolerances", {})),
        seed=int(raw.get("seed", 0)),
        params=dict(raw.get("params", {})),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict echo; re-parsing yields an equivalent config."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "dimension": cfg.dimension,
        "operator": operator_spec_to_dict(cfg.operator),
        "generators": [[encode_complex(v) for v in g] for g in cfg.generators],
        "horizon": cfg.horizon,
        "checks": list(cfg.checks),
        "tolerances": dict(cfg.tolerances),
        "seed": cfg.seed,
        "params": cfg.params,
    }
    w = weight_spec_to_dict(cfg.weights)
    if w is not None:
        out["weights"] = w
    return out


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig, echo: dict | None = None) -> str:
    """sha256 of the canonical echo; pass ``echo`` if it is already built."""
    if echo is None:
        echo = config_to_dict(cfg)
    return hashlib.sha256(canonical_json(echo).encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)
