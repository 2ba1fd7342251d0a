"""Declarative experiment configuration.

Configs are versioned JSON documents; complex scalars serialize as
two-element ``[re, im]`` arrays (plain numbers are accepted on input).
The schemas (this one, the report's and each check's params) are plain
dicts that state the structure; ``schema_error`` checks an instance against
one of them, covering exactly the JSON Schema keywords they use.
``parse_complex`` alone owns the scalar rule, and ``parse_scalars`` applies
it to every leaf of a scalar array (in bulk when all are float pairs) and
returns a float64 array when no leaf has an imaginary part, else a complex
one.  ``parse_operator`` is the one place that knows
the operator kinds: it turns a spec, at any nesting depth, into its matrix
and its echo.  A loaded ``ExperimentConfig`` holds the operator and the
generators as read-only arrays, built once.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynsamp import WeightSpec, nilpotent_shift
from .errors import InvalidInput

SCHEMA_VERSION = 1

# tolerance name -> its default; the checks read no others.  A config's
# ``tolerances`` overrides them by name, and its "default" overrides every
# name it does not set
TOLERANCES = {
    "bessel": 1e-10,
    "stein": 1e-12,
    "stein_brute": 1e-10,
    "surjectivity": 1e-8,
    "periodic": 1e-10,
    "kernel": 1e-8,
    "representation": 1e-8,
    "repro": 1e-12,
}

# block_diag blocks are operator specs in turn: validated at every level
OPERATOR_DEFS = {
    "operator": {
        "type": "object",
        "properties": {
            "kind": {"enum": ["diagonal", "nilpotent_shift", "circulant",
                              "dense", "block_diag"]},
            "dimension": {"type": "integer", "minimum": 1},
            "values": {"type": "array"},
            "first_row": {"type": "array"},
            "entries": {"type": "array"},
            "blocks": {"type": "array",
                       "items": {"$ref": "#/$defs/operator"}},
        },
        "required": ["kind"],
    },
}
OPERATOR_SPEC = {"$ref": "#/$defs/operator"}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": OPERATOR_DEFS,
    "type": "object",
    "properties": {
        "schema_version": {"type": "integer"},
        "dimension": {"type": "integer", "minimum": 1},
        "operator": OPERATOR_SPEC,
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
        "tolerances": {
            "type": "object",
            "properties": {name: {"type": "number"}
                           for name in ("default", *TOLERANCES)},
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        "params": {"type": "object"},
    },
    "required": ["dimension", "operator", "generators", "horizon", "checks"],
}


def params_schema(properties: dict, required=()) -> dict:
    """Schema of one ``params[<check>]`` block: these keys and no others."""
    return {"$defs": OPERATOR_DEFS, "type": "object",
            "properties": properties, "required": list(required),
            "additionalProperties": False}


class ConfigError(InvalidInput):
    """Configuration failed to parse or validate (CLI exit code 1)."""


# ---------------------------------------------------------------------------
# schema validation: the JSON Schema 2020-12 keywords the schemas use
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    """An instance that does not match its schema: ``message`` and
    ``json_path`` as ``jsonschema`` states them."""

    def __init__(self, message: str, path: tuple):
        super().__init__(message)
        self.message = message
        self.path = path

    @property
    def json_path(self) -> str:
        """Every key a schema names is an identifier, so none is quoted."""
        return "$" + "".join(f"[{elem}]" if isinstance(elem, int)
                             else f".{elem}" for elem in self.path)


def _is_type(instance, name: str) -> bool:
    """JSON Schema's types; an integral float is an integer, a bool is not."""
    if name == "object":
        return isinstance(instance, dict)
    if name == "array":
        return isinstance(instance, list)
    if name == "string":
        return isinstance(instance, str)
    if name == "boolean":
        return isinstance(instance, bool)
    if name == "null":
        return instance is None
    if isinstance(instance, bool):
        return False
    if name == "integer":
        return isinstance(instance, int) or (isinstance(instance, float)
                                             and instance.is_integer())
    if name == "number":
        return isinstance(instance, numbers.Number)
    raise ValueError(f"unknown schema type {name!r}")


def _errors(instance, schema: dict, root: dict, path: tuple) -> list:
    """Every error of ``instance`` against ``schema``, in ``jsonschema``'s
    order, as (path, message)."""
    found = []
    for key, value in schema.items():
        if key == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_is_type(instance, name) for name in names):
                found.append((path, f"{instance!r} is not of type "
                                    f"{', '.join(map(repr, names))}"))
        elif key == "enum":  # every enum is a list of strings
            if instance not in value:
                found.append((path, f"{instance!r} is not one of {value!r}"))
        elif key == "minimum":
            if _is_type(instance, "number") and instance < value:
                found.append((path, f"{instance!r} is less than the minimum "
                                    f"of {value!r}"))
        elif key == "maximum":
            if _is_type(instance, "number") and instance > value:
                found.append((path, f"{instance!r} is greater than the "
                                    f"maximum of {value!r}"))
        elif key == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                found.append((path, f"{instance!r} " + (
                    "should be non-empty" if value == 1 else "is too short")))
        elif key == "required":
            if isinstance(instance, dict):
                found += [(path, f"{name!r} is a required property")
                          for name in value if name not in instance]
        elif key == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        found += _errors(instance[name], sub, root,
                                         path + (name,))
        elif key == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                known = schema.get("properties", {})
                extras = [name for name in instance if name not in known]
                if extras:
                    names = ", ".join(map(repr, sorted(extras, key=str)))
                    verb = "was" if len(extras) == 1 else "were"
                    found.append((path, "Additional properties are not "
                                  f"allowed ({names} {verb} unexpected)"))
        elif key == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    found += _errors(item, value, root, path + (index,))
        elif key == "$ref" and len(schema) == 1:
            name = value.removeprefix("#/$defs/")
            found += _errors(instance, root["$defs"][name], root, path)
        elif key not in ("$schema", "$defs"):
            raise ValueError(f"schema keyword {key!r} is not supported")
    return found


def schema_error(instance, schema: dict) -> SchemaError | None:
    """The error of ``instance`` against ``schema`` that
    ``jsonschema.exceptions.best_match`` picks, or ``None`` if it matches:
    the first of the errors nearest the root with the greatest path.

    ``best_match`` also prefers, at one path, an error whose schema names a
    type the instance lacks.  Here every error at one path comes from one
    schema (a ``$ref`` stands alone in its schema), so that rule never
    decides.
    """
    errors = _errors(instance, schema, schema, ())
    if not errors:
        return None
    path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
    return SchemaError(message, path)


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


def parse_scalars(items) -> np.ndarray:
    """``parse_complex`` of every item, as a float64 array when every
    imaginary part is +0.0 and as a complex one otherwise (a -0.0 one
    counts, so the echo keeps its sign).  A list whose every item is a pair
    of ``float`` is parsed in bulk, by one type scan, one array and one
    finiteness test; anything else, or a value that is not finite, goes
    through ``parse_complex`` item by item, with its refusal message."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        flat = list(chain.from_iterable(items))
        if set(map(type, flat)) <= {float}:
            parts = np.array(flat, dtype=float)
            if np.isfinite(parts).all():
                return _real_if_real(parts.view(complex))
    return _real_if_real(np.array(list(map(parse_complex, items)),
                                  dtype=complex))


def _real_if_real(z: np.ndarray) -> np.ndarray:
    if z.imag.any() or np.signbit(z.imag).any():
        return z
    return z.real.copy()


def encode_scalars(values) -> list[list[float]]:
    """``encode_complex`` of every value, from one array."""
    return np.asarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def parse_operator(raw: dict) -> tuple[np.ndarray, dict]:
    """A schema-valid operator spec as its read-only matrix and its echo.

    Every scalar field is parsed, also the ones the kind ignores (the
    schema does not look at scalar leaves).  A ``block_diag`` is assembled
    from its blocks' matrices and echoes only its kind and blocks; any
    other kind echoes its ``dimension`` and scalar fields as given.  A
    ``dimension`` that disagrees with the data is refused.
    """
    kind = raw["kind"]
    scalars = {key: parse_scalars(raw[key])
               for key in ("values", "first_row", "entries") if key in raw}

    def data(key: str, what: str) -> np.ndarray:
        if key not in scalars or not len(scalars[key]):
            raise ConfigError(f"{kind} operator needs {what}")
        return scalars[key]

    echo = {"kind": kind}
    if kind == "block_diag":
        blocks = [parse_operator(b) for b in raw.get("blocks", ())]
        if not blocks:
            raise ConfigError("block_diag operator needs at least one block")
        d = sum(len(m) for m, _ in blocks)
        t = np.zeros((d, d), dtype=np.result_type(*(m for m, _ in blocks)))
        at = 0
        for m, _ in blocks:
            t[at:at + len(m), at:at + len(m)] = m
            at += len(m)
        echo["blocks"] = [block_echo for _, block_echo in blocks]
    else:
        if kind == "diagonal":
            t = np.diag(data("values", "'values'"))
        elif kind == "nilpotent_shift":
            if "dimension" not in raw:
                raise ConfigError("nilpotent_shift operator needs 'dimension'")
            t = nilpotent_shift(int(raw["dimension"]))
        elif kind == "circulant":
            # row k is the first row rolled by k: entry (k, j) is row[j - k]
            row = data("first_row", "'first_row'")
            k = np.arange(len(row))
            t = row[(k[None, :] - k[:, None]) % len(row)]
        else:  # dense; the schema refuses any other kind
            entries = data("entries", "row-major 'entries'")
            n = len(entries)
            d = int(round(n**0.5))
            if d * d != n:
                raise ConfigError(
                    f"dense entries length {n} is not a perfect square")
            t = entries.reshape(d, d)
        if "dimension" in raw:
            echo["dimension"] = raw["dimension"]
        echo.update((key, encode_scalars(a)) for key, a in scalars.items())
    if raw.get("dimension", len(t)) != len(t):
        raise ConfigError(f"{kind} operator dimension {raw['dimension']} "
                          f"does not match its data, of dimension {len(t)}")
    return _read_only(t), echo


def parse_weight_spec(raw: dict | None) -> WeightSpec | None:
    if raw is None:
        return None
    kind = raw.get("kind")
    # parsed even where the kind ignores it; see parse_operator
    value = parse_complex(raw["value"]) if "value" in raw else None
    values = parse_scalars(raw.get("values", []))
    try:
        if kind == "constant":
            return WeightSpec.constant(1.0 if value is None else value)
        if kind == "geometric":
            if value is None:
                raise ConfigError("geometric weights need 'value'")
            return WeightSpec.geometric(value)
        if kind == "explicit":
            if not len(values):
                raise ConfigError("explicit weights need 'values'")
            if (values == 0).any():
                raise ConfigError("weights must be nonzero scalars")
            return WeightSpec.explicit(_read_only(values))
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
        out["values"] = encode_scalars(spec.values)
    return out


class ExperimentConfig(NamedTuple):
    # dimension and horizon hold the value as given, which the echo and
    # the hash read; the schema takes an integral float (2.0) for an
    # integer, so code that counts with them converts it with int().
    # parse_config sets every field: no default is shared between configs
    dimension: int
    operator: np.ndarray  # read-only, built once at load
    operator_echo: dict  # the operator spec as config_to_dict writes it
    generators: tuple[np.ndarray, ...]  # read-only
    horizon: int
    checks: tuple[str, ...]
    weights: WeightSpec | None
    tolerances: dict
    seed: int
    params: dict


def parse_config(raw: dict) -> ExperimentConfig:
    err = schema_error(raw, CONFIG_SCHEMA)
    if err is not None:
        raise ConfigError(f"config does not match schema: {err.message}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    operator, operator_echo = parse_operator(raw["operator"])
    dim = raw["dimension"]
    if len(operator) != dim:
        raise ConfigError(
            f"operator dimension {len(operator)} does not match configured {dim}"
        )
    generators = tuple(_read_only(parse_scalars(g)) for g in raw["generators"])
    for g in generators:
        if len(g) != dim:
            raise ConfigError(f"generator length {len(g)} != dimension {dim}")
    horizon = int(raw["horizon"])
    if int(dim) * len(generators) * horizon * 16 > np.iinfo(np.intp).max:
        raise ConfigError(
            f"horizon {raw['horizon']} is too long: an orbit of {dim} x "
            f"{len(generators)} x {horizon} complex entries is larger than "
            "any array can be")
    weights = parse_weight_spec(raw.get("weights"))
    if weights is not None:
        try:
            weights.sequence(horizon)
        except InvalidInput as exc:
            raise ConfigError(f"weights: {exc}") from None
    checks = tuple(raw["checks"])
    return ExperimentConfig(
        dimension=dim,
        operator=operator,
        operator_echo=operator_echo,
        generators=generators,
        horizon=raw["horizon"],
        checks=checks,
        weights=weights,
        tolerances=parse_tolerances(raw.get("tolerances", {})),
        seed=int(raw.get("seed", 0)),
        params=dict(raw.get("params", {})),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict echo; re-parsing yields an equivalent config.  The
    operator echo is the config's own, shared by every echo: not mutated."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "dimension": cfg.dimension,
        "operator": cfg.operator_echo,
        "generators": [encode_scalars(g) for g in cfg.generators],
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


def config_hash(cfg: ExperimentConfig, echo_json: str | None = None) -> str:
    """sha256 of the canonical echo, ``canonical_json(config_to_dict(cfg))``;
    pass ``echo_json`` if it is already encoded."""
    if echo_json is None:
        echo_json = canonical_json(config_to_dict(cfg))
    return hashlib.sha256(echo_json.encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)
