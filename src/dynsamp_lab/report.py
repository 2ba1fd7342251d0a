"""Experiment reports: schema, canonical serialization, hashing, CSV export.

Reports are byte-stable for identical config + seed + tool version once
the timing fields are excluded; ``payload_hash`` is computed over that
stable payload.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, canonical_json

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"type": "integer"},
        "metadata": {
            "type": "object",
            "properties": {
                "config_hash": {"type": "string"},
                "tool_version": {"type": "string"},
                "seed": {"type": "integer"},
                "config": {"type": "object"},
            },
            "required": ["config_hash", "tool_version", "seed", "config"],
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "inputs": {"type": "object"},
                    "outputs": {"type": "object"},
                    "margins": {"type": "object"},
                    "passed": {"type": "boolean"},
                    "wall_time": {"type": "number"},
                    "error": {"type": ["string", "null"]},
                },
                "required": ["name", "inputs", "outputs", "margins",
                             "passed", "wall_time"],
            },
        },
        "passed": {"type": "boolean"},
        "payload_hash": {"type": "string"},
    },
    "required": ["schema_version", "metadata", "checks", "passed",
                 "payload_hash"],
}

_VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)


def jsonify(value):
    """Convert nested values to JSON-safe structures.

    Complex scalars become ``[re, im]``; arrays become nested lists;
    non-finite floats become string sentinels ("inf", "-inf", "nan").
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [jsonify(z.real), jsonify(z.imag)]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        f = float(value)
        if f != f:
            return "nan"
        if f == float("inf"):
            return "inf"
        if f == float("-inf"):
            return "-inf"
        return f
    if value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value):
        return jsonify(dataclasses.asdict(value))
    return str(value)


@dataclass
class CheckRecord:
    name: str
    inputs: dict
    outputs: dict
    margins: dict
    passed: bool
    wall_time: float
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": jsonify(self.inputs),
            "outputs": jsonify(self.outputs),
            "margins": jsonify(self.margins),
            "passed": bool(self.passed),
            "wall_time": float(self.wall_time),
            "error": self.error,
        }


@dataclass
class ExperimentReport:
    config_hash: str
    seed: int
    config_echo: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def stable_payload(self, payload: dict | None = None) -> dict:
        """Report payload with timing fields stripped (hash basis).

        ``payload`` is this report's ``to_dict()`` if it is already built;
        it is copied, not changed.
        """
        if payload is None:
            payload = self.to_dict()
        stable = {k: v for k, v in payload.items() if k != "payload_hash"}
        stable["checks"] = [{k: v for k, v in check.items() if k != "wall_time"}
                            for check in payload["checks"]]
        return stable

    def payload_hash(self, payload: dict | None = None) -> str:
        """SHA-256 of ``stable_payload(payload)`` in canonical JSON."""
        return hashlib.sha256(
            canonical_json(self.stable_payload(payload)).encode()
        ).hexdigest()

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": {
                "config_hash": self.config_hash,
                "tool_version": __version__,
                "seed": self.seed,
                "config": self.config_echo,
            },
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        payload = self.to_dict()
        payload["payload_hash"] = self.payload_hash(payload)
        validate_report(payload)
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Flattened numeric table: one row per (check, key) pair."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "section", "key", "value"])
        for check in self.checks:
            for section, payload in (("outputs", check.outputs),
                                     ("margins", check.margins)):
                for key, value in _flatten(jsonify(payload)):
                    writer.writerow([check.name, section, key, value])
            writer.writerow([check.name, "status", "passed", check.passed])
        return buf.getvalue()

    def write(self, path, fmt: str = "json") -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            path.write_text(self.to_json())
        elif fmt == "csv":
            path.write_text(self.to_csv())
        else:
            raise ValueError(f"unknown report format {fmt!r}")


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), value


def validate_report(payload: dict) -> None:
    """Raise the best-matching ``jsonschema.ValidationError``, if any."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(payload))
    if error is not None:
        raise error
