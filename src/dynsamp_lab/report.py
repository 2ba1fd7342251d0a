"""Experiment reports: schema, canonical serialization, hashing, CSV export.

Reports are byte-stable for identical config + seed + tool version once
the timing fields are excluded; ``payload_hash`` is computed over that
stable payload.
"""

from __future__ import annotations

import hashlib
import io
import json
import numbers
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, canonical_json, schema_error

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


def jsonify(value):
    """Convert nested values to JSON-safe structures.

    Complex scalars become ``[re, im]``; arrays become nested lists;
    non-finite floats become string sentinels ("inf", "-inf", "nan").
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if hasattr(value, "_asdict"):  # a record: the dict of its fields
            return jsonify(value._asdict())
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
    return str(value)


class CheckRecord(NamedTuple):
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


class ExperimentReport(NamedTuple):
    config_hash: str
    seed: int
    config_echo: dict
    # canonical_json(config_echo), encoded once per run and spliced into
    # the hash basis and the file
    echo_json: str
    checks: list[CheckRecord]

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

    def payload_hash(self, payload: dict | None = None,
                     stable_checks: list[str] | None = None) -> str:
        """SHA-256 of ``stable_payload(payload)`` in canonical JSON.

        A ``payload`` dict is encoded as it is.  Without one, the basis is
        this report's, with ``stable_checks`` (its check records without
        ``wall_time``, in canonical JSON) if they are already encoded.
        """
        if payload is not None:
            text = canonical_json(self.stable_payload(payload))
        else:
            if stable_checks is None:
                stable_checks = [_stable_json(c.to_dict()) for c in self.checks]
            text = self._document("[" + ",".join(stable_checks) + "]")
        return hashlib.sha256(text.encode()).hexdigest()

    def to_dict(self) -> dict:
        return self._payload([c.to_dict() for c in self.checks])

    def _payload(self, records: list[dict]) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": {
                "config_hash": self.config_hash,
                "tool_version": __version__,
                "seed": self.seed,
                "config": self.config_echo,
            },
            "checks": records,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """The report file: compact sorted-key JSON with one line per
        check record; each record is encoded once, for the hash and the
        file."""
        records = [c.to_dict() for c in self.checks]
        stable = [_stable_json(r) for r in records]
        digest = self.payload_hash(stable_checks=stable)
        validate_report({**self._payload(records), "payload_hash": digest})
        # ``wall_time`` sorts last among a record's keys
        lines = [s[:-1] + ',"wall_time":' + json.dumps(r["wall_time"]) + "}"
                 for s, r in zip(stable, records)]
        return self._document("[\n" + ",\n".join(lines) + "\n]", digest)

    def _document(self, checks: str, digest: str | None = None) -> str:
        """Canonical JSON of this report with the encoded ``checks`` array
        and the echo string spliced in, plus ``payload_hash`` if given.

        Sorted keys put ``checks`` first, then ``metadata`` (whose first
        key is ``config``), then the scalar keys.
        """
        meta = canonical_json({"config_hash": self.config_hash,
                               "tool_version": __version__,
                               "seed": self.seed})
        rest = {"passed": self.passed, "schema_version": SCHEMA_VERSION}
        if digest is not None:
            rest["payload_hash"] = digest
        return ('{"checks":' + checks + ',"metadata":{"config":'
                + self.echo_json + "," + meta[1:] + "," + canonical_json(rest)[1:])

    def to_csv(self) -> str:
        """Flattened numeric table: one row per (check, key) pair."""
        import csv

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


def _stable_json(record: dict) -> str:
    """Canonical JSON of a check record without ``wall_time``."""
    return canonical_json({k: v for k, v in record.items() if k != "wall_time"})


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
    """Raise the ``config.SchemaError`` that ``jsonschema`` would pick
    against ``REPORT_SCHEMA``, if any; ``to_json`` checks every report
    it writes."""
    error = schema_error(payload, REPORT_SCHEMA)
    if error is not None:
        raise error
