"""Every verdict of the presets, the orbit ladder and the closed-form rungs,
pinned in ``verdicts.json``.

A cell holds a check's pass flag or its error type, and for the two
measurement checks the recorded outcome (``invariant``, ``verdict``).  No
hash and no float is pinned, so BLAS thread counts do not move the table.
A row known to be wrong names the open ROADMAP item expected to flip it.
A change that moves a verdict on purpose rewrites the table with

    PYTHONPATH=src python tests/test_verdicts.py --write

and lists every changed row, with its reason, in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dynsamp_lab import checks, presets
from test_closed_form import closed_form_config, haar_unitary, rung
from test_spectrum import circulant_rung, dense_rung

TABLE = Path(__file__).with_name("verdicts.json")
OUTCOMES = {"kernel-invariance": "invariant",
            "iterated-frame-operator": "verdict"}


def _presets():
    for name in presets.PRESET_NAMES:
        for seed in (1, 7):
            yield f"repro {name} --seed {seed}", \
                lambda name=name, seed=seed: presets.preset_config(name,
                                                                   seed=seed)
    for name, dim in (("shift-orbit", 16), ("shift-orbit", 32),
                      ("aldroubi-diagonal", 54)):
        yield f"repro {name} --dim {dim}", \
            lambda name=name, dim=dim: presets.preset_config(name, dim=dim)


def _ladder():
    # the orbit-ladder commands of perfbench/worker.py, seed 1
    for d in (8, 16, 32, 64):
        yield f"ladder circulant-d{d}", lambda d=d: circulant_rung(d)
        yield f"ladder dense-d{d}", lambda d=d: dense_rung(d)


def _closed_form():
    for d in (8, 32):
        t, phi, _ = rung(d)
        yield f"closed-form d{d}", \
            lambda t=t, phi=phi: closed_form_config(t, phi)
        q = haar_unitary(np.random.default_rng([2007, d]), d)
        yield f"closed-form twin d{d}", \
            lambda t=t, phi=phi, q=q: closed_form_config(
                q @ t @ q.conj().T, q @ phi)


ROWS = dict([*_presets(), *_ladder(), *_closed_form()])

# rows with a verdict known to be wrong, and the open item expected to
# flip it
_TAIL = ("items 23 and 14: representation FAILs, and kernel-invariance "
         "records invariant=False, on the horizon tail")
_CUT = ("item 14: representation FAILs, and kernel-invariance records "
        "invariant=False, on the cut")
KNOWN_WRONG = {
    "repro shift-orbit --dim 32":
        "items 7 and 14: representation FAILs and ratio-bound ends in "
        "NotAFrame on the fixed 1e-10 cut",
    "repro aldroubi-diagonal --dim 54":
        "item 4: lambda_k = 1 - 2^-k rounds to 1, so stein diverges",
    "ladder circulant-d8": _TAIL,
    "ladder circulant-d16": _TAIL,
    "ladder circulant-d32": _TAIL,
    "ladder circulant-d64":
        "item 14: kernel-invariance records invariant=False on the horizon "
        "tail",
    "ladder dense-d8":
        "items 7 and 14: surjectivity FAILs inside float noise, and "
        "kernel-invariance records invariant=False at 1.015 x its tolerance",
    "ladder dense-d16": _CUT,
    "ladder dense-d32": _CUT,
    "ladder dense-d64": _CUT,
}


def cell(record) -> str:
    """``pass``, ``FAIL`` or ``error: <type>``, and the recorded outcome."""
    if record.error is not None:
        return "error: " + record.error.split(":", 1)[0]
    text = "pass" if record.passed else "FAIL"
    key = OUTCOMES.get(record.name)
    if key is not None:
        text += f", {key}={record.outputs[key]}"
    return text


def row(label: str) -> dict:
    rep = checks.run_experiment(ROWS[label]())
    out = {"checks": {r.name: cell(r) for r in rep.checks}}
    if label in KNOWN_WRONG:
        out["known_wrong"] = KNOWN_WRONG[label]
    return out


def test_the_table_has_every_row():
    assert list(json.loads(TABLE.read_text())) == list(ROWS)


@pytest.mark.parametrize("label", list(ROWS))
def test_verdicts_are_unchanged(label):
    assert row(label) == json.loads(TABLE.read_text())[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_verdicts.py --write")
    TABLE.write_text(json.dumps({label: row(label) for label in ROWS},
                                indent=2) + "\n")
