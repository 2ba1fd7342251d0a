"""Real systems stay real: a real config computes in float64 and reports
what its complex128 control reports.

Every row of ``verdicts.json`` whose config is real (operator, generators
and weights float64) runs twice: as parsed, and as the complex control,
with its operator, generators and weights (config and params blocks
alike) forced to complex128, and the ``repro-aldroubi`` sweep's Stein
solves too.  Each check must give the same pass flag and error type in
both, and every number of its outputs and margins must satisfy

    |x - x0| <= RTOL |x0| + ATOL_EPS eps s,

with x0 the control's value, RTOL = 1e-10, ATOL_EPS = 256 and s the
largest finite |number| in that record.  The relative term covers
quantities computed from the two kinds of factorisation, which agreed to
4e-12 relative when this was measured; the absolute term covers residuals
and other quantities that are float noise on the scale of the record
(~1e-15 absolute, which moved by 2-40 % between the kinds).
"""

import math

import numpy as np
import pytest

from dynsamp_lab import checks, numkit
from dynsamp_lab.dynsamp import WeightSpec
from dynsamp_lab.report import jsonify
from test_spectrum import circulant_rung, dense_rung
from test_verdicts import ROWS

RTOL = 1e-10
ATOL_EPS = 256
EPS = float(np.finfo(float).eps)


def is_real(cfg) -> bool:
    weights = cfg.weights or WeightSpec.constant(1.0)
    return not any(np.iscomplexobj(a) for a in (
        cfg.operator, *cfg.generators, weights.sequence(int(cfg.horizon))))


REAL_ROWS = [label for label, make in ROWS.items() if is_real(make())]


def forced_complex(monkeypatch, cfg):
    """The complex control of ``cfg``: its operator and generators cast to
    complex128 here, its weight sequences, params-block arrays and the
    sweep's Stein inputs by the patched functions."""
    sequence = WeightSpec.sequence
    monkeypatch.setattr(WeightSpec, "sequence",
                        lambda spec, count: sequence(spec, count).astype(complex))
    solve = numkit.solve_stein
    monkeypatch.setattr(numkit, "solve_stein", lambda t, c, sp, tol=1e-12: solve(
        t.astype(complex), c.astype(complex), sp, tol))
    stack = checks._perturbation_stack

    def complex_stack(cert, **inp):
        for key in ("operator", "phi", "subspace_basis", "second_operator"):
            if inp[key] is not None:
                inp[key] = inp[key].astype(complex)
        inp["psis"] = tuple(psi.astype(complex) for psi in inp["psis"])
        return stack(cert, **inp)

    monkeypatch.setattr(checks, "_perturbation_stack", complex_stack)
    return cfg._replace(operator=cfg.operator.astype(complex),
                        generators=tuple(g.astype(complex)
                                         for g in cfg.generators))


def numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def assert_close(got, want, scale: float, where: str) -> None:
    """``got`` equals ``want`` in structure, in every string and flag, and
    in every number up to the module's bound."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], scale, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, scale, f"{where}[{i}]")
    elif isinstance(want, float):
        bound = RTOL * abs(want) + ATOL_EPS * EPS * scale
        assert abs(got - want) <= bound, (where, got, want, bound)
    else:
        assert got == want, where


def error_type(record):
    return None if record.error is None else record.error.split(":", 1)[0]


@pytest.mark.parametrize("label", REAL_ROWS)
def test_a_real_config_reports_what_its_complex_control_does(label,
                                                             monkeypatch):
    cfg = ROWS[label]()
    real = checks.run_experiment(cfg)
    with monkeypatch.context() as patched:
        control = checks.run_experiment(forced_complex(patched, cfg))
    for got, want in zip(real.checks, control.checks, strict=True):
        assert (got.name, got.passed, error_type(got)) \
            == (want.name, want.passed, error_type(want))
        got_json, want_json = (jsonify({"outputs": r.outputs,
                                        "margins": r.margins})
                               for r in (got, want))
        scale = max((abs(x) for x in numbers(want_json)
                     if math.isfinite(x)), default=0.0)
        assert_close(got_json, want_json, scale, f"{label}: {got.name}")


def test_every_kind_of_row_is_compared():
    assert {label.split(" --")[0] for label in REAL_ROWS} >= {
        "repro aldroubi-diagonal", "repro shift-orbit",
        "repro circulant-zmodel", "repro perturbation-gallery",
        "closed-form d8", "closed-form d32"}
    assert not any("twin" in label or "ladder" in label
                   for label in REAL_ROWS)


def test_the_aldroubi_orbit_c_and_s_are_float64():
    run = checks.Run(ROWS["repro aldroubi-diagonal --seed 1"]())
    for a in (run.orbit.matrix, run.c, run.stein(1e-12).s):
        assert a.dtype == np.float64


def test_a_real_operator_with_a_complex_generator_keeps_a_complex_orbit():
    run = checks.Run(circulant_rung(32))
    assert run.operator.dtype == np.float64
    assert run.spectrum.u.dtype == np.float64
    for a in (run.orbit.matrix, run.c, run.stein(1e-12).s):
        assert a.dtype == np.complex128


def test_the_dense_rung_stays_complex():
    run = checks.Run(dense_rung(32))
    for a in (run.operator, run.spectrum.u, run.orbit.matrix,
              run.orbit.shift_defect, run.c, run.stein(1e-12).s):
        assert a.dtype == np.complex128
