"""Parity of the satisfiability search with its earlier scalar form.

``_search_one`` below is the per-certificate if/elif sampler that the
certificate table replaced, kept literally as an oracle (library calls
go through the ``perturb`` module).  Every trial must draw the same
instance from ``default_rng([seed, trial])``: the margins and verdicts of
the searched certificate and the satisfying records must match bit for
bit.  The search runs with the ``unpruned`` fixture (``conftest.py``):
every trial runs its kernel and every record keeps its values.
"""

import math

import numpy as np
import pytest

from dynsamp_lab import numkit, perturb
from dynsamp_lab.dynsamp import WeightSpec, nilpotent_shift
from dynsamp_lab.errors import HypothesisViolated, InvalidInput

TRIALS = 200
SEEDS = (7, 2024)
CERTIFICATE_FUNCTIONS = (
    "riesz_perturbation_certificate",
    "weighted_frame_perturbation_certificate",
    "scaled_generator_perturbation_certificate",
    "multi_generator_riesz_certificate",
    "two_operator_certificates",
)


# -- the oracle: the scalar sampler as it was ---------------------------------

def _block_contraction_instance(rng):
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    d = m + k
    scale = float(rng.uniform(0.5, 1.5))
    t = np.zeros((d, d), dtype=complex)
    t[:m, :m] = scale * nilpotent_shift(m)
    diag = rng.uniform(0.05, 0.9, size=k)
    t[m:, m:] = np.diag(diag).astype(complex)
    v_basis = np.eye(d, dtype=complex)[:, m:]
    phi = np.zeros(d, dtype=complex)
    phi[0] = 1.0
    return t, v_basis, phi, m, k


def _random_contraction(rng, d, top=0.95):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = float(rng.uniform(0.2, top))
    return (m / numkit.operator_norm(m)) * target


def _search_one(name: str, rng) -> dict | None:
    if name == "riesz_orbit_perturbation":
        t, v_basis, phi, m, _ = _block_contraction_instance(rng)
        dim = t.shape[0]
        cd = perturb.contraction_data(t, v_basis)
        direction = rng.standard_normal(v_basis.shape[1]) \
            + 1j * rng.standard_normal(v_basis.shape[1])
        direction /= np.linalg.norm(direction)
        psi = v_basis @ direction * float(rng.uniform(0.0, 1.2))
        cert = perturb.riesz_perturbation_certificate(cd, phi, psi, horizon=m)
    elif name == "weighted_frame_perturbation":
        t, v_basis, phi, m, _ = _block_contraction_instance(rng)
        dim = t.shape[0]
        cd = perturb.contraction_data(t, v_basis)
        direction = rng.standard_normal(v_basis.shape[1]) \
            + 1j * rng.standard_normal(v_basis.shape[1])
        direction /= np.linalg.norm(direction)
        psi = v_basis @ direction * float(rng.uniform(0.0, 1.2))
        weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3)))
        cert = perturb.weighted_frame_perturbation_certificate(
            cd, phi, psi, weights, horizon=m)
    elif name == "scaled_generator_perturbation":
        d = int(rng.integers(2, 6))
        dim = d
        t = nilpotent_shift(d)
        phi = np.zeros(d, dtype=complex)
        phi[0] = 1.0
        psi = phi * float(rng.uniform(0.0, 0.5))
        weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3)))
        cert = perturb.scaled_generator_perturbation_certificate(
            t, phi, psi, weights, horizon=d)
    elif name == "multi_generator_riesz":
        d = int(rng.integers(1, 9))
        dim = d
        w_op = _random_contraction(rng, d)
        t_op = _random_contraction(rng, d)
        v_basis = np.eye(d, dtype=complex)
        cd_w = perturb.contraction_data(w_op, v_basis)
        cd_t = perturb.contraction_data(t_op, v_basis)
        count = int(rng.integers(1, 3))
        gens = [
            (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            * float(rng.uniform(0.1, 2.0))
            for _ in range(count)
        ]
        cert = perturb.multi_generator_riesz_certificate(cd_w, cd_t, gens,
                                                         horizon=4 * d)
    elif name == "two_operator_frame":
        d = int(rng.integers(1, 9))
        dim = d
        t_op = _random_contraction(rng, d)
        w_op = _random_contraction(rng, d)
        v_basis = np.eye(d, dtype=complex)
        cd_t = perturb.contraction_data(t_op, v_basis)
        cd_w = perturb.contraction_data(w_op, v_basis)
        phi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) \
            * float(rng.uniform(0.2, 2.0))
        cert, _ = perturb.two_operator_certificates(cd_t, cd_w, phi,
                                                    horizon=4 * d)
    elif name == "two_operator_riesz_sum":
        d = int(rng.integers(1, 9))
        dim = d
        t_op = _random_contraction(rng, d)
        w_op = t_op + 0.01 * _random_contraction(rng, d)
        if numkit.operator_norm(w_op) >= 1.0:
            w_op = w_op / (numkit.operator_norm(w_op) + 0.05)
        v_basis = np.eye(d, dtype=complex)
        cd_t = perturb.contraction_data(t_op, v_basis)
        cd_w = perturb.contraction_data(w_op, v_basis)
        phi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) \
            * float(rng.uniform(0.2, 2.0))
        _, cert = perturb.two_operator_certificates(cd_t, cd_w, phi,
                                                    horizon=4 * d)
    else:
        raise InvalidInput(f"unknown certificate {name!r}")

    if cert.verdict and math.isfinite(cert.margin):
        return {
            "margin": cert.margin,
            "dimension": dim,
            "hypothesis_values": dict(cert.hypothesis_values),
        }
    return None


def _oracle_search(name: str, trials: int, seed: int) -> list[dict]:
    satisfying = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        try:
            hit = _search_one(name, rng)
        except HypothesisViolated:
            hit = None
        if hit is not None:
            hit["trial"] = trial
            satisfying.append(hit)
    return satisfying


# -- every certificate evaluated, not only the satisfying ones ----------------

@pytest.fixture
def evaluated(monkeypatch):
    """Log of every certificate the perturb certificate functions return."""
    log = []
    for fn_name in CERTIFICATE_FUNCTIONS:
        def logged(*args, _fn=getattr(perturb, fn_name), **kwargs):
            out = _fn(*args, **kwargs)
            log.extend((out,) if isinstance(out, perturb.Certificate) else out)
            return out
        monkeypatch.setattr(perturb, fn_name, logged)
    return log


def _record(cert: perturb.Certificate) -> str:
    # repr compares floats bit for bit and NaN equal to itself
    return repr((cert.name, cert.margin, cert.verdict))


def _values(cert: perturb.Certificate) -> str:
    return repr(list(cert.hypothesis_values.items()))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_search_matches_scalar_oracle(name, seed, evaluated, unpruned):
    """The search evaluates the searched certificate of each trial, with
    the oracle's margin and verdict, and the hypothesis values of the
    trials it records."""
    expected = _oracle_search(name, TRIALS, seed)
    oracle_certs = [c for c in evaluated if c.name == name]
    evaluated.clear()
    report = perturb.satisfiability_search(name, TRIALS, seed)
    assert report.tried == TRIALS
    assert report.satisfying == expected
    certs = [c for trial in perturb.search_trials(name, TRIALS, seed)
             for c in trial.certificates]
    assert [_record(c) for c in certs] == [_record(c) for c in oracle_certs]
    assert [_values(c) for c in certs] == [
        _values(c) if c.verdict and math.isfinite(c.margin) else "[]"
        for c in oracle_certs]
    # most trials reach a certificate; the rest violate a hard hypothesis
    assert len(oracle_certs) >= TRIALS // 2
