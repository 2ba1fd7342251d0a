"""Parity of the stacked certificate kernels with the scalar code they
replaced.

The five certificate functions, ``contraction_data`` and the search
samplers below are kept literally from the per-trial implementation, as
an oracle; they call the library's ``orbit`` and ``frame_bounds``.  The
search draws each trial from the same ``default_rng([seed, trial])``
stream, so the margin and verdict of every certificate it evaluates,
vacuous ones included, and the hypothesis values of every trial it
records must match the oracle bit for bit, and so must each public
certificate function, now a stack of one, with its conclusion.  The
search parity runs with the ``unpruned`` fixture (``conftest.py``): every
trial runs its kernel and every record keeps its values.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import frames, numkit, perturb
from dynsamp_lab.dynsamp import WeightSpec, nilpotent_shift, orbit
from dynsamp_lab.errors import (
    HypothesisViolated,
    InvalidHypothesis,
    InvalidInput,
)
from dynsamp_lab.frames import VectorSystem
from dynsamp_lab.perturb import Certificate, ContractionData

TRIALS = 200
SEEDS = (7, 2024, 11)
_RIESZ = ("riesz_sequence", "riesz_basis")


# -- the oracle: the scalar certificate functions as they were ----------------

def contraction_data(t, subspace_basis) -> ContractionData:
    """Validate an invariant contraction subspace (invariance defect at
    most 1e-8)."""
    t = numkit.as_operator(t)
    v = numkit.as_matrix(subspace_basis)
    if v.shape[0] != t.shape[0]:
        raise InvalidInput("subspace basis dimension does not match the operator")
    k = v.shape[1]
    if numkit.frobenius(numkit.adjoint(v) @ v - np.eye(k)) > 1e-10:
        raise InvalidInput("subspace basis is not orthonormal within tolerance")
    p = v @ numkit.adjoint(v)
    eye = np.eye(t.shape[0])
    defect = numkit.operator_norm((eye - p) @ t @ p)
    if defect > 1e-8:
        raise InvalidHypothesis(
            f"subspace is not invariant: defect {defect:.3e} > 1.0e-08"
        )
    mu = numkit.operator_norm(t @ v)
    if mu >= 1.0:
        raise InvalidHypothesis(f"contraction factor {mu:.6g} >= 1 on the subspace")
    return ContractionData(operator=t, subspace_basis=v, mu=float(mu),
                           invariance_defect=float(defect))


def _in_subspace(cd: ContractionData, vec) -> None:
    v = numkit.as_vector(vec)
    p = cd.subspace_basis @ (numkit.adjoint(cd.subspace_basis) @ v)
    if np.linalg.norm(v - p) > 1e-8 * max(1.0, np.linalg.norm(v)):
        raise InvalidHypothesis("vector is not in the contraction subspace")


def _column_norms(sys: VectorSystem) -> np.ndarray:
    return np.linalg.norm(frames.synthesis(sys), axis=0)


# ---------------------------------------------------------------------------
# single-orbit perturbations
# ---------------------------------------------------------------------------

def riesz_perturbation_certificate(cd: ContractionData, phi, psi,
                                   horizon: int) -> Certificate:
    """Riesz-sequence stability of {T^n (phi + psi)} for psi in the
    contraction subspace.

    Margin: ``(1 - mu) sqrt(A) - ||psi||`` with A the lower Riesz bound of
    the base orbit prefix.  Also reports the operative sum
    ``sum_n ||T^n psi|| ||S^+ T^n phi||`` with its geometric tail bound;
    a total below one certifies the perturbed prefix with lower bound at
    least ``A (1 - sum)^2``.
    """
    t = cd.operator
    phi = numkit.as_vector(phi)
    psi = numkit.as_vector(psi)
    _in_subspace(cd, psi)
    base = orbit(t, (phi,), horizon)
    report = frames.frame_bounds(base, ambient=False)
    if report.classification not in _RIESZ:
        raise HypothesisViolated(
            f"base orbit prefix is not a Riesz sequence ({report.classification})"
        )
    a = report.a_opt
    mu = cd.mu
    psi_norm = float(np.linalg.norm(psi))
    threshold = (1.0 - mu) * math.sqrt(a)
    margin = threshold - psi_norm

    # S^+ T^n phi is column n of the canonical dual of the base orbit
    partial = float(_column_norms(orbit(t, (psi,), horizon))
                    @ _column_norms(frames.canonical_dual(base)))
    tail = (mu**horizon) * psi_norm / ((1.0 - mu) * math.sqrt(a)) if a > 0 else math.inf
    total = partial + tail

    perturbed = orbit(t, (phi + psi,), horizon)
    conclusion = frames.frame_bounds(perturbed, ambient=False)
    values = {
        "lower_riesz_bound": a,
        "mu": mu,
        "psi_norm": psi_norm,
        "threshold": threshold,
        "proof_sum": partial,
        "proof_tail_bound": tail,
        "proof_sum_total": total,
        "perturbed_floor": a * (1.0 - total) ** 2 if total < 1.0 else 0.0,
    }
    return Certificate("riesz_orbit_perturbation", values, float(margin),
                       margin > 0, conclusion)


def weighted_frame_perturbation_certificate(cd: ContractionData, phi, psi,
                                            weights: WeightSpec,
                                            horizon: int) -> Certificate:
    """Frame stability of {a_n T^n (phi + psi)} for psi in the contraction
    subspace.

    Margin: ``sqrt(A (1 - mu^2)) - sup_n |a_n| ||psi||``.  A is the lower
    bound of the base orbit on its span (the ambient bound when the orbit
    spans).  The frame-sequence claim for arbitrary psi is recorded via
    the span-relative lower bound of the perturbed system.  The ambient
    conclusion report is meaningful once psi reaches into the contraction
    subspace; at psi = 0 over a non-spanning base it degenerates to the
    base classification.
    """
    t = cd.operator
    phi = numkit.as_vector(phi)
    psi = numkit.as_vector(psi)
    _in_subspace(cd, psi)
    a_seq = weights.sequence(horizon)
    base = orbit(t, (phi,), horizon, weights)
    report = frames.frame_bounds(base, ambient=False)
    if report.a_opt <= report.tol:
        raise HypothesisViolated("base weighted orbit has no lower bound")
    a = report.a_opt
    mu = cd.mu
    sup_weight = float(np.max(np.abs(a_seq)))
    psi_norm = float(np.linalg.norm(psi))
    threshold = math.sqrt(a * (1.0 - mu**2))
    margin = threshold - sup_weight * psi_norm

    perturbed = orbit(t, (phi + psi,), horizon, weights)
    ambient_report = frames.frame_bounds(perturbed, ambient=True)
    span_report = frames.frame_bounds(perturbed, ambient=False)
    values = {
        "lower_bound": a,
        "mu": mu,
        "sup_weight": sup_weight,
        "psi_norm": psi_norm,
        "threshold": threshold,
        "part_i_span_lower": span_report.a_opt,
    }
    return Certificate("weighted_frame_perturbation", values, float(margin),
                       margin > 0, ambient_report)


def scaled_generator_perturbation_certificate(t, phi, psi, weights: WeightSpec,
                                              horizon: int) -> Certificate:
    """Frame stability of {a_n T^n (phi + psi)} from a weight-ratio bound.

    Hypotheses: {a_n T^n phi} is a frame with lower bound A and
    {a_{n+1} T^n psi} is Bessel with bound B.  Margin:
    ``sqrt(A / B) - sup_n |a_n / a_{n+1}|``; for psi = 0 the Bessel bound
    degenerates to zero and the margin is reported as +inf.
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    psi = numkit.as_vector(psi)
    a_seq = weights.sequence(horizon + 1)
    base = orbit(t, (phi,), horizon, weights)
    base_report = frames.frame_bounds(base, ambient=True)
    if base_report.a_opt <= base_report.tol:
        raise HypothesisViolated("base weighted orbit is not a frame")
    a = base_report.a_opt

    shifted = WeightSpec.explicit(a_seq[1:])
    sup_ratio = float(np.max(np.abs(a_seq[:-1] / a_seq[1:])))
    psi_norm = float(np.linalg.norm(psi))
    if psi_norm == 0.0:
        b = 0.0
        margin = math.inf
    else:
        bessel_sys = orbit(t, (psi,), horizon, shifted)
        b = frames.frame_bounds(bessel_sys, ambient=True).b_opt
        margin = math.sqrt(a / b) - sup_ratio if b > 0 else math.inf

    perturbed = orbit(t, (phi + psi,), horizon, weights)
    conclusion = frames.frame_bounds(perturbed, ambient=True)
    values = {
        "lower_bound": a,
        "bessel_bound": b,
        "sup_ratio": sup_ratio,
        "psi_norm": psi_norm,
    }
    return Certificate("scaled_generator_perturbation", values, float(margin),
                       margin > 0, conclusion)


# ---------------------------------------------------------------------------
# two-operator certificates
# ---------------------------------------------------------------------------

def multi_generator_riesz_certificate(cd_w: ContractionData,
                                      cd_t: ContractionData, generators,
                                      horizon: int) -> Certificate:
    """Riesz-sequence transfer from W-orbits to T-orbits of shared
    generators inside both contraction subspaces.

    Margin: ``(1 - lambda^2) / (2 ||S^+||) - sum_j ||g_j||^2`` with S the
    frame operator of the truncated W-system and lambda the larger
    contraction factor.  The operative comparison sum
    ``sum_{j,n} ||W^n g_j - T^n g_j|| ||S^+ W^n g_j||`` is always
    reported, with its geometric tail bound.
    """
    w_op = cd_w.operator
    t_op = cd_t.operator
    gens = tuple(numkit.as_vector(g) for g in generators)
    if not gens:
        raise InvalidInput("need at least one generator")
    for g in gens:
        _in_subspace(cd_w, g)
        _in_subspace(cd_t, g)
    lam = max(cd_w.mu, cd_t.mu)

    w_sys = orbit(w_op, gens, horizon)
    w_report = frames.frame_bounds(w_sys, ambient=False)
    if w_report.a_opt <= w_report.tol:
        raise HypothesisViolated("W-orbit system has no lower bound on its span")
    s_pinv_norm = 1.0 / w_report.a_opt  # ||S^+|| on the span
    energy = float(sum(np.linalg.norm(g) ** 2 for g in gens))
    threshold = (1.0 - lam**2) / (2.0 * s_pinv_norm)
    margin = threshold - energy

    t_sys = orbit(t_op, gens, horizon)
    # S^+ W^n g_j is a column of the canonical dual of the W-system
    gaps = np.linalg.norm(frames.synthesis(w_sys) - frames.synthesis(t_sys),
                          axis=0)
    partial = float(gaps @ _column_norms(frames.canonical_dual(w_sys)))
    tail = 2.0 * s_pinv_norm * energy * lam ** (2 * horizon) / (1.0 - lam**2)

    conclusion = frames.frame_bounds(t_sys, ambient=False)
    values = {
        "lambda": lam,
        "s_pinv_norm": s_pinv_norm,
        "generator_energy": energy,
        "threshold": threshold,
        "proof_sum": partial,
        "proof_tail_bound": tail,
        "proof_sum_total": partial + tail,
        "base_is_riesz": 1.0 if w_report.classification in _RIESZ else 0.0,
    }
    return Certificate("multi_generator_riesz", values, float(margin),
                       margin > 0, conclusion)


def two_operator_certificates(cd_t: ContractionData, cd_w: ContractionData,
                              phi, horizon: int) -> tuple[Certificate, Certificate]:
    """Certificates for replacing the T-orbit of phi by the W-orbit.

    The frame certificate uses the stated inequality
    ``2 ||phi|| < sqrt(A (1 - lambda^2))``; the sum certificate uses the
    operative inequality ``sum_n ||T^n phi - W^n phi||^2 < A`` (with tail
    bound) and concludes that the W-orbit is a frame.  When the base
    prefix is a Riesz sequence the combined-orbit variant
    (``||phi|| < sqrt(A (1 - lambda^2))`` giving {T^n phi + W^n phi}
    Riesz) is reported through the hypothesis values.
    """
    t_op = cd_t.operator
    w_op = cd_w.operator
    phi = numkit.as_vector(phi)
    _in_subspace(cd_t, phi)
    _in_subspace(cd_w, phi)
    lam = max(cd_t.mu, cd_w.mu)

    base = orbit(t_op, (phi,), horizon)
    base_report = frames.frame_bounds(base, ambient=True)
    if base_report.a_opt <= base_report.tol:
        raise HypothesisViolated("T-orbit prefix is not a frame")
    a = base_report.a_opt
    phi_norm = float(np.linalg.norm(phi))
    threshold = math.sqrt(a * (1.0 - lam**2))

    w_sys = orbit(w_op, (phi,), horizon)
    w_report = frames.frame_bounds(w_sys, ambient=True)

    frame_margin = threshold - 2.0 * phi_norm
    frame_cert = Certificate(
        "two_operator_frame",
        {
            "lower_bound": a,
            "lambda": lam,
            "phi_norm": phi_norm,
            "threshold": threshold,
        },
        float(frame_margin),
        frame_margin > 0,
        w_report,
    )

    t_cols, w_cols = frames.synthesis(base), frames.synthesis(w_sys)
    diff_sum = float(np.sum(np.linalg.norm(t_cols - w_cols, axis=0) ** 2))
    tail = 4.0 * phi_norm**2 * lam ** (2 * horizon) / (1.0 - lam**2)
    sum_margin = a - (diff_sum + tail)

    values = {
        "lower_bound": a,
        "lambda": lam,
        "phi_norm": phi_norm,
        "difference_sum": diff_sum,
        "difference_tail_bound": tail,
        "w_lower_floor": (math.sqrt(a) - math.sqrt(diff_sum + tail)) ** 2
        if sum_margin > 0 else 0.0,
    }
    base_span = frames.frame_bounds(base, ambient=False)
    if base_span.classification in _RIESZ:
        combined = VectorSystem(matrix=t_cols + w_cols)
        combined_report = frames.frame_bounds(combined, ambient=False)
        values["riesz_variant_margin"] = (
            math.sqrt(base_span.a_opt * (1.0 - lam**2)) - phi_norm
        )
        values["combined_span_lower"] = combined_report.a_opt
    sum_cert = Certificate("two_operator_riesz_sum", values, float(sum_margin),
                           sum_margin > 0, w_report)
    return frame_cert, sum_cert


# -- the oracle's samplers: one rng, one instance ----------------------------

class Inputs(NamedTuple):
    """One certificate instance, unstacked; each psi in ``psis`` is
    certified in turn (ignored where no generator is perturbed).
    ``second_operator`` is the W of the multi-generator and two-operator
    certificates."""

    operator: np.ndarray
    horizon: int
    subspace_basis: np.ndarray | None = None
    phi: np.ndarray | None = None
    psis: tuple = (None,)
    weights: WeightSpec | None = None
    generators: tuple = ()
    second_operator: np.ndarray | None = None


def _random_contraction(rng, d, top=0.95):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = float(rng.uniform(0.2, top))
    return (m / numkit.operator_norm(m)) * target


def _sample_block(rng, weighted: bool = False) -> Inputs:
    """Shift block plus diagonal contraction block, contraction subspace =
    the trailing coordinates, and a psi of norm at most 1.2 inside it."""
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    d = m + k
    scale = float(rng.uniform(0.5, 1.5))
    t = np.zeros((d, d), dtype=complex)
    t[:m, :m] = scale * nilpotent_shift(m)
    t[m:, m:] = np.diag(rng.uniform(0.05, 0.9, size=k)).astype(complex)
    v_basis = np.eye(d, dtype=complex)[:, m:]
    phi = np.eye(d, dtype=complex)[0]
    direction = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    direction /= np.linalg.norm(direction)
    psi = v_basis @ direction * float(rng.uniform(0.0, 1.2))
    weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3))) \
        if weighted else None
    return Inputs(operator=t, horizon=m, subspace_basis=v_basis, phi=phi,
                  psis=(psi,), weights=weights)


def _sample_scaled(rng) -> Inputs:
    d = int(rng.integers(2, 6))
    phi = np.eye(d, dtype=complex)[0]
    psi = phi * float(rng.uniform(0.0, 0.5))
    weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3)))
    return Inputs(operator=nilpotent_shift(d), horizon=d, phi=phi,
                  psis=(psi,), weights=weights)


def _sample_multi(rng) -> Inputs:
    d = int(rng.integers(1, 9))
    w_op = _random_contraction(rng, d)
    t_op = _random_contraction(rng, d)
    count = int(rng.integers(1, 3))
    gens = tuple((rng.standard_normal(d) + 1j * rng.standard_normal(d))
                 * float(rng.uniform(0.1, 2.0)) for _ in range(count))
    return Inputs(operator=t_op, horizon=4 * d,
                  subspace_basis=np.eye(d, dtype=complex),
                  generators=gens, second_operator=w_op)


def _sample_two_operator(rng, nearby: bool) -> Inputs:
    """Two random contractions; ``nearby`` draws W within 0.01 of T."""
    d = int(rng.integers(1, 9))
    t_op = _random_contraction(rng, d)
    if nearby:
        w_op = t_op + 0.01 * _random_contraction(rng, d)
        if numkit.operator_norm(w_op) >= 1.0:
            w_op = w_op / (numkit.operator_norm(w_op) + 0.05)
    else:
        w_op = _random_contraction(rng, d)
    phi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) \
        * float(rng.uniform(0.2, 2.0))
    return Inputs(operator=t_op, horizon=4 * d,
                  subspace_basis=np.eye(d, dtype=complex),
                  phi=phi, second_operator=w_op)


def _contraction(inp):
    return contraction_data(inp.operator, inp.subspace_basis)


def _second_contraction(inp):
    return contraction_data(inp.second_operator, inp.subspace_basis)


# certificate -> (oracle sampler, oracle evaluation of one instance), in the
# order the per-trial search evaluated the contraction data
ORACLE = {
    "riesz_orbit_perturbation": (
        _sample_block,
        lambda inp: (riesz_perturbation_certificate(
            _contraction(inp), inp.phi, inp.psis[0], inp.horizon),)),
    "weighted_frame_perturbation": (
        lambda rng: _sample_block(rng, weighted=True),
        lambda inp: (weighted_frame_perturbation_certificate(
            _contraction(inp), inp.phi, inp.psis[0], inp.weights,
            inp.horizon),)),
    "scaled_generator_perturbation": (
        _sample_scaled,
        lambda inp: (scaled_generator_perturbation_certificate(
            inp.operator, inp.phi, inp.psis[0], inp.weights, inp.horizon),)),
    "multi_generator_riesz": (
        _sample_multi,
        lambda inp: (multi_generator_riesz_certificate(
            _second_contraction(inp), _contraction(inp), inp.generators,
            inp.horizon),)),
    "two_operator_frame": (
        lambda rng: _sample_two_operator(rng, nearby=False),
        lambda inp: two_operator_certificates(
            _contraction(inp), _second_contraction(inp), inp.phi,
            inp.horizon)),
    "two_operator_riesz_sum": (
        lambda rng: _sample_two_operator(rng, nearby=True),
        lambda inp: two_operator_certificates(
            _contraction(inp), _second_contraction(inp), inp.phi,
            inp.horizon)),
}


class Public(NamedTuple):
    """A certificate's public function, called as a check calls it:
    ``evaluate(inputs, psi, horizon)`` is the tuple of its certificates."""

    evaluate: Callable


def _public_contraction(operator, inp):
    return perturb.contraction_data(operator, inp.subspace_basis)


def _public_two_operator(inp, psi, horizon):
    return perturb.two_operator_certificates(
        _public_contraction(inp.operator, inp),
        _public_contraction(inp.second_operator, inp), inp.phi, horizon)


# certificate -> its public function, taking the contraction data in the
# order a perturbation check refuses them
PUBLIC = {
    "riesz_orbit_perturbation": Public(lambda inp, psi, horizon: (
        perturb.riesz_perturbation_certificate(
            _public_contraction(inp.operator, inp), inp.phi, psi, horizon),)),
    "weighted_frame_perturbation": Public(lambda inp, psi, horizon: (
        perturb.weighted_frame_perturbation_certificate(
            _public_contraction(inp.operator, inp), inp.phi, psi,
            inp.weights, horizon),)),
    "scaled_generator_perturbation": Public(lambda inp, psi, horizon: (
        perturb.scaled_generator_perturbation_certificate(
            inp.operator, inp.phi, psi, inp.weights, horizon),)),
    "multi_generator_riesz": Public(lambda inp, psi, horizon: (
        perturb.multi_generator_riesz_certificate(
            _public_contraction(inp.second_operator, inp),
            _public_contraction(inp.operator, inp), inp.generators,
            horizon),)),
    "two_operator_frame": Public(_public_two_operator),
    "two_operator_riesz_sum": Public(_public_two_operator),
}


def _oracle_trials(name: str, trials: int, seed: int) -> list:
    """(instance, certificates) per trial; no certificates when the
    instance violates a hard hypothesis."""
    sample, evaluate = ORACLE[name]
    out = []
    for trial in range(trials):
        inp = sample(np.random.default_rng([seed, trial]))
        try:
            out.append((inp, evaluate(inp)))
        except HypothesisViolated:
            out.append((inp, ()))
    return out


def _record(cert: Certificate) -> str:
    # repr compares floats bit for bit and NaN equal to itself
    return repr((cert.name, cert.margin, cert.verdict,
                 sorted(cert.hypothesis_values.items()),
                 cert.conclusion_check))


def _searched(cert: Certificate) -> str:
    """What a search trial carries of every certificate it evaluates."""
    return repr((cert.name, cert.margin, cert.verdict))


def _recorded(cert: Certificate) -> bool:
    return cert.verdict and math.isfinite(cert.margin)


def _outcome(call) -> list[str] | tuple[type, str]:
    try:
        return [_record(c) for c in call()]
    except HypothesisViolated as exc:
        return type(exc), str(exc)


# -- the search ---------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_search_matches_the_scalar_oracle(name, seed, unpruned):
    """Each trial carries the searched certificate alone, with the oracle's
    margin and verdict; a recorded trial also carries its hypothesis
    values (in the oracle's order), any other none, and no trial a
    conclusion."""
    oracle = _oracle_trials(name, TRIALS, seed)
    trials = list(perturb.search_trials(name, TRIALS, seed))
    assert [t.index for t in trials] == list(range(TRIALS))
    assert [t.dimension for t in trials] == [inp.operator.shape[0]
                                             for inp, _ in oracle]
    searched = [[c for c in certs if c.name == name] for _, certs in oracle]
    assert [[_searched(c) for c in t.certificates] for t in trials] \
        == [[_searched(c) for c in certs] for certs in searched]
    for t, certs in zip(trials, searched):
        for got, want in zip(t.certificates, certs):
            assert got.conclusion_check is None
            assert repr(list(got.hypothesis_values.items())) == repr(
                list(want.hypothesis_values.items()) if _recorded(want) else [])

    expected = [
        {"margin": c.margin, "dimension": inp.operator.shape[0],
         "hypothesis_values": dict(c.hypothesis_values), "trial": trial}
        for trial, (inp, certs) in enumerate(oracle) for c in certs
        if c.name == name and c.verdict and math.isfinite(c.margin)
    ]
    report = perturb.satisfiability_search(name, TRIALS, seed)
    assert report.tried == TRIALS
    assert report.satisfying == expected
    # most trials reach a certificate; the rest violate a hard hypothesis
    assert sum(1 for _, certs in oracle if certs) >= TRIALS // 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_public_functions_match_the_scalar_oracle(name, seed):
    """Each public function, a stack of one."""
    kind = PUBLIC[name]
    sample, evaluate = ORACLE[name]
    for trial in range(TRIALS):
        inp = sample(np.random.default_rng([seed, trial]))
        if inp.subspace_basis is not None:
            want = contraction_data(inp.operator, inp.subspace_basis)
            got = perturb.contraction_data(inp.operator, inp.subspace_basis)
            assert (repr(got.mu), repr(got.invariance_defect)) \
                == (repr(want.mu), repr(want.invariance_defect))
        assert _outcome(lambda: kind.evaluate(inp, inp.psis[0], inp.horizon)) \
            == _outcome(lambda: evaluate(inp))


def _block(mu=0.5):
    """Two-step shift on coordinates 0-1 plus a mu-contraction on 2."""
    t = np.zeros((3, 3), dtype=complex)
    t[1, 0] = 1.0
    t[2, 2] = mu
    return t


E3 = np.eye(3, dtype=complex)
TAIL = E3[:, 2:]
DIAG = np.diag([0.3, 0.5]).astype(complex)
E2 = np.eye(2, dtype=complex)

# hand-made instances each path must refuse alike; ``ns`` is the oracle's
# namespace or the perturb module
REFUSALS = {
    "non-invariant subspace": lambda ns: ns.contraction_data(
        nilpotent_shift(2), E2[:, :1]),
    "expansive subspace": lambda ns: ns.contraction_data(np.eye(2), E2),
    "non-orthonormal basis": lambda ns: ns.contraction_data(DIAG, 2.0 * E2),
    "psi outside the subspace": lambda ns: ns.riesz_perturbation_certificate(
        ns.contraction_data(_block(), TAIL), E3[0], E3[1], 2),
    "non-Riesz base": lambda ns: ns.riesz_perturbation_certificate(
        ns.contraction_data(_block(), TAIL), E3[0], 0.1 * E3[2], 3),
    "weighted base without lower bound":
        lambda ns: ns.weighted_frame_perturbation_certificate(
            ns.contraction_data(_block(), TAIL), 0.0 * E3[0], 0.1 * E3[2],
            WeightSpec.constant(1.0), 2),
    "scaled base not a frame":
        lambda ns: ns.scaled_generator_perturbation_certificate(
            nilpotent_shift(3), E3[0], 0.0 * E3[0], WeightSpec.geometric(0.9),
            2),
    "W-system without lower bound":
        lambda ns: ns.multi_generator_riesz_certificate(
            ns.contraction_data(DIAG, E2), ns.contraction_data(DIAG, E2),
            [np.zeros(2)], 4),
    "no generators": lambda ns: ns.multi_generator_riesz_certificate(
        ns.contraction_data(DIAG, E2), ns.contraction_data(DIAG, E2), [], 4),
    "T-orbit not a frame": lambda ns: ns.two_operator_certificates(
        ns.contraction_data(DIAG, E2), ns.contraction_data(DIAG, E2),
        E2[0], 1),
}


class _Oracle:
    contraction_data = staticmethod(contraction_data)
    riesz_perturbation_certificate = staticmethod(riesz_perturbation_certificate)
    weighted_frame_perturbation_certificate = staticmethod(
        weighted_frame_perturbation_certificate)
    scaled_generator_perturbation_certificate = staticmethod(
        scaled_generator_perturbation_certificate)
    multi_generator_riesz_certificate = staticmethod(
        multi_generator_riesz_certificate)
    two_operator_certificates = staticmethod(two_operator_certificates)


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_match_the_scalar_oracle(case):
    with pytest.raises((InvalidInput, HypothesisViolated)) as want:
        REFUSALS[case](_Oracle)
    with pytest.raises(type(want.value)) as got:
        REFUSALS[case](perturb)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -- cost and chunking --------------------------------------------------------

@pytest.mark.parametrize("name", perturb.CERTIFICATE_NAMES)
def test_svd_calls_are_per_shape_group_not_per_trial(name, monkeypatch):
    seed = 7
    sample, _ = ORACLE[name]
    insts = [sample(np.random.default_rng([seed, n])) for n in range(TRIALS)]
    groups = len({(x.horizon, x.operator.shape, len(x.generators))
                  for x in insts})
    dims = len({x.operator.shape[0] for x in insts})
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    perturb.satisfiability_search(name, TRIALS, seed)
    # per group: two contraction norms per operator and up to three
    # spectra; per dimension: the sampler's operator norms
    assert len(shapes) <= 7 * groups + 2 * dims
    assert all(len(shape) == 3 for shape in shapes)


# Matrices per trial that a search may factorise: the sampler's norms of its
# random operators, two contraction norms per operator and the spectra that
# the margin reads.  Conclusions, the sibling two-operator certificate and
# the values of unrecorded trials add none.
MOST_MATRICES_PER_TRIAL = {
    "riesz_orbit_perturbation": 3,
    "scaled_generator_perturbation": 2,
    "multi_generator_riesz": 7,
    "two_operator_frame": 7,
}


@pytest.mark.parametrize("name", MOST_MATRICES_PER_TRIAL)
def test_search_factorises_only_what_its_records_read(name, monkeypatch):
    matrices = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        matrices.append(len(a))  # a stack (see the test above)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    perturb.satisfiability_search(name, TRIALS, 7)
    assert sum(matrices) <= MOST_MATRICES_PER_TRIAL[name] * TRIALS


@pytest.mark.parametrize("name", ["riesz_orbit_perturbation",
                                  "two_operator_riesz_sum"])
def test_a_longer_search_keeps_the_first_records(name):
    longer = perturb.satisfiability_search(name, perturb.SEARCH_CHUNK + 50, 5)
    shorter = perturb.satisfiability_search(name, TRIALS, 5)
    assert [r for r in longer.satisfying if r["trial"] < TRIALS] \
        == shorter.satisfying


@pytest.mark.parametrize("name", ["multi_generator_riesz",
                                  "two_operator_riesz_sum",
                                  "riesz_orbit_perturbation"])
def test_chunk_boundaries_do_not_change_any_trial(name, monkeypatch):
    """The kernel runs in every chunk of the last two, and the kept records
    of riesz_orbit_perturbation at seed 11 span the boundary at 37."""

    def trials():
        return [(t.index, t.dimension, [_record(c) for c in t.certificates])
                for t in perturb.search_trials(name, TRIALS, 11)]

    whole = trials()
    monkeypatch.setattr(perturb, "SEARCH_CHUNK", 37)
    assert trials() == whole


# -- vacuity by proof ---------------------------------------------------------
#
# For S the frame operator of a truncated orbit system of a contraction
# with factor mu <= lambda < 1, every positive eigenvalue of S is at most
# tr S = sum_{j,n} ||T^n g_j||^2 <= sum_j ||g_j||^2 / (1 - lambda^2).
# multi_generator_riesz: margin = (1 - lambda^2) lambda+_min(S) / 2 - E
# <= E / 2 - E = -E / 2, with E = sum_j ||g_j||^2.
# two_operator_frame: margin = sqrt(A (1 - lambda^2)) - 2 ||phi|| <= -||phi||,
# since A <= tr S <= ||phi||^2 / (1 - lambda^2).

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_multi_generator_margin_is_at_most_minus_half_the_energy(seed):
    kind = perturb.CERTIFICATES["multi_generator_riesz"]
    ((_, stack),) = kind.draw([np.random.default_rng(seed)])
    basis = np.eye(stack.t.shape[1], dtype=complex)  # the whole space
    try:
        cert = perturb.multi_generator_riesz_certificate(
            perturb.contraction_data(stack.w[0], basis),
            perturb.contraction_data(stack.t[0], basis),
            stack.gens[0], stack.horizon)
    except HypothesisViolated:
        return
    energy = cert.hypothesis_values["generator_energy"]
    assert cert.margin <= -energy / 2 + 1e-12 * energy


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.sampled_from(["two_operator_frame", "two_operator_riesz_sum"]))
def test_two_operator_frame_margin_is_at_most_minus_phi_norm(seed, family):
    kind = perturb.CERTIFICATES[family]
    ((_, stack),) = kind.draw([np.random.default_rng(seed)])
    basis = np.eye(stack.t.shape[1], dtype=complex)  # the whole space
    try:
        frame_cert, _ = perturb.two_operator_certificates(
            perturb.contraction_data(stack.t[0], basis),
            perturb.contraction_data(stack.w[0], basis),
            stack.phi[0], stack.horizon)
    except HypothesisViolated:
        return
    phi_norm = frame_cert.hypothesis_values["phi_norm"]
    assert frame_cert.margin <= -phi_norm + 1e-12 * phi_norm
