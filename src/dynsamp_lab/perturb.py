"""Perturbation certificates for orbit systems.

Each certificate evaluates the hypothesis of one perturbation statement
on a finite horizon, reports the margin by which it holds, and verifies
the statement's conclusion on the perturbed system.  Infinite sums are
truncated at the horizon with a geometric tail bound added, keeping the
sufficient-condition direction intact.  A randomized satisfiability
search probes whether the hypothesis set of a certificate is inhabited
at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from . import frames, numkit
from .config import CONFIG_SCHEMA, OPERATOR_SPEC, params_schema
from .dynsamp import WeightSpec, nilpotent_shift, orbit
from .errors import HypothesisViolated, InvalidHypothesis, InvalidInput
from .frames import BoundsReport, VectorSystem

_RIESZ = ("riesz_sequence", "riesz_basis")


@dataclass(frozen=True, eq=False)
class ContractionData:
    """Invariant subspace on which an operator acts as a strict contraction.

    ``mu`` is the largest norm of the operator over unit vectors of the
    subspace; ``invariance_defect`` is the spectral norm of
    ``(I - P_V) T P_V``.
    """

    operator: np.ndarray
    subspace_basis: np.ndarray  # d x k, orthonormal columns
    mu: float
    invariance_defect: float


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


@dataclass(frozen=True, eq=False)
class Certificate:
    """Named hypothesis evaluation with its margin and conclusion check."""

    name: str
    hypothesis_values: dict[str, float]
    margin: float
    verdict: bool
    conclusion_check: BoundsReport | None = None


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


# ---------------------------------------------------------------------------
# the certificate table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CertificateInputs:
    """One certificate instance; each psi in ``psis`` is certified in turn
    (ignored where no generator is perturbed).  ``second_operator`` is the
    W of the multi-generator and two-operator certificates."""

    operator: np.ndarray
    horizon: int
    subspace_basis: np.ndarray | None = None
    phi: np.ndarray | None = None
    psis: tuple = (None,)
    weights: WeightSpec | None = None
    generators: tuple = ()
    second_operator: np.ndarray | None = None

    @cached_property
    def contraction(self) -> ContractionData:
        return contraction_data(self.operator, self.subspace_basis)

    @cached_property
    def second_contraction(self) -> ContractionData:
        return contraction_data(self.second_operator, self.subspace_basis)


class CertificateKind(NamedTuple):
    """One row of the certificate table; its functions call certificate
    functions by their module-global names.  ``concludes(cert, doubled)``
    checks the conclusion of a certificate whose hypothesis holds;
    ``doubled()`` evaluates it again at twice the horizon."""

    params: dict  # JSON schema of params["perturbation:<name>"]
    sample: Callable  # rng -> CertificateInputs of one search instance
    evaluate: Callable  # (inputs, psi, horizon) -> tuple of Certificates
    concludes: Callable


_PARAMS = {
    "horizon": {"type": "integer", "minimum": 1},
    "operator": OPERATOR_SPEC,
    "phi": {"type": "array"},
    "subspace_coords": {"type": "array", "minItems": 1, "uniqueItems": True,
                        "items": {"type": "integer", "minimum": 0}},
    "psi_direction": {"type": "array"},
    "psi_scales": {"type": "array", "minItems": 1,
                   "items": {"type": "number"}},
    "weights": CONFIG_SCHEMA["properties"]["weights"],
    "w_operator": OPERATOR_SPEC,
    "second_operator": OPERATOR_SPEC,
}


def _params(*keys, required=()) -> dict:
    return params_schema({k: _PARAMS[k] for k in keys}, required)


_ORBIT_PARAMS = ("horizon", "operator", "phi", "subspace_coords",
                 "psi_direction", "psi_scales")


def _random_contraction(rng, d, top=0.95):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = float(rng.uniform(0.2, top))
    return (m / numkit.operator_norm(m)) * target


def _sample_block(rng, weighted: bool = False) -> CertificateInputs:
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
    return CertificateInputs(operator=t, horizon=m, subspace_basis=v_basis,
                             phi=phi, psis=(psi,), weights=weights)


def _sample_scaled(rng) -> CertificateInputs:
    d = int(rng.integers(2, 6))
    phi = np.eye(d, dtype=complex)[0]
    psi = phi * float(rng.uniform(0.0, 0.5))
    weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3)))
    return CertificateInputs(operator=nilpotent_shift(d), horizon=d, phi=phi,
                             psis=(psi,), weights=weights)


def _sample_multi(rng) -> CertificateInputs:
    d = int(rng.integers(1, 9))
    w_op = _random_contraction(rng, d)
    t_op = _random_contraction(rng, d)
    count = int(rng.integers(1, 3))
    gens = tuple((rng.standard_normal(d) + 1j * rng.standard_normal(d))
                 * float(rng.uniform(0.1, 2.0)) for _ in range(count))
    return CertificateInputs(operator=t_op, horizon=4 * d,
                             subspace_basis=np.eye(d, dtype=complex),
                             generators=gens, second_operator=w_op)


def _sample_two_operator(rng, nearby: bool) -> CertificateInputs:
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
    return CertificateInputs(operator=t_op, horizon=4 * d,
                             subspace_basis=np.eye(d, dtype=complex),
                             phi=phi, second_operator=w_op)


def _riesz_concludes(cert: Certificate, doubled) -> bool:
    h = cert.hypothesis_values
    return (h["proof_sum_total"] < 1.0
            and cert.conclusion_check.classification in _RIESZ
            and cert.conclusion_check.a_opt >= h["perturbed_floor"] - 1e-8)


def _stable_under_doubling(cert: Certificate, doubled) -> bool:
    a_now = cert.conclusion_check.a_opt
    a_dbl = doubled()[0].conclusion_check.a_opt
    return a_now > 0 and abs(a_dbl - a_now) <= 0.10 * a_now


def _two_operator(nearby: bool) -> CertificateKind:
    """Both two-operator checks report both certificates of an instance."""
    return CertificateKind(
        _params("horizon", "operator", "phi", "subspace_coords",
                "second_operator", required=["second_operator"]),
        partial(_sample_two_operator, nearby=nearby),
        lambda inp, psi, horizon: two_operator_certificates(
            inp.contraction, inp.second_contraction, inp.phi, horizon),
        lambda cert, doubled: cert.conclusion_check.a_opt > 0)


CERTIFICATES = {
    "riesz_orbit_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS), _sample_block,
        lambda inp, psi, horizon: (riesz_perturbation_certificate(
            inp.contraction, inp.phi, psi, horizon),),
        _riesz_concludes),
    "weighted_frame_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"),
        partial(_sample_block, weighted=True),
        lambda inp, psi, horizon: (weighted_frame_perturbation_certificate(
            inp.contraction, inp.phi, psi, inp.weights, horizon),),
        _stable_under_doubling),
    "scaled_generator_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"), _sample_scaled,
        lambda inp, psi, horizon: (scaled_generator_perturbation_certificate(
            inp.operator, inp.phi, psi, inp.weights, horizon),),
        lambda cert, doubled: cert.conclusion_check.classification
        in ("frame", "riesz_basis")),
    "multi_generator_riesz": CertificateKind(
        _params("horizon", "operator", "subspace_coords", "w_operator",
                required=["w_operator"]),
        _sample_multi,
        lambda inp, psi, horizon: (multi_generator_riesz_certificate(
            inp.second_contraction, inp.contraction, inp.generators, horizon),),
        lambda cert, doubled: cert.conclusion_check.classification in _RIESZ),
    "two_operator_frame": _two_operator(nearby=False),
    "two_operator_riesz_sum": _two_operator(nearby=True),
}

CERTIFICATE_NAMES = tuple(CERTIFICATES)


# ---------------------------------------------------------------------------
# randomized satisfiability search
# ---------------------------------------------------------------------------

@dataclass
class SearchReport:
    certificate: str
    tried: int
    satisfying: list[dict] = field(default_factory=list)


def satisfiability_search(certificate_name: str, trials: int,
                          seed: int) -> SearchReport:
    """Randomized probe of a certificate's hypothesis set.

    Each trial draws an instance (dimension <= 8) from a seed-derived
    substream, evaluates the certificate, and records it when the margin
    is positive.  Instances violating a hard hypothesis count as tried
    and unsatisfying.  Deterministic for a fixed seed.
    """
    kind = CERTIFICATES.get(certificate_name)
    if kind is None:
        raise InvalidInput(f"unknown certificate {certificate_name!r}")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    report = SearchReport(certificate=certificate_name, tried=trials)
    for trial in range(trials):
        try:
            inp = kind.sample(np.random.default_rng([seed, trial]))
            certs = kind.evaluate(inp, inp.psis[0], inp.horizon)
        except HypothesisViolated:
            continue
        cert = next(c for c in certs if c.name == certificate_name)
        if cert.verdict and math.isfinite(cert.margin):
            report.satisfying.append({
                "margin": cert.margin,
                "dimension": inp.operator.shape[0],
                "hypothesis_values": dict(cert.hypothesis_values),
                "trial": trial,
            })
    return report
