"""Perturbation certificates for orbit systems.

Each certificate evaluates the hypothesis of one perturbation statement
on a finite horizon, reports the margin by which it holds, and verifies
the statement's conclusion on the perturbed system.  Infinite sums are
truncated at the horizon with a geometric tail bound added, keeping the
sufficient-condition direction intact.  A randomized satisfiability
search probes whether the hypothesis set of a certificate is inhabited
at all.  Every certificate is computed by one stacked kernel: the search
runs it once per shape group of its trials, the public certificate
functions on a stack of one instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import frames, numkit
from .config import CONFIG_SCHEMA, OPERATOR_SPEC, params_schema
from .dynsamp import WeightSpec, nilpotent_shift, orbit_generators, orbit_stack
from .errors import HypothesisViolated, InvalidHypothesis, InvalidInput
from .frames import BoundsReport

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
    fails = [None]
    mu, defect = _contractions(t[None], v[None], fails)
    if fails[0] is not None:
        raise fails[0]
    return ContractionData(operator=t, subspace_basis=v, mu=float(mu[0]),
                           invariance_defect=float(defect[0]))


@dataclass(frozen=True, eq=False)
class Certificate:
    """Named hypothesis evaluation with its margin and conclusion check."""

    name: str
    hypothesis_values: dict[str, float]
    margin: float
    verdict: bool
    conclusion_check: BoundsReport | None = None


# ---------------------------------------------------------------------------
# stacked kernels
#
# A certificate is evaluated on a stack of instances of one shape: the
# satisfiability search stacks a shape group, the public certificate
# functions a single instance.  Stacked SVDs and products run LAPACK and
# BLAS once per matrix, and each reduction is the one a single instance
# makes, so every instance gets the bits it would get alone.  ``fails[i]``
# holds the exception instance i raises alone (its first violated
# hypothesis); later kernels still run over it, but its result is dropped.
# ---------------------------------------------------------------------------

class _Stack(NamedTuple):
    """Instances of one shape stacked along axis 0; ``mu`` and ``w_mu``
    are the contraction factors of T on ``basis`` and W on ``w_basis``."""

    t: np.ndarray  # B x d x d
    horizon: int
    mu: np.ndarray | None = None  # B
    basis: np.ndarray | None = None  # B x d x k
    phi: np.ndarray | None = None  # B x d
    psi: np.ndarray | None = None  # B x d
    weights: tuple = ()  # one WeightSpec per instance
    gens: np.ndarray | None = None  # B x G x d
    w: np.ndarray | None = None  # B x d x d
    w_mu: np.ndarray | None = None
    w_basis: np.ndarray | None = None

    @classmethod
    def one(cls, horizon: int, weights: WeightSpec | None = None,
            **arrays) -> "_Stack":
        """The stack of one instance, from its unstacked fields."""
        return cls(horizon=horizon, weights=(weights,),
                   **{k: np.asarray(v)[None] for k, v in arrays.items()})


def _one(kernel: Callable, stack: _Stack) -> tuple:
    """The certificates of a stack of one; raises the exception it fails
    with."""
    out = kernel(stack, [None])[0]
    if isinstance(out, Exception):
        raise out
    return out


def _flag(fails: list, bad, make: Callable[[int], Exception]) -> None:
    """Record ``make(i)`` for each instance i in ``bad`` not yet failed."""
    for i in np.flatnonzero(bad):
        if fails[i] is None:
            fails[i] = make(i)


def _certify(fails: list, certify: Callable[[int], tuple]) -> list:
    """Per instance: its certificates, or the exception it fails with."""
    return [certify(i) if fail is None else fail
            for i, fail in enumerate(fails)]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for each row of two real ``B x n`` arrays."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex ``B x n`` array."""
    return np.sqrt(_dots(x.real, x.real) + _dots(x.imag, x.imag))


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """``numkit.operator_norm`` of each matrix of a stack."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _contractions(t, v, fails: list) -> tuple[np.ndarray, np.ndarray]:
    """``mu`` and invariance defect of T on the span of V for each pair of
    a stack, flagging what :func:`contraction_data` refuses."""
    vh = np.conj(np.swapaxes(v, 1, 2))
    gram_error = np.linalg.norm(vh @ v - np.eye(v.shape[2]), axis=(1, 2))
    _flag(fails, gram_error > 1e-10, lambda i: InvalidInput(
        "subspace basis is not orthonormal within tolerance"))
    p = v @ vh
    defect = _operator_norms((np.eye(t.shape[1]) - p) @ t @ p)
    _flag(fails, defect > 1e-8, lambda i: InvalidHypothesis(
        f"subspace is not invariant: defect {defect[i]:.3e} > 1.0e-08"))
    mu = _operator_norms(t @ v)
    _flag(fails, mu >= 1.0, lambda i: InvalidHypothesis(
        f"contraction factor {mu[i]:.6g} >= 1 on the subspace"))
    return mu, defect


def _leaves_subspace(fails: list, basis, vecs) -> None:
    """Flag each instance whose vector is not in its contraction subspace."""
    coords = np.conj(np.swapaxes(basis, 1, 2)) @ vecs[:, :, None]
    off = _norms(vecs - (basis @ coords)[:, :, 0])
    _flag(fails, off > 1e-8 * np.maximum(1.0, _norms(vecs)),
          lambda i: InvalidHypothesis("vector is not in the contraction subspace"))


def _sequences(weights: tuple, count: int, fails: list) -> np.ndarray:
    """``B x count`` weight sequences; a refused one is flagged (ones)."""
    out = np.ones((len(weights), count), dtype=complex)
    for i, spec in enumerate(weights):
        try:
            out[i] = spec.sequence(count)
        except InvalidInput as exc:
            fails[i] = fails[i] or exc
    return out


def _orbits(t, starts, horizon: int, fails: list, seqs=None) -> np.ndarray:
    """:func:`orbit_stack`, flagging each orbit that leaves float64."""
    u, errors = orbit_stack(t, starts, horizon, seqs)
    _flag(fails, [e is not None for e in errors], errors.__getitem__)
    return u


def _bounds(spectra, ambient: bool) -> list[BoundsReport]:
    return [frames.spectrum_bounds(sp, ambient) for sp in spectra]


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
    phi, psi = orbit_generators(cd.operator, (phi, psi), horizon)
    (cert,) = _one(_riesz_kernel, _Stack.one(
        horizon, t=cd.operator, mu=cd.mu, basis=cd.subspace_basis,
        phi=phi, psi=psi))
    return cert


def _riesz_kernel(st: _Stack, fails: list) -> list:
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.psi)
    base = numkit.spectra(_orbits(st.t, st.phi[:, None], h, fails))
    reports = _bounds(base, ambient=False)
    _flag(fails, [r.classification not in _RIESZ for r in reports],
          lambda i: HypothesisViolated("base orbit prefix is not a Riesz "
                                       f"sequence ({reports[i].classification})"))
    psi_norms = _norms(st.psi)
    # S^+ T^n phi is column n of the canonical dual of the base orbit
    partials = _dots(
        np.linalg.norm(_orbits(st.t, st.psi[:, None], h, fails), axis=1),
        frames.dual_column_norms(base))
    perturbed = _bounds(numkit.spectra(
        _orbits(st.t, (st.phi + st.psi)[:, None], h, fails)), ambient=False)

    def certify(i: int) -> tuple:
        a = reports[i].a_opt
        mu = float(st.mu[i])
        psi_norm = float(psi_norms[i])
        threshold = (1.0 - mu) * math.sqrt(a)
        margin = threshold - psi_norm
        partial = float(partials[i])
        tail = (mu**h) * psi_norm / ((1.0 - mu) * math.sqrt(a)) if a > 0 \
            else math.inf
        total = partial + tail
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
        return (Certificate("riesz_orbit_perturbation", values, float(margin),
                            margin > 0, perturbed[i]),)

    return _certify(fails, certify)


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
    phi, psi = orbit_generators(cd.operator, (phi, psi), horizon)
    (cert,) = _one(_weighted_kernel, _Stack.one(
        horizon, weights, t=cd.operator, mu=cd.mu, basis=cd.subspace_basis,
        phi=phi, psi=psi))
    return cert


def _weighted_kernel(st: _Stack, fails: list) -> list:
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.psi)
    seqs = _sequences(st.weights, h, fails)
    reports = _bounds(numkit.spectra(
        _orbits(st.t, st.phi[:, None], h, fails, seqs)), ambient=False)
    _flag(fails, [r.a_opt <= r.tol for r in reports], lambda i:
          HypothesisViolated("base weighted orbit has no lower bound"))
    sup_weights = np.max(np.abs(seqs), axis=1)
    psi_norms = _norms(st.psi)
    perturbed = numkit.spectra(
        _orbits(st.t, (st.phi + st.psi)[:, None], h, fails, seqs))

    def certify(i: int) -> tuple:
        a = reports[i].a_opt
        mu = float(st.mu[i])
        sup_weight = float(sup_weights[i])
        psi_norm = float(psi_norms[i])
        threshold = math.sqrt(a * (1.0 - mu**2))
        margin = threshold - sup_weight * psi_norm
        values = {
            "lower_bound": a,
            "mu": mu,
            "sup_weight": sup_weight,
            "psi_norm": psi_norm,
            "threshold": threshold,
            "part_i_span_lower":
                frames.spectrum_bounds(perturbed[i], ambient=False).a_opt,
        }
        return (Certificate("weighted_frame_perturbation", values,
                            float(margin), margin > 0,
                            frames.spectrum_bounds(perturbed[i], ambient=True)),)

    return _certify(fails, certify)


def scaled_generator_perturbation_certificate(t, phi, psi, weights: WeightSpec,
                                              horizon: int) -> Certificate:
    """Frame stability of {a_n T^n (phi + psi)} from a weight-ratio bound.

    Hypotheses: {a_n T^n phi} is a frame with lower bound A and
    {a_{n+1} T^n psi} is Bessel with bound B.  Margin:
    ``sqrt(A / B) - sup_n |a_n / a_{n+1}|``; for psi = 0 the Bessel bound
    degenerates to zero and the margin is reported as +inf.
    """
    t = numkit.as_operator(t)
    phi, psi = orbit_generators(t, (phi, psi), horizon)
    (cert,) = _one(_scaled_kernel, _Stack.one(horizon, weights, t=t,
                                              phi=phi, psi=psi))
    return cert


def _scaled_kernel(st: _Stack, fails: list) -> list:
    h = st.horizon
    a_seqs = _sequences(st.weights, h + 1, fails)
    reports = _bounds(numkit.spectra(
        _orbits(st.t, st.phi[:, None], h, fails, a_seqs[:, :h])), ambient=True)
    _flag(fails, [r.a_opt <= r.tol for r in reports], lambda i:
          HypothesisViolated("base weighted orbit is not a frame"))
    sup_ratios = np.max(np.abs(a_seqs[:, :-1] / a_seqs[:, 1:]), axis=1)
    psi_norms = _norms(st.psi)
    # {a_{n+1} T^n psi}; a zero psi gives a zero system, never used
    bessel = _bounds(numkit.spectra(
        _orbits(st.t, st.psi[:, None], h, fails, a_seqs[:, 1:])), ambient=True)
    perturbed = _bounds(numkit.spectra(
        _orbits(st.t, (st.phi + st.psi)[:, None], h, fails, a_seqs[:, :h])),
        ambient=True)

    def certify(i: int) -> tuple:
        a = reports[i].a_opt
        sup_ratio = float(sup_ratios[i])
        psi_norm = float(psi_norms[i])
        if psi_norm == 0.0:
            b = 0.0
            margin = math.inf
        else:
            b = bessel[i].b_opt
            margin = math.sqrt(a / b) - sup_ratio if b > 0 else math.inf
        values = {
            "lower_bound": a,
            "bessel_bound": b,
            "sup_ratio": sup_ratio,
            "psi_norm": psi_norm,
        }
        return (Certificate("scaled_generator_perturbation", values,
                            float(margin), margin > 0, perturbed[i]),)

    return _certify(fails, certify)


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
    gens = tuple(generators)
    if not gens:
        raise InvalidInput("need at least one generator")
    gens = orbit_generators(cd_w.operator, gens, horizon)
    (cert,) = _one(_multi_kernel, _Stack.one(
        horizon, t=cd_t.operator, mu=cd_t.mu, basis=cd_t.subspace_basis,
        w=cd_w.operator, w_mu=cd_w.mu, w_basis=cd_w.subspace_basis,
        gens=np.stack(gens)))
    return cert


def _multi_kernel(st: _Stack, fails: list) -> list:
    h = st.horizon
    count = st.gens.shape[1]
    for j in range(count):
        _leaves_subspace(fails, st.w_basis, st.gens[:, j])
        _leaves_subspace(fails, st.basis, st.gens[:, j])
    w_orbits = _orbits(st.w, st.gens, h, fails)
    w_spectra = numkit.spectra(w_orbits)
    w_reports = _bounds(w_spectra, ambient=False)
    _flag(fails, [r.a_opt <= r.tol for r in w_reports], lambda i:
          HypothesisViolated("W-orbit system has no lower bound on its span"))
    gen_norms = np.stack([_norms(st.gens[:, j]) for j in range(count)], axis=1)
    t_orbits = _orbits(st.t, st.gens, h, fails)
    # S^+ W^n g_j is a column of the canonical dual of the W-system
    partials = _dots(np.linalg.norm(w_orbits - t_orbits, axis=1),
                     frames.dual_column_norms(w_spectra))
    conclusions = _bounds(numkit.spectra(t_orbits), ambient=False)

    def certify(i: int) -> tuple:
        w_report = w_reports[i]
        lam = max(float(st.w_mu[i]), float(st.mu[i]))
        s_pinv_norm = 1.0 / w_report.a_opt  # ||S^+|| on the span
        energy = float(sum(n ** 2 for n in gen_norms[i]))
        threshold = (1.0 - lam**2) / (2.0 * s_pinv_norm)
        margin = threshold - energy
        partial = float(partials[i])
        tail = 2.0 * s_pinv_norm * energy * lam ** (2 * h) / (1.0 - lam**2)
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
        return (Certificate("multi_generator_riesz", values, float(margin),
                            margin > 0, conclusions[i]),)

    return _certify(fails, certify)


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
    (phi,) = orbit_generators(cd_t.operator, (phi,), horizon)
    return _one(_two_operator_kernel, _Stack.one(
        horizon, t=cd_t.operator, mu=cd_t.mu, basis=cd_t.subspace_basis,
        w=cd_w.operator, w_mu=cd_w.mu, w_basis=cd_w.subspace_basis, phi=phi))


def _two_operator_kernel(st: _Stack, fails: list) -> list:
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.phi)
    _leaves_subspace(fails, st.w_basis, st.phi)
    t_orbits = _orbits(st.t, st.phi[:, None], h, fails)
    base = numkit.spectra(t_orbits)
    reports = _bounds(base, ambient=True)
    _flag(fails, [r.a_opt <= r.tol for r in reports], lambda i:
          HypothesisViolated("T-orbit prefix is not a frame"))
    phi_norms = _norms(st.phi)
    w_orbits = _orbits(st.w, st.phi[:, None], h, fails)
    w_reports = _bounds(numkit.spectra(w_orbits), ambient=True)
    diff_sums = np.sum(np.linalg.norm(t_orbits - w_orbits, axis=1) ** 2, axis=1)
    spans = _bounds(base, ambient=False)
    riesz = [i for i, r in enumerate(spans)
             if fails[i] is None and r.classification in _RIESZ]
    combined = dict(zip(riesz, _bounds(numkit.spectra(
        (t_orbits + w_orbits)[riesz]), ambient=False))) if riesz else {}

    def certify(i: int) -> tuple:
        a = reports[i].a_opt
        lam = max(float(st.mu[i]), float(st.w_mu[i]))
        phi_norm = float(phi_norms[i])
        threshold = math.sqrt(a * (1.0 - lam**2))
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
            w_reports[i],
        )
        diff_sum = float(diff_sums[i])
        tail = 4.0 * phi_norm**2 * lam ** (2 * h) / (1.0 - lam**2)
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
        if i in combined:
            values["riesz_variant_margin"] = (
                math.sqrt(spans[i].a_opt * (1.0 - lam**2)) - phi_norm
            )
            values["combined_span_lower"] = combined[i].a_opt
        sum_cert = Certificate("two_operator_riesz_sum", values,
                               float(sum_margin), sum_margin > 0, w_reports[i])
        return frame_cert, sum_cert

    return _certify(fails, certify)


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
    sample: Callable  # iterable of rngs -> one search instance per rng
    kernel: Callable  # (stack, fails) -> per instance, Certificates or error
    evaluate: Callable  # (inputs, psi, horizon) -> tuple of Certificates
    concludes: Callable


_PARAMS = {
    "horizon": {"type": "integer", "minimum": 1},
    "operator": OPERATOR_SPEC,
    "phi": {"type": "array"},
    "subspace_coords": {"type": "array", "minItems": 1,
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


def _groups(keys) -> list[list[int]]:
    """Indices of equal keys, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _draw_contraction(rng, d: int) -> tuple[np.ndarray, float]:
    """The draws of one random contraction: a complex Gaussian matrix and
    the norm in [0.2, 0.95) it is scaled to by :func:`_scale_draws`."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m, float(rng.uniform(0.2, 0.95))


def _matrix_norms(ms: list[np.ndarray]) -> list[float]:
    """``numkit.operator_norm`` of each matrix, one stacked SVD per shape."""
    out = [0.0] * len(ms)
    for idx in _groups([m.shape for m in ms]):
        for i, n in zip(idx, _operator_norms(np.stack([ms[i] for i in idx]))):
            out[i] = float(n)
    return out


def _scale_draws(draws: list) -> list[np.ndarray]:
    """``(m / ||m||) * target`` for each drawn ``(m, target)``."""
    norms = _matrix_norms([m for m, _ in draws])
    return [(m / n) * target for (m, target), n in zip(draws, norms)]


def _sample_block(rngs, weighted: bool = False) -> list[CertificateInputs]:
    """Shift block plus diagonal contraction block, contraction subspace =
    the trailing coordinates, and a psi of norm at most 1.2 inside it."""
    out = []
    for rng in rngs:
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
        out.append(CertificateInputs(operator=t, horizon=m,
                                     subspace_basis=v_basis, phi=phi,
                                     psis=(psi,), weights=weights))
    return out


def _sample_scaled(rngs) -> list[CertificateInputs]:
    out = []
    for rng in rngs:
        d = int(rng.integers(2, 6))
        phi = np.eye(d, dtype=complex)[0]
        psi = phi * float(rng.uniform(0.0, 0.5))
        weights = WeightSpec.geometric(float(rng.uniform(0.7, 1.3)))
        out.append(CertificateInputs(operator=nilpotent_shift(d), horizon=d,
                                     phi=phi, psis=(psi,), weights=weights))
    return out


def _sample_multi(rngs) -> list[CertificateInputs]:
    draws = []
    for rng in rngs:
        d = int(rng.integers(1, 9))
        w_draw = _draw_contraction(rng, d)
        t_draw = _draw_contraction(rng, d)
        count = int(rng.integers(1, 3))
        gens = tuple((rng.standard_normal(d) + 1j * rng.standard_normal(d))
                     * float(rng.uniform(0.1, 2.0)) for _ in range(count))
        draws.append((w_draw, t_draw, gens))
    ops = _scale_draws([x for w_draw, t_draw, _ in draws
                            for x in (w_draw, t_draw)])
    return [CertificateInputs(operator=t_op, horizon=4 * len(t_op),
                              subspace_basis=np.eye(len(t_op), dtype=complex),
                              generators=gens, second_operator=w_op)
            for w_op, t_op, (_, _, gens) in zip(ops[::2], ops[1::2], draws)]


def _sample_two_operator(rngs, nearby: bool) -> list[CertificateInputs]:
    """Two random contractions; ``nearby`` draws W within 0.01 of T."""
    draws = []
    for rng in rngs:
        d = int(rng.integers(1, 9))
        t_draw = _draw_contraction(rng, d)
        w_draw = _draw_contraction(rng, d)
        phi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) \
            * float(rng.uniform(0.2, 2.0))
        draws.append((t_draw, w_draw, phi))
    ops = _scale_draws([x for t_draw, w_draw, _ in draws
                            for x in (t_draw, w_draw)])
    t_ops, w_ops = ops[::2], ops[1::2]
    if nearby:
        w_ops = [t_op + 0.01 * c for t_op, c in zip(t_ops, w_ops)]
        w_ops = [w_op / (n + 0.05) if n >= 1.0 else w_op
                 for w_op, n in zip(w_ops, _matrix_norms(w_ops))]
    return [CertificateInputs(operator=t_op, horizon=4 * len(t_op),
                              subspace_basis=np.eye(len(t_op), dtype=complex),
                              phi=phi, second_operator=w_op)
            for t_op, w_op, (_, _, phi) in zip(t_ops, w_ops, draws)]


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
        _two_operator_kernel,
        lambda inp, psi, horizon: two_operator_certificates(
            inp.contraction, inp.second_contraction, inp.phi, horizon),
        lambda cert, doubled: cert.conclusion_check.a_opt > 0)


CERTIFICATES = {
    "riesz_orbit_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS), _sample_block, _riesz_kernel,
        lambda inp, psi, horizon: (riesz_perturbation_certificate(
            inp.contraction, inp.phi, psi, horizon),),
        _riesz_concludes),
    "weighted_frame_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"),
        partial(_sample_block, weighted=True), _weighted_kernel,
        lambda inp, psi, horizon: (weighted_frame_perturbation_certificate(
            inp.contraction, inp.phi, psi, inp.weights, horizon),),
        _stable_under_doubling),
    "scaled_generator_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"), _sample_scaled, _scaled_kernel,
        lambda inp, psi, horizon: (scaled_generator_perturbation_certificate(
            inp.operator, inp.phi, psi, inp.weights, horizon),),
        lambda cert, doubled: cert.conclusion_check.classification
        in ("frame", "riesz_basis")),
    "multi_generator_riesz": CertificateKind(
        _params("horizon", "operator", "subspace_coords", "w_operator",
                required=["w_operator"]),
        _sample_multi, _multi_kernel,
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

# Trials drawn and evaluated together; memory does not grow with the
# trial count.
SEARCH_CHUNK = 512


@dataclass
class SearchReport:
    certificate: str
    tried: int
    satisfying: list[dict] = field(default_factory=list)


class Trial(NamedTuple):
    """One search trial: the certificates its instance gets, none when the
    instance violates a hard hypothesis."""

    index: int
    dimension: int
    certificates: tuple[Certificate, ...]


def _stack(insts: list[CertificateInputs], fails: list) -> _Stack:
    """Instances of one shape, stacked, with the contraction factors of T
    (and W) on the subspace where one is given."""
    def stacked(get):
        values = [get(x) for x in insts]
        return None if values[0] is None else np.array(values)

    t = stacked(lambda x: x.operator)
    w = stacked(lambda x: x.second_operator)
    basis = stacked(lambda x: x.subspace_basis)
    mu = None if basis is None else _contractions(t, basis, fails)[0]
    w_mu = None if w is None else _contractions(w, basis, fails)[0]
    return _Stack(
        t=t, horizon=insts[0].horizon, mu=mu, basis=basis,
        phi=stacked(lambda x: x.phi), psi=stacked(lambda x: x.psis[0]),
        weights=tuple(x.weights for x in insts),
        gens=stacked(lambda x: x.generators or None),
        w=w, w_mu=w_mu, w_basis=basis)


def search_trials(certificate_name: str, trials: int,
                  seed: int) -> Iterator[Trial]:
    """The trials of :func:`satisfiability_search`, in order.

    Trial n draws its instance from ``default_rng([seed, n])``.  Each
    chunk of trials is drawn first, then evaluated one shape group
    (dimension, horizon, generator count) at a time by the certificate's
    stacked kernel.
    """
    kind = CERTIFICATES.get(certificate_name)
    if kind is None:
        raise InvalidInput(f"unknown certificate {certificate_name!r}")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    return _trials(kind, trials, seed)


def _trials(kind: CertificateKind, trials: int, seed: int) -> Iterator[Trial]:
    for start in range(0, trials, SEARCH_CHUNK):
        numbers = range(start, min(trials, start + SEARCH_CHUNK))
        insts = kind.sample(np.random.default_rng([seed, n]) for n in numbers)
        outcomes = [None] * len(insts)
        for idx in _groups([(x.horizon, x.operator.shape,
                             np.shape(x.subspace_basis), len(x.generators))
                            for x in insts]):
            fails = [None] * len(idx)
            group = kind.kernel(_stack([insts[i] for i in idx], fails), fails)
            for i, out in zip(idx, group):
                outcomes[i] = out
        for n, inst, out in zip(numbers, insts, outcomes):
            if isinstance(out, HypothesisViolated):
                out = ()
            elif isinstance(out, Exception):
                raise out
            yield Trial(n, inst.operator.shape[0], out)


def satisfiability_search(certificate_name: str, trials: int,
                          seed: int) -> SearchReport:
    """Randomized probe of a certificate's hypothesis set.

    Each trial draws an instance (dimension <= 8) from a seed-derived
    substream, evaluates the certificate, and records it when the margin
    is positive.  Instances violating a hard hypothesis count as tried
    and unsatisfying.  Deterministic for a fixed seed.
    """
    report = SearchReport(certificate=certificate_name, tried=trials)
    for trial in search_trials(certificate_name, trials, seed):
        for cert in trial.certificates:
            if (cert.name == certificate_name and cert.verdict
                    and math.isfinite(cert.margin)):
                report.satisfying.append({
                    "margin": cert.margin,
                    "dimension": trial.dimension,
                    "hypothesis_values": dict(cert.hypothesis_values),
                    "trial": trial.index,
                })
    return report
