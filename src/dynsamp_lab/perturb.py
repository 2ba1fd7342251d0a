"""Perturbation certificates for orbit systems.

Each certificate evaluates the hypothesis of one perturbation statement
on a finite horizon, reports the margin by which it holds, and verifies
the statement's conclusion on the perturbed system.  Infinite sums are
truncated at the horizon with a geometric tail bound added, keeping the
sufficient-condition direction intact.  A randomized satisfiability
search probes whether the hypothesis set of a certificate is inhabited
at all.  Every certificate is one stacked kernel in stages, and every
caller builds a stack and calls it: the search, a shape group of its
trials, for every margin and the hypothesis values of the records it
keeps; a ``perturbation:`` check, one instance per psi, and a public
certificate function, one instance, for every stage and conclusion.
The search builds no stack for a trial whose draws alone bound its
margin below zero (the README's two proofs of empty hypothesis sets).
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import frames, numkit
from .config import CONFIG_SCHEMA, OPERATOR_SPEC, params_schema
from .dynsamp import WeightSpec, nilpotent_shift, orbit_generators, orbit_stack
from .errors import (
    DynsampLabError,
    HypothesisViolated,
    InvalidHypothesis,
    InvalidInput,
)
from .frames import BoundsReport

_RIESZ = ("riesz_sequence", "riesz_basis")


class ContractionData(NamedTuple):
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


class Certificate(NamedTuple):
    """Named hypothesis evaluation with its margin and conclusion check."""

    name: str
    hypothesis_values: dict[str, float]
    margin: float
    verdict: bool
    conclusion_check: BoundsReport | None = None
    bracket: dict | None = None  # see weighted_frame_perturbation_certificate


# ---------------------------------------------------------------------------
# stacked kernels
#
# A certificate is evaluated on a stack of instances of one shape: the
# satisfiability search stacks a shape group, a perturbation check one
# instance per psi, a public certificate function a single instance.
# Stacked SVDs and products run LAPACK and BLAS once per matrix, and each
# reduction is the one a single instance makes, so every instance gets the
# bits it would get alone, in any stack.
# ``fails[i]`` holds the exception instance i raises alone (its first
# violated hypothesis); later steps still run over it, but its result is
# dropped.
#
# A kernel runs in three stages.  The first, over the whole stack, decides
# every refusal and computes each margin from the quantities it reads.
# The other two run only where a caller reads them: the remaining
# hypothesis values over the records a search keeps, re-stacked, and the
# conclusion reports, which the search never computes.
# ---------------------------------------------------------------------------

class _Stack(NamedTuple):
    """Instances of one shape stacked along axis 0; ``mu`` and ``w_mu``
    are the contraction factors of T on ``basis`` and W on ``w_basis``.
    A stack that gives its factors without a basis contracts on the whole
    space."""

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
            psi: tuple | list = (None,), **arrays) -> "_Stack":
        """The stack of one instance per psi, from its unstacked fields."""
        b = len(psi)
        return cls(horizon=horizon, weights=(weights,) * b,
                   psi=None if psi[0] is None else np.array(psi),
                   **{k: np.repeat(np.asarray(v)[None], b, axis=0)
                      for k, v in arrays.items()})

    def take(self, idx: list[int]) -> "_Stack":
        """The instances ``idx``, re-stacked."""
        return self._replace(weights=tuple(self.weights[i] for i in idx),
                             **{k: v[idx] for k, v in self._asdict().items()
                                if isinstance(v, np.ndarray)})


class _Staged(NamedTuple):
    """One certificate of a stack, by stage.  ``margins[i]`` is instance
    i's margin, or the exception it fails with.  ``values(idx)`` gives the
    hypothesis values of the instances ``idx`` (none failed),
    ``conclusions()`` the conclusion report of every instance and
    ``brackets()``, where given, its :attr:`Certificate.bracket`."""

    name: str
    margins: list
    values: Callable[[list[int]], list[dict]]
    conclusions: Callable[[], list[BoundsReport]]
    brackets: Callable[[], list[dict]] | None = None


def _staged(name: str, fails: list, head: Callable, conclusions: Callable,
            extend: Callable | None = None) -> _Staged:
    """A :class:`_Staged` from ``head(i) -> (values, margin)``, the
    quantities instance i's margin reads, and ``extend(idx, heads)``, which
    adds the remaining values, if any, to the heads of the instances
    ``idx``."""
    def values(idx: list[int]) -> list[dict]:
        heads = [head(i)[0] for i in idx]
        if extend is not None:
            extend(idx, heads)
        return heads

    return _Staged(name, [float(head(i)[1]) if fail is None else fail
                          for i, fail in enumerate(fails)],
                   values, conclusions)


def _certify(kernel: Callable, stack: _Stack) -> list:
    """Per instance of a stack, its certificates with every stage run, or
    the exception it fails with alone once its conclusions are computed.
    A stage raises for the whole stack only where an instance raises
    alone; the instances are then certified one at a time."""
    fails = [None] * len(stack.weights)
    try:
        staged = kernel(stack, fails)
        conclusions = [(s.conclusions(), s.brackets() if s.brackets
                        else [None] * len(fails)) for s in staged]
        ok = [i for i, fail in enumerate(fails) if fail is None]
        values = [dict(zip(ok, s.values(ok))) if ok else {} for s in staged]
    except (DynsampLabError, np.linalg.LinAlgError) as exc:
        if len(fails) == 1:
            return [exc]
        return [_certify(kernel, stack.take([i]))[0] for i in range(len(fails))]
    return [fail or tuple(Certificate(s.name, v[i], s.margins[i],
                                      s.margins[i] > 0, c[i], b[i])
                          for s, v, (c, b) in zip(staged, values, conclusions))
            for i, fail in enumerate(fails)]


def _raised(outcome):
    """An instance's outcome of :func:`_certify`: its certificates, or the
    exception it fails with, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _one(kernel: Callable, stack: _Stack) -> tuple[Certificate, ...]:
    """The certificates of a stack of one, raising what it fails with."""
    return _raised(_certify(kernel, stack)[0])


def _flag(fails: list, bad, make: Callable[[int], Exception]) -> None:
    """Record ``make(i)`` for each instance i in ``bad`` not yet failed."""
    for i in np.flatnonzero(bad):
        if fails[i] is None:
            fails[i] = make(i)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for each row of two real ``B x n`` arrays."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex ``B x n`` array."""
    return np.sqrt(_dots(x.real, x.real) + _dots(x.imag, x.imag))


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """``numkit.operator_norm`` of each matrix of a stack; a zero matrix has
    norm 0 without a factorisation."""
    out = np.zeros(len(stack))
    nonzero = stack.any(axis=(1, 2))
    if nonzero.any():
        out[nonzero] = np.linalg.svd(stack[nonzero], compute_uv=False)[:, 0]
    return out


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
    _flag_factor(fails, mu)
    return mu, defect


def _flag_factor(fails: list, mu: np.ndarray) -> None:
    """Flag each contraction factor that is not below one."""
    _flag(fails, mu >= 1.0, lambda i: InvalidHypothesis(
        f"contraction factor {mu[i]:.6g} >= 1 on the subspace"))


def _leaves_subspace(fails: list, basis, vecs) -> None:
    """Flag each instance whose vector is not in its contraction subspace;
    none leaves the whole space (no basis)."""
    if basis is None:
        return
    coords = np.conj(np.swapaxes(basis, 1, 2)) @ vecs[:, :, None]
    off = _norms(vecs - (basis @ coords)[:, :, 0])
    _flag(fails, off > 1e-8 * np.maximum(1.0, _norms(vecs)),
          lambda i: InvalidHypothesis("vector is not in the contraction subspace"))


def _sequences(weights: tuple, count: int, fails: list) -> np.ndarray:
    """``B x count`` weight sequences, real when every one is; a refused
    one is flagged (ones)."""
    out = []
    for i, spec in enumerate(weights):
        try:
            out.append(spec.sequence(count))
        except InvalidInput as exc:
            fails[i] = fails[i] or exc
            out.append(np.ones(count))
    return np.array(out)


def _orbits(t, starts, horizon: int, fails: list, seqs=None) -> np.ndarray:
    """:func:`orbit_stack`, flagging each orbit that leaves float64."""
    u, errors = orbit_stack(t, starts, horizon, seqs)
    _flag(fails, [e is not None for e in errors], errors.__getitem__)
    return u


def _is_riesz(sp: numkit.SpectrumStack) -> np.ndarray:
    """Which systems of a stack are Riesz sequences (rank = vector count)."""
    return sp.rank == sp.vh.shape[2]


def _bounds(stack: np.ndarray, ambient: bool) -> list[BoundsReport]:
    """The :class:`BoundsReport` of each synthesis matrix of a stack."""
    return [frames.spectrum_bounds(sp, ambient) for sp in numkit.spectra(stack)]


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
    return _one(_riesz_kernel, _Stack.one(
        horizon, psi=[psi], t=cd.operator, mu=cd.mu, basis=cd.subspace_basis,
        phi=phi))[0]


def _riesz_kernel(st: _Stack, fails: list) -> tuple[_Staged]:
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.psi)
    base = numkit.spectrum_stack(_orbits(st.t, st.phi[:, None], h, fails))
    lower = frames.lower_bounds(base, ambient=False)
    _flag(fails, ~_is_riesz(base), lambda i: HypothesisViolated(
        "base orbit prefix is not a Riesz sequence "
        f"({frames.classification(int(base.rank[i]), st.t.shape[1], h)})"))
    psi_norms = _norms(st.psi)
    psi_orbits = _orbits(st.t, st.psi[:, None], h, fails)
    perturbed = _orbits(st.t, (st.phi + st.psi)[:, None], h, fails)

    def head(i: int) -> tuple[dict, float]:
        a = float(lower[i])
        mu = float(st.mu[i])
        psi_norm = float(psi_norms[i])
        threshold = (1.0 - mu) * math.sqrt(a)
        return {"lower_riesz_bound": a, "mu": mu, "psi_norm": psi_norm,
                "threshold": threshold}, threshold - psi_norm

    def extend(idx: list[int], heads: list[dict]) -> None:
        # S^+ T^n phi is column n of the canonical dual of the base orbit
        partials = _dots(np.linalg.norm(psi_orbits[idx], axis=1),
                         frames.dual_column_norms(base.take(idx)))
        for v, partial in zip(heads, partials.tolist()):
            a, mu, psi_norm = v["lower_riesz_bound"], v["mu"], v["psi_norm"]
            tail = (mu**h) * psi_norm / ((1.0 - mu) * math.sqrt(a)) if a > 0 \
                else math.inf
            total = partial + tail
            v.update(proof_sum=partial, proof_tail_bound=tail,
                     proof_sum_total=total,
                     perturbed_floor=a * (1.0 - total) ** 2 if total < 1.0
                     else 0.0)

    return (_staged("riesz_orbit_perturbation", fails, head,
                    lambda: _bounds(perturbed, ambient=False), extend),)


def weighted_frame_perturbation_certificate(cd: ContractionData, phi, psi,
                                            weights: WeightSpec,
                                            horizon: int) -> Certificate:
    """Frame stability of {a_n T^n (phi + psi)}, n >= 0, for psi in the
    contraction subspace.

    Margin: ``sqrt(A (1 - mu^2)) - sup_n |a_n| ||psi||``.  A is the lower
    bound of the base orbit on its span (the ambient bound when the orbit
    spans).  The frame-sequence claim for arbitrary psi is recorded via
    the span-relative lower bound of the perturbed system.  The conclusion
    report holds a_N and b_N of the perturbed prefix.  With |a_n| = c r^n
    (r = |value| for geometric weights, 1 for constant ones) the orbit's
    frame operator is S = S_N + (rT)^N S ((rT)^N)*, so with q =
    ||(rT)^N||_2^2 < 1 its bounds lie in [a_N, b_N / (1 - q)]: ``bracket``
    holds q and that ``b_infinite_bound`` (inf for q >= 1), both None
    under explicit weights, which define no infinite orbit.
    """
    phi, psi = orbit_generators(cd.operator, (phi, psi), horizon)
    return _one(_weighted_kernel, _Stack.one(
        horizon, weights, [psi], t=cd.operator, mu=cd.mu,
        basis=cd.subspace_basis, phi=phi))[0]


def _weighted_kernel(st: _Stack, fails: list) -> tuple[_Staged]:
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.psi)
    seqs = _sequences(st.weights, h, fails)
    base = numkit.spectrum_stack(_orbits(st.t, st.phi[:, None], h, fails, seqs))
    lower = frames.lower_bounds(base, ambient=False)
    _flag(fails, lower <= base.cut, lambda i:
          HypothesisViolated("base weighted orbit has no lower bound"))
    sup_weights = np.max(np.abs(seqs), axis=1)
    psi_norms = _norms(st.psi)
    perturbed = _orbits(st.t, (st.phi + st.psi)[:, None], h, fails, seqs)
    # the perturbed system's spectra, shared by both later stages
    spectra = cache(lambda idx: numkit.spectra(perturbed[list(idx)]))
    reports = cache(lambda: [frames.spectrum_bounds(sp, ambient=True)
                             for sp in spectra(tuple(range(len(fails))))])

    def head(i: int) -> tuple[dict, float]:
        a = float(lower[i])
        mu = float(st.mu[i])
        sup_weight = float(sup_weights[i])
        psi_norm = float(psi_norms[i])
        threshold = math.sqrt(a * (1.0 - mu**2))
        return {"lower_bound": a, "mu": mu, "sup_weight": sup_weight,
                "psi_norm": psi_norm, "threshold": threshold}, \
            threshold - sup_weight * psi_norm

    def extend(idx: list[int], heads: list[dict]) -> None:
        for v, sp in zip(heads, spectra(tuple(idx))):
            v["part_i_span_lower"] = \
                frames.spectrum_bounds(sp, ambient=False).a_opt

    def brackets() -> list[dict]:
        # no whole orbit under explicit weights; a failed instance keeps
        # the error it failed with
        rs = {i: 1.0 if w.kind == "constant" else abs(w.value)
              for i, w in enumerate(st.weights)
              if w.kind != "explicit" and fails[i] is None}
        qs = dict.fromkeys(range(len(fails)))
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.linalg.matrix_power(
                st.t[list(rs)] * np.array([*rs.values()])[:, None, None], h)
            qs.update(zip(rs, (_operator_norms(numkit.finite(
                power, f"(rT)^N at N = {h}")) ** 2).tolist()))
        return [{"q": q, "b_infinite_bound": None if q is None else
                 rep.b_opt / (1.0 - q) if q < 1.0 else math.inf}
                for q, rep in zip(qs.values(), reports())]

    return (_staged("weighted_frame_perturbation", fails, head, reports,
                    extend)._replace(brackets=brackets),)


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
    return _one(_scaled_kernel, _Stack.one(horizon, weights, [psi], t=t,
                                           phi=phi))[0]


def _scaled_kernel(st: _Stack, fails: list) -> tuple[_Staged]:
    h = st.horizon
    a_seqs = _sequences(st.weights, h + 1, fails)
    base = numkit.spectrum_stack(
        _orbits(st.t, st.phi[:, None], h, fails, a_seqs[:, :h]))
    lower = frames.lower_bounds(base, ambient=True)
    _flag(fails, lower <= base.cut, lambda i:
          HypothesisViolated("base weighted orbit is not a frame"))
    sup_ratios = np.max(np.abs(a_seqs[:, :-1] / a_seqs[:, 1:]), axis=1)
    psi_norms = _norms(st.psi)
    # {a_{n+1} T^n psi}; a zero psi gives a zero system, never used
    bessel = numkit.spectrum_stack(
        _orbits(st.t, st.psi[:, None], h, fails, a_seqs[:, 1:])).s[:, 0] ** 2
    perturbed = _orbits(st.t, (st.phi + st.psi)[:, None], h, fails,
                        a_seqs[:, :h])

    def head(i: int) -> tuple[dict, float]:
        a = float(lower[i])
        sup_ratio = float(sup_ratios[i])
        psi_norm = float(psi_norms[i])
        if psi_norm == 0.0:
            b = 0.0
            margin = math.inf
        else:
            b = float(bessel[i])
            margin = math.sqrt(a / b) - sup_ratio if b > 0 else math.inf
        return {"lower_bound": a, "bessel_bound": b, "sup_ratio": sup_ratio,
                "psi_norm": psi_norm}, margin

    return (_staged("scaled_generator_perturbation", fails, head,
                    lambda: _bounds(perturbed, ambient=True)),)


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
    return _one(_multi_kernel, _Stack.one(
        horizon, t=cd_t.operator, mu=cd_t.mu, basis=cd_t.subspace_basis,
        w=cd_w.operator, w_mu=cd_w.mu, w_basis=cd_w.subspace_basis,
        gens=np.stack(gens)))[0]


def _multi_kernel(st: _Stack, fails: list) -> tuple[_Staged]:
    h = st.horizon
    count = st.gens.shape[1]
    for j in range(count):
        _leaves_subspace(fails, st.w_basis, st.gens[:, j])
        _leaves_subspace(fails, st.basis, st.gens[:, j])
    w_orbits = _orbits(st.w, st.gens, h, fails)
    w_spectra = numkit.spectrum_stack(w_orbits)
    lower = frames.lower_bounds(w_spectra, ambient=False)
    _flag(fails, lower <= w_spectra.cut, lambda i:
          HypothesisViolated("W-orbit system has no lower bound on its span"))
    gen_norms = np.stack([_norms(st.gens[:, j]) for j in range(count)], axis=1)
    t_orbits = _orbits(st.t, st.gens, h, fails)

    def head(i: int) -> tuple[dict, float]:
        lam = max(float(st.w_mu[i]), float(st.mu[i]))
        s_pinv_norm = 1.0 / float(lower[i])  # ||S^+|| on the span
        energy = float(sum(n ** 2 for n in gen_norms[i]))
        threshold = (1.0 - lam**2) / (2.0 * s_pinv_norm)
        return {"lambda": lam, "s_pinv_norm": s_pinv_norm,
                "generator_energy": energy, "threshold": threshold}, \
            threshold - energy

    def extend(idx: list[int], heads: list[dict]) -> None:
        # S^+ W^n g_j is a column of the canonical dual of the W-system
        diffs = np.linalg.norm(w_orbits[idx] - t_orbits[idx], axis=1)
        partials = _dots(diffs, frames.dual_column_norms(w_spectra.take(idx)))
        riesz = _is_riesz(w_spectra)
        for i, v, partial in zip(idx, heads, partials.tolist()):
            lam, energy = v["lambda"], v["generator_energy"]
            tail = 2.0 * v["s_pinv_norm"] * energy * lam ** (2 * h) \
                / (1.0 - lam**2)
            v.update(proof_sum=partial, proof_tail_bound=tail,
                     proof_sum_total=partial + tail,
                     base_is_riesz=1.0 if riesz[i] else 0.0)

    return (_staged("multi_generator_riesz", fails, head,
                    lambda: _bounds(t_orbits, ambient=False), extend),)


_TWO_OPERATOR = ("two_operator_frame", "two_operator_riesz_sum")


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


def _two_operator_kernel(st: _Stack, fails: list,
                         names: tuple = _TWO_OPERATOR) -> tuple[_Staged, ...]:
    """The two-operator certificates ``names`` of a stack; both conclude
    from the W-orbit's bounds."""
    h = st.horizon
    _leaves_subspace(fails, st.basis, st.phi)
    _leaves_subspace(fails, st.w_basis, st.phi)
    t_orbits = _orbits(st.t, st.phi[:, None], h, fails)
    base = numkit.spectrum_stack(t_orbits)
    lower = frames.lower_bounds(base, ambient=True)
    _flag(fails, lower <= base.cut, lambda i:
          HypothesisViolated("T-orbit prefix is not a frame"))
    phi_norms = _norms(st.phi)
    w_orbits = _orbits(st.w, st.phi[:, None], h, fails)
    w_reports = cache(lambda: _bounds(w_orbits, ambient=True))

    def common(i: int) -> tuple[float, float, float]:
        return (float(lower[i]), max(float(st.mu[i]), float(st.w_mu[i])),
                float(phi_norms[i]))

    def frame() -> _Staged:
        def head(i: int) -> tuple[dict, float]:
            a, lam, phi_norm = common(i)
            threshold = math.sqrt(a * (1.0 - lam**2))
            return {"lower_bound": a, "lambda": lam, "phi_norm": phi_norm,
                    "threshold": threshold}, threshold - 2.0 * phi_norm

        return _staged("two_operator_frame", fails, head, w_reports)

    def riesz_sum() -> _Staged:
        diff_sums = np.sum(np.linalg.norm(t_orbits - w_orbits, axis=1) ** 2,
                           axis=1)

        def head(i: int) -> tuple[dict, float]:
            a, lam, phi_norm = common(i)
            diff_sum = float(diff_sums[i])
            tail = 4.0 * phi_norm**2 * lam ** (2 * h) / (1.0 - lam**2)
            return {"lower_bound": a, "lambda": lam, "phi_norm": phi_norm,
                    "difference_sum": diff_sum,
                    "difference_tail_bound": tail}, a - (diff_sum + tail)

        def extend(idx: list[int], heads: list[dict]) -> None:
            spans = frames.lower_bounds(base, ambient=False)
            is_riesz = _is_riesz(base)
            riesz = [i for i in idx if is_riesz[i]]
            combined = dict(zip(riesz, _bounds(
                t_orbits[riesz] + w_orbits[riesz], ambient=False))) \
                if riesz else {}
            for i, v in zip(idx, heads):
                a, lam, phi_norm = v["lower_bound"], v["lambda"], v["phi_norm"]
                gap = v["difference_sum"] + v["difference_tail_bound"]
                v["w_lower_floor"] = (math.sqrt(a) - math.sqrt(gap)) ** 2 \
                    if a - gap > 0 else 0.0
                if i in combined:
                    v["riesz_variant_margin"] = (
                        math.sqrt(float(spans[i]) * (1.0 - lam**2)) - phi_norm)
                    v["combined_span_lower"] = combined[i].a_opt

        return _staged("two_operator_riesz_sum", fails, head, w_reports, extend)

    build = dict(zip(_TWO_OPERATOR, (frame, riesz_sum)))
    return tuple(build[name]() for name in names)


# ---------------------------------------------------------------------------
# the certificate table
# ---------------------------------------------------------------------------

class CertificateKind(NamedTuple):
    """One row of the certificate table.  ``concludes(cert)`` checks the
    conclusion of a certificate whose hypothesis holds, from its own
    conclusion report and bracket at its horizon."""

    params: dict  # JSON schema of params["perturbation:<name>"]
    # (iterable of rngs, bound=None) -> (trial positions, stack) per shape
    # group, one search instance per rng, each drawn before the next rng is
    # taken; with a bound, of the instances whose bound is >= 0 only
    draw: Callable
    kernel: Callable  # (stack, fails) -> (the certificate's _Staged,)
    concludes: Callable
    # one instance's draws -> an upper bound on its margin (README proof)
    bound: Callable | None = None


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


def _draw_groups(draw: Callable, build: Callable, rngs,
                 bound: Callable | None = None) -> list:
    """Each rng's draws by ``draw(rng) -> (shape key, *draws)``, then one
    stack per shape key by ``build(key, draws)``, in order of first
    appearance, with the positions of its instances: with a ``bound``,
    of those whose ``bound((key, *draws)) >= 0``."""
    draws = [draw(rng) for rng in rngs]
    groups: dict = {}
    for i, x in enumerate(draws):
        if bound is None or bound(x) >= 0:
            groups.setdefault(x[0], []).append(i)
    return [(idx, build(key, [draws[i][1:] for i in idx]))
            for key, idx in groups.items()]


def _column(draws: list, k: int) -> np.ndarray:
    """Entry k of each instance's draws, stacked."""
    return np.array([x[k] for x in draws])


def _complex(draws: list, k: int) -> np.ndarray:
    """Entry k of each instance's draws, a pair of real parts and imaginary
    parts, stacked as one complex array."""
    pairs = _column(draws, k)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _draw_contraction(rng, d: int) -> tuple[np.ndarray, float]:
    """The draws of one random contraction: the real and imaginary parts of
    a complex Gaussian matrix and the norm in [0.2, 0.95) it is scaled to
    by :func:`_contractions_of`."""
    return rng.standard_normal((2, d, d)), float(rng.uniform(0.2, 0.95))


def _contractions_of(*draws: list) -> list[np.ndarray]:
    """``(m / ||m||) * target`` for each drawn ``(parts of m, target)``,
    one stack per list of draws (of equal lengths), from one stacked SVD."""
    every = [x for each in draws for x in each]
    m = _complex(every, 0)
    ops = (m / _operator_norms(m)[:, None, None]) \
        * _column(every, 1)[:, None, None]
    return np.split(ops, len(draws))


def _whole_space(t: np.ndarray, w: np.ndarray, **fields) -> _Stack:
    """The stack of T and W contracting on the whole space: no basis, and
    both factors ``||T||`` and ``||W||`` from one stacked SVD."""
    mu, w_mu = np.split(_operator_norms(np.concatenate([t, w])), 2)
    return _Stack(t=t, mu=mu, w=w, w_mu=w_mu, **fields)


def _draw_block(rng, weighted: bool) -> tuple:
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    return ((m, k), float(rng.uniform(0.5, 1.5)),
            rng.uniform(0.05, 0.9, size=k), rng.standard_normal((2, k)),
            float(rng.uniform(0.0, 1.2)),
            float(rng.uniform(0.7, 1.3)) if weighted else None)


def _block_stack(key: tuple, draws: list) -> _Stack:
    """Shift block plus diagonal contraction block, contraction subspace =
    the trailing coordinates, and a psi of norm at most 1.2 inside it."""
    m, k = key
    d, b = m + k, len(draws)
    t = np.zeros((b, d, d), dtype=complex)
    t[:, np.arange(1, m), np.arange(m - 1)] = _column(draws, 0)[:, None]
    t[:, np.arange(m, d), np.arange(m, d)] = _column(draws, 1)
    direction = _complex(draws, 2)
    direction = direction / _norms(direction)[:, None]
    psi = np.zeros((b, d), dtype=complex)
    psi[:, m:] = direction * _column(draws, 3)[:, None]
    weights = tuple(None if r is None else WeightSpec.geometric(r)
                    for *_, r in draws)
    eye = np.eye(d, dtype=complex)[None].repeat(b, axis=0)
    return _Stack(t=t, horizon=m, basis=eye[:, :, m:], phi=eye[:, 0],
                  psi=psi, weights=weights)


def _draw_scaled(rng) -> tuple:
    return (int(rng.integers(2, 6)), float(rng.uniform(0.0, 0.5)),
            float(rng.uniform(0.7, 1.3)))


def _scaled_stack(d: int, draws: list) -> _Stack:
    b = len(draws)
    psi = np.zeros((b, d), dtype=complex)
    psi[:, 0] = _column(draws, 0)
    return _Stack(t=np.repeat(nilpotent_shift(d)[None], b, axis=0), horizon=d,
                  phi=np.eye(1, d, dtype=complex).repeat(b, axis=0), psi=psi,
                  weights=tuple(WeightSpec.geometric(r) for _, r in draws))


def _draw_multi(rng) -> tuple:
    d = int(rng.integers(1, 9))
    w_draw = _draw_contraction(rng, d)
    t_draw = _draw_contraction(rng, d)
    count = int(rng.integers(1, 3))
    gens = [(rng.standard_normal((2, d)), float(rng.uniform(0.1, 2.0)))
            for _ in range(count)]
    return (d, count), w_draw, t_draw, gens


def _multi_stack(key: tuple, draws: list) -> _Stack:
    d, count = key
    gens = [g for *_, gens in draws for g in gens]
    gens = (_complex(gens, 0) * _column(gens, 1)[:, None]).reshape(
        len(draws), count, d)
    w, t = _contractions_of([x[0] for x in draws], [x[1] for x in draws])
    return _whole_space(t, w, horizon=4 * d, gens=gens)


def _draw_two_operator(rng) -> tuple:
    d = int(rng.integers(1, 9))
    t_draw = _draw_contraction(rng, d)
    w_draw = _draw_contraction(rng, d)
    return (d, t_draw, w_draw, rng.standard_normal((2, d)),
            float(rng.uniform(0.2, 2.0)))


# The README's bounds on a margin from one instance's draws, with 1e-12
# relative for rounding: a positive eigenvalue of the frame operator of a
# truncated orbit of a contraction with factor mu <= lambda < 1 is at most
# its trace, sum_{j,n} ||T^n g_j||^2 <= sum_j ||g_j||^2 / (1 - lambda^2).

def _energy_bound(draws: tuple) -> float:
    """``multi_generator_riesz``: at most ``-E / 2``, E the generator
    energy."""
    return (1e-12 - 0.5) * sum(scale * scale * float(np.vdot(parts, parts))
                               for parts, scale in draws[3])


def _phi_bound(draws: tuple) -> float:
    """``two_operator_frame``: at most ``-||phi||``."""
    *_, parts, scale = draws
    return (1e-12 - 1.0) * scale * math.sqrt(float(np.vdot(parts, parts)))


def _two_operator_stack(d: int, draws: list, nearby: bool) -> _Stack:
    """Two random contractions; ``nearby`` draws W within 0.01 of T."""
    t, w = _contractions_of([x[0] for x in draws], [x[1] for x in draws])
    if nearby:
        w = t + 0.01 * w
        norms = _operator_norms(w)
        big = norms >= 1.0
        w[big] = w[big] / (norms[big] + 0.05)[:, None, None]
    phi = _complex(draws, 2) * _column(draws, 3)[:, None]
    return _whole_space(t, w, horizon=4 * d, phi=phi)


# How far a Riesz conclusion's a_opt may fall below ``perturbed_floor``: it
# absorbs the rounding of both.  A fixed slack (README), not yet derived
# from their float noise (ROADMAP item 7).
RIESZ_FLOOR_SLACK = 1e-8


def _riesz_concludes(cert: Certificate) -> bool:
    h, c = cert.hypothesis_values, cert.conclusion_check
    return (h["proof_sum_total"] < 1.0 and c.classification in _RIESZ
            and c.a_opt >= h["perturbed_floor"] - RIESZ_FLOOR_SLACK)


def _frame_concludes(cert: Certificate) -> bool:
    q = cert.bracket["q"]  # None: no whole orbit, the prefix alone
    return cert.conclusion_check.a_opt > 0 and (q is None or q < 1.0)


def _two_operator(name: str, nearby: bool, bound=None) -> CertificateKind:
    """Both two-operator checks report both certificates of an instance;
    the search of each evaluates its own."""
    return CertificateKind(
        _params("horizon", "operator", "phi", "subspace_coords",
                "second_operator", required=["second_operator"]),
        partial(_draw_groups, _draw_two_operator,
                partial(_two_operator_stack, nearby=nearby)),
        partial(_two_operator_kernel, names=(name,)),
        lambda cert: cert.conclusion_check.a_opt > 0, bound)


CERTIFICATES = {
    "riesz_orbit_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS),
        partial(_draw_groups, partial(_draw_block, weighted=False),
                _block_stack),
        _riesz_kernel,
        _riesz_concludes),
    "weighted_frame_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"),
        partial(_draw_groups, partial(_draw_block, weighted=True),
                _block_stack),
        _weighted_kernel,
        _frame_concludes),
    "scaled_generator_perturbation": CertificateKind(
        _params(*_ORBIT_PARAMS, "weights"),
        partial(_draw_groups, _draw_scaled, _scaled_stack),
        _scaled_kernel,
        lambda cert: cert.conclusion_check.classification
        in ("frame", "riesz_basis")),
    "multi_generator_riesz": CertificateKind(
        _params("horizon", "operator", "subspace_coords", "w_operator",
                required=["w_operator"]),
        partial(_draw_groups, _draw_multi, _multi_stack),
        _multi_kernel,
        lambda cert: cert.conclusion_check.classification in _RIESZ,
        _energy_bound),
    "two_operator_frame": _two_operator("two_operator_frame", nearby=False,
                                        bound=_phi_bound),
    "two_operator_riesz_sum": _two_operator("two_operator_riesz_sum",
                                            nearby=True),
}

CERTIFICATE_NAMES = tuple(CERTIFICATES)


# ---------------------------------------------------------------------------
# randomized satisfiability search
# ---------------------------------------------------------------------------

# Trials drawn and evaluated together; memory does not grow with the
# trial count.
SEARCH_CHUNK = 512

# Recorded trials a search keeps, with their hypothesis values: the first,
# in trial order.
KEPT_RECORDS = 10


class SearchReport(NamedTuple):
    certificate: str
    tried: int
    satisfying_count: int  # trials recorded
    satisfying: list[dict]  # the first KEPT_RECORDS of them


class Trial(NamedTuple):
    """One search trial: the searched certificate of its instance, none
    when the instance violates a hard hypothesis."""

    index: int
    dimension: int
    certificates: tuple[Certificate, ...]


def _contracted(st: _Stack, fails: list) -> _Stack:
    """The stack with the contraction factors of T (and W) on its subspace
    where one is given, flagging what :func:`contraction_data` refuses.  On
    the whole space only a factor of one or more is refused, T's first."""
    if st.basis is None:
        for mu in (st.mu, st.w_mu):
            if mu is not None:
                _flag_factor(fails, mu)
        return st
    mu = _contractions(st.t, st.basis, fails)[0]
    w_mu = None if st.w is None else _contractions(st.w, st.basis, fails)[0]
    return st._replace(mu=mu, w_mu=w_mu, w_basis=st.basis)


def _recorded(margin) -> bool:
    """Whether a search records a trial of this margin (or exception)."""
    return not isinstance(margin, Exception) and margin > 0 \
        and math.isfinite(margin)


def search_trials(certificate_name: str, trials: int,
                  seed: int) -> Iterator[Trial]:
    """The trials that :func:`satisfiability_search` evaluates, in order.

    Trial n draws its instance from the stream ``default_rng([seed, n])``
    gives, bit for bit; a chunk's streams are seeded in bulk.  Each chunk
    of trials is drawn first.  A trial whose certificate's ``bound`` is
    negative is dropped: it builds no stack and runs no kernel, so it
    cannot raise, and it is not yielded.  Each shape group (dimension,
    horizon, generator count) of the rest is one stack, evaluated by the
    searched certificate's stacked kernel.  The two-operator and
    multi-generator stacks contract on the whole space: they carry no
    basis, so no projector test runs.  A trial carries that one
    certificate with its margin and verdict; only a kept record (one of
    the first ``KEPT_RECORDS`` trials with a positive, finite margin)
    carries its hypothesis values, and no trial a conclusion check.  The
    public certificate functions verify conclusions.
    """
    kind = CERTIFICATES.get(certificate_name)
    if kind is None:
        raise InvalidInput(f"unknown certificate {certificate_name!r}")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    return _trials(kind, trials, seed)


def _trials(kind: CertificateKind, trials: int, seed: int) -> Iterator[Trial]:
    """The trials of a search, a chunk at a time: the chunk's streams from
    :func:`seeding.trial_streams`, its shape groups drawn, pruned by the
    certificate's bound and refused as :func:`_contracted` refuses, then
    the searched certificate's first stage over each group and its second
    over the records still kept, re-stacked per group."""
    from .seeding import trial_streams

    kept = 0
    for start in range(0, trials, SEARCH_CHUNK):
        numbers = range(start, min(trials, start + SEARCH_CHUNK))
        outcomes, groups = {}, []
        for idx, st in kind.draw(trial_streams(seed, numbers), kind.bound):
            fails = [None] * len(idx)
            (staged,) = kind.kernel(_contracted(st, fails), fails)
            groups.append((idx, staged))
            outcomes.update((i, (st.t.shape[1], m))
                            for i, m in zip(idx, staged.margins))
        keep = sorted(i for i, (_, m) in outcomes.items()
                      if _recorded(m))[:KEPT_RECORDS - kept]
        kept += len(keep)
        values = {}
        for idx, staged in groups:
            if js := [j for j, i in enumerate(idx) if i in keep]:
                values.update(zip([idx[j] for j in js], staged.values(js)))
        for i in sorted(outcomes):
            dimension, m = outcomes[i]
            if isinstance(m, HypothesisViolated):
                out = ()
            elif isinstance(m, Exception):
                raise m
            else:
                out = (Certificate(staged.name, values.get(i, {}), m, m > 0),)
            yield Trial(numbers[i], dimension, out)


def satisfiability_search(certificate_name: str, trials: int,
                          seed: int) -> SearchReport:
    """Randomized probe of a certificate's hypothesis set.

    Each trial draws an instance (dimension <= 8) from a seed-derived
    substream, evaluates the certificate's margin, and records the
    instance when the margin is positive and finite.  The report counts
    every recorded trial and keeps the first ``KEPT_RECORDS``, with their
    hypothesis values.  Instances violating a hard hypothesis, or whose
    certificate's bound rules out a positive margin, count as tried and
    unsatisfying.  Deterministic for a fixed seed.
    """
    found = [(t, c) for t in search_trials(certificate_name, trials, seed)
             for c in t.certificates if _recorded(c.margin)]
    return SearchReport(certificate_name, trials, len(found), [
        {"margin": c.margin, "dimension": t.dimension,
         "hypothesis_values": dict(c.hypothesis_values), "trial": t.index}
        for t, c in found[:KEPT_RECORDS]])
