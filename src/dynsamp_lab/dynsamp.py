"""Dynamical-sampling constructions and property checkers.

Operator orbits and their truncations, exact infinite-orbit frame
operators through the Stein equation, surjectivity criteria, periodic
(two-sided) orbit models, commutant transport, weighted coefficient
shifts, iterated frame operators {S^n g} decided from the spectrum of S,
and divergence proxies for the statements with no finite counterpart.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import frames, numkit
from .errors import HypothesisViolated, InvalidInput, NotAFrame
from .frames import OrbitProvenance, VectorSystem
from .numkit import SteinSolution


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

class WeightSpec(NamedTuple):
    """Scalar weight sequence: constant, geometric, or an explicit list."""

    kind: str  # "constant" | "geometric" | "explicit"
    value: complex | None = None
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, c: complex = 1.0) -> "WeightSpec":
        return cls(kind="constant", value=complex(c))

    @classmethod
    def geometric(cls, r: complex) -> "WeightSpec":
        return cls(kind="geometric", value=complex(r))

    @classmethod
    def explicit(cls, seq) -> "WeightSpec":
        return cls(kind="explicit", values=np.asarray(seq, dtype=complex).reshape(-1))

    # a tuple's own == and != would compare the weight arrays elementwise
    def __eq__(self, other) -> bool:
        return isinstance(other, WeightSpec) and (self.kind, self.value) == (
            other.kind, other.value) and np.array_equal(self.values, other.values)

    def __ne__(self, other) -> bool:
        return not self == other

    def sequence(self, count: int) -> np.ndarray:
        if count < 1:
            raise InvalidInput("weight sequence length must be >= 1")
        if self.kind == "constant":
            out = np.full(count, self.value, dtype=complex)
        elif self.kind == "geometric":
            # a power past float64 is not finite; the orbit guard names its n
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.asarray(self.value, dtype=complex) ** np.arange(count)
        elif self.kind == "explicit":
            if len(self.values) < count:
                raise InvalidInput(f"explicit weights provide {len(self.values)}"
                                   f" values, {count} needed")
            out = self.values[:count]
        else:
            raise InvalidInput(f"unknown weight kind {self.kind!r}")
        zero = np.abs(out) == 0.0
        if zero.any():
            if self.kind == "geometric" and self.value != 0:
                raise InvalidInput(
                    "geometric weight r^n underflows to 0 in float64 at "
                    f"n = {int(np.argmax(zero))} (|r| = {abs(self.value):.6g})")
            raise InvalidInput("weights must be nonzero scalars")
        return out


# ---------------------------------------------------------------------------
# orbit construction
# ---------------------------------------------------------------------------

def cyclic_shift(dim: int) -> np.ndarray:
    """Unitary cyclic shift: delta_k -> delta_{k+1 mod dim}."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def nilpotent_shift(dim: int) -> np.ndarray:
    """One-sided shift: delta_k -> delta_{k+1}, delta_dim -> 0."""
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m[k + 1, k] = 1.0
    return m


def orbit(t, generators, horizon: int,
          weights: WeightSpec | None = None) -> VectorSystem:
    """Materialize the truncated orbit system {a_n T^n phi}, n < horizon,
    ordered generator-major.

    For each generator phi, ``a_0 phi, a_1 T phi, ..., a_{N-1} T^{N-1}
    phi`` are consecutive synthesis columns; provenance records the
    operator, generators and horizon.  When T^p = I, the two-sided orbit
    {T^n phi : n in Z} runs through the p vectors of this orbit at
    horizon p, once per period.  A column that float64 cannot hold raises
    ``LinAlgError`` naming n, with no numpy warning.
    """
    t = numkit.as_operator(t)
    gens = orbit_generators(t, generators, horizon)
    seq = None if weights is None else weights.sequence(horizon)
    u, errors = orbit_stack(t[None], np.array(gens)[None], horizon,
                            None if seq is None else seq[None])
    if errors[0] is not None:
        raise errors[0]
    prov = OrbitProvenance(operator=t, generators=gens, horizon=horizon)
    return VectorSystem(matrix=u[0],
                        weights=None if seq is None else np.tile(seq, len(gens)),
                        provenance=prov)


def orbit_generators(t: np.ndarray, generators, horizon: int) -> tuple:
    """The validated generators of an orbit of the operator ``t``."""
    gens = tuple(numkit.as_vector(g) for g in generators)
    if not gens:
        raise InvalidInput("orbit needs at least one generator")
    if any(g.size != t.shape[0] for g in gens):
        raise InvalidInput("generator dimension does not match the operator")
    if horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    return gens


def orbit_stack(t: np.ndarray, starts: np.ndarray, horizon: int,
                seqs: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """The :func:`orbit` synthesis matrices of a stack of operators ``t``
    (``B x d x d``), generators ``starts`` (``B x G x d``) and weight rows
    ``seqs`` (``B x horizon``): ``B x d x (G horizon)``, one stacked matvec
    per step.  Also, per orbit, the ``LinAlgError`` naming the first n
    whose column float64 cannot hold (that orbit's matrix is zeroed), or
    None."""
    b, g, d = starts.shape
    u = np.empty((b, d, g * horizon), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(g):
            v = starts[:, j, :, None]
            for n in range(horizon):
                u[:, :, j * horizon + n] = v[:, :, 0]
                v = t @ v
        if seqs is not None:
            u *= np.tile(seqs, g)[:, None, :]
    finite = np.isfinite(u).all(axis=1).reshape(b, g, horizon).all(axis=1)
    errors = [None] * b
    for i in np.flatnonzero(~finite.all(axis=1)):
        errors[i] = np.linalg.LinAlgError(
            "orbit vector a_n T^n phi is not finite in float64 at "
            f"n = {np.argmin(finite[i])}")
        u[i] = 0.0
    return u, errors


# ---------------------------------------------------------------------------
# Bessel bound and exact infinite-orbit frame operator
# ---------------------------------------------------------------------------

def bessel_bound_contractive(spectrum: numkit.Spectrum, *generators) -> float:
    """Upper bound ``sum_phi ||phi||^2 / (1 - ||T||^2)`` over the
    ``generators``, valid when ``||T|| < 1``; ``||T||`` is the largest
    singular value in ``spectrum``, the :class:`numkit.Spectrum` of T.

    Dominates the optimal upper bound of the full infinite orbit.  A bound
    that float64 cannot hold raises ``LinAlgError``.
    """
    gens = orbit_generators(spectrum.u, generators, horizon=1)
    norm_t = float(spectrum.s[0])
    if norm_t >= 1.0:
        raise HypothesisViolated(f"operator norm {norm_t:.6g} >= 1")
    with np.errstate(over="ignore"):
        bound = sum(float(np.linalg.norm(phi) ** 2 / (1.0 - norm_t**2))
                    for phi in gens)
    return numkit.finite(
        bound, "contractive Bessel bound sum ||phi||^2 / (1 - ||T||^2)")


def generator_frame_operator(t, generators) -> np.ndarray:
    """C = sum_phi phi phi* over the ``generators`` of an orbit of the
    operator ``t``: positive semidefinite by construction, so it is not
    eigensolved.  A C that float64 cannot hold raises ``LinAlgError``."""
    t = numkit.as_operator(t)
    c = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for phi in orbit_generators(t, generators, horizon=1):
            c += np.outer(phi, phi.conj())
    return numkit.finite(c, "C = sum phi phi*")


def orbit_frame_operator_exact(t, generators, spectrum: numkit.Spectrum,
                               tol: float = 1e-12) -> SteinSolution:
    """Frame operator of the full infinite orbit {T^n phi}, n >= 0, of the
    ``generators`` phi; ``spectrum`` is the :class:`numkit.Spectrum` of T.

    Computed as the Stein solution of ``S - T S T* = C``, with C the
    :func:`generator_frame_operator`, to ``numkit.stein_doubling``'s
    relative residual ``tol``.  For one generator, S is positive definite
    exactly when the reachability matrix ``[phi, T phi, ..., T^{d-1} phi]``
    has full rank.
    """
    return numkit.stein_doubling(t, generator_frame_operator(t, generators),
                                 spectrum, tol=tol)


def reachability_rank(t, phi) -> int:
    """Rank of ``[phi, T phi, ..., T^{d-1} phi]``, the orbit at horizon d."""
    t = numkit.as_operator(t)
    # numpy's max(shape) * eps * sigma_max rule, not the Spectrum cut: Krylov
    # singular values decay exponentially (Beckermann 2000), to sigma^2 ratios
    # of 5.9e-15 on reachable d <= 6 pairs; orbit-bounds needs a cut >= 1e-14.
    return int(np.linalg.matrix_rank(
        frames.synthesis(orbit(t, (phi,), t.shape[0]))))


# ---------------------------------------------------------------------------
# surjectivity criteria
# ---------------------------------------------------------------------------

class SurjectivityReport(NamedTuple):
    """Four equivalent surjectivity criteria evaluated on one orbit frame.

    ``witness_index`` is the first n >= 1 with
    ``|<T^n phi, S^{-1} phi>| > tol`` (None when no witness exists up to the
    horizon).  ``tail_coefficient_norm`` and ``tail_synthesized_norm``
    expose the tail of the canonical expansion of phi so the
    vanishing-coefficient step behind criterion (iv) can be inspected
    empirically.
    """

    witness_index: int | None
    criterion_i: float
    criterion_ii: float
    criterion_iii: float
    criterion_iv: float
    verdict_i: bool
    verdict_ii: bool
    verdict_iii: bool
    verdict_iv: bool
    ground_truth_surjective: bool
    consistent: bool
    tail_coefficient_norm: float
    tail_synthesized_norm: float


def surjectivity_report(t, phi, stein: SteinSolution,
                        spectrum: numkit.Spectrum, horizon: int | None = None,
                        tol: float = 1e-8) -> SurjectivityReport:
    """Evaluate the surjectivity quadruple against ground truth.

    ``stein`` is the orbit's :func:`orbit_frame_operator_exact` S with its
    eigenvalues, and ``spectrum`` the :class:`numkit.Spectrum` of T.
    Criteria: (i) some inner product ``<T^n phi, S^{-1} phi>`` with n >= 1
    is nonzero; (ii) phi lies in the range of T, measured with the
    spectrum's T^+; (iii) ``S^{-1} phi`` is not in the kernel of T*; (iv)
    ``||S^{-1/2} phi|| != 1``.  Ground truth is full rank of T, the
    spectrum's rank, and ``S`` must be positive definite (the orbit a
    frame), both at ``numkit.rank_cut``; ``tol`` only compares criteria.
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    s = stein.s
    d = t.shape[0]
    if horizon is None:
        horizon = 4 * d
    if numkit.rank_cut(stein.eigenvalues)[1] < d:
        raise NotAFrame("frame operator is not positive definite within tolerance")

    s_inv_phi = np.linalg.solve(s, phi)

    # the orbit tail T^n phi, n = 1..horizon, walked once; coeffs[n-1] is
    # <S^{-1} phi, T^n phi>, shared by criterion (i) and the tail diagnostic
    tail_vecs = np.empty((d, horizon), dtype=complex)
    v = phi
    for n in range(horizon):
        v = t @ v
        tail_vecs[:, n] = v
    coeffs = numkit.adjoint(tail_vecs) @ s_inv_phi

    # criterion (i): first witness along the orbit tail
    values = np.abs(coeffs)
    max_inner = float(values.max())
    above = np.flatnonzero(values > tol)
    witness = int(above[0]) + 1 if above.size else None

    # criterion (ii): distance of phi to the range of T
    dist = float(np.linalg.norm(phi - t @ (spectrum.pinv @ phi)))

    # criterion (iii): norm of T* S^{-1} phi
    adj_norm = float(np.linalg.norm(numkit.adjoint(t) @ s_inv_phi))

    # criterion (iv): |  ||S^{-1/2} phi||  -  1 |
    q = float(np.real(np.vdot(phi, s_inv_phi)))
    crit_iv = abs(math.sqrt(max(q, 0.0)) - 1.0)

    # tail of the canonical expansion of phi (diagnostic)
    tail_coeff = float(np.linalg.norm(coeffs))
    tail_synth = float(np.linalg.norm(tail_vecs @ coeffs))

    ground_truth = spectrum.rank == d
    verdict_i = max_inner > tol
    verdict_ii = dist <= tol
    verdict_iii = adj_norm > tol
    verdict_iv = crit_iv > tol
    consistent = all(v == ground_truth
                     for v in (verdict_i, verdict_ii, verdict_iii, verdict_iv))
    return SurjectivityReport(
        witness_index=witness,
        criterion_i=max_inner,
        criterion_ii=dist,
        criterion_iii=adj_norm,
        criterion_iv=crit_iv,
        verdict_i=verdict_i,
        verdict_ii=verdict_ii,
        verdict_iii=verdict_iii,
        verdict_iv=verdict_iv,
        ground_truth_surjective=ground_truth,
        consistent=consistent,
        tail_coefficient_norm=tail_coeff,
        tail_synthesized_norm=tail_synth,
    )


# ---------------------------------------------------------------------------
# range versus orbit-tail span
# ---------------------------------------------------------------------------

class RangeSpanResult(NamedTuple):
    equal: bool
    gap: float


def range_span_check(t, sys: VectorSystem) -> RangeSpanResult:
    """Compare the column space of T with the span of the orbit tail.

    The tail drops the n = 0 vector of every generator run.  The gap is
    the spectral norm of the difference of the orthogonal projectors,
    which equals the largest principal-angle sine for subspaces of equal
    dimension and 1 when the dimensions differ; the spaces are equal when
    it is at most 1e-8.
    """
    t = numkit.as_operator(t)
    prov = sys.provenance
    if prov is None:
        raise InvalidInput("system must carry orbit provenance")
    h = prov.horizon
    if h < 2:
        raise InvalidInput("orbit horizon too short: tail is empty")
    # nonzero weights leave the span of the tail as it is
    u = frames.synthesis(sys)
    tail = u.reshape(sys.dim, len(prov.generators), h)[:, :, 1:]
    q_range = numkit.range_basis(t)
    q_tail = numkit.range_basis(tail.reshape(sys.dim, -1))
    p1 = q_range @ numkit.adjoint(q_range)
    p2 = q_tail @ numkit.adjoint(q_tail)
    gap = numkit.operator_norm(p1 - p2) if (p1.size and p2.size) else 1.0
    return RangeSpanResult(equal=gap <= 1e-8, gap=float(gap))


# ---------------------------------------------------------------------------
# frames generated by positive operators
# ---------------------------------------------------------------------------

def frame_from_positive_operator(t, basis: VectorSystem) -> VectorSystem:
    """System {T^{1/2} e_k} over an ONB; its frame operator equals T.

    Requires T Hermitian positive definite at ``numkit.rank_cut``.
    """
    w, v = numkit.eig_hermitian(t)
    if numkit.rank_cut(w)[1] < w.size:
        raise InvalidInput(
            f"operator is not positive definite: min eigenvalue {w[0]:.3e}"
        )
    # the root V diag(sqrt(w)) V* from the one eigendecomposition
    root = (v * np.sqrt(w)) @ numkit.adjoint(v)
    return frames.bessel_from_operator(root, basis)


# ---------------------------------------------------------------------------
# iterated frame operators {S^n g}
# ---------------------------------------------------------------------------

class IteratedFrameOperatorResult(NamedTuple):
    lower_bound_a: float
    verdict: str  # "cannot-be-frame" | "not-bessel" | "bessel" | "inconclusive"
    unbounded_norm: float  # ||G||_F on lambda >= 1 - delta
    upper_bound: float  # of the whole family; inf unless "bessel"
    horizons: tuple[int, ...]  # 1, 2, 4, ..., horizon
    log10_upper_bounds: np.ndarray  # of the prefixes n < m, m in horizons


def iterated_frame_operator_check(sys: VectorSystem, generators,
                                  horizon: int) -> IteratedFrameOperatorResult:
    """Decide whether {S^n g_j}, n >= 0, is Bessel from the spectrum
    ``S = U diag(lambda) U*`` of sys (a frame, so U is square).  With
    ``c = U* G``, prefix n < m has upper bound ``lambda_max(K_m o c c*)``,
    ``(K_m)_ij = sum_{n<m} (lambda_i lambda_j)^n``; the family is Bessel
    exactly when G has no component on lambda >= 1, with the bound at m = inf.
    Rounding floors: ``delta = 2 max(d, N) eps lambda_max`` on lambda and
    ``max(d, N) eps ||G||_F`` on G.  Verdict: "cannot-be-frame" if sys has
    lower bound >= 1; "not-bessel" if G has an above-floor component on
    lambda > 1 + delta; "bessel" if its component on lambda >= 1 - delta is
    within the floor (and dropped from the bound); else "inconclusive".
    ``LinAlgError`` if ``||G||_F^2`` or the bound overflows float64.
    """
    report = frames.frame_bounds(sys, ambient=True)
    if report.a_opt <= report.tol:
        raise NotAFrame("base system is not a frame of the ambient space")
    sp = sys.spectrum
    c = numkit.adjoint(sp.u) @ np.column_stack(  # {S^n g}: orbits under S
        orbit_generators(sp.u, generators, horizon))
    lam = sp.s**2
    with np.errstate(over="ignore"):
        c_norm = numkit.finite(numkit.frobenius(c), "||G||_F^2 of the generators")
    size = max(sys.dim, len(sys)) * np.finfo(float).eps
    delta, floor = 2.0 * size * lam[0], size * c_norm
    unbounded_norm = numkit.frobenius(c[lam >= 1.0 - delta])
    verdict = ("cannot-be-frame" if report.a_opt >= 1.0
               else "not-bessel" if numkit.frobenius(c[lam > 1.0 + delta]) > floor
               else "bessel" if unbounded_norm <= floor else "inconclusive")
    keep = lam < 1.0 - delta
    try:
        upper_bound = math.exp(_log_prefix_bounds(sp.s[keep], c[keep], [math.inf])[0]) \
            if verdict == "bessel" else math.inf
    except OverflowError:
        raise np.linalg.LinAlgError("upper bound of the Bessel family {S^n g} "
                                    "is not finite in float64") from None
    horizons = tuple(1 << k for k in range(int(horizon).bit_length())
                     if 1 << k < horizon) + (horizon,)
    return IteratedFrameOperatorResult(
        report.a_opt, verdict, unbounded_norm, upper_bound, horizons,
        _log_prefix_bounds(sp.s, c, horizons) / math.log(10.0))


def _log_prefix_bounds(s: np.ndarray, c: np.ndarray, horizons) -> np.ndarray:
    """ln ``lambda_max(K_m o c c*)`` at each m, ``lambda = s^2``, from entries
    ``u_i u_j* exp(a_ij)``: unit rows ``u_i = c_i / rho_i``, ``a_ij = ln
    rho_i + ln rho_j + ln (K_m)_ij``.  Divided by its largest diagonal entry,
    the matrix has lambda_max in [1, d]: nothing overflows or underflows."""
    rho = np.linalg.norm(c, axis=1)
    live = rho > 0
    if not live.any():
        return np.full(len(horizons), -math.inf)
    unit = c[live] / rho[live, None]
    log_s, log_rho = np.log(s[live]), np.log(rho[live])
    y = 2.0 * np.add.outer(log_s, log_s)  # ln(lambda_i lambda_j)
    base, ay = np.add.outer(log_rho, log_rho), np.abs(y)
    # entries below 1e-150 of the largest are zeroed, which keeps eigvalsh off
    # subnormals; by Weyl, lambda_max moves by at most d * 1e-150
    gram = unit @ numkit.adjoint(unit)
    gram[np.abs(gram) < 1e-150] = 0.0
    out = []
    for m in horizons:
        # sum_{n<m} e^{ny} = e^{(m-1) max(y, 0)} (1 - e^{-m|y|}) / (1 - e^{-|y|})
        with np.errstate(invalid="ignore"):  # 0 / 0 at y = 0, where it is m
            a = base + np.maximum((m - 1) * y, 0.0) + np.log(np.where(
                ay > 0.0, np.expm1(-m * ay) / np.expm1(-ay), m))
        sigma = np.max(np.diagonal(a))
        e = a - sigma
        e[e < math.log(1e-150)] = -np.inf
        out.append(sigma + math.log(np.linalg.eigvalsh(gram * np.exp(e))[-1]))
    return np.array(out)


# ---------------------------------------------------------------------------
# unitary no-go proxy
# ---------------------------------------------------------------------------

def unitary_nogo_proxy(t, phi, horizons) -> list[float]:
    """Ambient upper bounds of truncated unitary orbits at given horizons.

    For unitary T the trace of the truncated frame operator is
    ``N ||phi||^2``, so the upper bound grows at least like
    ``N ||phi||^2 / dim``: the infinite orbit cannot be a frame.  One
    orbit is walked to the largest horizon; the truncation at N is its
    first N vectors.
    """
    t = numkit.as_operator(t)
    if numkit.frobenius(numkit.adjoint(t) @ t - np.eye(t.shape[0])) > 1e-10:
        raise InvalidInput("operator is not unitary within tolerance")
    horizons = [int(n) for n in horizons]
    if min(horizons, default=0) < 1:
        raise InvalidInput("horizons must be positive")
    u = frames.synthesis(orbit(t, (phi,), max(horizons)))
    return [frames.frame_bounds(VectorSystem(matrix=u[:, :n])).b_opt
            for n in horizons]


# ---------------------------------------------------------------------------
# periodic (two-sided) orbit model
# ---------------------------------------------------------------------------

class PeriodicOrbitModel(NamedTuple):
    """One-period frame operator identities for T with T^p = I."""

    s: np.ndarray
    period: int
    lower: float
    upper: float
    span_relative: bool
    tst_residual: float
    unitarity_residual: float
    sandwich_lower_margin: float
    sandwich_upper_margin: float
    transformed_lower: float
    transformed_upper: float


# T^p = I is accepted when ||T^p - I||_F <= _PERIOD_TOL * max(1, sqrt(d)).
_PERIOD_TOL = 1e-10


def detect_period(t) -> int:
    """Smallest p <= 512 with T^p = I within tolerance."""
    t = numkit.as_operator(t)
    d = t.shape[0]
    eye = np.eye(d)
    power = np.array(t)
    for p in range(1, 513):
        if numkit.frobenius(power - eye) <= _PERIOD_TOL * max(1.0, math.sqrt(d)):
            return p
        power = power @ t
    raise InvalidInput("no period <= 512 found")


def _period(t: np.ndarray, period: int | None) -> int:
    """The period of T: detected, or ``period`` verified to give T^p = I."""
    if period is None:
        return detect_period(t)
    p = int(period)
    if p < 1:
        raise InvalidInput("period must be >= 1")
    dev = numkit.frobenius(np.linalg.matrix_power(t, p) - np.eye(t.shape[0]))
    if dev > _PERIOD_TOL * max(1.0, math.sqrt(t.shape[0])):
        raise InvalidInput(f"operator is not {p}-periodic (deviation {dev:.3e})")
    return p


def periodic_orbit_model(t, phi, period: int | None = None) -> PeriodicOrbitModel:
    """Exact one-period model of a two-sided orbit {T^n phi}, T^p = I.

    The orbit at horizon p is the two-sided orbit, one period of it, with
    ``S = sum_{n<p} T^n phi phi* T*^n``.  Its bounds, rank, ``S^{1/2}``,
    ``S^{+1/2}`` and the projector onto its span all come from the orbit's
    one spectrum, ``S^{1/2} = U_r Sigma_r U_r*``.  Verified numerically:
    the invariance ``T S T* = S``; unitarity of ``U = S^{+1/2} T S^{1/2}``
    (against the span projector when the orbit only spans a subspace);
    the norm sandwich ``sqrt(A/B) ||f|| <= ||T^n f|| <= sqrt(B/A) ||f||``
    on the span for all n in Z, exactly, from the extreme singular values
    of ``T^n U_r`` (``inf`` margins at rank 0); and the bounds of the
    transformed orbit {U^n S^{+1/2} phi}, which land in [A/B, B/A].
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    p = _period(t, period)

    sys = orbit(t, (phi,), p)
    s = frames.frame_operator(sys)
    bounds = frames.frame_bounds(sys, ambient=False)
    lower, upper = bounds.a_opt, bounds.b_opt
    span_relative = bounds.rank < t.shape[0]

    tst_residual = numkit.frobenius(t @ s @ numkit.adjoint(t) - s)

    sp = sys.spectrum
    ur, sr = sp.range_basis, sp.s[:sp.rank]
    root = (ur * sr) @ numkit.adjoint(ur)
    root_pinv = (ur / sr) @ numkit.adjoint(ur)
    projector = ur @ numkit.adjoint(ur)
    u = root_pinv @ t @ root
    # the projector is the identity when the orbit spans
    unitarity_residual = numkit.frobenius(numkit.adjoint(u) @ u - projector)

    # the norm sandwich, exactly: sigma(T^n) on the span for 0 <= n <= p/2
    # is enough, since T maps the span onto itself and there T^{-n} =
    # T^{p-n} inverts T^n, with the reciprocal singular values
    lo = math.sqrt(lower / upper) if upper > 0 else 0.0
    hi = math.sqrt(upper / lower) if lower > 0 else math.inf
    lower_margin = upper_margin = math.inf
    power = ur
    for _ in range(p // 2 + 1 if sp.rank else 0):
        sv = np.linalg.svd(power, compute_uv=False)
        lower_margin = min(lower_margin, min(sv[-1], 1.0 / sv[0]) - lo)
        upper_margin = min(upper_margin, hi - max(sv[0], 1.0 / sv[-1]))
        power = t @ power

    transformed = orbit(u, (root_pinv @ phi,), p)
    trep = frames.frame_bounds(transformed, ambient=not span_relative)

    return PeriodicOrbitModel(
        s=s,
        period=p,
        lower=lower,
        upper=upper,
        span_relative=span_relative,
        tst_residual=float(tst_residual),
        unitarity_residual=float(unitarity_residual),
        sandwich_lower_margin=float(lower_margin),
        sandwich_upper_margin=float(upper_margin),
        transformed_lower=trep.a_opt,
        transformed_upper=trep.b_opt,
    )


class CommutantTransportResult(NamedTuple):
    residual: float
    power_residuals: tuple[float, ...]


def commutant_transport(t, v, phi,
                        period: int | None = None) -> CommutantTransportResult:
    """Compare frame operators of the orbits of phi and V phi.

    For unitary V (within 1e-10) commuting with T (within 1e-8) the
    one-period frame operator transports as ``S~ = V S V*``, and likewise
    for its powers (n = 1, 2, 3 are reported).
    """
    t = numkit.as_operator(t)
    v = numkit.as_operator(v)
    phi = numkit.as_vector(phi)
    d = t.shape[0]
    if numkit.frobenius(numkit.adjoint(v) @ v - np.eye(d)) > 1e-10:
        raise InvalidInput("V is not unitary within tolerance")
    if numkit.frobenius(v @ t - t @ v) > 1e-8:
        raise InvalidInput("V does not commute with T within tolerance")
    p = _period(t, period)
    s = frames.frame_operator(orbit(t, (phi,), p))
    s_tilde = frames.frame_operator(orbit(t, (v @ phi,), p))
    transported = v @ s @ numkit.adjoint(v)
    residual = numkit.frobenius(s_tilde - transported)
    powers = tuple(
        float(numkit.frobenius(
            np.linalg.matrix_power(s_tilde, n)
            - v @ np.linalg.matrix_power(s, n) @ numkit.adjoint(v)
        ))
        for n in (1, 2, 3)
    )
    return CommutantTransportResult(residual=float(residual),
                                    power_residuals=powers)


# ---------------------------------------------------------------------------
# weighted coefficient shift and kernel invariance
# ---------------------------------------------------------------------------

def shift_weighted(a, c) -> np.ndarray:
    """Weighted right shift on coefficients.

    ``out[0] = 0`` and ``out[k] = (a[k-1] / a[k]) * c[k-1]``; the last
    input coefficient is dropped by the truncation.
    """
    a = np.array(a, dtype=complex).reshape(-1)
    c = np.array(c, dtype=complex).reshape(-1)
    if a.size != c.size:
        raise InvalidInput("weights and coefficients must have equal length")
    if np.any(np.abs(a) == 0.0):
        raise InvalidInput("weights must be nonzero scalars")
    out = np.zeros_like(c)
    if c.size > 1:
        out[1:] = (a[:-1] / a[1:]) * c[:-1]
    return out


class KernelInvarianceResult(NamedTuple):
    invariant: bool
    defect: float
    kernel_dim: int
    # The finite shift drops the last coefficient, so the check sees the
    # kernel's projection onto the first N coordinates only.
    tail_truncated: bool = True


def kernel_invariance_check(sys: VectorSystem, tol: float = 1e-8) -> KernelInvarianceResult:
    """Is the synthesis kernel invariant under the weighted right shift L?

    L shifts within each generator's run.  The kernel is the range of
    I - P, so the part of its shifted image that leaves the kernel is
    P L (I - P), whose norm is that of D_r = V_r* L (I - P), the first r
    rows of the system's :attr:`frames.VectorSystem.shift_defect`.  The
    defect is the basis-free ``||D_r||_2 = sqrt(lambda_max(D_r D_r*))``,
    the largest norm that a unit kernel vector's shifted image has off
    the kernel; no kernel basis is formed.  A kernel of dimension 0 or N
    is invariant, with defect 0.
    """
    if sys.weights is None:
        raise InvalidInput("system must carry weights")
    r, n = sys.spectrum.rank, len(sys)
    if r in (0, n):
        return KernelInvarianceResult(invariant=True, defect=0.0,
                                      kernel_dim=n - r)
    d_r = sys.shift_defect[:r]
    lam = np.linalg.eigvalsh(d_r @ numkit.adjoint(d_r))[-1]
    defect = math.sqrt(max(float(lam), 0.0))
    return KernelInvarianceResult(invariant=defect <= tol, defect=defect,
                                  kernel_dim=n - r)


# ---------------------------------------------------------------------------
# weight-ratio bound for orbit frames
# ---------------------------------------------------------------------------

class RatioBoundResult(NamedTuple):
    sup_ratio: float
    bound: float
    margin: float


def ratio_bound_check(sys: VectorSystem,
                      spectrum: numkit.Spectrum) -> RatioBoundResult:
    """Check ``sup_n |a_n / a_{n+1}| <= sqrt(B/A) ||T||`` on an orbit frame,
    with ``||T||`` the largest singular value in ``spectrum``, the
    :class:`numkit.Spectrum` of the orbit's operator T."""
    if sys.provenance is None:
        raise InvalidInput("system must carry orbit provenance")
    if sys.weights is None:
        raise InvalidInput("system must carry weights")
    report = frames.frame_bounds(sys, ambient=True)
    if report.a_opt <= report.tol:
        raise NotAFrame("system is not a frame of the ambient space")
    run = sys.weights[:sys.provenance.horizon]
    if run.size < 2:
        raise InvalidInput("need at least two weights to form a ratio")
    sup_ratio = float(np.max(np.abs(run[:-1] / run[1:])))
    bound = math.sqrt(report.b_opt / report.a_opt) * float(spectrum.s[0])
    return RatioBoundResult(sup_ratio=sup_ratio, bound=float(bound),
                            margin=float(bound - sup_ratio))


# ---------------------------------------------------------------------------
# orbit representation residual
# ---------------------------------------------------------------------------

def representation_residual(sys: VectorSystem) -> float:
    """Residual of the weighted-orbit recursion under the canonical dual.

    With f_k the effective system vectors, g_k the canonical dual and a_n
    the system's weights, measures the largest deviation in

        f_{j+1} = (a_j / a_{j-1}) * sum_k <f_j, g_k> (a_{k-1} / a_k) f_{k+1}

    over the j whose f_{j+1} is in f_j's generator run.  From the spectrum
    F = U Sigma V*, with L the block shift of :func:`frames.shift_ratios`
    and P = V_r V_r* (so G* F = P), the deviation at j is F L (I - P) e_j
    / (a_j / a_{j+1}); U has orthonormal columns, so its norm is that of
    Sigma D e_j, with D the :attr:`frames.VectorSystem.shift_defect`.
    """
    ratio, shifted = frames.shift_ratios(sys)
    sp = sys.spectrum
    if sp.rank == 0:
        raise NotAFrame("system has no positive lower frame bound on its span")
    # ||Sigma D e_j||^2 on D's first N - 1 columns, read where L shifts:
    # summed row by row, in np.linalg.norm's order, so no copy of D is formed
    sq = np.zeros(len(sys) - 1)
    for s_i, row in zip(sp.s, sys.shift_defect[:, :-1]):
        y = row * s_i
        sq += (y.conj() * y).real
    return float(np.max(np.sqrt(sq)[shifted] / np.abs(ratio[shifted]),
                        initial=0.0))
