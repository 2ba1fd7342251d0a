"""Dynamical-sampling constructions and property checkers.

Operator orbits and their truncations, exact infinite-orbit frame
operators through the Stein equation, surjectivity criteria, periodic
(two-sided) orbit models, commutant transport, weighted coefficient
shifts, and divergence proxies for the statements that have no finite
counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames, numkit
from .errors import HypothesisViolated, InvalidInput, NotAFrame
from .frames import OrbitProvenance, VectorSystem
from .numkit import SteinSolution


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Scalar weight sequence: constant, geometric, or an explicit list."""

    kind: str  # "constant" | "geometric" | "explicit"
    value: complex | None = None
    values: tuple[complex, ...] | None = None

    @classmethod
    def constant(cls, c: complex = 1.0) -> "WeightSpec":
        return cls(kind="constant", value=complex(c))

    @classmethod
    def geometric(cls, r: complex) -> "WeightSpec":
        return cls(kind="geometric", value=complex(r))

    @classmethod
    def explicit(cls, seq) -> "WeightSpec":
        return cls(kind="explicit", values=tuple(complex(x) for x in seq))

    def sequence(self, count: int) -> np.ndarray:
        if count < 1:
            raise InvalidInput("weight sequence length must be >= 1")
        if self.kind == "constant":
            out = np.full(count, self.value, dtype=complex)
        elif self.kind == "geometric":
            out = np.asarray(self.value, dtype=complex) ** np.arange(count)
        elif self.kind == "explicit":
            if self.values is None or len(self.values) < count:
                raise InvalidInput(
                    f"explicit weights provide {0 if self.values is None else len(self.values)}"
                    f" values, {count} needed"
                )
            out = np.array(self.values[:count], dtype=complex)
        else:
            raise InvalidInput(f"unknown weight kind {self.kind!r}")
        if np.any(np.abs(out) == 0.0):
            raise InvalidInput("weights must be nonzero scalars")
        return out


# ---------------------------------------------------------------------------
# orbit construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrbitSpec:
    """Recipe for a truncated orbit system {a_n T^n phi}."""

    operator: np.ndarray
    generators: tuple[np.ndarray, ...]
    weights: WeightSpec | None = None
    horizon: int = 1
    index_model: str = "N0"  # "N0" or "Z"
    period: int | None = None


def cyclic_shift(dim: int) -> np.ndarray:
    """Unitary cyclic shift: delta_k -> delta_{k+1 mod dim}."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def nilpotent_shift(dim: int) -> np.ndarray:
    """One-sided shift: delta_k -> delta_{k+1}, delta_dim -> 0."""
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m[k + 1, k] = 1.0
    return m


def orbit(spec: OrbitSpec) -> VectorSystem:
    """Materialize the orbit system, ordered generator-major.

    For each generator phi the run ``a_0 phi, a_1 T phi, ...,
    a_{N-1} T^{N-1} phi`` is appended; weights are carried on the system
    (folded into synthesis columns downstream) and provenance records the
    operator, generators and index model.
    """
    t = numkit.as_operator(spec.operator)
    gens = tuple(numkit.as_vector(g) for g in spec.generators)
    if not gens:
        raise InvalidInput("orbit needs at least one generator")
    if any(g.size != t.shape[0] for g in gens):
        raise InvalidInput("generator dimension does not match the operator")
    if spec.horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    if spec.index_model not in ("N0", "Z"):
        raise InvalidInput(f"unknown index model {spec.index_model!r}")
    if spec.index_model == "Z":
        if spec.period is None or spec.period < 1:
            raise InvalidInput("Z-periodic orbits need a positive period")
        dev = numkit.frobenius(
            np.linalg.matrix_power(t, spec.period) - np.eye(t.shape[0])
        )
        if dev > 1e-10 * max(1.0, math.sqrt(t.shape[0])):
            raise InvalidInput(
                f"operator is not {spec.period}-periodic (deviation {dev:.3e})"
            )

    run_weights = spec.weights.sequence(spec.horizon) if spec.weights else None
    vectors: list[np.ndarray] = []
    for g in gens:
        v = g
        for _ in range(spec.horizon):
            vectors.append(v)
            v = t @ v
    weights = None
    if run_weights is not None:
        weights = np.tile(run_weights, len(gens))
    prov = OrbitProvenance(
        operator=t,
        generators=gens,
        index_model=spec.index_model,
        period=spec.period,
        horizon=spec.horizon,
    )
    return VectorSystem(dim=t.shape[0], vectors=tuple(vectors),
                        weights=weights, provenance=prov)


# ---------------------------------------------------------------------------
# Bessel bound and exact infinite-orbit frame operator
# ---------------------------------------------------------------------------

def bessel_bound_contractive(t, phi) -> float:
    """Upper bound ``||phi||^2 / (1 - ||T||^2)`` valid when ``||T|| < 1``.

    Dominates the optimal upper bound of the full infinite orbit.
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    norm_t = numkit.operator_norm(t)
    if norm_t >= 1.0:
        raise HypothesisViolated(f"operator norm {norm_t:.6g} >= 1")
    return float(np.linalg.norm(phi) ** 2 / (1.0 - norm_t**2))


def orbit_frame_operator_exact(t, phi, tol: float = 1e-12) -> SteinSolution:
    """Frame operator of the full infinite orbit {T^n phi}, n >= 0.

    Computed as the Stein solution of ``S - T S T* = phi phi*``; positive
    definite exactly when the reachability matrix
    ``[phi, T phi, ..., T^{d-1} phi]`` has full rank.
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    if phi.size != t.shape[0]:
        raise InvalidInput("generator dimension does not match the operator")
    return numkit.solve_stein(t, np.outer(phi, phi.conj()), tol=tol)


def reachability_rank(t, phi, rank_tol: float | None = None) -> int:
    """Rank of ``[phi, T phi, ..., T^{d-1} phi]``."""
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    d = t.shape[0]
    cols = [phi]
    for _ in range(d - 1):
        cols.append(t @ cols[-1])
    return numkit.matrix_rank(np.column_stack(cols), rank_tol)


# ---------------------------------------------------------------------------
# surjectivity criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurjectivityReport:
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


def surjectivity_report(t, phi, s, horizon: int | None = None,
                        tol: float = 1e-8) -> SurjectivityReport:
    """Evaluate the surjectivity quadruple against ground truth.

    Criteria: (i) some inner product ``<T^n phi, S^{-1} phi>`` with n >= 1
    is nonzero; (ii) phi lies in the range of T; (iii) ``S^{-1} phi`` is
    not in the kernel of T*; (iv) ``||S^{-1/2} phi|| != 1``.  Ground truth
    is full numerical rank of T.  ``S`` must be positive definite (the
    orbit a frame).
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    s = numkit.as_operator(s)
    d = t.shape[0]
    if horizon is None:
        horizon = 4 * d
    w = np.linalg.eigvalsh((s + numkit.adjoint(s)) / 2.0)
    if w[0] <= tol * max(w[-1], 0.0):
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
    dist = float(np.linalg.norm(phi - t @ (numkit.pinv(t) @ phi)))

    # criterion (iii): norm of T* S^{-1} phi
    adj_norm = float(np.linalg.norm(numkit.adjoint(t) @ s_inv_phi))

    # criterion (iv): |  ||S^{-1/2} phi||  -  1 |
    q = float(np.real(np.vdot(phi, s_inv_phi)))
    crit_iv = abs(math.sqrt(max(q, 0.0)) - 1.0)

    # tail of the canonical expansion of phi (diagnostic)
    tail_coeff = float(np.linalg.norm(coeffs))
    tail_synth = float(np.linalg.norm(tail_vecs @ coeffs))

    ground_truth = numkit.matrix_rank(t) == d
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

@dataclass(frozen=True)
class RangeSpanResult:
    equal: bool
    gap: float


def range_span_check(t, sys: VectorSystem, tol: float = 1e-8) -> RangeSpanResult:
    """Compare the column space of T with the span of the orbit tail.

    The tail drops the n = 0 vector of every generator run.  The gap is
    the spectral norm of the difference of the orthogonal projectors,
    which equals the largest principal-angle sine for subspaces of equal
    dimension and 1 when the dimensions differ.
    """
    t = numkit.as_operator(t)
    prov = sys.provenance
    if prov is None or prov.horizon is None:
        raise InvalidInput("system must carry orbit provenance")
    h = prov.horizon
    cols = []
    for j in range(len(prov.generators)):
        for n in range(1, h):
            cols.append(sys.vectors[j * h + n])
    if not cols:
        raise InvalidInput("orbit horizon too short: tail is empty")
    q_range = numkit.range_basis(t)
    q_tail = numkit.range_basis(np.column_stack(cols))
    p1 = q_range @ numkit.adjoint(q_range)
    p2 = q_tail @ numkit.adjoint(q_tail)
    gap = numkit.operator_norm(p1 - p2) if (p1.size and p2.size) else 1.0
    return RangeSpanResult(equal=gap <= tol, gap=float(gap))


# ---------------------------------------------------------------------------
# frames generated by positive operators
# ---------------------------------------------------------------------------

def frame_from_positive_operator(t, basis: VectorSystem,
                                 tol: float | None = None) -> VectorSystem:
    """System {T^{1/2} e_k} over an ONB; its frame operator equals T.

    Requires T Hermitian positive definite: all eigenvalues above ``tol``
    (default ``1e-10 * lambda_max``).
    """
    t = numkit.as_operator(t)
    w, _ = numkit.eig_hermitian(t)
    cut = 1e-10 * float(w[-1]) if tol is None else float(tol)
    if w[0] <= cut:
        raise InvalidInput(
            f"operator is not positive definite: min eigenvalue {w[0]:.3e}"
        )
    root = numkit.sqrt_psd(t)
    return frames.bessel_from_operator(root, basis)


# ---------------------------------------------------------------------------
# iterated frame operators {S^n g}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IteratedFrameOperatorResult:
    lower_bound_a: float
    prefix_upper_bounds: np.ndarray
    verdict: str  # "cannot-be-frame" | "bounded" | "inconclusive"


# Sustained-growth threshold on the upper bounds over the last doubling
# window; geometric blow-up and linear growth both exceed it, a convergent
# tail does not.
_GROWTH_RATIO = 1.5


def iterated_frame_operator_check(sys: VectorSystem, generators,
                                  horizon: int) -> IteratedFrameOperatorResult:
    """Track upper bounds of {S^n g} prefixes, S the frame operator of sys.

    A frame with lower bound >= 1 forces ``||S^n g||`` to stay bounded away
    from zero, so prefix upper bounds grow without stabilizing; the verdict
    "cannot-be-frame" records that divergence.  Otherwise the verdict is
    "bounded" when the growth ratio over the last doubling window stays
    below the threshold, else "inconclusive".

    The iterates are stored n-major (column ``n r + j`` holds ``S^n g_j``
    for r generators), so prefix m is the first ``m r`` columns.  An
    iterate that overflows float64 raises ``LinAlgError`` before any prefix
    is measured; an upper bound whose square overflows is ``inf``.
    """
    report = frames.frame_bounds(sys, ambient=True)
    if report.a_opt <= report.tol:
        raise NotAFrame("base system is not a frame of the ambient space")
    if horizon < 2:
        raise InvalidInput("horizon must be >= 2")
    iterates = [numkit.as_vector(g) for g in generators]
    s = frames.frame_operator(sys)
    r = len(iterates)

    with np.errstate(over="ignore", invalid="ignore"):
        runs = np.empty((s.shape[0], horizon * r), dtype=complex)
        runs[:, :r] = np.column_stack(iterates)
        for n in range(1, horizon):
            for j in range(r):
                iterates[j] = s @ iterates[j]
                if not np.all(np.isfinite(iterates[j])):
                    raise np.linalg.LinAlgError(
                        f"iterate S^n g is not finite in float64 at n = {n}")
                runs[:, n * r + j] = iterates[j]

        uppers = np.empty(horizon)
        for m in range(1, horizon + 1):
            sv = np.linalg.svd(runs[:, :m * r], compute_uv=False)
            uppers[m - 1] = sv[0] ** 2

        half = max(1, horizon // 2)
        ratio = uppers[-1] / uppers[half - 1] if uppers[half - 1] > 0 else math.inf
    growing = ratio >= _GROWTH_RATIO
    if report.a_opt >= 1.0 and growing:
        verdict = "cannot-be-frame"
    elif not growing:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return IteratedFrameOperatorResult(
        lower_bound_a=report.a_opt, prefix_upper_bounds=uppers, verdict=verdict
    )


# ---------------------------------------------------------------------------
# unitary no-go proxy
# ---------------------------------------------------------------------------

def unitary_nogo_proxy(t, phi, horizons) -> list[float]:
    """Ambient upper bounds of truncated unitary orbits at given horizons.

    For unitary T the trace of the truncated frame operator is
    ``N ||phi||^2``, so the upper bound grows at least like
    ``N ||phi||^2 / dim``: the infinite orbit cannot be a frame.
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    if numkit.frobenius(numkit.adjoint(t) @ t - np.eye(t.shape[0])) > 1e-10:
        raise InvalidInput("operator is not unitary within tolerance")
    out = []
    for n in horizons:
        if n < 1:
            raise InvalidInput("horizons must be positive")
        sys = orbit(OrbitSpec(operator=t, generators=(phi,), horizon=int(n)))
        out.append(frames.frame_bounds(sys, ambient=True).b_opt)
    return out


# ---------------------------------------------------------------------------
# periodic (two-sided) orbit model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeriodicOrbitModel:
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


def _psd_root_pair(s, rel_tol: float = 1e-12):
    """Square root and pseudo-inverse square root of a PSD matrix, both cut
    at ``rel_tol * lambda_max`` on the eigenvalues of ``s`` (thresholding
    after the square root would invert eigenvalue dust amplified from
    eps to sqrt(eps))."""
    w, v = numkit.eig_hermitian(s)
    cut = rel_tol * max(float(w[-1]), 0.0)
    keep = w > cut
    vk = v[:, keep]
    wk = np.sqrt(w[keep])
    root = (vk * wk) @ numkit.adjoint(vk)
    root_pinv = (vk / wk) @ numkit.adjoint(vk)
    projector = vk @ numkit.adjoint(vk)
    return root, root_pinv, projector


def detect_period(t, cap: int = 512, tol: float = 1e-10) -> int:
    """Smallest p <= cap with T^p = I within tolerance."""
    t = numkit.as_operator(t)
    d = t.shape[0]
    eye = np.eye(d)
    power = np.array(t)
    for p in range(1, cap + 1):
        if numkit.frobenius(power - eye) <= tol * max(1.0, math.sqrt(d)):
            return p
        power = power @ t
    raise InvalidInput(f"no period <= {cap} found")


def periodic_orbit_model(t, phi, period: int | None = None, probes: int = 20,
                         seed: int = 0, tol: float = 1e-10) -> PeriodicOrbitModel:
    """Exact one-period model of a two-sided orbit {T^n phi}, T^p = I.

    Computes ``S = sum_{n<p} T^n phi phi* T*^n`` and verifies, numerically:
    the invariance ``T S T* = S``; unitarity of ``U = S^{-1/2} T S^{1/2}``
    (against the projector onto the range of S when the orbit only spans a
    subspace); the norm sandwich ``sqrt(A/B) ||f|| <= ||T^n f|| <=
    sqrt(B/A) ||f||`` over random probes and all |n| <= p; and the bounds
    of the transformed orbit {U^n S^{-1/2} phi}, which land in
    [A/B, B/A].
    """
    t = numkit.as_operator(t)
    phi = numkit.as_vector(phi)
    d = t.shape[0]
    p = detect_period(t) if period is None else int(period)
    dev = numkit.frobenius(np.linalg.matrix_power(t, p) - np.eye(d))
    if dev > 1e-10 * max(1.0, math.sqrt(d)):
        raise InvalidInput(f"operator is not {p}-periodic (deviation {dev:.3e})")

    sys = orbit(OrbitSpec(operator=t, generators=(phi,), horizon=p,
                          index_model="Z", period=p))
    s = frames.frame_operator(sys)
    w = np.linalg.eigvalsh((s + numkit.adjoint(s)) / 2.0)
    span_relative = w[0] <= 1e-12 * max(w[-1], 0.0)
    if span_relative:
        positive = w[w > 1e-12 * max(w[-1], 0.0)]
        lower = float(positive[0]) if positive.size else 0.0
    else:
        lower = float(w[0])
    upper = float(w[-1])

    tst_residual = numkit.frobenius(t @ s @ numkit.adjoint(t) - s)

    root, root_pinv, projector = _psd_root_pair(s)
    u = root_pinv @ t @ root
    # the projector is the identity when the orbit spans
    unitarity_residual = numkit.frobenius(numkit.adjoint(u) @ u - projector)

    # norm sandwich over random probes, restricted to the span if needed
    rng = np.random.default_rng(seed)
    lo = math.sqrt(lower / upper) if upper > 0 else 0.0
    hi = math.sqrt(upper / lower) if lower > 0 else math.inf
    t_inv = np.linalg.matrix_power(t, p - 1)  # T^{-1} since T^p = I
    lower_margin = math.inf
    upper_margin = math.inf
    for _ in range(probes):
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if span_relative:
            f = projector @ f
        norm_f = np.linalg.norm(f)
        if norm_f < 1e-12:
            continue
        fwd = f.copy()
        bwd = f.copy()
        for _ in range(p + 1):
            for vec in (fwd, bwd):
                ratio = np.linalg.norm(vec) / norm_f
                lower_margin = min(lower_margin, ratio - lo)
                upper_margin = min(upper_margin, hi - ratio)
            fwd = t @ fwd
            bwd = t_inv @ bwd

    psi = root_pinv @ phi
    transformed = orbit(OrbitSpec(operator=u, generators=(psi,), horizon=p))
    trep = frames.frame_bounds(transformed, ambient=not span_relative)

    return PeriodicOrbitModel(
        s=s,
        period=p,
        lower=lower,
        upper=upper,
        span_relative=bool(span_relative),
        tst_residual=float(tst_residual),
        unitarity_residual=float(unitarity_residual),
        sandwich_lower_margin=float(lower_margin),
        sandwich_upper_margin=float(upper_margin),
        transformed_lower=trep.a_opt,
        transformed_upper=trep.b_opt,
    )


@dataclass(frozen=True)
class CommutantTransportResult:
    residual: float
    power_residuals: tuple[float, ...]


def commutant_transport(t, v, phi, period: int | None = None,
                        tol: float = 1e-8) -> CommutantTransportResult:
    """Compare frame operators of the orbits of phi and V phi.

    For unitary V commuting with T the one-period frame operator
    transports as ``S~ = V S V*``, and likewise for its powers (n = 1, 2,
    3 are reported).
    """
    t = numkit.as_operator(t)
    v = numkit.as_operator(v)
    phi = numkit.as_vector(phi)
    d = t.shape[0]
    if numkit.frobenius(numkit.adjoint(v) @ v - np.eye(d)) > 1e-10:
        raise InvalidInput("V is not unitary within tolerance")
    if numkit.frobenius(v @ t - t @ v) > tol:
        raise InvalidInput("V does not commute with T within tolerance")
    p = detect_period(t) if period is None else int(period)

    def one_period(g):
        sys = orbit(OrbitSpec(operator=t, generators=(g,), horizon=p,
                              index_model="Z", period=p))
        return frames.frame_operator(sys)

    s = one_period(phi)
    s_tilde = one_period(v @ phi)
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


@dataclass(frozen=True)
class KernelInvarianceResult:
    invariant: bool
    defect: float
    kernel_dim: int
    # The finite shift drops the last coefficient, so the check sees the
    # kernel's projection onto the first N coordinates only.
    tail_truncated: bool = True


def kernel_invariance_check(sys: VectorSystem, tol: float = 1e-8) -> KernelInvarianceResult:
    """Is the synthesis kernel invariant under the weighted right shift?

    For each orthonormal kernel basis vector the component of its shifted
    image (``shift_weighted``, applied to all columns at once) orthogonal
    to the kernel is measured; the defect is the largest such norm.  That
    component is the projection onto the row space, ``(I - B B*) x =
    V_r V_r* x``, whose basis V_r has rank <= d columns where the kernel
    basis B has N - rank.
    """
    if sys.weights is None:
        raise InvalidInput("system must carry weights")
    kernel = frames.kernel_synthesis(sys, tol=min(tol, 1e-10))
    basis = kernel.basis
    if basis.shape[1] == 0:
        return KernelInvarianceResult(invariant=True, defect=0.0, kernel_dim=0)
    a = np.asarray(sys.weights, dtype=complex)
    shifted = np.zeros(basis.shape, dtype=complex)
    shifted[1:] = (a[:-1] / a[1:])[:, None] * basis[:-1]
    rows = kernel.complement
    off = rows @ (numkit.adjoint(rows) @ shifted)
    defect = float(np.max(np.linalg.norm(off, axis=0)))
    return KernelInvarianceResult(invariant=defect <= tol, defect=defect,
                                  kernel_dim=basis.shape[1])


# ---------------------------------------------------------------------------
# weight-ratio bound for orbit frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioBoundResult:
    sup_ratio: float
    bound: float
    margin: float


def ratio_bound_check(sys: VectorSystem, tol: float | None = None) -> RatioBoundResult:
    """Check ``sup_n |a_n / a_{n+1}| <= sqrt(B/A) ||T||`` on an orbit frame."""
    if sys.provenance is None:
        raise InvalidInput("system must carry orbit provenance")
    if sys.weights is None:
        raise InvalidInput("system must carry weights")
    report = frames.frame_bounds(sys, ambient=True, tol=tol)
    if report.a_opt <= report.tol:
        raise NotAFrame("system is not a frame of the ambient space")
    h = sys.provenance.horizon or len(sys)
    run = sys.weights[:h]
    if run.size < 2:
        raise InvalidInput("need at least two weights to form a ratio")
    sup_ratio = float(np.max(np.abs(run[:-1] / run[1:])))
    bound = math.sqrt(report.b_opt / report.a_opt) * numkit.operator_norm(
        sys.provenance.operator
    )
    return RatioBoundResult(sup_ratio=sup_ratio, bound=float(bound),
                            margin=float(bound - sup_ratio))


# ---------------------------------------------------------------------------
# orbit representation residual
# ---------------------------------------------------------------------------

def representation_residual(f_sys: VectorSystem, g_sys: VectorSystem,
                            weights, tol: float = 1e-8) -> float:
    """Residual of the weighted-orbit recursion under a dual pair.

    With f_k the effective system vectors, g_k a dual family and a_n the
    representation weights, measures the largest deviation in

        f_{j+1} = (a_j / a_{j-1}) * sum_k <f_j, g_k> (a_{k-1} / a_k) f_{k+1}

    over 1 <= j <= N-1, the k-sum truncated at N-1.  The pair must satisfy
    the reconstruction identity on the span within ``tol``.
    """
    if f_sys.dim != g_sys.dim or len(f_sys) != len(g_sys):
        raise InvalidInput("dual pair must match in dimension and length")
    a = np.array(weights, dtype=complex).reshape(-1)
    n = len(f_sys)
    if a.size < n:
        raise InvalidInput("need one weight per system vector")
    if np.any(np.abs(a[:n]) == 0.0):
        raise InvalidInput("weights must be nonzero scalars")

    fu = frames.synthesis(f_sys)
    gu = frames.synthesis(g_sys)
    mixed = fu @ numkit.adjoint(gu)
    q = numkit.range_basis(fu)
    projector = q @ numkit.adjoint(q)
    if numkit.operator_norm(mixed - projector) > tol:
        raise InvalidInput("second system is not a dual of the first")

    if n < 2:
        return 0.0
    # All j at once (one-based j, k): coef[k-1, j-1] = <f_j, g_k>, row k
    # carries a_{k-1}/a_k, and column j of the sum is scaled by a_j/a_{j-1}.
    coef = numkit.adjoint(gu[:, :n - 1]) @ fu[:, :n - 1]
    back = (a[:n - 1] / a[1:n])[:, None] * coef
    rhs = (a[1:n] / a[:n - 1]) * (fu[:, 1:n] @ back)
    return float(np.max(np.linalg.norm(fu[:, 1:n] - rhs, axis=0)))
