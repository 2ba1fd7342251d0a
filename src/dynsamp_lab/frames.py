"""Frame theory of finite vector systems.

Synthesis and frame operators, optimal bounds with classification,
canonical duals, mixed frame operators, synthesis kernels, and lower
Riesz profiles.  A system is stored as its synthesis matrix, with
optional nonzero scalar weights folded into the columns.  Its one
:class:`numkit.Spectrum` decides the rank of every derived quantity.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import numkit
from .errors import InvalidInput, NotAFrame

CLASSIFICATIONS = (
    "frame",
    "frame_sequence",
    "bessel_only",
    "riesz_sequence",
    "riesz_basis",
)


class OrbitProvenance(NamedTuple):
    """How an orbit system was generated: the operator, the generators and
    the horizon, each generator's run being ``horizon`` vectors long."""

    operator: np.ndarray
    generators: tuple[np.ndarray, ...]
    horizon: int


class VectorSystem:
    """Ordered family of vectors in C^dim, stored as its read-only
    synthesis matrix (dim x N, weights folded in; float64 when the vectors
    and weights are real, else complex128); its spectrum and shift-defect
    matrix, once each, of the same kind."""

    def __init__(self, matrix: np.ndarray, weights: np.ndarray | None = None,
                 provenance: OrbitProvenance | None = None):
        matrix.flags.writeable = False
        self.matrix = matrix
        self.weights = weights
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def spectrum(self) -> numkit.Spectrum:
        return numkit.spectrum(self.matrix)

    @cached_property
    def shift_defect(self) -> np.ndarray:
        """D = V* L (I - P), min(d, N) x N and read-only: V* from the
        spectrum, L the weighted right shift of :func:`shift_ratios` within
        each generator's run, P = V_r V_r* the kept row space, applied twice
        to make the rows orthogonal to V_r to working precision (Giraud,
        Langou & Rozloznik 2005, Comput. Math. Appl. 50).  Kernel invariance
        reads its first r rows, the representation residual all of them."""
        ratio, _ = shift_ratios(self)
        sp = self.spectrum
        kept = sp.vh[:sp.rank]
        out = np.zeros(sp.vh.shape, dtype=np.result_type(sp.vh, ratio))
        out[:, :-1] = sp.vh[:, 1:] * ratio
        for _ in range(2):
            out -= (out @ numkit.adjoint(kept)) @ kept
        out.flags.writeable = False
        return out


def shift_ratios(sys: VectorSystem) -> tuple[np.ndarray, np.ndarray]:
    """L's subdiagonal, L e_k = (a_k / a_{k+1}) e_{k+1} (a the weights),
    and the mask of the k < N - 1 it shifts: L e_k = 0 at the end of each
    generator's run of h = horizon columns (one run without provenance),
    as f_{j+1,0} != T f_{j,h-1}.  A shifted ratio that is 0 or not finite
    in float64 raises ``LinAlgError`` naming k, with no numpy warning."""
    if sys.weights is None:
        raise InvalidInput("system must carry weights")
    a, n = sys.weights, len(sys)
    h = n if sys.provenance is None else sys.provenance.horizon
    shifted = np.arange(n - 1) % h != h - 1
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.where(shifted, a[:-1] / a[1:], 0.0)
    bad = shifted & ~(np.isfinite(ratio) & (ratio != 0))
    if bad.any():
        raise np.linalg.LinAlgError(
            "weight ratio a_k / a_{k+1} is 0 or not finite in float64 at "
            f"k = {np.argmax(bad)}")
    return ratio, shifted


def vector_system(vectors, weights=None, provenance=None) -> VectorSystem:
    """Validated constructor: common dimension, finite entries, nonzero weights."""
    vecs = [numkit.as_vector(v) for v in vectors]
    if not vecs:
        raise InvalidInput("a vector system needs at least one vector")
    if any(v.size != vecs[0].size for v in vecs):
        raise InvalidInput("all vectors must share the same dimension")
    u = np.column_stack(vecs)
    w = None
    if weights is not None:
        w = numkit.inexact(weights).reshape(-1)
        if w.size != len(vecs):
            raise InvalidInput("weights length must match the number of vectors")
        if np.any(np.abs(w) == 0.0):
            raise InvalidInput("weights must be nonzero scalars")
        u = u * w[None, :]
    return VectorSystem(matrix=u, weights=w, provenance=provenance)


def standard_basis(dim: int) -> VectorSystem:
    """The canonical orthonormal basis of C^dim as a system."""
    return VectorSystem(matrix=np.eye(dim))


def synthesis(sys: VectorSystem) -> np.ndarray:
    """The stored dim x N synthesis matrix (read-only)."""
    return sys.matrix


class BoundsReport(NamedTuple):
    """Optimal frame constants plus classification of a finite system."""

    a_opt: float
    b_opt: float
    rank: int
    spans_ambient: bool
    classification: str
    tol: float


def frame_bounds(sys: VectorSystem, ambient: bool = True) -> BoundsReport:
    """Optimal lower/upper constants of a system.

    The upper constant is always ``sigma_max(U)^2``.  With ``ambient=True``
    the lower constant is the dim-th squared singular value of the synthesis
    matrix (zero when the system does not span); with ``ambient=False`` it
    is taken relative to the span, i.e. the smallest squared singular value
    above the rank cutoff.  Classification picks the most specific of
    riesz_basis / frame / riesz_sequence / frame_sequence, with bessel_only
    reserved for systems of rank zero.  Rank and cutoff (``1e-10 * b_opt``
    on squared singular values) are the system's spectrum's.
    """
    return spectrum_bounds(sys.spectrum, ambient)


def spectrum_bounds(sp: numkit.Spectrum, ambient: bool = True) -> BoundsReport:
    """:func:`frame_bounds` of the system whose synthesis matrix has the
    spectrum ``sp``."""
    sq = sp.s**2
    b = float(sq[0])
    rank = sp.rank
    d, n = sp.u.shape[0], sp.vh.shape[1]
    if ambient:
        a = float(sq[d - 1]) if rank == d else 0.0
    else:
        a = float(sq[rank - 1]) if rank > 0 else 0.0
    return BoundsReport(a_opt=a, b_opt=b, rank=rank, spans_ambient=rank == d,
                        classification=classification(rank, d, n), tol=sp.cut)


def classification(rank: int, d: int, n: int) -> str:
    """The class of a system of n vectors in C^d whose synthesis matrix has
    the given rank: the most specific of riesz_basis / frame /
    riesz_sequence / frame_sequence, bessel_only at rank zero."""
    if rank == 0:
        return "bessel_only"
    if rank == n == d:
        return "riesz_basis"
    if rank == d:
        return "frame"
    if rank == n:
        return "riesz_sequence"
    return "frame_sequence"


def lower_bounds(sp: numkit.SpectrumStack, ambient: bool = True) -> np.ndarray:
    """The ``a_opt`` of :func:`spectrum_bounds` for each spectrum of a stack,
    without a report per spectrum."""
    sq = sp.s**2
    d = sp.u.shape[1]
    if ambient:  # rank d needs N >= d; the clamped index only has to exist
        return np.where(sp.rank == d, sq[:, min(d, sq.shape[1]) - 1], 0.0)
    return np.where(sp.rank > 0, sq[np.arange(len(sq)), sp.rank - 1], 0.0)


def frame_operator(sys: VectorSystem) -> np.ndarray:
    """S = U U* for the (weighted) synthesis matrix U."""
    u = synthesis(sys)
    return u @ numkit.adjoint(u)


def canonical_dual(sys: VectorSystem) -> VectorSystem:
    """Canonical dual system {S^+ f_k}, taken on the span of the system.

    Reconstructs the orthogonal projection onto the span:
    ``sum_k <f, dual_k> f_k = P_span f``.  From the spectrum,
    ``S^+ U = U_r Sigma_r^-1 V_r*``, so neither S nor its pseudo-inverse
    is formed.
    """
    sp = sys.spectrum
    if sp.rank == 0:
        raise NotAFrame("system has no positive lower frame bound on its span")
    return VectorSystem(matrix=_dual_synthesis(sp.u, sp.s, sp.vh, sp.rank))


def _dual_synthesis(u, s, vh, r: int) -> np.ndarray:
    """``U_r Sigma_r^-1 V_r*`` of one thin SVD, or of a stack of them
    sharing the rank ``r``."""
    return u[..., :r] @ (vh[..., :r, :] / s[..., :r, None])


def dual_column_norms(sp: numkit.SpectrumStack) -> np.ndarray:
    """``||S^+ f_k||`` for every vector of each system of a stack, given
    their spectra: row i holds the column norms of ``canonical_dual`` of
    system i (zeros at rank zero), one stacked product per rank."""
    out = np.zeros((len(sp.s), sp.vh.shape[2]))
    for r in set(sp.rank.tolist()) - {0}:
        idx = np.flatnonzero(sp.rank == r)
        out[idx] = np.linalg.norm(
            _dual_synthesis(sp.u[idx], sp.s[idx], sp.vh[idx], r), axis=1)
    return out


def mixed_frame_operator(f_sys: VectorSystem, g_sys: VectorSystem) -> np.ndarray:
    """T = U_F U_G*, i.e. T f = sum_k <f, g_k> f_k."""
    if f_sys.dim != g_sys.dim:
        raise InvalidInput("systems must live in the same space")
    if len(f_sys) != len(g_sys):
        raise InvalidInput("systems must have the same number of vectors")
    return synthesis(f_sys) @ numkit.adjoint(synthesis(g_sys))


def kernel_synthesis(sys: VectorSystem) -> np.ndarray:
    """The null space of the synthesis matrix, as an N x (N - r) matrix
    with orthonormal columns: the orthogonal complement of the spectrum's
    kept row space V_r, the last N - r columns of a complete QR of V_r.

    No check calls it: :attr:`VectorSystem.shift_defect` measures the
    kernel's invariance without a basis.
    """
    sp = sys.spectrum
    q, _ = np.linalg.qr(numkit.adjoint(sp.vh[:sp.rank]), mode="complete")
    return q[:, sp.rank:]


def lower_riesz_profile(sys: VectorSystem) -> np.ndarray:
    """Smallest squared singular value of each prefix synthesis matrix.

    Entry n-1 is the optimal lower Riesz constant of the first n vectors,
    measured on coefficient space; it is exactly zero once n exceeds the
    ambient dimension.  One QR of the first ``min(d, N)`` columns gives
    every prefix at once: ``U[:, :k] = Q[:, :k] R[:k, :k]``, so the prefix
    shares its singular values with the leading k x k block R_k.

    The blocks are not factored one by one, so a profile whose prefixes
    are all certified costs O(d^3).  ``X = R^-1`` is upper triangular, so ``X[:k, :k] = R_k^-1``
    and ``sigma_min(R_k)^2 = 1 / lambda_max(H_k)`` with
    ``H_k = X_k* X_k``.  From the previous prefix's top vector w, a 2 x 2
    Rayleigh-Ritz step on span{[w; 0], e_k} (incremental condition
    estimation) and power steps, each a 2 x 2 Rayleigh-Ritz on
    span{v, H_k v}, give a Rayleigh pair (rho, r).  H_k borders H_{k-1},
    so by Cauchy interlacing every eigenvalue but the largest is at most
    ``lambda_max(H_{k-1}) <= ub``.  Once ``rho - ||r|| > ub`` the pair
    belongs to lambda_max, and Kato-Temple bounds
    ``lambda_max - rho <= ||r||^2 / (rho - ub)``.  A prefix is accepted
    when that bound is at most ``k * eps * rho``; it reports
    ``1 / (rho + bound)`` and ``rho + bound`` becomes the next ``ub``.  A
    prefix not certified within a few steps (a flat or clustered profile)
    takes an exact SVD of X_k, the matrix the next ``ub`` must bound.
    Early stops without the certificate are unsafe: ``rho <= lambda_max``
    always, so they overstate the lower Riesz bound.

    An exact zero pivot ``r_jj = 0`` makes every prefix from j on singular;
    those entries are exactly zero and only the block before j is
    inverted.  R is inverted scaled to ``max |R| = 1``; should a column of
    the inverse still overflow, its prefixes take the SVD of R_k.  A
    squared singular value that float64 cannot hold raises ``LinAlgError``.
    """
    u = synthesis(sys)
    d, n = u.shape
    r = np.linalg.qr(u[:, :min(d, n)], mode="r")
    out = np.zeros(n)
    zero = np.flatnonzero(np.diagonal(r) == 0.0)
    m = int(zero[0]) if zero.size else r.shape[1]
    if m == 0:
        return out
    scale = float(np.max(np.abs(r[:m, :m])))
    x = np.linalg.inv(r[:m, :m] / scale)
    col_max = np.max(np.abs(x), axis=0)
    overflow = np.flatnonzero(~np.isfinite(col_max))
    k_fin = int(overflow[0]) if overflow.size else m
    with np.errstate(over="ignore"):
        out[:k_fin] = np.square(scale * _inverse_sigma_min(
            x, np.maximum.accumulate(col_max[:k_fin])))
        for k in range(k_fin + 1, m + 1):
            out[k - 1] = np.linalg.svd(r[:k, :k], compute_uv=False)[-1] ** 2
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise np.linalg.LinAlgError(
            "squared smallest singular value of the prefix of length "
            f"{int(bad[0]) + 1} is not finite in float64")
    return out


_EPS = float(np.finfo(float).eps)
# Rayleigh pairs tried per prefix before its exact SVD
_PROFILE_STEPS = 12


def _inverse_sigma_min(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``1 / ||X[:k, :k]||_2``, the smallest singular value of the leading
    block of ``X^-1``, for an upper triangular X and k = 1..len(s), given
    ``s[k-1] = max |X[:k, :k]|``.  Block k is worked on as
    ``Y = X_k / s_k``, entries at most 1, so large blocks do not overflow
    and small ones do not underflow; see :func:`lower_riesz_profile`."""
    out = np.empty(s.size)
    out[0] = 1.0 / s[0]
    w = np.ones(1, dtype=x.dtype)  # top eigenvector of the previous H
    z = x[:1, 0] / s[0]  # its image under the previous Y
    ub = 1.0  # upper bound on the previous lambda_max, in the previous scale
    for k in range(2, s.size + 1):
        sk = s[k - 1]
        shrink = s[k - 2] / sk
        ub *= shrink * shrink
        xk = x[:k, :k]
        a = np.append(z * shrink, 0.0)  # Y [w; 0]
        b = xk[:, -1] / sk  # Y e_k
        al, be = _top_ritz(np.vdot(a, a).real, np.vdot(a, b),
                           np.vdot(b, b).real)
        v = np.append(al * w, be)
        z = al * a + be * b
        lam = None
        last = np.inf
        for step in range(_PROFILE_STEPS):
            hv = np.conj(np.conj(z / sk) @ xk)  # H v = Y* Y v
            rho = float(np.vdot(z, z).real)
            rvec = hv - rho * v
            res = float(np.linalg.norm(rvec))
            if rho - res > ub and res * res <= k * _EPS * rho * (rho - ub):
                lam = rho + res * res / (rho - ub)
                break
            # no certificate in reach: stalled, flat, or out of steps
            if res > 0.5 * last or res <= _EPS * rho \
                    or step + 1 == _PROFILE_STEPS:
                break
            last = res
            rvec /= res
            y = xk @ (rvec / sk)
            al, be = _top_ritz(rho, res, np.vdot(y, y).real)
            v = al * v + be * rvec
            z = al * z + be * y
            norm = np.linalg.norm(v)
            v /= norm
            z /= norm
        if lam is None:
            lam = float(np.linalg.svd(xk / sk, compute_uv=False)[0]) ** 2
        w = v
        ub = lam * (1.0 + k * _EPS)
        out[k - 1] = 1.0 / sk / np.sqrt(lam)
    return out


def _top_ritz(p: float, q: complex, t: float) -> tuple[complex, complex]:
    """Unit top eigenvector ``(alpha, beta)`` of the Hermitian 2 x 2 matrix
    ``[[p, q], [conj(q), t]]``."""
    mu = 0.5 * (p + t) + np.hypot(0.5 * (p - t), abs(q))
    # two formulas for the same vector; the longer one has no cancellation
    a1, b1, a2, b2 = q, mu - p, mu - t, np.conj(q)
    n1, n2 = np.hypot(abs(a1), abs(b1)), np.hypot(abs(a2), abs(b2))
    if n1 < n2:
        a1, b1, n1 = a2, b2, n2
    if n1 == 0.0:
        return 1.0, 0.0
    return a1 / n1, b1 / n1


def bessel_from_operator(t, basis: VectorSystem) -> VectorSystem:
    """The system {T e_k} over an orthonormal basis.

    Its optimal upper bound equals ``||T||^2``.  The basis must satisfy
    ``Gram = I`` within 1e-10 and span the space.
    """
    t = numkit.as_operator(t)
    u = synthesis(basis)
    n = u.shape[1]
    if basis.dim != t.shape[0]:
        raise InvalidInput("operator and basis dimensions differ")
    if n != basis.dim:
        raise InvalidInput("basis must have exactly dim elements")
    gram = numkit.adjoint(u) @ u
    if numkit.frobenius(gram - np.eye(n)) > 1e-10:
        raise InvalidInput("basis is not orthonormal within tolerance")
    return VectorSystem(matrix=t @ u)
