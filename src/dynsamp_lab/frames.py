"""Frame theory of finite vector systems.

Synthesis and frame operators, optimal bounds with classification,
canonical duals, mixed frame operators, synthesis kernels, and lower
Riesz profiles.  A system is an ordered family of vectors with optional
nonzero scalar weights folded into the synthesis columns.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class OrbitProvenance:
    """How an orbit system was generated."""

    operator: np.ndarray
    generators: tuple[np.ndarray, ...]
    index_model: str  # "N0" or "Z"
    period: int | None = None
    horizon: int | None = None


@dataclass(frozen=True, eq=False)
class VectorSystem:
    """Ordered family of vectors in C^dim with optional weights."""

    dim: int
    vectors: tuple[np.ndarray, ...]
    weights: np.ndarray | None = None
    provenance: OrbitProvenance | None = None

    def __len__(self) -> int:
        return len(self.vectors)


def vector_system(vectors, weights=None, provenance=None) -> VectorSystem:
    """Validated constructor: common dimension, finite entries, nonzero weights."""
    vecs = tuple(numkit.as_vector(v) for v in vectors)
    if not vecs:
        raise InvalidInput("a vector system needs at least one vector")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise InvalidInput("all vectors must share the same dimension")
    w = None
    if weights is not None:
        w = np.array(weights, dtype=complex).reshape(-1)
        if w.size != len(vecs):
            raise InvalidInput("weights length must match the number of vectors")
        if np.any(np.abs(w) == 0.0):
            raise InvalidInput("weights must be nonzero scalars")
    return VectorSystem(dim=dim, vectors=vecs, weights=w, provenance=provenance)


def standard_basis(dim: int) -> VectorSystem:
    """The canonical orthonormal basis of C^dim as a system."""
    eye = np.eye(dim, dtype=complex)
    return VectorSystem(dim=dim, vectors=tuple(eye[:, k] for k in range(dim)))


def synthesis(sys: VectorSystem) -> np.ndarray:
    """dim x N synthesis matrix; column k is ``weights[k] * vectors[k]``."""
    u = np.column_stack(sys.vectors).astype(complex)
    if sys.weights is not None:
        u = u * sys.weights[None, :]
    return u


@dataclass(frozen=True)
class BoundsReport:
    """Optimal frame constants plus classification of a finite system."""

    a_opt: float
    b_opt: float
    rank: int
    spans_ambient: bool
    classification: str
    tol: float


def frame_bounds(sys: VectorSystem, ambient: bool = True, tol: float | None = None) -> BoundsReport:
    """Optimal lower/upper constants of a system.

    The upper constant is always ``sigma_max(U)^2``.  With ``ambient=True``
    the lower constant is the dim-th squared singular value of the synthesis
    matrix (zero when the system does not span); with ``ambient=False`` it
    is taken relative to the span, i.e. the smallest squared singular value
    above the rank cutoff.  Classification picks the most specific of
    riesz_basis / frame / riesz_sequence / frame_sequence, with bessel_only
    reserved for systems of rank zero.  Default cutoff: ``1e-10 * b_opt``
    on squared singular values.
    """
    u = synthesis(sys)
    s = np.linalg.svd(u, compute_uv=False)
    sq = (s.astype(float)) ** 2
    b = float(sq[0]) if sq.size else 0.0
    cut = 1e-10 * b if tol is None else float(tol)
    rank = int(np.sum(sq > cut))
    n = len(sys)
    d = sys.dim
    spans = rank == d
    if rank == 0:
        cls = "bessel_only"
    elif rank == n == d:
        cls = "riesz_basis"
    elif rank == d:
        cls = "frame"
    elif rank == n:
        cls = "riesz_sequence"
    else:
        cls = "frame_sequence"
    if ambient:
        a = float(sq[d - 1]) if rank == d else 0.0
    else:
        a = float(sq[rank - 1]) if rank > 0 else 0.0
    return BoundsReport(a_opt=a, b_opt=b, rank=rank, spans_ambient=spans,
                        classification=cls, tol=cut)


def frame_operator(sys: VectorSystem) -> np.ndarray:
    """S = U U* for the (weighted) synthesis matrix U."""
    u = synthesis(sys)
    return u @ numkit.adjoint(u)


def canonical_dual(sys: VectorSystem, tol: float | None = None) -> VectorSystem:
    """Canonical dual system {S^+ f_k}, taken on the span of the system.

    Reconstructs the orthogonal projection onto the span:
    ``sum_k <f, dual_k> f_k = P_span f``.
    """
    report = frame_bounds(sys, ambient=False, tol=tol)
    if report.a_opt <= report.tol:
        raise NotAFrame("system has no positive lower frame bound on its span")
    duals = numkit.pinv(frame_operator(sys)) @ synthesis(sys)
    return VectorSystem(dim=sys.dim, vectors=tuple(duals.T))


def mixed_frame_operator(f_sys: VectorSystem, g_sys: VectorSystem) -> np.ndarray:
    """T = U_F U_G*, i.e. T f = sum_k <f, g_k> f_k."""
    if f_sys.dim != g_sys.dim:
        raise InvalidInput("systems must live in the same space")
    if len(f_sys) != len(g_sys):
        raise InvalidInput("systems must have the same number of vectors")
    return synthesis(f_sys) @ numkit.adjoint(synthesis(g_sys))


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Orthonormal coefficient vectors (columns) spanning the synthesis kernel.

    ``complement`` spans the orthogonal complement (the row space of the
    synthesis matrix), so ``I - basis basis* = complement complement*``.
    """

    basis: np.ndarray  # N x k, orthonormal columns
    tol: float
    complement: np.ndarray  # N x (N - k), orthonormal columns

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def kernel_synthesis(sys: VectorSystem, tol: float = 1e-10) -> KernelBasis:
    """Orthonormal basis of the null space of the synthesis matrix.

    Singular values at or below ``tol * sigma_max`` are treated as zero.
    """
    u = synthesis(sys)
    _, s, vh = np.linalg.svd(u, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    v = numkit.adjoint(vh)
    return KernelBasis(basis=v[:, rank:], tol=tol, complement=v[:, :rank])


def lower_riesz_profile(sys: VectorSystem) -> np.ndarray:
    """Smallest squared singular value of each prefix synthesis matrix.

    Entry n-1 is the optimal lower Riesz constant of the first n vectors,
    measured on coefficient space; it is exactly zero once n exceeds the
    ambient dimension.  One QR of the first ``min(d, N)`` columns gives
    every prefix at once: ``U[:, :k] = Q[:, :k] R[:k, :k]``, so the prefix
    shares its singular values with the leading k x k triangular block.
    """
    u = synthesis(sys)
    d, n = u.shape
    r = np.linalg.qr(u[:, :min(d, n)], mode="r")
    out = np.zeros(n)
    for k in range(1, r.shape[1] + 1):
        out[k - 1] = np.linalg.svd(r[:k, :k], compute_uv=False)[-1] ** 2
    return out


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
    vecs = tuple(t @ u[:, k] for k in range(n))
    return VectorSystem(dim=basis.dim, vectors=vecs)
