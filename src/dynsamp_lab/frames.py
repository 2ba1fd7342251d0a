"""Frame theory of finite vector systems.

Synthesis and frame operators, optimal bounds with classification,
canonical duals, mixed frame operators, synthesis kernels, and lower
Riesz profiles.  A system is stored as its synthesis matrix, with
optional nonzero scalar weights folded into the columns.  Its one
:class:`numkit.Spectrum` decides the rank of every derived quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """How an orbit system was generated: the operator, the generators and
    the horizon, each generator's run being ``horizon`` vectors long."""

    operator: np.ndarray
    generators: tuple[np.ndarray, ...]
    horizon: int


@dataclass(frozen=True, eq=False)
class VectorSystem:
    """Ordered family of vectors in C^dim, stored as its read-only
    synthesis matrix, and the spectrum of that matrix, computed once."""

    matrix: np.ndarray  # dim x N, complex, weights folded in
    weights: np.ndarray | None = None
    provenance: OrbitProvenance | None = None

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def spectrum(self) -> numkit.Spectrum:
        return numkit.spectrum(self.matrix)


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
        w = np.array(weights, dtype=complex).reshape(-1)
        if w.size != len(vecs):
            raise InvalidInput("weights length must match the number of vectors")
        if np.any(np.abs(w) == 0.0):
            raise InvalidInput("weights must be nonzero scalars")
        u = u * w[None, :]
    return VectorSystem(matrix=u, weights=w, provenance=provenance)


def standard_basis(dim: int) -> VectorSystem:
    """The canonical orthonormal basis of C^dim as a system."""
    return VectorSystem(matrix=np.eye(dim, dtype=complex))


def synthesis(sys: VectorSystem) -> np.ndarray:
    """The stored dim x N synthesis matrix (read-only)."""
    return sys.matrix


@dataclass(frozen=True)
class BoundsReport:
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
                        classification=cls, tol=sp.cut)


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


def dual_column_norms(spectra: list[numkit.Spectrum]) -> np.ndarray:
    """``||S^+ f_k||`` for every vector of each of several systems with one
    shape, given their spectra: row i holds the column norms of
    ``canonical_dual`` of system i (zeros at rank zero), one stacked
    product per rank."""
    out = np.zeros((len(spectra), spectra[0].vh.shape[1]))
    ranks = [sp.rank for sp in spectra]
    for r in set(ranks) - {0}:
        idx = [i for i, rank in enumerate(ranks) if rank == r]
        u, s, vh = (np.array([getattr(spectra[i], f) for i in idx])
                    for f in ("u", "s", "vh"))
        out[idx] = np.linalg.norm(_dual_synthesis(u, s, vh, r), axis=1)
    return out


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
    complement: np.ndarray  # N x (N - k), orthonormal columns

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def kernel_synthesis(sys: VectorSystem) -> KernelBasis:
    """Orthonormal basis of the null space of the synthesis matrix.

    The kernel is the orthogonal complement of the spectrum's kept row
    space V_r, taken from a complete QR of V_r (no N x N SVD).
    """
    sp = sys.spectrum
    rows = numkit.adjoint(sp.vh[:sp.rank])
    q, _ = np.linalg.qr(rows, mode="complete")
    return KernelBasis(basis=q[:, rows.shape[1]:], complement=rows)


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
    return VectorSystem(matrix=t @ u)
