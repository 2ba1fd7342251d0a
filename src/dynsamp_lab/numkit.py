"""Dense complex linear-algebra kernel.

The one rank cut; at that cut the spectrum of a synthesis matrix or of an
operator (one thin SVD, a long matrix first reduced by a QR of its long
side), pseudo-inverse, rank and range basis; PSD square root, spectral
radius, and a discrete Stein-equation solver (one squaring iteration at
every dimension, guarded by its residual, with ||T||_2 read off the
spectrum of T that the caller hands it).  Operators and vectors are plain
complex ``numpy`` arrays; every public function validates its inputs and
never mutates them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DivergentSeries,
    InvalidInput,
    NoConvergence,
    NotPositiveSemidefinite,
)

# Cap on squaring steps of the doubling iteration.
STEIN_MAX_DOUBLINGS = 200
# ||T||_2 < 1 - margin shows rho(T) < 1 without an eigensolve; the margin
# covers the rounding of both, so no T whose computed rho reaches 1 skips it
STEIN_NORM_MARGIN = 1e-12


def as_operator(entries) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    m = np.array(entries, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("operator entries must be finite")
    return m


def as_vector(entries) -> np.ndarray:
    """Validate and return a complex vector with finite entries."""
    v = np.array(entries, dtype=complex).reshape(-1)
    if v.size == 0:
        raise InvalidInput("vector must be nonempty")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("vector entries must be finite")
    return v


def as_matrix(entries) -> np.ndarray:
    """Validate a (possibly rectangular) complex matrix."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInput(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m).T)


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


class Spectrum(NamedTuple):
    """Thin SVD ``m = u @ diag(s) @ vh`` of a synthesis matrix and its one
    rank decision, :func:`rank_cut` of the squared singular values.  Long
    matrices take the SVD through a QR of the long side (:func:`_thin_svd`).
    """

    u: np.ndarray  # d x min(d, N), orthonormal columns
    s: np.ndarray  # min(d, N) singular values, descending
    vh: np.ndarray  # min(d, N) x N, orthonormal rows
    cut: float
    rank: int

    @property
    def range_basis(self) -> np.ndarray:
        return self.u[:, :self.rank]

    @property
    def pinv(self) -> np.ndarray:
        """Pseudo-inverse ``V_r Sigma_r^{-1} U_r*`` at the rank r."""
        r = self.rank
        return adjoint(self.vh[:r]) @ (adjoint(self.u[:, :r]) / self.s[:r, None])


def spectrum(m) -> Spectrum:
    """The :class:`Spectrum` of a (possibly rectangular) matrix."""
    m = as_matrix(m)
    u, s, vh = _thin_svd(m)
    cut, rank = rank_cut(_squared(s, m.shape))
    return Spectrum(u=u, s=s, vh=vh, cut=float(cut), rank=int(rank))


class SpectrumStack(NamedTuple):
    """The :class:`Spectrum` of each matrix of a ``(B, d, N)`` stack, its
    fields stacked along a leading axis."""

    u: np.ndarray  # B x d x min(d, N)
    s: np.ndarray  # B x min(d, N)
    vh: np.ndarray  # B x min(d, N) x N
    cut: np.ndarray  # B
    rank: np.ndarray  # B

    def take(self, idx) -> "SpectrumStack":
        """The spectra of the matrices ``idx``, re-stacked."""
        return SpectrumStack(*(f[idx] for f in self))


def spectrum_stack(stack: np.ndarray) -> SpectrumStack:
    """The spectra of a ``(B, d, N)`` stack, from one stacked factorisation
    (LAPACK and BLAS run per matrix, so each equals :func:`spectrum` of
    that matrix bit for bit)."""
    u, s, vh = _thin_svd(stack)
    cut, rank = rank_cut(_squared(s, stack.shape))
    return SpectrumStack(u, s, vh, cut, rank)


def spectra(stack: np.ndarray) -> list[Spectrum]:
    """:func:`spectrum_stack`, as one :class:`Spectrum` per matrix."""
    sp = spectrum_stack(stack)
    return [Spectrum(u=sp.u[i], s=sp.s[i], vh=sp.vh[i], cut=float(sp.cut[i]),
                     rank=int(sp.rank[i])) for i in range(len(sp.s))]


# Where Chan's R-SVD (ACM TOMS 8, 1982) replaces the plain thin SVD.  On
# 2 cores with OpenBLAS (BENCH_dense_factorisations.json) it is 2.0x
# faster at 64 x 256 and 2.5x at 128 x 512, but 0.65x at 8 x 16, 1.0x at
# 16 x 64 and 0.84x at 128 x 160, whose aspect is below 2.  Shapes with a
# short side below 32 save under 0.1 ms at best, and keeping them on the
# plain SVD keeps the small-d reports the same bits.
_RSVD_MIN_SHORT = 32
_RSVD_MIN_ASPECT = 2


def _thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``u, s, vh`` of a matrix or of each matrix of a stack.

    A long matrix is first reduced to its square triangular factor: for a
    wide m, ``m^T = Q R`` gives ``m = R^T Q^T``, so the SVD
    ``R^T = u diag(s) W`` yields ``vh = W Q^T``; a tall ``m = Q R`` with
    ``R = W diag(s) vh`` yields ``u = Q W``.  Plain transposes, not
    adjoints, so no conjugated copy is made.  Other shapes take
    ``np.linalg.svd`` directly.
    """
    d, n = m.shape[-2:]
    short = min(d, n)
    if short < _RSVD_MIN_SHORT or max(d, n) < _RSVD_MIN_ASPECT * short:
        return np.linalg.svd(m, full_matrices=False)
    if d < n:
        q, r = np.linalg.qr(np.swapaxes(m, -1, -2))
        u, s, w = np.linalg.svd(np.swapaxes(r, -1, -2))
        return u, s, w @ np.swapaxes(q, -1, -2)
    q, r = np.linalg.qr(m)
    w, s, vh = np.linalg.svd(r)
    return q @ w, s, vh


def _squared(s: np.ndarray, shape: tuple) -> np.ndarray:
    """Squared singular values, descending along the last axis, of a
    matrix (or of each of a stack) of ``shape``; a largest one that float64
    cannot hold raises ``LinAlgError`` rather than put the rank cut at inf
    and the rank at 0."""
    with np.errstate(over="ignore"):
        sq = s**2
    finite(sq[..., 0], "squared singular value sigma_1^2 of a "
           f"{shape[-2]} x {shape[-1]} matrix")
    return sq


def finite(value, what: str):
    """``value``, or ``LinAlgError`` naming ``what`` when float64 cannot
    hold it (an entry is not finite): the one refusal of such a quantity."""
    if not np.isfinite(value).all():
        raise np.linalg.LinAlgError(f"{what} is not finite in float64")
    return value


def rank_cut(sq) -> tuple[np.ndarray, np.ndarray]:
    """The one rank rule: the cut ``1e-10 * max(sq)`` and the number of
    values above it, over the last axis of squared singular values of a
    synthesis matrix or eigenvalues of a PSD operator, in any order."""
    cut = 1e-10 * np.maximum(np.max(sq, axis=-1), 0.0)
    return cut, np.sum(sq > cut[..., None], axis=-1)


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary matrix of
    eigenvectors (columns).  Rejects inputs further than
    ``1e-10 * ||m||_F`` from Hermitian.
    """
    m = as_operator(m)
    scale = max(1.0, frobenius(m))
    if frobenius(m - adjoint(m)) > 1e-10 * scale:
        raise InvalidInput("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w.astype(float), v


def pinv(m) -> np.ndarray:
    """Pseudo-inverse of ``m``: :attr:`Spectrum.pinv` of its spectrum."""
    return spectrum(m).pinv


def matrix_rank(m) -> int:
    """Rank of a synthesis matrix ``m``: its squared singular values above
    ``rank_cut``.  On a PSD operator S that cuts sigma(S)^2 = lambda^2, so
    it keeps lambda > 1e-5 * lambda_max, not 1e-10 * lambda_max; rank S by
    ``rank_cut`` of its eigenvalues instead."""
    return int(rank_cut(np.linalg.svd(as_matrix(m), compute_uv=False)**2)[1])


def range_basis(m) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m`` at the
    :class:`Spectrum` rank."""
    return spectrum(m).range_basis


def sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalue dust below zero is clamped to zero; anything below
    ``-1e-10 * ||m||`` raises :class:`NotPositiveSemidefinite`.
    """
    m = as_operator(m)
    w, v = eig_hermitian(m)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -1e-10 * scale:
        raise NotPositiveSemidefinite(
            f"eigenvalue {w[0]:.3e} below PSD threshold {-1e-10 * scale:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ adjoint(v)


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, via a dense eigensolve."""
    m = as_operator(m)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


class SteinSolution(NamedTuple):
    """Solution record for ``s - t @ s @ t* = c``."""

    s: np.ndarray  # exactly Hermitian
    eigenvalues: np.ndarray  # of s, ascending: the one eigensolve of s
    residual: float
    method: str  # always "doubling-iteration"
    iterations: int
    operator_norm: float  # ||T||_2, read off the spectrum of T


def _divergent(rho: float) -> DivergentSeries:
    return DivergentSeries(
        f"spectral radius {rho:.8g} >= 1; orbit series diverges")


def solve_stein(t, c, spectrum: Spectrum, tol: float = 1e-12) -> SteinSolution:
    """Solve the discrete Stein equation ``S - T S T* = C`` for a
    caller-given C, checked Hermitian and positive semidefinite (one
    eigensolve of C); ``spectrum`` is :func:`spectrum` of ``t``.  See
    :func:`stein_doubling`, which this calls once C has passed."""
    c = as_operator(c)
    if frobenius(c - adjoint(c)) > 1e-10 * max(1.0, frobenius(c)):
        raise InvalidInput("C must be Hermitian")
    w = np.linalg.eigvalsh((c + adjoint(c)) / 2.0)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -1e-10 * scale:
        raise NotPositiveSemidefinite("C must be positive semidefinite")
    return stein_doubling(t, c, spectrum, tol)


def stein_doubling(t, c, spectrum: Spectrum,
                   tol: float = 1e-12) -> SteinSolution:
    """Solve ``S - T S T* = C`` for a C that is Hermitian positive
    semidefinite by construction, such as ``sum_phi phi phi*``.

    The solution is the convergent series ``sum_{n>=0} T^n C T*^n``,
    defined whenever the spectral radius of ``T`` is below one.  That is
    checked by a general eigensolve only when ``||T||_2``, the largest
    singular value in ``spectrum`` (:func:`spectrum` of ``t``), does not
    already show it.  The series is summed by the squaring (Smith)
    iteration ``S <- S + T_k S T_k*``, ``T_k <- T_k @ T_k``, so step ``k``
    adds the next ``2**(k-1)`` terms at O(d^3) cost.  The loop stops once
    an update falls below half the residual target; the true residual is
    then checked, and a miss raises :class:`NoConvergence`.  The solution
    is made exactly Hermitian and eigensolved once.

    Parameters
    ----------
    t : square complex matrix
    c : Hermitian PSD matrix of matching shape
    spectrum : the :class:`Spectrum` of ``t``
    tol : relative residual target; success requires
        ``||S - T S T* - C||_F <= tol * (1 + ||C||_F)``.
    """
    t = as_operator(t)
    c = as_operator(c)
    if t.shape != c.shape:
        raise InvalidInput(f"shape mismatch: T {t.shape} vs C {c.shape}")
    norm_t = float(spectrum.s[0])
    rho = spectral_radius(t) if norm_t >= 1.0 - STEIN_NORM_MARGIN else norm_t
    if rho >= 1.0:
        raise _divergent(rho)

    target = tol * (1.0 + frobenius(c))
    s = c.astype(complex, copy=True)
    tk = t.copy()
    for iterations in range(1, STEIN_MAX_DOUBLINGS + 1):
        update = tk @ s @ adjoint(tk)
        s = s + update
        if frobenius(update) <= 0.5 * target:
            break
        tk = tk @ tk
    else:
        # a unitary's computed rho can fall just below 1 (0.9999999999999999
        # for the d = 2 cyclic shift); rho is ||T||_2 if no eigensolve ran
        if rho >= 1.0 - STEIN_NORM_MARGIN:
            raise _divergent(rho)
        raise NoConvergence(
            f"doubling iteration did not converge in {STEIN_MAX_DOUBLINGS} steps"
        )

    s = (s + adjoint(s)) / 2.0
    residual = frobenius(s - t @ s @ adjoint(t) - c)
    if residual > target:
        raise NoConvergence(
            f"Stein residual {residual:.3e} exceeds tolerance {target:.3e}"
        )
    return SteinSolution(s=s, eigenvalues=np.linalg.eigvalsh(s),
                         residual=residual, method="doubling-iteration",
                         iterations=iterations, operator_norm=norm_t)
