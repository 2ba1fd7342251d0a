"""Closed-form truths of the satisfiability search's instance families.

Each function reads one instance of a stack that a certificate's ``draw``
builds and gives, from its entries alone, a quantity the certificate's
kernel computes numerically.  No kernel code runs here.
"""

import numpy as np


def weighted_block(st, i: int) -> tuple:
    """``(m, s, lam, psi, r)`` of instance i of a weighted block stack:
    T = s * shift on the first m coordinates plus diag(lam), phi = e_0,
    psi in the trailing coordinates and weights r^n."""
    m = st.t.shape[1] - st.basis.shape[2]
    return (m, st.t[i, 1, 0].real, np.diag(st.t[i])[m:].real,
            st.psi[i, m:], st.weights[i].value.real)


def weighted_block_frame_operator(m: int, s: float, lam, psi,
                                  r: float) -> np.ndarray | None:
    """The frame operator S of the whole orbit {r^n T^n (e_0 + psi)},
    n >= 0, of a weighted block instance, or None where the orbit is not
    Bessel (r lam_i >= 1 on a coordinate that psi reaches).

    r^n T^n f is (r s)^n e_n for n < m (none after) plus (r lam)^n psi, so
    the shift block of S is diag((r s)^{2n}), n < m; its cross entry
    (n, j) is the one term (r^2 s lam_j)^n conj(psi_j); and its diagonal
    block is psi_i conj(psi_j) / (1 - r^2 lam_i lam_j)."""
    lam, psi = np.asarray(lam), np.asarray(psi)
    if np.any(r * lam[psi != 0] >= 1.0):
        return None
    n = np.arange(m)
    out = np.zeros((m + len(lam),) * 2, dtype=complex)
    out[n, n] = (r * s) ** (2 * n)
    out[:m, m:] = (r * r * s * lam[None, :]) ** n[:, None] * np.conj(psi)
    out[m:, :m] = np.conj(out[:m, m:].T)
    out[m:, m:] = np.outer(psi, np.conj(psi)) \
        / (1.0 - r * r * np.outer(lam, lam))
    return out
