"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import dynsamp, numkit
from dynsamp_lab.errors import (
    DivergentSeries,
    InvalidInput,
    NotPositiveSemidefinite,
)


def random_matrix(rng, d, top=None):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if top is not None:
        m *= top / numkit.operator_norm(m)
    return m


def brute_stein_series(t, c, tail_target=1e-14):
    """Independent oracle: partial sums of T^n C T*^n until the geometric
    tail bound (operator norm based) drops below the target."""
    q = numkit.operator_norm(t) ** 2
    assert q < 1.0, "oracle needs a contractive operator"
    c_norm = numkit.frobenius(c)
    total = np.zeros_like(c, dtype=complex)
    term = c.astype(complex)
    n = 0
    # add terms until the remaining tail bound q^n ||C||_F / (1-q) is small
    while n == 0 or q**n * c_norm / (1.0 - q) >= tail_target:
        total = total + term
        term = t @ term @ numkit.adjoint(t)
        n += 1
    return total


# ---------------------------------------------------------------------------
# spectrum (the thin SVD of a synthesis matrix)
# ---------------------------------------------------------------------------

def test_svd_identity():
    sp = numkit.spectrum(np.eye(2))
    np.testing.assert_allclose(sp.s, [1.0, 1.0], atol=1e-14)
    assert sp.rank == 2


def test_svd_diagonal():
    sp = numkit.spectrum(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(sp.s, [2.0, 1.0], atol=1e-14)


def test_svd_rectangular_against_char_poly():
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # Oracle: eigenvalues of M M* = [[2,1],[1,2]] from its characteristic
    # polynomial x^2 - 4x + 3.
    eigs = sorted(np.roots([1.0, -4.0, 3.0]).real, reverse=True)
    sp = numkit.spectrum(m)
    np.testing.assert_allclose(sp.s, np.sqrt(eigs), atol=1e-12)
    assert sp.cut == pytest.approx(1e-10 * eigs[0], rel=1e-12)


def test_svd_reconstruction_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, 17))
        m = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        sp = numkit.spectrum(m)
        err = numkit.frobenius(m - sp.u @ (sp.s[:, None] * sp.vh))
        assert err <= 1e-12 * (1.0 + numkit.frobenius(m))
        assert np.all(np.diff(sp.s) <= 1e-14) and np.all(sp.s >= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        numkit.spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# eig_hermitian
# ---------------------------------------------------------------------------

def test_eig_hermitian_diagonal():
    w, _ = numkit.eig_hermitian(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-14)


def test_eig_hermitian_char_poly_oracle():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = sorted(np.roots([1.0, -4.0, 3.0]).real)
    w, v = numkit.eig_hermitian(m)
    np.testing.assert_allclose(w, expected, atol=1e-12)
    for k in range(2):
        assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10
    assert numkit.frobenius(numkit.adjoint(v) @ v - np.eye(2)) <= 1e-10


def test_eig_hermitian_zero():
    w, _ = numkit.eig_hermitian(np.zeros((3, 3)))
    np.testing.assert_allclose(w, np.zeros(3), atol=0)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        numkit.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# pinv
# ---------------------------------------------------------------------------

def penrose_ok(m, p, tol=1e-10):
    return (
        numkit.frobenius(m @ p @ m - m) <= tol
        and numkit.frobenius(p @ m @ p - p) <= tol
        and numkit.frobenius(m @ p - numkit.adjoint(m @ p)) <= tol
        and numkit.frobenius(p @ m - numkit.adjoint(p @ m)) <= tol
    )


def test_pinv_identity():
    np.testing.assert_allclose(numkit.pinv(np.eye(3)), np.eye(3), atol=1e-13)


def test_pinv_singular_diagonal():
    np.testing.assert_allclose(
        numkit.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-13
    )


def test_pinv_rank_one():
    m = np.ones((2, 2))
    p = numkit.pinv(m)
    np.testing.assert_allclose(p, np.ones((2, 2)) / 4.0, atol=1e-13)
    assert penrose_ok(m, p)


def test_pinv_penrose_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        if rng.random() < 0.4 and min(d, n) > 1:
            m[:, 0] = m[:, -1]  # force rank deficiency
        assert penrose_ok(m, numkit.pinv(m))


# ---------------------------------------------------------------------------
# sqrt_psd
# ---------------------------------------------------------------------------

def test_sqrt_psd_diagonal():
    np.testing.assert_allclose(
        numkit.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_sqrt_psd_identity():
    np.testing.assert_allclose(numkit.sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)


def test_sqrt_psd_reconstruction():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = numkit.sqrt_psd(m)
    assert numkit.frobenius(r - numkit.adjoint(r)) <= 1e-12
    np.testing.assert_allclose(r @ r, m, atol=1e-10 * numkit.operator_norm(m))


def test_sqrt_psd_clamps_dust():
    m = np.diag([1.0, -1e-14])
    r = numkit.sqrt_psd(m)
    assert np.all(np.linalg.eigvalsh(r) >= 0)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        numkit.sqrt_psd(np.diag([1.0, -0.5]))


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_diagonal():
    assert numkit.spectral_radius(np.diag([0.5, 0.75])) == pytest.approx(0.75)


def test_spectral_radius_nilpotent():
    assert numkit.spectral_radius(np.array([[0.0, 0.0], [1.0, 0.0]])) \
        == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_circulant_shift():
    # Oracle: eigenvalues are the cube roots of unity, all of modulus one.
    shift = np.roll(np.eye(3), 1, axis=0)
    moduli = np.abs(np.roots([1.0, 0.0, 0.0, -1.0]))
    assert numkit.spectral_radius(shift) == pytest.approx(float(moduli.max()))


def test_spectral_radius_eigensolver_failure_propagates(monkeypatch):
    # No estimate replaces a failed eigensolve; callers see the LinAlgError.
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(numkit.np.linalg, "eigvals", fail)
    with pytest.raises(np.linalg.LinAlgError):
        numkit.spectral_radius(np.diag([0.5, 0.75]))


# ---------------------------------------------------------------------------
# solve_stein
# ---------------------------------------------------------------------------

def test_stein_scalar_geometric_series():
    t = np.array([[0.5]])
    c = np.array([[1.0]])
    oracle = brute_stein_series(t, c)  # sum of 0.25^n
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    assert sol.method == "doubling-iteration"
    np.testing.assert_allclose(sol.s, oracle, atol=1e-12)
    np.testing.assert_allclose(sol.s[0, 0].real, 4.0 / 3.0, atol=1e-12)


def test_stein_zero_operator():
    c = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    t = np.zeros((2, 2))
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    np.testing.assert_allclose(sol.s, c, atol=1e-14)


def test_stein_diagonal_closed_form():
    lam = np.array([0.5, 0.75])
    phi = np.array([np.sqrt(3) / 2.0, np.sqrt(7) / 4.0])
    c = np.outer(phi, phi)
    # Closed-form oracle: S_ij = phi_i phi_j / (1 - lam_i lam_j), checked
    # independently by brute partial sums.
    closed = np.outer(phi, phi) / (1.0 - np.outer(lam, lam))
    np.testing.assert_allclose(closed, brute_stein_series(np.diag(lam), c),
                               atol=1e-12)
    t = np.diag(lam).astype(complex)
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    np.testing.assert_allclose(sol.s, closed, atol=1e-12)
    assert sol.s[0, 1].real == pytest.approx(np.sqrt(21) / 5.0, abs=1e-12)


def test_stein_residual_and_hermitian_randomized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        t = random_matrix(rng, d, top=rng.uniform(0.1, 0.9))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c = np.outer(phi, phi.conj())
        sol = numkit.solve_stein(t, c, numkit.spectrum(t))
        assert sol.residual <= 1e-12 * (1.0 + numkit.frobenius(c))
        assert numkit.frobenius(sol.s - numkit.adjoint(sol.s)) \
            <= 1e-12 * max(1.0, numkit.frobenius(sol.s))
        np.testing.assert_allclose(sol.s, brute_stein_series(t, c), atol=1e-10)


def test_stein_doubling_path_matches_closed_form():
    d = 70  # larger than every other solve in this file
    rng = np.random.default_rng(3)
    lam = rng.uniform(0.1, 0.8, size=d)
    phi = rng.standard_normal(d)
    c = np.outer(phi, phi).astype(complex)
    t = np.diag(lam).astype(complex)
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    assert sol.method == "doubling-iteration"
    assert sol.iterations >= 1
    closed = np.outer(phi, phi) / (1.0 - np.outer(lam, lam))
    np.testing.assert_allclose(sol.s, closed, atol=1e-9)


@pytest.mark.parametrize("d", [32, 48])
def test_stein_near_one_spectrum_closed_form(d):
    # lambda_k = 1 - 2^-k puts the spectrum within 2^-d of the unit circle.
    # Oracle: S_ij = b_i b_j / (1 - lambda_i lambda_j), with the denominator
    # written as eps_i + eps_j - eps_i eps_j (eps_k = 2^-k exactly) so that
    # it carries no cancellation.
    eps = 2.0 ** -np.arange(1, d + 1)
    lam = 1.0 - eps
    b = np.sqrt(1.0 - lam**2)
    c = np.outer(b, b).astype(complex)
    closed = np.outer(b, b) / (eps[:, None] + eps[None, :] - np.outer(eps, eps))
    oracle_min = np.linalg.eigvalsh(closed)[0]
    t = np.diag(lam).astype(complex)
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    got_min = np.linalg.eigvalsh(sol.s)[0]
    assert abs(got_min - oracle_min) <= 1e-7 * abs(oracle_min)
    assert sol.residual <= 1e-12 * (1.0 + numkit.frobenius(c))
    assert sol.iterations <= 64


def test_stein_contraction_skips_the_eigensolve(monkeypatch):
    # ||T||_2 < 1 already shows rho(T) < 1
    calls = []
    real_eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: calls.append(m.shape) or real_eigvals(m))
    rng = np.random.default_rng(8)
    t = random_matrix(rng, 6, top=0.95)
    phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c = np.outer(phi, phi.conj())
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    assert calls == []
    np.testing.assert_allclose(sol.s, brute_stein_series(t, c), atol=1e-10)
    with pytest.raises(DivergentSeries, match="spectral radius 1 >= 1"):
        numkit.solve_stein(np.eye(2), np.eye(2), numkit.spectrum(np.eye(2)))
    assert calls == [(2, 2)]


@pytest.mark.parametrize("top", [0.5, 0.95, 3.0])
def test_stein_solution_records_the_operator_norm(top):
    rng = np.random.default_rng(9)
    t = random_matrix(rng, 5, top=top)
    if top > 1.0:  # a nilpotent T: the eigensolve runs, and converges
        t = np.triu(t, 1)
    sp = numkit.spectrum(t)
    sol = numkit.solve_stein(t, np.eye(5), sp)
    # the norm is read off the handed spectrum, a full SVD, whose sigma_1
    # may differ from a values-only SVD's in the last bit
    assert sol.operator_norm == sp.s[0]
    assert sol.operator_norm == pytest.approx(numkit.operator_norm(t),
                                              rel=4e-16)


def test_stein_non_normal_norm_above_one_matches_term_loop():
    # ||T||_2 is about 10 but rho(T) = 0.5: the eigensolve decides, and the
    # series converges although no single step contracts
    t = np.array([[0.5, 10.0], [0.0, 0.5]], dtype=complex)
    c = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert numkit.operator_norm(t) > 1.0
    brute = np.zeros_like(c)
    term = c
    for _ in range(400):  # ||T^n|| <= (1 + 20 n) 0.5^n: far below eps here
        brute += term
        term = t @ term @ numkit.adjoint(t)
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    assert numkit.frobenius(sol.s - brute) <= 1e-12 * numkit.frobenius(brute)


def test_stein_divergent_series():
    with pytest.raises(DivergentSeries):
        numkit.solve_stein(np.eye(2), np.eye(2), numkit.spectrum(np.eye(2)))


@pytest.mark.parametrize("d", range(2, 9))
def test_stein_refuses_every_unitary_cyclic_shift(d):
    # eigvals puts the d = 2 shift's eigenvalues at modulus
    # 0.9999999999999999, so only the doubling cap can see the divergence
    with pytest.raises(DivergentSeries,
                       match="^spectral radius 1 >= 1; orbit series diverges$"):
        t = dynsamp.cyclic_shift(d)
        numkit.solve_stein(t, np.eye(d), numkit.spectrum(t))


def test_rank_cut_reads_psd_eigenvalues_in_any_order():
    w = np.array([2e-11, 1.0, 0.5, -1e-16])
    cut, rank = numkit.rank_cut(w)
    assert (cut, rank) == (1e-10, 2)
    assert numkit.rank_cut(w[::-1])[1] == 2
    assert numkit.rank_cut(np.zeros(3))[1] == 0
    # a singular value sigma counts when sigma^2 clears the cut
    assert numkit.matrix_rank(np.diag([1.0, 2e-5, 5e-6])) == 2


def test_stein_rejects_non_hermitian_c():
    with pytest.raises(InvalidInput):
        numkit.solve_stein(0.5 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                           numkit.spectrum(0.5 * np.eye(2)))


def test_stein_rejects_indefinite_c():
    with pytest.raises(NotPositiveSemidefinite):
        numkit.solve_stein(0.5 * np.eye(2), np.diag([1.0, -1.0]),
                           numkit.spectrum(0.5 * np.eye(2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_stein_solution_solves_equation(seed, d):
    rng = np.random.default_rng(seed)
    t = random_matrix(rng, d, top=float(rng.uniform(0.05, 0.9)))
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    c = np.outer(phi, phi.conj())
    sol = numkit.solve_stein(t, c, numkit.spectrum(t))
    residual = numkit.frobenius(sol.s - t @ sol.s @ numkit.adjoint(t) - c)
    assert residual <= 1e-12 * (1.0 + numkit.frobenius(c))


def test_eig_hermitian_reconstruction_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (m + numkit.adjoint(m)) / 2.0
        w, v = numkit.eig_hermitian(m)
        scale = numkit.frobenius(m)
        recon = (v * w) @ numkit.adjoint(v)
        assert numkit.frobenius(m - recon) <= 1e-10 * scale
        assert numkit.frobenius(numkit.adjoint(v) @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14 * max(1.0, scale))
