"""Parity of the orbit-ladder kernels against the loops they replaced.

Each oracle below is the earlier implementation, kept here as a loop: the
per-prefix SVD Riesz profile, the S^n loop of iterated prefix bounds,
the kernel-basis defect formula and the complete-QR kernel basis, the
term-by-term Stein series and the two-walk surjectivity tail.  The per-column canonical dual is an oracle in
``test_spectrum.py``.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import checks, dynsamp, frames, numkit

EPS = np.finfo(float).eps


def random_vectors(rng, d, n):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


# ---------------------------------------------------------------------------
# lower Riesz profile: one QR against one SVD per prefix
# ---------------------------------------------------------------------------

def loop_riesz_profile(sys):
    u = frames.synthesis(sys)
    d, n = u.shape
    out = np.empty(n)
    for k in range(1, n + 1):
        if k > d:
            out[k - 1] = 0.0
            continue
        s = np.linalg.svd(u[:, :k], compute_uv=False)
        out[k - 1] = float(s[-1] ** 2)
    return out


def kahan(n, theta):
    """Kahan's upper triangular matrix: diag(s^i) (I - c * strict upper
    ones), s = sin(theta), c = cos(theta); its smallest singular value is
    far below what its diagonal suggests."""
    s, c = np.sin(theta), np.cos(theta)
    strict_upper = np.triu(np.ones((n, n)), 1)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * strict_upper)


def profile_system(rng, shape, family):
    d = int(rng.integers(2, 33))
    n = {"wide": d + int(rng.integers(1, 3 * d)), "square": d,
         "tall": int(rng.integers(1, d))}[shape]
    vecs = random_vectors(rng, d, n)
    if family == "graded":
        # columns decaying over many orders of magnitude
        vecs *= 10.0 ** (-rng.uniform(0.5, 3.0) * np.arange(n))[:, None]
    elif family == "deficient":
        # a repeated direction makes later prefixes singular
        k = int(rng.integers(0, n))
        vecs[int(rng.integers(0, n))] = vecs[k] * rng.uniform(0.5, 2.0)
    elif family == "near-orthonormal":
        # a flat profile: orthonormal leading columns plus noise of size
        # 1e-1 .. 1e-9, where the top eigenvalues of the prefix inverse
        # Gram nearly tie
        q, _ = np.linalg.qr(random_vectors(rng, d, d))
        m = min(d, n)
        vecs[:m] = q.T[:m] + 10.0 ** -rng.uniform(1, 9) * vecs[:m]
    elif family == "kahan":
        q, _ = np.linalg.qr(random_vectors(rng, d, d))
        vecs = (q @ kahan(max(d, n), rng.uniform(0.05, 1.2))[:d, :n]).T
    elif family == "zero-column":
        vecs[int(rng.integers(0, n))] = 0.0
    elif family == "orbit":
        t = 0.9 * dynsamp.cyclic_shift(d) + 0.05 * random_vectors(rng, d, d)
        return dynsamp.orbit(t, (vecs[0],), n)
    return frames.vector_system(list(vecs))


def assert_profile_gate(sys, profile):
    """The parity gate: every sqrt-entry within 50 N eps sigma_max of the
    per-prefix SVD loop."""
    old = loop_riesz_profile(sys)
    n = len(sys)
    sigma_max = float(np.linalg.svd(frames.synthesis(sys),
                                    compute_uv=False)[0])
    assert profile.shape == old.shape
    np.testing.assert_array_equal(profile[sys.dim:], 0.0)
    assert np.max(np.abs(np.sqrt(profile) - np.sqrt(old))) \
        <= 50 * n * EPS * sigma_max


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["wide", "square", "tall"]),
       st.sampled_from(["plain", "graded", "deficient", "orbit",
                        "near-orthonormal", "kahan", "zero-column"]))
def test_riesz_profile_matches_prefix_svd_loop(seed, shape, family):
    rng = np.random.default_rng(seed)
    sys = profile_system(rng, shape, family)
    assert_profile_gate(sys, frames.lower_riesz_profile(sys))


def ladder_orbit(rng, d, kind):
    """The orbit-ladder rungs: 0.95 x the cyclic shift with weights 0.99^n
    and a flat-spectrum generator, or a dense operator of norm 0.9 with a
    Gaussian generator; horizon 4d."""
    if kind == "circulant":
        g = np.fft.ifft(np.exp(2j * np.pi * rng.random(d))) * np.sqrt(d)
        return dynsamp.orbit(0.95 * dynsamp.cyclic_shift(d), (g,), 4 * d,
                             dynsamp.WeightSpec.geometric(0.99))
    m = random_vectors(rng, d, d)
    t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
    return dynsamp.orbit(t, (random_vectors(rng, d, 1)[0],), 4 * d)


def count_svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["circulant", "dense"])
def test_riesz_profile_of_ladder_orbits_is_certified(kind, seed, monkeypatch):
    sys = ladder_orbit(np.random.default_rng([seed, 64]), 64, kind)
    calls = count_svd_calls(monkeypatch)
    profile = frames.lower_riesz_profile(sys)
    assert calls == []  # every prefix certified, no fallback
    monkeypatch.undo()
    assert_profile_gate(sys, profile)


def test_riesz_profile_flat_profile_takes_the_fallback(monkeypatch):
    # orthonormal columns: every H_k is the identity, so no prefix can be
    # certified and each one takes the exact SVD
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_vectors(rng, 16, 16))
    sys = frames.vector_system(list(q.T) + list(random_vectors(rng, 16, 8)))
    calls = count_svd_calls(monkeypatch)
    profile = frames.lower_riesz_profile(sys)
    assert len(calls) == 15  # prefixes 2..16
    monkeypatch.undo()
    assert_profile_gate(sys, profile)
    np.testing.assert_allclose(profile[:16], 1.0, rtol=1e-13)


@pytest.mark.parametrize("j", [0, 3, 7])
def test_riesz_profile_exact_zero_pivot(j):
    rng = np.random.default_rng(j)
    vecs = random_vectors(rng, 8, 12)
    vecs[j] = 0.0
    profile = frames.lower_riesz_profile(frames.vector_system(list(vecs)))
    np.testing.assert_array_equal(profile[j:], 0.0)
    assert np.all(profile[:j] > 0.0)


def test_riesz_profile_overflowing_inverse_falls_back_to_r_blocks(
        monkeypatch):
    # pivots 1e-200 next to entries 1: column 3 of R^-1 overflows, so
    # prefixes 3 and 4 take the SVD of R_k without a warning
    u = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1e-200, 1.0, 0.5],
                  [0.0, 0.0, 1e-200, 0.3], [0.0, 0.0, 0.0, 1.0]])
    sys = frames.vector_system(list(u.T))
    calls = count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = frames.lower_riesz_profile(sys)
    assert calls == [(3, 3), (4, 4)]
    monkeypatch.undo()
    assert_profile_gate(sys, profile)


def test_riesz_profile_tiny_column_is_finite_without_warning():
    rng = np.random.default_rng(11)
    vecs = random_vectors(rng, 12, 20)
    vecs[4] *= 1e-200
    sys = frames.vector_system(list(vecs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = frames.lower_riesz_profile(sys)
    assert np.all(np.isfinite(profile))
    assert np.all(np.diff(profile) <= 1e-12 * profile[0])
    assert profile[3] > 0.0


# ---------------------------------------------------------------------------
# iterated frame operator: the closed form against the S^n loop it replaced
# ---------------------------------------------------------------------------

def loop_iterated_uppers(sys, generators, horizon):
    s = frames.frame_operator(sys)
    runs = []
    for g in generators:
        run = [np.asarray(g, dtype=complex)]
        for _ in range(horizon - 1):
            run.append(s @ run[-1])
        runs.append(run)
    uppers = np.empty(horizon)
    for m in range(1, horizon + 1):
        cols = np.column_stack([run[n] for run in runs for n in range(m)])
        sv = np.linalg.svd(cols, compute_uv=False)
        uppers[m - 1] = float(sv[0] ** 2)
    return uppers


def iterated_case(rng, generators):
    d = int(rng.integers(2, 9))
    n = d + int(rng.integers(0, 2 * d))
    sys = frames.vector_system(list(random_vectors(rng, d, n)
                                    * rng.uniform(0.3, 1.0)))
    gens = list(random_vectors(rng, d, generators))
    return sys, gens, int(rng.integers(2, 30))


def assert_matches_loop(seed, generators):
    sys, gens, horizon = iterated_case(np.random.default_rng(seed), generators)
    res = dynsamp.iterated_frame_operator_check(sys, gens, horizon)
    loop = loop_iterated_uppers(sys, gens, horizon)
    np.testing.assert_allclose(10.0**res.log10_upper_bounds,
                               loop[np.array(res.horizons) - 1],
                               rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iterated_one_generator_matches_the_loop(seed):
    assert_matches_loop(seed, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iterated_three_generators_match_column_permutation(seed):
    # the loop orders its columns generator-major; the bound does not see it
    assert_matches_loop(seed, 3)


def closed_form_tight(lam, gens, horizons):
    """log10 of the prefix bounds at S = lam I: ||G||_2^2 sum_{n<m}
    lam^(2n), in logarithms."""
    top = np.linalg.svd(np.column_stack(gens), compute_uv=False)[0] ** 2
    x = 2.0 * np.log(lam)
    return [(np.log(top) + (m - 1) * x + np.log(-np.expm1(-m * x))
             - np.log(-np.expm1(-x))) / np.log(10.0)
            for m in horizons]


@pytest.mark.parametrize("seed", range(8))
def test_iterated_overflow_raises_before_any_svd(seed, monkeypatch):
    # inputs whose iterates S^n g leave float64: the check reports their
    # bounds in log10, with no warning and no SVD
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    q, _ = np.linalg.qr(random_vectors(rng, d, d))
    scale = 10.0 ** rng.uniform(20.0, 60.0)
    sys = frames.vector_system(list(scale * q.T))  # tight, S = scale^2 I
    gens = list(random_vectors(rng, d, int(rng.integers(1, 4))))
    horizon = 40

    report = frames.frame_bounds(sys, ambient=True)
    assert (horizon - 1) * np.log10(report.b_opt) > 308  # S^39 g overflows
    monkeypatch.setattr(frames, "frame_bounds", lambda *a, **k: report)
    calls = count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dynsamp.iterated_frame_operator_check(sys, gens, horizon)
    assert calls == []
    monkeypatch.undo()
    assert res.verdict == "cannot-be-frame"
    np.testing.assert_allclose(
        res.log10_upper_bounds,
        closed_form_tight(report.b_opt, gens, res.horizons), rtol=1e-12)


def test_iterated_huge_frame_operator_is_finite_in_log10():
    # S = 1e100 I: the prefix bounds 1, 1e200, 1e600 as log10, no warning
    sys = frames.vector_system([[1e50, 0.0], [0.0, 1e50]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dynsamp.iterated_frame_operator_check(sys, [[1.0, 0.0]], 4)
    assert res.horizons == (1, 2, 4)
    np.testing.assert_allclose(res.log10_upper_bounds, [0.0, 200.0, 600.0],
                               rtol=1e-12, atol=1e-12)
    assert res.verdict == "cannot-be-frame"


# ---------------------------------------------------------------------------
# kernel invariance: shift-defect rows against the kernel-basis formulas
# ---------------------------------------------------------------------------

def haar_unitary(rng, d):
    """Haar-distributed unitary: QR of a complex Gaussian with the phases
    of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(random_vectors(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def kernel_basis_defect(sys, rng):
    """Oracle: ``||shifted - B (B* shifted)||_2`` with the kernel basis B,
    first turned by a seeded Haar unitary: the spectral norm does not
    depend on which orthonormal basis of the kernel is shifted."""
    basis = frames.kernel_synthesis(sys)
    if basis.shape[1] == 0:
        return 0.0
    basis = basis @ haar_unitary(rng, basis.shape[1])
    shifted = np.column_stack([dynsamp.shift_weighted(sys.weights, basis[:, j])
                               for j in range(basis.shape[1])])
    off = shifted - basis @ (numkit.adjoint(basis) @ shifted)
    return float(np.linalg.norm(off, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_kernel_defect_matches_kernel_basis_formula(seed, orbit_family):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    n = int(rng.integers(1, 6 * d + 2))
    weights = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
    if orbit_family:
        t = 0.95 * dynsamp.cyclic_shift(d)
        sys = dynsamp.orbit(t, (random_vectors(rng, d, 1)[0],), n,
                            dynsamp.WeightSpec.explicit(weights))
    else:
        vecs = random_vectors(rng, d, n)
        if n > 1:  # a repeated vector keeps the rank below min(d, n)
            vecs[-1] = vecs[0]
        sys = frames.vector_system(list(vecs), weights=weights)
    res = dynsamp.kernel_invariance_check(sys)
    kernel = frames.kernel_synthesis(sys)
    assert kernel.shape == (n, res.kernel_dim)
    assert res.defect == pytest.approx(kernel_basis_defect(sys, rng), abs=1e-12)


def complete_qr_defect(sys):
    """Oracle: the complete N x N unitary of a QR of V_r, its last N - r
    columns shifted as one block; independent of the shift-defect matrix."""
    sp = sys.spectrum
    rows = numkit.adjoint(sp.vh[:sp.rank])
    q, _ = np.linalg.qr(rows, mode="complete")
    basis = q[:, sp.rank:]
    if basis.shape[1] == 0:
        return 0, 0.0
    a = sys.weights
    off = (numkit.adjoint(rows[1:]) * (a[:-1] / a[1:])) @ basis[:-1]
    return basis.shape[1], float(np.linalg.norm(off, 2))


def kernel_parity_system(rng, family):
    d = int(rng.integers(1, 9))
    n = int(rng.integers(1, 65))
    weights = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
    if family == "shift":  # V_r holds unit vectors: an invariant kernel
        e0 = np.eye(d)[0]
        return dynsamp.orbit(dynsamp.nilpotent_shift(d), (e0,), n,
                             dynsamp.WeightSpec.constant(1.0))
    vecs = random_vectors(rng, d, n)
    if family == "deficient":
        k = int(rng.integers(1, d + 1))
        vecs = vecs[:, :k] @ random_vectors(rng, d, k)
    elif family == "zero":
        vecs = np.zeros((n, d))
    return frames.vector_system(list(vecs), weights=weights)


def assert_matches_complete_qr(sys):
    kernel_dim, defect = complete_qr_defect(sys)
    res = dynsamp.kernel_invariance_check(sys)
    assert res.kernel_dim == kernel_dim
    assert res.invariant == (defect <= 1e-8)
    assert abs(res.defect - defect) <= max(1e-12 * defect, 1e-15)
    return res


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["full", "deficient", "zero", "shift"]))
def test_kernel_defect_matches_complete_qr(seed, family):
    sys = kernel_parity_system(np.random.default_rng(seed), family)
    res = assert_matches_complete_qr(sys)
    if family == "shift":
        assert res.defect == 0.0


def test_kernel_defect_matches_complete_qr_at_rank_zero_rank_n_and_tau_zero():
    rng = np.random.default_rng(5)
    zero = kernel_parity_system(rng, "zero")
    assert zero.spectrum.rank == 0
    assert_matches_complete_qr(zero)
    riesz = frames.vector_system(list(random_vectors(rng, 6, 4)),
                                 weights=np.exp(1j * rng.uniform(0, 6.28, 4)))
    assert riesz.spectrum.rank == len(riesz)
    assert_matches_complete_qr(riesz)
    shift = kernel_parity_system(rng, "shift")
    assert assert_matches_complete_qr(shift).defect == 0.0


def test_kernel_invariance_builds_no_kernel_basis_and_no_qr(monkeypatch):
    # a warm dense orbit at d = 32 (rank 14 of 128): the defect is read off
    # the orbit's spectrum alone
    rng = np.random.default_rng([1, 32])
    m = random_vectors(rng, 32, 32)
    t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
    sys = dynsamp.orbit(t, (random_vectors(rng, 32, 1)[0],), 128,
                        dynsamp.WeightSpec.constant(1.0))
    kernel_dim, defect = complete_qr_defect(sys)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel-invariance built a kernel basis or a QR")

    monkeypatch.setattr(frames, "kernel_synthesis", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    res = dynsamp.kernel_invariance_check(sys)
    assert 0 < kernel_dim == res.kernel_dim < len(sys)
    assert abs(res.defect - defect) <= 1e-12 * defect


def test_kernel_invariance_holds_no_n_by_n_array():
    """The check's traced peak stays below one N x N complex array: it
    works from r x N arrays only."""
    d = 128
    rng = np.random.default_rng([1, d])
    g = np.fft.ifft(np.exp(2j * np.pi * rng.random(d))) * np.sqrt(d)
    sys = dynsamp.orbit(0.95 * dynsamp.cyclic_shift(d), (g,), 4 * d,
                        dynsamp.WeightSpec.geometric(0.99))
    n = len(sys)
    assert sys.spectrum.rank == d  # warm: the SVD is not traced
    tracemalloc.start()
    try:
        res = dynsamp.kernel_invariance_check(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.kernel_dim == n - d
    assert peak < n * n * 16


# ---------------------------------------------------------------------------
# Stein brute oracle: orbit GEMM against the term loop
# ---------------------------------------------------------------------------

def loop_stein_series(t, generators, depth):
    c = np.zeros(t.shape, dtype=complex)
    for g in generators:
        c += np.outer(g, g.conj())
    brute = np.zeros_like(c)
    term = c
    for _ in range(depth + 1):
        brute += term
        term = t @ term @ numkit.adjoint(t)
    return brute


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(0, 200))
def test_stein_orbit_gemm_matches_term_loop(seed, generators, depth):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    m = random_vectors(rng, d, d)
    t = rng.uniform(0.1, 0.99) * m / np.linalg.svd(m, compute_uv=False)[0]
    gens = list(random_vectors(rng, d, generators))
    new = checks._stein_series(t, gens, depth)
    old = loop_stein_series(t, gens, depth)
    assert numkit.frobenius(new - old) <= 1e-12 * numkit.frobenius(old)


# ---------------------------------------------------------------------------
# surjectivity tail: one walk
# ---------------------------------------------------------------------------

def two_walk_tail(t, phi, s_inv_phi, horizon, tol):
    values = []
    v = phi
    for _ in range(horizon):
        v = t @ v
        values.append(abs(np.vdot(s_inv_phi, v)))
    witness = next((n + 1 for n, val in enumerate(values) if val > tol), None)
    coeffs = []
    tail = np.zeros(phi.size, dtype=complex)
    v = phi
    for _ in range(horizon):
        v = t @ v
        coef = np.vdot(v, s_inv_phi)
        coeffs.append(coef)
        tail = tail + coef * v
    return (max(values), witness, float(np.linalg.norm(coeffs)),
            float(np.linalg.norm(tail)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_surjectivity_tail_matches_two_walks(seed, nilpotent_part):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    m = random_vectors(rng, d, d)
    t = rng.uniform(0.2, 0.95) * m / np.linalg.svd(m, compute_uv=False)[0]
    if nilpotent_part:
        t = t @ np.diag(np.r_[np.ones(d - 1), 0.0])  # T loses rank
    phi = random_vectors(rng, d, 1)[0]
    sp = numkit.spectrum(t)
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
    s = sol.s
    w = np.linalg.eigvalsh(s)
    if w[0] <= 1e-8 * w[-1]:
        return  # the report refuses a singular S; nothing to compare
    horizon = int(rng.integers(1, 5 * d + 2))
    rep = dynsamp.surjectivity_report(t, phi, sol, sp, horizon=horizon)
    s_inv_phi = np.linalg.solve(s, phi)
    max_inner, witness, coeff_norm, synth_norm = two_walk_tail(
        t, phi, s_inv_phi, horizon, 1e-8)
    # coefficients are <S^{-1} phi, T^n phi> with ||T^n phi|| <= ||phi||
    coef_scale = 1e-13 * horizon * float(np.linalg.norm(s_inv_phi)
                                         * np.linalg.norm(phi))
    assert rep.criterion_i == pytest.approx(max_inner, abs=coef_scale)
    assert rep.tail_coefficient_norm == pytest.approx(coeff_norm,
                                                      abs=coef_scale)
    assert rep.tail_synthesized_norm == pytest.approx(
        synth_norm, abs=coef_scale * float(np.linalg.norm(phi)))
    assert rep.witness_index == witness
