"""Parity of the orbit-ladder kernels against the loops they replaced.

Each oracle below is the earlier implementation, kept here as a loop: the
per-prefix SVD Riesz profile, the generator-major iterated prefix bounds,
the kernel-basis defect formula, the term-by-term Stein series, the
per-column canonical dual and the two-walk surjectivity tail.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import checks, dynsamp, frames, numkit
from dynsamp_lab.dynsamp import OrbitSpec

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


def profile_system(rng, shape, family):
    d = int(rng.integers(2, 12))
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
    elif family == "orbit":
        t = 0.9 * dynsamp.cyclic_shift(d) + 0.05 * random_vectors(rng, d, d)
        return dynsamp.orbit(OrbitSpec(operator=t, generators=(vecs[0],),
                                       horizon=n))
    return frames.vector_system(list(vecs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["wide", "square", "tall"]),
       st.sampled_from(["plain", "graded", "deficient", "orbit"]))
def test_riesz_profile_matches_prefix_svd_loop(seed, shape, family):
    rng = np.random.default_rng(seed)
    sys = profile_system(rng, shape, family)
    new = frames.lower_riesz_profile(sys)
    old = loop_riesz_profile(sys)
    n = len(sys)
    sigma_max = float(np.linalg.svd(frames.synthesis(sys),
                                    compute_uv=False)[0])
    assert new.shape == old.shape
    np.testing.assert_array_equal(new[sys.dim:], 0.0)
    assert np.max(np.abs(np.sqrt(new) - np.sqrt(old))) \
        <= 50 * n * EPS * sigma_max


# ---------------------------------------------------------------------------
# iterated frame operator: n-major run matrix against generator-major prefixes
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iterated_one_generator_is_bit_identical(seed):
    sys, gens, horizon = iterated_case(np.random.default_rng(seed), 1)
    res = dynsamp.iterated_frame_operator_check(sys, gens, horizon)
    np.testing.assert_array_equal(res.prefix_upper_bounds,
                                  loop_iterated_uppers(sys, gens, horizon))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iterated_three_generators_match_column_permutation(seed):
    sys, gens, horizon = iterated_case(np.random.default_rng(seed), 3)
    res = dynsamp.iterated_frame_operator_check(sys, gens, horizon)
    np.testing.assert_allclose(res.prefix_upper_bounds,
                               loop_iterated_uppers(sys, gens, horizon),
                               rtol=1e-13, atol=0)


def first_non_finite(s, generators, horizon):
    """Oracle: the first n whose iterate S^n g_j overflows, or None."""
    iterates = [np.asarray(g, dtype=complex) for g in generators]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, horizon):
            iterates = [s @ v for v in iterates]
            if not all(np.all(np.isfinite(v)) for v in iterates):
                return n
    return None


@pytest.mark.parametrize("seed", range(8))
def test_iterated_overflow_raises_before_any_svd(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    q, _ = np.linalg.qr(random_vectors(rng, d, d))
    scale = 10.0 ** rng.uniform(20.0, 60.0)
    sys = frames.vector_system(list(scale * q.T))  # tight, S = scale^2 I
    gens = list(random_vectors(rng, d, int(rng.integers(1, 4))))
    horizon = 40
    expected = first_non_finite(frames.frame_operator(sys), gens, horizon)
    assert expected is not None

    report = frames.frame_bounds(sys, ambient=True)
    monkeypatch.setattr(frames, "frame_bounds", lambda *a, **k: report)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=f"n = {expected}$"):
            dynsamp.iterated_frame_operator_check(sys, gens, horizon)
    assert calls == []


def test_iterated_squared_overflow_is_inf_without_warning():
    # S = 1e100 I: the iterates S^n g = 1e(100 n) g stay finite up to
    # n = 3, but the squared prefix bounds overflow from m = 3 on
    sys = frames.vector_system([[1e50, 0.0], [0.0, 1e50]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dynsamp.iterated_frame_operator_check(sys, [[1.0, 0.0]], 4)
    assert res.prefix_upper_bounds[0] == 1.0
    assert res.prefix_upper_bounds[1] == pytest.approx(1e200, rel=1e-12)
    assert np.all(np.isposinf(res.prefix_upper_bounds[2:]))
    assert res.verdict == "cannot-be-frame"


# ---------------------------------------------------------------------------
# kernel invariance: row-space projector against the kernel-basis formula
# ---------------------------------------------------------------------------

def kernel_basis_defect(sys):
    """Oracle: ``shifted - B (B* shifted)`` with the kernel basis B."""
    basis = frames.kernel_synthesis(sys, tol=1e-10).basis
    if basis.shape[1] == 0:
        return 0.0
    shifted = np.column_stack([dynsamp.shift_weighted(sys.weights, basis[:, j])
                               for j in range(basis.shape[1])])
    off = shifted - basis @ (numkit.adjoint(basis) @ shifted)
    return float(np.max(np.linalg.norm(off, axis=0)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_kernel_defect_matches_kernel_basis_formula(seed, orbit_family):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    n = int(rng.integers(1, 6 * d + 2))
    weights = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
    if orbit_family:
        t = 0.95 * dynsamp.cyclic_shift(d)
        sys = dynsamp.orbit(OrbitSpec(
            operator=t, generators=(random_vectors(rng, d, 1)[0],),
            weights=dynsamp.WeightSpec.explicit(weights), horizon=n))
    else:
        vecs = random_vectors(rng, d, n)
        if n > 1:  # a repeated vector keeps the rank below min(d, n)
            vecs[-1] = vecs[0]
        sys = frames.vector_system(list(vecs), weights=weights)
    res = dynsamp.kernel_invariance_check(sys)
    kernel = frames.kernel_synthesis(sys, tol=1e-10)
    assert res.kernel_dim == kernel.dimension
    assert kernel.complement.shape == (n, n - kernel.dimension)
    assert res.defect == pytest.approx(kernel_basis_defect(sys), abs=1e-12)


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
# canonical dual and surjectivity tail: one GEMM, one walk
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_dual_matches_column_loop(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    n = d + int(rng.integers(0, 3 * d))
    sys = frames.vector_system(list(random_vectors(rng, d, n)),
                               weights=rng.uniform(0.3, 2.0, n))
    s_pinv = numkit.pinv(frames.frame_operator(sys))
    u = frames.synthesis(sys)
    old = np.column_stack([s_pinv @ u[:, k] for k in range(n)])
    new = frames.synthesis(frames.canonical_dual(sys))
    # componentwise bound for a reordered length-d dot product
    bound = 4 * d * EPS * (np.abs(s_pinv) @ np.abs(u))
    assert np.all(np.abs(new - old) <= bound)


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
    s = dynsamp.orbit_frame_operator_exact(t, phi).s
    w = np.linalg.eigvalsh(s)
    if w[0] <= 1e-8 * w[-1]:
        return  # the report refuses a singular S; nothing to compare
    horizon = int(rng.integers(1, 5 * d + 2))
    rep = dynsamp.surjectivity_report(t, phi, s, horizon=horizon)
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
