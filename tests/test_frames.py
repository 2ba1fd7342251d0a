"""Tests for finite vector-system frame theory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import frames, numkit
from dynsamp_lab.errors import InvalidInput, NotAFrame

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


def random_system(rng, dim=None, count=None, weighted=False):
    dim = dim or int(rng.integers(2, 6))
    count = count or int(rng.integers(1, 9))
    vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(count)]
    weights = None
    if weighted:
        weights = rng.uniform(0.2, 2.0, size=count) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, size=count))
    return frames.vector_system(vecs, weights=weights)


# ---------------------------------------------------------------------------
# construction and synthesis
# ---------------------------------------------------------------------------

def test_vector_system_rejects_zero_weight():
    with pytest.raises(InvalidInput):
        frames.vector_system([E1, E2], weights=[1.0, 0.0])


def test_vector_system_rejects_mixed_dims():
    with pytest.raises(InvalidInput):
        frames.vector_system([E1, [1.0, 0.0, 0.0]])


def test_synthesis_onb():
    np.testing.assert_allclose(frames.synthesis(frames.standard_basis(2)),
                               np.eye(2), atol=0)


def test_synthesis_overcomplete():
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    np.testing.assert_allclose(frames.synthesis(sys),
                               [[1, 0, 1], [0, 1, 1]], atol=0)


def test_synthesis_folds_weights():
    sys = frames.vector_system(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], weights=[1.0, 0.5, 0.25]
    )
    np.testing.assert_allclose(frames.synthesis(sys),
                               np.diag([1.0, 0.5, 0.25]), atol=0)


# ---------------------------------------------------------------------------
# frame bounds and classification
# ---------------------------------------------------------------------------

def test_bounds_onb():
    rep = frames.frame_bounds(frames.standard_basis(4))
    assert rep.classification == "riesz_basis"
    assert rep.a_opt == pytest.approx(1.0, abs=1e-13)
    assert rep.b_opt == pytest.approx(1.0, abs=1e-13)


def test_bounds_overcomplete_char_poly_oracle():
    # Oracle: frame operator [[2,1],[1,2]] has eigenvalues 1 and 3 from its
    # characteristic polynomial.
    expected = sorted(np.roots([1.0, -4.0, 3.0]).real)
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    rep = frames.frame_bounds(sys, ambient=True)
    assert rep.classification == "frame"
    assert rep.a_opt == pytest.approx(expected[0], abs=1e-12)
    assert rep.b_opt == pytest.approx(expected[1], abs=1e-12)


def test_bounds_weighted_riesz_basis():
    sys = frames.vector_system(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], weights=[1.0, 0.5, 0.25]
    )
    rep = frames.frame_bounds(sys)
    assert rep.classification == "riesz_basis"
    assert rep.a_opt == pytest.approx(1.0 / 16.0, abs=1e-13)
    assert rep.b_opt == pytest.approx(1.0, abs=1e-13)


def test_bounds_riesz_sequence_and_span_relative():
    sys = frames.vector_system([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    ambient = frames.frame_bounds(sys, ambient=True)
    span = frames.frame_bounds(sys, ambient=False)
    assert ambient.classification == "riesz_sequence"
    assert ambient.a_opt == 0.0 and not ambient.spans_ambient
    assert span.a_opt == pytest.approx(1.0, abs=1e-13)


def test_bounds_frame_sequence():
    sys = frames.vector_system([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0]])
    rep = frames.frame_bounds(sys, ambient=False)
    assert rep.classification == "frame_sequence"
    assert rep.rank == 2
    assert rep.a_opt == pytest.approx(1.0, abs=1e-12)


def test_bounds_zero_system_is_bessel_only():
    rep = frames.frame_bounds(frames.vector_system([[0.0, 0.0]]))
    assert rep.classification == "bessel_only"
    assert rep.a_opt == 0.0 and rep.b_opt == 0.0


# ---------------------------------------------------------------------------
# frame operator
# ---------------------------------------------------------------------------

def test_frame_operator_onb():
    np.testing.assert_allclose(frames.frame_operator(frames.standard_basis(2)),
                               np.eye(2), atol=0)


def test_frame_operator_diagonal_family():
    # {sqrt(1 - 2^-k) delta_k} has frame operator diag(1 - 2^-k): the
    # operator that generates the family equals its own frame operator.
    d = 16
    lam = 1.0 - 2.0 ** -(np.arange(1, d + 1))
    vecs = [np.sqrt(lam[k]) * np.eye(d)[:, k] for k in range(d)]
    s = frames.frame_operator(frames.vector_system(vecs))
    assert np.max(np.abs(s - np.diag(lam))) <= 1e-12


def test_frame_operator_outer_product_oracle():
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    # direct sum of outer products
    oracle = sum(np.outer(v, v.conj()) for v in frames.synthesis(sys).T)
    s = frames.frame_operator(sys)
    np.testing.assert_allclose(s, oracle, atol=1e-14)
    np.testing.assert_allclose(s, [[2, 1], [1, 2]], atol=1e-14)


def test_frame_operator_matches_synthesis_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sys = random_system(rng, weighted=bool(rng.integers(2)))
        u = frames.synthesis(sys)
        assert np.array_equal(frames.frame_operator(sys), u @ numkit.adjoint(u))


def test_frame_operator_extremes_match_bounds():
    rng = np.random.default_rng(99)
    for _ in range(100):
        sys = random_system(rng, weighted=bool(rng.integers(2)))
        rep = frames.frame_bounds(sys, ambient=True)
        w = np.linalg.eigvalsh(frames.frame_operator(sys))
        assert abs(w[-1] - rep.b_opt) <= 1e-10 * max(1.0, rep.b_opt)
        if rep.spans_ambient:
            assert abs(w[0] - rep.a_opt) <= 1e-10 * max(1.0, rep.b_opt)


# ---------------------------------------------------------------------------
# canonical dual
# ---------------------------------------------------------------------------

def test_dual_onb_is_itself():
    basis = frames.standard_basis(3)
    dual = frames.canonical_dual(basis)
    np.testing.assert_allclose(frames.synthesis(dual), np.eye(3), atol=1e-12)


def test_dual_duplicate_vector():
    sys = frames.vector_system([E1, E1])
    dual = frames.canonical_dual(sys)
    np.testing.assert_allclose(frames.synthesis(dual),
                               np.array([[0.5, 0.5], [0.0, 0.0]]), atol=1e-12)


def test_dual_reconstruction_oracle():
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    dual = frames.canonical_dual(sys)
    u = frames.synthesis(sys)
    du = frames.synthesis(dual)
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        recon = u @ (numkit.adjoint(du) @ f)
        assert np.linalg.norm(recon - f) <= 1e-8


def test_dual_projects_onto_span():
    sys = frames.vector_system([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    dual = frames.canonical_dual(sys)
    u = frames.synthesis(sys)
    du = frames.synthesis(dual)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = rng.standard_normal(3)
        recon = u @ (numkit.adjoint(du) @ f)
        expected = f.copy()
        expected[2] = 0.0  # projection onto span{e1, e2}
        assert np.linalg.norm(recon - expected) <= 1e-8


def test_dual_rejects_zero_system():
    with pytest.raises(NotAFrame):
        frames.canonical_dual(frames.vector_system([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# mixed frame operator
# ---------------------------------------------------------------------------

def test_mixed_identity():
    basis = frames.standard_basis(2)
    np.testing.assert_allclose(frames.mixed_frame_operator(basis, basis),
                               np.eye(2), atol=0)


def test_mixed_permutation():
    f = frames.vector_system([E2, E1])
    g = frames.standard_basis(2)
    np.testing.assert_allclose(frames.mixed_frame_operator(f, g),
                               [[0, 1], [1, 0]], atol=0)


def test_mixed_diagonal():
    f = frames.vector_system([[2.0, 0.0], E2])
    g = frames.standard_basis(2)
    np.testing.assert_allclose(frames.mixed_frame_operator(f, g),
                               np.diag([2.0, 1.0]), atol=0)


def test_mixed_applies_analysis_coefficients():
    rng = np.random.default_rng(3)
    f_sys = random_system(rng, dim=3, count=5)
    g_sys = random_system(rng, dim=3, count=5)
    t = frames.mixed_frame_operator(f_sys, g_sys)
    for _ in range(20):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        direct = sum(
            np.vdot(frames.synthesis(g_sys)[:, k], f)
            * frames.synthesis(f_sys)[:, k] for k in range(5)
        )
        assert np.linalg.norm(t @ f - direct) <= 1e-10


def test_mixed_rejects_length_mismatch():
    with pytest.raises(InvalidInput):
        frames.mixed_frame_operator(frames.standard_basis(2),
                                    frames.vector_system([E1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mixed_with_itself_is_frame_operator(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, weighted=bool(rng.integers(2)))
    diff = frames.mixed_frame_operator(sys, sys) - frames.frame_operator(sys)
    assert numkit.frobenius(diff) <= 1e-12 * max(
        1.0, numkit.frobenius(frames.frame_operator(sys))
    )


# ---------------------------------------------------------------------------
# kernel of the synthesis operator
# ---------------------------------------------------------------------------

def test_kernel_empty_for_independent_columns():
    assert frames.kernel_synthesis(frames.standard_basis(3)).shape == (3, 0)


def test_kernel_overcomplete():
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    kb = frames.kernel_synthesis(sys)
    assert kb.shape == (3, 1)
    direction = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    overlap = abs(np.vdot(direction, kb[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_kernel_duplicate_column():
    sys = frames.vector_system([E1, E1])
    kb = frames.kernel_synthesis(sys)
    assert kb.shape == (2, 1)
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(np.vdot(direction, kb[:, 0])) == pytest.approx(1.0, abs=1e-12)


def test_kernel_vectors_synthesize_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(50):
        sys = random_system(rng, dim=3, count=int(rng.integers(4, 8)))
        kb = frames.kernel_synthesis(sys)
        u = frames.synthesis(sys)
        max_norm = max(np.linalg.norm(u[:, k]) for k in range(u.shape[1]))
        for j in range(kb.shape[1]):
            c = kb[:, j]
            assert np.linalg.norm(u @ c) <= 1e-10 * max(1.0, max_norm)
        gram = numkit.adjoint(kb) @ kb
        assert numkit.frobenius(gram - np.eye(kb.shape[1])) <= 1e-10


# ---------------------------------------------------------------------------
# lower Riesz profile
# ---------------------------------------------------------------------------

def test_profile_onb():
    np.testing.assert_allclose(
        frames.lower_riesz_profile(frames.standard_basis(3)),
        [1.0, 1.0, 1.0], atol=1e-13)


def test_profile_dependent_prefix():
    sys = frames.vector_system([E1, E2, [1.0, 1.0]])
    profile = frames.lower_riesz_profile(sys)
    np.testing.assert_allclose(profile, [1.0, 1.0, 0.0], atol=1e-13)


def test_profile_near_parallel_gram_oracle():
    sys = frames.vector_system([E1, [1.0, 0.1]])
    # Oracle: smallest eigenvalue of the prefix Gram matrix.
    u = frames.synthesis(sys)
    gram = numkit.adjoint(u) @ u
    expected = float(np.linalg.eigvalsh(gram)[0])
    profile = frames.lower_riesz_profile(sys)
    assert profile[0] == pytest.approx(1.0, abs=1e-13)
    assert profile[1] == pytest.approx(expected, abs=1e-12)
    assert expected < 0.006  # near-parallel columns collapse the bound


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_profile_non_increasing(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, weighted=bool(rng.integers(2)))
    profile = frames.lower_riesz_profile(sys)
    jitter = 1e-12 * max(1.0, profile[0])
    assert np.all(np.diff(profile) <= jitter)


# ---------------------------------------------------------------------------
# Bessel systems from operators
# ---------------------------------------------------------------------------

def test_bessel_from_identity():
    out = frames.bessel_from_operator(np.eye(2), frames.standard_basis(2))
    np.testing.assert_allclose(frames.synthesis(out), np.eye(2), atol=0)


def test_bessel_from_diagonal():
    t = np.diag([0.5, 0.75])
    out = frames.bessel_from_operator(t, frames.standard_basis(2))
    rep = frames.frame_bounds(out)
    # direct sigma_max^2 oracle
    assert rep.b_opt == pytest.approx(0.75**2, abs=1e-13)


def test_bessel_from_swap():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = frames.bessel_from_operator(t, frames.standard_basis(2))
    np.testing.assert_allclose(frames.synthesis(out), [[0, 1], [1, 0]], atol=0)
    assert frames.frame_bounds(out).b_opt == pytest.approx(1.0, abs=1e-13)


def test_bessel_from_operator_rejects_non_onb():
    with pytest.raises(InvalidInput):
        frames.bessel_from_operator(np.eye(2),
                                    frames.vector_system([E1, [1.0, 1.0]]))


def test_bessel_bound_equals_operator_norm_squared():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out = frames.bessel_from_operator(t, frames.standard_basis(d))
        assert frames.frame_bounds(out).b_opt == pytest.approx(
            numkit.operator_norm(t) ** 2, rel=1e-10)


def test_dual_reconstruction_randomized_frames():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 30:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, d + 4))
        sys = random_system(rng, dim=d, count=n)
        rep = frames.frame_bounds(sys, ambient=True)
        if rep.a_opt <= rep.tol:
            continue
        dual = frames.canonical_dual(sys)
        u = frames.synthesis(sys)
        du = frames.synthesis(dual)
        for _ in range(20):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert np.linalg.norm(u @ (numkit.adjoint(du) @ f) - f) <= 1e-8
        checked += 1
