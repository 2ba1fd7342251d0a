"""Tests for orbit constructions and property checkers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import checks, config, dynsamp, frames, numkit, presets
from dynsamp_lab.dynsamp import WeightSpec
from dynsamp_lab.errors import (
    DivergentSeries,
    HypothesisViolated,
    InvalidInput,
    NotAFrame,
)


def delta(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def orbit_of(t, phi, horizon, weights=None):
    return dynsamp.orbit(np.asarray(t, dtype=complex),
                         (np.asarray(phi, dtype=complex),), horizon, weights)


# ---------------------------------------------------------------------------
# weight specs and orbits
# ---------------------------------------------------------------------------

def test_weight_sequences():
    np.testing.assert_allclose(WeightSpec.constant(2.0).sequence(3),
                               [2.0, 2.0, 2.0])
    np.testing.assert_allclose(WeightSpec.geometric(0.5).sequence(3),
                               [1.0, 0.5, 0.25])
    np.testing.assert_allclose(WeightSpec.explicit([1, 2, 4]).sequence(2),
                               [1.0, 2.0])


def test_weights_reject_zero():
    with pytest.raises(InvalidInput):
        WeightSpec.explicit([1.0, 0.0]).sequence(2)
    with pytest.raises(InvalidInput):
        WeightSpec.constant(0.0).sequence(1)


def test_orbit_zero_operator():
    sys = orbit_of(np.zeros((2, 2)), [1.0, 2.0], 3)
    np.testing.assert_allclose(frames.synthesis(sys)[:, 0], [1.0, 2.0])
    np.testing.assert_allclose(frames.synthesis(sys)[:, 1], [0.0, 0.0])
    np.testing.assert_allclose(frames.synthesis(sys)[:, 2], [0.0, 0.0])


def test_orbit_nilpotent_shift_gives_basis():
    sys = orbit_of(dynsamp.nilpotent_shift(3), delta(3, 0), 3)
    np.testing.assert_allclose(frames.synthesis(sys), np.eye(3), atol=0)


def test_orbit_diagonal():
    sys = orbit_of(np.diag([0.5, 0.75]), [1.0, 1.0], 2)
    np.testing.assert_allclose(frames.synthesis(sys)[:, 1], [0.5, 0.75])


def test_orbit_generator_major_order():
    t = dynsamp.nilpotent_shift(3)
    sys = dynsamp.orbit(t, (delta(3, 0), delta(3, 1)), 2,
                        WeightSpec.geometric(0.5))
    # delta1-run then delta2-run, weights repeating per run
    np.testing.assert_allclose(frames.synthesis(sys)[:, 1], 0.5 * delta(3, 1))
    np.testing.assert_allclose(frames.synthesis(sys)[:, 2], delta(3, 1))
    np.testing.assert_allclose(sys.weights, [1.0, 0.5, 1.0, 0.5])


def test_orbit_rejects_fake_period():
    # the nilpotent shift has no period: a claimed period 2 is verified
    with pytest.raises(InvalidInput, match="not 2-periodic"):
        dynsamp.commutant_transport(dynsamp.nilpotent_shift(2), np.eye(2),
                                    delta(2, 0), period=2)


# ---------------------------------------------------------------------------
# contractive Bessel bound and exact orbit frame operator
# ---------------------------------------------------------------------------

def test_bessel_bound_half():
    bound = dynsamp.bessel_bound_contractive(numkit.spectrum(0.5 * np.eye(2)),
                                             delta(2, 0))
    assert bound == pytest.approx(4.0 / 3.0, abs=1e-13)
    # oracle: largest eigenvalue of the exact orbit frame operator
    t = 0.5 * np.eye(2)
    sol = dynsamp.orbit_frame_operator_exact(t, (delta(2, 0),), numkit.spectrum(t))
    assert np.linalg.eigvalsh(sol.s)[-1] <= bound + 1e-12


def test_bessel_bound_zero_operator():
    phi = np.array([3.0, 4.0])
    assert dynsamp.bessel_bound_contractive(numkit.spectrum(np.zeros((2, 2))),
                                            phi) \
        == pytest.approx(25.0, abs=1e-12)


def test_bessel_bound_diagonal_dominates_exact_upper():
    t = np.diag([0.5, 0.75]).astype(complex)
    phi = np.array([np.sqrt(3) / 2.0, np.sqrt(7) / 4.0])
    bound = dynsamp.bessel_bound_contractive(numkit.spectrum(t), phi)
    # ||phi||^2 = 19/16, 1 - ||T||^2 = 7/16
    assert bound == pytest.approx(19.0 / 7.0, abs=1e-12)
    top = dynsamp.orbit_frame_operator_exact(
        t, (phi,), numkit.spectrum(t)).eigenvalues[-1]
    assert top == pytest.approx(1.0 + np.sqrt(21) / 5.0, abs=1e-12)
    assert top <= bound


def test_bessel_bound_rejects_expansive():
    with pytest.raises(HypothesisViolated):
        dynsamp.bessel_bound_contractive(numkit.spectrum(np.eye(2)), delta(2, 0))


def test_bessel_bound_overflow_is_refused_without_warnings():
    # ||phi||^2 = 2e300 over 1 - ||T||^2 = 2e-12 is beyond float64
    sp = numkit.spectrum(np.diag([0.999999999999, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError,
                           match="is not finite in float64"):
            dynsamp.bessel_bound_contractive(sp, np.array([1e150, 1e150]))


def test_bessel_bound_sums_generators_with_one_norm(monkeypatch):
    rng = np.random.default_rng(3)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    t *= 0.9 / numkit.operator_norm(t)
    g1, g2 = (rng.standard_normal(6) + 1j * rng.standard_normal(6)
              for _ in range(2))
    sp = numkit.spectrum(t)
    singles = dynsamp.bessel_bound_contractive(sp, g1) \
        + dynsamp.bessel_bound_contractive(sp, g2)
    # the one norm is the spectrum's: nothing is factored again
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(a) or svd(*a, **k))
    assert dynsamp.bessel_bound_contractive(sp, g1, g2) == singles
    assert calls == []


def test_exact_orbit_operator_zero_t():
    phi = np.array([1.0, 2.0])
    t = np.zeros((2, 2))
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), numkit.spectrum(t))
    np.testing.assert_allclose(sol.s, np.outer(phi, phi), atol=1e-14)


def test_exact_orbit_operator_closed_form_bounds():
    t = np.diag([0.5, 0.75]).astype(complex)
    phi = np.array([np.sqrt(3) / 2.0, np.sqrt(7) / 4.0])
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), numkit.spectrum(t))
    closed = np.outer(phi, phi) / (1.0 - np.outer([0.5, 0.75], [0.5, 0.75]))
    np.testing.assert_allclose(sol.s, closed, atol=1e-12)
    w = np.linalg.eigvalsh(sol.s)
    assert w[0] == pytest.approx(1.0 - np.sqrt(21) / 5.0, abs=1e-12)
    assert w[-1] == pytest.approx(1.0 + np.sqrt(21) / 5.0, abs=1e-12)


def test_exact_orbit_operator_rank_deficient_axis():
    t = np.diag([0.5, 0.75])
    sol = dynsamp.orbit_frame_operator_exact(t, (delta(2, 0),), numkit.spectrum(t))
    np.testing.assert_allclose(sol.s, np.diag([4.0 / 3.0, 0.0]), atol=1e-13)
    assert dynsamp.reachability_rank(np.diag([0.5, 0.75]), delta(2, 0)) == 1


def test_positive_definite_iff_reachable():
    rng = np.random.default_rng(31)
    for trial in range(100):
        d = int(rng.integers(2, 7))
        lam = rng.uniform(0.1, 0.85, size=d)
        t = np.diag(lam).astype(complex)
        phi = rng.uniform(0.5, 1.5, size=d).astype(complex)
        if trial % 2 == 0:
            phi[int(rng.integers(0, d))] = 0.0  # orbit misses one eigenline
        sol = dynsamp.orbit_frame_operator_exact(t, (phi,), numkit.spectrum(t))
        reachable = dynsamp.reachability_rank(t, phi) == d
        posdef = np.linalg.eigvalsh(sol.s)[0] > 1e-12
        assert posdef == reachable


def reachability_pair(trial):
    """Trial ``trial`` of the family above."""
    rng = np.random.default_rng(31)
    for k in range(trial + 1):
        d = int(rng.integers(2, 7))
        lam = rng.uniform(0.1, 0.85, size=d)
        phi = rng.uniform(0.5, 1.5, size=d).astype(complex)
        if k % 2 == 0:
            phi[int(rng.integers(0, d))] = 0.0
    return np.diag(lam).astype(complex), phi


# Krylov singular values decay exponentially, so the reachability rank keeps
# numpy's eps rule: the Spectrum cut would call these pairs unreachable
@pytest.mark.parametrize("trial", [55, 77])
def test_reachability_rank_is_the_krylov_exception(trial):
    t, phi = reachability_pair(trial)
    d = t.shape[0]
    w = dynsamp.orbit_frame_operator_exact(
        t, (phi,), numkit.spectrum(t)).eigenvalues
    assert w[0] > 1e-12
    assert dynsamp.reachability_rank(t, phi) == d
    krylov = frames.synthesis(dynsamp.orbit(t, (phi,), d))
    assert numkit.spectrum(krylov).rank < d


# ---------------------------------------------------------------------------
# surjectivity criteria
# ---------------------------------------------------------------------------

def test_surjectivity_nilpotent_shift():
    t = dynsamp.nilpotent_shift(3)
    phi = delta(3, 0)
    sp = numkit.spectrum(t)
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
    np.testing.assert_allclose(sol.s, np.eye(3), atol=1e-12)
    rep = dynsamp.surjectivity_report(t, phi, sol, sp)
    assert rep.criterion_i == pytest.approx(0.0, abs=1e-12)
    assert rep.criterion_ii == pytest.approx(1.0, abs=1e-12)
    assert rep.criterion_iii == pytest.approx(0.0, abs=1e-12)
    assert rep.criterion_iv <= 1e-10
    assert rep.witness_index is None
    assert not rep.ground_truth_surjective
    assert rep.consistent


def test_surjectivity_diagonal_closed_form_oracle():
    lam = np.array([0.5, 0.75])
    phi = np.array([np.sqrt(3) / 2.0, np.sqrt(7) / 4.0])
    t = np.diag(lam).astype(complex)
    sp = numkit.spectrum(t)
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
    rep = dynsamp.surjectivity_report(t, phi, sol, sp)
    assert rep.ground_truth_surjective and rep.consistent
    # oracle: closed-form S and explicit 2x2 inversion give
    # q = <S^{-1} phi, phi>, criterion (iv) = |sqrt(q) - 1|
    closed = np.outer(phi, phi) / (1.0 - np.outer(lam, lam))
    det = closed[0, 0] * closed[1, 1] - closed[0, 1] * closed[1, 0]
    inv = np.array([[closed[1, 1], -closed[0, 1]],
                    [-closed[1, 0], closed[0, 0]]]) / det
    q = float(phi @ inv @ phi)
    assert rep.criterion_iv == pytest.approx(abs(math.sqrt(q) - 1.0), abs=1e-10)
    assert rep.criterion_iv > 1e-3


def test_surjectivity_scalar_half():
    t = np.array([[0.5]])
    phi = np.array([1.0])
    sp = numkit.spectrum(t)
    sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
    rep = dynsamp.surjectivity_report(t, phi, sol, sp)
    # ||S^{-1/2} phi|| = sqrt(3)/2 for S = 4/3
    assert rep.criterion_iv == pytest.approx(1.0 - math.sqrt(3.0) / 2.0,
                                             abs=1e-12)
    assert rep.ground_truth_surjective and rep.consistent


def test_surjectivity_requires_positive_definite_s():
    t = np.diag([0.5, 0.75])
    sp = numkit.spectrum(t)
    sol = dynsamp.orbit_frame_operator_exact(t, (delta(2, 0),), sp)
    np.testing.assert_allclose(sol.s, np.diag([4.0 / 3.0, 0.0]), atol=1e-13)
    with pytest.raises(NotAFrame):
        dynsamp.surjectivity_report(t, delta(2, 0), sol, sp)


def test_surjectivity_consistency_randomized():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        # strictly separated contractive eigenvalues in (0.15, 0.85)
        lam = 0.15 + 0.7 * (np.arange(d) + rng.uniform(0.2, 0.8, size=d)) / d
        t = np.diag(lam).astype(complex)
        phi = rng.uniform(0.5, 1.5, size=d).astype(complex)
        sp = numkit.spectrum(t)
        sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
        rep = dynsamp.surjectivity_report(t, phi, sol, sp)
        assert rep.ground_truth_surjective
        assert rep.consistent


# ---------------------------------------------------------------------------
# range versus orbit-tail span
# ---------------------------------------------------------------------------

def test_range_span_shift():
    t = dynsamp.nilpotent_shift(3)
    sys = orbit_of(t, delta(3, 0), 3)
    res = dynsamp.range_span_check(t, sys)
    assert res.equal and res.gap <= 1e-10


def test_range_span_spanning_diagonal():
    t = np.diag([0.5, 0.75]).astype(complex)
    phi = np.array([1.0, 1.0])
    sys = orbit_of(t, phi, 4)
    res = dynsamp.range_span_check(t, sys)
    assert res.equal


def test_range_span_non_spanning_orbit():
    t = np.diag([0.5, 0.75]).astype(complex)
    sys = orbit_of(t, delta(2, 0), 4)
    res = dynsamp.range_span_check(t, sys)
    assert not res.equal
    assert res.gap == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# frames from positive operators
# ---------------------------------------------------------------------------

def test_frame_from_diagonal_family():
    d = 8
    lam = 1.0 - 2.0 ** -(np.arange(1, d + 1))
    sys = dynsamp.frame_from_positive_operator(np.diag(lam),
                                               frames.standard_basis(d))
    s = frames.frame_operator(sys)
    assert np.max(np.abs(s - np.diag(lam))) <= 1e-12
    np.testing.assert_allclose(
        frames.synthesis(sys), np.diag(np.sqrt(lam)), atol=1e-12)


def test_frame_from_identity():
    sys = dynsamp.frame_from_positive_operator(np.eye(3),
                                               frames.standard_basis(3))
    np.testing.assert_allclose(frames.synthesis(sys), np.eye(3), atol=1e-12)


def test_frame_from_dense_positive_operator():
    t = np.array([[2.0, 1.0], [1.0, 2.0]])
    sys = dynsamp.frame_from_positive_operator(t, frames.standard_basis(2))
    np.testing.assert_allclose(frames.frame_operator(sys), t, atol=1e-10)


@pytest.mark.parametrize("t", [
    np.diag(1.0 - 2.0 ** -np.arange(1, 9)),
    np.array([[2.0, 1.0j, 0.0], [-1.0j, 3.0, 0.5], [0.0, 0.5, 1.0]]),
])
def test_frame_from_positive_operator_eigensolves_once(monkeypatch, t):
    basis = frames.standard_basis(t.shape[0])
    # the root that sqrt_psd's second eigensolve of the same operator gave
    want = frames.bessel_from_operator(numkit.sqrt_psd(t), basis)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(a) or eigh(*a, **k))
    got = dynsamp.frame_from_positive_operator(t, basis)
    assert len(calls) == 1
    assert np.array_equal(frames.synthesis(got), frames.synthesis(want))


def test_frame_from_rejects_indefinite():
    with pytest.raises(InvalidInput):
        dynsamp.frame_from_positive_operator(np.diag([1.0, 0.0]),
                                             frames.standard_basis(2))


# ---------------------------------------------------------------------------
# iterated frame operators
# ---------------------------------------------------------------------------

def doubling(horizon):
    """The horizons the iterated check reports: 1, 2, 4, ..., horizon."""
    return sorted({2**k for k in range(horizon.bit_length())} | {horizon})


def test_iterated_tight_frame_bound_two():
    sys = frames.vector_system([delta(2, 0), delta(2, 0),
                                delta(2, 1), delta(2, 1)])
    res = dynsamp.iterated_frame_operator_check(sys, [delta(2, 0)], horizon=8)
    assert res.lower_bound_a == pytest.approx(2.0, abs=1e-12)
    # oracle: S = 2I so S^n g = 2^n g and the m-th prefix upper bound is
    # sum of 4^n, n < m
    m = np.array(doubling(8))
    assert res.horizons == tuple(m) == (1, 2, 4, 8)
    np.testing.assert_allclose(10.0**res.log10_upper_bounds,
                               (4.0**m - 1.0) / 3.0, rtol=1e-12)
    assert res.verdict == "cannot-be-frame"
    assert res.upper_bound == math.inf


def test_iterated_small_tight_frame_converges():
    sys = frames.vector_system([delta(1, 0)], weights=[1.0 / math.sqrt(2.0)])
    res = dynsamp.iterated_frame_operator_check(sys, [delta(1, 0)], horizon=24)
    assert res.lower_bound_a == pytest.approx(0.5, abs=1e-12)
    # {2^-n} is Bessel in C^1: the bound is the sum of 4^-n = 4/3
    assert res.verdict == "bessel"
    assert res.unbounded_norm == 0.0
    assert res.upper_bound == pytest.approx(4.0 / 3.0, rel=1e-12)
    m = np.array(doubling(24))
    np.testing.assert_allclose(10.0**res.log10_upper_bounds,
                               (1.0 - 0.25**m) * 4.0 / 3.0, rtol=1e-12)


def test_iterated_half_identity_at_a_million_terms():
    sys = frames.vector_system([delta(1, 0)], weights=[1.0 / math.sqrt(2.0)])
    res = dynsamp.iterated_frame_operator_check(sys, [delta(1, 0)], 10**6)
    assert res.horizons[-1] == 10**6
    assert abs(10.0**res.log10_upper_bounds[-1] - 4.0 / 3.0) \
        <= math.ulp(4.0 / 3.0)


def test_iterated_onb_linear_growth():
    sys = frames.standard_basis(3)
    res = dynsamp.iterated_frame_operator_check(sys, [delta(3, 0)], horizon=16)
    assert res.lower_bound_a == pytest.approx(1.0, abs=1e-12)
    # S = I: prefix bounds grow linearly (m copies of one unit vector)
    np.testing.assert_allclose(10.0**res.log10_upper_bounds,
                               np.array(doubling(16), dtype=float), rtol=1e-12)
    assert res.verdict == "cannot-be-frame"


def test_iterated_horizon_one_is_the_generators_alone():
    sys = frames.standard_basis(2)
    res = dynsamp.iterated_frame_operator_check(sys, [[3.0, 4.0]], horizon=1)
    assert res.horizons == (1,)
    assert res.log10_upper_bounds[0] == pytest.approx(math.log10(25.0),
                                                      rel=1e-14)
    with pytest.raises(InvalidInput, match="horizon"):
        dynsamp.iterated_frame_operator_check(sys, [[3.0, 4.0]], horizon=0)


# T = diag(0.5), constant weights a: the orbit is finite and a frame, but
# the Bessel bound of {S^n phi} (first) and ||phi||^2 (second) are not
@pytest.mark.parametrize("phi, a, message", [
    (1e153, 8.67e-154,
     "upper bound of the Bessel family {S^n g} is not finite in float64"),
    (1e160, 1e-165, "||G||_F^2 of the generators is not finite in float64"),
])
def test_an_iterated_bound_past_float64_is_an_error_record(phi, a, message):
    cfg = config.parse_config({
        "schema_version": 1, "dimension": 1, "horizon": 4,
        "operator": {"kind": "diagonal", "values": [0.5]},
        "generators": [[phi]], "weights": {"kind": "constant", "value": a},
        "checks": ["iterated-frame-operator"],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record, = checks.run_experiment(cfg).checks
    assert record.error == f"LinAlgError: {message}"
    assert not record.passed and record.outputs == {}


def diagonal_frame(lam):
    """The system {sqrt(lambda_k) e_k}: its frame operator is diag(lambda)."""
    lam = [float(x) for x in lam]
    return frames.vector_system(list(np.eye(len(lam))), weights=np.sqrt(lam))


@pytest.mark.parametrize("lam, coords, verdict", [
    ((Fraction(1, 2), Fraction(3, 4)), (0, 1), "bessel"),
    ((Fraction(1, 4), 2, Fraction(9, 16)), (0, 2), "bessel"),
    ((Fraction(5, 4), Fraction(1, 4), Fraction(1, 16), Fraction(3, 4)),
     (1, 2, 3), "bessel"),
    ((Fraction(1, 2), 2, Fraction(3, 4)), (0, 1), "not-bessel"),
    ((Fraction(3, 2), 2, 4), (1,), "cannot-be-frame"),
])
def test_iterated_diagonal_against_exact_geometric_sums(lam, coords, verdict):
    # generator j sits on coordinate coords[j] with amplitude j + 1, so C is
    # diagonal and lambda_max(K_m o C) = max_k (j+1)^2 sum_{n<m} lambda_k^{2n}
    lam = [Fraction(x) for x in lam]
    d = len(lam)
    gens = [(j + 1) * delta(d, k) for j, k in enumerate(coords)]
    amp = {k: (j + 1)**2 for j, k in enumerate(coords)}
    horizon = 1000
    res = dynsamp.iterated_frame_operator_check(diagonal_frame(lam), gens,
                                                horizon)
    assert res.verdict == verdict
    for m, got in zip(res.horizons, res.log10_upper_bounds):
        exact = max(a * sum(lam[k]**(2 * n) for n in range(m))
                    for k, a in amp.items())
        # log10 of the exact fraction, through its numerator and denominator
        want = (math.log10(exact.numerator) - math.log10(exact.denominator))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), m
    if verdict == "bessel":
        exact = max(a / (1 - lam[k]**2) for k, a in amp.items())
        assert res.upper_bound == pytest.approx(float(exact), rel=1e-12)
        assert res.unbounded_norm == 0.0
    else:
        assert res.upper_bound == math.inf


def test_iterated_pick_bound_against_brute_force_series():
    # K o C against sum_{n<M} Lambda^n C Lambda^n in the eigenbasis of S
    rng = np.random.default_rng(5)
    d = 5
    u = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
    u *= 0.9 / np.linalg.svd(u, compute_uv=False)[0]
    sys = frames.VectorSystem(matrix=u)
    gens = list(rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))
    res = dynsamp.iterated_frame_operator_check(sys, gens, horizon=64)
    assert res.verdict == "bessel"
    sp = sys.spectrum
    lam = sp.s**2
    c = numkit.adjoint(sp.u) @ np.column_stack(gens)
    cc = c @ numkit.adjoint(c)
    brute = np.zeros_like(cc)
    prefix = {}
    for n in range(400):  # lambda_max^(2 n) = 0.81^400 < 1e-36
        brute += (lam**n)[:, None] * cc * (lam**n)[None, :]
        prefix[n + 1] = np.linalg.eigvalsh(brute)[-1]
    assert res.upper_bound == pytest.approx(prefix[400], rel=1e-12)
    np.testing.assert_allclose(10.0**res.log10_upper_bounds,
                               [prefix[m] for m in res.horizons], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_iterated_prefix_bounds_climb_to_the_pick_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    n = d + int(rng.integers(0, 2 * d))
    u = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    # lambda_max = 0.99 at most: its 2^21-th power is below 1e-9000
    u *= math.sqrt(rng.uniform(0.05, 0.99)) / np.linalg.svd(
        u, compute_uv=False)[0]
    sys = frames.VectorSystem(matrix=u)
    r = int(rng.integers(1, 4))
    gens = list(rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    res = dynsamp.iterated_frame_operator_check(sys, gens, horizon=2**20)
    assert res.verdict == "bessel"
    bounds = 10.0**res.log10_upper_bounds
    assert np.all(np.diff(bounds) >= -1e-13 * bounds[1:])
    assert np.all(bounds <= res.upper_bound * (1.0 + 1e-12))
    assert bounds[-1] == pytest.approx(res.upper_bound, rel=1e-10)


# ---------------------------------------------------------------------------
# unitary no-go proxy
# ---------------------------------------------------------------------------

def test_nogo_circulant_multiples():
    t = dynsamp.cyclic_shift(3)
    b = dynsamp.unitary_nogo_proxy(t, delta(3, 0), [3, 6, 9])
    np.testing.assert_allclose(b, [1.0, 2.0, 3.0], atol=1e-12)


def test_nogo_swap_brute_svd_oracle():
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    phi = delta(2, 0)
    b = dynsamp.unitary_nogo_proxy(t, phi, [2, 4])
    for n, b_val in zip([2, 4], b):
        cols = np.column_stack(
            [np.linalg.matrix_power(t, k) @ phi for k in range(n)])
        oracle = float(np.linalg.svd(cols, compute_uv=False)[0] ** 2)
        assert b_val == pytest.approx(oracle, abs=1e-12)


def test_nogo_identity_accumulates():
    b = dynsamp.unitary_nogo_proxy(np.eye(2), delta(2, 0), [5])
    assert b[0] == pytest.approx(5.0, abs=1e-12)


def test_nogo_trace_pigeonhole_random_unitary():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        horizons = [d, 4 * d, 16 * d]
        b = dynsamp.unitary_nogo_proxy(q, phi, horizons)
        for n, b_val in zip(horizons, b):
            assert b_val >= n * np.linalg.norm(phi) ** 2 / d - 1e-10


def test_nogo_rejects_non_unitary():
    with pytest.raises(InvalidInput):
        dynsamp.unitary_nogo_proxy(0.5 * np.eye(2), delta(2, 0), [2])


# ---------------------------------------------------------------------------
# periodic orbit model
# ---------------------------------------------------------------------------

def test_periodic_circulant_basis_orbit():
    t = dynsamp.cyclic_shift(3)
    model = dynsamp.periodic_orbit_model(t, delta(3, 0))
    assert model.period == 3
    np.testing.assert_allclose(model.s, np.eye(3), atol=1e-12)
    assert model.lower == pytest.approx(1.0, abs=1e-12)
    assert model.upper == pytest.approx(1.0, abs=1e-12)
    assert model.tst_residual <= 1e-12
    assert model.unitarity_residual <= 1e-12
    assert model.sandwich_lower_margin >= -1e-10
    assert model.sandwich_upper_margin >= -1e-10


def test_periodic_circulant_two_ones():
    t = dynsamp.cyclic_shift(3)
    phi = np.array([1.0, 1.0, 0.0])
    model = dynsamp.periodic_orbit_model(t, phi)
    # explicit outer-product sum oracle
    oracle = sum(
        np.outer(np.linalg.matrix_power(t, n) @ phi,
                 (np.linalg.matrix_power(t, n) @ phi).conj())
        for n in range(3)
    )
    np.testing.assert_allclose(model.s, oracle, atol=1e-12)
    np.testing.assert_allclose(model.s.real,
                               [[2, 1, 1], [1, 2, 1], [1, 1, 2]], atol=1e-12)
    assert model.lower == pytest.approx(1.0, abs=1e-10)
    assert model.upper == pytest.approx(4.0, abs=1e-10)
    assert model.tst_residual <= 1e-12
    assert model.unitarity_residual <= 1e-10
    # transformed orbit bounds inside [A/B, B/A]
    assert model.transformed_lower >= 0.25 - 1e-8
    assert model.transformed_upper <= 4.0 + 1e-8


def test_periodic_rank_one_span_branch():
    t = dynsamp.cyclic_shift(3)
    phi = np.ones(3) / math.sqrt(3.0)
    model = dynsamp.periodic_orbit_model(t, phi)
    assert model.span_relative
    assert model.lower == pytest.approx(model.upper, rel=1e-10)
    assert model.tst_residual <= 1e-12
    assert model.unitarity_residual <= 1e-10


def test_periodic_identities_all_small_circulants():
    rng = np.random.default_rng(12)
    for p in range(2, 13):
        t = dynsamp.cyclic_shift(p)
        phi = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        model = dynsamp.periodic_orbit_model(t, phi, period=p)
        assert model.tst_residual <= 1e-10 * max(1.0, numkit.frobenius(model.s))
        assert model.unitarity_residual <= 1e-10
        assert model.sandwich_lower_margin >= -1e-10
        assert model.sandwich_upper_margin >= -1e-10


def test_periodic_rejects_aperiodic():
    with pytest.raises(InvalidInput):
        dynsamp.periodic_orbit_model(0.5 * np.eye(2), delta(2, 0), period=3)


def conjugated_shift(d):
    """T = X P X^{-1}: P the cyclic shift, X = I + 0.3 G / sqrt(d) with G a
    seeded complex Gaussian, so T^d = I but T is not unitary."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = np.eye(d) + 0.3 * g / math.sqrt(d)
    return x @ dynsamp.cyclic_shift(d) @ np.linalg.inv(x)


@pytest.mark.parametrize("d", [3, 4, 7, 12, 32, 64])
def test_periodic_sandwich_margins_are_exact(d):
    t = conjugated_shift(d)
    phi = delta(d, 0) + delta(d, 1)
    model = dynsamp.periodic_orbit_model(t, phi)
    assert model.period == d
    ur = dynsamp.orbit(t, (phi,), d).spectrum.range_basis
    # oracle: sigma(T^n U_r) for every n mod p, each power taken afresh
    sv = [np.linalg.svd(np.linalg.matrix_power(t, n) @ ur, compute_uv=False)
          for n in range(d)]
    lo = math.sqrt(model.lower / model.upper)
    hi = math.sqrt(model.upper / model.lower)
    assert model.sandwich_lower_margin == pytest.approx(
        min(s[-1] for s in sv) - lo, rel=1e-12)
    assert model.sandwich_upper_margin == pytest.approx(
        hi - max(s[0] for s in sv), rel=1e-12)
    # T^n = S^{1/2} U^n S^{+1/2} on the span, and ||U* U - I||_F = eps
    # keeps sigma(U^n) within (1 -+ eps)^{n/2} of 1
    eps = model.unitarity_residual
    for n, s in enumerate(sv):
        assert s[-1] >= lo * (1.0 - eps) ** (n / 2) * (1.0 - 1e-12)
        assert s[0] <= hi * (1.0 + eps) ** (n / 2) * (1.0 + 1e-12)


def test_periodic_zero_generator_keeps_infinite_margins():
    model = dynsamp.periodic_orbit_model(dynsamp.cyclic_shift(3), np.zeros(3))
    assert model.sandwich_lower_margin == math.inf
    assert model.sandwich_upper_margin == math.inf


def test_periodic_record_does_not_depend_on_the_seed():
    def record(seed):
        rep = checks.run_experiment(
            presets.preset_config("circulant-zmodel", dim=12, seed=seed))
        rec = next(c for c in rep.checks if c.name == "periodic")
        return (rec.inputs, rec.outputs, rec.margins, rec.passed, rec.error)

    assert record(1) == record(9)


# ---------------------------------------------------------------------------
# commutant transport
# ---------------------------------------------------------------------------

def test_commutant_identity():
    t = dynsamp.cyclic_shift(3)
    res = dynsamp.commutant_transport(t, np.eye(3), np.array([1.0, 1.0, 0.0]))
    assert res.residual <= 1e-12
    assert max(res.power_residuals) <= 1e-12


def test_commutant_shift_with_itself():
    t = dynsamp.cyclic_shift(3)
    res = dynsamp.commutant_transport(t, t, np.array([1.0, 1.0, 0.0]))
    assert res.residual <= 1e-12
    assert max(res.power_residuals) <= 1e-12


def test_commutant_global_phase():
    t = dynsamp.cyclic_shift(3)
    v = np.exp(1j * 0.7) * np.eye(3)
    res = dynsamp.commutant_transport(t, v, np.array([1.0, 1.0, 0.0]))
    assert res.residual <= 1e-12


def test_commutant_rejects_non_commuting():
    t = dynsamp.cyclic_shift(3)
    v = np.diag([1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(InvalidInput):
        dynsamp.commutant_transport(t, v, delta(3, 0))


# ---------------------------------------------------------------------------
# weighted coefficient shift
# ---------------------------------------------------------------------------

def test_shift_weighted_basic():
    out = dynsamp.shift_weighted([1.0, 0.5, 0.25], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 2.0, 0.0])


def test_shift_weighted_constant_is_plain_shift():
    out = dynsamp.shift_weighted([1.0, 1.0, 1.0], [3.0, 4.0, 5.0])
    np.testing.assert_allclose(out, [0.0, 3.0, 4.0])


def test_shift_weighted_increasing_weights():
    out = dynsamp.shift_weighted([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(out, [0.0, 0.5, 0.5])


def test_shift_weighted_rejects_zero():
    with pytest.raises(InvalidInput):
        dynsamp.shift_weighted([1.0, 0.0], [1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_shift_weighted_definition(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 2.0, size=n) * np.exp(1j * rng.uniform(0, 6.28, n))
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = dynsamp.shift_weighted(a, c)
    assert out[0] == 0.0
    for k in range(1, n):
        assert out[k] == pytest.approx((a[k - 1] / a[k]) * c[k - 1], rel=1e-12)


# ---------------------------------------------------------------------------
# kernel invariance under the weighted shift
# ---------------------------------------------------------------------------

def test_kernel_invariance_riesz_system():
    sys = frames.vector_system([delta(2, 0), delta(2, 1)], weights=[1.0, 1.0])
    res = dynsamp.kernel_invariance_check(sys)
    assert res.invariant and res.defect == 0.0 and res.kernel_dim == 0


def test_kernel_invariance_overcomplete_not_invariant():
    sys = frames.vector_system(
        [delta(2, 0), delta(2, 1), np.array([1.0, 1.0])],
        weights=[1.0, 1.0, 1.0])
    res = dynsamp.kernel_invariance_check(sys)
    # kernel direction (1,1,-1)/sqrt(3); its shift (0,1,1)/sqrt(3) is
    # orthogonal to the kernel, so the defect is its full norm sqrt(2/3)
    assert not res.invariant
    assert res.defect == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_kernel_invariance_duplicated_vector():
    phi = np.array([1.0, 0.0])
    sys = frames.vector_system([phi, phi], weights=[1.0, 1.0])
    res = dynsamp.kernel_invariance_check(sys)
    # orthonormal kernel vector (1,-1)/sqrt(2) shifts to (0,1)/sqrt(2);
    # explicit 2x2 arithmetic leaves an off-kernel component of norm 1/2
    assert not res.invariant
    assert res.defect == pytest.approx(0.5, abs=1e-12)


def loop_kernel_defect(sys, basis):
    """Oracle: shift one kernel basis vector at a time; the defect is the
    spectral norm of the off-kernel parts."""
    off = np.zeros(basis.shape, dtype=complex)
    for j in range(basis.shape[1]):
        shifted = dynsamp.shift_weighted(sys.weights, basis[:, j])
        off[:, j] = shifted - basis @ (numkit.adjoint(basis) @ shifted)
    return float(np.linalg.norm(off, 2)) if basis.shape[1] else 0.0


def test_kernel_invariance_matches_column_loop_randomized():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(d + 1, 4 * d + 3))
        vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        weights = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
        sys = frames.vector_system(list(vecs), weights=weights)
        res = dynsamp.kernel_invariance_check(sys)
        basis = frames.kernel_synthesis(sys)
        assert res.kernel_dim == basis.shape[1]
        assert res.defect == pytest.approx(loop_kernel_defect(sys, basis),
                                           abs=1e-12)


def test_kernel_invariance_requires_weights():
    with pytest.raises(InvalidInput):
        dynsamp.kernel_invariance_check(frames.standard_basis(2))


# ---------------------------------------------------------------------------
# weight-ratio bound
# ---------------------------------------------------------------------------

def test_ratio_bound_shift_geometric():
    sys = orbit_of(dynsamp.nilpotent_shift(3), delta(3, 0), 3,
                   weights=WeightSpec.explicit([1.0, 0.5, 0.25]))
    res = dynsamp.ratio_bound_check(
        sys, numkit.spectrum(sys.provenance.operator))
    assert res.sup_ratio == pytest.approx(2.0, abs=1e-12)
    assert res.bound == pytest.approx(4.0, abs=1e-10)
    assert res.margin == pytest.approx(2.0, abs=1e-10)


def test_ratio_bound_circulant_constant():
    sys = orbit_of(dynsamp.cyclic_shift(3), delta(3, 0), 3,
                   weights=WeightSpec.constant(1.0))
    res = dynsamp.ratio_bound_check(
        sys, numkit.spectrum(sys.provenance.operator))
    assert res.sup_ratio == pytest.approx(1.0, abs=1e-12)
    assert res.margin >= -1e-10


def test_ratio_bound_growing_weights_svd_oracle():
    t = np.diag([0.3, 0.4]).astype(complex)
    sys = orbit_of(t, np.array([1.0, 1.0]), 6, weights=WeightSpec.geometric(2.0))
    res = dynsamp.ratio_bound_check(
        sys, numkit.spectrum(sys.provenance.operator))
    sv = np.linalg.svd(frames.synthesis(sys), compute_uv=False)
    oracle_bound = (sv[0] / sv[-1]) * numkit.operator_norm(t)
    assert res.bound == pytest.approx(float(oracle_bound), rel=1e-10)
    assert res.sup_ratio == pytest.approx(0.5, abs=1e-12)
    assert res.margin >= -1e-10


def test_ratio_bound_rejects_non_frame():
    sys = orbit_of(np.diag([0.5, 0.75]), delta(2, 0), 3,
                   weights=WeightSpec.constant(1.0))
    with pytest.raises(NotAFrame):
        dynsamp.ratio_bound_check(
            sys, numkit.spectrum(sys.provenance.operator))


# ---------------------------------------------------------------------------
# representation residual
# ---------------------------------------------------------------------------

def test_representation_weighted_shift_orbit():
    weights = WeightSpec.explicit([1.0, 0.5, 0.25])
    sys = orbit_of(dynsamp.nilpotent_shift(3), delta(3, 0), 3, weights=weights)
    assert dynsamp.representation_residual(sys) <= 1e-10


def test_representation_two_basis_boundary_case():
    sys = frames.vector_system([delta(2, 0), delta(2, 1)], weights=[1.0, 1.0])
    assert dynsamp.representation_residual(sys) <= 1e-12


def test_representation_independent_pair_is_exact():
    # Any linearly independent system with its (biorthogonal) canonical
    # dual satisfies the truncated recursion exactly.
    sys = frames.vector_system([delta(2, 0), np.array([1.0, 1.0])],
                               weights=[1.0, 1.0])
    assert dynsamp.representation_residual(sys) <= 1e-12


def test_representation_overcomplete_non_orbit():
    # Explicit 2x2 arithmetic oracle: for {d1, d2, d1+d2} with canonical
    # dual and constant weights the j=1 row misses by (1/3, 2/3), giving
    # residual sqrt(5)/3.
    sys = frames.vector_system([delta(2, 0), delta(2, 1),
                                np.array([1.0, 1.0])], weights=[1.0] * 3)
    residual = dynsamp.representation_residual(sys)
    assert residual == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-12)
    assert residual > 0.1


def test_representation_refuses_a_system_without_weights():
    with pytest.raises(InvalidInput, match="weights"):
        dynsamp.representation_residual(frames.standard_basis(2))


def test_representation_refuses_a_zero_system():
    sys = frames.vector_system([np.zeros(2), np.zeros(2)], weights=[1.0, 1.0])
    with pytest.raises(NotAFrame):
        dynsamp.representation_residual(sys)


def loop_representation_residual(fu, gu, a):
    """Oracle: the recursion evaluated term by term, one-based j and k."""
    n = fu.shape[1]
    worst = 0.0
    for j in range(1, n):
        acc = np.zeros(fu.shape[0], dtype=complex)
        for k in range(1, n):
            coef = np.vdot(gu[:, k - 1], fu[:, j - 1])  # <f_j, g_k>
            acc = acc + coef * (a[k - 1] / a[k]) * fu[:, k]
        rhs = (a[j] / a[j - 1]) * acc
        worst = max(worst, float(np.linalg.norm(fu[:, j] - rhs)))
    return worst


def test_representation_matches_double_loop_randomized():
    rng = np.random.default_rng(59)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 4 * d + 3))
        vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        a = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
        sys = frames.vector_system(list(vecs), weights=a)
        fu = frames.synthesis(sys)
        oracle = loop_representation_residual(
            fu, frames.synthesis(frames.canonical_dual(sys)), a)
        residual = dynsamp.representation_residual(sys)
        scale = numkit.operator_norm(fu) ** 2
        assert residual == pytest.approx(oracle, abs=1e-12 * scale)


def dual_pair_representation_residual(f_sys, g_sys, weights):
    """Oracle: the recursion under a caller-given dual pair, as two mixed
    frame operators, after checking that the pair reconstructs the range
    projector ``U_r U_r*`` within 1e-8."""
    if f_sys.dim != g_sys.dim or len(f_sys) != len(g_sys):
        raise InvalidInput("dual pair must match in dimension and length")
    a = np.array(weights, dtype=complex).reshape(-1)
    n = len(f_sys)
    fu = frames.synthesis(f_sys)
    q = f_sys.spectrum.range_basis
    mixed = frames.mixed_frame_operator(f_sys, g_sys)
    defect = mixed - q @ numkit.adjoint(q)
    if numkit.frobenius(defect) > 1e-8 and numkit.operator_norm(defect) > 1e-8:
        raise InvalidInput("second system is not a dual of the first")
    if n < 2:
        return 0.0
    ratio = a[:n - 1] / a[1:n]
    m = frames.mixed_frame_operator(
        frames.VectorSystem(matrix=fu[:, 1:n] * ratio),
        frames.VectorSystem(matrix=frames.synthesis(g_sys)[:, :n - 1]))
    rhs = (m @ fu[:, :n - 1]) / ratio
    return float(np.max(np.linalg.norm(fu[:, 1:n] - rhs, axis=0)))


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complex_weights(rng, n):
    return rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def representation_system(rng, family):
    """A weighted system of one family: full rank, rank below d, the
    nilpotent-shift orbit (zero vectors past T^d = 0), or one vector."""
    d = int(rng.integers(2, 7))
    if family == "nilpotent-orbit":
        n = int(rng.integers(2, 2 * d + 2))
        phi = delta(d, 0) if rng.random() < 0.5 else complex_gaussian(rng, d)
        weights = WeightSpec.explicit(complex_weights(rng, n)) \
            if rng.random() < 0.5 else WeightSpec.geometric(0.5 + 0.5j)
        return orbit_of(dynsamp.nilpotent_shift(d), phi, n, weights)
    if family == "single":
        n, rank = 1, 1
    elif family == "full":
        n = int(rng.integers(2, 4 * d + 3))
        rank = min(d, n)
    else:  # rank-deficient: rank < d
        rank = int(rng.integers(1, d))
        n = int(rng.integers(rank + 1, 4 * d + 3))
    vecs = complex_gaussian(rng, d, rank) @ complex_gaussian(rng, rank, n)
    weights = complex_weights(rng, n) if rng.random() < 0.7 else np.ones(n)
    return frames.vector_system(list(vecs.T), weights=weights)


def representation_gate(sys) -> float:
    """The comparison rule: |new - reference| <= 1e-14 max(1, sigma_max^2)."""
    return 1e-14 * max(1.0, float(sys.spectrum.s[0]) ** 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["full", "rank-deficient", "nilpotent-orbit",
                        "single"]))
def test_representation_matches_the_dual_pair_and_loop_oracles(seed, family):
    sys = representation_system(np.random.default_rng(seed), family)
    dual = frames.canonical_dual(sys)
    residual = dynsamp.representation_residual(sys)
    gate = representation_gate(sys)
    fu, gu = frames.synthesis(sys), frames.synthesis(dual)
    assert abs(residual - dual_pair_representation_residual(
        sys, dual, sys.weights)) <= gate
    assert abs(residual - loop_representation_residual(
        fu, gu, sys.weights)) <= gate
    if len(sys) == 1:
        assert residual == 0.0


def random_orbit(rng):
    """An orbit of a dense operator of norm 0.9 with explicit complex
    weights, horizon 2 to 3d."""
    d = int(rng.integers(2, 7))
    m = complex_gaussian(rng, d, d)
    t = 0.9 * m / numkit.operator_norm(m)
    n = int(rng.integers(2, 3 * d + 1))
    return t, complex_gaussian(rng, d), n, WeightSpec.explicit(
        complex_weights(rng, n))


def haar_unitary(rng, d):
    """Haar-distributed unitary: QR of a complex Gaussian with the phases
    of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(complex_gaussian(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_representation_scales_with_the_generator(seed):
    rng = np.random.default_rng(seed)
    t, phi, n, weights = random_orbit(rng)
    c = complex(rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    sys = orbit_of(t, phi, n, weights)
    scaled = orbit_of(t, c * phi, n, weights)
    assert abs(dynsamp.representation_residual(scaled)
               - abs(c) * dynsamp.representation_residual(sys)) \
        <= max(representation_gate(sys), representation_gate(scaled))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_representation_is_unitarily_invariant(seed):
    rng = np.random.default_rng(seed)
    t, phi, n, weights = random_orbit(rng)
    q = haar_unitary(rng, t.shape[0])
    sys = orbit_of(t, phi, n, weights)
    twin = orbit_of(q @ t @ numkit.adjoint(q), q @ phi, n, weights)
    assert abs(dynsamp.representation_residual(twin)
               - dynsamp.representation_residual(sys)) \
        <= representation_gate(sys)


@pytest.mark.parametrize("d, generators", [(8, 1), (32, 1), (128, 1), (16, 3)])
def test_representation_residual_keeps_the_norms_bits(d, generators):
    # the row-by-row sum over the cached D forms no copy of it, and gives
    # the bits of np.linalg.norm over the columns of Sigma D
    rng = np.random.default_rng([5, d])
    gens = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for _ in range(generators)]
    sys = dynsamp.orbit(0.95 * dynsamp.cyclic_shift(d), gens, 4 * d,
                        WeightSpec.geometric(0.99))
    ratio, shifted = frames.shift_ratios(sys)
    norms = np.linalg.norm(sys.shift_defect[:, :-1] * sys.spectrum.s[:, None],
                           axis=0)
    assert dynsamp.representation_residual(sys) == float(np.max(
        norms[shifted] / np.abs(ratio[shifted]), initial=0.0))


def test_representation_check_builds_no_dual(monkeypatch):
    cfg = presets.preset_config("shift-orbit", 16)
    sys = dynsamp.orbit(cfg.operator, cfg.generators, cfg.horizon, cfg.weights)
    oracle = dual_pair_representation_residual(
        sys, frames.canonical_dual(sys), sys.weights)

    def refuse(*args, **kwargs):
        raise AssertionError("the representation check built a dual")

    monkeypatch.setattr(frames, "canonical_dual", refuse)
    monkeypatch.setattr(frames, "mixed_frame_operator", refuse)
    record = checks.run_experiment(cfg).checks[cfg.checks.index("representation")]
    assert record.error is None and record.passed
    assert record.outputs["residual"] == dynsamp.representation_residual(sys)
    assert abs(record.outputs["residual"] - oracle) <= representation_gate(sys)


# ---------------------------------------------------------------------------
# several generators: the shift stops at each generator's end
# ---------------------------------------------------------------------------

@st.composite
def tail_free_orbits(draw):
    """The nilpotent shift's orbits of one to three generators, each a sum
    of standard basis vectors, at a horizon h >= d, where T^h = 0: the
    synthesis kernel is exactly invariant under the block shift."""
    d = draw(st.integers(2, 10))
    supports = draw(st.lists(st.sets(st.integers(0, d - 1), min_size=1),
                             min_size=1, max_size=3))
    gens = tuple(sum(delta(d, k) for k in support) for support in supports)
    horizon = draw(st.integers(d, 2 * d))
    weights = draw(st.sampled_from([WeightSpec.constant(1.0),
                                    WeightSpec.geometric(0.9),
                                    WeightSpec.geometric(1.1)]))
    return dynsamp.orbit(dynsamp.nilpotent_shift(d), gens, horizon, weights)


@settings(max_examples=60, deadline=None)
@given(tail_free_orbits())
def test_tail_free_orbits_of_several_generators_are_exact(sys):
    gate = representation_gate(sys)
    res = dynsamp.kernel_invariance_check(sys)
    assert res.invariant and res.defect <= gate
    assert dynsamp.representation_residual(sys) <= gate


def block_loop_kernel_defect(sys, basis, h):
    """Oracle: :func:`loop_kernel_defect` with the shift applied to each
    generator's run of h coefficients on its own."""
    off = np.zeros(basis.shape, dtype=complex)
    for j in range(basis.shape[1]):
        shifted = np.concatenate([
            dynsamp.shift_weighted(sys.weights[b:b + h], basis[b:b + h, j])
            for b in range(0, len(sys), h)])
        off[:, j] = shifted - basis @ (numkit.adjoint(basis) @ shifted)
    return float(np.linalg.norm(off, 2)) if basis.shape[1] else 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_kernel_defect_of_several_generators_matches_the_block_loop(seed,
                                                                   count):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    h = int(rng.integers(2, 3 * d))
    t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    t *= rng.uniform(0.3, 1.0) / numkit.operator_norm(t)
    gens = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                 for _ in range(count))
    sys = dynsamp.orbit(t, gens, h, WeightSpec.geometric(rng.uniform(0.8, 1.2)))
    res = dynsamp.kernel_invariance_check(sys)
    basis = frames.kernel_synthesis(sys)
    assert res.kernel_dim == basis.shape[1]
    assert res.defect == pytest.approx(block_loop_kernel_defect(sys, basis, h),
                                       abs=1e-12)


def test_the_runner_checks_the_shift_of_several_generators():
    d = 4
    cfg = config.parse_config({
        "schema_version": 1, "dimension": d, "horizon": 2 * d,
        "operator": {"kind": "nilpotent_shift", "dimension": d},
        "generators": [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
        "checks": ["kernel-invariance", "representation"]})
    kernel, representation = checks.run_experiment(cfg).checks
    assert kernel.error is None and kernel.outputs["invariant"]
    assert representation.error is None and representation.passed


# ---------------------------------------------------------------------------
# truncation versus exact series
# ---------------------------------------------------------------------------

def test_truncated_frame_operator_approaches_stein_solution():
    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = m * (rng.uniform(0.2, 0.9) / numkit.operator_norm(m))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        horizon = int(rng.integers(5, 40))
        sys = orbit_of(t, phi, horizon)
        truncated = frames.frame_operator(sys)
        exact = dynsamp.orbit_frame_operator_exact(t, (phi,), numkit.spectrum(t)).s
        q = numkit.operator_norm(t) ** 2
        tail_bound = q**horizon * np.linalg.norm(phi) ** 2 / (1.0 - q)
        assert numkit.frobenius(exact - truncated) <= tail_bound + 1e-10


def test_overcomplete_profiles_decay():
    # shift orbit plus one dependent vector
    t = dynsamp.nilpotent_shift(4)
    base = orbit_of(t, delta(4, 0), 4)
    u = frames.synthesis(base)
    vecs = list(u.T) + [u[:, 0] + u[:, 1]]
    profile = frames.lower_riesz_profile(frames.vector_system(vecs))
    assert np.all(np.diff(profile) <= 1e-12)
    assert profile[-1] / profile[0] <= 0.1
    # near-parallel family
    near = frames.vector_system([delta(2, 0), np.array([1.0, 0.1])])
    profile2 = frames.lower_riesz_profile(near)
    assert profile2[-1] / profile2[0] <= 0.1
