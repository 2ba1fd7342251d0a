"""One spectral decision per system.

Every rank-dependent quantity of a vector system (bounds and
classification, canonical dual and with it S^+ f_k, synthesis kernel, the
row projector V_r V_r* of the representation residual) derives from the one
``Spectrum`` cached on the system.  The oracles below are the earlier helpers, kept literally:
each made its own SVD and its own rank cut.
"""

import warnings
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp_lab import checks, config, dynsamp, frames, numkit, presets
from dynsamp_lab.dynsamp import WeightSpec

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# the earlier helpers, each with its own factorization and cut
# ---------------------------------------------------------------------------

def old_frame_bounds(u):
    """Values-only SVD, squared singular values above 1e-10 * b."""
    sq = np.linalg.svd(u, compute_uv=False) ** 2
    b = float(sq[0])
    rank = int(np.sum(sq > 1e-10 * b))
    d = u.shape[0]
    a_ambient = float(sq[d - 1]) if rank == d else 0.0
    a_span = float(sq[rank - 1]) if rank > 0 else 0.0
    return rank, a_ambient, a_span, b


def old_pinv(m):
    """SVD of m, singular values above max(shape) * eps * sigma_max."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank_tol = max(m.shape) * EPS * s[0]
    inv = np.where(s > rank_tol, 1.0 / np.where(s > rank_tol, s, 1.0), 0.0)
    return numkit.adjoint(vh) @ (inv[:, None] * numkit.adjoint(u)), \
        int(np.sum(s > rank_tol))


def old_canonical_dual(u):
    """pinv(S) U with S = U U*, one column at a time."""
    s_pinv, rank = old_pinv(u @ numkit.adjoint(u))
    return np.column_stack([s_pinv @ u[:, k] for k in range(u.shape[1])]), rank


def old_range_rank(u):
    s = np.linalg.svd(u, compute_uv=False)
    return int(np.sum(s > max(u.shape) * EPS * s[0]))


def old_kernel(u):
    """Full N x N SVD, singular values above 1e-10 * sigma_max."""
    _, s, vh = np.linalg.svd(u, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0
    return numkit.adjoint(vh)[:, rank:]


def old_ranks(u):
    """(frame_bounds, range_basis, pinv(S), kernel_synthesis) ranks."""
    return (old_frame_bounds(u)[0], old_range_rank(u),
            old_canonical_dual(u)[1], u.shape[1] - old_kernel(u).shape[1])


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def random_vectors(rng, d, n):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def shifted_identity_orbit(d, r, phi, horizon):
    """0.5 * cyclic shift + 0.3 * I with geometric(r) weights."""
    t = 0.5 * dynsamp.cyclic_shift(d) + 0.3 * np.eye(d)
    return dynsamp.orbit(t, (phi,), horizon, WeightSpec.geometric(r))


def ill_conditioned_system(rng, family):
    d = int(rng.integers(2, 33))
    if family == "shift-identity":
        phi = np.eye(d)[0] if rng.integers(2) else random_vectors(rng, d, 1)[0]
        return shifted_identity_orbit(d, float(rng.uniform(0.5, 0.95)), phi,
                                      4 * d)
    if family == "dense-contraction":
        # the orbit-ladder's dense rungs: 0.9 / sigma_max times a Gaussian
        m = random_vectors(rng, d, d)
        t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
        return dynsamp.orbit(t, (random_vectors(rng, d, 1)[0],), 4 * d,
                             WeightSpec.constant(1.0))
    # graded columns over many orders of magnitude
    n = int(rng.integers(1, 3 * d))
    vecs = random_vectors(rng, d, n) \
        * 10.0 ** (-rng.uniform(0.5, 3.0) * np.arange(n))[:, None]
    return frames.vector_system(list(vecs), weights=np.ones(n))


# ---------------------------------------------------------------------------
# one decision: every helper sees the rank of frame_bounds
# ---------------------------------------------------------------------------

def assert_helpers_read_the_spectrum(m, sp):
    """numkit's pinv, matrix_rank and range_basis make the rank decision
    of the spectrum ``sp`` of ``m``."""
    r = sp.rank
    assert numkit.matrix_rank(m) == r
    v_r = numkit.adjoint(sp.vh[:r])
    want = (v_r / sp.s[:r]) @ numkit.adjoint(sp.u[:, :r])
    got = numkit.pinv(m)
    assert got.shape == want.shape
    assert numkit.frobenius(got - want) <= 1e-12 * max(1.0, numkit.frobenius(want))
    q = numkit.range_basis(m)
    assert q.shape[1] == r
    if r:
        p_range = sp.range_basis @ numkit.adjoint(sp.range_basis)
        assert numkit.operator_norm(q @ numkit.adjoint(q) - p_range) <= 1e-12


def assert_one_rank(sys):
    rank = frames.frame_bounds(sys).rank
    dual = frames.canonical_dual(sys)
    assert np.linalg.matrix_rank(frames.synthesis(dual)) == rank
    assert len(sys) - frames.kernel_synthesis(sys).shape[1] == rank
    assert sys.spectrum.range_basis.shape[1] == rank
    assert_helpers_read_the_spectrum(frames.synthesis(sys), sys.spectrum)
    # a range projector of another rank would put the pair >= 1 apart
    q = sys.spectrum.range_basis
    assert numkit.operator_norm(frames.mixed_frame_operator(sys, dual)
                                - q @ numkit.adjoint(q)) <= 1e-8
    dynsamp.representation_residual(sys)


def test_the_geometric_shift_identity_orbit_has_one_rank():
    sys = shifted_identity_orbit(32, 0.7, np.eye(32)[0], 128)
    # the earlier helpers disagreed on this system
    assert old_ranks(frames.synthesis(sys)) == (12, 31, 17, 24)
    assert_one_rank(sys)
    assert frames.frame_bounds(sys).rank == 12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["shift-identity", "dense-contraction", "graded"]))
def test_every_helper_makes_the_frame_bounds_rank_decision(seed, family):
    assert_one_rank(ill_conditioned_system(np.random.default_rng(seed), family))


# ---------------------------------------------------------------------------
# parity with the earlier helpers where they agreed on the rank
# ---------------------------------------------------------------------------

def parity_system(rng, family):
    d = int(rng.integers(1, 9))
    n = d + int(rng.integers(0, 3 * d + 1)) if family != "tall" \
        else int(rng.integers(1, d + 1))
    weights = rng.uniform(0.3, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n))
    if family == "orbit":
        m = random_vectors(rng, d, d)
        t = rng.uniform(0.3, 0.9) * m / np.linalg.svd(m, compute_uv=False)[0]
        return dynsamp.orbit(t, (random_vectors(rng, d, 1)[0],), n,
                             WeightSpec.explicit(weights))
    vecs = random_vectors(rng, d, n)
    if family == "deficient" and n > 1:
        vecs[-1] = 2.0 * vecs[0]
    return frames.vector_system(list(vecs), weights=weights)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["plain", "tall", "deficient", "orbit"]))
def test_spectrum_helpers_match_the_earlier_helpers(seed, family):
    sys = parity_system(np.random.default_rng(seed), family)
    u = frames.synthesis(sys)
    assert_helpers_read_the_spectrum(u, sys.spectrum)
    ranks = old_ranks(u)
    if len(set(ranks)) > 1:
        return  # the earlier helpers disagree; nothing to compare against
    rank, a_ambient, a_span, b = old_frame_bounds(u)
    for ambient, a_old in ((True, a_ambient), (False, a_span)):
        rep = frames.frame_bounds(sys, ambient=ambient)
        assert rep.rank == rank
        assert rep.b_opt == pytest.approx(b, rel=1e-12)
        assert rep.a_opt == pytest.approx(a_old, rel=1e-12)

    new_dual = frames.synthesis(frames.canonical_dual(sys))
    old_dual, _ = old_canonical_dual(u)
    s = np.linalg.svd(u, compute_uv=False)
    cond = s[0] / s[rank - 1]
    assert numkit.frobenius(new_dual - old_dual) \
        <= 1e-10 * cond * numkit.frobenius(old_dual)

    new_kernel = frames.kernel_synthesis(sys)
    old_basis = old_kernel(u)
    assert new_kernel.shape == old_basis.shape
    if old_basis.shape[1]:
        diff = new_kernel @ numkit.adjoint(new_kernel) \
            - old_basis @ numkit.adjoint(old_basis)
        assert numkit.operator_norm(diff) <= 1e-10


# ---------------------------------------------------------------------------
# the orbit-ladder's dense rungs: one SVD, and the dual is accepted
# ---------------------------------------------------------------------------

LADDER_CHECKS = [
    "orbit-bounds", "stein", "surjectivity", "riesz-profile",
    "kernel-invariance", "iterated-frame-operator", "representation",
    "ratio-bound",
]


def dense_rung(d, seed=1, checks_=LADDER_CHECKS):
    """The dense orbit-ladder command: 0.9 / sigma_max times a Gaussian
    operator, one Gaussian generator, horizon 4d, no weights."""
    rng = np.random.default_rng([seed, d])
    rng.random(d)  # the circulant rung of the same dimension draws first
    m = random_vectors(rng, d, d)
    t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return config.parse_config({
        "schema_version": 1, "dimension": d, "horizon": 4 * d, "seed": seed,
        "operator": {"kind": "dense",
                     "entries": [[z.real, z.imag] for z in t.reshape(-1)]},
        "generators": [[[z.real, z.imag] for z in g]],
        "checks": checks_,
    })


def test_one_svd_of_the_synthesis_matrix_per_run(monkeypatch):
    # the 128 x 512 orbit's thin SVD is one QR of its transpose and an SVD
    # of the 128 x 128 factor; riesz-profile's QR is 128 x 128, and
    # kernel-invariance runs no QR of its own
    shapes = {"svd": [], "qr": []}

    def counting(name):
        kernel = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return kernel(a, *args, **kwargs)
        return counted

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rep = checks.run_experiment(dense_rung(128))
    assert (128, 512) not in shapes["svd"]
    assert shapes["qr"] == [(512, 128), (128, 128)]
    assert [c.name for c in rep.checks] == LADDER_CHECKS
    representation = rep.checks[LADDER_CHECKS.index("representation")]
    assert representation.error is None


def circulant_rung(d, seed=1):
    """The circulant orbit-ladder command: 0.95 x the cyclic shift, a
    flat-Fourier generator with seeded phases, weights 0.99^n, horizon 4d."""
    rng = np.random.default_rng([seed, d])
    g = np.fft.ifft(np.exp(2j * np.pi * rng.random(d))) * np.sqrt(d)
    return config.parse_config({
        "schema_version": 1, "dimension": d, "horizon": 4 * d, "seed": seed,
        "operator": {"kind": "circulant",
                     "first_row": [0.0, 0.95] + [0.0] * (d - 2)},
        "generators": [[[z.real, z.imag] for z in g]],
        "weights": {"kind": "geometric", "value": 0.99},
        "checks": LADDER_CHECKS,
    })


def counted_shift_defect(monkeypatch) -> list:
    """Patch ``VectorSystem.shift_defect`` to record each D it builds."""
    built = []
    prop = frames.VectorSystem.__dict__["shift_defect"]
    counted = cached_property(lambda sys: built.append(sys) or prop.func(sys))
    counted.__set_name__(frames.VectorSystem, "shift_defect")
    monkeypatch.setattr(frames.VectorSystem, "shift_defect", counted)
    return built


@pytest.mark.parametrize("rung", [circulant_rung, dense_rung])
def test_each_operator_is_factored_once_per_run(monkeypatch, rung):
    # ||T||_2, rank T and T^+ come from one SVD of T, S_inf is eigensolved
    # once, and C = sum phi phi*, PSD by construction, not at all; C and
    # the shift-defect matrix D are each formed once, for every check
    cfg = rung(32)
    t, gens = cfg.operator, cfg.generators
    c = sum(np.outer(g, g.conj()) for g in gens)
    s_inf = dynsamp.orbit_frame_operator_exact(t, gens, numkit.spectrum(t)).s
    seen = {"svd": [], "eigvalsh": [], "eigh": []}

    def counting(name):
        kernel = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            seen[name].append(np.array(a))
            return kernel(a, *args, **kwargs)
        return counted

    for name in seen:
        monkeypatch.setattr(np.linalg, name, counting(name))
    formed = []
    generator_frame_operator = dynsamp.generator_frame_operator
    monkeypatch.setattr(dynsamp, "generator_frame_operator",
                        lambda *args: formed.append(args)
                        or generator_frame_operator(*args))
    built = counted_shift_defect(monkeypatch)
    rep = checks.run_experiment(cfg)
    assert len(formed) == 1 and len(built) == 1

    def calls(names, *ms):
        return sum(any(np.array_equal(a, m) for m in ms)
                   for name in names for a in seen[name])
    assert calls(["svd"], t) == 1
    assert calls(["eigvalsh", "eigh"], s_inf) == 1
    # C or its Hermitian part: with FMA, phi phi* need not be exactly Hermitian
    assert calls(["eigvalsh", "eigh"], c, (c + numkit.adjoint(c)) / 2.0) == 0
    assert [r.name for r in rep.checks] == LADDER_CHECKS
    assert rep.checks[LADDER_CHECKS.index("stein")].error is None


@pytest.mark.parametrize("preset", ["perturbation-gallery", "vacuity-search"])
def test_a_run_of_certificate_checks_computes_no_shared_quantity(monkeypatch,
                                                                 preset):
    # perturbation: and satisfiability: checks read their own inputs, so the
    # run builds no orbit (and so no D), no spectrum of T, no C and no S_inf
    runs = []

    class Recorded(checks.Run):
        def __init__(self, cfg):
            super().__init__(cfg)
            runs.append(self)

    monkeypatch.setattr(checks, "Run", Recorded)
    built = counted_shift_defect(monkeypatch)
    rep = checks.run_experiment(presets.preset_config(preset))
    run, = runs
    assert rep.passed
    assert not {"orbit", "spectrum", "c"} & set(vars(run))
    assert run._stein == {} and built == []


def test_the_orbit_and_its_shift_defect_are_released_with_the_run(
        monkeypatch):
    # D lives on the run's orbit system, which nothing outside the run holds
    systems = []
    orbit = dynsamp.orbit

    def recorded(*args):
        sys = orbit(*args)
        systems.append(weakref.ref(sys))
        return sys

    monkeypatch.setattr(dynsamp, "orbit", recorded)
    rep = checks.run_experiment(dense_rung(8))
    assert all(r.error is None for r in rep.checks)
    assert len(systems) == 1 and systems[0]() is None


# the entries of this orbit are finite, but sigma_1^2 and C = phi phi* are not
OVERFLOW = {
    "schema_version": 1, "dimension": 2, "horizon": 4,
    "operator": {"kind": "diagonal", "values": [0.5, 0.25]},
    "generators": [[1e200, 1e200]],
    "checks": LADDER_CHECKS,
}


def test_an_overflowed_square_is_refused_where_it_arises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = checks.run_experiment(config.parse_config(OVERFLOW))
    errors = {r.name: r.error for r in rep.checks}
    assert all(not r.passed and r.outputs == {} for r in rep.checks)
    sigma = ("LinAlgError: squared singular value sigma_1^2 of a 2 x 4 "
             "matrix is not finite in float64")
    c_sum = "LinAlgError: C = sum phi phi* is not finite in float64"
    assert errors == {
        "orbit-bounds": sigma,
        "stein": c_sum,
        "surjectivity": c_sum,
        "riesz-profile": "LinAlgError: squared smallest singular value of "
                         "the prefix of length 1 is not finite in float64",
        "kernel-invariance": sigma,
        "iterated-frame-operator": sigma,
        "representation": sigma,
        "ratio-bound": sigma,
    }


# ---------------------------------------------------------------------------
# the thin SVD on both sides of the QR-first (R-SVD) crossover
# ---------------------------------------------------------------------------

def ladder_orbit(d):
    cfg = dense_rung(d)
    return frames.synthesis(dynsamp.orbit(
        cfg.operator, cfg.generators, cfg.horizon))


CROSSOVER = {
    # name -> (matrix from a seeded generator, takes the QR path)
    "31x124": (lambda rng: random_vectors(rng, 124, 31).T, False),
    "32x63": (lambda rng: random_vectors(rng, 63, 32).T, False),
    "32x64": (lambda rng: random_vectors(rng, 64, 32).T, True),
    "64x256": (lambda rng: random_vectors(rng, 256, 64).T, True),
    "128x512": (lambda rng: random_vectors(rng, 512, 128).T, True),
    "tall 512x128": (lambda rng: random_vectors(rng, 128, 512), True),
    "dense rung d=128, rank 15": (lambda rng: ladder_orbit(128), True),
    "zero 64x256": (lambda rng: np.zeros((64, 256), dtype=complex), True),
}


@pytest.mark.parametrize("name", list(CROSSOVER))
def test_spectrum_is_a_thin_svd_across_the_crossover(name, monkeypatch):
    make, qr_path = CROSSOVER[name]
    m = np.ascontiguousarray(make(np.random.default_rng(11)))
    qr_shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *args: qr_shapes.append(a.shape)
                        or qr(a, *args))
    sp = numkit.spectrum(m)
    d, n = m.shape
    k = min(d, n)
    assert qr_shapes == ([(max(d, n), k)] if qr_path else [])
    assert sp.u.shape == (d, k) and sp.s.shape == (k,) \
        and sp.vh.shape == (k, n)

    sigma = np.linalg.svd(m, compute_uv=False)
    gate = 10 * max(d, n) * EPS
    assert np.linalg.norm((sp.u * sp.s) @ sp.vh - m, 2) <= gate * sigma[0]
    assert np.linalg.norm(numkit.adjoint(sp.u) @ sp.u - np.eye(k), 2) <= gate
    assert np.linalg.norm(sp.vh @ numkit.adjoint(sp.vh) - np.eye(k), 2) \
        <= gate
    assert np.max(np.abs(sp.s - sigma)) <= 1e-13 * sigma[0]
    assert np.all(np.diff(sp.s) <= 0)
    assert sp.rank == old_frame_bounds(m)[0]
    if not qr_path:  # below the crossover: the plain thin SVD, bit for bit
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        assert all(np.array_equal(a, b)
                   for a, b in ((sp.u, u), (sp.s, s), (sp.vh, vh)))
    assert_helpers_read_the_spectrum(m, sp)


@pytest.mark.parametrize("shape", [(3, 64, 256), (3, 256, 64), (3, 8, 24)])
def test_spectra_of_a_stack_equal_each_spectrum_bit_for_bit(shape):
    rng = np.random.default_rng(list(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[1, :, 1] = stack[1, :, 0]  # one rank-deficient matrix
    for sp, m in zip(numkit.spectra(stack), stack):
        one = numkit.spectrum(m)
        assert (sp.cut, sp.rank) == (one.cut, one.rank)
        assert all(np.array_equal(getattr(sp, f), getattr(one, f))
                   for f in ("u", "s", "vh"))


# rungs that an earlier dual test refused: d = 8, seed 7, where the helpers
# agreed on the rank but pinv(S) U was too inaccurate (cond(S) = cond(U)^2);
# d >= 32, where they disagreed on the rank.  The check now builds no dual.
@pytest.mark.parametrize("d,seed", [(8, 7), (32, 1), (64, 1)])
def test_representation_accepts_the_library_dual_on_dense_rungs(d, seed):
    rep = checks.run_experiment(
        dense_rung(d, seed=seed, checks_=["representation"]))
    assert rep.checks[0].error is None
    assert "residual" in rep.checks[0].outputs


# seed 7, d = 8: a frame of rank 8, whose S_inf the earlier 1e-8 * lambda_max
# test called not positive definite; seed 1, d = 32: rank 14
@pytest.mark.parametrize("d,seed,rank", [(8, 7, 8), (32, 1, 14)])
def test_orbit_bounds_stein_and_krylov_ranks_agree_on_dense_rungs(d, seed,
                                                                 rank):
    cfg = dense_rung(d, seed=seed, checks_=["orbit-bounds", "surjectivity"])
    bounds, surj = checks.run_experiment(cfg).checks
    t, gens = cfg.operator, cfg.generators
    w = np.linalg.eigvalsh(dynsamp.orbit_frame_operator_exact(
        t, gens, numkit.spectrum(t)).s)
    krylov = frames.synthesis(dynsamp.orbit(t, gens, d))
    assert bounds.outputs["rank"] == rank
    assert numkit.rank_cut(w)[1] == rank
    assert numkit.spectrum(krylov).rank == rank
    if rank == d:
        assert surj.error is None and "consistent" in surj.outputs
    else:
        assert surj.error.startswith("NotAFrame:")


def test_an_orbit_error_is_each_orbit_check_record(monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        raise np.linalg.LinAlgError("orbit failed")

    monkeypatch.setattr(dynsamp, "orbit", failing)
    cfg = dense_rung(4, checks_=["orbit-bounds", "stein", "ratio-bound"])
    rep = checks.run_experiment(cfg)
    errors = [c.error for c in rep.checks]
    assert errors == ["LinAlgError: orbit failed", None,
                      "LinAlgError: orbit failed"]
    assert len(calls) == 2


def test_orbit_checks_share_one_orbit(monkeypatch):
    calls = []
    orbit = dynsamp.orbit

    def counted(t, generators, horizon, weights=None):
        calls.append(weights)
        return orbit(t, generators, horizon, weights)

    monkeypatch.setattr(dynsamp, "orbit", counted)
    rep = checks.run_experiment(dense_rung(8))
    assert len(calls) == 1
    assert calls[0] == WeightSpec.constant(1.0)
    assert all(c.error is None for c in rep.checks)


# ---------------------------------------------------------------------------
# the periodic (Z) model: one period of the orbit, and its spectrum
# ---------------------------------------------------------------------------

def _psd_root_pair(s, rel_tol: float = 1e-12):
    """Square root and pseudo-inverse square root of a PSD matrix, both cut
    at ``rel_tol * lambda_max`` on the eigenvalues of ``s`` (thresholding
    after the square root would invert eigenvalue dust amplified from
    eps to sqrt(eps))."""
    w, v = numkit.eig_hermitian(s)
    cut = rel_tol * max(float(w[-1]), 0.0)
    keep = w > cut
    vk = v[:, keep]
    wk = np.sqrt(w[keep])
    root = (vk * wk) @ numkit.adjoint(vk)
    root_pinv = (vk / wk) @ numkit.adjoint(vk)
    projector = vk @ numkit.adjoint(vk)
    return root, root_pinv, projector


def old_periodic_model(t, phi, p):
    """The earlier model: eigenvalues of S = U U*, cut at 1e-12 * lambda_max,
    and the root pair above; the transformed orbit as in the library."""
    s = frames.frame_operator(dynsamp.orbit(t, (phi,), p))
    w = np.linalg.eigvalsh((s + numkit.adjoint(s)) / 2.0)
    span_relative = w[0] <= 1e-12 * max(w[-1], 0.0)
    positive = w[w > 1e-12 * max(w[-1], 0.0)]
    lower = float(positive[0]) if positive.size else 0.0
    root, root_pinv, projector = _psd_root_pair(s)
    u = root_pinv @ t @ root
    transformed = frames.frame_bounds(
        dynsamp.orbit(u, (root_pinv @ phi,), p), ambient=not span_relative)
    return {
        "span_relative": bool(span_relative), "lower": lower,
        "upper": float(w[-1]), "root": root, "root_pinv": root_pinv,
        "projector": projector,
        "unitarity": numkit.frobenius(numkit.adjoint(u) @ u - projector),
        "transformed": (transformed.a_opt, transformed.b_opt),
    }


def fourier_generator(coeffs):
    """phi = sum_k c_k f_k, f_k the Fourier basis: the eigenvectors of the
    cyclic shift, so the orbit's frame operator has eigenvalues p |c_k|^2."""
    p = len(coeffs)
    f = np.exp(2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
    return f @ np.asarray(coeffs, dtype=complex) / np.sqrt(p)


def assert_one_periodic_rank(p, phi):
    t = dynsamp.cyclic_shift(p)
    sys = dynsamp.orbit(t, (phi,), p)
    model = dynsamp.periodic_orbit_model(t, phi)
    assert model.span_relative == (frames.frame_bounds(sys).rank < p)
    assert model.lower == frames.frame_bounds(sys, ambient=False).a_opt
    return model


@pytest.mark.parametrize("eps", [1e-4, 3e-6, 1e-6])
def test_the_periodic_model_makes_the_orbit_rank_decision(eps):
    # S has eigenvalues 3, 3 and 3 eps^2; the orbit's cut is 1e-10 * 3, so
    # eps = 3e-6 leaves a frame sequence of rank 2, not a spanning orbit
    model = assert_one_periodic_rank(3, fourier_generator([1.0, 1.0, eps]))
    assert model.span_relative == (eps < 1e-5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_graded_circulant_orbits_have_one_periodic_rank(p, seed):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** (-7.0 * rng.random(p))
    phases = np.exp(2j * np.pi * rng.random(p))
    assert_one_periodic_rank(p, fourier_generator(magnitudes * phases))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000), st.booleans())
def test_the_periodic_model_matches_the_earlier_root_pair(p, seed, deficient):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.1, 1.0, p) * np.exp(2j * np.pi * rng.random(p))
    if deficient:  # Fourier coefficients that vanish: the orbit spans less
        coeffs[rng.random(p) < 0.5] = 0.0
        coeffs[0] = 1.0
    t = dynsamp.cyclic_shift(p)
    phi = fourier_generator(coeffs)
    old = old_periodic_model(t, phi, p)
    model = dynsamp.periodic_orbit_model(t, phi)
    sp = dynsamp.orbit(t, (phi,), p).spectrum
    assert model.span_relative == old["span_relative"] \
        == (sp.rank < p) == (np.count_nonzero(coeffs) < p)

    ur, sr = sp.range_basis, sp.s[:sp.rank]
    for new, key in (((ur * sr) @ numkit.adjoint(ur), "root"),
                     ((ur / sr) @ numkit.adjoint(ur), "root_pinv"),
                     (ur @ numkit.adjoint(ur), "projector")):
        assert numkit.frobenius(new - old[key]) <= 1e-10
    assert model.lower == pytest.approx(old["lower"], rel=1e-12)
    assert model.upper == pytest.approx(old["upper"], rel=1e-12)
    assert model.unitarity_residual == pytest.approx(old["unitarity"], abs=1e-10)
    assert (model.transformed_lower, model.transformed_upper) \
        == pytest.approx(old["transformed"], abs=1e-10)
