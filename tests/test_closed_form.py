"""Closed-form rungs: frames whose bounds, Stein solution, kernel defect
and representation residual are known exactly.

The rung at dimension d is T = r P, with P the cyclic shift and
r = 10^(-3/(d-1)) (so r^(2(d-1)) = 1e-6), the generator phi = sqrt(d) e_0,
horizon N = 4d and no weights.  Its orbit is f_n = sqrt(d) r^n e_(n mod d),
so

    S_N   = diag_m  d r^(2m) (1 - r^(2N)) / (1 - r^(2d)),
    S_inf = diag_m  d r^(2m) / (1 - r^(2d)),

and the singular values of the synthesis matrix are the square roots of
S_N's diagonal.  Its Haar twin (Q T Q*, Q phi), for a Haar-distributed
unitary Q, has the same spectra and must give the same verdicts.
"""

import numpy as np
import pytest

from dynsamp_lab import checks, config, dynsamp, frames, numkit
from dynsamp_lab.dynsamp import WeightSpec

DIMS = [4, 8, 16, 32, 64]
LADDER_CHECKS = [
    "orbit-bounds", "stein", "surjectivity", "riesz-profile",
    "kernel-invariance", "iterated-frame-operator", "representation",
    "ratio-bound",
]


def rung(d):
    """The operator, generator and r of the closed-form rung."""
    r = 10.0 ** (-3.0 / (d - 1))
    return r * dynsamp.cyclic_shift(d), np.sqrt(d) * np.eye(d)[0], r


def haar_unitary(rng, d):
    """Haar-distributed unitary: QR of a complex Gaussian with the phases
    of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def closed_form_config(t, phi):
    def pairs(z):
        return [[float(x.real), float(x.imag)] for x in np.ravel(z)]
    d = t.shape[0]
    return config.parse_config({
        "schema_version": 1, "dimension": d, "horizon": 4 * d, "seed": 1,
        "operator": {"kind": "dense", "entries": pairs(t)},
        "generators": [pairs(phi)],
        "checks": LADDER_CHECKS,
    })


@pytest.mark.parametrize("d", DIMS)
def test_singular_values_and_frame_bounds(d):
    t, phi, r = rung(d)
    sys = dynsamp.orbit(t, (phi,), 4 * d, WeightSpec.constant(1.0))
    m = np.arange(d)
    want = d * r ** (2 * m) * (1 - r ** (8 * d)) / (1 - r ** (2 * d))
    np.testing.assert_allclose(sys.spectrum.s ** 2, want, rtol=2e-15, atol=0)
    bounds = frames.frame_bounds(sys)
    assert bounds.classification == "frame"
    assert bounds.a_opt == pytest.approx(want[-1], rel=2e-15, abs=0)
    assert bounds.b_opt == pytest.approx(want[0], rel=2e-15, abs=0)


@pytest.mark.parametrize("d", DIMS)
def test_infinite_orbit_frame_operator(d):
    t, phi, r = rung(d)
    lam = np.linalg.eigvalsh(dynsamp.orbit_frame_operator_exact(
        t, (phi,), numkit.spectrum(t)).s)
    m = np.arange(d)[::-1]  # ascending eigenvalues
    np.testing.assert_allclose(lam, d * r ** (2 * m) / (1 - r ** (2 * d)),
                               rtol=4e-15, atol=0)


@pytest.mark.parametrize("d", DIMS)
def test_kernel_defect(d):
    # The row space of the synthesis matrix is spanned by
    # w_m = sum_q r^(qd) e_(m + qd).  For x in the kernel, <w_m, L x> = 0
    # for m >= 1 and <w_0, L x> = -r^(4d) x_(N-1), so the defect of x is
    # r^(4d) |x_(N-1)| / ||w_0||, ||w_0||^2 = (1 - r^(8d)) / (1 - r^(2d)).
    # The defect is the largest of these over unit kernel vectors x, taken
    # at x = (I - P) e_(N-1) / ||(I - P) e_(N-1)||, and |x_(N-1)| =
    # ||(I - P) e_(N-1)|| = 1 - O(r^(6d)), since e_(N-1) meets the row
    # space only through w_(d-1), whose last entry is r^(3d) / ||w_(d-1)||;
    # that is 1 in float64.
    t, phi, r = rung(d)
    sys = dynsamp.orbit(t, (phi,), 4 * d, WeightSpec.constant(1.0))
    res = dynsamp.kernel_invariance_check(sys)
    want = r ** (4 * d) * np.sqrt((1 - r ** (2 * d)) / (1 - r ** (8 * d)))
    assert res.kernel_dim == 3 * d
    assert res.defect == pytest.approx(want, rel=1e-12, abs=0)
    # r^(4d) itself lies 5e-9 (d = 4) to 4e-7 (d = 64) relative above it
    assert 0 < 1 - res.defect / r ** (4 * d) < 1e-6


@pytest.mark.parametrize("d", DIMS)
def test_representation_residual_is_float_noise(d):
    # closed form sqrt(d) r^(7d) (1 - r^(2d)) / (1 - r^(8d)), below the
    # rounding of sigma_max^2 = b_opt at every d here
    t, phi, r = rung(d)
    sys = dynsamp.orbit(t, (phi,), 4 * d, WeightSpec.constant(1.0))
    b_opt = frames.frame_bounds(sys).b_opt
    assert np.sqrt(d) * r ** (7 * d) < 1e-14 * b_opt
    assert dynsamp.representation_residual(sys) <= 1e-14 * b_opt


@pytest.mark.parametrize("d", DIMS)
def test_the_haar_twin_gives_the_same_verdicts(d):
    t, phi, r = rung(d)
    q = haar_unitary(np.random.default_rng([2007, d]), d)
    rung_rep = checks.run_experiment(closed_form_config(t, phi))
    twin_rep = checks.run_experiment(
        closed_form_config(q @ t @ q.conj().T, q @ phi))
    assert [(c.name, c.passed, c.error) for c in twin_rep.checks] \
        == [(c.name, c.passed, c.error) for c in rung_rep.checks]
    if d >= 8:  # at d = 4 the surjectivity check fails on both
        assert rung_rep.passed
    m = np.arange(d)
    sq = d * r ** (2 * m) * (1 - r ** (8 * d)) / (1 - r ** (2 * d))
    lam = d * r ** (2 * m) / (1 - r ** (2 * d))
    for rep in (rung_rep, twin_rep):
        out = {c.name: c.outputs for c in rep.checks}
        assert out["orbit-bounds"]["a_opt"] == pytest.approx(sq[-1], rel=1e-10)
        assert out["orbit-bounds"]["b_opt"] == pytest.approx(sq[0], rel=1e-10)
        assert out["stein"]["lambda_min"] == pytest.approx(lam[-1], rel=1e-10)
        assert out["stein"]["lambda_max"] == pytest.approx(lam[0], rel=1e-10)
        assert out["representation"]["residual"] \
            <= 1e-14 * out["orbit-bounds"]["b_opt"]
