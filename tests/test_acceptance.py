"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion is also an ordinary test assertion.
"""

import json
import math
import time

import numpy as np

from dynsamp_lab import cli, dynsamp, frames, numkit, perturb
from dynsamp_lab.dynsamp import WeightSpec


def _verdict(num, desc, ok):
    print(f"[acceptance] criterion {num:2d} ({desc}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def delta(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def contraction(rng, d, top):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m * (top / numkit.operator_norm(m))


# ---------------------------------------------------------------------------

def test_criterion_1_diagonal_family_reproduction():
    start = time.perf_counter()
    d = 16
    lam = 1.0 - 2.0 ** -(np.arange(1, d + 1))
    vecs = [np.sqrt(lam[k]) * delta(d, k) for k in range(d)]
    s = frames.frame_operator(frames.vector_system(vecs))
    err = float(np.max(np.abs(s - np.diag(lam))))
    elapsed = time.perf_counter() - start
    _verdict(1, "diagonal family frame operator, d=16",
             err <= 1e-12 and elapsed < 1.0)


def test_criterion_2_stein_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        t = contraction(rng, d, float(rng.uniform(0.1, 0.9)))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert numkit.spectral_radius(t) <= 0.9 + 1e-12
        c = np.outer(phi, phi.conj())
        sol = numkit.solve_stein(t, c, numkit.spectrum(t))
        # truncation depth from the analytic geometric tail bound
        q = numkit.operator_norm(t) ** 2
        c_norm = numkit.frobenius(c)
        depth = max(1, math.ceil(
            math.log(1e-12 * (1.0 - q) / c_norm) / math.log(q)))
        brute = np.zeros_like(c)
        term = c.astype(complex)
        for _ in range(depth + 1):
            brute += term
            term = t @ term @ numkit.adjoint(t)
        worst = max(worst, numkit.frobenius(sol.s - brute))
    elapsed = time.perf_counter() - start
    _verdict(2, "Stein solver vs brute series, 50 trials",
             worst <= 1e-10 and elapsed < 10.0)


def test_criterion_3_surjectivity_quadruple():
    ok = True
    # nilpotent shifts: not surjective, criterion (iv) value below 1e-10
    for d in range(2, 9):
        t = dynsamp.nilpotent_shift(d)
        phi = delta(d, 0)
        sp = numkit.spectrum(t)
        sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
        rep = dynsamp.surjectivity_report(t, phi, sol, sp)
        ok = ok and rep.consistent and not rep.ground_truth_surjective
        ok = ok and rep.criterion_iv <= 1e-10
    # random invertible diagonal contractions with spanning orbits
    rng = np.random.default_rng(3033)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        lam = 0.15 + 0.7 * (np.arange(d) + rng.uniform(0.2, 0.8, size=d)) / d
        t = np.diag(lam).astype(complex)
        phi = rng.uniform(0.5, 1.5, size=d).astype(complex)
        sp = numkit.spectrum(t)
        sol = dynsamp.orbit_frame_operator_exact(t, (phi,), sp)
        rep = dynsamp.surjectivity_report(t, phi, sol, sp)
        ok = ok and rep.consistent and rep.ground_truth_surjective
    _verdict(3, "surjectivity criteria quadruple", ok)


def test_criterion_4_periodic_model_identities():
    rng = np.random.default_rng(404)
    ok = True
    for p in range(2, 13):
        t = dynsamp.cyclic_shift(p)
        for _ in range(20):
            phi = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            model = dynsamp.periodic_orbit_model(t, phi, period=p)
            ok = ok and not model.span_relative
            ok = ok and model.tst_residual <= 1e-10 * numkit.frobenius(model.s)
            ok = ok and model.unitarity_residual <= 1e-10
            ok = ok and model.sandwich_lower_margin >= -1e-10
            ok = ok and model.sandwich_upper_margin >= -1e-10
    _verdict(4, "periodic orbit identities, p = 2..12", ok)


def test_criterion_5_unitary_nogo_divergence():
    rng = np.random.default_rng(505)
    ok = True
    operators = [dynsamp.cyclic_shift(d) for d in range(2, 7)]
    for d in range(2, 7):
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        operators.append(q)
    for t in operators:
        d = t.shape[0]
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        horizons = [d, 4 * d, 16 * d]
        b_opts = dynsamp.unitary_nogo_proxy(t, phi, horizons)
        floor = np.linalg.norm(phi) ** 2 / d
        ok = ok and all(b >= n * floor - 1e-10
                        for n, b in zip(horizons, b_opts))
    _verdict(5, "unitary orbit upper bounds diverge", ok)


def test_criterion_6_ratio_bound():
    rng = np.random.default_rng(606)
    ok = True
    count = 0
    while count < 50:
        d = int(rng.integers(2, 7))
        lam = 0.15 + 0.7 * (np.arange(d) + rng.uniform(0.2, 0.8, size=d)) / d
        t = np.diag(lam).astype(complex)
        phi = rng.uniform(0.5, 1.5, size=d).astype(complex)
        if count % 3 == 2:
            horizon = d + 3  # overcomplete spanning orbit
            weights = WeightSpec.geometric(float(rng.uniform(0.8, 1.3)))
        else:
            horizon = d  # linearly independent spanning orbit
            ratios = rng.uniform(0.5, 2.0, size=horizon - 1)
            vals = np.concatenate([[1.0], np.cumprod(ratios)])
            weights = WeightSpec.explicit(vals)
        sys = dynsamp.orbit(t, (phi,), horizon, weights)
        res = dynsamp.ratio_bound_check(sys, numkit.spectrum(t))
        ok = ok and res.sup_ratio <= res.bound + 1e-10
        count += 1
    _verdict(6, "weight-ratio bound on 50 orbit frames", ok)


def test_criterion_7_lower_riesz_decay():
    ok = True
    # nilpotent shift orbit plus one dependent vector
    t = dynsamp.nilpotent_shift(5)
    base = dynsamp.orbit(t, (delta(5, 0),), 5)
    u = frames.synthesis(base)
    vecs = list(u.T) + [u[:, 0] + u[:, 2]]
    profile = frames.lower_riesz_profile(frames.vector_system(vecs))
    ok = ok and bool(np.all(np.diff(profile) <= 1e-12))
    ok = ok and profile[-1] / profile[0] <= 0.1
    # near-parallel family
    near = frames.vector_system([delta(2, 0), np.array([1.0, 0.1])])
    profile2 = frames.lower_riesz_profile(near)
    ok = ok and bool(np.all(np.diff(profile2) <= 1e-12))
    ok = ok and profile2[-1] / profile2[0] <= 0.1
    _verdict(7, "lower Riesz profiles decay on overcomplete families", ok)


def test_criterion_8_perturbation_gallery():
    ok = True
    # Riesz gallery on the block operator
    t = np.zeros((3, 3), dtype=complex)
    t[1, 0] = 1.0
    t[2, 2] = 0.5
    basis = np.eye(3, dtype=complex)[:, 2:]
    cd = perturb.contraction_data(t, basis)
    phi = delta(3, 0)
    for scale in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.6):
        cert = perturb.riesz_perturbation_certificate(
            cd, phi, scale * delta(3, 2), horizon=2)
        if cert.verdict:
            total = cert.hypothesis_values["proof_sum_total"]
            floor = cert.hypothesis_values["lower_riesz_bound"] \
                * (1.0 - total) ** 2
            ok = ok and total < 1.0
            ok = ok and cert.conclusion_check.a_opt >= floor - 1e-8
    # weighted gallery: ambient bound positive and stable under doubling
    w = WeightSpec.constant(1.0)
    for scale in (0.2, 0.4, 0.6, 0.8, 1.0):
        cert = perturb.weighted_frame_perturbation_certificate(
            cd, phi, scale * delta(3, 2), w, horizon=5)
        if cert.verdict:
            doubled = perturb.weighted_frame_perturbation_certificate(
                cd, phi, scale * delta(3, 2), w, horizon=10)
            a_now = cert.conclusion_check.a_opt
            a_dbl = doubled.conclusion_check.a_opt
            ok = ok and a_now > 0 and abs(a_dbl - a_now) <= 0.10 * a_now
    # scalar two-operator instance
    cd_t = perturb.contraction_data(np.array([[0.5]]), np.eye(1, dtype=complex))
    cd_w = perturb.contraction_data(np.array([[0.25]]),
                                    np.eye(1, dtype=complex))
    _, sum_cert = perturb.two_operator_certificates(cd_t, cd_w,
                                                    np.array([1.0]),
                                                    horizon=32)
    exact = 4.0 / 3.0 - 16.0 / 7.0 + 16.0 / 15.0
    ok = ok and abs(sum_cert.hypothesis_values["difference_sum"] - exact) \
        <= 1e-12
    ok = ok and sum_cert.verdict
    ok = ok and abs(sum_cert.conclusion_check.a_opt - 16.0 / 15.0) <= 1e-12
    _verdict(8, "perturbation certificates on the gallery", ok)


def test_criterion_9_vacuity_evidence():
    multi = perturb.satisfiability_search("multi_generator_riesz", 1000,
                                          seed=7)
    two = perturb.satisfiability_search("two_operator_frame", 1000, seed=7)
    riesz = perturb.satisfiability_search("riesz_orbit_perturbation", 100,
                                          seed=7)
    riesz_again = perturb.satisfiability_search("riesz_orbit_perturbation",
                                                100, seed=7)
    ok = (
        len(multi.satisfying) == 0
        and len(two.satisfying) == 0
        and len(riesz.satisfying) >= 1
        and riesz.satisfying == riesz_again.satisfying
    )
    _verdict(9, "satisfiability searches (vacuity evidence)", ok)


def test_criterion_10_repro_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(["repro", "aldroubi-diagonal", "--seed", "7",
                         "--out", str(p)])
        assert code == 0
    payloads = [json.loads(p.read_text()) for p in paths]
    hashes = [p.pop("payload_hash") for p in payloads]
    for payload in payloads:
        for check in payload["checks"]:
            check.pop("wall_time")
    ok = payloads[0] == payloads[1] and hashes[0] == hashes[1]
    _verdict(10, "repro aldroubi-diagonal is deterministic", ok)
