"""Tests for perturbation certificates and the satisfiability search."""

import math

import numpy as np
import pytest

from dynsamp_lab import dynsamp, numkit, perturb
from dynsamp_lab.dynsamp import WeightSpec
from dynsamp_lab.errors import (
    HypothesisViolated,
    InvalidHypothesis,
    InvalidInput,
)


def delta(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def block_operator(mu=0.5):
    """Two-step shift on coordinates 0-1 plus a mu-contraction on 2."""
    t = np.zeros((3, 3), dtype=complex)
    t[1, 0] = 1.0
    t[2, 2] = mu
    return t


def tail_subspace():
    return np.eye(3, dtype=complex)[:, 2:]


def random_block_instance(rng, k=None):
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, 3)) if k is None else k
    d = m + k
    t = np.zeros((d, d), dtype=complex)
    for j in range(m - 1):
        t[j + 1, j] = 1.0
    diag = rng.uniform(0.1, 0.6, size=k)
    t[m:, m:] = np.diag(diag)
    basis = np.eye(d, dtype=complex)[:, m:]
    psi_dir = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    psi_dir /= np.linalg.norm(psi_dir)
    return t, basis, delta(d, 0), basis @ psi_dir, m, k


# ---------------------------------------------------------------------------
# contraction data
# ---------------------------------------------------------------------------

def test_contraction_block():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    assert cd.mu == pytest.approx(0.5, abs=1e-12)
    assert cd.invariance_defect <= 1e-12


def test_contraction_whole_space():
    t = np.diag([0.3, 0.7]).astype(complex)
    cd = perturb.contraction_data(t, np.eye(2, dtype=complex))
    assert cd.mu == pytest.approx(0.7, abs=1e-12)


def test_contraction_rejects_non_invariant():
    t = dynsamp.nilpotent_shift(2)
    with pytest.raises(InvalidHypothesis):
        perturb.contraction_data(t, np.eye(2, dtype=complex)[:, :1])


def test_contraction_rejects_expansive_subspace():
    with pytest.raises(InvalidHypothesis):
        perturb.contraction_data(np.eye(2), np.eye(2, dtype=complex))


def test_contraction_rejects_non_orthonormal_basis():
    t = np.diag([0.3, 0.7]).astype(complex)
    with pytest.raises(InvalidInput):
        perturb.contraction_data(t, 2.0 * np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# Riesz orbit perturbation
# ---------------------------------------------------------------------------

def test_riesz_certificate_block_arithmetic():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    phi = delta(3, 0)
    cert = perturb.riesz_perturbation_certificate(cd, phi, 0.4 * delta(3, 2),
                                                  horizon=2)
    # hand oracle: A = 1, mu = 1/2, threshold 0.5; terms 0.4*1 + 0.2*1;
    # tail 0.25 * 0.4 / 0.5 = 0.2
    assert cert.hypothesis_values["lower_riesz_bound"] == pytest.approx(1.0)
    assert cert.margin == pytest.approx(0.1, abs=1e-12)
    assert cert.verdict
    assert cert.hypothesis_values["proof_sum"] == pytest.approx(0.6, abs=1e-12)
    assert cert.hypothesis_values["proof_tail_bound"] == pytest.approx(0.2,
                                                                       abs=1e-12)
    assert cert.hypothesis_values["proof_sum_total"] < 1.0
    assert cert.conclusion_check.classification == "riesz_sequence"
    # perturbed prefix {d1 + 0.4 d3, d2 + 0.2 d3}: Gram eigenvalues 1.0, 1.2
    assert cert.conclusion_check.a_opt == pytest.approx(1.0, abs=1e-12)


def test_riesz_certificate_zero_psi():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    cert = perturb.riesz_perturbation_certificate(cd, delta(3, 0),
                                                  np.zeros(3), horizon=2)
    assert cert.margin == pytest.approx(0.5, abs=1e-12)
    assert cert.verdict


def test_riesz_certificate_failing_margin():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    cert = perturb.riesz_perturbation_certificate(cd, delta(3, 0),
                                                  0.6 * delta(3, 2), horizon=2)
    assert cert.margin == pytest.approx(-0.1, abs=1e-12)
    assert not cert.verdict


def test_riesz_certificate_rejects_non_riesz_base():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    # horizon 3 hits the zero vector: base prefix no longer Riesz
    with pytest.raises(HypothesisViolated):
        perturb.riesz_perturbation_certificate(cd, delta(3, 0),
                                               0.1 * delta(3, 2), horizon=3)


def test_riesz_certificate_rejects_psi_outside_subspace():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    with pytest.raises(InvalidHypothesis):
        perturb.riesz_perturbation_certificate(cd, delta(3, 0), delta(3, 1),
                                               horizon=2)


def test_riesz_invariant_true_verdicts_randomized():
    rng = np.random.default_rng(19)
    found = 0
    for _ in range(60):
        t, basis, phi, psi_dir, m, _ = random_block_instance(rng)
        cd = perturb.contraction_data(t, basis)
        psi = psi_dir * float(rng.uniform(0.0, 0.6))
        cert = perturb.riesz_perturbation_certificate(cd, phi, psi, horizon=m)
        if not cert.verdict:
            continue
        found += 1
        total = cert.hypothesis_values["proof_sum_total"]
        assert total < 1.0
        floor = cert.hypothesis_values["lower_riesz_bound"] * (1.0 - total) ** 2
        assert cert.conclusion_check.a_opt >= floor - 1e-8
        assert cert.conclusion_check.classification in ("riesz_sequence",
                                                        "riesz_basis")
    assert found >= 10


# ---------------------------------------------------------------------------
# weighted frame perturbation
# ---------------------------------------------------------------------------

def test_weighted_certificate_threshold():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    phi = delta(3, 0)
    w = WeightSpec.constant(1.0)
    # satisfiable iff t < sqrt(3)/2
    for t_val, expect in ((0.5, True), (0.9, False)):
        cert = perturb.weighted_frame_perturbation_certificate(
            cd, phi, t_val * delta(3, 2), w, horizon=4)
        assert cert.hypothesis_values["threshold"] == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-12)
        assert cert.verdict is expect
    good = perturb.weighted_frame_perturbation_certificate(
        cd, phi, 0.5 * delta(3, 2), w, horizon=4)
    assert good.conclusion_check.classification == "frame"
    assert good.conclusion_check.a_opt > 0
    # the frame-sequence claim holds for any psi in V
    bad = perturb.weighted_frame_perturbation_certificate(
        cd, phi, 1.5 * delta(3, 2), w, horizon=4)
    assert bad.hypothesis_values["part_i_span_lower"] > 0


def test_weighted_certificate_zero_psi():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    cert = perturb.weighted_frame_perturbation_certificate(
        cd, delta(3, 0), np.zeros(3), WeightSpec.constant(1.0), horizon=4)
    assert cert.margin == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_weighted_certificate_geometric_sup_at_start():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    w = WeightSpec.geometric(0.5)
    cert = perturb.weighted_frame_perturbation_certificate(
        cd, delta(3, 0), 2.0 * delta(3, 2), w, horizon=4)
    assert cert.hypothesis_values["sup_weight"] == pytest.approx(1.0)
    assert not cert.verdict


def test_weighted_invariant_stability_under_doubling():
    # one-dimensional contraction tail: the family of the worked examples
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(40):
        t, basis, phi, psi_dir, m, k = random_block_instance(rng, k=1)
        cd = perturb.contraction_data(t, basis)
        # enough decayed tail columns that doubling adds O(mu^6) relative mass
        horizon = m + 3
        psi = psi_dir * float(rng.uniform(0.05, 0.5))
        w = WeightSpec.constant(1.0)
        cert = perturb.weighted_frame_perturbation_certificate(
            cd, phi, psi, w, horizon)
        if not cert.verdict:
            continue
        doubled = perturb.weighted_frame_perturbation_certificate(
            cd, phi, psi, w, 2 * horizon)
        a_now = cert.conclusion_check.a_opt
        a_dbl = doubled.conclusion_check.a_opt
        assert a_now > 0
        assert abs(a_dbl - a_now) <= 0.10 * a_now
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("seed", [1, 7])
def test_weighted_bracket_matches_the_closed_form_whole_orbit(seed):
    """2000 drawn weighted block instances at horizon 2d.  The closed-form
    frame operator S of the whole orbit lies in the certificate's bracket
    [a_N, b_N / (1 - q)] up to 1e-12 relative; an orbit that is not Bessel
    never concludes; and every instance that the doubling rule (a_N > 0
    and a_2N within 10 % of a_N) passed still concludes."""
    from search_truth import weighted_block, weighted_block_frame_operator

    from dynsamp_lab import seeding

    kind = perturb.CERTIFICATES["weighted_frame_perturbation"]
    counts = {"verdict": 0, "concludes": 0, "doubling": 0, "not_bessel": 0}
    for idx, st in kind.draw(seeding.trial_streams(seed, range(2000))):
        d = st.t.shape[1]
        st = perturb._contracted(st, [None] * len(idx))._replace(horizon=2 * d)
        doubled = perturb._certify(kind.kernel, st._replace(horizon=4 * d))
        for i, outcome in enumerate(perturb._certify(kind.kernel, st)):
            (cert,) = perturb._raised(outcome)
            if not cert.verdict:
                continue
            a_n = cert.conclusion_check.a_opt
            a_2n = perturb._raised(doubled[i])[0].conclusion_check.a_opt
            doubling = a_n > 0 and abs(a_2n - a_n) <= 0.10 * a_n
            concludes = kind.concludes(cert)
            assert concludes or not doubling
            upper = cert.bracket["b_infinite_bound"]
            s = weighted_block_frame_operator(*weighted_block(st, i))
            if s is None:
                assert not concludes and upper == math.inf
                counts["not_bessel"] += 1
            else:
                low, high = np.linalg.eigvalsh(s)[[0, -1]]
                assert a_n <= low + 1e-12 * high
                assert high <= upper * (1.0 + 1e-12)
            counts["verdict"] += 1
            counts["concludes"] += concludes
            counts["doubling"] += doubling
    # the rule refused true frames that the bracket certifies
    assert counts["not_bessel"] > 0
    assert counts["doubling"] < counts["concludes"] < counts["verdict"]


# ---------------------------------------------------------------------------
# scaled-generator perturbation
# ---------------------------------------------------------------------------

def test_scaled_certificate_shift_example():
    t = dynsamp.nilpotent_shift(2)
    phi = delta(2, 0)
    cert = perturb.scaled_generator_perturbation_certificate(
        t, phi, 0.1 * phi, WeightSpec.constant(1.0), horizon=2)
    assert cert.hypothesis_values["bessel_bound"] == pytest.approx(0.01,
                                                                   abs=1e-12)
    assert cert.margin == pytest.approx(9.0, abs=1e-10)
    assert cert.verdict
    assert cert.conclusion_check.a_opt == pytest.approx(1.21, abs=1e-12)
    assert cert.conclusion_check.b_opt == pytest.approx(1.21, abs=1e-12)


def test_scaled_certificate_zero_psi_degenerate():
    t = dynsamp.nilpotent_shift(2)
    cert = perturb.scaled_generator_perturbation_certificate(
        t, delta(2, 0), np.zeros(2), WeightSpec.constant(1.0), horizon=2)
    assert math.isinf(cert.margin)
    assert cert.verdict
    assert cert.conclusion_check.a_opt == pytest.approx(1.0, abs=1e-12)


def test_scaled_certificate_psi_equals_phi():
    t = dynsamp.nilpotent_shift(2)
    phi = delta(2, 0)
    cert = perturb.scaled_generator_perturbation_certificate(
        t, phi, phi, WeightSpec.constant(1.0), horizon=2)
    # sqrt(A/B) = 1 equals the sup ratio: no positive margin, no claim
    assert cert.margin == pytest.approx(0.0, abs=1e-10)
    assert not cert.verdict


def test_scaled_invariant_randomized():
    rng = np.random.default_rng(47)
    confirmed = 0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        t = dynsamp.nilpotent_shift(d)
        phi = delta(d, 0)
        psi = phi * float(rng.uniform(0.0, 0.4))
        w = WeightSpec.geometric(float(rng.uniform(0.8, 1.25)))
        cert = perturb.scaled_generator_perturbation_certificate(
            t, phi, psi, w, horizon=d)
        if cert.verdict and math.isfinite(cert.margin):
            assert cert.conclusion_check.classification in ("frame",
                                                            "riesz_basis")
            confirmed += 1
    assert confirmed >= 10


# ---------------------------------------------------------------------------
# multi-generator Riesz transfer
# ---------------------------------------------------------------------------

def test_multi_generator_identical_operators():
    t = np.diag([0.3, 0.5]).astype(complex)
    basis = np.eye(2, dtype=complex)
    cd = perturb.contraction_data(t, basis)
    cert = perturb.multi_generator_riesz_certificate(
        cd, cd, [0.4 * delta(2, 0)], horizon=12)
    assert cert.hypothesis_values["proof_sum"] == pytest.approx(0.0, abs=1e-14)


def test_multi_generator_scalar_margin_closed_form():
    horizon = 30
    t_val = 0.6
    w_cd = perturb.contraction_data(np.array([[0.5]]), np.eye(1, dtype=complex))
    t_cd = perturb.contraction_data(np.array([[0.25]]), np.eye(1, dtype=complex))
    cert = perturb.multi_generator_riesz_certificate(
        w_cd, t_cd, [np.array([t_val])], horizon=horizon)
    # S = t^2 sum 4^-n -> lambda = 0.5, margin -> -t^2/2 * (1 + 4^-N)
    expected = -(t_val**2 / 2.0) * (1.0 + 4.0 ** -horizon)
    assert cert.margin == pytest.approx(expected, abs=1e-12)
    assert not cert.verdict


def test_multi_generator_rejects_outside_subspace():
    t = block_operator()
    cd = perturb.contraction_data(t, tail_subspace())
    with pytest.raises(InvalidHypothesis):
        perturb.multi_generator_riesz_certificate(cd, cd, [delta(3, 0)],
                                                  horizon=4)


# ---------------------------------------------------------------------------
# two-operator certificates
# ---------------------------------------------------------------------------

def scalar_pair(horizon=32):
    cd_t = perturb.contraction_data(np.array([[0.5]]), np.eye(1, dtype=complex))
    cd_w = perturb.contraction_data(np.array([[0.25]]), np.eye(1, dtype=complex))
    return perturb.two_operator_certificates(cd_t, cd_w, np.array([1.0]),
                                             horizon=horizon)


def test_two_operator_scalar_sums():
    frame_cert, sum_cert = scalar_pair()
    # hand oracle: three geometric series 4/3 - 16/7 + 16/15 = 4/35
    exact = 4.0 / 3.0 - 16.0 / 7.0 + 16.0 / 15.0
    assert exact == pytest.approx(4.0 / 35.0, abs=1e-15)
    assert sum_cert.hypothesis_values["difference_sum"] == pytest.approx(
        exact, abs=1e-12)
    assert sum_cert.verdict
    # {W^n phi} is a frame of C with lower bound 16/15
    assert sum_cert.conclusion_check.a_opt == pytest.approx(16.0 / 15.0,
                                                            abs=1e-12)
    assert sum_cert.conclusion_check.classification == "frame"


def test_two_operator_scalar_stated_inequality_unsatisfied():
    frame_cert, _ = scalar_pair()
    # sqrt(A (1 - lambda^2)) = sqrt((4/3)(3/4)) = 1 < 2 ||phi||
    assert frame_cert.hypothesis_values["threshold"] == pytest.approx(
        1.0, abs=1e-10)
    assert frame_cert.margin == pytest.approx(-1.0, abs=1e-10)
    assert not frame_cert.verdict


def test_two_operator_identical_operators():
    cd = perturb.contraction_data(np.array([[0.5]]), np.eye(1, dtype=complex))
    _, sum_cert = perturb.two_operator_certificates(cd, cd, np.array([1.0]),
                                                    horizon=16)
    assert sum_cert.hypothesis_values["difference_sum"] == pytest.approx(
        0.0, abs=1e-14)
    assert sum_cert.verdict


def test_two_operator_sum_floor_randomized():
    rng = np.random.default_rng(53)
    confirmed = 0
    for _ in range(40):
        d = int(rng.integers(1, 5))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = m * (rng.uniform(0.2, 0.8) / numkit.operator_norm(m))
        w = t + 0.02 * (rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
        if numkit.operator_norm(w) >= 0.98:
            continue
        basis = np.eye(d, dtype=complex)
        cd_t = perturb.contraction_data(t, basis)
        cd_w = perturb.contraction_data(w, basis)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        try:
            _, sum_cert = perturb.two_operator_certificates(cd_t, cd_w, phi,
                                                            horizon=6 * d)
        except HypothesisViolated:
            continue
        if not sum_cert.verdict:
            continue
        floor = sum_cert.hypothesis_values["w_lower_floor"]
        assert sum_cert.conclusion_check.a_opt >= floor - 1e-8
        confirmed += 1
    assert confirmed >= 10


# ---------------------------------------------------------------------------
# margin monotonicity: shrinking the perturbation never flips true verdicts
# ---------------------------------------------------------------------------

def test_margin_monotone_under_downscaling():
    cd = perturb.contraction_data(block_operator(), tail_subspace())
    phi = delta(3, 0)
    psi = 0.4 * delta(3, 2)
    w = WeightSpec.constant(1.0)

    riesz = perturb.riesz_perturbation_certificate(cd, phi, psi, 2)
    riesz_half = perturb.riesz_perturbation_certificate(cd, phi, psi / 2, 2)
    assert riesz.verdict and riesz_half.verdict
    assert riesz_half.margin >= riesz.margin

    weighted = perturb.weighted_frame_perturbation_certificate(
        cd, phi, psi, w, 4)
    weighted_half = perturb.weighted_frame_perturbation_certificate(
        cd, phi, psi / 2, w, 4)
    assert weighted.verdict and weighted_half.verdict
    assert weighted_half.margin >= weighted.margin

    t = dynsamp.nilpotent_shift(2)
    scaled = perturb.scaled_generator_perturbation_certificate(
        t, delta(2, 0), 0.1 * delta(2, 0), w, 2)
    scaled_half = perturb.scaled_generator_perturbation_certificate(
        t, delta(2, 0), 0.05 * delta(2, 0), w, 2)
    assert scaled.verdict and scaled_half.verdict
    assert scaled_half.margin >= scaled.margin

    cd1 = perturb.contraction_data(np.array([[0.5]]), np.eye(1, dtype=complex))
    cd2 = perturb.contraction_data(np.array([[0.45]]), np.eye(1, dtype=complex))
    _, sum_full = perturb.two_operator_certificates(cd1, cd2, np.array([1.0]),
                                                    horizon=24)
    _, sum_half = perturb.two_operator_certificates(cd1, cd2, np.array([0.5]),
                                                    horizon=24)
    assert sum_full.verdict and sum_half.verdict


# ---------------------------------------------------------------------------
# satisfiability search
# ---------------------------------------------------------------------------

def test_search_riesz_finds_instances():
    rep = perturb.satisfiability_search("riesz_orbit_perturbation", 100, seed=7)
    assert rep.tried == 100
    assert len(rep.satisfying) >= 1
    assert all(inst["margin"] > 0 for inst in rep.satisfying)


def test_search_vacuous_certificates():
    multi = perturb.satisfiability_search("multi_generator_riesz", 200, seed=7)
    assert len(multi.satisfying) == 0
    two = perturb.satisfiability_search("two_operator_frame", 200, seed=7)
    assert len(two.satisfying) == 0


def test_search_deterministic():
    a = perturb.satisfiability_search("riesz_orbit_perturbation", 50, seed=3)
    b = perturb.satisfiability_search("riesz_orbit_perturbation", 50, seed=3)
    assert a.satisfying == b.satisfying


def test_search_rejects_unknown_certificate():
    with pytest.raises(InvalidInput):
        perturb.satisfiability_search("bogus", 10, seed=0)


# -- a perturbation: check certifies its psi as one stack ---------------------

def per_psi_record(kind, public, p):
    """The check as it was, as an oracle: the public certificate function
    once per psi of the parsed inputs ``p``; the first exception, in that
    order, ends the check."""
    from dynsamp_lab import checks

    instances, all_pass = [], True
    for psi in p.psis:
        for cert in public.evaluate(p, psi, p.horizon):
            all_pass = all_pass and (not cert.verdict or kind.concludes(cert))
            instances.append(checks._cert_summary(cert))
    return {"instances": instances}, all_pass


def stacked_and_per_psi(raw):
    from dynsamp_lab import checks, config
    from test_batch_parity import PUBLIC, Inputs

    cfg = config.parse_config(raw)
    params = checks._parse_params(cfg)
    for record in checks.run_experiment(cfg).checks:
        name = record.name.split(":", 1)[1]
        # the parsed inputs the check's stack builder holds
        inputs = Inputs(**params[record.name].keywords)
        try:
            outputs, passed = per_psi_record(perturb.CERTIFICATES[name],
                                             PUBLIC[name], inputs)
            want = repr((outputs, passed, None))
        except (HypothesisViolated, InvalidInput, np.linalg.LinAlgError) as exc:
            want = repr(({}, False, f"{type(exc).__name__}: {exc}"))
        yield record, repr((record.outputs, record.passed, record.error)), want


def gallery(**riesz_params):
    from dynsamp_lab import config, presets

    raw = config.config_to_dict(presets.preset_config("perturbation-gallery"))
    raw["params"]["perturbation:riesz_orbit_perturbation"].update(riesz_params)
    return raw


def test_the_psi_stack_gives_the_gallery_every_bit_of_one_call_per_psi():
    records = list(stacked_and_per_psi(gallery()))
    assert len(records) == 4
    for record, got, want in records:
        assert record.error is None
        # repr shows every float bit for bit
        assert got == want, record.name


@pytest.mark.parametrize("params, error", [
    # psi 1 leaves the subspace, as the others do only within 1e-8
    ({"psi_direction": [0.0, 1e-7, 1.0], "psi_scales": [0.01, 0.5, 0.02]},
     "InvalidHypothesis: vector is not in the contraction subspace"),
    # psi 1's perturbed sigma_1^2 overflows, which raises for the whole stack
    ({"psi_scales": [0.1, 1.2e154, 0.6]}, "LinAlgError: squared singular "
     "value sigma_1^2 of a 3 x 2 matrix is not finite in float64"),
    # psi 1 fails as above; psi 2 raises for the whole stack
    ({"psi_direction": [0.0, 1e-7, 1.0], "psi_scales": [0.01, 0.5, 1.2e154]},
     "InvalidHypothesis: vector is not in the contraction subspace"),
    # psi 1 overflows float64 as the params block is parsed, with no numpy
    # warning, and is refused before any kernel runs
    ({"psi_direction": [0.0, 0.0, 2.0], "psi_scales": [0.1, 1e308]},
     "InvalidInput: vector entries must be finite"),
])
def test_the_first_failing_psi_is_the_recorded_error(params, error):
    record, got, want = next(stacked_and_per_psi(gallery(**params)))
    assert record.name == "perturbation:riesz_orbit_perturbation"
    assert record.error == error
    assert got == want


# -- the weighted check concludes at its own horizon --------------------------

def weighted_record(**params):
    """The gallery's weighted check alone, its params updated."""
    from dynsamp_lab import checks, config

    raw = gallery()
    name = "perturbation:weighted_frame_perturbation"
    raw["checks"] = [name]
    raw["params"] = {name: {**raw["params"][name], **params}}
    (record,) = checks.run_experiment(config.parse_config(raw)).checks
    return record


def test_explicit_weights_of_the_horizon_give_a_verdict():
    record = weighted_record(
        horizon=4, weights={"kind": "explicit", "values": [1, 1, 1, 1]})
    assert record.error is None
    assert record.passed
    for inst in record.outputs["instances"]:
        # no infinite orbit: the conclusion is about the prefix alone
        assert inst["conclusion"]["q"] is None
        assert inst["conclusion"]["b_infinite_bound"] is None


@pytest.mark.parametrize("r, passed", [(1.9, True), (2.0, False)])
def test_geometric_weights_conclude_from_q(r, passed):
    # (rT)^4 is (r / 2)^4 on the 0.5 coordinate, the shift's square being 0
    record = weighted_record(horizon=4, weights={"kind": "geometric", "value": r},
                             psi_direction=[0.0, 0.0, 1.0], psi_scales=[0.05])
    (inst,) = record.outputs["instances"]
    conclusion = inst["conclusion"]
    assert record.error is None and inst["verdict"]
    assert conclusion["a_opt"] > 0
    assert conclusion["q"] == pytest.approx((r / 2.0) ** 8, rel=1e-14)
    assert record.passed == passed
    assert conclusion["b_infinite_bound"] == (
        conclusion["b_opt"] / (1.0 - conclusion["q"]) if passed else math.inf)


def test_a_power_past_float64_is_an_error_record():
    # a 1e100 coordinate that phi + psi never reaches: the orbit is finite,
    # but (rT)^4 is not
    record = weighted_record(horizon=4, phi=[1.0, 0.0, 0.0, 0.0],
                             operator={"kind": "block_diag", "blocks": [
                                 {"kind": "nilpotent_shift", "dimension": 2},
                                 {"kind": "diagonal", "values": [1e100, 0.5]}]},
                             subspace_coords=[3],
                             psi_direction=[0.0, 0.0, 0.0, 1.0])
    assert record.error == "LinAlgError: (rT)^N at N = 4 is not finite in float64"
