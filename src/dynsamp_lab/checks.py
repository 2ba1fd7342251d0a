"""Named experiment checks executed by the CLI runner.

Every check receives a materialized context (operator, generators,
weights, horizon, tolerances, seed) and returns an input echo, numeric
outputs, margins, and a pass flag.  Mathematical hypothesis violations
surface as failed check records, not crashes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import dynsamp, frames, numkit, perturb
from .config import (
    ExperimentConfig,
    build_operator,
    config_hash,
    config_to_dict,
    parse_complex,
    parse_operator_spec,
    parse_weight_spec,
)
from .dynsamp import OrbitSpec, WeightSpec
from .errors import DynsampLabError, InvalidInput
from .report import CheckRecord, ExperimentReport


@dataclass
class CheckContext:
    config: ExperimentConfig
    operator: np.ndarray
    generators: tuple[np.ndarray, ...]
    seed: int

    def tol(self, key: str, default: float) -> float:
        tols = self.config.tolerances
        return float(tols.get(key, tols.get("default", default)))

    def params_for(self, name: str) -> dict:
        return dict(self.config.params.get(name, {}))

    def weight_spec(self) -> WeightSpec | None:
        return self.config.weights

    def orbit_system(self, weights="config", horizon=None):
        w = self.config.weights if weights == "config" else weights
        return dynsamp.orbit(OrbitSpec(
            operator=self.operator,
            generators=self.generators,
            weights=w,
            horizon=horizon or self.config.horizon,
        ))

    def base_inputs(self, name: str) -> dict:
        return {
            "dimension": self.config.dimension,
            "horizon": self.config.horizon,
            "operator_kind": self.config.operator.kind,
            "generators": len(self.generators),
            "params": self.params_for(name),
        }


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_orbit_bounds(ctx: CheckContext, name: str):
    sys = ctx.orbit_system()
    rep = frames.frame_bounds(sys, ambient=True)
    outputs = {
        "a_opt": rep.a_opt,
        "b_opt": rep.b_opt,
        "rank": rep.rank,
        "spans_ambient": rep.spans_ambient,
        "classification": rep.classification,
    }
    margins = {}
    passed = rep.a_opt <= rep.b_opt + 1e-12
    if ctx.config.weights is None and numkit.operator_norm(ctx.operator) < 1.0:
        bound = sum(
            dynsamp.bessel_bound_contractive(ctx.operator, g)
            for g in ctx.generators
        )
        outputs["contractive_bessel_bound"] = bound
        margins["bessel_slack"] = bound - rep.b_opt
        passed = passed and margins["bessel_slack"] >= -ctx.tol("bessel", 1e-10)
    return outputs, margins, passed


def _stein_series(t: np.ndarray, generators, depth: int) -> np.ndarray:
    """Brute-force oracle ``sum_{n <= depth} T^n C T*^n`` with ``C = G G*``.

    Term n is ``(T^n G)(T^n G)*``, so the orbit blocks ``T^n G`` are built
    one power at a time and summed as ``K_b K_b*`` over column blocks of at
    most d columns (at least one term each): O(d^2) memory at any depth.
    """
    g = np.column_stack(generators)
    d, r = g.shape
    per_block = max(1, d // r)
    brute = np.zeros((d, d), dtype=complex)
    block = np.empty((d, per_block * r), dtype=complex)
    for start in range(0, depth + 1, per_block):
        terms = min(per_block, depth + 1 - start)
        for k in range(terms):
            block[:, k * r:(k + 1) * r] = g
            g = t @ g
        kb = block[:, :terms * r]
        brute += kb @ numkit.adjoint(kb)
    return brute


def _check_stein(ctx: CheckContext, name: str):
    c = np.zeros((ctx.config.dimension,) * 2, dtype=complex)
    for g in ctx.generators:
        c += np.outer(g, g.conj())
    sol = numkit.solve_stein(ctx.operator, c, tol=ctx.tol("stein", 1e-12))
    w = np.linalg.eigvalsh(sol.s)
    outputs = {
        "residual": sol.residual,
        "method": sol.method,
        "iterations": sol.iterations,
        "lambda_min": float(w[0]),
        "lambda_max": float(w[-1]),
    }
    margins = {}
    passed = True
    opnorm = numkit.operator_norm(ctx.operator)
    c_norm = numkit.frobenius(c)
    if opnorm < 1.0 and c_norm > 0:
        # truncation depth from the geometric tail bound
        q = opnorm**2
        depth = max(1, math.ceil(math.log(1e-12 * (1.0 - q) / c_norm)
                                 / math.log(q)))
        if depth <= 5000:
            brute = _stein_series(ctx.operator, ctx.generators, depth)
            err = numkit.frobenius(sol.s - brute)
            outputs["truncation_depth"] = depth
            margins["brute_force_error"] = err
            passed = err <= ctx.tol("stein_brute", 1e-10)
        else:
            # operator norm too close to 1 for a practical series oracle
            outputs["truncation_depth"] = None
            outputs["brute_skipped"] = True
    return outputs, margins, passed


def _check_surjectivity(ctx: CheckContext, name: str):
    phi = ctx.generators[0]
    sol = dynsamp.orbit_frame_operator_exact(ctx.operator, phi)
    p = ctx.params_for(name)
    rep = dynsamp.surjectivity_report(
        ctx.operator, phi, sol.s,
        horizon=p.get("witness_horizon"),
        tol=ctx.tol("surjectivity", 1e-8),
    )
    outputs = {
        "criterion_i": rep.criterion_i,
        "criterion_ii": rep.criterion_ii,
        "criterion_iii": rep.criterion_iii,
        "criterion_iv": rep.criterion_iv,
        "witness_index": rep.witness_index,
        "verdicts": [rep.verdict_i, rep.verdict_ii, rep.verdict_iii,
                     rep.verdict_iv],
        "ground_truth_surjective": rep.ground_truth_surjective,
        "consistent": rep.consistent,
        "tail_coefficient_norm": rep.tail_coefficient_norm,
        "tail_synthesized_norm": rep.tail_synthesized_norm,
    }
    return outputs, {}, rep.consistent


def _check_periodic(ctx: CheckContext, name: str):
    p = ctx.params_for(name)
    model = dynsamp.periodic_orbit_model(
        ctx.operator, ctx.generators[0],
        period=p.get("period"), seed=ctx.seed,
    )
    tolr = ctx.tol("periodic", 1e-10)
    s_scale = max(1.0, numkit.frobenius(model.s))
    outputs = {
        "period": model.period,
        "lower": model.lower,
        "upper": model.upper,
        "span_relative": model.span_relative,
        "tst_residual": model.tst_residual,
        "unitarity_residual": model.unitarity_residual,
        "transformed_lower": model.transformed_lower,
        "transformed_upper": model.transformed_upper,
    }
    ratio_lo = model.lower / model.upper if model.upper > 0 else 0.0
    ratio_hi = model.upper / model.lower if model.lower > 0 else math.inf
    margins = {
        "sandwich_lower": model.sandwich_lower_margin,
        "sandwich_upper": model.sandwich_upper_margin,
        "transformed_low_slack": model.transformed_lower - ratio_lo + 1e-8,
        "transformed_high_slack": ratio_hi - model.transformed_upper + 1e-8,
    }
    passed = (
        model.tst_residual <= tolr * s_scale
        and model.unitarity_residual <= tolr
        and model.sandwich_lower_margin >= -1e-10
        and model.sandwich_upper_margin >= -1e-10
        and margins["transformed_low_slack"] >= 0
        and margins["transformed_high_slack"] >= 0
    )
    return outputs, margins, passed


def _check_ratio_bound(ctx: CheckContext, name: str):
    weights = ctx.config.weights or WeightSpec.constant(1.0)
    sys = ctx.orbit_system(weights=weights)
    res = dynsamp.ratio_bound_check(sys)
    outputs = {"sup_ratio": res.sup_ratio, "bound": res.bound}
    margins = {"margin": res.margin}
    return outputs, margins, res.margin >= -1e-10


def _check_kernel_invariance(ctx: CheckContext, name: str):
    weights = ctx.config.weights or WeightSpec.constant(1.0)
    sys = ctx.orbit_system(weights=weights)
    res = dynsamp.kernel_invariance_check(sys, tol=ctx.tol("kernel", 1e-8))
    outputs = {
        "invariant": res.invariant,
        "defect": res.defect,
        "kernel_dim": res.kernel_dim,
        "tail_truncated": res.tail_truncated,
    }
    return outputs, {}, True  # measurement check


def _check_representation(ctx: CheckContext, name: str):
    if len(ctx.generators) != 1:
        raise InvalidInput("representation check needs a single generator")
    weights = ctx.config.weights or WeightSpec.constant(1.0)
    sys = ctx.orbit_system(weights=weights)
    dual = frames.canonical_dual(sys)
    a = weights.sequence(ctx.config.horizon)
    residual = dynsamp.representation_residual(sys, dual, a)
    tol = ctx.tol("representation", 1e-8)
    return {"residual": residual}, {"slack": tol - residual}, residual <= tol


def _check_nogo_proxy(ctx: CheckContext, name: str):
    d = ctx.config.dimension
    p = ctx.params_for(name)
    horizons = [int(n) for n in p.get("horizons", [d, 4 * d, 16 * d])]
    phi = ctx.generators[0]
    b_opts = dynsamp.unitary_nogo_proxy(ctx.operator, phi, horizons)
    floor = [n * float(np.linalg.norm(phi)) ** 2 / d for n in horizons]
    slack = min(b - f for b, f in zip(b_opts, floor))
    outputs = {"horizons": horizons, "b_opts": b_opts, "floors": floor}
    return outputs, {"pigeonhole_slack": slack}, slack >= -1e-10


def _check_riesz_profile(ctx: CheckContext, name: str):
    weights = ctx.config.weights or WeightSpec.constant(1.0)
    sys = ctx.orbit_system(weights=weights)
    profile = frames.lower_riesz_profile(sys)
    jitter = 1e-12 * max(1.0, float(profile[0]))
    monotone = bool(np.all(np.diff(profile) <= jitter))
    final_ratio = float(profile[-1] / profile[0]) if profile[0] > 0 else 0.0
    outputs = {"profile": profile, "final_over_initial": final_ratio}
    return outputs, {}, monotone


def _check_iterated(ctx: CheckContext, name: str):
    p = ctx.params_for(name)
    sys = ctx.orbit_system()
    res = dynsamp.iterated_frame_operator_check(
        sys, ctx.generators, horizon=int(p.get("horizon", ctx.config.horizon))
    )
    outputs = {
        "lower_bound_a": res.lower_bound_a,
        "prefix_upper_bounds": res.prefix_upper_bounds,
        "verdict": res.verdict,
    }
    passed = res.verdict == "cannot-be-frame" if res.lower_bound_a >= 1.0 else True
    return outputs, {}, passed


def _subspace_basis(dim: int, coords) -> np.ndarray:
    basis = np.zeros((dim, len(coords)), dtype=complex)
    for j, c in enumerate(coords):
        basis[int(c), j] = 1.0
    return basis


def _psi_vectors(ctx: CheckContext, p: dict, coords) -> list[np.ndarray]:
    if "psi_direction" in p:
        direction = np.array([parse_complex(v) for v in p["psi_direction"]])
    else:
        direction = np.zeros(ctx.config.dimension, dtype=complex)
        direction[int(coords[0])] = 1.0
    scales = p.get("psi_scales", [1.0])
    return [float(s) * direction for s in scales]


def _check_perturbation(ctx: CheckContext, name: str):
    cert_name = name.split(":", 1)[1]
    if cert_name not in perturb.CERTIFICATE_NAMES:
        raise InvalidInput(f"unknown certificate {cert_name!r}")
    p = ctx.params_for(name)
    horizon = int(p.get("horizon", ctx.config.horizon))
    operator = ctx.operator
    if "operator" in p:
        operator = build_operator(parse_operator_spec(p["operator"]))
    phi = ctx.generators[0]
    if "phi" in p:
        phi = np.array([parse_complex(v) for v in p["phi"]])
    dim = operator.shape[0]
    coords = p.get("subspace_coords", list(range(dim)))

    instances = []
    all_pass = True
    if cert_name in ("riesz_orbit_perturbation", "weighted_frame_perturbation"):
        cd = perturb.contraction_data(operator, _subspace_basis(dim, coords))
        weights = parse_weight_spec(p.get("weights")) if "weights" in p \
            else ctx.config.weights or WeightSpec.constant(1.0)
        for psi in _psi_vectors(ctx, p, coords):
            if cert_name == "riesz_orbit_perturbation":
                cert = perturb.riesz_perturbation_certificate(cd, phi, psi,
                                                              horizon)
                ok = True
                if cert.verdict:
                    total = cert.hypothesis_values["proof_sum_total"]
                    floor = cert.hypothesis_values["perturbed_floor"]
                    ok = (
                        total < 1.0
                        and cert.conclusion_check.classification
                        in ("riesz_sequence", "riesz_basis")
                        and cert.conclusion_check.a_opt >= floor - 1e-8
                    )
            else:
                cert = perturb.weighted_frame_perturbation_certificate(
                    cd, phi, psi, weights, horizon)
                ok = True
                if cert.verdict:
                    a_now = cert.conclusion_check.a_opt
                    doubled = perturb.weighted_frame_perturbation_certificate(
                        cd, phi, psi, weights, 2 * horizon)
                    a_dbl = doubled.conclusion_check.a_opt
                    ok = a_now > 0 and abs(a_dbl - a_now) <= 0.10 * a_now
            instances.append(_cert_summary(cert))
            all_pass = all_pass and ok
    elif cert_name == "scaled_generator_perturbation":
        weights = parse_weight_spec(p.get("weights")) if "weights" in p \
            else ctx.config.weights or WeightSpec.constant(1.0)
        for psi in _psi_vectors(ctx, p, coords):
            cert = perturb.scaled_generator_perturbation_certificate(
                operator, phi, psi, weights, horizon)
            ok = True
            if cert.verdict:
                ok = cert.conclusion_check.classification in ("frame",
                                                              "riesz_basis")
            instances.append(_cert_summary(cert))
            all_pass = all_pass and ok
    elif cert_name == "multi_generator_riesz":
        if "w_operator" not in p:
            raise InvalidInput("multi_generator_riesz needs params.w_operator")
        w_op = build_operator(parse_operator_spec(p["w_operator"]))
        cd_w = perturb.contraction_data(w_op, _subspace_basis(dim, coords))
        cd_t = perturb.contraction_data(operator, _subspace_basis(dim, coords))
        cert = perturb.multi_generator_riesz_certificate(
            cd_w, cd_t, ctx.generators, horizon)
        ok = True
        if cert.verdict:
            ok = cert.conclusion_check.classification in ("riesz_sequence",
                                                          "riesz_basis")
        instances.append(_cert_summary(cert))
        all_pass = ok
    elif cert_name in ("two_operator_frame", "two_operator_riesz_sum"):
        if "second_operator" not in p:
            raise InvalidInput(f"{cert_name} needs params.second_operator")
        w_op = build_operator(parse_operator_spec(p["second_operator"]))
        basis = _subspace_basis(dim, coords)
        cd_t = perturb.contraction_data(operator, basis)
        cd_w = perturb.contraction_data(w_op, basis)
        frame_cert, sum_cert = perturb.two_operator_certificates(
            cd_t, cd_w, phi, horizon)
        ok = True
        for cert in (frame_cert, sum_cert):
            if cert.verdict:
                ok = ok and cert.conclusion_check.a_opt > 0
            instances.append(_cert_summary(cert))
        all_pass = ok
    else:
        raise InvalidInput(f"no evaluator for certificate {cert_name!r}")

    outputs = {"instances": instances}
    margins = {"best_margin": max((i["margin"] for i in instances),
                                  default=-math.inf)}
    return outputs, margins, all_pass


def _cert_summary(cert: perturb.Certificate) -> dict:
    out = {
        "name": cert.name,
        "margin": cert.margin,
        "verdict": cert.verdict,
        "hypothesis_values": dict(cert.hypothesis_values),
    }
    if cert.conclusion_check is not None:
        out["conclusion"] = {
            "a_opt": cert.conclusion_check.a_opt,
            "b_opt": cert.conclusion_check.b_opt,
            "classification": cert.conclusion_check.classification,
        }
    return out


def _check_satisfiability(ctx: CheckContext, name: str):
    cert_name = name.split(":", 1)[1]
    p = ctx.params_for(name)
    trials = int(p.get("trials", 1000))
    rep = perturb.satisfiability_search(cert_name, trials, seed=ctx.seed)
    count = len(rep.satisfying)
    outputs = {
        "tried": rep.tried,
        "satisfying_count": count,
        "satisfying": rep.satisfying[:10],
    }
    passed = True
    if "max_satisfying" in p:
        passed = passed and count <= int(p["max_satisfying"])
    if "min_satisfying" in p:
        passed = passed and count >= int(p["min_satisfying"])
    return outputs, {}, passed


def _check_repro_aldroubi(ctx: CheckContext, name: str):
    diag = np.diag(ctx.operator)
    if numkit.frobenius(ctx.operator - np.diag(diag)) > 1e-12:
        raise InvalidInput("repro-aldroubi needs a diagonal operator")
    lam = np.real(diag)
    sys = dynsamp.frame_from_positive_operator(
        np.diag(lam.astype(complex)), frames.standard_basis(lam.size))
    s = frames.frame_operator(sys)
    err = float(np.max(np.abs(s - np.diag(lam.astype(complex)))))
    tol = ctx.tol("repro", 1e-12)
    outputs = {"entrywise_error": err}
    passed = err <= tol

    p = ctx.params_for(name)
    sweep = [int(d) for d in p.get("sweep_dims", [])]
    if sweep:
        rows = []
        prev_min = math.inf
        monotone = True
        for d in sweep:
            lam_d = 1.0 - 2.0 ** -(np.arange(1, d + 1))
            b = np.sqrt(1.0 - lam_d**2)
            sol = numkit.solve_stein(np.diag(lam_d.astype(complex)),
                                     np.outer(b, b).astype(complex))
            w = np.linalg.eigvalsh(sol.s)
            t_norm = float(lam_d[-1])
            rows.append({
                "dimension": d,
                "lambda_min": float(w[0]),
                "lambda_max": float(w[-1]),
                "operator_norm": t_norm,
            })
            monotone = monotone and float(w[0]) <= prev_min + 1e-10
            prev_min = float(w[0])
            passed = passed and w[0] > 0 \
                and abs(t_norm - (1.0 - 2.0 ** -d)) <= 1e-12
        outputs["sweep"] = rows
        passed = passed and monotone
    return outputs, {"repro_slack": tol - err}, passed


REGISTRY = {
    "orbit-bounds": _check_orbit_bounds,
    "stein": _check_stein,
    "surjectivity": _check_surjectivity,
    "periodic": _check_periodic,
    "ratio-bound": _check_ratio_bound,
    "kernel-invariance": _check_kernel_invariance,
    "representation": _check_representation,
    "nogo-proxy": _check_nogo_proxy,
    "riesz-profile": _check_riesz_profile,
    "iterated-frame-operator": _check_iterated,
    "perturbation": _check_perturbation,
    "satisfiability": _check_satisfiability,
    "repro-aldroubi": _check_repro_aldroubi,
}

KNOWN_CHECKS = frozenset(REGISTRY)


def run_single(ctx: CheckContext, name: str) -> CheckRecord:
    base = name.split(":", 1)[0]
    fn = REGISTRY.get(base)
    if fn is None:
        raise InvalidInput(f"unknown check {name!r}")
    start = perf_counter()
    inputs = ctx.base_inputs(name)
    try:
        outputs, margins, passed = fn(ctx, name)
        error = None
    except (DynsampLabError, np.linalg.LinAlgError) as exc:
        outputs, margins, passed = {}, {}, False
        error = f"{type(exc).__name__}: {exc}"
    return CheckRecord(
        name=name,
        inputs=inputs,
        outputs=outputs,
        margins=margins,
        passed=passed,
        wall_time=perf_counter() - start,
        error=error,
    )


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> ExperimentReport:
    """Execute all configured checks in declared order."""
    operator = cfg.operator_array()
    generators = cfg.generator_arrays()
    contexts = [
        CheckContext(
            config=cfg,
            operator=operator,
            generators=generators,
            seed=cfg.seed + 1000003 * index,
        )
        for index, _ in enumerate(cfg.checks)
    ]
    jobs = list(zip(contexts, cfg.checks))
    if parallel and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=min(8, len(jobs))) as pool:
            records = list(pool.map(lambda job: run_single(*job), jobs))
    else:
        records = [run_single(ctx, name) for ctx, name in jobs]
    echo = config_to_dict(cfg)
    return ExperimentReport(
        config_hash=config_hash(cfg, echo),
        seed=cfg.seed,
        config_echo=echo,
        checks=records,
    )
