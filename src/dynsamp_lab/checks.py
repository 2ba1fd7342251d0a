"""Named experiment checks executed by the CLI runner.

``run_experiment`` builds one :class:`Run`, which computes each quantity
several checks read once, on first use; every check is called with the
run, its parsed params and its seed, and returns numeric outputs, margins
and a pass flag.  Hypothesis violations are failed records, not crashes.
Only a ``perturbation:`` or ``satisfiability:`` check loads ``perturb``.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, partial
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from . import dynsamp, frames, numkit
from .config import (
    TOLERANCES,
    ConfigError,
    ExperimentConfig,
    canonical_json,
    config_hash,
    config_to_dict,
    params_schema,
    parse_complex,
    parse_operator,
    parse_scalars,
    parse_weight_spec,
    schema_error,
)
from .dynsamp import WeightSpec
from .errors import DynsampLabError, HypothesisViolated, InvalidInput
from .frames import VectorSystem
from .report import CheckRecord, ExperimentReport

if TYPE_CHECKING:
    from . import perturb

# Fixed slacks, which no tolerance name, ``tolerances.default`` or
# ``--tol`` moves.  ``ratio-bound`` passes at a margin, and ``nogo-proxy``
# at a pigeonhole slack, of at least MARGIN_FLOOR.  ``periodic`` needs both
# sandwich margins at least SANDWICH_FLOOR and pads both transformed-bound
# slacks by TRANSFORMED_PAD.  ``orbit-bounds`` lets a_opt exceed b_opt by
# at most BOUNDS_ORDER_SLACK.
MARGIN_FLOOR = -1e-10
SANDWICH_FLOOR = -1e-10
TRANSFORMED_PAD = 1e-8
BOUNDS_ORDER_SLACK = 1e-12


class Run:
    """One ``run_experiment``: the config, T and the generators, and the
    orbit, the spectrum of T, C and S_inf, each computed on first use.  One
    that raises is not cached, so each check that reads it records it."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.operator = config.operator
        self.generators = config.generators
        self._stein: dict[float, numkit.SteinSolution] = {}

    @cached_property
    def orbit(self) -> VectorSystem:
        return dynsamp.orbit(self.operator, self.generators,
                             int(self.config.horizon),
                             self.config.weights or WeightSpec.constant(1.0))

    @cached_property
    def spectrum(self) -> numkit.Spectrum:
        """The operator's one factorisation: every ||T||_2, rank T and T^+."""
        return numkit.spectrum(self.operator)

    @cached_property
    def c(self) -> np.ndarray:
        return dynsamp.generator_frame_operator(self.operator, self.generators)

    def stein(self, tol: float) -> numkit.SteinSolution:
        """S_inf - T S_inf T* = C and its eigenvalues, once per tolerance."""
        if tol not in self._stein:
            self._stein[tol] = numkit.stein_doubling(
                self.operator, self.c, self.spectrum, tol)
        return self._stein[tol]

    def tol(self, key: str) -> float:
        """The config's tolerance ``key``, else its "default", else the
        table's default for ``key``."""
        tols = self.config.tolerances
        return float(tols.get(key, tols.get("default", TOLERANCES[key])))

    def generator(self, name: str) -> np.ndarray:
        """The generator of a check that reads one orbit; several are refused."""
        if len(self.generators) != 1:
            raise InvalidInput(f"{name} check needs a single generator")
        return self.generators[0]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_orbit_bounds(run: Run, name: str, p, seed: int):
    rep = frames.frame_bounds(run.orbit, ambient=True)
    outputs = {
        "a_opt": rep.a_opt,
        "b_opt": rep.b_opt,
        "rank": rep.rank,
        "spans_ambient": rep.spans_ambient,
        "classification": rep.classification,
    }
    margins = {}
    passed = rep.a_opt <= rep.b_opt + BOUNDS_ORDER_SLACK
    if run.config.weights is None:
        try:
            bound = dynsamp.bessel_bound_contractive(run.spectrum,
                                                     *run.generators)
        except HypothesisViolated:
            pass  # ||T|| >= 1: no contractive bound
        else:
            outputs["contractive_bessel_bound"] = bound
            margins["bessel_slack"] = bound - rep.b_opt
            passed = passed \
                and margins["bessel_slack"] >= -run.tol("bessel")
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
    dtype = np.result_type(t, g)
    t = t.astype(dtype, copy=False)  # once, not per power
    brute = np.zeros((d, d), dtype=dtype)
    block = np.empty((d, per_block * r), dtype=dtype)
    for start in range(0, depth + 1, per_block):
        terms = min(per_block, depth + 1 - start)
        for k in range(terms):
            block[:, k * r:(k + 1) * r] = g
            g = t @ g
        kb = block[:, :terms * r]
        brute += kb @ numkit.adjoint(kb)
    return brute


def _check_stein(run: Run, name: str, p, seed: int):
    sol = run.stein(run.tol("stein"))
    w = sol.eigenvalues
    outputs = {
        "residual": sol.residual,
        "method": sol.method,
        "iterations": sol.iterations,
        "lambda_min": float(w[0]),
        "lambda_max": float(w[-1]),
    }
    margins = {}
    passed = True
    opnorm = sol.operator_norm
    c_norm = numkit.frobenius(run.c)
    if opnorm < 1.0 and c_norm > 0:
        # truncation depth from the geometric tail bound; at q = 0 (also
        # where ||T||^2 underflows) every term past n = 0 is 0 in float64
        q = opnorm**2
        depth = 1 if q == 0 else max(1, math.ceil(
            math.log(1e-12 * (1.0 - q) / c_norm) / math.log(q)))
        if depth <= 5000:
            brute = _stein_series(run.operator, run.generators, depth)
            err = numkit.frobenius(sol.s - brute)
            outputs["truncation_depth"] = depth
            margins["brute_force_error"] = err
            passed = err <= run.tol("stein_brute")
        else:
            # operator norm too close to 1 for a practical series oracle
            outputs["truncation_depth"] = None
            outputs["brute_skipped"] = True
    return outputs, margins, passed


def _check_surjectivity(run: Run, name: str, p, seed: int):
    phi = run.generator(name)
    # an integral float is an integer to the schema
    witness = p.get("witness_horizon")
    # S_inf at the table's Stein tolerance: no override moves it
    rep = dynsamp.surjectivity_report(
        run.operator, phi, run.stein(TOLERANCES["stein"]), run.spectrum,
        horizon=None if witness is None else int(witness),
        tol=run.tol("surjectivity"),
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


def _check_periodic(run: Run, name: str, p, seed: int):
    model = dynsamp.periodic_orbit_model(
        run.operator, run.generator(name), period=p.get("period"))
    tolr = run.tol("periodic")
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
        "transformed_low_slack":
            model.transformed_lower - ratio_lo + TRANSFORMED_PAD,
        "transformed_high_slack":
            ratio_hi - model.transformed_upper + TRANSFORMED_PAD,
    }
    passed = (
        model.tst_residual <= tolr * s_scale
        and model.unitarity_residual <= tolr
        and model.sandwich_lower_margin >= SANDWICH_FLOOR
        and model.sandwich_upper_margin >= SANDWICH_FLOOR
        and margins["transformed_low_slack"] >= 0
        and margins["transformed_high_slack"] >= 0
    )
    return outputs, margins, passed


def _check_ratio_bound(run: Run, name: str, p, seed: int):
    res = dynsamp.ratio_bound_check(run.orbit, run.spectrum)
    outputs = {"sup_ratio": res.sup_ratio, "bound": res.bound}
    margins = {"margin": res.margin}
    return outputs, margins, res.margin >= MARGIN_FLOOR


def _check_kernel_invariance(run: Run, name: str, p, seed: int):
    res = dynsamp.kernel_invariance_check(run.orbit, tol=run.tol("kernel"))
    return res._asdict(), {}, True  # measurement check


def _check_representation(run: Run, name: str, p, seed: int):
    residual = dynsamp.representation_residual(run.orbit)
    tol = run.tol("representation")
    return {"residual": residual}, {"slack": tol - residual}, residual <= tol


def _check_nogo_proxy(run: Run, name: str, p, seed: int):
    d = run.config.dimension
    horizons = [int(n) for n in p.get("horizons", [d, 4 * d, 16 * d])]
    phi = run.generator(name)
    b_opts = dynsamp.unitary_nogo_proxy(run.operator, phi, horizons)
    floor = [n * float(np.linalg.norm(phi)) ** 2 / d for n in horizons]
    slack = min(b - f for b, f in zip(b_opts, floor))
    outputs = {"horizons": horizons, "b_opts": b_opts, "floors": floor}
    return outputs, {"pigeonhole_slack": slack}, slack >= MARGIN_FLOOR


def _check_riesz_profile(run: Run, name: str, p, seed: int):
    profile = frames.lower_riesz_profile(run.orbit)
    jitter = 1e-12 * max(1.0, float(profile[0]))
    monotone = bool(np.all(np.diff(profile) <= jitter))
    final_ratio = float(profile[-1] / profile[0]) if profile[0] > 0 else 0.0
    outputs = {"profile": profile, "final_over_initial": final_ratio}
    return outputs, {}, monotone


def _check_iterated(run: Run, name: str, p, seed: int):
    res = dynsamp.iterated_frame_operator_check(
        run.orbit, run.generators,
        horizon=int(p.get("horizon", run.config.horizon))
    )
    return res._asdict(), {}, True  # measurement check


def _check_perturbation(run: Run, name: str, build, seed: int):
    from . import perturb

    kind = perturb.CERTIFICATES[name.split(":", 1)[1]]
    # both two-operator checks report both certificates
    kernel = perturb._two_operator_kernel if ":two_operator" in name \
        else kind.kernel
    # every psi as one stack, at the horizon and, if a conclusion reads it,
    # at twice it; the first psi to fail, in order, is the record's error
    stack = build()
    at = cache(lambda horizon: perturb._certify(
        kernel, stack._replace(horizon=horizon)))
    instances = []
    all_pass = True
    for i in range(len(stack.weights)):
        def doubled(i=i):
            return perturb._raised(at(2 * stack.horizon)[i])

        for cert in perturb._raised(at(stack.horizon)[i]):
            ok = not cert.verdict or kind.concludes(cert, doubled)
            instances.append(_cert_summary(cert))
            all_pass = all_pass and ok
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


def _check_satisfiability(run: Run, name: str, p, seed: int):
    from . import perturb

    cert_name = name.split(":", 1)[1]
    trials = int(p.get("trials", 1000))
    rep = perturb.satisfiability_search(cert_name, trials, seed=seed)
    count = rep.satisfying_count
    outputs = {
        "tried": rep.tried,
        "satisfying_count": count,
        "satisfying": rep.satisfying,
    }
    passed = True
    if "max_satisfying" in p:
        passed = passed and count <= int(p["max_satisfying"])
    if "min_satisfying" in p:
        passed = passed and count >= int(p["min_satisfying"])
    return outputs, {}, passed


def _check_repro_aldroubi(run: Run, name: str, p, seed: int):
    diag = np.diag(run.operator)
    if numkit.frobenius(run.operator - np.diag(diag)) > 1e-12:
        raise InvalidInput("repro-aldroubi needs a diagonal operator")
    lam = np.real(diag)
    sys = dynsamp.frame_from_positive_operator(
        np.diag(lam), frames.standard_basis(lam.size))
    s = frames.frame_operator(sys)
    err = float(np.max(np.abs(s - np.diag(lam))))
    tol = run.tol("repro")
    outputs = {"entrywise_error": err}
    passed = err <= tol

    sweep = [int(d) for d in p.get("sweep_dims", [])]
    if sweep:
        rows = []
        prev_min = math.inf
        monotone = True
        for d in sweep:
            lam_d = 1.0 - 2.0 ** -(np.arange(1, d + 1))
            b = np.sqrt(1.0 - lam_d**2)
            t_d = np.diag(lam_d)
            sol = numkit.solve_stein(t_d, np.outer(b, b), numkit.spectrum(t_d))
            w = sol.eigenvalues
            t_norm = float(lam_d[-1])
            rows.append({
                "dimension": d,
                "lambda_min": float(w[0]),
                "lambda_max": float(w[-1]),
                "operator_norm": t_norm,
            })
            monotone = monotone and float(w[0]) <= prev_min + 1e-10
            prev_min = float(w[0])
            passed = passed and numkit.rank_cut(w)[1] == d \
                and abs(t_norm - (1.0 - 2.0 ** -d)) <= 1e-12
        outputs["sweep"] = rows
        passed = passed and monotone
    return outputs, {"repro_slack": tol - err}, passed


def _params_operator(p: dict, key: str, dim: int | None = None) -> np.ndarray:
    op, _ = parse_operator(p[key])
    if dim is not None and op.shape[0] != dim:
        raise ConfigError(f"{key} dimension {op.shape[0]} != {dim}")
    return op


def _params_vector(p: dict, key: str, dim: int) -> np.ndarray:
    if len(p[key]) != dim:
        raise ConfigError(f"{key} length {len(p[key])} != dimension {dim}")
    return parse_scalars(p[key])


def _perturbation_builder(cfg: ExperimentConfig, cert: str,
                          p: dict) -> partial:
    """A schema-valid ``params["perturbation:<cert>"]``, parsed into the
    builder of its stack; the default operator, phi, weights and horizon
    are the config's."""
    operator = _params_operator(p, "operator") if "operator" in p \
        else cfg.operator
    dim = operator.shape[0]
    phi = _params_vector(p, "phi", dim) if "phi" in p else cfg.generators[0]
    if len(phi) != dim:
        raise ConfigError(f"operator dimension {dim} != config dimension "
                          f"{cfg.dimension}, so the generators do not fit")
    coords = [int(c) for c in p.get("subspace_coords", range(dim))]
    if max(coords) >= dim:
        raise ConfigError(f"subspace_coords {max(coords)} >= dimension {dim}")
    if len(set(coords)) < len(coords):
        raise ConfigError(f"subspace_coords {p['subspace_coords']!r} "
                          "repeats a coordinate")
    basis = np.eye(dim)[:, coords]
    direction = _params_vector(p, "psi_direction", dim) \
        if "psi_direction" in p else basis[:, 0]
    w_key = "w_operator" if "w_operator" in p else "second_operator"
    with np.errstate(over="ignore"):  # a psi past float64 is refused later
        psis = tuple(parse_complex(s).real * direction
                     for s in p.get("psi_scales", [1.0]))
    return partial(
        _perturbation_stack, cert,
        operator=operator,
        phi=phi,
        generators=cfg.generators,
        subspace_basis=basis,
        psis=psis,
        weights=parse_weight_spec(p["weights"]) if "weights" in p
        else cfg.weights or WeightSpec.constant(1.0),
        horizon=int(p.get("horizon", cfg.horizon)),
        second_operator=_params_operator(p, w_key, dim) if w_key in p else None,
    )


def _perturbation_stack(cert: str, operator, phi, generators, subspace_basis,
                        psis, weights, horizon: int,
                        second_operator) -> perturb._Stack:
    """The stack of a perturbation check, one instance per psi, refused in
    the order of its certificate's public function: the contraction data
    of T and W on the subspace (W's first for multi_generator_riesz, none
    for scaled_generator_perturbation), then phi and every psi."""
    from . import perturb

    ops = {"t": operator, "w": second_operator}
    arrays = {}
    for key in {"multi_generator_riesz": "wt",
                "scaled_generator_perturbation": ""}.get(cert, "tw"):
        if ops[key] is not None:
            cd = perturb.contraction_data(ops[key], subspace_basis)
            pre = "w_" if key == "w" else ""
            arrays.update({key: cd.operator, pre + "mu": cd.mu,
                           pre + "basis": cd.subspace_basis})
    t = arrays.setdefault("t", operator)  # validated as it was parsed
    phi, *psis = dynsamp.orbit_generators(t, (phi, *psis), horizon)
    if cert == "multi_generator_riesz":
        arrays["gens"] = np.stack(generators)  # finite, of phi's dimension
    return perturb._Stack.one(horizon, weights, psis, phi=phi, **arrays)


_NO_PARAMS = params_schema({})
_COUNT = {"type": "integer", "minimum": 1}
_TALLY = {"type": "integer", "minimum": 0}
_SEARCH_PARAMS = params_schema(
    {"trials": _COUNT, "max_satisfying": _TALLY, "min_satisfying": _TALLY})

# check name -> (check function, JSON schema of its params block).  The
# certificate rows, read off perturb.CERTIFICATES, are added when a
# configured check needs them or ``REGISTRY`` (every row) is read
_ROWS = {
    "orbit-bounds": (_check_orbit_bounds, _NO_PARAMS),
    "stein": (_check_stein, _NO_PARAMS),
    "surjectivity": (_check_surjectivity,
                     params_schema({"witness_horizon": _COUNT})),
    "periodic": (_check_periodic, params_schema({"period": _COUNT})),
    "ratio-bound": (_check_ratio_bound, _NO_PARAMS),
    "kernel-invariance": (_check_kernel_invariance, _NO_PARAMS),
    "representation": (_check_representation, _NO_PARAMS),
    "nogo-proxy": (_check_nogo_proxy, params_schema(
        {"horizons": {"type": "array", "items": _COUNT, "minItems": 1}})),
    "riesz-profile": (_check_riesz_profile, _NO_PARAMS),
    "iterated-frame-operator": (_check_iterated, params_schema(
        {"horizon": {**_COUNT, "maximum": 2**53}})),  # exact in float64
    "repro-aldroubi": (_check_repro_aldroubi, params_schema(
        {"sweep_dims": {"type": "array", "items": _COUNT}})),
}


@cache
def _certificate_rows() -> None:
    from . import perturb

    for cert, kind in perturb.CERTIFICATES.items():
        _ROWS[f"perturbation:{cert}"] = (_check_perturbation, kind.params)
        _ROWS[f"satisfiability:{cert}"] = (_check_satisfiability,
                                           _SEARCH_PARAMS)


def __getattr__(attr: str):
    if attr == "REGISTRY":
        _certificate_rows()
        return _ROWS
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")


def _parse_params(cfg: ExperimentConfig) -> dict:
    """Every check name and ``params`` block validated, and parsed, before
    any check runs; ``ConfigError`` (one line) on the first bad one."""
    for name in cfg.params:
        if name not in cfg.checks:
            raise ConfigError(f"params[{name!r}] names no configured check")
    parsed = {}
    for name in cfg.checks:
        if name.startswith(("perturbation:", "satisfiability:")):
            _certificate_rows()
        if name not in _ROWS:
            raise ConfigError(f"unknown check {name!r}")
        p = cfg.params.get(name, {})
        err = schema_error(p, _ROWS[name][1])
        if err is not None:
            raise ConfigError(
                f"params[{name!r}]{err.json_path[1:]}: {err.message}")
        if name.startswith("perturbation:"):
            try:
                p = _perturbation_builder(cfg, name.split(":", 1)[1], p)
            except ConfigError as exc:
                raise ConfigError(f"params[{name!r}]: {exc}") from None
        parsed[name] = p
    return parsed


def run_single(run: Run, name: str, p, seed: int) -> CheckRecord:
    check, _ = _ROWS[name]
    start = perf_counter()
    inputs = {"dimension": run.config.dimension, "horizon": run.config.horizon,
              "operator_kind": run.config.operator_echo["kind"],
              "generators": len(run.generators),
              "params": dict(run.config.params.get(name, {}))}
    outputs, margins, passed, error, unexpected = {}, {}, False, None, False
    try:
        outputs, margins, passed = check(run, name, p, seed)
    except (DynsampLabError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a fault of the program: recorded, exit 3
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        error = (f"{type(exc).__name__}: {exc} (at "
                 f"{tb.tb_frame.f_globals.get('__name__')}:{tb.tb_lineno})")
        unexpected = True
    return CheckRecord(
        name=name,
        inputs=inputs,
        outputs=outputs,
        margins=margins,
        passed=passed,
        wall_time=perf_counter() - start,
        error=error,
        unexpected=unexpected,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Validate every check and its params, then run them on one Run."""
    params = _parse_params(cfg)
    run = Run(cfg)
    records = [run_single(run, name, params[name], cfg.seed + 1000003 * index)
               for index, name in enumerate(cfg.checks)]
    echo = config_to_dict(cfg)
    echo_json = canonical_json(echo)
    return ExperimentReport(
        config_hash=config_hash(cfg, echo_json),
        seed=cfg.seed,
        config_echo=echo,
        checks=records,
        echo_json=echo_json,
    )
