"""Outside-in layer trace for the dynsamp-lab benchmark.

The benchmark does not change the program.  It replaces every name that
binds one of the traced functions (module globals such as ``perturb.orbit``
next to ``dynsamp.orbit``, ``cli.run_experiment``, the ``numpy.linalg``
attributes the modules look up, and the ``ExperimentReport`` methods) by a
wrapper that records a span.  A span is (name, start, end, parent span,
command id); spans stay in memory and are written out when the run ends.
``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" names a method.
FUNCTIONS = (
    ("cli.main", "dynsamp_lab.cli", "main"),
    ("config.parse_config", "dynsamp_lab.config", "parse_config"),
    ("config.load_config", "dynsamp_lab.config", "load_config"),
    ("config.config_hash", "dynsamp_lab.config", "config_hash"),
    ("jsonschema.validate", "jsonschema", "validate"),
    ("presets.preset_config", "dynsamp_lab.presets", "preset_config"),
    ("checks.run_experiment", "dynsamp_lab.checks", "run_experiment"),
    ("checks.run_single", "dynsamp_lab.checks", "run_single"),
    ("numkit.solve_stein", "dynsamp_lab.numkit", "solve_stein"),
    ("numkit.pinv", "dynsamp_lab.numkit", "pinv"),
    ("numkit.operator_norm", "dynsamp_lab.numkit", "operator_norm"),
    ("numkit.spectral_radius", "dynsamp_lab.numkit", "spectral_radius"),
    ("numkit.eig_hermitian", "dynsamp_lab.numkit", "eig_hermitian"),
    ("numkit.sqrt_psd", "dynsamp_lab.numkit", "sqrt_psd"),
    ("numkit.matrix_rank", "dynsamp_lab.numkit", "matrix_rank"),
    ("numkit.range_basis", "dynsamp_lab.numkit", "range_basis"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numpy.linalg.solve", "numpy.linalg", "solve"),
    ("frames.synthesis", "dynsamp_lab.frames", "synthesis"),
    ("frames.frame_bounds", "dynsamp_lab.frames", "frame_bounds"),
    ("frames.frame_operator", "dynsamp_lab.frames", "frame_operator"),
    ("frames.canonical_dual", "dynsamp_lab.frames", "canonical_dual"),
    ("frames.kernel_synthesis", "dynsamp_lab.frames", "kernel_synthesis"),
    ("frames.lower_riesz_profile", "dynsamp_lab.frames", "lower_riesz_profile"),
    ("dynsamp.orbit", "dynsamp_lab.dynsamp", "orbit"),
    ("dynsamp.orbit_frame_operator_exact", "dynsamp_lab.dynsamp",
     "orbit_frame_operator_exact"),
    ("dynsamp.surjectivity_report", "dynsamp_lab.dynsamp", "surjectivity_report"),
    ("dynsamp.kernel_invariance_check", "dynsamp_lab.dynsamp",
     "kernel_invariance_check"),
    ("dynsamp.iterated_frame_operator_check", "dynsamp_lab.dynsamp",
     "iterated_frame_operator_check"),
    ("dynsamp.representation_residual", "dynsamp_lab.dynsamp",
     "representation_residual"),
    ("dynsamp.ratio_bound_check", "dynsamp_lab.dynsamp", "ratio_bound_check"),
    ("dynsamp.periodic_orbit_model", "dynsamp_lab.dynsamp", "periodic_orbit_model"),
    ("dynsamp.unitary_nogo_proxy", "dynsamp_lab.dynsamp", "unitary_nogo_proxy"),
    ("perturb.satisfiability_search", "dynsamp_lab.perturb", "satisfiability_search"),
    ("perturb.contraction_data", "dynsamp_lab.perturb", "contraction_data"),
    ("perturb.riesz_perturbation_certificate", "dynsamp_lab.perturb",
     "riesz_perturbation_certificate"),
    ("perturb.weighted_frame_perturbation_certificate", "dynsamp_lab.perturb",
     "weighted_frame_perturbation_certificate"),
    ("perturb.scaled_generator_perturbation_certificate", "dynsamp_lab.perturb",
     "scaled_generator_perturbation_certificate"),
    ("perturb.multi_generator_riesz_certificate", "dynsamp_lab.perturb",
     "multi_generator_riesz_certificate"),
    ("perturb.two_operator_certificates", "dynsamp_lab.perturb",
     "two_operator_certificates"),
    ("report.to_json", "dynsamp_lab.report", "ExperimentReport.to_json"),
    ("report.payload_hash", "dynsamp_lab.report", "ExperimentReport.payload_hash"),
    ("report.write", "dynsamp_lab.report", "ExperimentReport.write"),
)

CERTIFICATES = frozenset(name for name, _, _ in FUNCTIONS
                         if name.endswith("_certificate")
                         or name.endswith("_certificates"))

CHECK_KINDS = (
    "orbit-bounds", "stein", "surjectivity", "periodic", "ratio-bound",
    "kernel-invariance", "representation", "nogo-proxy", "riesz-profile",
    "iterated-frame-operator", "perturbation", "satisfiability",
    "repro-aldroubi",
)

# Check-record error types that are verdicts of the mathematics (a hypothesis
# does not hold), not failures of the computation.
REFUSALS = frozenset({
    "NotAFrame", "HypothesisViolated", "InvalidHypothesis", "DivergentSeries",
    "InvalidInput", "NotPositiveSemidefinite", "ConfigError",
})

COUNTERS = (
    ("checks.run", "count"),
    ("checks.errored", "count"),
    ("checks.refused", "count"),
    ("checks.not_passed", "count"),
    ("numkit.solve_stein.iterations", "count"),
    ("numkit.solve_stein.vectorized", "count"),
    ("numkit.solve_stein.kron_mb", "MB"),
    ("perturb.trials", "count"),
    ("report.bytes", "bytes"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for name, _, _ in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"checks.{kind}.s", "s") for kind in CHECK_KINDS]
    out += list(COUNTERS)
    out += [("perturb.satisfying_frac", "ratio"),
            ("perturb.violated_frac", "ratio"),
            ("trace.overhead_frac", "ratio")]
    return out


def error_type(error: str | None) -> str | None:
    """Exception type name of a check record's ``error`` string."""
    return None if error is None else error.split(":", 1)[0].strip()


def is_refusal(error: str | None) -> bool:
    return error_type(error) in REFUSALS


class Tracer:
    """Span recorder plus the counters read from traced return values."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._bindings: list = []
        self.command = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.check_seconds: dict[str, float] = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from dynsamp_lab.errors import HypothesisViolated

        self._hypothesis_error = HypothesisViolated
        for name, module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            scanned = [module] + [m for n, m in list(sys.modules.items())
                                  if n.startswith("dynsamp_lab") and m is not None]
            for mod in scanned:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings.clear()

    def _bind(self, owner, key, wrapper) -> None:
        self._bindings.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failure = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failure = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.command)
                if name in CERTIFICATES:
                    tracer._certificate_outcome(failure)
            if after is not None:
                after(tracer, result, args, end - start)
            return result

        return traced

    def _certificate_outcome(self, failure) -> None:
        self.counters["perturb.certificate_calls"] += 1
        if isinstance(failure, self._hypothesis_error):
            self.counters["perturb.violated"] += 1

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, total and self seconds per traced function."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += (end - start) - child[index]
        return {"calls": calls, "total": total, "self": self_s}

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _after_solve_stein(tracer, sol, args, seconds):
    c = tracer.counters
    c["numkit.solve_stein.iterations"] += sol.iterations
    if sol.method == "vectorized-solve":
        d = sol.s.shape[0]
        c["numkit.solve_stein.vectorized"] += 1
        c["numkit.solve_stein.kron_mb"] += 16.0 * d**4 / 1e6  # computed


def _after_search(tracer, report, args, seconds):
    tracer.counters["perturb.trials"] += report.tried
    tracer.counters["perturb.satisfying"] += len(report.satisfying)


def _after_write(tracer, result, args, seconds):
    tracer.counters["report.bytes"] += os.path.getsize(args[1])


def _after_run_single(tracer, record, args, seconds):
    c = tracer.counters
    tracer.check_seconds[record.name.split(":", 1)[0]] += seconds
    c["checks.run"] += 1
    if record.error is not None:
        c["checks.refused" if is_refusal(record.error) else "checks.errored"] += 1
    elif not record.passed:
        c["checks.not_passed"] += 1


_AFTER = {
    "numkit.solve_stein": _after_solve_stein,
    "perturb.satisfiability_search": _after_search,
    "report.write": _after_write,
    "checks.run_single": _after_run_single,
}


def layer_table(tracer: Tracer, passes: int, overhead_frac: float) -> dict:
    """Per-layer metrics per traced pass, keyed as in ``per_layer_metrics``."""
    agg = tracer.aggregate()
    c = tracer.counters
    values: dict[str, float] = {}
    for name, _, _ in FUNCTIONS:
        values[f"{name}.calls"] = agg["calls"].get(name, 0) / passes
        values[f"{name}.self_s"] = agg["self"].get(name, 0.0) / passes
    for kind in CHECK_KINDS:
        values[f"checks.{kind}.s"] = tracer.check_seconds.get(kind, 0.0) / passes
    for name, _ in COUNTERS:
        values[name] = c.get(name, 0.0) / passes
    trials = c.get("perturb.trials", 0.0)
    cert_calls = c.get("perturb.certificate_calls", 0.0)
    values["perturb.satisfying_frac"] = (
        c.get("perturb.satisfying", 0.0) / trials if trials else 0.0)
    values["perturb.violated_frac"] = (
        c.get("perturb.violated", 0.0) / cert_calls if cert_calls else 0.0)
    values["trace.overhead_frac"] = overhead_frac
    return values
