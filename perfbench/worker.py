"""One benchmark workload, run in a fresh process by ``run.py``.

``probe`` mode times set-up only: import ``dynsamp_lab.cli`` and finish one
warm-up command.  ``workload`` mode does the same untimed-for-the-workload
warm-up, generates the workload's inputs from the seed, calls
``dynsamp_lab.cli.main(argv)`` in-process for a fixed number of passes over
the workload's command list, checks every written report against the
oracles and writes a JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layertrace

ROOT = Path.cwd()

# Warm-up: a small run touching the SVD, the Hermitian eigensolver and the
# dense solve, so BLAS start-up and first-call costs land in set-up.
WARMUP_CONFIG = {
    "schema_version": 1,
    "dimension": 16,
    "operator": {"kind": "circulant", "first_row": [0.0, 0.9] + [0.0] * 14},
    "generators": [[1.0 / (k + 1) for k in range(16)]],
    "weights": {"kind": "geometric", "value": 0.99},
    "horizon": 32,
    "checks": ["orbit-bounds", "stein", "surjectivity"],
    "seed": 0,
}

LADDER_CHECKS = [
    "orbit-bounds", "stein", "surjectivity", "riesz-profile",
    "kernel-invariance", "iterated-frame-operator", "representation",
    "ratio-bound",
]

CERTIFICATES = (
    "riesz_orbit_perturbation", "weighted_frame_perturbation",
    "scaled_generator_perturbation", "multi_generator_riesz",
    "two_operator_frame", "two_operator_riesz_sum",
)

PRESET_MIX = (
    ("aldroubi-diagonal", 16), ("aldroubi-diagonal", 32),
    ("shift-orbit", 4), ("shift-orbit", 16),
    ("circulant-zmodel", 3), ("circulant-zmodel", 12),
    ("perturbation-gallery", None),
)

# Pass wall times measured when the benchmark was added (2-core VM).  They
# turn --seconds into a fixed pass count, so that every commit measures the
# same work and the per-command percentiles use the same number of samples.
PASS_SECONDS = {"orbit-ladder": 15.0, "cert-search": 0.4, "preset-suite": 0.75}

SIZES = {
    # orbit-ladder dimensions, trials per certificate, preset mixes per pass
    "full": {"dims": (8, 32, 64, 128), "trials": 100, "mixes": 2},
    "tiny": {"dims": (4, 8), "trials": 2, "mixes": 1},
}


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from dynsamp_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"dynsamp_lab imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def timed_setup(workdir: Path) -> tuple[float, object]:
    """Seconds to import the CLI and finish the warm-up command."""
    cfg = workdir / "warmup.json"
    cfg.write_text(json.dumps(WARMUP_CONFIG))
    start = perf_counter()
    cli = import_cli()
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["run", str(cfg), "--out", str(workdir / "warmup-report.json")])
    return perf_counter() - start, cli


# -- workloads ---------------------------------------------------------------

@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def orbit_ladder(seed: int, size: dict, workdir: Path) -> list[Command]:
    import numpy as np

    configs = []
    for d in size["dims"]:
        rng = np.random.default_rng([seed, d])
        row = [0.0] * d
        row[1] = 0.95  # 0.95 x the cyclic shift: normal, its orbit is a frame
        # Seeded phases, flat Fourier magnitudes: the orbit is a well-conditioned
        # frame at every seed.  With Gaussian generators the smallest Fourier
        # coefficient decides, seed by seed, whether `representation` refuses
        # or runs its O(N^2) loop, and the run time becomes bimodal.
        g = np.fft.ifft(np.exp(2j * np.pi * rng.random(d))) * np.sqrt(d)
        configs.append((f"circulant-d{d}", {
            "operator": {"kind": "circulant", "first_row": row},
            "generators": [_pairs(g)],
            "weights": {"kind": "geometric", "value": 0.99},
        }, d))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        configs.append((f"dense-d{d}", {
            "operator": {"kind": "dense", "entries": _pairs(t.reshape(-1))},
            "generators": [_pairs(g)],
        }, d))
    commands = []
    for i, (label, body, d) in enumerate(configs):
        path = workdir / f"{label}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "dimension": d, "horizon": 4 * d,
            "checks": LADDER_CHECKS, "seed": seed, **body}))
        out = workdir / f"out-{i}.json"
        commands.append(Command(f"run {label}", ["run", str(path), "--out", str(out)], out))
    return commands


def cert_search(seed: int, size: dict, workdir: Path) -> list[Command]:
    params = {}
    for cert in CERTIFICATES:
        p = {"trials": size["trials"]}
        if cert in ("multi_generator_riesz", "two_operator_frame"):
            p["max_satisfying"] = 0  # as in the vacuity-search preset
        params[f"satisfiability:{cert}"] = p
    path = workdir / "cert-search.json"
    path.write_text(json.dumps({
        "schema_version": 1, "dimension": 1,
        "operator": {"kind": "diagonal", "values": [0.5]},
        "generators": [[1.0]], "horizon": 1,
        "checks": [f"satisfiability:{c}" for c in CERTIFICATES],
        "seed": seed, "params": params}))
    out = workdir / "out-0.json"
    return [Command("run satisfiability-all", ["run", str(path), "--out", str(out)], out)]


def preset_suite(seed: int, size: dict, workdir: Path) -> list[Command]:
    commands = []
    for _ in range(size["mixes"]):
        for preset, dim in PRESET_MIX:
            out = workdir / f"out-{len(commands)}.json"
            extra = ["--dim", str(dim)] if dim else []
            label = " ".join(["repro", preset] + extra)
            commands.append(Command(label, ["repro", preset, "--seed", str(seed),
                                             "--out", str(out)] + extra, out))
    return commands


WORKLOADS = {
    "orbit-ladder": orbit_ladder,
    "cert-search": cert_search,
    "preset-suite": preset_suite,
}


# -- passes and their outputs --------------------------------------------------

@dataclass
class Pass:
    wall: float
    latencies: list[float]
    outcomes: list  # exit code, or the exception type name


def run_pass(cli, commands: list[Command], tracer=None) -> Pass:
    latencies, outcomes = [], []
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd in commands:
            if tracer is not None:
                tracer.command += 1
            t0 = perf_counter()
            try:
                outcome = cli.main(cmd.argv)  # looked up per call: tracing rebinds it
            except (Exception, SystemExit) as exc:  # a crash is a counted failure
                outcome = type(exc).__name__
            latencies.append(perf_counter() - t0)
            outcomes.append(outcome)
            sink.seek(0)
            sink.truncate()
    return Pass(perf_counter() - start, latencies, outcomes)


class Outputs:
    """Failures, oracle results, determinism and verdicts over all passes."""

    def __init__(self):
        # oracles imports numpy, so it is imported only after the timed set-up.
        from oracles import Tally

        self.tally = Tally()
        self.attempted = 0
        self.failed = 0
        self.crashes: list[str] = []
        self.numerical: list[str] = []
        self.first_hash: dict[str, str] = {}
        self.verdicts: dict[str, str] = {}
        self.trials: list[int] = []

    def absorb(self, commands: list[Command], p: Pass) -> None:
        import oracles

        trials = 0
        for cmd, outcome in zip(commands, p.outcomes):
            self.attempted += 1
            if not isinstance(outcome, int) or outcome == 1 or not cmd.out.exists():
                self.failed += 1
                self.crashes.append(f"{cmd.label}: {outcome}")
                cmd.out.unlink(missing_ok=True)
                continue
            report = json.loads(cmd.out.read_text())
            cmd.out.unlink()
            for rec in report["checks"]:
                self.attempted += 1
                if rec["error"] is not None and not layertrace.is_refusal(rec["error"]):
                    self.failed += 1
                    self.numerical.append(f"{cmd.label} {rec['name']}: {rec['error']}")
                if rec["name"].startswith("satisfiability:") and rec["error"] is None:
                    trials += int(rec["outputs"]["tried"])
            digest = report["payload_hash"]
            if cmd.label in self.first_hash:
                self.tally.expect(self.first_hash[cmd.label] == digest,
                                  f"{cmd.label} payload_hash differs between repeats")
                continue
            self.first_hash[cmd.label] = digest
            self.verdicts[cmd.label] = " ".join(
                f"{r['name']}={'pass' if r['passed'] else 'FAIL'}"
                + (f"/{layertrace.error_type(r['error'])}" if r["error"] else "")
                for r in report["checks"]) + f" payload={digest[:16]}"
            oracles.check_report(report, outcome, self.tally, cmd.label)
        self.trials.append(trials)

    def counts(self) -> tuple[int, int]:
        return (self.attempted + self.tally.compared,
                self.failed + len(self.tally.mismatches))

    def verdict_digest(self) -> str:
        lines = "\n".join(f"{k}: {v}" for k, v in sorted(self.verdicts.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def run_passes(cli, commands, count: int, outputs: Outputs, tracer=None):
    passes = []
    for _ in range(count):
        if tracer is not None:
            tracer.install()
        try:
            p = run_pass(cli, commands, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(p)
        outputs.absorb(commands, p)
    return passes


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max, n={n}"
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.1f}, n={n}"


# -- machine -------------------------------------------------------------------

def _blas_threads():
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_block() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dynsamp_lab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": src.hexdigest(),
    }


# -- entry ---------------------------------------------------------------------

def workload(args, workdir: Path) -> dict:
    setup_s, cli = timed_setup(workdir)

    commands = WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir)
    outputs = Outputs()
    result = {"setup_s": setup_s, "lines": []}
    lines = result["lines"]
    count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    if args.trace:
        plain = run_passes(cli, commands, max(1, count // 2), outputs)
        tracer = layertrace.Tracer()
        traced = run_passes(cli, commands, max(1, count // 4), outputs, tracer)
        base = statistics.median(p.wall for p in plain)
        overhead = (statistics.median(p.wall for p in traced) - base) / base
        result["metrics"] = layertrace.layer_table(tracer, len(traced), overhead)
        agg = tracer.aggregate()
        self_sum = sum(agg["self"].values()) / len(traced)
        cli_total = agg["total"].get("cli.main", 0.0) / len(traced)
        lines.append(f"passes untraced {len(plain)} traced {len(traced)}")
        lines.append(f"trace self-time sum {self_sum!r} s, cli.main {cli_total!r} s "
                     "per traced pass")
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl.gz"
        tracer.write_spans(spans)
        lines.append(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        passes = run_passes(cli, commands, count, outputs)
        latencies = [x for p in passes for x in p.latencies]
        tail_s, tail_note = tail(latencies)
        walls = [p.wall for p in passes]
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "cmd_p50_s": statistics.median(latencies),
            "cmd_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        lines.append(f"passes {len(passes)} commands/pass {len(commands)} "
                     f"cmd_tail_s is {tail_note}")
        by_label: dict[str, list[float]] = {}
        for p in passes:
            for cmd, x in zip(commands, p.latencies):
                by_label.setdefault(cmd.label, []).append(x)
        lines += [f"latency {label} median {statistics.median(xs)!r} s n={len(xs)}"
                  for label, xs in by_label.items()]
        if any(outputs.trials):
            result["trials_per_s"] = statistics.median(
                t / w for t, w in zip(outputs.trials, walls))
    attempted, failed = outputs.counts()
    tally = outputs.tally
    result.update(attempted=attempted, failed=failed,
                  correct=not outputs.crashes and not tally.mismatches,
                  machine=machine_block(), verdict_digest=outputs.verdict_digest())
    lines.append(f"oracle compared {tally.compared} mismatches "
                 f"{len(tally.mismatches)} skipped-ill-conditioned {tally.skipped}")
    lines += [f"oracle MISMATCH {m}" for m in tally.mismatches]
    lines += [f"command FAILED {c}" for c in outputs.crashes]
    lines += [f"numerical failure {n}" for n in sorted(set(outputs.numerical))]
    lines += [f"verdict {k}: {v}" for k, v in sorted(outputs.verdicts.items())]
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "workload"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.mode == "probe":
        result = {"setup_s": timed_setup(workdir)[0]}
    else:
        result = workload(args, workdir)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
