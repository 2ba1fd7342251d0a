"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

Run from the repository root (about twenty minutes on a 2-core VM):

    python3 perfbench/baseline.py

For each workload it makes ten ``--trace 0`` runs (seeds 201-210) and three
``--trace 1`` runs (seeds 201-203), at ``run_seconds`` from BENCHMARK.json.
End-to-end figures are the median and quartiles of the per-run values, with
the quartile distance as a share of the median.  Per-layer figures are the
median of the traced runs, per traced pass.
"""

from __future__ import annotations

import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layertrace import per_layer_metrics  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

SEEDS = range(201, 211)
TRACED_SEEDS = range(201, 204)


def bench(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}


def printed(lines: list[str], name: str) -> float | None:
    for line in lines:
        if line.startswith(f"metric {name} "):
            return float(line.split()[2])
    return None


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    out = {"measured": datetime.date.today().isoformat(), "run_seconds": seconds,
           "seeds": list(SEEDS), "traced_seeds": list(TRACED_SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, lines = bench(workload, seed, 0, seconds)
            runs.append((seed, result, lines))
            print(f"{workload} seed {seed}: {result['metrics']['wall_s']['value']:.4f} s",
                  file=sys.stderr)
        out.setdefault("machine", json.loads(
            next(x for x in runs[0][2] if x.startswith("machine "))[len("machine "):]))
        end_to_end = {name: dict(quartiles([r["metrics"][name]["value"] for _, r, _ in runs]),
                                 unit=unit) for name, unit in END_TO_END}
        also = {"failed_frac": dict(quartiles([r["failed"] / r["attempted"]
                                               for _, r, _ in runs]), unit="ratio")}
        rates = [printed(lines, "trials_per_s") for _, _, lines in runs]
        if all(rate is not None for rate in rates):
            also["trials_per_s"] = dict(quartiles(rates), unit="1/s")
        traced = [bench(workload, seed, 1, seconds)[0]["metrics"] for seed in TRACED_SEEDS]
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "printed_not_gated": also,
            "correct_runs": sum(r["correct"] for _, r, _ in runs),
            "verdict_digests": {
                str(seed): next(x for x in lines if x.startswith("verdict digest")).split()[2]
                for seed, _, lines in runs},
            "per_layer": {name: {"value": statistics.median(t[name]["value"] for t in traced),
                                 "unit": unit} for name, unit in per_layer_metrics()},
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
