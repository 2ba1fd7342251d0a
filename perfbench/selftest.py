"""Smoke test of the benchmark itself, at a tiny size (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
* BENCHMARK.json names exactly the metrics the benchmark prints;
* every workload prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) with its unit;
* every traced function records at least one call on some workload, which
  catches a binding the tracer missed;
* per-layer self times add up to the traced ``cli.main`` time;
* the oracles accept real reports and flag deliberately corrupted ones;
* the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from layertrace import FUNCTIONS, per_layer_metrics  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics(),
          "BENCHMARK.json per_layer matches layertrace.per_layer_metrics()")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")


def check_runs() -> None:
    calls: dict[str, float] = {name: 0.0 for name, _, _ in FUNCTIONS}
    for workload in WORKLOADS:
        for trace, expected in ((0, list(END_TO_END)), (1, per_layer_metrics())):
            proc = bench(workload, trace)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-3000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = result["metrics"]
            check(set(got) == {name for name, _ in expected},
                  f"{what} prints exactly its {len(expected)} metrics")
            check(all(got[name]["unit"] == unit
                      and isinstance(got[name]["value"], (int, float))
                      and f"metric {name} {got[name]['value']!r} {unit}" in lines
                      for name, unit in expected if name in got),
                  f"{what} prints each metric with its unit")
            check(result["correct"] and result["attempted"] >= 1,
                  f"{what} outputs agree with the oracles")
            if trace:
                for name in calls:
                    calls[name] += got[f"{name}.calls"]["value"]
                sums = [line for line in lines if line.startswith("trace self-time sum")]
                self_s, cli_s = map(float, re.search(
                    r"sum (\S+) s, cli\.main (\S+) s", sums[0]).groups())
                check(abs(self_s - cli_s) <= 1e-9 * cli_s,
                      f"{what} self times add up to cli.main ({cli_s:.6f} s)")
    missed = [name for name, n in calls.items() if n == 0]
    check(not missed, f"every traced function is called on some workload {missed}")


def _report(argv: list[str], work: Path) -> tuple[dict, int]:
    sys.path.insert(0, str(ROOT / "src"))
    from dynsamp_lab import cli

    out = work / "report.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    return json.loads(out.read_text()), code


def _mismatches(report: dict, code: int) -> int:
    tally = oracles.Tally()
    oracles.check_report(report, code, tally, "selftest")
    return len(tally.mismatches)


def check_oracles(work: Path) -> None:
    cfg = work / "config.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "dimension": 6,
        "operator": {"kind": "circulant", "first_row": [0.2, 0.5, 0, 0, 0, 0.1]},
        "generators": [[1.0, 0.5, -0.25, [0.0, 1.0], 0.3, 0.1]],
        "weights": {"kind": "geometric", "value": 0.9},
        "horizon": 12, "checks": ["orbit-bounds", "stein",
                                  "satisfiability:two_operator_riesz_sum"],
        "params": {"satisfiability:two_operator_riesz_sum": {"trials": 20}},
    }))
    run_report, run_code = _report(["run", str(cfg)], work)
    gallery, gallery_code = _report(["repro", "perturbation-gallery"], work)
    aldroubi, aldroubi_code = _report(["repro", "aldroubi-diagonal", "--dim", "8"], work)
    check(_mismatches(run_report, run_code) == 0, "oracles accept a clean run report")
    check(_mismatches(gallery, gallery_code) == 0, "oracles accept the gallery report")
    check(_mismatches(aldroubi, aldroubi_code) == 0, "oracles accept the aldroubi report")

    def corrupted(report, code, edit, what):
        bad = copy.deepcopy(report)
        edit(bad)
        bad["payload_hash"] = oracles.payload_hash(bad)  # only the number is wrong
        check(_mismatches(bad, code) > 0, f"oracles flag {what}")

    def scale(key, factor, check_name):
        def edit(rep):
            rec = next(c for c in rep["checks"] if c["name"] == check_name)
            rec["outputs"][key] *= factor
        return edit

    def bump_margin(rep):
        rep["checks"][0]["outputs"]["instances"][0]["margin"] += 1e-6

    def bump_sweep(rep):
        rec = next(c for c in rep["checks"] if c["name"] == "repro-aldroubi")
        rec["outputs"]["sweep"][0]["lambda_max"] *= 1 + 1e-6

    corrupted(run_report, run_code, scale("b_opt", 1 + 1e-6, "orbit-bounds"), "b_opt")
    corrupted(run_report, run_code, scale("a_opt", 1 + 1e-6, "orbit-bounds"), "a_opt")
    corrupted(run_report, run_code, scale("lambda_max", 1 + 1e-6, "stein"), "stein lambda_max")
    corrupted(run_report, run_code, scale("lambda_min", 1 + 1e-6, "stein"), "stein lambda_min")
    corrupted(gallery, gallery_code, bump_margin, "a certificate margin")
    corrupted(aldroubi, aldroubi_code, bump_sweep, "an aldroubi sweep eigenvalue")
    bad = copy.deepcopy(run_report)
    bad["checks"][0]["passed"] = not bad["checks"][0]["passed"]
    check(_mismatches(bad, run_code) > 0, "oracles flag a payload_hash that misses an edit")


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("cert-search", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "refuses to run without the program's sources")


def main() -> int:
    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_oracles(work)
        check_refuses_without_sources(work)
        check_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
