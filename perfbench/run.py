"""dynsamp-lab benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload orbit-ladder --seed 1 --seconds 20 --trace 0

Set-up is timed in fresh interpreters (six probes plus the workload
process itself; the median is reported).  The workload runs in one more
fresh process that calls ``dynsamp_lab.cli.main(argv)`` in-process, for a
fixed number of passes over the workload's command list: about ``--seconds``
of work at the seed.  With ``--trace 0`` the end-to-end metrics are printed.
With ``--trace 1`` half of those passes run untraced and a quarter traced,
and the per-layer metrics are printed.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layertrace import per_layer_metrics  # noqa: E402

WORKLOADS = ("orbit-ladder", "cert-search", "preset-suite")

END_TO_END = (
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


def _child(args: list[str], result: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    # The program's check summaries are discarded; its warnings reach stderr.
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - perf_counter()))
    return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dynsamp_lab" / "cli.py").is_file():
        print(f"error: no dynsamp-lab sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + TIME_LIMIT_S
    env = {k: v for k, v in os.environ.items() if k != "DYNSAMP_CACHE"}
    workdir = root / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [_child(["probe", "--workdir", str(workdir)],
                        workdir / f"probe-{i}.json", env, deadline)["setup_s"]
                 for i in range(SETUP_PROBES)]
        res = _child(["workload", "--workdir", str(workdir),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--size", args.size],
                     workdir / "result.json", env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(res["setup_s"])

    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    for line in res["lines"]:
        print(line)
    print(f"verdict digest {res['verdict_digest']}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"metric failed_frac {failed_frac!r} ratio ({res['failed']} of {res['attempted']})")

    if args.trace:
        names = per_layer_metrics()
        values = res["metrics"]
    else:
        names = END_TO_END
        values = dict(res["metrics"], setup_s=statistics.median(setup))
        print("setup samples s " + " ".join(repr(s) for s in setup))
        if "trials_per_s" in res:
            print(f"metric trials_per_s {res['trials_per_s']!r} 1/s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"metric {name} {values[name]!r} {unit}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
