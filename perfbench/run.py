"""cycsim benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload demo-p29 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Every measurement happens in a fresh
interpreter (`worker.py`), one at a time, with the BLAS thread pools pinned
to one thread, so module caches start empty and nothing spins beside the
simulator.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
`setup_s` is the median over COLD_STARTS fresh processes of the first
experiment; the rest come from whole passes over the workload's inputs in one
process.  Every experiment's time is scaled by the host speed measured while
it ran (`workloads.HostProbe`): times are seconds on a host running at its
nominal speed, which removes the host's drift between runs.  The raw wall
times are on the info line.  With `--trace 1` one process traces the calls
into every layer and reports the per-layer metrics, in raw seconds.  The
inputs are fixed, so `--seed` is only recorded.

Every report is checked against its recorded digest.  The last stdout line is
the JSON result, the line before it the run's environment, raw times and
sample sizes.  Exit status 0 means every experiment passed the gate, 1 that
one did not (or a worker failed), 2 a bad invocation or tree, and 3 that the
run hit its DEADLINE_S timeout, which says nothing about correctness.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 3
DEADLINE_S = 170.0  # a run must end within 180 s; this is a safety net, not a gate
EXIT_TIMEOUT = 3
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(role: str, args: argparse.Namespace, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise ChildFailed(f"worker {role} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, int, int]:
    colds = [run_child("cold", args, deadline) for _ in range(COLD_STARTS - 1)]
    main = run_child("measure", args, deadline)
    times = sorted(main["times"])
    n = len(times)
    if n <= TAIL_BEYOND:
        raise ChildFailed(f"{n} warm experiments leave no tail percentile")
    attempted = main["attempted"] + sum(c["attempted"] for c in colds)
    failed = main["failed"] + sum(c["failed"] for c in colds)
    metrics = {
        "setup_s": statistics.median([main["cold_s"]] + [c["cold_s"] for c in colds]),
        "experiments_per_s": n / main["window_s"],
        "experiment_s_p50": statistics.median(times),
        "experiment_s_tail": times[n - 1 - TAIL_BEYOND],
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    raw = sorted(main["raw_times"])
    info = {"environment": main["environment"], "warm_experiments": n, "passes": main["passes"],
            "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n, "order": main["order"],
            "probe_samples": main["probe_samples"],
            "raw": {"setup_s": statistics.median([main["raw_cold_s"]]
                                                 + [c["raw_cold_s"] for c in colds]),
                    "experiments_per_s": n / main["raw_window_s"],
                    "experiment_s_p50": statistics.median(raw),
                    "experiment_s_tail": raw[n - 1 - TAIL_BEYOND],
                    "window_s": main["raw_window_s"]},
            "cpu_over_wall": main["cpu_s"] / main["wall_s"]}
    return metrics, info, attempted, failed


def traced(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, int, int]:
    res = run_child("trace", args, deadline)
    info = {"environment": res["environment"], "passes": res["passes"], "spans": res["spans"],
            "spans_file": res["spans_file"]}
    return res["metrics"], info, res["attempted"], res["failed"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="cycsim benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cycsim" / "driver.py").is_file():
        print(f"error: no cycsim source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    try:
        measured, info, attempted, failed = (traced if args.trace else untraced)(args, deadline)
    except subprocess.TimeoutExpired:
        print(f"error: timeout, the run did not finish within {DEADLINE_S:.0f} s; this is not "
              "a digest or verification failure", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ChildFailed, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: run produced no {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    correct = attempted >= 1 and failed == 0
    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, **info}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
