"""One benchmark process: `run.py` starts each in a fresh interpreter.

    worker.py cold    --workload W --seed N --seconds S
    worker.py measure --workload W --seed N --seconds S
    worker.py trace   --workload W --seed N --seconds S

`cold` times one cold experiment.  `measure` times a cold experiment, then
whole passes over the workload's inputs until at least S seconds have
passed; both scale every experiment, and `measure` the whole window of
passes, by the host speed a `HostProbe` sampled while it ran.  `trace` does the same without the probe, then repeats as many
passes under the span tracer and derives the per-layer metrics.  Each prints
one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, DigestGate, HostProbe, Workload, run_cold, run_pass

OUT_DIR = Path(__file__).with_name("out")


def measure_passes(workload: Workload, gate: DigestGate, seconds: float,
                   passes: int | None = None) -> dict:
    """Whole passes until `seconds` have passed (or exactly `passes` passes)."""
    intervals: list[tuple[float, float]] = []
    cpu0, t0 = os.times(), time.perf_counter()
    done = 0
    while True:
        intervals += run_pass(workload, gate)
        done += 1
        wall = time.perf_counter() - t0
        finished = done == passes if passes is not None else wall >= seconds
        if finished:
            break
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return {"intervals": intervals, "window": (t0, t0 + wall), "wall_s": wall, "cpu_s": cpu,
            "passes": done}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas.get("version"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "pinned": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "PYTHONHASHSEED")}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold(workload: Workload, gate: DigestGate, seed: int, seconds: float) -> dict:
    with HostProbe() as probe:
        raw, scaled = probe.scaled(*run_cold(workload, gate))
    return {"cold_s": scaled, "raw_cold_s": raw,
            "attempted": gate.attempted, "failed": gate.failed}


def measure(workload: Workload, gate: DigestGate, seed: int, seconds: float) -> dict:
    with HostProbe() as probe:
        cold_interval = run_cold(workload, gate)
        window = measure_passes(workload, gate, seconds)
    raw_cold, cold_s = probe.scaled(*cold_interval)
    raw, scaled = zip(*(probe.scaled(*iv) for iv in window.pop("intervals")))
    raw_window, window_s = probe.scaled(*window.pop("window"))
    return {"cold_s": cold_s, "raw_cold_s": raw_cold, "times": scaled, "raw_times": raw,
            "window_s": window_s, "raw_window_s": raw_window, **window,
            "order": workload.pass_indices(), "probe_samples": len(probe.durations),
            "peak_rss_mb": peak_rss_mb(), "environment": environment(),
            "attempted": gate.attempted, "failed": gate.failed}


def trace(workload: Workload, gate: DigestGate, seed: int, seconds: float) -> dict:
    """Traced cold experiment, untraced passes, then as many traced passes."""
    tracer = Tracer()
    with tracer:
        run_cold(workload, gate)
    cold_id = tracer.experiment
    plain = measure_passes(workload, gate, seconds)
    with tracer:
        traced = measure_passes(workload, gate, seconds, passes=plain["passes"])
    metrics = tracer.layer_metrics(cold_id, set(range(cold_id + 1, tracer.experiment + 1)))
    metrics["process.cpu_over_wall"] = plain["cpu_s"] / plain["wall_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.dump(spans_file)
    return {"metrics": metrics, "passes": plain["passes"], "spans": len(tracer.spans),
            "spans_file": spans_file.relative_to(OUT_DIR.parent.parent).as_posix(),
            "environment": environment(), "attempted": gate.attempted, "failed": gate.failed}


ROLES = {"cold": cold, "measure": measure, "trace": trace}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=sorted(ROLES))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result = ROLES[args.role](workload, DigestGate.load(workload), args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
