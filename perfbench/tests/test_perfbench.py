"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run small primes in-process where they can, and fresh interpreters where
a cold start matters.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from cycsim import driver  # noqa: E402
import run  # noqa: E402
from spans import EXACT_COUNTS, TARGETS, Tracer  # noqa: E402
from workloads import (WORKLOADS, DigestGate, Workload, report_digest,  # noqa: E402
                       run_cold, run_pass)

TINY_DEMO = Workload("tiny-demo-p11", 11, run_demo=True, share=1.0)
TINY_SWEEP = Workload("tiny-sweep-p11", 11, run_demo=False, share=1.0)


def _digests(workload: Workload) -> dict[str, str]:
    return {str(s): report_digest(driver.run_experiment(workload.config(s)))
            for s in range(workload.p - 1)}


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of a cycsim module or class that holds a traced callable."""
    targets = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    holders = [m for name, m in sys.modules.items() if name.startswith("cycsim")]
    holders += [owner for owner, _, _ in TARGETS if isinstance(owner, type)]
    return {(id(h), key): value for h in holders for key, value in vars(h).items()
            if any(value is t for t in targets)}


def test_tracer_restores_original_callables():
    before = _bindings()
    assert len(before) >= len(TARGETS)
    with pytest.raises(RuntimeError):
        with Tracer():
            inside = _bindings()  # now the wrappers
            raise RuntimeError("leave the block early")
    assert inside.keys() == before.keys()
    assert not any(inside[k] is before[k] for k in before)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_wraps_every_binding():
    from cycsim import dlog_pipeline, hilbert

    original_apply = hilbert.apply
    with Tracer():
        assert hilbert.apply is not original_apply
        assert dlog_pipeline.apply is hilbert.apply  # the name imported with `from`
        assert hilbert.Permutation.table_for.__name__ == "wrapper"
    assert hilbert.apply is original_apply and dlog_pipeline.apply is original_apply


@pytest.mark.parametrize("workload", (TINY_DEMO, TINY_SWEEP), ids=lambda w: w.name)
def test_traced_and_untraced_reports_have_identical_digests(workload):
    gate = DigestGate(_digests(workload))
    with Tracer() as tracer:
        run_pass(workload, gate)
    assert tracer.experiment + 1 == workload.p - 1
    assert (gate.attempted, gate.failed) == (workload.p - 1, 0)


def test_recorded_digest_matches_this_tree():
    sweep = WORKLOADS["sweep-p43"]
    gate = DigestGate.load(sweep)
    run_cold(sweep, gate)
    assert (gate.attempted, gate.failed) == (1, 0)


def test_corrupted_digest_counts_as_failure():
    expected = _digests(TINY_DEMO)
    expected["1"] = "0" * 64
    gate = DigestGate(expected)
    run_pass(TINY_DEMO, gate)
    assert (gate.attempted, gate.failed) == (TINY_DEMO.p - 1, 1)


def test_failed_verification_counts_as_failure():
    report = driver.run_experiment(TINY_DEMO.config(2))
    gate = DigestGate({"2": report_digest(report)})
    report.verification["success"] = False
    assert not gate.check(report, 2)
    assert gate.failed == 1


def test_demo_gate_keys_on_the_requested_index(monkeypatch):
    expected = _digests(TINY_DEMO)
    first = driver.run_experiment(TINY_DEMO.config(0))
    monkeypatch.setattr(driver, "run_experiment", lambda config: first)
    gate = DigestGate(expected)
    run_pass(TINY_DEMO, gate)
    assert (gate.attempted, gate.failed) == (TINY_DEMO.p - 1, TINY_DEMO.p - 2)


@pytest.mark.parametrize("pick, failed", [
    (lambda reports: [reports[0]] * len(reports), 9),     # one index, repeated
    (lambda reports: reports[:3] + reports[4:], 7),       # index 3 skipped
    (lambda reports: reports + [reports[-1]], 1),         # one report too many
    (lambda reports: reports[::-1], 0),                   # any order is fine
], ids=("repeated", "skipped", "extra", "reversed"))
def test_sweep_gate_checks_every_requested_index_once(monkeypatch, pick, failed):
    expected = _digests(TINY_SWEEP)
    reports = driver.run_sweep(TINY_SWEEP.config())
    monkeypatch.setattr(driver, "run_sweep", lambda config: pick(reports))
    gate = DigestGate(expected)
    run_pass(TINY_SWEEP, gate)
    assert gate.failed == failed
    assert gate.attempted == max(len(pick(reports)), TINY_SWEEP.p - 1)


_TRACE_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from workloads import DigestGate, Workload
import worker
w = Workload("tiny-demo-p11", 11, run_demo=True, share=1.0)
gate = DigestGate(json.loads(open(sys.argv[3]).read()))
print(json.dumps(worker.trace(w, gate, seed=5, seconds=0.0)["metrics"]))
"""


def test_exact_counts_repeat_across_fresh_traced_runs(tmp_path):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(_digests(TINY_DEMO)))
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", _TRACE_CHILD, str(ROOT / "src"),
                              str(BENCH), str(digests)], env=run.child_env(), cwd=ROOT,
                             check=True, stdout=subprocess.PIPE, text=True, timeout=300)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["hilbert.apply_calls"] > 0
    assert runs[0]["mq_circuits.trials"] > 0


def test_pass_indices_are_a_fixed_stratified_set():
    for workload in WORKLOADS.values():
        order = workload.pass_indices()
        assert order == sorted(set(order)) == workload.pass_indices()
        assert len(order) == round(workload.share * (workload.p - 1))
    assert WORKLOADS["demo-p29"].pass_indices() == list(range(28))
    m = 36
    full = Counter(math.gcd(s, m) for s in range(m))
    third = Counter(math.gcd(s, m) for s in WORKLOADS["demo-p37"].pass_indices())
    assert all(abs(third[d] - full[d] / 3) < 1 for d in full)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo-p29",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_exits_nonzero_on_a_digest_mismatch(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    recorded = json.loads((BENCH / "digests.json").read_text())
    recorded["sweep-p43"]["digests"]["0"] = "0" * 64
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(recorded))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-p43",
                           "--seed", "1", "--seconds", "0", "--trace", "0"], cwd=tmp_path,
                          stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # each of the three cold starts runs the cold index, and the sweep once more
    assert result["correct"] is False and result["failed"] == 4
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_run_reports_a_timeout_as_a_timeout(monkeypatch, capsys):
    monkeypatch.setattr(run, "DEADLINE_S", 0.2)
    status = run.main(["--workload", "sweep-p43", "--seed", "1", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr()
    assert status == run.EXIT_TIMEOUT
    assert out.out == "" and "timeout" in out.err
