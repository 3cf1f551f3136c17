"""The benchmark in perfbench/ hooks into the tree from outside: it wraps each
callable in `spans.TARGETS`, reads gate labels and compiled tables while it
traces, and hashes report bytes against `perfbench/digests.json`.  A tree
change that breaks one of these hooks crashes a benchmark worker, so these
checks catch it first."""

import json
import math
import sys
from pathlib import Path

import pytest

from cycsim import dlog_pipeline, driver, gates
from cycsim.hilbert import SparseState, adjoint
from cycsim.numtheory import make_group_spec

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from spans import COMPILE_KINDS, EXPERIMENT, INFO, NAME, PARENT, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, DigestGate  # noqa: E402


def test_every_traced_callable_resolves():
    for owner, attr, name in TARGETS:
        assert callable(owner.__dict__.get(attr)), name


def test_tracer_yields_every_layer_metric():
    with Tracer() as tracer:
        for s in (1, 2):
            driver.run_experiment(driver.ExperimentConfig(p=11, hidden_s=s, run_demo=False))
    metrics = tracer.layer_metrics(cold=0, warm={1})
    # the worker adds the process.* and trace.* metrics from its own clocks
    per_layer = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in per_layer if not m["name"].startswith(("process.", "trace."))}
    assert wanted <= set(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["crt_reduction.aux_oracle_builds"] > 0
    assert metrics["oracle.calls"] > 0


def test_compile_kinds_match_their_own_constructors_labels():
    # a label that matched no kind would move its compile time into
    # gates.compile_s.other without a trace
    built = {"work_mod_exp": gates.work_mod_exp(2, 29, "x", "y", "w", "z"),
             "mul3": gates.mul3(29, "x", "y", "z"),
             "pow_const": gates.pow_const(3, 29, "x", "z"),
             "group_mul_acc": gates.group_mul_acc(29, "x", "z")}
    assert set(built) == {kind for kind, _ in COMPILE_KINDS}
    for kind, gate in built.items():
        for label in (gate.label, adjoint(gate).label):
            assert [k for k, rx in COMPILE_KINDS if rx.match(label)] == [kind], label


def test_demo_path_keeps_its_label_hooks_and_one_apply_per_gate(monkeypatch):
    made = []  # `apply` wraps each result once, so this counts the gates passed to it
    from_arrays = SparseState.from_arrays.__func__
    monkeypatch.setattr(SparseState, "from_arrays", classmethod(
        lambda cls, *args: made.append(args) or from_arrays(cls, *args)))
    with Tracer() as tracer:
        for s in (1, 2):
            made.clear()
            driver.run_experiment(driver.ExperimentConfig(p=5, hidden_s=s))
    metrics = tracer.layer_metrics(cold=0, warm={1})
    for name in ("dlog_pipeline.reflection_s", "dlog_pipeline.qft_s",
                 "crt_reduction.reduction_s"):
        assert metrics[name] > 0, name
    assert metrics["hilbert.apply_calls"] == len(made)
    # the demo applies every gate of its kit on its own, in order
    spans = tracer.spans
    demo = [s[INFO][0] for s in spans if s[NAME] == "hilbert.apply" and s[EXPERIMENT] == 1
            and spans[s[PARENT]][NAME] == "dlog_pipeline.run_dlog_demo"]
    kit = dlog_pipeline.pipeline_kit(make_group_spec(5))
    assert demo == [g.label for key in ("stage1", "amp1", "mid", "amp2", "tail")
                    for g in kit[key]]


def test_sweep_reports_match_recorded_digests():
    # the second pass reads the tables and chain memos the first one filled
    workload = WORKLOADS["sweep-p43"]
    gate = DigestGate.load(workload)
    for done in (1, 2):
        gate.check_all(driver.run_sweep(workload.config()), workload.pass_indices())
        assert (gate.attempted, gate.failed) == (42 * done, 0)


# demo indices whose reports pin the local-unitary kernel, the pair step
# among it, to the recorded digests (the file is only read)
DEMO_PINS = {"demo-p29": (1, 4, 7), "demo-p37": (1, 4, 12)}


@pytest.mark.parametrize("name", DEMO_PINS)
def test_demo_reports_match_recorded_digests(name):
    workload = WORKLOADS[name]
    gate = DigestGate.load(workload)
    for s in DEMO_PINS[name]:
        assert gate.check(driver.run_experiment(workload.config(s)), s), s
