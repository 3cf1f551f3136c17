"""Outside-in span tracing of cycsim's public callables.

`Tracer` replaces each traced callable wherever a cycsim module binds it, so
names imported with `from .hilbert import apply` are covered as well, and puts
every original back on exit.  Nothing under `src/` changes.  Spans stay in
memory as `[name, start, end, parent, experiment, info]` rows until `dump`.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

from cycsim import (crt_reduction, dlog_pipeline, driver, halting_program, hilbert,
                    mq_circuits, numtheory)

NAME, START, END, PARENT, EXPERIMENT, INFO = range(6)

# per-warm-experiment counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("hilbert.apply_calls", "hilbert.support_rows", "hilbert.tables_compiled",
                "hilbert.entries_compiled", "hilbert.rowwise_gates",
                "crt_reduction.aux_oracle_builds", "halting_program.qp_gate_calls",
                "oracle.calls", "mq_circuits.trials")

# which gate constructor a compiled table belongs to, by the gate's label
COMPILE_KINDS = (("work_mod_exp", re.compile(r"UF_\d")), ("mul3", re.compile(r"MUL3_")),
                 ("pow_const", re.compile(r"POW_")), ("group_mul_acc", re.compile(r"GMUL_")))


# every callable the tracer wraps: (owner, attribute, span name)
TARGETS = (
    (hilbert, "apply", "hilbert.apply"),
    (hilbert.Permutation, "table_for", "hilbert.table_for"),
    (dlog_pipeline, "run_dlog_demo", "dlog_pipeline.run_dlog_demo"),
    (dlog_pipeline, "pipeline_kit", "dlog_pipeline.pipeline_kit"),
    (crt_reduction, "make_aux_oracle", "crt_reduction.make_aux_oracle"),
    (halting_program, "qp_gate", "halting_program.qp_gate"),
    (mq_circuits, "subspace_search", "mq_circuits.subspace_search"),
    (mq_circuits, "trial_circuit_prob", "mq_circuits.trial_circuit_prob"),
    (mq_circuits, "verify_solution", "mq_circuits.verify_solution"),
    (driver, "run_experiment", "driver.run_experiment"),
    (numtheory, "classical_dlog", "numtheory.classical_dlog"),
    (numtheory, "make_group_spec", "numtheory.make_group_spec"),
)


class Tracer:
    """Context manager that wraps TARGETS and records one span per call.

    A span's info is: (gate label, input support) for `apply`; [gate label,
    cached, table entries, returned None] for `table_for`; whether `qp_gate`
    returned a gate it had returned before; the report's `oracle_calls_total`
    for `run_experiment`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.experiment = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._qp_seen: dict[int, object] = {}
        self._before = {
            "hilbert.apply": lambda args: (args[1].label, args[0].support_size),
            "hilbert.table_for": lambda args: [args[0].label, args[1] in args[0].tables,
                                               math.prod(args[1])],
        }
        self._after = {
            "hilbert.table_for": lambda info, result: info + [result is None],
            "halting_program.qp_gate": self._qp_hit,
            "driver.run_experiment": lambda info, report: report.oracle_calls_total,
        }

    def _qp_hit(self, info, gate) -> bool:
        hit = id(gate) in self._qp_seen
        self._qp_seen[id(gate)] = gate  # keeps the gate alive, so its id stays unique
        return hit

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cycsim" or name.startswith("cycsim."))]
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)
        starts_experiment = name == "driver.run_experiment"

        def wrapper(*args, **kwargs):
            if starts_experiment:
                self.experiment += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.experiment,
                    before(args) if before else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[INFO] = after(span[INFO], result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=list) + "\n")

    def layer_metrics(self, cold: int, warm: set[int]) -> dict[str, float]:
        """Per-layer numbers per warm experiment (the experiments in `warm`).

        Work that only a cold start does is taken from experiment `cold`
        instead: `gates.compile_s.*`, `dlog_pipeline.pipeline_kit_s`,
        `halting_program.compile_s`, `numtheory.make_group_spec_s` and
        `driver.run_experiment_cold_s`.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        by_name: dict[str, list[tuple[int, list]]] = defaultdict(list)
        cold_by_name: dict[str, list[tuple[int, list]]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span[EXPERIMENT] in warm:
                by_name[span[NAME]].append((i, span))
            elif span[EXPERIMENT] == cold:
                cold_by_name[span[NAME]].append((i, span))
        n = len(by_name["driver.run_experiment"])
        if n == 0 or len(cold_by_name["driver.run_experiment"]) != 1:
            raise ValueError("trace needs one cold and at least one warm experiment")

        def dur(span):
            return span[END] - span[START]

        def total(rows, pred=lambda s: True):
            return math.fsum(dur(s) for _, s in rows if pred(s))

        def label_is(*prefixes):
            return lambda s: s[INFO][0].startswith(prefixes)

        applies = by_name["hilbert.apply"]
        tables = [s for _, s in by_name["hilbert.table_for"]]
        compiled = [s for s in tables if not s[INFO][1] and not s[INFO][3]]
        cold_compiled = [s for _, s in cold_by_name["hilbert.table_for"]
                         if not s[INFO][1] and not s[INFO][3]]
        qp = [s for _, s in by_name["halting_program.qp_gate"]]
        runs = by_name["driver.run_experiment"]

        def compile_kind(label):
            return next((k for k, rx in COMPILE_KINDS if rx.match(label)), "other")

        cold_kind = defaultdict(float)
        for s in cold_compiled:
            cold_kind[compile_kind(s[INFO][0])] += dur(s)

        def halting(s):
            return s[INFO][0].startswith(("HALT_", "U_r"))

        m = {
            "hilbert.apply_s": total(applies) / n,
            "hilbert.apply_calls": len(applies) / n,
            "hilbert.support_rows": sum(s[INFO][1] for _, s in applies) / n,
            "hilbert.compile_s": math.fsum(dur(s) for s in compiled) / n,
            "hilbert.tables_compiled": len(compiled) / n,
            "hilbert.entries_compiled": sum(s[INFO][2] for s in compiled) / n,
            "hilbert.table_hit_ratio": (sum(s[INFO][1] for s in tables) / len(tables)
                                        if tables else 1.0),
            "hilbert.rowwise_gates": sum(s[INFO][3] for s in tables) / n,
            "hilbert.apply_self_s": sum(dur(s) - child_time[i] for i, s in applies) / n,
        }
        for kind in [k for k, _ in COMPILE_KINDS] + ["other"]:
            m[f"gates.compile_s.{kind}"] = cold_kind[kind]
        demo_applies = [(i, s) for i, s in applies if s[PARENT] >= 0
                        and spans[s[PARENT]][NAME] == "dlog_pipeline.run_dlog_demo"]
        m.update({
            "dlog_pipeline.run_dlog_demo_s": total(by_name["dlog_pipeline.run_dlog_demo"]) / n,
            "dlog_pipeline.pipeline_kit_s": total(cold_by_name["dlog_pipeline.pipeline_kit"]),
            "dlog_pipeline.reflection_s": total(demo_applies, label_is("R_good", "R_full")) / n,
            "dlog_pipeline.qft_s": total(demo_applies, label_is("QFT_")) / n,
            "crt_reduction.reduction_s": total(applies, label_is("REDUCE_")) / n,
            "crt_reduction.aux_oracle_builds": len(by_name["crt_reduction.make_aux_oracle"]) / n,
            "crt_reduction.make_aux_oracle_s": total(by_name["crt_reduction.make_aux_oracle"]) / n,
            "halting_program.qp_gate_calls": len(qp) / n,
            "halting_program.qp_gate_hit_ratio": (sum(s[INFO] for s in qp) / len(qp)
                                                  if qp else 1.0),
            "halting_program.compile_s": math.fsum(dur(s) for s in cold_compiled
                                                   if halting(s)),
            "oracle.aux_oracle_s": total(applies, label_is("AUX_ORACLE_")) / n,
            "oracle.calls": sum(s[INFO] for _, s in runs) / n,
            "mq_circuits.subspace_search_s": total(by_name["mq_circuits.subspace_search"]) / n,
            "mq_circuits.trials": len(by_name["mq_circuits.trial_circuit_prob"]) / n,
            "mq_circuits.verify_solution_s": total(by_name["mq_circuits.verify_solution"]) / n,
            "numtheory.classical_dlog_s": total(by_name["numtheory.classical_dlog"]) / n,
            "numtheory.make_group_spec_s": total(cold_by_name["numtheory.make_group_spec"]),
            "driver.self_s": sum(dur(s) - child_time[i] for i, s in runs) / n,
            "driver.run_experiment_s": total(runs) / n,
            "driver.run_experiment_cold_s": total(cold_by_name["driver.run_experiment"]),
        })
        return m
