"""CLI and orchestration: configure an instance, run the end-to-end hidden-index
search, cross-check every result against the classical oracles, and emit
machine-readable reports.

The hidden index lives in the oracle spec; pipeline code only ever receives
gates, and the driver reveals the index solely in the verification section of
the report.  Reports are deterministic for a fixed (config, seed): keys sorted,
no timestamps (wall time is attached only when explicitly requested).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import dataclass

from . import crt_reduction as cr
from . import dlog_pipeline as dl
from . import gates
from . import halting_program as hp
from . import hilbert
from . import mq_circuits as mq
from .hilbert import GateLedger, RegisterLayout, Sequence, SimulationError, SparseState
from .numtheory import (CyclicGroupSpec, DomainError, classical_dlog, crt_compose,
                        is_prime, make_group_spec, multiplicative_order)
from .oracle import OracleSpec, make_oracle, make_subspace_oracle

log = logging.getLogger("cycsim")


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    g: int | None = None
    hidden_s: int | None = None          # explicit index; None -> draw from seed
    hidden_random: bool = False
    seed: int = 0
    theta: float = math.pi
    mode: str = "exact"                  # amplification mode for the log-gate demo
    grover_m: int | None = None
    trotter_m: int | None = None         # adds a product-formula validation section
    epsilon: float = 0.0
    gamma: float = 0.0
    run_demo: bool = True                # include the staged inversion diagnostics
    timing: bool = False                 # attach wall time (breaks byte determinism)

    def validate(self) -> None:
        if not is_prime(self.p) or self.p < 3:
            raise DomainError(f"p must be an odd prime, got {self.p}")
        if self.p.bit_length() > mq.MAX_QUBITS:  # before any gate sized by it is built
            raise DomainError(f"p = {self.p} needs more than the {mq.MAX_QUBITS} verification qubits")
        if self.hidden_s is not None and not 0 <= self.hidden_s < self.p - 1:
            raise DomainError(f"hidden index {self.hidden_s} outside Z_{self.p - 1}")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma}")
        if self.mode not in ("exact", "grover"):
            raise DomainError(f"unknown amplification mode {self.mode!r}")
        if self.g is not None and not (
                1 <= self.g < self.p and multiplicative_order(self.g, self.p) == self.p - 1):
            raise DomainError(f"{self.g} is not a primitive root mod {self.p}")
        if self.trotter_m is not None and self.trotter_m < 1:
            raise DomainError("trotter_m must be at least 1")
        if self.grover_m is not None and self.grover_m < 0:
            raise DomainError("grover_m must be non-negative")
        if self.grover_m is not None and self.mode != "grover":
            raise DomainError("grover_m applies only to mode 'grover'")
        if self.theta != math.pi:
            # the component search's trial threshold assumes a pi rotation
            raise DomainError(f"theta must be pi, got {self.theta}")


@dataclass
class ExperimentReport:
    config: dict
    group: dict
    dlog_demo: dict | None
    components: list[dict]
    halting_ledger: list[dict]
    euler_filter_weight: float | None
    recovered_s: int | None
    gate_counts: dict
    oracle_calls_total: int
    verification: dict
    trotter: list[dict] | None = None
    wall_time_s: float | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, ensure_ascii=False, indent=1)


@dataclass
class _Instance:
    """Everything derived from (p, g, epsilon, gamma) that is shareable across runs.
    entries[k][x], trial x's chain into component k's auxiliary oracle, is
    (f1, shift_x, the component's one swap, its oracle-side reduction's
    adjoint): built once, so its memo outlives every run."""

    spec: CyclicGroupSpec
    layout: RegisterLayout
    regs: cr.SearchRegs
    pulse: hp.PulseModel | None
    reductions: list  # per component: the forward reduction gate
    search: mq.SearchGates  # the component search's gates on the search register
    entries: tuple  # per component, per trial x: the chain into the aux oracle


@functools.lru_cache(maxsize=hilbert.GATE_SETS)
def _instance(p: int, g: int | None, epsilon: float, gamma: float) -> _Instance:
    """The last GATE_SETS instances built, each with its gates and their tables."""
    spec = make_group_spec(p, g)
    layout, regs = cr.make_search_layout(spec)

    def reductions_for(pulse: hp.PulseModel | None) -> list:
        return [cr.reduction_gate(spec, regs, k, pulse) for k in range(spec.r)]

    pulse = hp.PulseModel(epsilon, gamma) if epsilon > 0 else None
    reductions = aux_reductions = reductions_for(pulse)
    if pulse is not None:
        # the locking phase depends on when the pulse fires, so the oracle-side
        # stripping carries a drifted phase and does not coherently undo the leak
        aux_reductions = reductions_for(hp.PulseModel(epsilon, gamma + math.pi / 3))
    search = mq.search_gates(spec, regs.search)
    tails = [(gates.swap_regs(regs.search, comp), hilbert.adjoint(red))
             for comp, red in zip(regs.comps, aux_reductions)]
    entries = tuple(tuple(Sequence((*dress, *tail), label=f"TRIAL_{k}_{x}")
                          for x, dress in enumerate(search.dress)) for k, tail in enumerate(tails))
    return _Instance(spec, layout, regs, pulse, reductions, search, entries)


def _draw_hidden(config: ExperimentConfig) -> int:
    if config.hidden_s is not None:
        return config.hidden_s
    return random.Random(config.seed).randrange(config.p - 1)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    t0 = time.perf_counter()
    inst = _instance(config.p, config.g, config.epsilon, config.gamma)
    spec, layout, regs = inst.spec, inst.layout, inst.regs
    hidden_s = _draw_hidden(config)
    ospec = OracleSpec(hidden_s, spec)
    b = ospec.marked_value  # the instance data: the marked group element
    ledger = GateLedger()
    log.info("instance p=%d g=%d, searching over %d components", spec.p, spec.g, spec.r)

    demo_section = None
    euler_weight = None
    if config.run_demo:
        demo_ledger = GateLedger()
        trace, demo_rec, _ = dl.run_dlog_demo(spec, b, mode=config.mode,
                                              grover_m=config.grover_m,
                                              ledger=demo_ledger)
        euler_weight = next(e["fidelity"] for e in trace.entries
                            if e["stage"] == "psi3s-weight")
        demo_section = {
            "trace": trace.as_dict(),
            "recovered_index": demo_rec,
            "agrees_with_classical": demo_rec == classical_dlog(spec.p, spec.g, b),
            "gate_counts": demo_ledger.counts_by_class(),
        }

    base_oracle = make_subspace_oracle(
        ospec, regs.w, tuple(x for x in layout.names if x not in (regs.w, regs.search)),
        config.theta)

    components: list[dict] = []
    halt_ledger: list[dict] = []
    residues: list[int] = []
    search_failed = False
    state = SparseState.basis(layout)
    state = hilbert.apply(state, gates.transposition(0, b, regs.w), ledger)
    for k in range(spec.r):
        comp = spec.basis.components[k]
        red = inst.reductions[k]
        state = hilbert.apply(state, red, ledger)
        for j, step in _read_records(state, inst, k):
            halt_ledger.append({"component": k, "pair": j, "step": step})
        entries = inst.entries[k]
        try:
            found, state, info = mq.subspace_search(
                lambda x: cr.make_aux_oracle(base_oracle, k, entries[x]),
                inst.search, k, state, ledger)
        except SimulationError as err:
            log.error("component %d search failed: %s", k, err)
            search_failed = True
            found, info = None, {"trial_probabilities": [], "oracle_calls": 0,
                                 "max_probability": 0.0}
        state = hilbert.apply(state, hilbert.adjoint(red), ledger)
        if inst.pulse is None:
            hilbert.assert_registers_clean(
                state, tuple(x for x in layout.names if x != regs.w), "component search")
        components.append({
            "k": k + 1, "m_k": comp.m, "M_k": comp.M, "n_k": comp.n,
            "recovered_s_k": found,
            "oracle_calls": info["oracle_calls"],
            "max_probability": info["max_probability"],
            "trial_probabilities": info["trial_probabilities"],
        })
        if found is not None:
            residues.append(found % comp.m)

    recovered_s = None
    verified = False
    classical_ok = False
    if not search_failed and len(residues) == spec.r:
        recovered_s = crt_compose(tuple(residues), spec.basis)
        candidate_value = pow(spec.g, recovered_s, spec.p)
        verified = mq.verify_solution(
            candidate_value, functools.partial(make_oracle, ospec, regs.search), inst.search.half,
            ledger)
        classical_ok = classical_dlog(spec.p, spec.g, b) == recovered_s

    success = bool(recovered_s == hidden_s and verified and classical_ok)

    trotter_section = None
    if config.trotter_m is not None:
        trotter_section = [
            {"n": nn, "m": config.trotter_m,
             "operator_error": mq.trotter_error(nn, math.pi / 4, config.trotter_m)}
            for nn in (2, 3, 4)]

    cfg_echo = dataclasses.asdict(config)
    cfg_echo.pop("hidden_s", None)  # revealed only under verification
    report = ExperimentReport(
        config=cfg_echo,
        group={"p": spec.p, "g": spec.g,
               "components": [{"m": c.m, "M": c.M, "n": c.n,
                               "generator": spec.subgroup_generators[i]}
                              for i, c in enumerate(spec.basis.components)]},
        dlog_demo=demo_section,
        components=components,
        halting_ledger=halt_ledger,
        euler_filter_weight=euler_weight,
        recovered_s=recovered_s,
        gate_counts=ledger.counts_by_class(),
        oracle_calls_total=ledger.count("oracle-call"),
        verification={"hidden_s": hidden_s, "recovered_s": recovered_s,
                      "verify_solution": verified, "classical_dlog_agrees": classical_ok,
                      "success": success},
        trotter=trotter_section,
        wall_time_s=round(time.perf_counter() - t0, 3) if config.timing else None,
    )
    return report


def _read_records(state: SparseState, inst: _Instance, keep: int) -> list[tuple[int, int]]:
    """(component, halting step) for every stripped component."""
    sharp = inst.pulse is None  # leakage smears the records; report the dominant step
    records = []
    for j in range(inst.spec.r):
        if j == keep:
            continue
        name = inst.regs.recs[j]
        step = state.register_value(name) if sharp else state.dominant_register_value(name)
        records.append((j, step))
    return records


def run_sweep(config: ExperimentConfig) -> list[ExperimentReport]:
    """One experiment per hidden index; every run shares one memoized instance,
    so its gate tables stay warm across the sweep."""
    return [run_experiment(dataclasses.replace(config, hidden_s=s)) for s in range(config.p - 1)]


def _atomic_write(path: str, data: str) -> None:
    """`data` at `path` through `<path>.tmp`, which no failure leaves behind."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


_CSV_FIELDS = ("p", "hidden_s", "recovered_s", "success", "oracle_calls_total",
               "verify_solution", "classical_dlog_agrees")


def _csv_rows(reports: list[ExperimentReport]) -> str:
    lines = [",".join(_CSV_FIELDS)]
    for rep in reports:
        v = rep.verification
        lines.append(",".join(str(x) for x in (
            rep.group["p"], v["hidden_s"], v["recovered_s"], v["success"],
            rep.oracle_calls_total, v["verify_solution"], v["classical_dlog_agrees"])))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cycsim",
                                 description="hidden-index search over a cyclic group "
                                             "state space, verified classically")
    ap.add_argument("--p", type=int, required=True, help="prime modulus")
    ap.add_argument("--g", type=int, default=None, help="primitive root (default: smallest)")
    ap.add_argument("--hidden-s", type=int, default=None, help="hidden index to plant")
    ap.add_argument("--hidden-random", action="store_true",
                    help="draw the hidden index from --seed")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--theta", type=float, default=math.pi)
    ap.add_argument("--mode", choices=("exact", "grover"), default="exact")
    ap.add_argument("--grover-m", type=int, default=None)
    ap.add_argument("--trotter-m", type=int, default=None,
                    help="attach a product-formula error section at this step count")
    ap.add_argument("--epsilon", type=float, default=0.0, help="pulse leakage amplitude")
    ap.add_argument("--gamma", type=float, default=0.0, help="pulse leakage phase")
    ap.add_argument("--out", type=str, default=None, help="JSON report path")
    ap.add_argument("--csv", type=str, default=None,
                    help="sweep every hidden index and write one CSV row per run")
    ap.add_argument("--no-demo", action="store_true",
                    help="skip the staged-inversion diagnostics section")
    ap.add_argument("--timing", action="store_true",
                    help="attach wall time to the report (breaks byte determinism)")
    ap.add_argument("--verbose", action="store_true")
    return ap


class _Stderr(logging.StreamHandler):
    """The `cycsim` logger's one handler: it writes to whatever `sys.stderr`
    is when a record comes, so every `cli_main` call prints to its own."""
    stream = property(lambda self: sys.stderr, lambda self, value: None)


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = os.environ.get("CYCSIM_LOG", "INFO" if args.verbose else "WARNING")
    try:
        if level.upper() not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
            raise DomainError(f"CYCSIM_LOG={level!r} is not DEBUG, INFO, WARNING, ERROR or CRITICAL")
        if not log.handlers:
            handler = _Stderr()
            handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            # records propagate (caplog reads them at the root): a root stderr handler prints them
            handler.addFilter(lambda record: not any(
                isinstance(h, logging.StreamHandler) and h.stream is sys.stderr
                and record.levelno >= h.level for h in logging.getLogger().handlers))
            log.addHandler(handler)
        log.setLevel(level.upper())
        if args.hidden_s is not None and (args.hidden_random or args.csv is not None):
            other = "--hidden-random" if args.hidden_random else "--csv"
            raise DomainError(f"--hidden-s conflicts with {other}")
        if args.hidden_random and args.csv is not None:
            raise DomainError("--hidden-random conflicts with --csv")
        config = ExperimentConfig(
            p=args.p, g=args.g, hidden_s=args.hidden_s,
            hidden_random=args.hidden_random, seed=args.seed, theta=args.theta,
            mode=args.mode, grover_m=args.grover_m, trotter_m=args.trotter_m,
            epsilon=args.epsilon, gamma=args.gamma, run_demo=not args.no_demo,
            timing=args.timing)
        config.validate()
        if config.hidden_s is None and not config.hidden_random and args.csv is None:
            raise DomainError("give --hidden-s, --hidden-random, or --csv for a sweep")
        for flag, path in (("--out", args.out), ("--csv", args.csv)):
            if path is None:
                continue
            folder = os.path.dirname(path) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise DomainError(f"{flag} {path}: {folder} is not a writable directory")
            if os.path.isdir(path):
                raise DomainError(f"{flag} {path}: is a directory")
        if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
            raise DomainError(f"--out and --csv name the same file: {args.out}")
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.csv is not None:
            reports = run_sweep(config)
            _atomic_write(args.csv, _csv_rows(reports))
            if args.out:
                payload = json.dumps([r.as_dict() for r in reports], sort_keys=True,
                                     ensure_ascii=False, indent=1)
                _atomic_write(args.out, payload)
            ok = all(r.verification["success"] for r in reports)
            n_ok = sum(r.verification["success"] for r in reports)
            print(f"sweep p={config.p}: {n_ok}/{len(reports)} hidden indices recovered")
            return 0 if ok else 1
        report = run_experiment(config)
        if args.out:
            _atomic_write(args.out, report.to_json())
        v = report.verification
        print(f"p={config.p} hidden_s={v['hidden_s']} recovered_s={v['recovered_s']} "
              f"success={v['success']} oracle_calls={report.oracle_calls_total}")
        return 0 if v["success"] else 1
    except (SimulationError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
