"""Construction of the discrete-log unitary: the inversion of modular
exponentiation built through a staged state sequence with Euler filtering and
two amplitude-amplification rounds, then the full log gate as
(forward mod-exp)+ . SWAP . (inversion sequence).

The whole sequence is built from the group data alone, covariantly in the work
register, so one gate maps |g**s mod p> -> |s> for every s simultaneously (and
hence acts linearly on superpositions, up to a common sector phase from the
amplification rounds).  The double-variable modular exponential reads its base
from the work register; both amplification reflections are realized as
conjugated selective phases, never reading the index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates, hilbert
from .hilbert import (GateLedger, GateOp, PhaseFn, Register, RegisterLayout, Sequence,
                      SimulationError, SparseState, adjoint, apply, apply_all)
from .numtheory import CyclicGroupSpec, DomainError, classical_dlog, totient

STAGES = ("psi0", "psi1", "psi2", "psi3", "psi3s-weight", "psi4s", "psi5s",
          "psi6s", "psi7s", "final")


@dataclass(frozen=True)
class DlogRegs:
    """Register names used by the pipeline inside a host layout."""

    w: str = "W"      # work register: the group element (and the instance data)
    x: str = "X"      # first index register
    y: str = "Y"      # second index register
    f: str = "F"      # functional register holding b**x * g**y mod p
    out: str = "OUT"  # receives the recovered index, kept to the end
    t: str = "T"      # comparison temporary for the good reflection
    e: str = "E"      # temporary for the Euler-power filter

    def aux(self) -> tuple[str, ...]:
        return (self.x, self.y, self.f, self.out, self.t, self.e)


REGS = DlogRegs()  # the pipeline's one register vocabulary


def make_dlog_layout(spec: CyclicGroupSpec) -> RegisterLayout:
    N = gates.register_dim(spec.p)
    return RegisterLayout([Register(name, N) for name in (REGS.w,) + REGS.aux()])


# --- stage gates -------------------------------------------------------------

def good_rotation_stage1(spec: CyclicGroupSpec, phi: float) -> GateOp:
    """Selective rotation of the Euler-filtered components: compare the work
    register against the candidate index via a conditional group translation,
    rotate the |1> comparison outcome, and uncompute.

    The rotation is additionally conditioned on the first index register being
    coprime to p-1: these are exactly the components the filter certifies, and
    accidental fixed points of the Euler power map must not be rotated or the
    deterministic amplification schedule would overshoot for special indices.
    """
    p, g, m = spec.p, spec.g, spec.p - 1
    N = gates.register_dim(p)
    load = gates.add_mod(N, REGS.w, REGS.t)
    shift = gates.cyclic_shift(p, g, REGS.t, power=-1, control=REGS.out)
    inner = gates.selective_phase({1: phi}, REGS.t, label="C_1", cost_class="reflection")
    coprime = frozenset((x,) for x in range(N) if math.gcd(x, m) == 1)
    rot = hilbert.Controlled((REGS.x,), coprime, inner, label="C_good")
    return Sequence((load, shift, rot, adjoint(shift), adjoint(load)), label="R_good1")


def reflect_about(preparation: GateOp, pivot: dict[str, int | None],
                  phi: float = math.pi, label: str = "R_full") -> GateOp:
    """exp(-i phi P) conjugated by the preparation, P the projector onto the
    pivot basis assignment.  A None value wildcards that register, turning the
    pivot into a subspace projector; with all values fixed this is the plain
    rank-one reflection I - (1 - exp(-i phi))|Psi><Psi|."""
    names = tuple(n for n, v in pivot.items() if v is not None)
    wanted = tuple(pivot[n] for n in names)
    mask = PhaseFn(names, {wanted: -phi}, label=label + "_pivot", cost_class="reflection")
    return Sequence((adjoint(preparation), mask, preparation), label=label)


def amplification_schedule(w: float, mode: str, grover_m: int | None = None) -> list[float]:
    """Per-iteration rotation phases.  grover: the plain pi reflections, count
    defaulting to round(pi/(4 asin sqrt w) - 1/2).  exact: phase-matched
    iterations whose final good weight is 1 up to rounding."""
    if not 0.0 < w <= 1.0:
        raise DomainError(f"good weight {w} outside (0, 1]")
    theta = math.asin(math.sqrt(w))
    if mode == "grover":
        m = grover_m if grover_m is not None else max(0, round(math.pi / (4 * theta) - 0.5))
        return [math.pi] * m
    if mode != "exact":
        raise DomainError(f"unknown amplification mode {mode!r}")
    if w >= 1.0 - 1e-12:
        return []
    j = max(0, math.ceil(math.pi / (4 * theta) - 0.5 - 1e-12))
    phi = 2 * math.asin(math.sin(math.pi / (4 * j + 6)) / math.sin(theta))
    return [phi] * (j + 1)


def _coprime_mask(dim: int, m: int) -> np.ndarray:
    """Boolean mask over register values 0..dim-1: True where gcd(x, m) == 1."""
    return np.gcd(np.arange(dim), m) == 1


def _full_pivot() -> dict[str, int | None]:
    pivot: dict[str, int | None] = {n: 0 for n in REGS.aux()}
    pivot[REGS.w] = None  # covariant in the work register
    return pivot


def good_weight(spec: CyclicGroupSpec) -> float:
    """Weight of the coprime components after the Euler filter: phi(p-1)/(p-1)."""
    m = spec.p - 1
    return totient(m) / m


def pipeline_kit(spec: CyclicGroupSpec, mode: str = "exact",
                 grover_m: int | None = None) -> dict:
    """All gate pieces of the inversion sequence, built once per configuration
    and once per repeated gate, so compiled tables are shared across uses.
    "stage1" is the concatenation of the named stages "psi1", "psi2" and "euler"."""
    return _kit(spec, mode, grover_m)


@functools.lru_cache(maxsize=hilbert.GATE_SETS)
def _kit(spec: CyclicGroupSpec, mode: str, grover_m: int | None) -> dict:
    """The kit of the last GATE_SETS configurations; every argument is given by
    position, so defaulted and spelled-out calls share one entry."""
    p, g, m = spec.p, spec.g, spec.p - 1
    schedule = amplification_schedule(good_weight(spec), mode, grover_m)

    qft_x, qft_y = gates.qft(m, REGS.x), gates.qft(m, REGS.y)

    psi1 = [qft_x, qft_y, gates.work_mod_exp(g, p, REGS.x, REGS.y, REGS.w, REGS.f)]
    psi2 = [qft_x, qft_y, gates.swap_regs(REGS.x, REGS.y)]
    # load l**phi(p-1) * (l s) into OUT via a powered temporary: coprime l
    # components then hold the bare index there
    pw = gates.pow_const(totient(m) - 1, m, REGS.x, REGS.e)
    euler = [pw, gates.mul3(m, REGS.e, REGS.y, REGS.out), adjoint(pw)]
    stage1 = psi1 + psi2 + euler
    prep1 = Sequence(tuple(stage1), label="U_T1")
    # the schedule repeats one phase: each round applies one (good, full)
    # pair, built once and repeated, and an empty schedule gives no pair
    amp1 = [gate for phi in schedule[:1] for gate in (
        good_rotation_stage1(spec, phi),
        reflect_about(prep1, _full_pivot(), phi, label="R_full1"))] * len(schedule)

    mid = [
        adjoint(gates.mul3(m, REGS.x, REGS.out, REGS.y)),  # clear l*s using l and s
        adjoint(qft_x),
        adjoint(gates.cyclic_shift(p, g, REGS.f, power=1, control=REGS.x)),
    ]

    prep2 = Sequence(tuple(stage1 + amp1 + mid), label="U_T2")
    amp2 = [gate for phi in schedule[:1] for gate in (
        gates.selective_phase({1: phi}, REGS.f, label="C_1", cost_class="reflection"),
        reflect_about(prep2, _full_pivot(), phi, label="R_full2"))] * len(schedule)

    tail = [adjoint(qft_x), gates.transposition(1, 0, REGS.f)]  # state transfer |1> -> |0>
    return {"psi1": psi1, "psi2": psi2, "euler": euler, "stage1": stage1, "amp1": amp1,
            "mid": mid, "amp2": amp2, "tail": tail, "schedule": schedule}


def u_log(spec: CyclicGroupSpec) -> GateOp:
    """|g**s mod p> -> |s> in the work register, auxiliaries restored; the
    adjoint maps |s> -> |g**s mod p>.  The kit leaves |g**s>|s> in (W, OUT);
    past the swap, undoing OUT = 1 * g**W clears OUT."""
    kit = pipeline_kit(spec)
    return Sequence(tuple(kit["stage1"] + kit["amp1"] + kit["mid"] + kit["amp2"] + kit["tail"]) + (
        gates.swap_regs(REGS.w, REGS.out),
        adjoint(gates.cyclic_shift(spec.p, spec.g, REGS.out, control=REGS.w)),
        gates.transposition(0, 1, REGS.out),
    ), label="U_log")


def index_patterns(state: SparseState) -> set[tuple[int, int]]:
    return set(zip(state.column(REGS.x).tolist(), state.column(REGS.y).tolist()))


def run_dlog_demo(spec: CyclicGroupSpec, b: int, mode: str = "exact", grover_m: int | None = None,
                  ledger: GateLedger | None = None) -> tuple[list[dict], int, SparseState]:
    """Run the staged inversion on |g**s> = |b> with per-stage diagnostics;
    returns the trace, the recovered index, and the final state.  The trace
    holds one dict per stage: its name, its fidelity to the analytic target
    (or None), its support size and the gate/oracle counts so far."""
    trace: list[dict] = []
    ledger = ledger if ledger is not None else GateLedger()

    def record(stage: str, fidelity: float | None, support: int) -> None:
        if stage not in STAGES:
            raise SimulationError(f"unknown pipeline stage {stage!r}")
        trace.append({"stage": stage, "fidelity": fidelity, "support": support,
                      "gate_counts": ledger.counts_by_class()})

    p, g, m = spec.p, spec.g, spec.p - 1
    kit = pipeline_kit(spec, mode, grover_m)
    layout = make_dlog_layout(spec)
    state = SparseState.basis(layout, {REGS.w: b})
    record("psi0", 1.0, state.support_size)

    state = apply_all(state, kit["psi1"], ledger)
    target = _psi1_target(spec, b, layout)
    record("psi1", hilbert.fidelity(state, target), state.support_size)

    state = apply_all(state, kit["psi2"], ledger)
    s_true = classical_dlog(p, g, b)
    want = {(l, (l * s_true) % m) for l in range(m)}
    pat_ok = index_patterns(state) == want
    record("psi2", 1.0 if pat_ok else 0.0, state.support_size)
    if not pat_ok:
        raise SimulationError("index-pattern shape check failed after the Fourier pass")

    state = apply_all(state, kit["euler"], ledger)
    weight = state.weight_where(REGS.x, _coprime_mask(layout.dim(REGS.x), m))
    record("psi3", None, state.support_size)
    record("psi3s-weight", weight, state.support_size)

    state = apply_all(state, kit["amp1"], ledger)

    clear_ls, unqft, unshift = kit["mid"]
    state = apply(state, clear_ls, ledger)
    record("psi4s", None, state.support_size)
    record("psi5s", None, state.support_size)

    state = apply(state, unqft, ledger)
    record("psi6s", None, state.support_size)

    state = apply(state, unshift, ledger)
    cross = state.weight_where(REGS.f, np.arange(layout.dim(REGS.f)) != 1)
    record("psi7s", cross, state.support_size)

    state = apply_all(state, kit["amp2"] + kit["tail"], ledger)

    target = SparseState.basis(layout, {REGS.w: b, REGS.out: s_true})
    fid = hilbert.fidelity(state, target)
    record("final", fid, state.support_size)
    if mode == "exact":
        # plain reflections leave genuine residue; only exact mode owes clean aux
        hilbert.assert_registers_clean(
            state, tuple(x for x in REGS.aux() if x != REGS.out), "log-gate inversion")
    recovered = state.peak_tuple()[layout.index(REGS.out)]
    return trace, recovered, state


def _psi1_target(spec: CyclicGroupSpec, b: int, layout: RegisterLayout) -> SparseState:
    p, g, m = spec.p, spec.g, spec.p - 1
    amp = 1.0 / m
    entries = {}
    iw, ix, iy, i_f = (layout.index(name) for name in (REGS.w, REGS.x, REGS.y, REGS.f))
    base = list(layout.zero_tuple())
    base[iw] = b
    for x in range(m):
        for y in range(m):
            tup = list(base)
            tup[ix], tup[iy] = x, y
            tup[i_f] = (pow(b, x, p) * pow(g, y, p)) % p
            entries[tuple(tup)] = amp + 0.0j
    return SparseState(layout, entries)
