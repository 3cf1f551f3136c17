"""The reduction from the whole cyclic-group space to one subgroup subspace:
the search register layout and its names (`SearchRegs`), the decomposition of
a group state into a tensor product of subgroup components, the lifts of
components into the largest subgroup subspace, the stripping sequence that
runs the halting program on pairs of components, the reduction gate that
chains these three, and the auxiliary per-subspace oracle that conjugates the
base oracle with a chain that ends in the reduction's inverse.

Everything here is a permutation sequence built from the public group data, so
the transformations act linearly on superpositions and never read the hidden
index.  Every register holding a group element has `gates.register_dim(p)`
levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gates, halting_program as hp
from .hilbert import GateOp, Register, RegisterLayout, Sequence, adjoint
from .numtheory import CyclicGroupSpec


@dataclass(frozen=True)
class SearchRegs:
    """Register names of the search layout."""

    w: str                      # work register (index state or group state)
    comps: tuple[str, ...]      # one component register per CRT factor
    a: str                      # constant temp
    prod: str                   # group-product accumulator
    nh: str                     # halting flag
    bh: str                     # branch flag
    recs: tuple[str, ...]       # record register for component j sits at recs[j]
    search: str                 # the search register the auxiliary oracle swaps in


def make_search_layout(spec: CyclicGroupSpec) -> tuple[RegisterLayout, SearchRegs]:
    """The whole search layout: W, C1..Cr, TA, TP, NH, BH, R1..Rr, SEARCH."""
    r = spec.r
    regs = SearchRegs(w="W", comps=tuple(f"C{k + 1}" for k in range(r)), a="TA", prod="TP",
                      nh="NH", bh="BH", recs=tuple(f"R{k + 1}" for k in range(r)),
                      search="SEARCH")
    cfg = hp.ProgramConfig.from_spec(spec)
    dim = gates.register_dim(spec.p)
    registers = [Register(name, dim) for name in (regs.w, *regs.comps, regs.a, regs.prod)]
    registers += [Register(regs.nh, 2), Register(regs.bh, cfg.branch_dim)]
    registers += [Register(name, cfg.record_dim) for name in regs.recs]
    registers.append(Register(regs.search, dim))
    return RegisterLayout(registers), regs


# --- group-space decomposition -----------------------------------------------

def subgroup_product_gates(spec: CyclicGroupSpec, regs: SearchRegs) -> list[GateOp]:
    """|g**s> -> tensor of |(g**M_k)**s_k>, removing the original group state
    through the product of inverse-weighted components (checked by the caller:
    the work register must come back to 0)."""
    p = spec.p
    seq: list[GateOp] = []
    for k, comp in enumerate(spec.basis.components):
        seq.append(gates.pow_const(comp.M, p, regs.w, regs.comps[k]))
    f1 = gates.transposition(0, 1, regs.prod)
    seq.append(f1)
    recon: list[GateOp] = []
    for k, comp in enumerate(spec.basis.components):
        pw = gates.pow_const(comp.n, p, regs.comps[k], regs.a)
        recon += [pw, gates.group_mul_acc(p, regs.a, regs.prod), adjoint(pw)]
    seq += recon
    # g**s - product = 0
    seq.append(adjoint(gates.add_mod(gates.register_dim(p), regs.prod, regs.w)))
    seq += [adjoint(g) for g in reversed(recon)]
    seq.append(adjoint(f1))
    return seq


def largest_subspace_gates(spec: CyclicGroupSpec, regs: SearchRegs) -> list[GateOp]:
    """Lift every component but the last, which is the largest, into the largest
    subgroup subspace: |g_k**x> -> |h**x> for x below m_k, with g_k = g**M_k
    and h the last subgroup generator; identity outside both value lists."""
    p, h, m_r = spec.p, spec.subgroup_generators[-1], spec.largest_order
    lifts: list[GateOp] = []
    for k, comp in enumerate(spec.basis.components[:-1]):
        g_k = spec.subgroup_generators[k]
        lifts.append(gates.pairing_permutation(
            [pow(g_k, x, p) for x in range(comp.m)], [pow(h, x, p) for x in range(comp.m)],
            regs.comps[k], label=f"LIFT_{comp.m}_{m_r}"))
    return lifts


def strip_gate(spec: CyclicGroupSpec, keep: int, regs: SearchRegs,
               pulse: hp.PulseModel | None = None) -> GateOp:
    """Remove every component register except `keep` (0-based) by running the
    program on pairs (kept, j); flags are reset between runs, records stay."""
    config = hp.ProgramConfig.from_spec(spec)
    seq: list[GateOp] = []
    for j, comp in enumerate(regs.comps):
        if j == keep:
            continue
        pair = hp.QpRegs(nh=regs.nh, bh=regs.bh, f=regs.comps[keep], g=comp,
                         rec=regs.recs[j])
        seq.append(hp.qp_gate(config, pair, pulse))
        seq.extend(hp.reset_flags_gates(config, pair))
    return Sequence(tuple(seq), label=f"STRIP_{keep}")


# --- the auxiliary per-subspace oracle ----------------------------------------

def reduction_gate(spec: CyclicGroupSpec, regs: SearchRegs, keep: int,
                   pulse: hp.PulseModel | None = None) -> GateOp:
    """Forward pipeline |R0>|g**s> -> (records)|component keep>: decompose,
    lift, strip."""
    seq = subgroup_product_gates(spec, regs)
    seq += largest_subspace_gates(spec, regs)
    seq.append(strip_gate(spec, keep, regs, pulse))
    return Sequence(tuple(seq), label=f"REDUCE_{keep}")


def make_aux_oracle(base_oracle: GateOp, k: int, entry: GateOp) -> GateOp:
    """Selective rotation of the k-th subgroup component on the search register,
    realized with a single call of the base oracle: `entry`, the oracle, then
    the adjoint of `entry`, which the entry keeps (and with it its memos).

    `entry` ends by swapping the search register with component k's register
    and undoing the reduction that keeps component k: Sequence((swap,
    adjoint(red))) alone, or with a search trial's dressing in front (the
    driver's `_Instance.entries`).  The inverse reduction consumes the live
    halting records and reassembles the original group state exactly when the
    trial equals the hidden component, at which point the base oracle fires.
    """
    return Sequence((entry, base_oracle, adjoint(entry)), label=f"AUX_ORACLE_{k}")
