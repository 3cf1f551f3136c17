"""The reduction from the whole cyclic-group space to one subgroup subspace:
the search register layout, the decomposition of a group state into a tensor
product of subgroup components, the lifts of components into the largest
subgroup subspace, the reduction gate that strips all but one component, and
the auxiliary per-subspace oracle that conjugates the base oracle with it.

Everything here is a permutation sequence built from the public group data, so
the transformations act linearly on superpositions and never read the hidden
index.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gates, halting_program as hp
from .hilbert import GateOp, Register, RegisterLayout, Sequence, adjoint
from .numtheory import CyclicGroupSpec, DomainError


@dataclass(frozen=True)
class SubspaceDescriptor:
    """One cyclic subgroup subspace: generator g**M_k, order m_k, and its basis
    values [generator**x mod p]."""

    k: int
    generator: int
    order: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.basis)) != len(self.basis):
            raise DomainError("subspace basis values must be distinct")


def descriptors(spec: CyclicGroupSpec) -> tuple[SubspaceDescriptor, ...]:
    out = []
    for k, comp in enumerate(spec.basis.components):
        gen = spec.subgroup_generators[k]
        basis = tuple(pow(gen, x, spec.p) for x in range(comp.m))
        out.append(SubspaceDescriptor(k=k, generator=gen, order=comp.m, basis=basis))
    return tuple(out)


def subspace_lift(src: SubspaceDescriptor, dst: SubspaceDescriptor, reg: str) -> GateOp:
    """|src_generator**x> -> |dst_generator**x> for x below the source order;
    identity on values outside both basis lists."""
    if src.order > dst.order:
        raise DomainError("lift target must be at least as large as the source")
    return gates.pairing_permutation(list(src.basis), list(dst.basis[:src.order]), reg,
                                     label=f"LIFT_{src.order}_{dst.order}")


@dataclass(frozen=True)
class ReductionRegs:
    """Register names for the reduction complex inside a host layout."""

    w: str                      # work register (index state or group state)
    comps: tuple[str, ...]      # one component register per CRT factor
    a: str                      # constant temp
    prod: str                   # group-product accumulator


SEARCH = "SEARCH"  # the search register the auxiliary oracle swaps in


def make_search_layout(spec: CyclicGroupSpec
                       ) -> tuple[RegisterLayout, ReductionRegs, hp.StripRegs]:
    """The whole search layout: W, C1..Cr, TA/TP, NH, BH, R1..Rr, SEARCH."""
    r = spec.r
    regs = ReductionRegs(w="W", comps=tuple(f"C{k + 1}" for k in range(r)),
                         a="TA", prod="TP")
    strip = hp.StripRegs(nh="NH", bh="BH", comps=regs.comps,
                         recs=tuple(f"R{k + 1}" for k in range(r)))
    cfg = hp.ProgramConfig.from_spec(spec)
    n_dim = gates.register_dim(spec.p)
    registers = [Register(regs.w, n_dim)]
    registers += [Register(name, n_dim)
                  for name in regs.comps + (regs.a, regs.prod)]
    registers += [Register(strip.nh, 2), Register(strip.bh, cfg.branch_dim)]
    registers += [Register(name, cfg.record_dim) for name in strip.recs]
    registers.append(Register(SEARCH, n_dim))
    return RegisterLayout(registers), regs, strip


# --- group-space decomposition -----------------------------------------------

def subgroup_product_gates(spec: CyclicGroupSpec, regs: ReductionRegs,
                           n_dim: int) -> list[GateOp]:
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
    seq.append(adjoint(gates.add_mod(n_dim, regs.prod, regs.w)))  # g**s - product = 0
    seq += [adjoint(g) for g in reversed(recon)]
    seq.append(adjoint(f1))
    return seq


def largest_subspace_gates(spec: CyclicGroupSpec, regs: ReductionRegs) -> list[GateOp]:
    """Lift every component into the largest subgroup subspace."""
    descs = descriptors(spec)
    top = descs[-1]
    return [subspace_lift(descs[k], top, regs.comps[k]) for k in range(spec.r - 1)]


# --- the auxiliary per-subspace oracle ----------------------------------------

def reduction_gate(spec: CyclicGroupSpec, regs: ReductionRegs, strip: hp.StripRegs,
                   keep: int, n_dim: int,
                   pulse: hp.PulseModel | None = None) -> GateOp:
    """Forward pipeline |R0>|g**s> -> (records)|component keep>: decompose,
    lift, strip."""
    seq = subgroup_product_gates(spec, regs, n_dim)
    seq += largest_subspace_gates(spec, regs)
    seq.append(hp.strip_gate(spec, keep, strip, n_dim, pulse))
    return Sequence(tuple(seq), label=f"REDUCE_{keep}")


def make_aux_oracle(base_oracle: GateOp, k: int, red: GateOp, unred: GateOp,
                    swap: GateOp) -> GateOp:
    """Selective rotation of the k-th subgroup component on the search register,
    realized with a single call of the base oracle.

    `red` is the forward reduction that keeps component k in its component
    register, `unred` is `adjoint(red)` (built once with it, so the two share
    their tables across runs), and `swap` exchanges that register with the
    search register.  The trial value is swapped in; the inverse reduction
    consumes the live halting records and reassembles the original group
    state exactly when the trial equals the hidden component, at which point
    the base oracle fires; the forward reduction then restores the pipeline
    registers.
    """
    return Sequence((swap, unred, base_oracle, red, swap),
                    label=f"AUX_ORACLE_{k}")
