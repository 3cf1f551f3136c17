"""The register-stripping quantum program as gates.

A program run walks a pair of subgroup-state registers through m_r conditional
units (branch check, halting statement, cyclic translation, conditional pair
transposition) plus one trailing check, returning every legal basis input
(x, y) to the shape |halt=1>|branch=1>|f(x)>|0>.  The step at which the halting
statement fired is written into a dedicated record register; the (output,
record) pairs are pairwise distinct, which is what keeps the whole map a
permutation.  `qp_gate` builds one run as a gate sequence; the stripping
sequence that chains runs over pairs of components is
`crt_reduction.strip_gate`.  Lossy state-locking pulses are modeled by a
leakage unitary with residual amplitude epsilon on the pair register after
each halting event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .hilbert import Controlled, GateOp, LocalUnitary, Sequence, adjoint
from .numtheory import CyclicGroupSpec, DomainError, multiplicative_order


@dataclass(frozen=True)
class ProgramConfig:
    """Largest-subgroup data: order m_r, generator h, and the ambient prime."""

    p: int
    m_r: int
    h: int

    def __post_init__(self):
        if multiplicative_order(self.h, self.p) != self.m_r:
            raise DomainError(f"{self.h} does not have order {self.m_r} mod {self.p}")

    @classmethod
    def from_spec(cls, spec: CyclicGroupSpec) -> "ProgramConfig":
        return cls(spec.p, spec.largest_order, spec.subgroup_generators[-1])

    def f_r(self, x: int) -> int:
        return pow(self.h, x, self.p)

    @property
    def control_value(self) -> int:
        """First basis value outside the group: used as the circuit control state."""
        return self.p

    @property
    def record_dim(self) -> int:
        return self.m_r + 2  # steps 1..m_r+1 plus the empty value 0

    @property
    def branch_dim(self) -> int:
        return self.m_r + 2


@dataclass(frozen=True)
class PulseModel:
    """Leakage model for the state-locking pulse: residual amplitude epsilon
    stays on the control state with phase gamma at each locking event."""

    epsilon: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("residual amplitude must lie in [0, 1)")


def u_r_gate(config: ProgramConfig, f_reg: str, g_reg: str) -> GateOp:
    """For f = h**x, transpose the paired value h**(-x) with 1 in the second
    register (for x = 0 both are 1); identity elsewhere.  An involution."""
    xs = range(config.m_r)
    return gates.pairing_permutation([(config.f_r(x), config.f_r(-x % config.m_r)) for x in xs],
                                     [(config.f_r(x), 1) for x in xs], (f_reg, g_reg), "U_r")


def _halt_gate(step: int, g_reg: str, nh_reg: str, rec_reg: str) -> GateOp:
    """Transposition (g, halt, record) = (1, 0, 0) <-> (0, 1, step): fires the
    halting statement exactly once and stores when it happened."""
    return gates.pairing_permutation([(1, 0, 0)], [(0, 1, step)], (g_reg, nh_reg, rec_reg),
                                     f"HALT_{step}")


def _leak_gate(config: ProgramConfig, pulse: PulseModel, g_reg: str) -> GateOp:
    """Locking leak on the {0, c} subspace of the pair register: the freshly
    cleared branch keeps amplitude epsilon on the control state."""
    c = config.control_value
    eps, gam = pulse.epsilon, pulse.gamma
    root = math.sqrt(1.0 - eps * eps)
    mat = np.eye(gates.register_dim(config.p), dtype=complex)
    mat[0, 0] = root
    mat[c, 0] = eps * complex(math.cos(gam), -math.sin(gam))
    mat[0, c] = -eps * complex(math.cos(gam), math.sin(gam))
    mat[c, c] = root
    return LocalUnitary(g_reg, mat, label="P_SL_leak")


@dataclass(frozen=True)
class QpRegs:
    nh: str = "NH"
    bh: str = "BH"
    f: str = "FR"
    g: str = "GR"
    rec: str = "REC"


def _unit_gates(config: ProgramConfig, regs: QpRegs) -> tuple[GateOp, GateOp, GateOp]:
    """A unit's branch check U_b, cyclic translation U_g and conditional pair
    transposition U_r_c."""
    inc_b = gates.set_const(1, regs.bh, config.branch_dim)
    u_b = Controlled((regs.g,), frozenset({(1,)}), inc_b, label="U_b")
    u_g = gates.cyclic_shift(config.p, config.h, regs.f, power=1)
    u_rc = Controlled((regs.bh,), frozenset({(0,)}),
                      u_r_gate(config, regs.f, regs.g), label="U_r_c")
    return u_b, u_g, u_rc


def qp_gate(config: ProgramConfig, regs: QpRegs, pulse: PulseModel | None) -> GateOp:
    """The whole program as one permutation sequence: m_r units of
    [branch check, halting statement, cyclic translation, conditional pair
    transposition] plus the trailing check.  With a pulse model, each halting
    event is followed by the locking leak on the pair register, one leak
    controlled by the step the record holds."""
    u_b, u_g, u_rc = _unit_gates(config, regs)
    leak = (_leak_gate(config, pulse, regs.g)
            if pulse is not None and pulse.epsilon > 0.0 else None)
    seq: list[GateOp] = []
    for i in range(1, config.m_r + 2):
        seq += [u_b, _halt_gate(i, regs.g, regs.nh, regs.rec)]
        if leak is not None:
            seq.append(Controlled((regs.rec,), frozenset({(i,)}), leak, label="P_SL"))
        if i <= config.m_r:  # the trailing check ends on its halting statement
            seq += [u_g, u_rc]
    return Sequence(tuple(seq), label="Q_p")


def reset_flags_gates(config: ProgramConfig, regs: QpRegs) -> list[GateOp]:
    """Return halt and branch flags to 0 after a deterministic program run."""
    return [
        gates.transposition(0, 1, regs.nh),
        adjoint(gates.set_const(1, regs.bh, config.branch_dim)),
    ]
