"""Oracle unitaries and the binary register description of basis states; the
selective rotations they apply come from `gates.selective_phase`.

The hidden index lives only inside OracleSpec; the rest of the codebase
receives constructed gates and may not read it (the driver reveals it solely
in the verification section of its report).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gates
from .hilbert import Controlled, GateOp
from .numtheory import CyclicGroupSpec, DomainError


@dataclass(frozen=True)
class BinaryRep:
    """Sign description of an n-bit basis value: b_k = +1 for bit 0, -1 for bit 1,
    with k = 1 the least-significant position."""

    n: int
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != self.n or any(v not in (-1, 1) for v in self.b):
            raise DomainError("binary rep needs n entries in {+1, -1}")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((1 - v) // 2 for v in self.b)


def binary_rep(value: int, n: int) -> BinaryRep:
    if not 0 <= value < 2**n:
        raise DomainError(f"{value} outside [0, 2^{n})")
    return BinaryRep(n, tuple(1 - 2 * ((value >> k) & 1) for k in range(n)))


def rep_value(rep: BinaryRep) -> int:
    return sum(a << k for k, a in enumerate(rep.bits))


@dataclass(frozen=True)
class OracleSpec:
    """Hidden marked index and its group.

    `hidden_index` is the only copy of the secret; only oracle constructors and
    the driver's verification step may touch it.
    """

    hidden_index: int
    group: CyclicGroupSpec

    def __post_init__(self):
        if not 0 <= self.hidden_index < self.group.p - 1:
            raise DomainError("hidden index outside the group order")

    @property
    def marked_value(self) -> int:
        """g**s mod p: the marked basis value in the multiplicative state space."""
        return pow(self.group.g, self.hidden_index, self.group.p)


def make_oracle(spec: OracleSpec, reg: str, theta: float) -> GateOp:
    """Selective rotation by theta on the marked group state (the explicit
    (|0>-|1>)/sqrt2 ancilla is folded into the phase)."""
    return gates.selective_phase({spec.marked_value: theta}, reg, label="oracle",
                                 cost_class="oracle-call")


def make_subspace_oracle(spec: OracleSpec, work_reg: str, designated: tuple[str, ...],
                         theta: float) -> GateOp:
    """Phase exp(-i theta) only when every designated auxiliary register reads 0
    AND the work register holds the marked state."""
    if work_reg in designated:
        raise DomainError("work register cannot be part of the designated library")
    inner = gates.selective_phase({spec.marked_value: theta}, work_reg,
                                  label="oracle_sub", cost_class="oracle-call")
    return Controlled(tuple(designated), frozenset({(0,) * len(designated)}), inner,
                      label="oracle_sub")
