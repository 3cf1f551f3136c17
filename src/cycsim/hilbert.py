"""Sparse state engine for multi-register, mixed-radix Hilbert spaces.

A state is a map from basis tuples (one index per register) to complex
amplitudes.  Gates are permutations, phase functions, local dense unitaries,
controlled gates, or sequences thereof; application is pointwise on the sparse
support, so total dimension can be astronomical as long as support stays small.

Conventions:
  - PhaseFn multiplies the amplitude of a listed basis tuple x of its registers
    by exp(1j * angles[x]) and leaves unlisted tuples alone.
  - Controlled applies its inner gate where the control registers hold a tuple
    in the frozenset `on`.
  - Sequence applies its gates left to right.
  - Norm is checked after every gate application (tolerance NORM_TOL) and
    entries below the state's drop threshold are pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NORM_TOL = 1e-10
DROP_THRESHOLD = 1e-14
RELEASE_TOL = 1e-8
EXHAUSTIVE_CHECK_LIMIT = 1 << 20

ROLES = ("work", "aux", "flag", "halt", "branch", "control", "record")


class SimulationError(RuntimeError):
    """A gate or state contract was violated during simulation."""


@dataclass(frozen=True)
class Register:
    name: str
    dim: int
    role: str = "aux"

    def __post_init__(self):
        if self.dim < 2:
            raise SimulationError(f"register {self.name}: dimension must be >= 2")
        if self.role not in ROLES:
            raise SimulationError(f"register {self.name}: unknown role {self.role!r}")


class RegisterLayout:
    """Ordered, uniquely-named registers; positions are fixed at construction."""

    def __init__(self, registers: list[Register] | tuple[Register, ...]):
        self.registers = tuple(registers)
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate register names")
        self._pos = {r.name: i for i, r in enumerate(self.registers)}

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None

    def dim(self, name: str) -> int:
        return self.registers[self.index(name)].dim

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def zero_tuple(self) -> tuple[int, ...]:
        return (0,) * len(self.registers)


class SparseState:
    """Normalized sparse map from basis tuples to amplitudes."""

    def __init__(self, layout: RegisterLayout, entries: dict[tuple[int, ...], complex],
                 drop_threshold: float = DROP_THRESHOLD, check: bool = True):
        self.layout = layout
        self.entries = entries
        self.drop_threshold = drop_threshold
        if check and abs(self.norm() - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm {self.norm()} outside tolerance")

    @classmethod
    def basis(cls, layout: RegisterLayout, values: dict[str, int] | None = None,
              drop_threshold: float = DROP_THRESHOLD) -> "SparseState":
        tup = list(layout.zero_tuple())
        for name, v in (values or {}).items():
            i = layout.index(name)
            if not 0 <= v < layout.registers[i].dim:
                raise SimulationError(f"value {v} outside register {name}")
            tup[i] = v
        return cls(layout, {tuple(tup): 1.0 + 0.0j}, drop_threshold)

    def norm(self) -> float:
        return math.sqrt(math.fsum(abs(a) ** 2 for _, a in sorted(self.entries.items())))

    def prune(self) -> None:
        dead = [k for k, a in self.entries.items() if abs(a) < self.drop_threshold]
        for k in dead:
            del self.entries[k]

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def is_basis_state(self) -> bool:
        return len(self.entries) == 1

    def sole_tuple(self) -> tuple[int, ...]:
        if not self.is_basis_state():
            raise SimulationError("state is a superposition, not a single basis state")
        return next(iter(self.entries))

    def register_value(self, name: str) -> int:
        """Value of one register when it is sharp across the support."""
        i = self.layout.index(name)
        vals = {k[i] for k in self.entries}
        if len(vals) != 1:
            raise SimulationError(f"register {name} is not sharp: values {sorted(vals)}")
        return vals.pop()

    def dominant_register_value(self, name: str) -> int:
        """Highest-weight value of one register (ties break to the lowest value)."""
        i = self.layout.index(name)
        weights: dict[int, float] = {}
        for k in sorted(self.entries):
            weights[k[i]] = weights.get(k[i], 0.0) + abs(self.entries[k]) ** 2
        return max(weights.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def weight_where(self, pred: Callable[[tuple[int, ...]], bool]) -> float:
        return math.fsum(abs(a) ** 2 for k, a in sorted(self.entries.items()) if pred(k))

    def register_weight_outside(self, name: str, value: int = 0) -> float:
        i = self.layout.index(name)
        return self.weight_where(lambda k: k[i] != value)

    def copy(self) -> "SparseState":
        return SparseState(self.layout, dict(self.entries), self.drop_threshold, check=False)


def assert_registers_clean(state: SparseState, names: tuple[str, ...], what: str) -> None:
    """Raise unless every named register is back at 0 up to RELEASE_TOL of weight."""
    for name in names:
        leak = state.register_weight_outside(name, 0)
        if leak > RELEASE_TOL:
            raise SimulationError(
                f"pipeline fault in {what}: register {name} holds weight {leak:.3e} off 0")


# --- gates -----------------------------------------------------------------

class GateOp:
    label: str = "gate"
    cost_class: str = "arith"  # arith | qft | oracle-call | reflection

    def registers(self) -> tuple[str, ...]:
        raise NotImplementedError


@dataclass
class Permutation(GateOp):
    """Bijection on the joint index set of `regs`; fn and inv must be mutual inverses.

    On first application at a given dims signature the map is checked
    exhaustively (and compiled to a lookup table) when the affected dimension
    is at most EXHAUSTIVE_CHECK_LIMIT.  The table caches are shared with the
    adjoint, so a gate and its inverse verify once between them.
    """

    regs: tuple[str, ...]
    fn: Callable[[tuple[int, ...]], tuple[int, ...]]
    inv: Callable[[tuple[int, ...]], tuple[int, ...]]
    label: str = "perm"
    cost_class: str = "arith"
    tables: dict = field(default_factory=dict, repr=False)
    inv_tables: dict = field(default_factory=dict, repr=False)

    def registers(self) -> tuple[str, ...]:
        return self.regs

    def table_for(self, dims: tuple[int, ...]) -> np.ndarray | None:
        """Lookup table of the flattened map, or None above the check limit."""
        if dims in self.tables:
            return self.tables[dims]
        total = math.prod(dims)
        if total > EXHAUSTIVE_CHECK_LIMIT:
            self.tables[dims] = None
            self.inv_tables[dims] = None
            return None
        strides = _strides(dims)
        table = np.empty(total, dtype=np.int64)
        for flat in range(total):
            src = _decode(flat, dims)
            dst = self.fn(src)
            if len(dst) != len(dims) or any(not 0 <= v < d for v, d in zip(dst, dims)):
                raise SimulationError(f"{self.label}: image {dst} outside domain")
            table[flat] = sum(v * s for v, s in zip(dst, strides))
        order = np.sort(table)
        if not np.array_equal(order, np.arange(total)):
            raise SimulationError(f"{self.label}: not a bijection on {dims}")
        inv_table = np.empty(total, dtype=np.int64)
        inv_table[table] = np.arange(total)
        # spot-check that the supplied inverse matches the compiled one
        for flat in range(0, total, max(1, total // 64)):
            src = _decode(flat, dims)
            if self.inv(_decode(int(table[flat]), dims)) != src:
                raise SimulationError(f"{self.label}: inverse mismatch at {src}")
        self.tables[dims] = table
        self.inv_tables[dims] = inv_table
        return table


def _strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    acc = 1
    for d in reversed(dims):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


def _decode(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    vals = []
    for d in reversed(dims):
        vals.append(flat % d)
        flat //= d
    return tuple(reversed(vals))


@dataclass
class PhaseFn(GateOp):
    """Diagonal gate: amplitude of a listed tuple x of `regs` is multiplied by
    exp(1j * angles[x]); unlisted tuples are left alone."""

    regs: tuple[str, ...]
    angles: dict[tuple[int, ...], float]
    label: str = "phase"
    cost_class: str = "arith"

    def __post_init__(self):
        _check_arity(self.label, self.regs, self.angles)

    def registers(self) -> tuple[str, ...]:
        return self.regs


@dataclass
class LocalUnitary(GateOp):
    """Dense d'xd' unitary on one register; support must stay below d'."""

    reg: str
    matrix: np.ndarray
    label: str = "local"
    cost_class: str = "arith"

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise SimulationError(f"{self.label}: matrix must be square")
        err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if err > NORM_TOL:
            raise SimulationError(f"{self.label}: matrix not unitary (defect {err:.2e})")
        self.matrix = u

    def registers(self) -> tuple[str, ...]:
        return (self.reg,)


@dataclass
class Controlled(GateOp):
    """Apply `inner` only to entries whose control registers hold a tuple in `on`.

    Control registers must be disjoint from the inner gate's registers, which
    makes the whole block-diagonal and hence unitary.
    """

    controls: tuple[str, ...]
    on: frozenset[tuple[int, ...]]
    inner: GateOp
    label: str = "ctrl"

    def __post_init__(self):
        _check_arity(self.label, self.controls, self.on)
        if set(self.controls) & set(self.inner.registers()):
            raise SimulationError(f"{self.label}: control registers overlap inner gate")

    @property
    def cost_class(self) -> str:
        return self.inner.cost_class

    def registers(self) -> tuple[str, ...]:
        return self.controls + tuple(self.inner.registers())


@dataclass
class Sequence(GateOp):
    gates: tuple[GateOp, ...]
    label: str = "seq"

    def registers(self) -> tuple[str, ...]:
        seen: list[str] = []
        for g in self.gates:
            for r in g.registers():
                if r not in seen:
                    seen.append(r)
        return tuple(seen)


class GateLedger:
    """Append-only record of (label, registers, cost class) per leaf application."""

    def __init__(self):
        self.entries: list[tuple[str, tuple[str, ...], str]] = []

    def record(self, gate: GateOp) -> None:
        self.entries.append((gate.label, tuple(gate.registers()), gate.cost_class))

    def counts_by_class(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, _, cls in self.entries:
            out[cls] = out.get(cls, 0) + 1
        return out

    def count(self, cost_class: str) -> int:
        return sum(1 for _, _, c in self.entries if c == cost_class)


def adjoint(gate: GateOp) -> GateOp:
    if isinstance(gate, Permutation):
        return Permutation(gate.regs, gate.inv, gate.fn, label=gate.label + "+",
                           cost_class=gate.cost_class,
                           tables=gate.inv_tables, inv_tables=gate.tables)
    if isinstance(gate, PhaseFn):
        return PhaseFn(gate.regs, {x: -a for x, a in gate.angles.items()},
                       label=gate.label + "+", cost_class=gate.cost_class)
    if isinstance(gate, LocalUnitary):
        return LocalUnitary(gate.reg, gate.matrix.conj().T, label=gate.label + "+",
                            cost_class=gate.cost_class)
    if isinstance(gate, Controlled):
        return Controlled(gate.controls, gate.on, adjoint(gate.inner), label=gate.label + "+")
    if isinstance(gate, Sequence):
        return Sequence(tuple(adjoint(g) for g in reversed(gate.gates)), label=gate.label + "+")
    raise SimulationError(f"cannot take adjoint of {type(gate).__name__}")


def _apply_permutation(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                       gate: Permutation) -> tuple[np.ndarray, np.ndarray]:
    pos = [layout.index(r) for r in gate.regs]
    dims = tuple(layout.registers[i].dim for i in pos)
    table = gate.table_for(dims)
    sub = keys[:, pos]
    if table is not None:
        strides = np.array(_strides(dims), dtype=np.int64)
        flat = sub @ strides
        new_flat = table[flat]
        new_keys = keys.copy()
        for j, (d, s) in enumerate(zip(dims, _strides(dims))):
            new_keys[:, pos[j]] = (new_flat // s) % d
        return new_keys, amps
    # domain too large to compile: map row by row
    new_keys = keys.copy()
    for row, vals in enumerate(sub.tolist()):
        dst = gate.fn(tuple(vals))
        for j, v in enumerate(dst):
            if not 0 <= v < dims[j]:
                raise SimulationError(f"{gate.label}: image value {v} outside register")
            new_keys[row, pos[j]] = v
    return new_keys, amps


def _check_arity(label: str, regs: tuple[str, ...], listed) -> None:
    if any(len(x) != len(regs) for x in listed):
        raise SimulationError(f"{label}: listed tuples need one value per register {regs}")


def _match(layout: RegisterLayout, keys: np.ndarray, regs: tuple[str, ...],
           listed: list[tuple[int, ...]]) -> np.ndarray:
    """Per support row, the position in `listed` of the row's values on `regs`,
    or -1 when they are not listed."""
    pos = [layout.index(r) for r in regs]
    if len(pos) == 1:
        dim = layout.registers[pos[0]].dim
        table = np.full(dim, -1, dtype=np.int64)
        for j, (v,) in enumerate(listed):
            if 0 <= v < dim:
                table[v] = j
        return table[keys[:, pos[0]]]
    # several registers: few listed tuples, compared column-wise with no flat
    # encoding that could overflow
    found = np.full(keys.shape[0], -1, dtype=np.int64)
    sub = keys[:, pos]
    for j, x in enumerate(listed):
        found[np.all(sub == np.array(x, dtype=np.int64), axis=1)] = j
    return found


def _apply_phase(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                 gate: PhaseFn) -> tuple[np.ndarray, np.ndarray]:
    found = _match(layout, keys, gate.regs, list(gate.angles))
    hit = found >= 0
    if hit.any():
        angles = np.array(list(gate.angles.values()), dtype=float)
        amps = amps.copy()
        # out of place on purpose: numpy's in-place complex `*=` can round the
        # last bit differently, which would move report bytes
        amps[hit] = amps[hit] * np.exp(1j * angles[found[hit]])
    return keys, amps


def _layout_strides(layout: RegisterLayout) -> np.ndarray | None:
    """Mixed-radix strides for flat-encoding whole basis tuples, or None when
    the product dimension overflows int64."""
    dims = [r.dim for r in layout.registers]
    total = 1
    for d in dims:
        total *= d
    if total >= (1 << 62):
        return None
    return np.array(_strides(tuple(dims)), dtype=np.int64)


def _apply_local(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                 gate: LocalUnitary) -> tuple[np.ndarray, np.ndarray]:
    i = layout.index(gate.reg)
    d = gate.matrix.shape[0]
    if layout.registers[i].dim < d:
        raise SimulationError(f"{gate.label}: matrix larger than register {gate.reg}")
    col = keys[:, i]
    if col.size and int(col.max()) >= d:
        raise SimulationError(
            f"{gate.label}: support at {int(col.max())} outside the {d}-dim domain of {gate.reg}")
    rest = keys.copy()
    rest[:, i] = 0
    strides = _layout_strides(layout)
    if strides is not None:
        flat = rest @ strides
        uniq_flat, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        uniq = rest[first]
    else:
        uniq, inverse = np.unique(rest, axis=0, return_inverse=True)
    bucket = np.zeros((uniq.shape[0], d), dtype=complex)
    bucket[inverse, col] = amps
    out = bucket @ gate.matrix.T
    rows, vals = np.nonzero(np.abs(out) > 0.0)
    new_keys = uniq[rows]
    new_keys[:, i] = vals
    return new_keys, out[rows, vals]


def _apply_controlled(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                      gate: Controlled) -> tuple[np.ndarray, np.ndarray]:
    mask = _match(layout, keys, gate.controls, list(gate.on)) >= 0
    if not mask.any():
        return keys, amps
    # the inner gate cannot touch control registers, so hot and cold stay disjoint
    hk, ha = _apply_arrays(layout, keys[mask], amps[mask], gate.inner, None)
    return np.concatenate([keys[~mask], hk]), np.concatenate([amps[~mask], ha])


def _state_arrays(state: SparseState) -> tuple[np.ndarray, np.ndarray]:
    n = len(state.entries)
    keys = np.array(list(state.entries.keys()), dtype=np.int64).reshape(n, -1)
    amps = np.array(list(state.entries.values()), dtype=complex)
    return keys, amps


def _apply_arrays(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                  gate: GateOp, ledger: GateLedger | None,
                  drop: float = DROP_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(gate, Sequence):
        for g in gate.gates:
            keys, amps = _apply_arrays(layout, keys, amps, g, ledger, drop)
        return keys, amps
    if ledger is not None:
        ledger.record(gate)
    if isinstance(gate, Permutation):
        keys, amps = _apply_permutation(layout, keys, amps, gate)
    elif isinstance(gate, PhaseFn):
        keys, amps = _apply_phase(layout, keys, amps, gate)
    elif isinstance(gate, LocalUnitary):
        keys, amps = _apply_local(layout, keys, amps, gate)
        keep = np.abs(amps) >= drop  # recombination leaves numerical dust behind
        if not keep.all():
            keys, amps = keys[keep], amps[keep]
    elif isinstance(gate, Controlled):
        keys, amps = _apply_controlled(layout, keys, amps, gate)
    else:
        raise SimulationError(f"unknown gate type {type(gate).__name__}")
    return keys, amps


def apply(state: SparseState, gate: GateOp, ledger: GateLedger | None = None) -> SparseState:
    """Apply a gate; enforces norm preservation and prunes numerical dust."""
    keys, amps = _state_arrays(state)
    before = float(np.linalg.norm(amps))
    keys, amps = _apply_arrays(state.layout, keys, amps, gate, ledger, state.drop_threshold)
    after = float(np.linalg.norm(amps))
    if abs(after - before) > NORM_TOL:
        raise SimulationError(f"{gate.label}: norm drifted {before} -> {after}")
    keep = np.abs(amps) >= state.drop_threshold
    entries = {tuple(k): complex(a)
               for k, a in zip(keys[keep].tolist(), amps[keep].tolist())}
    if len(entries) != int(keep.sum()):
        raise SimulationError(f"{gate.label}: basis collision after application")
    return SparseState(state.layout, entries, state.drop_threshold, check=False)


def inner_product(s1: SparseState, s2: SparseState) -> complex:
    if s1.layout is not s2.layout and s1.layout.names != s2.layout.names:
        raise SimulationError("layout mismatch in inner product")
    small = s1.entries if len(s1.entries) <= len(s2.entries) else s2.entries
    total = 0.0 + 0.0j
    for k in sorted(small):
        a1 = s1.entries.get(k)
        a2 = s2.entries.get(k)
        if a1 is not None and a2 is not None:
            total += a1.conjugate() * a2
    return total


def fidelity(s1: SparseState, s2: SparseState) -> float:
    return abs(inner_product(s1, s2)) ** 2
