"""Sparse state engine for multi-register, mixed-radix Hilbert spaces.

A state is a pair of arrays: an n x width int64 key matrix whose rows are the
basis tuples of its support (one column per register), and a length-n complex
vector of their amplitudes.  Gates are permutations, phase functions, local
dense unitaries, controlled gates, or sequences thereof; applying one maps the
two arrays to two new ones, so total dimension can be astronomical as long as
support stays small.  `SparseState.entries`, a {basis tuple: amplitude} dict,
is built only when a caller reads it.

Conventions:
  - PhaseFn multiplies the amplitude of a listed basis tuple x of its registers
    by exp(1j * angles[x]) and leaves unlisted tuples alone.
  - Controlled applies its inner gate where the control registers hold a tuple
    in the frozenset `on`.
  - Sequence applies its gates left to right.
  - A permutation whose domain has at most EXHAUSTIVE_CHECK_LIMIT points
    compiles to a lookup table, checked as a bijection once.  A larger one
    keeps a support table instead: the flat codes met on its supports so far
    and their images, as sorted integer arrays (int32 where every code of the
    domain fits, else int64).  `fn` runs only on codes the table lacks, and
    each new pair is checked as it is filled: the image lies in the domain,
    `inv` leads it back to a preimage, and no other code in the table has
    that image.  A hit is read back with no further check, since every entry
    passed these.
  - A Sequence whose leaves are all permutations (Controlled permutations
    count) is one permutation of its registers: it keeps a support table of
    its own, and only codes that table lacks walk the leaves, which run their
    own checks; the fused map refuses an image the table already holds.
    Where its registers' product dimension reaches CODE_LIMIT it walks its
    gates instead.  Compiled and support tables are shared with the gate's
    adjoint, which reads them the other way round.
  - Norm is checked after every gate application that returns new amplitudes
    (tolerance NORM_TOL); a gate that only moves rows hands back the input's
    frozen amplitude array itself.  Only a local unitary recombines amplitudes,
    so it alone leaves numerical dust; it drops amplitudes below DROP_THRESHOLD
    once, as it gathers its output.
  - Readers whose result depends on row order (sequential sums, tie-breaks)
    visit rows in lexicographic order of their basis tuples; weights are
    `math.fsum`s, which are exact whatever the order.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

NORM_TOL = 1e-10
DROP_THRESHOLD = 1e-14
RELEASE_TOL = 1e-8
EXHAUSTIVE_CHECK_LIMIT = 1 << 20
CODE_LIMIT = 1 << 62  # a product dimension below this flat-encodes into int64
GATE_SETS = 8  # gate builders memoized per process (functools.lru_cache maxsize)

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
        dims = tuple(r.dim for r in self.registers)
        # mixed-radix strides that flat-encode a whole basis tuple, or None
        # when the product dimension overflows int64
        self.flat_strides = (np.array(_strides(dims), dtype=np.int64)
                             if math.prod(dims) < CODE_LIMIT else None)

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
    """Normalized sparse state: row j of the int64 matrix `keys` is a basis
    tuple (one column per register) and `amps[j]` is its amplitude.  Rows are
    distinct; their order carries no meaning."""

    def __init__(self, layout: RegisterLayout, entries: dict[tuple[int, ...], complex]):
        self.layout = layout
        self.keys = np.array(list(entries), dtype=np.int64).reshape(
            len(entries), len(layout.registers))
        self.amps = np.array(list(entries.values()), dtype=complex)
        self._entries = None
        _freeze(self.keys, self.amps)
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm {self.norm()} outside tolerance")

    @classmethod
    def from_arrays(cls, layout: RegisterLayout, keys: np.ndarray,
                    amps: np.ndarray) -> "SparseState":
        """Wrap gate-application output as is: no copy and no norm check."""
        state = cls.__new__(cls)
        state.layout, state.keys, state.amps, state._entries = layout, keys, amps, None
        _freeze(keys, amps)
        return state

    @classmethod
    def basis(cls, layout: RegisterLayout, values: dict[str, int] | None = None) -> "SparseState":
        tup = list(layout.zero_tuple())
        for name, v in (values or {}).items():
            i = layout.index(name)
            if not 0 <= v < layout.registers[i].dim:
                raise SimulationError(f"value {v} outside register {name}")
            tup[i] = v
        return cls(layout, {tuple(tup): 1.0 + 0.0j})

    @property
    def entries(self) -> dict[tuple[int, ...], complex]:
        """{basis tuple: amplitude}, built on first read; a read-only view."""
        if self._entries is None:
            self._entries = dict(zip(map(tuple, self.keys.tolist()), self.amps.tolist()))
        return self._entries

    def norm(self) -> float:
        return math.sqrt(_weight(self.amps))

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def is_basis_state(self) -> bool:
        return len(self.amps) == 1

    def sole_tuple(self) -> tuple[int, ...]:
        if not self.is_basis_state():
            raise SimulationError("state is a superposition, not a single basis state")
        return tuple(self.keys[0].tolist())

    def register_value(self, name: str) -> int:
        """Value of one register when it is sharp across the support."""
        col = self.keys[:, self.layout.index(name)]
        if not len(col) or (col != col[0]).any():
            raise SimulationError(
                f"register {name} is not sharp: values {sorted(set(col.tolist()))}")
        return int(col[0])

    def dominant_register_value(self, name: str) -> int:
        """Highest-weight value of one register (ties break to the lowest value)."""
        order = _lex_order(self.keys)
        weights: dict[int, float] = {}
        for v, a in zip(self.keys[order, self.layout.index(name)].tolist(),
                        self.amps[order].tolist()):
            weights[v] = weights.get(v, 0.0) + abs(a) ** 2
        return max(weights.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def peak_tuple(self) -> tuple[int, ...]:
        """Basis tuple of the largest-magnitude amplitude (ties break to the
        lexicographically largest tuple)."""
        mags = [abs(a) for a in self.amps.tolist()]
        top = max(mags)
        return max(map(tuple, self.keys[[m == top for m in mags]].tolist()))

    def weight_where(self, reg: str, mask: np.ndarray) -> float:
        """Weight of the rows whose value on register `reg` is flagged in
        `mask`, a boolean array indexed by that register's values."""
        hit = np.asarray(mask, dtype=bool)[self.keys[:, self.layout.index(reg)]]
        return _weight(self.amps[hit])

    def register_weight_outside(self, name: str, value: int = 0) -> float:
        return _weight(self.amps[self.keys[:, self.layout.index(name)] != value])


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices that visit the rows of an integer matrix in lexicographic order."""
    return np.lexsort(rows.T[::-1])


def _freeze(*arrays: np.ndarray) -> None:
    """States share arrays with the states they came from, so none may write them."""
    for a in arrays:
        a.flags.writeable = False


def _weight(amps: np.ndarray) -> float:
    """Sum of |a|**2, rounded once by fsum, so the same whatever the row order."""
    return math.fsum(abs(a) ** 2 for a in amps.tolist())


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
    exhaustively and compiled to a lookup table when the affected dimension
    is at most EXHAUSTIVE_CHECK_LIMIT.  Above it the gate keeps a
    `SupportTable` under that signature and calls `fn` once per new code,
    checking each new image's range, `inv` and injectivity against every
    image already in the table.  Both kinds of table are shared with the
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
        """Lookup table of the flattened map, or None above the check limit,
        where the gate keeps a support table under `dims` instead."""
        if dims in self.tables:
            table = self.tables[dims]
            return table if isinstance(table, np.ndarray) else None
        total = math.prod(dims)
        if total > EXHAUSTIVE_CHECK_LIMIT:
            return None
        strides = _strides(dims)
        table = np.empty(total, dtype=np.int64)
        # row-major enumeration: the n-th tuple has flat code n under `strides`
        for flat, src in enumerate(itertools.product(*map(range, dims))):
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
        spots = np.arange(0, total, max(1, total // 64))
        for src, dst in zip(np.transpose(np.unravel_index(spots, dims)).tolist(),
                            np.transpose(np.unravel_index(table[spots], dims)).tolist()):
            if self.inv(tuple(dst)) != tuple(src):
                raise SimulationError(f"{self.label}: inverse mismatch at {tuple(src)}")
        self.tables[dims] = table
        self.inv_tables[dims] = inv_table
        return table


class SupportTable:
    """The part of a permutation's map met so far, in flat codes: the codes
    in ascending order with their images, and the same pairs ordered by image
    for the adjoint, which reads the table the other way round (`inverse`)
    and so shares every entry either side fills.  Four integer arrays of
    `dtype`, which must hold every code of the domain."""

    def __init__(self, dtype: type = np.int64):
        # [codes, images by code, images, codes by image]; side 1 swaps the halves
        self._pairs = [np.empty(0, dtype=dtype)] * 4
        self._side = 0

    def inverse(self) -> "SupportTable":
        other = copy.copy(self)  # the same list of arrays, read from the other side
        other._side = 1 - self._side
        return other

    def __len__(self) -> int:
        return len(self._pairs[0])

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images of `codes`, and a mask of the codes the table holds (the
        images of the others are meaningless)."""
        src, dst = self._pairs[2 * self._side:2 * self._side + 2]
        if not len(src):
            return np.zeros_like(codes), np.zeros(len(codes), dtype=bool)
        # in the table's own type, or searchsorted would convert the whole table
        codes = codes.astype(src.dtype, copy=False)
        at = np.minimum(np.searchsorted(src, codes), len(src) - 1)
        return dst[at], src[at] == codes

    def add(self, codes: np.ndarray, images: np.ndarray, label: str) -> None:
        """Record new pairs: `codes` are distinct and not yet in the table.
        Refuses images that repeat among themselves or that the table already
        holds, since two codes with one image are no permutation."""
        held = self._pairs[2 * (1 - self._side)]
        codes, images = codes.astype(held.dtype), images.astype(held.dtype)
        order = np.argsort(images)
        ordered = images[order]
        at = np.minimum(np.searchsorted(held, ordered), max(len(held) - 1, 0))
        if (ordered[1:] == ordered[:-1]).any() or (len(held) and (held[at] == ordered).any()):
            raise SimulationError(f"{label}: not injective on the support")
        mine = 2 * self._side
        theirs = 2 * (1 - self._side)
        self._pairs[mine:mine + 2] = _merge(*self._pairs[mine:mine + 2], codes, images)
        self._pairs[theirs:theirs + 2] = _merge(*self._pairs[theirs:theirs + 2],
                                                ordered, codes[order])


def _merge(keys: np.ndarray, vals: np.ndarray, new_keys: np.ndarray,
           new_vals: np.ndarray) -> list[np.ndarray]:
    """Insert (key, value) pairs into arrays kept sorted by key."""
    order = np.argsort(new_keys)
    at = np.searchsorted(keys, new_keys[order])
    return [np.insert(keys, at, new_keys[order]), np.insert(vals, at, new_vals[order])]


def _support_table(gate: "Permutation | Sequence", dims: tuple[int, ...]) -> SupportTable:
    """The gate's support table for this dims signature, made empty on first
    use and shared with its adjoint.  Codes below 2**31 are stored as int32,
    which halves the table of a four-register arithmetic gate."""
    table = gate.tables.get(dims)
    if table is None:
        table = gate.tables[dims] = SupportTable(
            np.int32 if math.prod(dims) <= 1 << 31 else np.int64)
        gate.inv_tables[dims] = table.inverse()
    return table


def _strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    acc = 1
    for d in reversed(dims):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


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
    """Gates applied left to right.  When every leaf permutes basis tuples,
    the whole is applied as one map with a support table per dims signature
    of its registers (in name order), shared with the adjoint."""

    gates: tuple[GateOp, ...]
    label: str = "seq"
    tables: dict = field(default_factory=dict, repr=False)
    inv_tables: dict = field(default_factory=dict, repr=False)

    def registers(self) -> tuple[str, ...]:
        seen: list[str] = []
        for g in self.gates:
            for r in g.registers():
                if r not in seen:
                    seen.append(r)
        return tuple(seen)

    @cached_property
    def leaves(self) -> tuple[GateOp, ...]:
        """The gates of nested sequences, flattened, in application order."""
        return tuple(leaf for g in self.gates
                     for leaf in (g.leaves if isinstance(g, Sequence) else (g,)))

    @cached_property
    def permutes(self) -> bool:
        # a nested sequence answers from its own cached flag
        return all(_permutes(g) for g in self.gates)

    @cached_property
    def code_registers(self) -> tuple[str, ...]:
        """The registers in name order: the same for the gate and its adjoint."""
        return tuple(sorted(self.registers()))

    @cached_property
    def class_counts(self) -> Counter:
        return Counter(leaf.cost_class for leaf in self.leaves)


def _permutes(gate: GateOp) -> bool:
    """True for a gate that only permutes basis tuples: a Permutation, a
    Controlled one, or a Sequence of such."""
    if isinstance(gate, Permutation):
        return True
    if isinstance(gate, Controlled):
        return _permutes(gate.inner)
    return isinstance(gate, Sequence) and gate.permutes


class GateLedger:
    """Leaf gate applications counted per cost class; a Sequence counts as
    its leaves."""

    def __init__(self):
        self._counts: Counter = Counter()

    def record(self, gate: GateOp) -> None:
        if isinstance(gate, Sequence):
            self._counts.update(gate.class_counts)
        else:
            self._counts[gate.cost_class] += 1

    def counts_by_class(self) -> dict[str, int]:
        return dict(self._counts)

    def count(self, cost_class: str) -> int:
        return self._counts[cost_class]


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
        return Sequence(tuple(adjoint(g) for g in reversed(gate.gates)), label=gate.label + "+",
                        tables=gate.inv_tables, inv_tables=gate.tables)
    raise SimulationError(f"cannot take adjoint of {type(gate).__name__}")


def _permute_keys(layout: RegisterLayout, keys: np.ndarray, gate: Permutation) -> np.ndarray:
    pos = [layout.index(r) for r in gate.regs]
    dims = tuple(layout.registers[i].dim for i in pos)
    table = gate.table_for(dims)
    if table is not None and len(pos) == 1:
        new_keys = keys.copy()
        new_keys[:, pos[0]] = table[keys[:, pos[0]]]
        return new_keys
    if math.prod(dims) >= CODE_LIMIT:
        raise SimulationError(f"{gate.label}: domain {dims} too large for a flat code")
    strides = np.array(_strides(dims), dtype=np.int64)
    codes = keys[:, pos] @ strides
    if table is not None:
        return _decode_into(keys, pos, dims, strides, table[codes])

    def fill(rows: np.ndarray) -> np.ndarray:
        sub = keys[rows][:, pos].tolist()
        try:
            images = np.array([gate.fn(tuple(v)) for v in sub], dtype=np.int64)
        except (ValueError, OverflowError):
            images = None
        if (images is None or images.shape != (len(sub), len(dims))
                or (images < 0).any() or (images >= np.array(dims)).any()):
            raise SimulationError(f"{gate.label}: image outside domain")
        for x, y in zip(sub, images.tolist()):
            # inv must lead the image back to a preimage; for a bijection
            # that is x itself
            back = tuple(gate.inv(tuple(y)))
            if back != tuple(x) and tuple(gate.fn(back)) != tuple(y):
                raise SimulationError(f"{gate.label}: inverse mismatch at {tuple(x)}")
        return images @ strides

    return _decode_into(keys, pos, dims, strides,
                        _images(_support_table(gate, dims), codes, fill, gate.label))


def _images(table: SupportTable, codes: np.ndarray, fill: Callable[[np.ndarray], np.ndarray],
            label: str) -> np.ndarray:
    """Images of `codes` from a support table.  `fill(rows)` maps support
    rows, one per code the table lacks, to their images, which join it."""
    images, hit = table.lookup(codes)
    if hit.all():
        return images
    miss = np.flatnonzero(~hit)
    order, starts = _sort_groups(codes[miss])
    rows = miss[order[starts]]
    table.add(codes[rows], fill(rows), label)
    return table.lookup(codes)[0]


def _decode_into(keys: np.ndarray, pos: list[int], dims: tuple[int, ...],
                 strides: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """A copy of `keys` with columns `pos` set from their flat codes."""
    new_keys = keys.copy()
    for j, d, s in zip(pos, dims, strides.tolist()):
        new_keys[:, j] = (codes // s) % d
    return new_keys


def _map_chain(layout: RegisterLayout, keys: np.ndarray, gate: Sequence) -> np.ndarray:
    pos = [layout.index(r) for r in gate.code_registers]
    dims = tuple(layout.registers[i].dim for i in pos)
    if math.prod(dims) >= CODE_LIMIT:
        # too wide for one flat code: walk the gates, whose own chains may fuse
        for g in gate.gates:
            keys = _map_keys(layout, keys, g)
        return keys
    strides = np.array(_strides(dims), dtype=np.int64)

    def walk(rows: np.ndarray) -> np.ndarray:
        sub = keys[rows]
        for leaf in gate.leaves:
            sub = _map_keys(layout, sub, leaf)
        return sub[:, pos] @ strides

    return _decode_into(keys, pos, dims, strides,
                        _images(_support_table(gate, dims), keys[:, pos] @ strides, walk,
                                gate.label))


def _map_keys(layout: RegisterLayout, keys: np.ndarray, gate: GateOp) -> np.ndarray:
    """The rows' images, row for row, under a gate that only permutes basis tuples."""
    if isinstance(gate, Permutation):
        return _permute_keys(layout, keys, gate)
    if isinstance(gate, Controlled):
        hot = _match(layout, keys, gate.controls, list(gate.on)) >= 0
        if not hot.any():
            return keys
        new_keys = keys.copy()
        new_keys[hot] = _map_keys(layout, keys[hot], gate.inner)
        return new_keys
    return _map_chain(layout, keys, gate)


def _sort_groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts `codes` (integers, or the rows of a matrix taken
    lexicographically), and a mask over the sorted positions that is True
    where a new distinct code starts."""
    if codes.ndim == 1:
        order = np.argsort(codes)
        ordered = codes[order]
        changed = ordered[1:] != ordered[:-1]
    else:
        order = _lex_order(codes)
        ordered = codes[order]
        changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = changed
    return order, starts


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
    # group rows that agree off register i, groups in sorted order of their
    # other columns (a row's place within its group does not matter)
    strides = layout.flat_strides
    if strides is not None:
        order, starts = _sort_groups(keys @ np.where(np.arange(len(strides)) == i, 0, strides))
    else:
        order, starts = _sort_groups(np.delete(keys, i, axis=1))
    first = order[starts]
    cell = np.empty(len(order), dtype=np.int64)  # each row's cell in the flat bucket
    cell[order] = (np.cumsum(starts) - 1) * d
    cell += col
    bucket = np.zeros((len(first), d), dtype=complex)
    bucket.reshape(-1)[cell] = amps
    out = bucket @ gate.matrix.T
    # recombination leaves numerical dust behind: keep only what clears the threshold
    kept = np.flatnonzero(np.abs(out) >= DROP_THRESHOLD)
    rows, vals = np.divmod(kept, d)
    new_keys = np.take(keys, np.take(first, rows), axis=0)
    new_keys[:, i] = vals
    return new_keys, np.take(out, kept)


def _apply_controlled(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                      gate: Controlled) -> tuple[np.ndarray, np.ndarray]:
    mask = _match(layout, keys, gate.controls, list(gate.on)) >= 0
    if not mask.any():
        return keys, amps
    # the inner gate cannot touch control registers, so hot and cold stay disjoint
    hk, ha = _apply_arrays(layout, keys[mask], amps[mask], gate.inner, None)
    return np.concatenate([keys[~mask], hk]), np.concatenate([amps[~mask], ha])


def _apply_arrays(layout: RegisterLayout, keys: np.ndarray, amps: np.ndarray,
                  gate: GateOp, ledger: GateLedger | None) -> tuple[np.ndarray, np.ndarray]:
    if _permutes(gate):
        if ledger is not None:
            ledger.record(gate)
        return _map_keys(layout, keys, gate), amps
    if isinstance(gate, Sequence):
        for g in gate.gates:
            keys, amps = _apply_arrays(layout, keys, amps, g, ledger)
        return keys, amps
    if ledger is not None:
        ledger.record(gate)
    if isinstance(gate, PhaseFn):
        return _apply_phase(layout, keys, amps, gate)
    if isinstance(gate, LocalUnitary):
        return _apply_local(layout, keys, amps, gate)
    if isinstance(gate, Controlled):
        return _apply_controlled(layout, keys, amps, gate)
    raise SimulationError(f"unknown gate type {type(gate).__name__}")


def apply(state: SparseState, gate: GateOp, ledger: GateLedger | None = None) -> SparseState:
    """Apply a gate; enforces norm preservation."""
    keys, amps = _apply_arrays(state.layout, state.keys, state.amps, gate, ledger)
    if amps is not state.amps:  # the input's own (frozen) amplitudes keep their norm
        before, after = float(np.linalg.norm(state.amps)), float(np.linalg.norm(amps))
        if abs(after - before) > NORM_TOL:
            raise SimulationError(f"{gate.label}: norm drifted {before} -> {after}")
    return SparseState.from_arrays(state.layout, keys, amps)


def apply_all(state: SparseState, gates: Iterable[GateOp],
              ledger: GateLedger | None = None) -> SparseState:
    """Apply gates left to right, each through `apply`, so each is checked on its own."""
    for gate in gates:
        state = apply(state, gate, ledger)
    return state


def inner_product(s1: SparseState, s2: SparseState) -> complex:
    """<s1|s2>, summed term by term over the shared basis tuples in lexicographic order."""
    if s1.layout is not s2.layout and s1.layout.names != s2.layout.names:
        raise SimulationError("layout mismatch in inner product")
    # rows are distinct within each state, so a tuple both hold sorts into two
    # adjacent rows, the lower index from s1
    order, starts = _sort_groups(np.concatenate([s1.keys, s2.keys]))
    both = ~starts[1:]
    lo = np.minimum(order[:-1], order[1:])[both]
    hi = np.maximum(order[:-1], order[1:])[both] - len(s1.amps)
    total = 0.0 + 0.0j
    for a1, a2 in zip(s1.amps[lo].tolist(), s2.amps[hi].tolist()):
        total += a1.conjugate() * a2
    return total


def fidelity(s1: SparseState, s2: SparseState) -> float:
    return abs(inner_product(s1, s2)) ** 2
