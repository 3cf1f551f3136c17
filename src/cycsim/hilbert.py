"""Sparse state engine for multi-register, mixed-radix Hilbert spaces.

A state is a pair of arrays: an n x W int64 matrix of words, one row per basis
tuple of its support, and a length-n complex vector of their amplitudes.  The
layout packs a tuple's registers in order into the fewest words that hold
them, each word a mixed-radix number of whole registers below CODE_LIMIT, so
word rows sort as the tuples do.  Gates are permutations, phase functions,
local dense unitaries, controlled gates, or sequences thereof; applying one
maps the two arrays to two new ones, so total dimension can be astronomical as
long as support stays small.  `SparseState.entries`, a {basis tuple:
amplitude} dict, is built only when read; `SparseState.column` reads one
register.

Conventions:
  - A register, or a run of registers next to each other in one word, is read
    as one digit (word // stride) % span.  Where the stride or the span is a
    power of two, as for every register of the pipeline's layouts, that is a
    shift or a mask; otherwise a floor division and, for the remainder, a
    product and a subtraction.  numpy's remainder by a scalar is several
    times slower than any of these, so a permutation reads its code one run
    at a time; only `_digits`' matrix reads keep `%` (chain memos, the
    multi-register `_match`, `unpack`, the clean-register check).
  - PhaseFn multiplies the amplitude of a listed basis tuple x of its registers
    by exp(1j * angles[x]) and leaves unlisted tuples alone.
  - Controlled applies its inner gate where the control registers hold a tuple
    in the frozenset `on`.
  - Sequence applies its gates left to right.
  - A gate keeps its adjoint, built once by `adjoint`: adjoint(adjoint(g)) is g.
  - A permutation's fn and inv are column maps: a k x n int64 matrix of
    register columns goes in, the matrix of their images comes out.  Only
    `_evaluate` calls them, and it checks every image to lie in the domain
    and inv to lead it back to its own code, which proves fn injective on
    the codes it maps.  A permutation whose domain has at most
    EXHAUSTIVE_CHECK_LIMIT points evaluates the whole domain once, one value
    of its leading register at a time, into a lookup table, which the checks
    on every point prove a bijection.  The table holds each code's move,
    image - code, in the narrowest of int8, int16 and int32 that holds every
    move and its negation, and the inverse table is the negated scatter of
    the moves: most gates change only their last register, so a move lies
    within its span and most tables take one byte per entry.  A reader adds
    the move to the code in int64.  A larger permutation keeps nothing:
    every application evaluates its rows' codes, ROW_BLOCK rows at a time.
  - A Sequence whose leaves are all permutations (Controlled permutations
    count) is one permutation of its registers, memoized per dims signature
    in two dicts, {digits: image digits} and back, keyed by tuples of the
    registers' values, so at any width; its adjoint reads them swapped.  A
    row they lack walks its digits through steps built once per dims
    signature: a permutation reads its compiled table (above the check
    limit, `_evaluate`s the walked codes; a leaf too wide for a flat code is
    refused), a control tests its digits.  A new image that repeats or is
    already held is refused before any is recorded.  Chains meet at most 2
    rows per call in the pipeline's runs, so the dicts stay small.
  - Norm is checked after every gate application that returns new amplitudes
    (tolerance NORM_TOL); a gate that only moves rows hands back the input's
    frozen amplitude array itself.  The output state keeps the norm `apply`
    computed, so the next `apply` reads its input's norm instead of
    computing it again.  Only a local unitary recombines amplitudes,
    so it alone leaves numerical dust; it drops amplitudes below DROP_THRESHOLD
    once, as it gathers its output.
  - The local-unitary kernel keeps its large work arrays in three buffers
    its RegisterLayout owns: the bucket, the matrix product (which first
    holds each row's register value and bucket cell) and the kept mask.
    They only grow, live as long as the layout, and are overwritten by the
    next call.  The words and amplitudes the kernel returns are always
    fresh arrays, so no state holds a work buffer.
  - The kernel groups the rows that agree off its register(s) by sorting
    their cleared words.  From MANY_ROWS rows on, the layout also keeps the
    outcome as a plan per (register positions, matrix sizes, row count): the
    distinct cleared words in sorted order and each row's group index.  A
    later call of the same slot recalls the plan, with no sort, where every
    row's cleared words equal its group's (row by row over all words), and
    sorts and replaces it otherwise.  A recall is exact: each row index
    keeps the group it had when the plan was sorted, when the rows covered
    every group, so rows whose cleared words equal their groups' hold
    exactly the plan's groups, which are distinct and sorted, and a sort
    would give the same groups and the same index on every row.  The
    reflections apply the same preparation to the same supports round after
    round, which is what plans catch; they live as long as the layout, which
    a demo builds per run, and a search meets supports of 1-2 rows only.
  - A Sequence applies two adjacent local unitaries on different registers
    a then b as one step where G_XY * d <= G_X: G_XY counts the groups of
    rows that agree off both registers, G_X the groups of the one-register
    step on a, and d is b's matrix size.  As G_X <= G_XY * d, that means
    every group holds every value of b, and the group x b x a grid in the
    bucket is no larger than a's bucket.  The rows are grouped once, under
    a plan keyed by both registers; the rule reads b's values, so it is
    checked on every call, and a pair it refuses keeps its plan.  The
    first product runs on exactly the rows a's own step would bucket, every
    cell under DROP_THRESHOLD is then set to +0.0 (what b's bucket holds
    where a dropped a row), and the second product runs on the (group, a)
    rows with a kept cell, exactly b's own bucket rows, in another order.
    Only a product's rows in the same order and batch are the same on every
    BLAS kernel.  Under SkylakeX, the kernel OpenBLAS picks on the AVX-512
    host the digests were recorded on, they are also bit for bit the same in
    any order and any batch of at least two (a one-row product takes another
    BLAS path); the pair relies on that to give the same rows and amplitudes
    as two steps.  Under Haswell 29 of 38 batch sizes changed a row, and the
    pair's two tests check the running kernel only.  Elsewhere, or where a
    step would refuse its support, the two go one at a time.
  - Readers whose result depends on row order (sequential sums, tie-breaks)
    visit rows in lexicographic order of their basis tuples; weights are
    `math.fsum`s, which are exact whatever the order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np

NORM_TOL = 1e-10
DROP_THRESHOLD = 1e-14
RELEASE_TOL = 1e-8
EXHAUSTIVE_CHECK_LIMIT = 1 << 20
CODE_LIMIT = 1 << 62  # bounds a flat code's domain and a word's values
GATE_SETS = 8  # gate builders memoized per process (functools.lru_cache maxsize)
MANY_ROWS = 1 << 10  # from here rows sort packed and the kernel keeps grouping plans
# rows per fn call above the check limit: a cold p=67 demo read 338 MB maxrss
# in 12.9-14.8 s with 2**16, 358 MB in 15.9-16.3 s with 2**20, 476 MB unblocked
ROW_BLOCK = 1 << 16

class SimulationError(RuntimeError):
    """A gate or state contract was violated during simulation."""


@dataclass(frozen=True)
class Register:
    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise SimulationError(f"register {self.name}: dimension must be >= 2")


class _Run(NamedTuple):
    """Registers next to each other in one word, read as one mixed-radix
    digit (word // stride) % span; `top`: no register of the word lies above."""
    word: int
    stride: int
    span: int
    top: bool


class _Code(NamedTuple):
    """Where k registers lie in the words.  Their flat code (row-major in the
    given order, as compiled tables key it) is digits @ weights,
    with digits = words[:, cols] // strides % spans; a change of digits times
    `scatter` (k x W, strides[j] in column cols[j]) is the change of the words."""
    dims: tuple[int, ...]
    run: _Run | None  # the registers as one run, when they are one in this order
    places: tuple[_Run, ...]
    cols: np.ndarray
    strides: np.ndarray
    spans: np.ndarray
    weights: np.ndarray | None  # None when the domain reaches CODE_LIMIT
    scatter: np.ndarray


class RegisterLayout:
    """Ordered, uniquely-named registers; positions and their packing into
    words are fixed at construction."""

    def __init__(self, registers: list[Register] | tuple[Register, ...]):
        self.registers = tuple(registers)
        self.names = tuple(r.name for r in self.registers)
        if len(set(self.names)) != len(self.names):
            raise SimulationError("duplicate register names")
        self._pos = {r.name: i for i, r in enumerate(self.registers)}
        caps: list[int] = []
        filled = []  # per register: its word, and the product of its word's dims so far
        for r in self.registers:
            if r.dim > CODE_LIMIT:
                raise SimulationError(f"register {r.name}: dimension above {CODE_LIMIT}")
            # greedy: a register opens a word only when the last cannot hold it
            if not caps or caps[-1] * r.dim > CODE_LIMIT:
                caps.append(1)
            caps[-1] *= r.dim
            filled.append((len(caps) - 1, caps[-1]))
        self.word_caps, self.width = tuple(caps), len(caps)  # each word's product dim; words per row
        self.places = tuple(_Run(w, caps[w] // part, r.dim, part == r.dim)
                            for (w, part), r in zip(filled, self.registers))
        self._codes: dict[tuple[str, ...], _Code] = {}
        self._rows = self.code(self.names)  # every register in order: packs and unpacks rows
        self._scratch: dict[str, np.ndarray] = {}
        self._plans: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # see `_group_rows`

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None

    def dim(self, name: str) -> int:
        return self.registers[self.index(name)].dim

    def zero_tuple(self) -> tuple[int, ...]:
        return (0,) * len(self.registers)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Words of an n x len(registers) matrix of in-range basis tuples."""
        return rows @ self._rows.scatter

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """The basis tuples of word rows, one column per register."""
        return _digits(words, self._rows)

    def scratch(self, name: str, n: int, dtype: type) -> np.ndarray:
        """The first n entries of the local-unitary kernel's work array `name`,
        which only grows, so the next call reuses its pages and overwrites it."""
        buf = self._scratch.get(name)
        if buf is None or len(buf) < n:
            buf = self._scratch[name] = np.empty(n, dtype=dtype)
        return buf[:n]

    def code(self, regs: tuple[str, ...]) -> _Code:
        """Where the registers `regs` lie in the words; worked out once."""
        found = self._codes.get(regs)
        if found is None:
            pos = [self.index(r) for r in regs]
            # a gate naming a register twice acts on the diagonal only, where a
            # bijection of the product domain need not be one
            if len(set(pos)) < len(pos):
                raise SimulationError(f"register named twice in {regs}")
            places = tuple(self.places[i] for i in pos)
            dims = tuple(pl.span for pl in places)
            run = None
            if pos == list(range(pos[0], pos[0] + len(pos))) and len({pl.word for pl in places}) == 1:
                run = _Run(places[0].word, places[-1].stride, math.prod(dims), places[0].top)
            cols, strides = np.array([pl.word for pl in places]), np.array([pl.stride for pl in places])
            scatter = np.zeros((len(pos), self.width), dtype=np.int64)
            scatter[np.arange(len(pos)), cols] = strides
            weights = np.array(_strides(dims)) if math.prod(dims) < CODE_LIMIT else None
            found = self._codes[regs] = _Code(dims, run, places, cols, strides, np.array(dims),
                                              weights, scatter)
        return found


def _run_value(words: np.ndarray, run: _Run, out: np.ndarray | None = None) -> np.ndarray:
    """The run's digit on each row, written to `out` unless it is a column of `words`."""
    return _digit(words[:, run.word], run.stride, None if run.top else run.span, out)


def _digit(x: np.ndarray, stride: int, span: int | None,
           out: np.ndarray | None = None) -> np.ndarray:
    """(x // stride) % span of non-negative integers, with no reduction for a
    None span; written to `out` unless it is x itself.  A power of two is a
    shift or a mask, which numpy runs several times faster than a division by
    a scalar; any other span's remainder is a product and a subtraction, as
    np.remainder is slower still."""
    if stride != 1:
        if stride & (stride - 1):
            x = np.floor_divide(x, stride, out=out)
        else:
            x = np.right_shift(x, stride.bit_length() - 1, out=out)
    if span is None:
        return x
    if not span & (span - 1):
        return np.bitwise_and(x, span - 1, out=out)
    high = x // span
    high *= span
    return np.subtract(x, high, out=out)


def _digits(words: np.ndarray, code: _Code) -> np.ndarray:
    """The rows' values on a code's registers, one column per register."""
    return words[:, code.cols] // code.strides % code.spans


def _encode(words: np.ndarray, code: _Code) -> tuple[np.ndarray, list | None]:
    """The rows' flat codes (the domain below CODE_LIMIT), and unless the
    registers are one run, their digits for `_recode`: one column per
    register, each read as its own run, with no `%` at any row count."""
    if code.run is not None:
        return _run_value(words, code.run), None
    digits = [_run_value(words, place) for place in code.places]
    return sum(d * w for d, w in zip(digits, code.weights.tolist())), digits


def _recode(words: np.ndarray, code: _Code, codes: np.ndarray,
            digits: list | None, moves: np.ndarray) -> np.ndarray:
    """The rows' words with their registers moved from `codes` (and the
    `digits` `_encode` gave with them) by `moves`, image - code in any
    integer type, widened to int64 before any stride multiplies it."""
    if code.run is not None:
        delta = np.multiply(moves, code.run.stride, dtype=np.int64)
        if words.shape[1] == 1:
            return (words[:, 0] + delta)[:, None]
        new = words.copy()
        new[:, code.run.word] += delta
        return new
    images = codes + moves
    new = words.copy()
    for place, weight, old in zip(code.places, code.weights.tolist(), digits):
        new[:, place.word] += (_digit(images, weight, place.span) - old) * place.stride
    return new


class SparseState:
    """Normalized sparse state: row j of the int64 matrix `words` packs a
    basis tuple (see `RegisterLayout`) and `amps[j]` is its amplitude.  Rows
    are distinct; their order carries no meaning."""

    def __init__(self, layout: RegisterLayout, entries: dict[tuple[int, ...], complex]):
        self.layout = layout
        dims = [r.dim for r in layout.registers]
        try:
            rows = np.array(list(entries) or np.empty((0, len(dims))), dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            rows = np.empty((0, 0))  # ragged or out of int64: refused below
        if rows.shape[1:] != (len(dims),) or ((rows < 0) | (rows >= dims)).any():
            raise SimulationError(
                f"basis tuples need one value in [0, dim) per register of {layout.names}")
        self.words = layout.pack(rows)
        self.amps = np.array(list(entries.values()), dtype=complex)
        self._entries = None
        self._l2 = None  # np.linalg.norm(amps), kept by `apply` for the next `apply`
        _freeze(self.words, self.amps)
        if not abs(self.norm() - 1.0) <= NORM_TOL:  # NaN fails too
            raise SimulationError(f"state norm {self.norm()} outside tolerance")

    @classmethod
    def from_arrays(cls, layout: RegisterLayout, words: np.ndarray,
                    amps: np.ndarray, l2: float | None = None) -> "SparseState":
        """Wrap gate-application output as is: no copy and no norm check;
        `l2`, where given, is np.linalg.norm(amps), which `apply` computed."""
        state = cls.__new__(cls)
        state.layout, state.words, state.amps, state._entries = layout, words, amps, None
        state._l2 = l2
        _freeze(words, amps)
        return state

    @classmethod
    def basis(cls, layout: RegisterLayout, values: dict[str, int] | None = None) -> "SparseState":
        tup = list(layout.zero_tuple())
        for name, v in (values or {}).items():
            tup[layout.index(name)] = v
        return cls(layout, {tuple(tup): 1.0 + 0.0j})

    @property
    def entries(self) -> dict[tuple[int, ...], complex]:
        """{basis tuple: amplitude}, built on first read; a read-only view."""
        if self._entries is None:
            self._entries = dict(zip(map(tuple, self.layout.unpack(self.words).tolist()),
                                     self.amps.tolist()))
        return self._entries

    def norm(self) -> float:
        return math.sqrt(_weight(self.amps))

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def column(self, name: str) -> np.ndarray:
        """The value of register `name` on each row."""
        return _run_value(self.words, self.layout.places[self.layout.index(name)])

    def register_value(self, name: str) -> int:
        """Value of one register when it is sharp across the support."""
        col = self.column(name)
        if not len(col) or (col != col[0]).any():
            raise SimulationError(
                f"register {name} is not sharp: values {sorted(set(col.tolist()))}")
        return int(col[0])

    def dominant_register_value(self, name: str) -> int:
        """Highest-weight value of one register (ties break to the lowest value)."""
        order = _sort_groups(self.words)[0]
        weights: dict[int, float] = {}
        for v, a in zip(self.column(name)[order].tolist(), self.amps[order].tolist()):
            weights[v] = weights.get(v, 0.0) + abs(a) ** 2
        return max(weights.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def peak_tuple(self) -> tuple[int, ...]:
        """Basis tuple of the largest-magnitude amplitude (ties break to the
        lexicographically largest tuple)."""
        mags = [abs(a) for a in self.amps.tolist()]
        top = max(mags)
        return max(map(tuple, self.layout.unpack(self.words[[m == top for m in mags]]).tolist()))

    def weight_where(self, reg: str, mask: np.ndarray) -> float:
        """Weight of the rows whose value on register `reg` is flagged in
        `mask`, a boolean array indexed by that register's values."""
        return _weight(self.amps[np.asarray(mask, dtype=bool)[self.column(reg)]])


def _freeze(*arrays: np.ndarray) -> None:
    """States share arrays with the states they came from, so none may write them."""
    for a in arrays:
        a.flags.writeable = False


def _weight(amps: np.ndarray) -> float:
    """Sum of |a|**2, rounded once by fsum, so the same whatever the row order."""
    return math.fsum(abs(a) ** 2 for a in amps.tolist())


def assert_registers_clean(state: SparseState, names: tuple[str, ...], what: str) -> None:
    """Raise unless every named register is back at 0 up to RELEASE_TOL of
    weight, naming the first that is not in the given order; the registers
    are read in one pass, and each leak is its own fsum."""
    if not names:
        return
    off = _digits(state.words, state.layout.code(tuple(names))) != 0
    for j in np.flatnonzero(off.any(axis=0)).tolist():
        leak = _weight(state.amps[off[:, j]])
        if leak > RELEASE_TOL:
            raise SimulationError(
                f"pipeline fault in {what}: register {names[j]} holds weight {leak:.3e} off 0")


# --- gates -----------------------------------------------------------------

class GateOp:
    label: str = "gate"
    cost_class: str = "arith"  # arith | qft | oracle-call | reflection
    _adjoint: GateOp | None = None  # kept by `adjoint` on the gate and on its adjoint
    permutes = False  # True for a gate that only permutes basis tuples

    def registers(self) -> tuple[str, ...]:
        raise NotImplementedError


@dataclass
class Permutation(GateOp):
    """Bijection on the joint index set of `regs`; fn and inv are mutual
    inverses, column maps checked as the module docstring says.  Compiled
    tables are kept per dims signature and shared with the adjoint, which
    reads them the other way round, so the two verify once between them."""

    regs: tuple[str, ...]
    fn: Callable
    inv: Callable
    label: str = "perm"
    cost_class: str = "arith"
    tables: dict = field(default_factory=dict, repr=False)
    inv_tables: dict = field(default_factory=dict, repr=False)
    permutes = True

    def registers(self) -> tuple[str, ...]:
        return self.regs

    def table_for(self, dims: tuple[int, ...]) -> np.ndarray | None:
        """Lookup table of the flattened map as each code's move, image -
        code, or None above the check limit, where each application evaluates
        `fn` on its rows instead.  The whole domain goes through `_evaluate`
        once, a block per value of the leading register (the whole domain of
        a one-register gate), so the map's temporaries stay a slice long; its
        int32 images become moves in place.  The table holds them in the
        narrowest of int8, int16 and int32 that holds every move and its
        negation (UF_2_29 changes only its last register, so its 32^4 moves
        fit one byte each), and the inverse table is their negated scatter,
        in the same type."""
        table = self.tables.get(dims)
        if table is not None:
            return table
        total = math.prod(dims)
        if total > EXHAUSTIVE_CHECK_LIMIT:
            return None
        # int64 on purpose: freeing it (8 MB at p = 29) raises glibc's mmap
        # threshold, below which a warm demo's local-unitary kernel faults
        # its arrays in afresh on every call; warm demo-p29 passes after the
        # first make 16-33 minor faults, and about 43 K with an int32 arange
        codes = np.arange(total)
        images = _evaluate(self, dims, codes, total // dims[0] if len(dims) > 1 else total)
        images -= codes
        reach = max(-int(images.min()), int(images.max()))
        table = images.astype(next(t for t in (np.int8, np.int16, np.int32)
                                   if reach <= np.iinfo(t).max))
        images += codes
        inv_table = np.empty_like(table)
        inv_table[images] = -table
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
        if not err <= NORM_TOL:  # NaN fails too
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

    @property
    def permutes(self) -> bool:
        return self.inner.permutes

    def registers(self) -> tuple[str, ...]:
        return self.controls + tuple(self.inner.registers())


@dataclass
class Sequence(GateOp):
    """Gates applied left to right.  When every leaf permutes basis tuples,
    the whole is one map, memoized per dims signature of its registers (in
    name order) in two dicts keyed by tuples of their values, {digits: image}
    in `tables` and {image: digits} in `inv_tables`, which the adjoint reads
    swapped; a new row walks the leaves as digits through `steps`."""

    gates: tuple[GateOp, ...]
    label: str = "seq"
    tables: dict = field(default_factory=dict, repr=False)
    inv_tables: dict = field(default_factory=dict, repr=False)
    steps: dict = field(default_factory=dict, repr=False)

    def registers(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r for g in self.gates for r in g.registers()))

    @cached_property
    def leaves(self) -> tuple[GateOp, ...]:
        """The gates of nested sequences, flattened, in application order."""
        return tuple(leaf for g in self.gates
                     for leaf in (g.leaves if isinstance(g, Sequence) else (g,)))

    @cached_property
    def permutes(self) -> bool:
        # a nested sequence answers from its own cached flag
        return all(g.permutes for g in self.gates)

    @cached_property
    def code_registers(self) -> tuple[str, ...]:
        """The registers in name order: the same for the gate and its adjoint."""
        return tuple(sorted(self.registers()))

    @cached_property
    def class_counts(self) -> Counter:
        return Counter(leaf.cost_class for leaf in self.leaves)


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
    """Built on the first call and kept on both gates: adjoint(adjoint(g)) is g."""
    if gate._adjoint is not None:
        return gate._adjoint
    if isinstance(gate, Permutation):
        adj = Permutation(gate.regs, gate.inv, gate.fn, gate.label + "+", gate.cost_class,
                          tables=gate.inv_tables, inv_tables=gate.tables)
    elif isinstance(gate, PhaseFn):
        adj = PhaseFn(gate.regs, {x: -a for x, a in gate.angles.items()},
                      label=gate.label + "+", cost_class=gate.cost_class)
    elif isinstance(gate, LocalUnitary):
        adj = LocalUnitary(gate.reg, gate.matrix.conj().T, label=gate.label + "+",
                           cost_class=gate.cost_class)
    elif isinstance(gate, Controlled):
        adj = Controlled(gate.controls, gate.on, adjoint(gate.inner), label=gate.label + "+")
    elif isinstance(gate, Sequence):
        adj = Sequence(tuple(adjoint(g) for g in reversed(gate.gates)), label=gate.label + "+",
                       tables=gate.inv_tables, inv_tables=gate.tables)
    else:
        raise SimulationError(f"cannot take adjoint of {type(gate).__name__}")
    gate._adjoint, adj._adjoint = adj, gate
    return adj


def _permute_words(layout: RegisterLayout, words: np.ndarray, gate: Permutation) -> np.ndarray:
    code = layout.code(gate.regs)
    table = gate.table_for(code.dims)
    if table is None and code.weights is None:
        raise SimulationError(f"{gate.label}: domain {code.dims} too large for a flat code")
    codes, digits = _encode(words, code)
    if table is not None:
        moves = table[codes]
    else:
        moves = _evaluate(gate, code.dims, codes, ROW_BLOCK)
        moves -= codes
    return _recode(words, code, codes, digits, moves)


def _evaluate(gate: Permutation, dims: tuple[int, ...], codes: np.ndarray,
              block: int) -> np.ndarray:
    """Images of the flat `codes` of the domain `dims`: `fn` on their
    register columns, `block` codes at a time, with every image checked to
    lie in the domain and `inv` to lead it back to its own code, which proves
    `fn` injective on the codes.  The one checked evaluation of a permutation;
    the one place that calls its `fn` and `inv`."""
    images = np.empty(len(codes), np.int32 if math.prod(dims) <= EXHAUSTIVE_CHECK_LIMIT else np.int64)
    weights = np.array(_strides(dims))
    bounds = np.array(dims, dtype=np.uint64)[:, None]
    # codes lie below prod(dims): a leading digit above others needs no reduction
    reads = list(zip(weights.tolist(), (None,) + dims[1:] if len(dims) > 1 else dims))
    # one buffer for every block: a compile's blocks are small (a few dozen
    # codes per slice in the search gates), and a fresh one each showed there
    src = np.empty((len(dims), min(block, len(codes))), dtype=np.int64)
    rows = list(src)
    for lo in range(0, len(codes), block):
        hi = min(lo + block, len(codes))
        if hi - lo < src.shape[1]:  # the last, shorter block
            src = src[:, :hi - lo]
            rows = list(src)
        for row, (w, span) in zip(rows, reads):
            _digit(codes[lo:hi], w, span, row)
        try:
            dst = np.asarray(gate.fn(src), dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            dst = None
        # read as unsigned, a negative image lies above every bound
        if dst is None or dst.shape != src.shape or (dst.view(np.uint64) >= bounds).any():
            raise SimulationError(f"{gate.label}: image outside domain {dims}")
        images[lo:hi] = weights @ dst
        try:
            back = np.asarray(gate.inv(dst), dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            back = None
        if back is None or back.shape != src.shape:
            back = np.full_like(src, -1)  # no source is negative: every one is lost
        if (back != src).any():
            bad = (back != src).any(axis=0)
            # only a refusal asks which fault it is: fewer distinct images
            # than codes so far means two codes share an image
            if len(np.unique(images[:hi])) < len(np.unique(codes[:hi])):
                raise SimulationError(f"{gate.label}: not injective")
            raise SimulationError(
                f"{gate.label}: inverse mismatch at {tuple(src[:, bad.argmax()].tolist())}")
    return images


def _map_chain(layout: RegisterLayout, words: np.ndarray, gate: Sequence) -> np.ndarray:
    if not gate.code_registers:  # a chain of no registers is the identity
        return words
    code = layout.code(gate.code_registers)
    digits = _digits(words, code)
    memo = gate.tables.get(code.dims, {})
    keys = list(map(tuple, digits.tolist()))
    fresh = list(dict.fromkeys(k for k in keys if k not in memo))
    if fresh:
        steps = gate.steps.get(code.dims) or gate.steps.setdefault(code.dims, [
            _chain_step(layout, leaf, gate.code_registers.index) for leaf in gate.leaves])
        rows = list(map(list, fresh))
        _walk(steps, rows)
        images = list(map(tuple, rows))
        held = gate.inv_tables.get(code.dims, {})
        if len(set(images)) < len(images) or not held.keys().isdisjoint(images):
            raise SimulationError(f"{gate.label}: not injective on the support")
        gate.tables.setdefault(code.dims, memo).update(zip(fresh, images))
        gate.inv_tables.setdefault(code.dims, held).update(zip(images, fresh))
    images = np.array([memo[k] for k in keys], dtype=np.int64).reshape(digits.shape)
    return words + (images - digits) @ code.scatter


def _chain_step(layout: RegisterLayout, leaf: GateOp, digit: Callable[[str], int]) -> tuple:
    """A chain leaf as a step on its code's digits: (leaf, dims, (digit, stride, dim) per
    register), or for a controlled gate (control digits, on, its inner leaves' steps)."""
    if isinstance(leaf, Controlled):
        inner = leaf.inner.leaves if isinstance(leaf.inner, Sequence) else (leaf.inner,)
        layout.code(leaf.controls)  # refuses a register named twice
        return tuple(map(digit, leaf.controls)), leaf.on, [_chain_step(layout, g, digit) for g in inner]
    code = layout.code(leaf.regs)
    if code.weights is None:  # its walked codes would pass int64
        raise SimulationError(f"{leaf.label}: domain {code.dims} too large for a flat code")
    return leaf, code.dims, tuple(zip(map(digit, leaf.regs), _strides(code.dims), code.dims))


def _walk(steps: list, rows: list[list[int]]) -> None:
    """Moves the digit lists `rows` through `steps` (see `_chain_step`) in place."""
    for step in steps:
        if not isinstance(step[0], Permutation):
            controls, on, inner = step
            hot = [row for row in rows if tuple([row[i] for i in controls]) in on]
            if hot:
                _walk(inner, hot)
            continue
        leaf, dims, places = step
        table = leaf.table_for(dims)
        if table is not None:
            move_of = table.item
        else:  # above the check limit: the rows' codes in one evaluation
            codes = [sum(row[i] * s for i, s, _ in places) for row in rows]
            flat = np.array(codes)
            move_of = dict(zip(codes, (_evaluate(leaf, dims, flat, ROW_BLOCK) - flat).tolist())).get
        for row in rows:  # plain loops: a generator costs more than these few digits
            code = 0
            for i, s, _ in places:
                code += row[i] * s
            image = code + move_of(code)
            for i, s, d in places:
                row[i] = image // s % d


def _sort_groups(rows: np.ndarray, bound: int = 1 << 63) -> tuple[np.ndarray, ...]:
    """An order that sorts `rows` (integers, or matrix rows taken lexicographically),
    the sorted rows, and a mask that is True where a new distinct row starts.
    From MANY_ROWS on, integers below `bound` sort packed with their index."""
    if rows.ndim == 2 and rows.shape[1] == 1:
        rows = rows[:, 0]
    n = len(rows)
    if rows.ndim == 1 and n >= MANY_ROWS and bound << n.bit_length() <= 1 << 63:
        ordered = rows << n.bit_length()
        ordered |= np.arange(n)
        ordered.sort()
        order = ordered & ((1 << n.bit_length()) - 1)
        ordered >>= n.bit_length()
    else:
        order = np.argsort(rows) if rows.ndim == 1 else np.lexsort(rows.T[::-1])
        ordered = rows[order]
    changed = ordered[1:] != ordered[:-1]
    starts = np.ones(n, dtype=bool)
    starts[1:] = changed if changed.ndim == 1 else changed.any(axis=1)
    return order, ordered, starts


def _check_arity(label: str, regs: tuple[str, ...], listed) -> None:
    if any(len(x) != len(regs) for x in listed):
        raise SimulationError(f"{label}: listed tuples need one value per register {regs}")


def _match(layout: RegisterLayout, words: np.ndarray, regs: tuple[str, ...],
           listed: list[tuple[int, ...]]) -> np.ndarray:
    """Per support row, the position in `listed` of the row's values on `regs`,
    or -1 when they are not listed."""
    code = layout.code(regs)
    if len(regs) == 1:
        (dim,) = code.dims
        table = np.full(dim, -1, dtype=np.int64)
        for j, (v,) in enumerate(listed):
            if 0 <= v < dim:
                table[v] = j
        return table[_run_value(words, code.run)]
    # several registers: few listed tuples, compared digit by digit, so a
    # domain past CODE_LIMIT needs no flat code
    found = np.full(len(words), -1, dtype=np.int64)
    digits = _digits(words, code)
    for j, x in enumerate(listed):
        if all(0 <= v < d for v, d in zip(x, code.dims)):
            found[(digits == x).all(axis=1)] = j
    return found


def _apply_phase(layout: RegisterLayout, words: np.ndarray, amps: np.ndarray,
                 gate: PhaseFn) -> tuple[np.ndarray, np.ndarray]:
    found = _match(layout, words, gate.regs, list(gate.angles))
    hit = found >= 0
    if hit.any():
        angles = np.array(list(gate.angles.values()), dtype=float)
        amps = amps.copy()
        # out of place on purpose: numpy's in-place complex `*=` can round the
        # last bit differently, which would move report bytes
        amps[hit] = amps[hit] * np.exp(1j * angles[found[hit]])
    return words, amps


def _apply_local(layout: RegisterLayout, words: np.ndarray, amps: np.ndarray,
                 gate: LocalUnitary) -> tuple[np.ndarray, np.ndarray]:
    i = layout.index(gate.reg)
    d = gate.matrix.shape[0]
    if layout.registers[i].dim < d:
        raise SimulationError(f"{gate.label}: matrix larger than register {gate.reg}")
    place = layout.places[i]
    # bucket, out and kept are the layout's work buffers (see the module
    # docstring), and what the kernel returns is always fresh, since states
    # freeze and share their arrays.  Until the product is written, the out
    # buffer holds each row's register value (col) and cell in the flat bucket
    # (cell); rows never outnumber cells, so this never grows it past its need
    n = len(words)
    spare = layout.scratch("out", n, complex).view(np.int64)
    col = _run_value(words, place, spare[:n])
    if col.size and int(col.max()) >= d:
        raise SimulationError(
            f"{gate.label}: support at {int(col.max())} outside the {d}-dim domain of {gate.reg}")
    # group rows that agree off register i, groups in sorted order of their
    # other registers (a row's place within its group does not matter)
    groups, member = _group_rows(layout, _cleared(words, ((place, col),)), ((i,), (d,), n))
    cell = np.multiply(member, d, out=spare[n:], dtype=np.int64)
    cell += col
    flat = layout.scratch("bucket", len(groups) * d, complex)
    flat.fill(0)
    flat[cell] = amps
    return _kept_cells(groups, *_product(layout, flat.reshape(-1, d), gate.matrix), place)


def _cleared(words: np.ndarray, cleared: tuple[tuple[_Run, np.ndarray], ...]) -> np.ndarray:
    """The rows' words with the registers in `cleared`, (place, value column)
    pairs, set to 0: one integer per row in a one-word layout, else a row."""
    if words.shape[1] == 1:
        key = cleared[0][1] * cleared[0][0].stride
        for place, col in cleared[1:]:
            key += col * place.stride
        return np.subtract(words[:, 0], key, out=key)
    key = words.copy()
    for place, col in cleared:
        key[:, place.word] -= col * place.stride
    return key


def _group_rows(layout: RegisterLayout, key: np.ndarray,
                slot: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Groups the rows of equal `_cleared` keys: the distinct keys in sorted
    order, and each row's group, its index there.  From MANY_ROWS rows on,
    the two are the layout's plan for `slot` (registers, matrix sizes, row
    count), recalled without a sort while every row's key equals its group's
    and replaced otherwise; the plans are read-only."""
    many = len(key) >= MANY_ROWS
    plan = layout._plans.get(slot) if many else None
    # row for row, so a key of several words is compared whole
    if plan is not None and np.array_equal(plan[0][plan[1]], key):
        return plan
    order, ordered, starts = _sort_groups(key, layout.word_caps[0])
    # the keys are spent: an integer key holds the sorted rows' groups
    at = np.cumsum(starts, out=key if key.ndim == 1 else None)
    at -= 1
    # a kept plan holds 4 bytes per row index; a few rows keep numpy's fast int64 scatter
    member = np.empty(len(key), dtype=np.int32 if many and len(key) < 1 << 31 else np.int64)
    member[order] = at
    plan = ordered[starts], member
    if many:
        _freeze(*plan)
        layout._plans[slot] = plan
    return plan


def _product(layout: RegisterLayout, bucket: np.ndarray,
             matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bucket @ matrix.T in the out buffer, and the mask of the cells that
    clear DROP_THRESHOLD in the kept buffer; the spent bucket's real parts
    take the magnitudes.  Recombination leaves numerical dust behind, and only
    what clears the threshold is kept."""
    d = matrix.shape[0]
    out = np.matmul(bucket, matrix.T, out=layout.scratch("out", bucket.size, complex).reshape(-1, d))
    kept = np.greater_equal(np.abs(out, out=bucket.real), DROP_THRESHOLD,
                            out=layout.scratch("kept", bucket.size, bool).reshape(-1, d))
    return out, kept


def _kept_cells(groups: np.ndarray, out: np.ndarray, kept: np.ndarray,
                place: _Run) -> tuple[np.ndarray, np.ndarray]:
    """The kept cells of a product as fresh (words, amplitudes): a cell's
    words are its bucket row's, `groups`, with the register at `place` set to
    the cell's column."""
    d = out.shape[1]
    if kept.all() and groups.ndim == 1:
        return (groups[:, None] + np.arange(0, d * place.stride, place.stride)).reshape(-1, 1), \
            out.reshape(-1).copy()
    # a cell's row and column; d is p - 1 for the pipeline's QFTs, no power
    # of two, and a product and a subtraction beat a remainder
    cells = np.flatnonzero(kept)
    rows = cells // d
    vals = cells - rows * d
    vals *= place.stride
    new = groups[rows]
    if new.ndim == 1:
        return (new + vals)[:, None], out[kept]
    new[:, place.word] += vals
    return new, out[kept]


def _apply_pair(layout: RegisterLayout, words: np.ndarray, amps: np.ndarray,
                first: LocalUnitary, second: LocalUnitary) -> tuple[np.ndarray, np.ndarray] | None:
    """`first` then `second`, local unitaries on two different registers, as
    one step with the same result as two `_apply_local` calls; None where
    they must go one at a time: the rule in the module docstring fails, or a
    check of `_apply_local` would refuse them."""
    ends = [(layout.index(g.reg), g.matrix.shape[0]) for g in (first, second)]
    if ends[0][0] == ends[1][0] or not len(words) or any(
            layout.registers[i].dim < d for i, d in ends):
        return None
    (pa, da), (pb, db) = ((layout.places[i], d) for i, d in ends)
    ca, cb = _run_value(words, pa), _run_value(words, pb)
    if int(ca.max()) >= da or int(cb.max()) >= db:
        return None
    # G_XY groups agree off both registers; the first step buckets G_X rows,
    # one per (group, value of b) held, and G_X <= G_XY * db, so the rule
    # G_XY * db <= G_X asks for every value of b in every group: the first
    # row's group is checked before any sort
    key = _cleared(words, ((pa, ca), (pb, cb)))
    same = key == key[0]
    if len(np.unique(cb[same if same.ndim == 1 else same.all(axis=1)])) < db:
        return None
    groups, member = _group_rows(layout, key, tuple(zip(*ends)) + (len(words),))
    rows = len(groups) * db
    if rows > len(words):
        return None
    cell = np.multiply(member, db, dtype=np.int64)
    cell += cb
    held = layout.scratch("kept", rows, bool)
    held.fill(False)
    held[cell] = True
    if not held.all():
        return None
    # the grid: group x b x a, its rows exactly the first step's bucket rows
    cell *= da
    cell += ca
    grid = layout.scratch("bucket", rows * da, complex)
    grid.fill(0)
    grid[cell] = amps
    out, kept = _product(layout, grid.reshape(-1, da), first.matrix)
    # the second step buckets the (group, a) rows with a kept cell; a dropped
    # cell is the +0.0 its bucket is filled with there (assigned: a product
    # could leave -0.0)
    hot = np.flatnonzero(kept.reshape(-1, db, da).any(axis=1))
    np.copyto(out, 0, where=np.logical_not(kept, out=kept))
    g = hot // da
    a = hot - g * da
    bucket = out.reshape(-1, db, da)[g, :, a]
    base = groups[g]
    if base.ndim == 1:
        base += a * pa.stride
    else:
        base[:, pa.word] += a * pa.stride
    return _kept_cells(base, *_product(layout, bucket, second.matrix), pb)


def _apply_arrays(layout: RegisterLayout, words: np.ndarray, amps: np.ndarray,
                  gate: GateOp, ledger: GateLedger | None) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(gate, Sequence) and not gate.permutes:
        i = 0
        while i < len(gate.gates):
            pair = gate.gates[i:i + 2]
            fused = (_apply_pair(layout, words, amps, *pair) if len(pair) == 2
                     and all(isinstance(g, LocalUnitary) for g in pair) else None)
            if fused is None:
                words, amps = _apply_arrays(layout, words, amps, pair[0], ledger)
                i += 1
                continue
            words, amps = fused
            for g in pair if ledger is not None else ():
                ledger.record(g)
            i += 2
        return words, amps
    if ledger is not None:
        ledger.record(gate)
    if isinstance(gate, Permutation):
        return _permute_words(layout, words, gate), amps
    if isinstance(gate, Sequence):
        return _map_chain(layout, words, gate), amps
    if isinstance(gate, PhaseFn):
        return _apply_phase(layout, words, amps, gate)
    if isinstance(gate, LocalUnitary):
        return _apply_local(layout, words, amps, gate)
    if isinstance(gate, Controlled):
        hot = _match(layout, words, gate.controls, list(gate.on)) >= 0
        if not hot.any():
            return words, amps
        # the inner gate cannot touch control registers, so hot and cold stay disjoint
        hw, ha = _apply_arrays(layout, words[hot], amps[hot], gate.inner, None)
        if gate.permutes:  # rows only move: each image takes its source's place
            new = words.copy()
            new[hot] = hw
            return new, amps
        return np.concatenate([words[~hot], hw]), np.concatenate([amps[~hot], ha])
    raise SimulationError(f"unknown gate type {type(gate).__name__}")


def apply(state: SparseState, gate: GateOp, ledger: GateLedger | None = None) -> SparseState:
    """Apply a gate; enforces norm preservation.  The output keeps the norm
    computed here, so the next `apply` reads its input's norm, not computes it."""
    words, amps = _apply_arrays(state.layout, state.words, state.amps, gate, ledger)
    l2 = state._l2
    if amps is not state.amps:  # the input's own (frozen) amplitudes keep their norm
        before = l2 if l2 is not None else float(np.linalg.norm(state.amps))
        l2 = float(np.linalg.norm(amps))
        if not abs(l2 - before) <= NORM_TOL:  # NaN fails too
            raise SimulationError(f"{gate.label}: norm drifted {before} -> {l2}")
    return SparseState.from_arrays(state.layout, words, amps, l2)


def apply_all(state: SparseState, gates: Iterable[GateOp],
              ledger: GateLedger | None = None) -> SparseState:
    """Apply gates left to right, each through `apply`, so each is checked on its own."""
    for gate in gates:
        state = apply(state, gate, ledger)
    return state


def inner_product(s1: SparseState, s2: SparseState) -> complex:
    """<s1|s2>, summed term by term over the shared basis tuples in lexicographic order."""
    if s1.layout is not s2.layout and (s1.layout.names, s1.layout.places) != (
            s2.layout.names, s2.layout.places):
        raise SimulationError("layout mismatch in inner product")
    # rows are distinct within each state, so a tuple both hold sorts into two
    # adjacent rows, the lower index from s1
    order, _, starts = _sort_groups(np.concatenate([s1.words, s2.words]),
                                    s1.layout.word_caps[0])
    both = ~starts[1:]
    lo = np.minimum(order[:-1], order[1:])[both]
    hi = np.maximum(order[:-1], order[1:])[both] - len(s1.amps)
    total = 0.0 + 0.0j
    for a1, a2 in zip(s1.amps[lo].tolist(), s2.amps[hi].tolist()):
        total += a1.conjugate() * a2
    return total


def fidelity(s1: SparseState, s2: SparseState) -> float:
    return abs(inner_product(s1, s2)) ** 2
