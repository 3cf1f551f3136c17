import cmath
import functools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from references import sole_tuple
from cycsim import dlog_pipeline, driver, gates, hilbert
from cycsim.hilbert import (CODE_LIMIT, DROP_THRESHOLD, EXHAUSTIVE_CHECK_LIMIT, MANY_ROWS,
                            Controlled, GateLedger, LocalUnitary, Permutation, PhaseFn,
                            Register, RegisterLayout, Sequence, SimulationError, SparseState,
                            adjoint, apply, apply_all, assert_registers_clean, fidelity,
                            inner_product)
from cycsim.numtheory import find_primitive_root, make_group_spec


def on_tuples(regs, fn, inv, **kw):
    """A permutation from maps on basis tuples, through the builders' adapter."""
    return Permutation(regs, gates.per_tuple(fn), gates.per_tuple(inv), **kw)


def small_layout():
    return RegisterLayout([Register("a", 4), Register("b", 2),
                           Register("c", 5)])


def random_state(layout, rng, support=6):
    keys = set()
    dims = [r.dim for r in layout.registers]
    while len(keys) < support:
        keys.add(tuple(rng.randrange(d) for d in dims))
    amps = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in keys}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(layout, {k: a / norm for k, a in amps.items()})


def gate_zoo():
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,),
                    label="inc")
    return [
        inc,
        gates.add_mod(4, "a", "c"),
        gates.mul3(4, "a", "b", "c"),
        gates.swap_regs("a", "c") if False else gates.transposition(0, 3, "a"),
        gates.set_const(2, "c", 5),
        gates.qft(4, "a"),
        gates.qft(5, "c"),
        gates.selective_phase({2: 0.7}, "a"),
        PhaseFn(("a", "c"), {(1, 2): 0.4, (3, 0): -1.1}, label="pair_phase"),
        LocalUnitary("b", np.array([[1, 1], [1, -1]]) / math.sqrt(2), label="H"),
        Controlled(("b",), frozenset({(1,)}), inc, label="c_inc"),
        Controlled(("b", "c"), frozenset({(1, 0), (0, 3)}), inc, label="cc_inc"),
        Sequence((inc, gates.qft(4, "a"), adjoint(inc))),
    ]


def test_norm_preserved_on_random_states():
    layout = small_layout()
    rng = random.Random(11)
    for gate in gate_zoo():
        for _ in range(100):
            st = random_state(layout, rng)
            out = apply(st, gate)
            assert abs(out.norm() - 1.0) < 1e-10, gate.label


def test_adjoint_roundtrip_every_gate():
    layout = small_layout()
    rng = random.Random(5)
    for gate in gate_zoo():
        st = random_state(layout, rng)
        back = apply(apply(st, gate), adjoint(gate))
        assert fidelity(back, st) > 1 - 1e-10, gate.label


def test_a_gate_keeps_its_adjoint():
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,),
                    label="inc")
    kinds = [
        inc,
        PhaseFn(("a", "c"), {(1, 2): 0.4, (3, 0): -1.1}, label="pair_phase"),
        LocalUnitary("b", np.array([[1, 1], [1, -1]]) / math.sqrt(2), label="H"),
        Controlled(("b",), frozenset({(1,)}), gates.transposition(0, 3, "a"), label="c_t"),
        Sequence((Sequence((gates.qft(4, "a"), gates.add_mod(4, "a", "c")), label="in"),
                  gates.selective_phase({2: 0.7}, "a")), label="nested"),
    ]
    for gate in kinds:
        adj = adjoint(gate)
        assert adjoint(gate) is adj, gate.label
        assert adjoint(adj) is gate, gate.label


def test_a_repeated_gate_has_one_adjoint():
    h = LocalUnitary("b", np.array([[1, 1], [1, -1]]) / math.sqrt(2), label="H")
    first, _, last = adjoint(Sequence((h, gates.qft(4, "a"), h))).gates
    assert first is last is adjoint(h)


def test_a_chain_and_its_adjoint_share_their_memos():
    layout, chain = chain_layout(), perm_chain()
    st = chain_state(layout, random.Random(3))
    out = apply(st, chain)
    adj = adjoint(chain)
    assert adj.tables is chain.inv_tables and adj.inv_tables is chain.tables
    # the adjoint of the adjoint is the chain itself, with its memo and steps
    assert adjoint(adj) is chain
    assert apply(out, adj).entries == st.entries


def test_identity_and_swap_examples():
    layout = small_layout()
    st = SparseState.basis(layout, {"a": 0})
    ident = on_tuples(("a",), lambda v: v, lambda v: v, label="id")
    assert apply(st, ident).entries == st.entries
    flip = gates.transposition(0, 1, "b")
    out = apply(SparseState.basis(layout), flip)
    assert sole_tuple(out)[layout.index("b")] == 1


def test_phase_flips_sign_only():
    layout = small_layout()
    st = apply(SparseState.basis(layout), gates.qft(4, "a"))
    flipped = apply(st, gates.selective_phase({2: math.pi}, "a"))
    ia = layout.index("a")
    for k, a in flipped.entries.items():
        want = -st.entries[k] if k[ia] == 2 else st.entries[k]
        assert abs(a - want) < 1e-12
    # same outcome probabilities
    assert all(abs(abs(a) ** 2 - 0.25) < 1e-12 for a in flipped.entries.values())


def test_nonbijective_permutation_rejected():
    bad = on_tuples(("a",), lambda v: (0,), lambda v: (0,), label="collapse")
    st = SparseState.basis(small_layout(), {"a": 1})
    with pytest.raises(SimulationError):
        apply(st, bad)


def test_wrong_inverse_rejected():
    bad = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: v, label="liar")
    st = SparseState.basis(small_layout())
    with pytest.raises(SimulationError):
        apply(st, bad)


def test_nonunitary_matrix_rejected():
    with pytest.raises(SimulationError):
        LocalUnitary("a", np.array([[1, 0], [0, 2]], dtype=complex))


def test_nan_matrix_rejected():
    with pytest.raises(SimulationError, match="not unitary"):
        LocalUnitary("a", np.full((2, 2), np.nan))


def test_nan_amplitude_rejected():
    layout = small_layout()
    with pytest.raises(SimulationError, match="state norm nan"):
        SparseState(layout, {layout.zero_tuple(): complex("nan")})


def test_nan_phase_fails_the_norm_check():
    gate = PhaseFn(("a",), {(0,): float("nan")})
    with pytest.raises(SimulationError, match="norm drifted 1.0 -> nan"):
        apply(SparseState.basis(small_layout()), gate)


def test_controlled_overlap_rejected():
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,))
    with pytest.raises(SimulationError):
        Controlled(("a",), frozenset({(0,)}), inc)


def test_controlled_applies_only_where_predicate_holds():
    layout = small_layout()
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,))
    gate = Controlled(("b",), frozenset({(1,)}), inc)
    cold = apply(SparseState.basis(layout, {"a": 1, "b": 0}), gate)
    hot = apply(SparseState.basis(layout, {"a": 1, "b": 1}), gate)
    assert sole_tuple(cold)[layout.index("a")] == 1
    assert sole_tuple(hot)[layout.index("a")] == 2


def test_listed_tuples_need_one_value_per_register():
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,))
    with pytest.raises(SimulationError):
        PhaseFn(("a",), {(1, 2): 0.3})
    with pytest.raises(SimulationError):
        Controlled(("b", "c"), frozenset({(1,)}), inc)


def test_a_gate_naming_a_register_twice_is_refused():
    # mul3 on (a, a, a) permutes 4**3 points, but on a state it acts on the
    # diagonal x = y = z only, where z + x*y sends 1 and 2 both to 2 (mod 4)
    layout = RegisterLayout([Register("a", 4), Register("b", 2)])
    st = SparseState(layout, {(1, 1): 0.6, (2, 1): 0.8})
    with pytest.raises(SimulationError, match=r"register named twice in \('a', 'a', 'a'\)"):
        apply(st, gates.mul3(4, "a", "a", "a"))
    # a phase and a control look their registers up the same way
    for gate in (PhaseFn(("b", "b"), {(1, 1): 0.3}),
                 Controlled(("b", "b"), frozenset({(1, 1)}), gates.transposition(1, 2, "a"))):
        with pytest.raises(SimulationError, match=r"register named twice in \('b', 'b'\)"):
            apply(st, gate)


def test_phase_and_control_lookup_match_a_per_row_reference():
    layout = small_layout()
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,))
    phases = [PhaseFn(("c",), {(0,): 0.3, (4,): -2.0, (2,): 1.0}),
              PhaseFn(("a", "c"), {(1, 2): 0.4, (3, 0): -1.1, (0, 0): 2.5})]
    controls = [Controlled(("c",), frozenset({(1,), (3,)}), inc),
                Controlled(("b", "c"), frozenset({(1, 0), (0, 3), (1, 4)}), inc)]
    rng = random.Random(17)
    for _ in range(50):
        st = random_state(layout, rng, support=20)
        for gate in phases:
            pos = [layout.index(r) for r in gate.regs]
            out = apply(st, gate)
            for k, a in st.entries.items():
                angle = gate.angles.get(tuple(k[i] for i in pos), 0.0)
                assert abs(out.entries[k] - a * cmath.exp(1j * angle)) < 1e-15
        for gate in controls:
            pos = [layout.index(r) for r in gate.controls]
            want = {}
            for k, a in st.entries.items():
                hot = tuple(k[i] for i in pos) in gate.on
                want[((k[0] + 1) % 4,) + k[1:] if hot else k] = a
            assert apply(st, gate).entries == want


def test_adjoint_phase_negates_every_angle():
    gate = PhaseFn(("a", "c"), {(1, 2): 0.4, (3, 0): -1.1}, label="pp", cost_class="oracle-call")
    adj = adjoint(gate)
    assert adj.angles == {(1, 2): -0.4, (3, 0): 1.1}
    assert (adj.regs, adj.label, adj.cost_class) == (("a", "c"), "pp+", "oracle-call")


def test_inner_product_basics():
    layout = small_layout()
    rng = random.Random(3)
    psi = random_state(layout, rng)
    assert abs(inner_product(psi, psi) - 1) < 1e-12
    b0 = SparseState.basis(layout, {"a": 0})
    b1 = SparseState.basis(layout, {"a": 1})
    assert inner_product(b0, b1) == 0
    plus = SparseState(layout, {k: v for k, v in
                               [(tuple([0, 0, 0]), 1 / math.sqrt(2)),
                                (tuple([1, 0, 0]), 1 / math.sqrt(2))]})
    assert abs(inner_product(b0, plus) - 1 / math.sqrt(2)) < 1e-12
    # conjugate symmetry
    z1 = inner_product(psi, b0)
    z2 = inner_product(b0, psi)
    assert abs(z1 - z2.conjugate()) < 1e-12


def test_assert_registers_clean():
    layout = small_layout()
    assert_registers_clean(SparseState.basis(layout, {"a": 3}), ("b", "c"), "test")
    # weight just under the tolerance still counts as clean
    eps = 1e-5
    near = SparseState(layout, {(0, 0, 0): math.sqrt(1 - eps**2), (0, 0, 2): eps})
    assert_registers_clean(near, ("c",), "test")
    dirty = SparseState(layout, {(0, 0, 0): math.sqrt(0.5), (0, 0, 2): math.sqrt(0.5)})
    assert_registers_clean(dirty, ("a", "b"), "test")
    with pytest.raises(SimulationError, match="register c holds weight 5.000e-01"):
        assert_registers_clean(dirty, ("a", "c"), "test")


@pytest.mark.parametrize("dims, width", [
    ([("a", 4), ("b", 2), ("c", 5), ("d", 3)], 1),
    ([("a", 6), ("h", 1 << 40), ("c", 1 << 30), ("b", 8)], 2),
], ids=["one-word", "two-words"])
def test_assert_registers_clean_reads_every_register_and_names_the_first_leak(dims, width):
    # one read of every named register; each leak is its own fsum, and the
    # first register in the given order that holds weight off 0 is named
    layout = RegisterLayout([Register(name, dim) for name, dim in dims])
    assert layout.width == width
    rng = random.Random(11)
    for _ in range(40):
        rows = {tuple(0 if rng.random() < 0.6 else rng.randrange(1, d) for _, d in dims)
                for _ in range(rng.randrange(1, 6))}
        # some rows carry weight under RELEASE_TOL, which counts as clean
        amps = [rng.choice([1.0, 1e-5]) * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for _ in rows]
        norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
        state = SparseState(layout, {row: a / norm for row, a in zip(rows, amps)})
        names = rng.sample(layout.names, rng.randrange(1, len(dims) + 1))
        leaks = [(name, math.fsum(abs(a) ** 2 for row, a in state.entries.items()
                                  if row[layout.index(name)] != 0)) for name in names]
        dirty = [(name, leak) for name, leak in leaks if leak > hilbert.RELEASE_TOL]
        if not dirty:
            assert_registers_clean(state, tuple(names), "test")
            continue
        name, leak = dirty[0]
        message = re.escape(f"register {name} holds weight {leak:.3e} off 0")
        with pytest.raises(SimulationError, match=message):
            assert_registers_clean(state, tuple(names), "test")
    assert_registers_clean(state, (), "test")  # no register is clean


@pytest.mark.parametrize("layout", [small_layout(), RegisterLayout([Register("a", 4)])],
                         ids=["three-registers", "one-register"])
def test_an_empty_sequence_is_the_identity(layout):
    # a chain of no leaves names no register, so it has no code to read
    state = random_state(layout, random.Random(5), support=3)
    led = GateLedger()
    empty = Sequence(())
    for gate in (empty, adjoint(empty), Sequence((empty, empty))):
        out = apply(state, gate, led)
        assert out.words.tobytes() == state.words.tobytes()
        assert out.amps is state.amps
    assert led.counts_by_class() == {}


def test_gate_ledger_counts():
    layout = small_layout()
    led = GateLedger()
    st = SparseState.basis(layout)
    st = apply(st, gates.qft(4, "a"), led)
    st = apply(st, gates.selective_phase({0: 1.0}, "a", cost_class="oracle-call"), led)
    st = apply(st, gates.add_mod(4, "a", "c"), led)
    assert led.counts_by_class() == {"qft": 1, "oracle-call": 1, "arith": 1}
    assert led.count("oracle-call") == 1


def test_permutation_bijectivity_checked_exhaustively_below_limit():
    # the compiled table is shared with the adjoint
    g = gates.add_mod(4, "a", "c")
    a = adjoint(g)
    layout = small_layout()
    apply(SparseState.basis(layout), g)
    dims = (4, 5)
    assert dims in g.tables
    assert a.tables is g.inv_tables


def test_rowwise_permutation_refuses_a_collision():
    # above the check limit nothing compiles, so the row-wise path itself must
    # notice that two support rows land on one basis tuple
    layout = RegisterLayout([Register("big", EXHAUSTIVE_CHECK_LIMIT * 2),
                             Register("b", 2)])
    halve = on_tuples(("big",), lambda v: (v[0] // 2,), lambda v: (2 * v[0],), label="halve")
    st = SparseState(layout, {(4, 1): 0.6, (5, 1): 0.8})
    with pytest.raises(SimulationError, match="not injective"):
        apply(st, halve)
    assert halve.table_for((EXHAUSTIVE_CHECK_LIMIT * 2,)) is None
    # injective on the support is not enough: 7 shares its image with 6, off
    # the support, and inv leads that image back to 6
    with pytest.raises(SimulationError, match=r"inverse mismatch at \(7,\)"):
        apply(SparseState(layout, {(4, 1): 0.6, (7, 1): 0.8}), halve)
    # the same map is fine where inv leads every image back to its own row
    out = apply(SparseState(layout, {(4, 1): 0.6, (6, 1): 0.8}), halve)
    assert out.entries == {(2, 1): 0.6, (3, 1): 0.8}
    leave = on_tuples(("big",), lambda v: (v[0] + EXHAUSTIVE_CHECK_LIMIT * 2,),
                      lambda v: v, label="leave")
    with pytest.raises(SimulationError, match="outside domain"):
        apply(out, leave)


# --- array readers against the per-tuple dict formulas they replace ----------

def _ref_weight(state, pred):
    return math.fsum(abs(a) ** 2 for k, a in sorted(state.entries.items()) if pred(k))


def _ref_inner(s1, s2):
    small = s1.entries if len(s1.entries) <= len(s2.entries) else s2.entries
    total = 0.0 + 0.0j
    for k in sorted(small):
        a1, a2 = s1.entries.get(k), s2.entries.get(k)
        if a1 is not None and a2 is not None:
            total += a1.conjugate() * a2
    return total


def _ref_dominant(state, i):
    weights = {}
    for k in sorted(state.entries):
        weights[k[i]] = weights.get(k[i], 0.0) + abs(state.entries[k]) ** 2
    return max(weights.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def test_array_readers_match_the_dict_formulas_bit_for_bit():
    layout = small_layout()
    rng = random.Random(23)
    for gate in gate_zoo():
        for _ in range(20):
            st = apply(random_state(layout, rng, support=12), gate)
            other = apply(random_state(layout, rng, support=12), gate)
            assert st.norm() == math.sqrt(_ref_weight(st, lambda k: True)), gate.label
            for i, reg in enumerate(layout.registers):
                for v in range(reg.dim):
                    mask = np.arange(reg.dim) == v
                    assert st.weight_where(reg.name, mask) == _ref_weight(
                        st, lambda k: k[i] == v), gate.label
                    assert st.weight_where(reg.name, ~mask) == _ref_weight(
                        st, lambda k: k[i] != v), gate.label
                assert st.dominant_register_value(reg.name) == _ref_dominant(st, i)
            assert inner_product(st, other) == _ref_inner(st, other), gate.label
            assert inner_product(other, st) == _ref_inner(other, st), gate.label
            assert inner_product(st, st) == _ref_inner(st, st), gate.label
            assert fidelity(st, other) == abs(_ref_inner(st, other)) ** 2
            assert st.peak_tuple() == max((abs(a), k) for k, a in st.entries.items())[1]


def test_peak_and_dominant_ties_break_as_documented():
    layout = small_layout()
    h = 1 / math.sqrt(2)
    tied = SparseState(layout, {(1, 0, 3): h, (2, 1, 0): -h})
    assert tied.peak_tuple() == (2, 1, 0)
    assert tied.dominant_register_value("a") == 1
    with pytest.raises(SimulationError, match=r"not sharp: values \[1, 2\]"):
        tied.register_value("a")
    assert SparseState.basis(layout, {"c": 4}).register_value("c") == 4


def _ref_local(layout, keys, amps, gate, drop=DROP_THRESHOLD):
    """The kernel as it was: group by np.unique over a copied key matrix, keep
    every nonzero cell, then prune below `drop` in a second pass."""
    i = layout.index(gate.reg)
    d = gate.matrix.shape[0]
    col = keys[:, i]
    rest = keys.copy()
    rest[:, i] = 0
    uniq, inverse = np.unique(rest, axis=0, return_inverse=True)
    bucket = np.zeros((uniq.shape[0], d), dtype=complex)
    bucket[inverse.reshape(-1), col] = amps
    out = bucket @ gate.matrix.T
    rows, vals = np.nonzero(np.abs(out) > 0.0)
    new_keys = uniq[rows]
    new_keys[:, i] = vals
    new_amps = out[rows, vals]
    keep = np.abs(new_amps) >= drop
    return new_keys[keep], new_amps[keep]


@pytest.mark.parametrize("extra, width, support", [
    ((), 1, 25), ((1 << 40, 1 << 30), 2, 25), ((1 << 40, 1 << 30, 1 << 40, 3), 3, 25),
    ((50, 60), 1, 1500), ((1 << 40, 1 << 14), 1, 1500), ((1 << 40, 1 << 30), 2, 1500),
], ids=["flat-key", "overflow", "three-words", "many-rows", "many-rows-wide-key",
        "many-rows-two-words"])
def test_local_kernel_prunes_once_exactly_as_before(extra, width, support):
    # past one word the product dimension exceeds int64, which sends the
    # kernel down its row-sorting path; from MANY_ROWS rows on, a word with
    # room for the row index takes the one-sort path; tuples are compared decoded
    regs = [Register("a", 4), Register("b", 2), Register("c", 5)]
    regs += [Register(f"h{j}", dim) for j, dim in enumerate(extra)]
    layout = RegisterLayout(regs)
    assert layout.width == width
    # a gate on every word's top and stride-1 register too ("a" and "c" are
    # the first word's in the flat-key layout)
    ends = sorted({i for i, pl in enumerate(layout.places) if pl.top or pl.stride == 1} - {0, 2})
    rng = random.Random(31)
    # a large support first (past MANY_ROWS wherever the layout holds that
    # many tuples; flat-key holds 40), then smaller ones on the same layout:
    # the kernel's reused work arrays are then longer than a call needs, and
    # what a larger call left in them must not show in the result
    plan = [3 * MANY_ROWS // 2] * 2 + [min(support, 25)] * (30 if support < MANY_ROWS else 2)
    pruned = 0
    for draws in plan:
        spread = 3 if draws < MANY_ROWS else 12
        dims = [r.dim if r.dim < 64 else spread for r in regs]
        rows = {tuple(rng.randrange(d) for d in dims) for _ in range(draws)}
        assert draws < MANY_ROWS or len(rows) >= min(MANY_ROWS, math.prod(dims))
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in rows]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        st = SparseState(layout, {k: a / norm for k, a in zip(rows, amps)})
        for gate in (gates.qft(4, "a"), gates.qft(5, "c"),
                     *(gates.qft(dims[i], regs[i].name) for i in ends)):
            # the Fourier pass then its inverse cancels almost every new cell
            there = apply(st, gate)
            tuples = layout.unpack(there.words)
            for g in (gate, adjoint(gate)):
                got_words, got_amps = hilbert._apply_local(layout, there.words, there.amps, g)
                ref_keys, ref_amps = _ref_local(layout, tuples, there.amps, g)
                assert got_words.shape[1] == width
                assert np.array_equal(layout.unpack(got_words), ref_keys)
                assert np.array_equal(got_amps, ref_amps)
                pruned += len(_ref_local(layout, tuples, there.amps, g, 0.0)[1]) - len(got_amps)
    assert pruned > 0


def test_no_state_holds_a_kernel_work_array():
    # the kernel's work arrays and grouping plans belong to the layout, and
    # a work array is overwritten by the next call, so every state it
    # returns must own fresh arrays
    layout = RegisterLayout([Register("a", 8), Register("b", 4), Register("h", 1 << 20)])
    rng = random.Random(7)
    made = []

    def check(state):
        made.append((state, state.words.copy(), state.amps.copy()))
        for earlier, words, amps in made:
            assert np.array_equal(earlier.words, words) and np.array_equal(earlier.amps, amps)
        for buf in [*layout._scratch.values(), *(a for plan in layout._plans.values() for a in plan)]:
            assert not np.shares_memory(state.words, buf)
            assert not np.shares_memory(state.amps, buf)

    fourier = gates.qft(8, "a")
    on_b1 = Controlled(("b",), frozenset({(1,)}), fourier)
    for size in (3 * MANY_ROWS, 40, 4 * MANY_ROWS):
        # register a sharp at 0: every cell of the Fourier pass clears the threshold
        rows = {(0, rng.randrange(4), rng.randrange(1 << 20)) for _ in range(size)}
        st = SparseState(layout, {k: 1 / math.sqrt(len(rows)) for k in rows})
        check(st)
        spread = apply(st, fourier)  # every cell kept
        check(spread)
        assert spread.support_size == 8 * st.support_size
        back = apply(spread, adjoint(fourier))  # pruned back to the sharp rows
        check(back)
        assert back.support_size == st.support_size
        hot = apply(st, on_b1)  # the kernel on the rows with b = 1 only
        check(hot)
        assert hot.support_size == st.support_size + 7 * int((st.column("b") == 1).sum())
        check(apply(hot, adjoint(on_b1)))
    assert sorted(layout._scratch) == ["bucket", "kept", "out"] and layout._plans


# --- packing basis tuples into words ----------------------------------------

PACK_DIMS = hst.one_of(hst.integers(2, 100), hst.sampled_from([1 << 30, 1 << 40, 3 ** 20]))


@settings(max_examples=60, deadline=None)
@given(dims=hst.lists(PACK_DIMS, min_size=1, max_size=9), data=hst.data())
@example(dims=[4, 2, 5], data=None)
@example(dims=[4, 2, 5, 1 << 40, 1 << 30], data=None)
@example(dims=[4, 2, 5, 1 << 40, 1 << 30, 1 << 40, 3], data=None)
def test_packing_round_trips_in_tuple_order(dims, data):
    layout = RegisterLayout([Register(f"r{i}", d) for i, d in enumerate(dims)])
    rng = random.Random(len(dims) if data is None else data.draw(hst.integers(0, 99)))
    tuples = [tuple(rng.randrange(d) for d in dims) for _ in range(40)]
    tuples += [tuple(d - 1 for d in dims), (0,) * len(dims)]
    words = layout.pack(np.array(tuples, dtype=np.int64))
    assert words.shape == (len(tuples), layout.width)
    assert np.array_equal(layout.unpack(words), tuples)
    # word rows sort as the tuples do
    order = np.lexsort(words.T[::-1])
    assert [tuples[i] for i in order] == sorted(tuples)
    # every word stays below 2**62
    assert all(cap <= CODE_LIMIT for cap in layout.word_caps)
    assert ((0 <= words) & (words < CODE_LIMIT)).all()
    # no register is split: moving one register moves one word
    for i, d in enumerate(dims):
        moved = [tuples[0][:i] + ((tuples[0][i] + 1) % d,) + tuples[0][i + 1:]]
        changed = (layout.pack(np.array(moved)) != words[:1])[0]
        assert changed.sum() == 1 and changed[layout.places[i].word]
    # the fewest words: greedy, each word's first register would not fit the one before
    firsts = [i for i, place in enumerate(layout.places) if place.top]
    assert [layout.places[i].word for i in firsts] == list(range(layout.width))
    for w, i in enumerate(firsts[1:]):
        assert layout.word_caps[w] * dims[i] > CODE_LIMIT
    assert layout.width == 1 or math.prod(dims) > CODE_LIMIT


@pytest.mark.parametrize("bad", [(9, 0), (-1, 0), (0,), (0, 0, 0), (1 << 70, 0), 1],
                         ids=["too-big", "negative", "short", "long", "huge", "not-a-tuple"])
def test_state_refuses_a_malformed_basis_tuple(bad):
    layout = RegisterLayout([Register("a", 4), Register("b", 2)])
    with pytest.raises(SimulationError, match="basis tuple"):
        SparseState(layout, {(1, 1): 0.6, bad: 0.8})
    # a good state reads back as written
    st = SparseState(layout, {(1, 1): 0.6, (3, 0): 0.8})
    assert st.entries == {(1, 1): 0.6, (3, 0): 0.8}
    assert st.column("a").tolist() == [1, 3] and st.column("b").tolist() == [1, 0]
    assert st.weight_where("a", [True, False, False, False]) == 0.0


def test_register_past_the_code_limit_is_refused():
    with pytest.raises(SimulationError, match="dimension above"):
        RegisterLayout([Register("a", 4), Register("h", CODE_LIMIT + 1)])


# --- digit reads off the power-of-two path ----------------------------------
# Registers are read with shifts and masks where a stride or span is a power
# of two, and with a floor division and a subtraction elsewhere; each layout
# mixes both, as strides and as spans, in one word and in two.

DIGIT_DIMS = {"odd-strides": [64, 9, 32, 2, 28], "odd-spans": [9, 28, 64, 32, 2]}


def digit_state(dims, words, support, seed):
    extra = [1 << 40, 9, 32, 28] if words == 2 else []
    layout = RegisterLayout([Register(f"r{i}", d) for i, d in enumerate(dims + extra)])
    assert layout.width == words
    rng = random.Random(seed)
    rows = sorted({tuple(rng.randrange(r.dim) for r in layout.registers) for _ in range(support)})
    st = SparseState(layout, {k: 1 / math.sqrt(len(rows)) for k in rows})
    return st, np.array(rows, dtype=np.int64), rng


DIGIT_CASES = pytest.mark.parametrize("dims, words, support", [
    (dims, words, support) for dims in DIGIT_DIMS.values() for words in (1, 2)
    for support in (40, 3 * MANY_ROWS // 2)],
    ids=[f"{name}-{words}-word-{rows}-rows" for name in DIGIT_DIMS for words in (1, 2)
         for rows in ("few", "many")])


@DIGIT_CASES
def test_digit_reads_match_plain_division(dims, words, support):
    st, tuples, rng = digit_state(dims, words, support, seed=support + words)
    layout = st.layout
    for i, (reg, place) in enumerate(zip(layout.registers, layout.places)):
        got = st.column(reg.name)
        assert np.array_equal(got, tuples[:, i])
        assert np.array_equal(got, st.words[:, place.word] // place.stride % place.span)
    subsets = [("r1", "r4"), ("r4", "r2", "r1"), ("r2", "r3", "r4"), ("r0", "r1"), ("r3",)]
    if words == 2:
        subsets += [("r1", "r7"), ("r8", "r4", "r6"), ("r6", "r7", "r8"), ("r4", "r5")]
    for regs in subsets:
        code = layout.code(regs)
        pos = [layout.index(r) for r in regs]
        codes, digits = hilbert._encode(st.words, code)
        assert np.array_equal(codes, tuples[:, pos] @ np.array(hilbert._strides(code.dims)))
        # registers that are no run are read one register at a time, at any row count
        assert isinstance(digits, list) == (code.run is None)
        total = math.prod(code.dims)
        scattered = np.array([rng.randrange(total) for _ in codes], dtype=np.int64)
        # a step of one code, held in int8 as a compiled table holds it: the
        # moves widen before a stride (1,792 for r0 r1) multiplies them
        step = np.where(codes + 1 < total, codes + 1, codes - 1)
        for images in (scattered, step):
            moved = tuples.copy()
            moved[:, pos] = np.transpose(np.unravel_index(images, code.dims))
            moves = images - codes
            reach = int(np.abs(moves).max())
            moves = moves.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                                      if reach <= np.iinfo(t).max))
            new = hilbert._recode(st.words, code, codes, digits, moves)
            assert np.array_equal(new, layout.pack(moved)), regs


@DIGIT_CASES
def test_local_kernel_reads_odd_dimensions_exactly(dims, words, support):
    st, _, _ = digit_state(dims, words, support, seed=3 * support + words)
    layout = st.layout
    fourier = [gates.qft(r.dim, r.name) for r in layout.registers if r.dim <= 64]
    assert {g.matrix.shape[0] for g in fourier} >= {9, 28, 64}
    for gate in fourier:
        there = apply(st, gate)
        for g, src in ((gate, st), (adjoint(gate), there)):
            got_words, got_amps = hilbert._apply_local(layout, src.words, src.amps, g)
            ref_keys, ref_amps = _ref_local(layout, layout.unpack(src.words), src.amps, g)
            assert np.array_equal(layout.unpack(got_words), ref_keys), g.label
            assert np.array_equal(got_amps, ref_amps), g.label



# --- two local unitaries in one step ----------------------------------------
# A Sequence applies adjacent local unitaries on two registers as one step
# where every group of rows that agree off both holds every value of the
# second gate's register; elsewhere one at a time.  Either way the rows and
# amplitudes are those of two single-register kernel calls, bit for bit.

PAIR_LAYOUTS = {"one-word": [("h", 3), ("a", 6), ("b", 8), ("c", 5)],
                "two-words": [("a", 6), ("h", 1 << 40), ("c", 1 << 30), ("b", 8)]}


def pair_layout(name):
    layout = RegisterLayout([Register(r, d) for r, d in PAIR_LAYOUTS[name]])
    assert layout.width == (1 if name == "one-word" else 2)
    return layout


def pair_state(layout, first, second, full, seed, groups=12):
    """Rows in `groups` groups that agree off both gates' registers, each
    register inside its gate's domain; with `full` every group holds every
    value of the second register.  A third of the groups carry amplitudes
    near DROP_THRESHOLD, so the product leaves cells on both sides of it."""
    rng = random.Random(seed)
    d1, d2 = first.matrix.shape[0], second.matrix.shape[0]
    entries = {}
    for _ in range(groups):
        row = {r.name: rng.randrange(min(r.dim, 7)) for r in layout.registers}
        scale = rng.choice([1.0, 1.0, 2e-13])
        for v in (range(d2) if full else rng.sample(range(d2), d2 - 1)):
            for u in rng.sample(range(d1), rng.randint(1, d1)):
                row[first.reg], row[second.reg] = u, v
                key = tuple(row[r.name] for r in layout.registers)
                entries[key] = scale * complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(sum(abs(a) ** 2 for a in entries.values()))
    return SparseState(layout, {k: a / norm for k, a in entries.items()})


def _pairs(words, amps):
    """A kernel's output as its set of (word row, amplitude) pairs, sorted."""
    return sorted(zip(map(tuple, words.tolist()), amps.tolist()))


PAIR_GATES = {
    "6-then-8": lambda: (gates.qft(6, "a"), gates.qft(8, "b")),
    "8-then-6": lambda: (gates.qft(8, "b"), adjoint(gates.qft(6, "a"))),
    "4-on-8-then-6": lambda: (gates.qft(4, "b"), gates.qft(6, "a")),
}


@pytest.mark.parametrize("full", [True, False], ids=["fused", "refused"])
@pytest.mark.parametrize("gate_pair", PAIR_GATES)
@pytest.mark.parametrize("name", PAIR_LAYOUTS)
def test_pair_step_matches_two_kernel_calls_bit_for_bit(name, gate_pair, full):
    layout = pair_layout(name)
    first, second = PAIR_GATES[gate_pair]()
    pruned = 0
    for seed in range(4):
        st = pair_state(layout, first, second, full, seed)
        want = hilbert._apply_local(
            layout, *hilbert._apply_local(layout, st.words, st.amps, first), second)
        got = hilbert._apply_pair(layout, st.words, st.amps, first, second)
        assert (got is not None) == full
        if full:
            assert _pairs(*got) == _pairs(*want)
            assert got[0].shape[1] == layout.width
            assert not any(np.shares_memory(a, buf) for a in got for buf in layout._scratch.values())
        # through a Sequence the ledger still counts both leaves
        ledger = GateLedger()
        out = apply(st, Sequence((first, second)), ledger)
        assert _pairs(out.words, out.amps) == _pairs(*want)
        assert ledger.counts_by_class() == {"qft": 2}
        tuples = layout.unpack(st.words)
        pruned += len(_ref_local(layout, tuples, st.amps, first, 0.0)[1]) - len(
            _ref_local(layout, tuples, st.amps, first)[1])
    assert pruned > 0


@pytest.mark.parametrize("name", PAIR_LAYOUTS)
def test_pair_step_with_a_one_row_second_bucket(name):
    # one group, uniform over a: the inverse Fourier pass on a leaves a = 0
    # only, so the second step buckets a single row, and a 1-row product
    # takes another BLAS path than a row of a larger one (generic amplitudes
    # over b show the difference)
    layout = pair_layout(name)
    first, second = adjoint(gates.qft(6, "a")), adjoint(gates.qft(8, "b"))
    rng = random.Random(5)
    over_b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(8)]
    norm = math.sqrt(6 * sum(abs(c) ** 2 for c in over_b))
    entries = {}
    for u in range(6):
        for v, c in enumerate(over_b):
            row = {"h": 2, "c": 4, "a": u, "b": v}
            entries[tuple(row[r.name] for r in layout.registers)] = c / norm
    st = SparseState(layout, entries)
    mid = hilbert._apply_local(layout, st.words, st.amps, first)
    assert len(mid[1]) == 8 and (layout.unpack(mid[0])[:, layout.index("a")] == 0).all()
    want = hilbert._apply_local(layout, *mid, second)
    got = hilbert._apply_pair(layout, st.words, st.amps, first, second)
    assert got is not None and len(got[1]) == 8
    assert _pairs(*got) == _pairs(*want)


@pytest.mark.parametrize("fourier, refusal", [
    (lambda: (gates.qft(5, "a"), gates.qft(8, "b")), "QFT_5: support at 5 outside the 5-dim domain of a"),
    (lambda: (gates.qft(6, "a"), gates.qft(4, "b")), "QFT_4: support at 5 outside the 4-dim domain of b"),
], ids=["first", "second"])
@pytest.mark.parametrize("name", PAIR_LAYOUTS)
def test_pair_step_refuses_support_outside_either_domain(name, fourier, refusal):
    layout = pair_layout(name)
    first, second = fourier()
    row = {"h": 1, "c": 2, "a": 5, "b": 5}
    st = SparseState(layout, {tuple(row[r.name] for r in layout.registers): 1.0})
    with pytest.raises(SimulationError, match=refusal):
        apply(st, Sequence((first, second)))
    assert hilbert._apply_pair(layout, st.words, st.amps, first, second) is None


# --- grouping plans ---------------------------------------------------------
# From MANY_ROWS rows on, the layout keeps each support's grouping (the sorted
# distinct keys and each row's group) per (registers, matrix sizes, row
# count) and recalls it while every row's key equals its group's.  A recall
# or a refusal of the plan gives the bytes a fresh layout gives.

PLAN_LAYOUTS = {"one-word": [("a", 6), ("g", 1 << 12), ("b", 8)],
                "two-words": [("a", 6), ("g", 1 << 40), ("h", 1 << 30), ("b", 8)]}


def plan_layout(name):
    layout = RegisterLayout([Register(r, d) for r, d in PLAN_LAYOUTS[name]])
    assert layout.width == (1 if name == "one-word" else 2)
    return layout


def plan_state(layout, rows, seed=0):
    """A state on (g, a, b) rows, in the given order; g also sets h where the
    layout has it, so a group spans both words."""
    rng = random.Random(seed)
    entries = {}
    for g, a, b in rows:
        values = {"g": g, "h": g % 7, "a": a, "b": b}
        entries[tuple(values[r.name] for r in layout.registers)] = complex(
            rng.gauss(0, 1), rng.gauss(0, 1))
    assert len(entries) == len(rows) >= MANY_ROWS
    norm = math.sqrt(sum(abs(c) ** 2 for c in entries.values()))
    return SparseState(layout, {k: c / norm for k, c in entries.items()})


def same_bytes(got, want):
    return all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def local_slot(layout, gate, n):
    return (layout.index(gate.reg),), (gate.matrix.shape[0],), n


def on_fresh(layout, state, gate):
    """The gate on the state's arrays through a layout that holds no plan."""
    fresh = RegisterLayout(layout.registers)
    return hilbert._apply_arrays(fresh, state.words, state.amps, gate, None)


@pytest.mark.parametrize("name", PLAN_LAYOUTS)
def test_a_plan_is_recalled_and_a_new_key_set_of_the_same_size_misses(name):
    layout = plan_layout(name)
    fourier = gates.qft(6, "a")
    first = plan_state(layout, [(g, a, g % 8) for g in range(200) for a in range(6)])
    # the same row count, one group's key moved from g = 0 to g = 500
    second = plan_state(layout, [(500 if g == 0 else g, a, g % 8)
                                 for g in range(200) for a in range(6)])
    slot = local_slot(layout, fourier, first.support_size)
    want = on_fresh(layout, first, fourier)
    assert same_bytes(hilbert._apply_local(layout, first.words, first.amps, fourier), want)
    plan = layout._plans[slot]
    assert same_bytes(hilbert._apply_local(layout, first.words, first.amps, fourier), want)
    assert layout._plans[slot] is plan  # recalled, not sorted again
    got = hilbert._apply_local(layout, second.words, second.amps, fourier)
    assert layout._plans[slot] is not plan
    assert same_bytes(got, on_fresh(layout, second, fourier))
    groups = layout._plans[slot][0]
    assert 500 in layout.unpack(groups.reshape(len(groups), -1))[:, layout.index("g")]


@pytest.mark.parametrize("name", PLAN_LAYOUTS)
def test_a_plan_misses_when_one_group_empties_and_another_grows(name):
    layout = plan_layout(name)
    fourier = gates.qft(6, "a")
    rows = [(g, a, 1) for g in range(2, 200) for a in range(6)]
    # rows 0-2 in group 0 and 3-5 in group 1; then all six in group 1, in place
    first = plan_state(layout, [(0, a, 1) for a in range(3)] + [(1, a, 1) for a in range(3)] + rows)
    second = plan_state(layout, [(1, a, 1) for a in range(3, 6)] + [(1, a, 1) for a in range(3)]
                        + rows)
    slot = local_slot(layout, fourier, first.support_size)
    hilbert._apply_local(layout, first.words, first.amps, fourier)
    plan = layout._plans[slot]
    got = hilbert._apply_local(layout, second.words, second.amps, fourier)
    assert layout._plans[slot] is not plan and len(layout._plans[slot][0]) == len(plan[0]) - 1
    assert same_bytes(got, on_fresh(layout, second, fourier))


@pytest.mark.parametrize("name", PLAN_LAYOUTS)
def test_a_recalled_pair_plan_still_checks_every_value_of_b(name):
    layout = plan_layout(name)
    first, second = gates.qft(6, "a"), gates.qft(8, "b")
    full = [(g, a, b) for g in range(80) for b in range(8) for a in range(2)]
    # the same rows in the same groups, but group 5 no longer holds b = 7
    gap = [(g, 2, {(0, 7): 0, (1, 7): 1}[a, b]) if g == 5 and b == 7 else (g, a, b)
           for g, a, b in full]
    fused_st, gap_st = plan_state(layout, full), plan_state(layout, gap)
    slot = ((layout.index("a"), layout.index("b")), (6, 8), len(full))
    pair = Sequence((first, second))
    got = hilbert._apply_pair(layout, fused_st.words, fused_st.amps, first, second)
    assert got is not None and _pairs(*got) == _pairs(*on_fresh(layout, fused_st, pair))
    plan = layout._plans[slot]
    # the plan is recalled, so no sort runs, and the rule refuses the pair
    assert hilbert._apply_pair(layout, gap_st.words, gap_st.amps, first, second) is None
    assert layout._plans[slot] is plan
    # so the Sequence runs it as two single steps, as on a fresh layout
    fresh = RegisterLayout(layout.registers)
    want = hilbert._apply_local(
        fresh, *hilbert._apply_local(fresh, gap_st.words, gap_st.amps, first), second)
    out = apply(gap_st, pair)
    assert same_bytes((out.words, out.amps), want)
    assert same_bytes(on_fresh(layout, gap_st, pair), want)


def test_a_pair_refused_after_its_sort_keeps_its_plan():
    # every value of b in the first row's group, but not in group 5: the
    # refusal comes after the sort, and the second refusal recalls its plan
    layout = plan_layout("one-word")
    first, second = gates.qft(6, "a"), gates.qft(8, "b")
    rows = [(g, a, b) for g in range(80) for b in range(8 if g != 5 else 7) for a in range(2)]
    st = plan_state(layout, rows)
    slot = ((layout.index("a"), layout.index("b")), (6, 8), len(rows))
    sorts = []
    sort = hilbert._sort_groups
    try:
        hilbert._sort_groups = lambda *args: sorts.append(len(args[0])) or sort(*args)
        assert hilbert._apply_pair(layout, st.words, st.amps, first, second) is None
        plan = layout._plans[slot]
        assert hilbert._apply_pair(layout, st.words, st.amps, first, second) is None
    finally:
        hilbert._sort_groups = sort
    assert sorts == [len(rows)] and layout._plans[slot] is plan


def test_a_support_below_many_rows_keeps_no_plan():
    layout = plan_layout("one-word")
    rows = {(g, a, b) for g in range(6) for a in range(6) for b in range(8)}
    assert len(rows) < MANY_ROWS
    st = SparseState(layout, {(a, g, b): 1 / math.sqrt(len(rows)) for g, a, b in rows})
    st = apply(st, gates.qft(6, "a"))
    apply(st, Sequence((gates.qft(6, "a"), gates.qft(8, "b"))))
    assert layout._plans == {}


def test_the_search_layout_keeps_no_plan_after_a_sweep():
    # the search meets supports of one or two rows only
    driver.run_sweep(driver.ExperimentConfig(p=43, run_demo=False))
    assert driver._instance(43, find_primitive_root(43), 0.0, 0.0).layout._plans == {}


PLAN_REGS = [Register("a", 4), Register("b", 3), Register("c", 5)]


@settings(max_examples=30, deadline=None)
@given(wide=hst.booleans(), seed=hst.integers(0, 1 << 32),
       steps=hst.lists(hst.tuples(hst.sampled_from("abc"), hst.sampled_from("abc"),
                                  hst.sampled_from(["qft", "qft+", "dense"])),
                       min_size=1, max_size=6))
def test_recalled_plans_give_the_bytes_of_a_fresh_layout(wide, seed, steps):
    # each step, a local unitary or two on different registers, runs twice
    # on one layout: the second run recalls every plan the first made, and
    # both give the bytes of the step on a layout that holds no plan
    hidden = [Register("h", 1 << 40), Register("k", 1 << 30)] if wide else [Register("h", 64)]
    layout = RegisterLayout(PLAN_REGS + hidden)
    assert layout.width == (2 if wide else 1)
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    rows = set()
    while len(rows) < rng.randrange(MANY_ROWS, 2 * MANY_ROWS):
        h = rng.randrange(64)
        rows.add((rng.randrange(4), rng.randrange(3), rng.randrange(5), h)
                 + ((h % 5,) if wide else ()))
    st = SparseState(layout, {r: 1 / math.sqrt(len(rows)) for r in rows})

    def local(reg, kind):
        d = layout.dim(reg)
        if kind == "dense":
            q, _ = np.linalg.qr(np_rng.normal(size=(d, d)) + 1j * np_rng.normal(size=(d, d)))
            return LocalUnitary(reg, q)
        return gates.qft(d, reg) if kind == "qft" else adjoint(gates.qft(d, reg))

    for one, other, kind in steps:
        gate = local(one, kind)
        if other != one:
            gate = Sequence((gate, local(other, kind)))
        want = on_fresh(layout, st, gate)
        got = hilbert._apply_arrays(layout, st.words, st.amps, gate, None)
        assert same_bytes(got, want)
        held = dict(layout._plans)
        again = hilbert._apply_arrays(layout, st.words, st.amps, gate, None)
        assert same_bytes(again, want)
        assert layout._plans.keys() == held.keys()
        assert all(layout._plans[slot] is plan for slot, plan in held.items())
        st = SparseState.from_arrays(layout, *got)
    assert layout._plans


def big_layout():
    # dims that are not powers of two, and registers out of layout order in the gates
    return RegisterLayout([Register("a", 64), Register("b", 37),
                           Register("big", BIG), Register("c", 50),
                           Register("d", 3)])


def _ref_gate(layout, entries, gate):
    """{tuple: amplitude} after a gate that only permutes, tuple by tuple:
    `fn` read directly, controls tested on the tuple, sequences in order."""
    if isinstance(gate, Sequence):
        for g in gate.gates:
            entries = _ref_gate(layout, entries, g)
        return entries
    if isinstance(gate, Controlled):
        hot = {x: a for x, a in entries.items()
               if tuple(x[layout.index(r)] for r in gate.controls) in gate.on}
        return {**{x: a for x, a in entries.items() if x not in hot},
                **_ref_gate(layout, hot, gate.inner)}
    pos = [layout.index(r) for r in gate.regs]
    out = {}
    for x, a in entries.items():
        y = list(x)
        for i, v in zip(pos, gate.fn(np.array([[x[i]] for i in pos])).ravel().tolist()):
            y[i] = v
        out[tuple(y)] = a
    return out


@pytest.mark.parametrize("support", [12, 3 * MANY_ROWS // 2], ids=["few-rows", "many-rows"])
def test_permutations_move_words_as_their_tuples_move(support):
    layout = big_layout()
    rng = random.Random(47)
    rows = {(rng.randrange(64), rng.randrange(37), rng.randrange(BIG), rng.randrange(50),
             rng.randrange(3)) for _ in range(support)}
    st = SparseState(layout, {k: 1 / math.sqrt(len(rows)) for k in rows})
    big_by_c = on_tuples(("c", "big"), lambda v: (v[0], (v[1] + 7 * v[0]) % BIG),
                         lambda v: (v[0], (v[1] - 7 * v[0]) % BIG), label="big+7c")
    for gate in (gates.mul3(50, "d", "a", "c"), gates.add_mod(37, "c", "b"),
                 gates.transposition(2, 30, "a"), gates.add_mod(64, "b", "a"), _step(11), big_by_c,
                 on_tuples(("d", "b"), lambda v: (v[0], (v[1] + v[0]) % 37),
                           lambda v: (v[0], (v[1] - v[0]) % 37), label="b+d")):
        assert apply(st, gate).entries == _ref_gate(layout, st.entries, gate), gate.label
    chain = Sequence((gates.add_mod(37, "c", "b"), big_by_c, gates.transposition(2, 30, "a"),
                      Controlled(("d",), frozenset({(1,)}), _step(3))), label="chain")
    assert apply(st, chain).entries == apply_all(st, chain.leaves).entries


# --- above the check limit: row-wise permutations and fused permutation chains

BIG = EXHAUSTIVE_CHECK_LIMIT * 2


def chain_layout():
    # "d" lies off every chain below, so rows can repeat a chain sub-tuple
    return RegisterLayout([Register("a", 4), Register("b", 2),
                           Register("c", 5), Register("big", BIG),
                           Register("d", 3)])


def _step(k):
    return on_tuples(("big",), lambda v: ((v[0] + k) % BIG,), lambda v: ((v[0] - k) % BIG,),
                     label=f"step{k}")


def _big_by_a():
    # row-wise on two registers: big += a
    return on_tuples(("a", "big"), lambda v: (v[0], (v[1] + v[0]) % BIG),
                     lambda v: (v[0], (v[1] - v[0]) % BIG), label="big+a")


def perm_chain():
    inc = on_tuples(("a",), lambda v: ((v[0] + 1) % 4,), lambda v: ((v[0] - 1) % 4,),
                    label="inc")
    inner = Sequence((gates.add_mod(4, "a", "c"), _step(3)), label="inner")
    return Sequence((
        gates.mul3(4, "a", "b", "c"),
        Controlled(("b",), frozenset({(1,)}), _step(5), label="c_step"),
        inner,
        Controlled(("b", "c"), frozenset({(1, 0), (0, 3), (1, 4)}), inc, label="cc_inc"),
        _big_by_a(),
        gates.transposition(0, 3, "a"),
        adjoint(inner),
    ), label="chain")


def chain_state(layout, rng, support=12):
    rows = set()
    while len(rows) < support:
        sub = (rng.randrange(4), rng.randrange(2), rng.randrange(5), rng.randrange(BIG))
        for d in rng.sample(range(3), rng.randrange(1, 4)):
            rows.add(sub + (d,))
    rows = sorted(rows)[:support]
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in rows]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return SparseState(layout, {k: a / norm for k, a in zip(rows, amps)})


def _spy_on_leaves(monkeypatch):
    """What a walk reaches: a permutation's label for each table it asks
    for, and (label, number of codes) for each evaluation."""
    reached = []
    table_for, evaluate = Permutation.table_for, hilbert._evaluate
    monkeypatch.setattr(Permutation, "table_for",
                        lambda gate, dims: reached.append(gate.label) or table_for(gate, dims))
    monkeypatch.setattr(hilbert, "_evaluate",
                        lambda gate, dims, codes, block: reached.append((gate.label, len(codes)))
                        or evaluate(gate, dims, codes, block))
    return reached


def test_fused_chain_matches_a_leaf_by_leaf_walk(monkeypatch):
    layout = chain_layout()
    rng = random.Random(41)
    chain = perm_chain()
    assert chain.permutes and all(not isinstance(g, Sequence) for g in chain.leaves)
    states = [chain_state(layout, rng) for _ in range(25)]
    reached = _spy_on_leaves(monkeypatch)
    for st in states:
        fused_ledger, walk_ledger = GateLedger(), GateLedger()
        reached.clear()
        out = apply(st, chain, fused_ledger)
        # every state holds a code the chain has not met, which walks the leaves
        assert "big+a" in reached
        ref = apply_all(st, chain.leaves, walk_ledger)
        assert out.entries == ref.entries
        assert fused_ledger.counts_by_class() == walk_ledger.counts_by_class() == {"arith": 9}
        assert fused_ledger.count("arith") == len(chain.leaves) == 9
        # the adjoint shares the table: undoing the chain reads it backwards
        assert apply(out, adjoint(chain)).entries == st.entries
    # the second time round every code is in the table, so no leaf runs
    reached.clear()
    for st in states:
        led = GateLedger()
        out = apply(st, chain, led)
        assert led.counts_by_class() == walk_ledger.counts_by_class()
        assert apply(out, adjoint(chain)).entries == st.entries
    assert reached == []
    (dims,) = chain.tables
    assert chain.code_registers == ("a", "b", "big", "c") and dims == (4, 2, BIG, 5)
    assert adjoint(chain).tables[dims] is chain.inv_tables[dims]


def _inc(reg, dim):
    return on_tuples((reg,), lambda v: ((v[0] + 1) % dim,), lambda v: ((v[0] - 1) % dim,),
                     label=f"inc_{reg}")


def _walk_cases():
    """(layout, chain, a state maker) per shape of chain the walk must handle."""
    one = chain_layout()
    one_states = functools.partial(chain_state, one)
    inner = Sequence((_inc("a", 4), _step(3), gates.add_mod(4, "a", "c")), label="inner")
    yield pytest.param(one, Sequence((
        gates.mul3(4, "a", "b", "c"),
        Controlled(("b",), frozenset({(1,)}), inner, label="c_inner"),
        Controlled(("b",), frozenset({(0,)}),
                   Controlled(("c",), frozenset({(1,), (3,)}),
                              Sequence((_step(5), adjoint(_inc("a", 4))))), label="cc_inner"),
        adjoint(inner),
    ), label="chain"), one_states, id="controlled-sequence")
    yield pytest.param(one, Sequence((
        Controlled(("b", "c"), frozenset({(1, 0), (0, 3), (1, 4), (1, 7)}), _inc("a", 4)),
        Controlled(("c", "a"), frozenset({(2, 1), (4, 0), (0, 3)}), _inc("b", 2)),
        gates.add_mod(5, "a", "c"),
    ), label="chain"), one_states, id="two-register-controls")
    yield pytest.param(one, Sequence((
        _big_by_a(), gates.transposition(0, 3, "a"), _step(BIG - 2),
        Controlled(("b",), frozenset({(1,)}), _big_by_a()),
    ), label="chain"), one_states, id="above-limit-leaf")
    # a, big in the first word; "pad" fills it, so c and e open the second
    two = RegisterLayout([Register("a", 4), Register("big", BIG), Register("pad", 1 << 40),
                          Register("c", 5), Register("e", 6)])
    assert two.width == 2
    yield pytest.param(two, Sequence((
        _big_by_a(), gates.add_mod(6, "c", "e"), gates.mul3(5, "a", "e", "c"),
        Controlled(("e",), frozenset({(2,), (5,)}), _inc("a", 4)), _step(7),
    ), label="chain"), lambda rng: SparseState(two, {
        (rng.randrange(4), rng.randrange(BIG), rng.randrange(1 << 40), rng.randrange(5),
         rng.randrange(6)): 1.0}), id="two-words")


@pytest.mark.parametrize("layout, chain, make", _walk_cases())
def test_chain_walk_matches_the_leaves_and_a_reference(layout, chain, make):
    rng = random.Random(53)
    assert chain.permutes
    for _ in range(12):
        st = make(rng)
        led, ref_led = GateLedger(), GateLedger()
        out = apply(st, chain, led)
        assert out.entries == apply_all(st, chain.leaves, ref_led).entries
        assert out.entries == _ref_gate(layout, st.entries, chain)
        assert led.counts_by_class() == ref_led.counts_by_class()
        assert led.counts_by_class() == {"arith": len(chain.leaves)}
        assert apply(out, adjoint(chain)).entries == st.entries
    (dims,) = chain.tables
    assert dims == tuple(layout.dim(r) for r in chain.code_registers)
    assert {v: k for k, v in chain.tables[dims].items()} == chain.inv_tables[dims]


def test_one_new_chain_code_on_two_rows_walks_once(monkeypatch):
    # the two rows differ only in "d", off the chain: one code, one walk
    layout = chain_layout()
    chain = perm_chain()
    st = SparseState(layout, {(1, 1, 2, 10, 0): 0.6, (1, 1, 2, 10, 2): 0.8j})
    reached = _spy_on_leaves(monkeypatch)
    out = apply(st, chain)
    (memo,) = chain.tables.values()
    assert len(memo) == 1 and [r for r in reached if "big+a" in r] == ["big+a", ("big+a", 1)]
    assert out.entries == _ref_gate(layout, st.entries, chain)
    assert out.entries == apply_all(st, chain.leaves).entries
    assert apply(out, adjoint(chain)).entries == st.entries


def test_ledger_counts_by_class_match_a_recount_of_its_entries(monkeypatch):
    ledgers = []

    class Recorded(GateLedger):
        """Also lists the cost class of every leaf it is handed."""

        def __init__(self):
            super().__init__()
            self.classes = []
            ledgers.append(self)

        def record(self, gate):
            super().record(gate)
            leaves = gate.leaves if isinstance(gate, Sequence) else (gate,)
            self.classes += [leaf.cost_class for leaf in leaves]

    monkeypatch.setattr(driver, "GateLedger", Recorded)
    rep = driver.run_experiment(driver.ExperimentConfig(p=13, hidden_s=7))
    main, demo = ledgers
    for led in ledgers:
        recount = Counter(led.classes)
        assert led.counts_by_class() == recount
        assert all(led.count(cls) == n for cls, n in recount.items())
    assert demo.count("oracle-call") == 0 and demo.count("qft") > 0
    assert rep.gate_counts == main.counts_by_class()
    assert rep.dlog_demo["gate_counts"] == demo.counts_by_class()
    assert rep.oracle_calls_total == main.count("oracle-call") > 0


def _gate_tree(gate):
    yield gate
    if isinstance(gate, Sequence):
        for g in gate.gates:
            yield from _gate_tree(g)
    elif isinstance(gate, Controlled):
        yield from _gate_tree(gate.inner)


def test_sequence_permutes_agrees_with_its_leaves(monkeypatch):
    applied = []
    monkeypatch.setattr(hilbert, "apply",
                        lambda st, gate, led=None: applied.append(gate) or apply(st, gate, led))
    driver.run_experiment(driver.ExperimentConfig(p=13, hidden_s=7))
    kit = dlog_pipeline.pipeline_kit(make_group_spec(13))
    roots = applied + [g for key in ("stage1", "amp1", "mid", "amp2", "tail") for g in kit[key]]
    seqs = {id(g): g for root in roots for g in _gate_tree(root) if isinstance(g, Sequence)}
    labels = {seq.label for seq in seqs.values()}
    assert {"AUX_ORACLE_0", "AUX_ORACLE_1", "C_t", "REDUCE_0", "U_T2"} <= labels
    verdicts = set()
    for seq in seqs.values():
        verdicts.add(seq.permutes)
        assert seq.permutes == all(leaf.permutes for leaf in seq.leaves), seq.label
    assert verdicts == {True, False}


def wide_layout():
    # "h" and "k" fill a word of their own, so the registers' product passes CODE_LIMIT
    return RegisterLayout([Register("a", 4), Register("b", 2),
                           Register("c", 5), Register("big", BIG),
                           Register("h", 1 << 40), Register("k", 1 << 30)])


def test_chain_past_the_code_limit_keeps_its_own_memo():
    layout = wide_layout()
    far = on_tuples(("h",), lambda v: ((v[0] + 7) % (1 << 40),),
                    lambda v: ((v[0] - 7) % (1 << 40),), label="far")
    chain = Sequence((perm_chain(), far, Controlled(("b",), frozenset({(0,)}), _step(1)),
                      gates.set_const(1, "k", 1 << 30)), label="wide")
    assert chain.permutes and layout.width == 3
    assert math.prod(layout.dim(r) for r in chain.code_registers) >= CODE_LIMIT
    rng = random.Random(43)
    for _ in range(10):
        rows = {(rng.randrange(4), rng.randrange(2), rng.randrange(5), rng.randrange(BIG),
                 rng.randrange(1 << 40), rng.randrange(3)) for _ in range(8)}
        st = SparseState(layout, {k: 1 / math.sqrt(len(rows)) for k in rows})
        led, ref_led = GateLedger(), GateLedger()
        out = apply(st, chain, led)
        assert out.entries == apply_all(st, chain.leaves, ref_led).entries
        assert led.counts_by_class() == ref_led.counts_by_class()
        assert apply(out, adjoint(chain)).entries == st.entries
    # too wide for one flat code, but keyed by digits the whole chain is one
    # memo, so the nested chain never runs on its own
    (dims,) = chain.tables
    assert dims == (4, 2, BIG, 5, 1 << 40, 1 << 30) and chain.gates[0].tables == {}
    assert {v: k for k, v in chain.tables[dims].items()} == chain.inv_tables[dims]
    with pytest.raises(SimulationError, match="too large"):
        apply(st, on_tuples(("h", "k"), lambda v: v, lambda v: v, label="wide_perm"))


def test_chain_refuses_a_leaf_too_wide_for_a_flat_code():
    # at the top of h and k the leaf's walked code would pass int64, so the
    # chain refuses the leaf as the leaf alone is refused, before any walk
    layout = wide_layout()
    wide = on_tuples(("h", "k"), lambda v: v, lambda v: v, label="wide_perm")
    chain = Sequence((_step(1), wide), label="wide_chain")
    st = SparseState.basis(layout, {"h": (1 << 40) - 1, "k": (1 << 30) - 1})
    for gate in (wide, chain):
        with pytest.raises(SimulationError,
                           match=r"^wide_perm: domain \(1099511627776, 1073741824\) too large"):
            apply(st, gate)
    assert chain.tables == {} and chain.inv_tables == {} and chain.steps == {}


def test_a_two_word_chain_walks_a_row_once(monkeypatch):
    layout, chain, make = next(case.values for case in _walk_cases() if case.id == "two-words")
    walks = []
    walk = hilbert._walk
    monkeypatch.setattr(hilbert, "_walk", lambda steps, rows: walks.append(len(rows))
                        or walk(steps, rows))
    st = make(random.Random(5))
    out = apply(st, chain)
    assert layout.width == 2 and walks
    (memo,) = chain.tables.values()
    assert list(memo) == [tuple(layout.unpack(st.words)[0, [0, 1, 3, 4]].tolist())]
    count = len(walks)
    assert apply(st, chain).entries == out.entries and len(walks) == count


def test_a_controlled_permutation_moves_its_hot_rows_in_place():
    layout = small_layout()
    st = random_state(layout, random.Random(7), support=10)
    gate = Controlled(("b",), frozenset({(1,)}), _inc("a", 4), label="c_inc")
    hot = st.column("b") == 1
    assert hot.any() and not hot.all()
    out = apply(st, gate)
    assert out.amps is st.amps
    assert (out.words[~hot] == st.words[~hot]).all()
    assert (out.column("a")[hot] == (st.column("a")[hot] + 1) % 4).all()
    assert out.entries == _ref_gate(layout, st.entries, gate)


def test_rowwise_gate_calls_fn_and_inv_on_every_row_of_every_application():
    layout = chain_layout()
    calls = {"fn": 0, "inv": 0}

    def fn(v):
        calls["fn"] += 1
        return ((v[0] * 3 + 1) % BIG,)

    def inv(v):
        calls["inv"] += 1
        return (((v[0] - 1) * pow(3, -1, BIG)) % BIG,)

    gate = on_tuples(("big",), fn, inv, label="affine")
    # five rows, three distinct values of the gate's register
    st = SparseState(layout, {(0, 0, 0, 10, 0): 0.2, (1, 0, 0, 10, 1): 0.4, (0, 1, 0, 11, 0): 0.4,
                              (2, 0, 4, 12, 2): 0.6, (0, 0, 0, 12, 1): 0.529150262212918})
    out = apply(st, gate)
    assert calls == {"fn": 5, "inv": 5}
    assert out.entries == {k[:3] + ((k[3] * 3 + 1) % BIG,) + k[4:]: a
                           for k, a in st.entries.items()}
    # nothing is kept, so the check never lapses: every application checks
    # every row again, and so does the adjoint, with fn and inv swapped
    again = apply(st, gate)
    assert calls == {"fn": 10, "inv": 10} and again.entries == out.entries
    assert apply(out, adjoint(gate)).entries == st.entries
    assert calls == {"fn": 15, "inv": 15}
    assert gate.tables == {} and gate.inv_tables == {}


def test_rowwise_gate_checks_every_block_up_to_the_last():
    # more rows than one block, and the only row that inv does not lead back
    # sits in the last block
    n = hilbert.ROW_BLOCK + 5
    layout = RegisterLayout([Register("big", BIG)])
    sizes = []

    def fn(cols):
        sizes.append(cols.shape[1])
        return (cols + 1) % BIG

    def inv(cols):
        back = (cols - 1) % BIG
        back[cols == n] = 0  # wrong for the image of the last row, n - 1, only
        return back

    gate = Permutation(("big",), fn, inv, label="late")
    st = SparseState(layout, {(k,): 1 / math.sqrt(n) for k in range(n)})
    with pytest.raises(SimulationError, match=rf"^late: inverse mismatch at \({n - 1},\)"):
        apply(st, gate)
    assert sizes == [hilbert.ROW_BLOCK, 5]
    assert gate.tables == {} and gate.inv_tables == {}


def test_rowwise_permutation_refuses_a_broken_inverse():
    layout = chain_layout()
    liar = on_tuples(("big",), lambda v: ((v[0] + 1) % BIG,), lambda v: v, label="liar")
    with pytest.raises(SimulationError, match="inverse mismatch"):
        apply(SparseState.basis(layout, {"big": 9}), liar)
    # a refused application leaves nothing behind
    assert liar.tables == {}


def test_chain_memo_refuses_a_walk_onto_a_held_image():
    # a memo that already sends digits (5,) to (18,), where the walk from 10
    # lands (+3, then +5): the new image is checked before any entry goes in
    layout = chain_layout()
    chain = Sequence((_step(3), _step(5)), label="pair")
    chain.tables[(BIG,)], chain.inv_tables[(BIG,)] = {(5,): (18,)}, {(18,): (5,)}
    with pytest.raises(SimulationError, match="^pair: not injective"):
        apply(SparseState.basis(layout, {"big": 10}), chain)
    assert chain.tables == {(BIG,): {(5,): (18,)}} and chain.inv_tables == {(BIG,): {(18,): (5,)}}
    # the adjoint reads the same dicts swapped
    assert adjoint(chain).tables[(BIG,)] is chain.inv_tables[(BIG,)]


def test_chain_walk_refuses_an_above_limit_leaf_whose_inverse_lies():
    # the walk hands the leaf's codes to the one evaluator, which checks them:
    # +3 takes code 10 to 13, where the liar's inv fails to lead 14 back
    layout = chain_layout()
    liar = on_tuples(("big",), lambda v: ((v[0] + 1) % BIG,), lambda v: v, label="liar")
    chain = Sequence((_step(3), Controlled(("b",), frozenset({(0,)}), liar)), label="lying")
    with pytest.raises(SimulationError, match=r"^liar: inverse mismatch at \(13,\)"):
        apply(SparseState.basis(layout, {"big": 10}), chain)
    assert chain.tables == {} and chain.inv_tables == {}
    assert liar.tables == {} and liar.inv_tables == {}


@pytest.mark.parametrize("fn, inv, message", [
    (lambda v, m: v + 1, lambda v, m: v - 1, "outside domain"),
    (lambda v, m: v // 2, lambda v, m: v * 2, "not injective"),
    (lambda v, m: (v + 1) % m, lambda v, m: v, "inverse mismatch"),
], ids=["image-out-of-range", "not-injective", "inverse-disagrees"])
@pytest.mark.parametrize("form", ["columns", "tuples"])
def test_permutations_refuse_a_broken_map(fn, inv, message, form):
    # refused on both paths, a compiled table and a row-wise evaluation above
    # the check limit, with one message, as one evaluator checks both;
    # whether the map is one numpy call on the register columns or a map on
    # basis tuples through the builders' adapter, where it moves the last
    # register as a builder moves its target
    def gate(regs, m):
        if form == "columns":
            return Permutation(regs, lambda v: fn(v, m), lambda v: inv(v, m), label="broken")
        return on_tuples(regs, lambda v: v[:-1] + (fn(v[-1], m),),
                         lambda v: v[:-1] + (inv(v[-1], m),), label="broken")

    small = gate(("a", "b"), 4)
    layout = RegisterLayout([Register("a", 4), Register("b", 4)])
    assert 16 <= EXHAUSTIVE_CHECK_LIMIT  # compiled, not evaluated row by row
    with pytest.raises(SimulationError, match=f"^broken: .*{message}"):
        apply(SparseState.basis(layout, {"b": 1}), small)
    assert small.tables == {} and small.inv_tables == {}
    big = gate(("big",), BIG)
    st = SparseState(chain_layout(), {(0, 0, 0, k, 0): 1 / math.sqrt(3) for k in (4, 5, BIG - 1)})
    with pytest.raises(SimulationError, match=f"^broken: .*{message}"):
        apply(st, big)
    assert big.tables == {}


def _raises(error):
    def refuse(cols):
        raise error("refused")
    return refuse


@pytest.mark.parametrize("broken", [
    _raises(ValueError), _raises(TypeError), _raises(OverflowError), lambda cols: cols[0],
], ids=["value-error", "type-error", "overflow-error", "wrong-shape"])
@pytest.mark.parametrize("side", ["fn", "inv"])
def test_permutations_refuse_a_map_that_raises_or_misshapes(broken, side):
    # the evaluator turns a map's own refusal or a misshapen answer into its
    # own: from fn an image outside the domain, from inv an inverse mismatch;
    # on a compiled table and row-wise above the check limit alike
    message = "image outside domain" if side == "fn" else r"inverse mismatch at \(\d+,\)"
    maps = (broken, lambda cols: cols) if side == "fn" else (lambda cols: cols, broken)
    small = Permutation(("a",), *maps, label="broken")
    with pytest.raises(SimulationError, match=f"^broken: {message}"):
        apply(SparseState.basis(RegisterLayout([Register("a", 4)]), {"a": 1}), small)
    assert small.tables == {} and small.inv_tables == {}
    big = Permutation(("big",), *maps, label="broken")
    st = SparseState(chain_layout(), {(0, 0, 0, k, 0): 1 / math.sqrt(3) for k in (4, 5, BIG - 1)})
    with pytest.raises(SimulationError, match=f"^broken: {message}"):
        apply(st, big)
    assert big.tables == {}


def test_compile_checks_the_inverse_on_the_whole_domain():
    # fn swaps (0, 1) and (0, 2), a bijection, and inv is the identity: only
    # codes 1 and 2 are wrong, and a sample of the domain can miss both
    swap = {(0, 1): (0, 2), (0, 2): (0, 1)}
    liar = on_tuples(("a", "b"), lambda v: swap.get(v, v), lambda v: v, label="liar")
    with pytest.raises(SimulationError, match=r"^liar: inverse mismatch at \(0, 1\)"):
        liar.table_for((64, 64))
    assert liar.tables == {} and liar.inv_tables == {}


def test_compile_refuses_a_collision_across_slices():
    # (0, 0) and (1, 0) share an image, and each lies in its own slice of the
    # leading register: the first slice passes, the second is refused
    merge = on_tuples(("a", "b"), lambda v: (0, 0) if v == (1, 0) else v, lambda v: v,
                      label="merge")
    with pytest.raises(SimulationError, match="^merge: not injective"):
        merge.table_for((4, 4))
    assert merge.tables == {} and merge.inv_tables == {}


def test_rowwise_inverse_must_lead_back_to_the_same_code():
    # fn sends 0 and 1 to 5 and inv(5) = 1: the collision lies off the
    # support, so only inv(fn(0)) != 0 shows that |0> must not move to |5>
    layout = RegisterLayout([Register("big", 2 * EXHAUSTIVE_CHECK_LIMIT)])
    merge = on_tuples(("big",), lambda v: (5,) if v[0] in (0, 1) else v,
                      lambda v: (1,) if v == (5,) else v, label="merge")
    with pytest.raises(SimulationError, match=r"merge: inverse mismatch at \(0,\)"):
        apply(SparseState.basis(layout), merge)


def test_norm_is_checked_only_where_amplitudes_change(monkeypatch):
    # a permutation hands back the input's own frozen amplitude array, whose
    # norm cannot have moved; a gate that returns new amplitudes is checked
    st = random_state(small_layout(), random.Random(3))
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(len(a)) or norm(a))
    out = apply(st, gates.transposition(0, 3, "a"))
    assert out.amps is st.amps and calls == []
    apply(st, gates.qft(4, "a"))
    assert len(calls) == 2
    monkeypatch.setattr(hilbert, "_apply_local",
                        lambda layout, keys, amps, gate: (keys, 2 * amps))
    with pytest.raises(SimulationError, match="norm drifted"):
        apply(st, gates.qft(4, "a"))


def test_apply_reads_its_inputs_norm_from_the_apply_that_made_it(monkeypatch):
    # each apply computes the norm of its output only, and hands it on
    # through the state, permutations included; the refusal is unchanged
    st = random_state(small_layout(), random.Random(3))
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(len(a)) or norm(a))
    once = apply(st, gates.qft(4, "a"))
    moved = apply(once, gates.transposition(0, 3, "a"))
    twice = apply(moved, gates.qft(4, "a"))
    assert len(calls) == 3  # the input's, the first output's and the second's
    assert twice._l2 == float(norm(twice.amps)) and moved._l2 == once._l2
    monkeypatch.setattr(hilbert, "_apply_local",
                        lambda layout, keys, amps, gate: (keys, 2 * amps))
    before = float(norm(twice.amps))
    with pytest.raises(SimulationError, match=re.escape(f"norm drifted {before} -> ")):
        apply(twice, gates.qft(4, "a"))
