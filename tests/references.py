"""Reference constructions the tests compare the library against.

None of these is reached by a run: the driver and the pipeline use the
builders in `cycsim`.  They are the paper's formulas and procedures written
out directly (the procedural pulse model, the closed-form halting record,
the Q_n operator, the CRT residues, a search trial as seven separate
gates), plus the arithmetic constructors the unitarity checks exercise
beyond the ones a run builds, and the one check that holds a gate's
compiled tables against a reference map.
"""

import itertools
import math

import numpy as np

from cycsim import gates, hilbert
from cycsim import halting_program as hp
from cycsim.hilbert import (GateOp, LocalUnitary, Register, RegisterLayout, SparseState, adjoint,
                            apply)
from cycsim.mq_circuits import SpinConventions, u_ny_exact
from cycsim.numtheory import (CrtBasis, CyclicGroupSpec, DomainError, Factorization,
                              find_primitive_root)

# --- state and number-theory readers -------------------------------------------

def is_basis_state(state: SparseState) -> bool:
    return state.support_size == 1


def sole_tuple(state: SparseState) -> tuple[int, ...]:
    """The basis tuple of a state with one row of support."""
    if not is_basis_state(state):
        raise hilbert.SimulationError("state is a superposition, not a single basis state")
    return tuple(state.layout.unpack(state.words)[0].tolist())


def prime_powers(f: Factorization) -> tuple[int, ...]:
    return tuple(p**a for p, a in f.factors)


def moduli(basis: CrtBasis) -> tuple[int, ...]:
    return tuple(c.m for c in basis.components)


# --- gates against reference maps --------------------------------------------

def assert_tables_match(gate, ref, dims, label):
    """The gate's compiled table, and the inverse one its adjoint reads, equal
    the tables of `ref`, a map on basis tuples, enumerated over the whole
    domain `dims`."""
    assert gate.label == label
    images = [ref(v) for v in itertools.product(*map(range, dims))]
    want = np.ravel_multi_index(np.array(images).T, dims)
    want_inv = np.empty_like(want)
    want_inv[want] = np.arange(len(want))
    assert np.array_equal(gate.table_for(dims), want), label
    assert np.array_equal(gate.inv_tables[dims], want_inv), label
    assert np.array_equal(adjoint(gate).table_for(dims), want_inv), label


# --- number theory -----------------------------------------------------------

def element_of_order(m: int, p: int) -> int:
    """An element of exact multiplicative order m mod p; requires m | p-1."""
    if (p - 1) % m != 0:
        raise DomainError(f"{m} does not divide {p - 1}")
    g = find_primitive_root(p)
    return pow(g, (p - 1) // m, p)


def crt_decompose(s: int, basis: CrtBasis) -> tuple[int, ...]:
    if not 0 <= s < basis.modulus:
        raise DomainError(f"{s} outside Z_{basis.modulus}")
    return tuple(s % c.m for c in basis.components)


# --- arithmetic and Fourier gates --------------------------------------------

def mul_const(a: int, N: int, reg: str) -> GateOp:
    """|x> -> |x*a mod N> for x < N; refuses construction unless gcd(a, N) = 1."""
    if math.gcd(a, N) != 1:
        raise DomainError(f"mul_const({a}, {N}): multiplier not coprime, not unitary")
    return gates._scale((reg,), N, lambda: a, f"MUL_{a}_{N}")


def mod_reduce(m: int, src: str, dst: str, dst_dim: int) -> GateOp:
    """|s>|t> -> |s>|(t + s mod m) mod d> for t < d: loads the residue of s into
    a zero target."""
    return gates._accumulate((src, dst), dst_dim, lambda s: s % m, f"MOD_{m}")


def cond_mod_exp_two_reg(a: int, L: int, ctrl: str, tgt: str) -> GateOp:
    """|x>|y> -> |x>|y * a**x mod L> for y < L; requires gcd(a, L) = 1.  For a
    generator g of Z_p^* and L = p this is `gates.cyclic_shift(p, g, tgt,
    control=ctrl)`, as g**(p-1) = 1."""
    if math.gcd(a, L) != 1:
        raise DomainError(f"cond_mod_exp two_reg: gcd({a},{L}) != 1, not unitary")
    return gates._scale((ctrl, tgt), L, lambda x: pow(a, x, L), f"CEXP_{a}_{L}")


def cond_mod_exp_three_reg(a: int, L: int, ctrl: str, mul: str, tgt: str) -> GateOp:
    """|x>|y>|z> -> |x>|y>|(z + y*a**x) mod L> for z < L; unitary for any a."""
    return gates._accumulate((ctrl, mul, tgt), L, lambda x, y: y * pow(a, x, L),
                             f"CEXP3_{a}_{L}")


def cond_mod_exp_two_var(b: int, a: int, L: int, x_reg: str, y_reg: str, tgt: str) -> GateOp:
    """|x>|y>|z> -> |x>|y>|(z + b**x * a**y) mod L> for z < L."""
    return gates._accumulate((x_reg, y_reg, tgt), L,
                             lambda x, y: pow(b, x, L) * pow(a, y, L), f"CEXP2V_{b}_{a}_{L}")


def functional_qft(f, r: int, reg: str, dim: int) -> GateOp:
    """Fourier transform conjugated into the image basis of an injective f:
    |f(l)> -> (1/sqrt r) sum_k exp(+i 2 pi k l / r)|f(k)>."""
    image = [f(x) for x in range(r)]
    if any(not 0 <= v < dim for v in image):
        raise DomainError("function image outside the register")
    # refuses a non-injective f: the image would repeat a value
    relabel = gates.pairing_permutation(list(range(r)), image, reg, "UF_RELABEL")
    return hilbert.Sequence((hilbert.adjoint(relabel), gates.qft(r, reg), relabel),
                            label=f"FQFT_{r}")


# --- multiple-quantum operators ----------------------------------------------

# single-qubit ladder operators and I_y, placed on qubit k by `SpinConventions.single`
IPLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # I+|1> = |0>
IMINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # I-|0> = |1>
IY = (IPLUS - IMINUS) / 2j


def q_n_operator(n: int, axis: str) -> np.ndarray:
    """Hermitian operator coupling only |00...0> and |11...1>."""
    spins = SpinConventions(n)
    up = spins.product_chain(lambda k: spins.single(k, IPLUS))
    down = spins.product_chain(lambda k: spins.single(k, IMINUS))
    if axis == "x":
        return (up + down) / 2
    if axis == "y":
        return (up - down) / 2j
    raise DomainError(f"axis must be x or y, got {axis!r}")


def seven_gate_trial(state: SparseState, spec: CyclicGroupSpec, search: str, comp: str, x: int,
                     red: GateOp, base: GateOp, ledger: hilbert.GateLedger) -> SparseState:
    """Search trial x on register `search` as seven gates, each applied on its
    own, from gates built afresh: the half rotation, the dressing f1 and
    shift_x, the auxiliary oracle (swap, red+, base, red, swap) for the
    component in register `comp`, the dressing's adjoints in reverse, and the
    half rotation's adjoint."""
    n = spec.p.bit_length()
    half = u_ny_exact(n, math.pi / 4, search)
    f1 = gates.transposition(0, 1, search)
    shift = gates.cyclic_shift(spec.p, spec.subgroup_generators[-1], search, power=x)
    swap = gates.swap_regs(search, comp)
    aux = hilbert.Sequence((swap, adjoint(red), base, red, swap), label="AUX_ORACLE")
    return hilbert.apply_all(
        state, (half, f1, shift, aux, adjoint(shift), adjoint(f1), adjoint(half)), ledger)


# --- the halting program -----------------------------------------------------

def make_qp_layout(config: hp.ProgramConfig) -> RegisterLayout:
    regs, n_dim = hp.QpRegs(), gates.register_dim(config.p)
    return RegisterLayout([
        Register(regs.nh, 2),
        Register(regs.bh, config.branch_dim),
        Register(regs.f, n_dim),
        Register(regs.g, n_dim),
        Register(regs.rec, config.record_dim),
    ])


def qp_gate_reference(config: hp.ProgramConfig, regs: hp.QpRegs,
                      pulse: hp.PulseModel | None) -> GateOp:
    """The halting program written out unit by unit, with the trailing check
    spelled out on its own and a leak built for each halting event: the
    sequence `hp.qp_gate` must build, gate for gate."""
    leaky = pulse is not None and pulse.epsilon > 0.0
    seq = []
    u_b, u_g, u_rc = hp._unit_gates(config, regs)
    for i in range(1, config.m_r + 1):
        seq.append(u_b)
        seq.append(hp._halt_gate(i, regs.g, regs.nh, regs.rec))
        if leaky:
            seq.append(hilbert.Controlled((regs.rec,), frozenset({(i,)}),
                                          hp._leak_gate(config, pulse, regs.g), label="P_SL"))
        seq.append(u_g)
        seq.append(u_rc)
    seq.append(u_b)
    seq.append(hp._halt_gate(config.m_r + 1, regs.g, regs.nh, regs.rec))
    if leaky:
        seq.append(hilbert.Controlled((regs.rec,), frozenset({(config.m_r + 1,)}),
                                      hp._leak_gate(config, pulse, regs.g), label="P_SL"))
    return hilbert.Sequence(tuple(seq), label="Q_p")


def assert_same_gate(gate, ref, layout):
    """`gate` and `ref` are the same gate on `layout`: the same kind, label
    and registers, with equal compiled tables (both ways), matrices, phases,
    controls, or parts."""
    assert type(gate) is type(ref) and gate.label == ref.label, (gate.label, ref.label)
    assert gate.registers() == ref.registers() and gate.cost_class == ref.cost_class, gate.label
    if isinstance(gate, hilbert.Permutation):
        dims = tuple(layout.dim(r) for r in gate.regs)
        assert np.array_equal(gate.table_for(dims), ref.table_for(dims)), gate.label
        assert np.array_equal(gate.inv_tables[dims], ref.inv_tables[dims]), gate.label
    elif isinstance(gate, LocalUnitary):
        assert np.array_equal(gate.matrix, ref.matrix), gate.label
    elif isinstance(gate, hilbert.PhaseFn):
        assert gate.angles == ref.angles, gate.label
    elif isinstance(gate, hilbert.Controlled):
        assert gate.on == ref.on, gate.label
        assert_same_gate(gate.inner, ref.inner, layout)
    else:
        assert len(gate.gates) == len(ref.gates), gate.label
        for part, ref_part in zip(gate.gates, ref.gates):
            assert_same_gate(part, ref_part, layout)


def expected_record(x: int, y: int, m_r: int) -> int:
    """Closed form for the halting step, from the unit-by-unit trace: y = 0
    halts at step 1; otherwise the pair transposition fires at the unique step
    k = -(x+y) mod m_r in {1..m_r} and the statement fires one unit later."""
    if y % m_r == 0:
        return 1
    k = (-(x + y)) % m_r
    if k == 0:
        k = m_r
    return k + 1


def run_qc(state: SparseState, config: hp.ProgramConfig,
           pulse: hp.PulseModel) -> tuple[SparseState, dict]:
    """Circuit variant: trigger pulse moves the cleared pair state through the
    control level; the locking pulse converts it down, leaving epsilon behind.

    Time-dependent pulse control is simulated procedurally (single-basis input
    only); with epsilon = 0 the register contents reproduce the program output
    exactly.  Returns the state and a report with the fidelity to the ideal
    output.
    """
    if not is_basis_state(state):
        raise hilbert.SimulationError("circuit input must be a single basis state")
    regs, lay = hp.QpRegs(), state.layout
    x_val = sole_tuple(state)[lay.index(regs.f)]
    g_dim = lay.dim(regs.g)
    c = config.control_value

    # locking conversion c -> 0 with residue eps left on c (phase gamma): the
    # leak with columns 0 and c exchanged
    cols = np.arange(g_dim)
    cols[[0, c]] = c, 0
    lock = hp._leak_gate(config, pulse, regs.g).matrix[:, cols]
    lock_gate = LocalUnitary(regs.g, lock, label="P_SL")

    u_b, u_g, u_rc = hp._unit_gates(config, regs)
    p_t = gates.transposition(1, c, regs.g)

    locked = False
    at_c = np.arange(g_dim) == c

    def locking_due(s: SparseState) -> bool:
        return s.weight_where(regs.g, at_c) > 0.0

    for _ in range(config.m_r):
        state = apply(state, u_b)
        if not locked:
            state = apply(state, p_t)
            if locking_due(state):
                state = apply(state, lock_gate)
                locked = True
        state = apply(state, u_g)
        state = apply(state, u_rc)
    state = apply(state, u_b)
    if not locked:
        state = apply(state, p_t)
        if locking_due(state):
            state = apply(state, lock_gate)
            locked = True

    ideal = {regs.bh: 1, regs.f: x_val, regs.g: 0}
    ideal_state = SparseState.basis(lay, ideal)
    fid = hilbert.fidelity(state, ideal_state)
    return state, {"fidelity": fid, "locked": locked, "epsilon": pulse.epsilon}
