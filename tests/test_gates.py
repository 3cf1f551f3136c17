import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from references import (assert_tables_match, cond_mod_exp_three_reg, cond_mod_exp_two_reg,
                        cond_mod_exp_two_var, functional_qft, mod_reduce, mul_const, sole_tuple)
from cycsim import dlog_pipeline, gates, hilbert
from cycsim.hilbert import Register, RegisterLayout, SparseState, adjoint, apply
from cycsim.numtheory import DomainError, find_primitive_root, is_prime, make_group_spec


def layout2(d1=8, d2=8):
    return RegisterLayout([Register("r1", d1), Register("r2", d2)])


def layout3(d=16):
    return RegisterLayout([Register("r1", d), Register("r2", d), Register("r3", d)])


def as_basis(layout, **vals):
    return SparseState.basis(layout, vals)


def reg_val(state, name):
    return sole_tuple(state)[state.layout.index(name)]


def test_add_mod_example():
    lay = layout2()
    out = apply(as_basis(lay, r1=3, r2=4), gates.add_mod(5, "r1", "r2"))
    assert reg_val(out, "r2") == 2  # (3+4) mod 5


def test_copy_and_subtraction():
    lay = layout2()
    cp = gates.add_mod(8, "r1", "r2")
    out = apply(as_basis(lay, r1=5), cp)
    assert reg_val(out, "r2") == 5
    back = apply(out, adjoint(cp))
    assert reg_val(back, "r2") == 0


def test_mul3_example():
    lay = layout3()
    out = apply(as_basis(lay, r1=3, r2=4), gates.mul3(13, "r1", "r2", "r3"))
    assert reg_val(out, "r3") == 12


def test_mod_reduce():
    lay = layout2(16, 16)
    out = apply(as_basis(lay, r1=7), mod_reduce(3, "r1", "r2", 16))
    assert reg_val(out, "r2") == 1  # 7 mod 3


def test_swap_and_set():
    lay = layout2()
    out = apply(as_basis(lay, r1=2, r2=6), gates.swap_regs("r1", "r2"))
    assert (reg_val(out, "r1"), reg_val(out, "r2")) == (6, 2)
    out = apply(as_basis(lay), gates.set_const(3, "r1", 8))
    assert reg_val(out, "r1") == 3
    with pytest.raises(DomainError):
        gates.set_const(8, "r1", 8)


def test_transposition_fixes_top():
    lay = layout2()
    f1 = gates.transposition(0, 1, "r1")
    assert reg_val(apply(as_basis(lay, r1=0), f1), "r1") == 1
    assert reg_val(apply(as_basis(lay, r1=7), f1), "r1") == 7  # top untouched


def test_mul_const():
    lay = layout2()
    assert reg_val(apply(as_basis(lay, r1=3), mul_const(2, 5, "r1")), "r1") == 1
    assert reg_val(apply(as_basis(lay, r1=5), mul_const(3, 7, "r1")), "r1") == 1
    ident = mul_const(1, 7, "r1")
    assert reg_val(apply(as_basis(lay, r1=4), ident), "r1") == 4
    with pytest.raises(DomainError):
        mul_const(2, 6, "r1")  # shared factor: not unitary
    # inverse via the modular inverse multiplier
    g = mul_const(3, 7, "r1")
    ginv = mul_const(pow(3, -1, 7), 7, "r1")
    st = as_basis(lay, r1=4)
    assert apply(apply(st, g), ginv).entries == st.entries


def test_cond_mod_exp_variants():
    lay = layout3()
    two = cond_mod_exp_two_reg(2, 5, "r1", "r2")
    out = apply(as_basis(lay, r1=3, r2=1), two)
    assert reg_val(out, "r2") == 3  # 1*2^3 mod 5
    with pytest.raises(DomainError):
        cond_mod_exp_two_reg(2, 6, "r1", "r2")
    three = cond_mod_exp_three_reg(2, 6, "r1", "r2", "r3")
    out = apply(as_basis(lay, r1=2, r2=1), three)
    assert reg_val(out, "r3") == 4  # 1*2^2 mod 6 (non-coprime base allowed)
    twov = cond_mod_exp_two_var(11, 2, 13, "r1", "r2", "r3")
    out = apply(as_basis(lay, r1=1, r2=1), twov)
    assert reg_val(out, "r3") == 9  # 11*2 mod 13


def test_pow_const_zero_base():
    lay = layout2(16, 16)
    g = gates.pow_const(3, 12, "r1", "r2")
    assert reg_val(apply(as_basis(lay, r1=0), g), "r2") == 0  # 0^e = 0
    assert reg_val(apply(as_basis(lay, r1=5), g), "r2") == pow(5, 3, 12)


def test_group_mul_acc():
    lay = layout2(16, 16)
    g = gates.group_mul_acc(13, "r1", "r2")
    out = apply(as_basis(lay, r1=3, r2=5), g)
    assert reg_val(out, "r2") == 2  # 15 mod 13
    # fixes values outside the group
    out = apply(as_basis(lay, r1=3, r2=0), g)
    assert reg_val(out, "r2") == 0


def test_cyclic_shift_examples():
    lay = layout2(16, 16)
    g = gates.cyclic_shift(13, 2, "r2")
    assert reg_val(apply(as_basis(lay, r2=1), g), "r2") == 2
    assert reg_val(apply(as_basis(lay, r2=11), g), "r2") == 9  # 22 mod 13
    assert reg_val(apply(as_basis(lay, r2=0), g), "r2") == 0   # fixes 0
    assert reg_val(apply(as_basis(lay, r2=14), g), "r2") == 14  # fixes padding
    ginv = gates.cyclic_shift(13, pow(2, 11, 13), "r2")
    st = as_basis(lay, r2=7)
    assert apply(apply(st, g), ginv).entries == st.entries


def test_cyclic_shift_generator_order():
    lay = layout2(16, 16)
    g = gates.cyclic_shift(13, 2, "r2")
    st = as_basis(lay, r2=5)
    for _ in range(12):
        st = apply(st, g)
    assert reg_val(st, "r2") == 5


def test_cyclic_shift_conditional():
    lay = layout2(16, 16)
    g = gates.cyclic_shift(13, 2, "r2", power=1, control="r1")
    out = apply(as_basis(lay, r1=3, r2=2), g)
    assert reg_val(out, "r2") == (2 * pow(2, 3, 13)) % 13


def test_qft_small_cases():
    lay = layout2(4, 4)
    out = apply(as_basis(lay), gates.qft(2, "r1"))
    i1 = lay.index("r1")
    amps = {k[i1]: a for k, a in out.entries.items()}
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(amps[1] - 1 / math.sqrt(2)) < 1e-12
    # N=3 with +i convention
    out = apply(as_basis(lay, r1=1), gates.qft(3, "r1"))
    amps = {k[i1]: a for k, a in out.entries.items()}
    for k in range(3):
        want = cmath.exp(2j * math.pi * k / 3) / math.sqrt(3)
        assert abs(amps[k] - want) < 1e-12
    q = gates.qft(3, "r1")
    st = as_basis(lay, r1=2)
    assert hilbert.fidelity(apply(apply(st, q), adjoint(q)), st) > 1 - 1e-12


def test_qft_flags_out_of_domain_support():
    lay = layout2(8, 8)
    st = as_basis(lay, r1=5)
    with pytest.raises(hilbert.SimulationError):
        apply(st, gates.qft(4, "r1"))


def _dense_columns(gate, layout, reg, dim, columns):
    """Dense matrix columns of a gate, probed on the given basis values only."""
    out = {}
    i = layout.index(reg)
    for v in columns:
        st = SparseState.basis(layout, {reg: v})
        res = apply(st, gate)
        col = np.zeros(dim, dtype=complex)
        for k, a in res.entries.items():
            col[k[i]] = a
        out[v] = col
    return out


@pytest.mark.parametrize("r", [3, 6, 12, 16])
def test_functional_qft_matches_conjugated_qft(r):
    # the composite is defined on the image basis of f; compare those columns
    # against an independently assembled relabeled Fourier matrix
    dim = 32
    lay = RegisterLayout([Register("r1", dim)])
    f = lambda x: (x * 7 + 5) % dim  # injective on Z_r
    image = [f(x) for x in range(r)]
    fq = functional_qft(f, r, "r1", dim)
    got = _dense_columns(fq, lay, "r1", dim, image)
    fourier = np.exp(2j * math.pi * np.outer(np.arange(r), np.arange(r)) / r) / math.sqrt(r)
    for l in range(r):
        want = np.zeros(dim, dtype=complex)
        for k in range(r):
            want[f(k)] += fourier[k, l]
        assert np.max(np.abs(got[f(l)] - want)) < 1e-12


def test_functional_qft_identity_equals_qft():
    dim = 8
    lay = RegisterLayout([Register("r1", dim)])
    fq = functional_qft(lambda x: x, 5, "r1", dim)
    cols = list(range(5))
    a = _dense_columns(fq, lay, "r1", dim, cols)
    b = _dense_columns(gates.qft(5, "r1"), lay, "r1", dim, cols)
    for v in cols:
        assert np.max(np.abs(a[v] - b[v])) < 1e-12


def test_functional_qft_group_example():
    # f(x) = 2^x mod 13 over a period of 12: the image basis carries the transform
    dim = 16
    lay = RegisterLayout([Register("r1", dim)])
    f = lambda x: pow(2, x, 13)
    fq = functional_qft(f, 12, "r1", dim)
    st = SparseState.basis(lay, {"r1": 1})  # = |f(0)>
    out = apply(st, fq)
    i1 = lay.index("r1")
    amps = {k[i1]: a for k, a in out.entries.items()}
    assert set(amps) == {pow(2, k, 13) for k in range(12)}
    assert all(abs(a - 1 / math.sqrt(12)) < 1e-12 for a in amps.values())
    with pytest.raises(DomainError):
        functional_qft(lambda x: x % 3, 6, "r1", dim)  # not injective


def test_selective_phase_basics():
    lay = RegisterLayout([Register("w", 8)])
    st = SparseState.basis(lay, {"w": 3})
    ident = gates.selective_phase({3: 0.0}, "w")
    assert apply(st, ident).entries == st.entries
    flip = gates.selective_phase({0: math.pi}, "w")
    assert flip.angles == {(0,): -math.pi}
    out = apply(SparseState.basis(lay), flip)
    assert abs(list(out.entries.values())[0] + 1) < 1e-12
    fwd = gates.selective_phase({3: 0.8}, "w")
    back = gates.selective_phase({3: -0.8}, "w")
    assert hilbert.fidelity(apply(apply(st, fwd), back), st) > 1 - 1e-12


def test_pairing_permutation():
    lay = layout2(16, 16)
    g = gates.pairing_permutation([1, 3, 9], [1, 8, 12], "r1")
    assert reg_val(apply(as_basis(lay, r1=3), g), "r1") == 8
    assert reg_val(apply(as_basis(lay, r1=1), g), "r1") == 1
    assert reg_val(apply(as_basis(lay, r1=7), g), "r1") == 7  # outside both lists
    st = as_basis(lay, r1=9)
    assert apply(apply(st, g), adjoint(g)).entries == st.entries


# The per-tuple formulas the arithmetic constructors were written with before
# they shared `_accumulate` and `_scale`, kept as brute-force references: each
# maps one basis tuple, and the adjoint's table is checked as their inverse.

def _ref_add(L):
    return lambda v: (v[0], (v[1] + v[0]) % L) if v[0] < L and v[1] < L else v


def _ref_mul3(L):
    return lambda v: (v[0], v[1], (v[2] + v[0] * v[1]) % L) if v[2] < L else v


def _ref_mod_reduce(m, d):
    return lambda v: (v[0], (v[1] + (v[0] % m)) % d)


def _ref_set(j, d):
    return lambda v: ((v[0] + j) % d,)


def _ref_mul_const(a, N):
    return lambda v: ((v[0] * a) % N,) if v[0] < N else v


def _ref_cexp(a, L):
    return lambda v: (v[0], (v[1] * pow(a, v[0], L)) % L) if v[1] < L else v


def _ref_cexp3(a, L):
    return lambda v: (v[0], v[1], (v[2] + v[1] * pow(a, v[0], L)) % L) if v[2] < L else v


def _ref_cexp2v(b, a, L):
    return lambda v: ((v[0], v[1], (v[2] + pow(b, v[0], L) * pow(a, v[1], L)) % L)
                      if v[2] < L else v)


def _ref_pow(e, L):
    return lambda v: (v[0], (v[1] + pow(v[0], e, L)) % L) if v[1] < L else v


def _ref_gmul(p):
    return lambda v: (v[0], (v[1] * v[0]) % p) if 1 <= v[0] < p and 1 <= v[1] < p else v


def _ref_work(g, p, regs):
    """The reference on tuples of `regs`, read and written by register name."""
    def ref(v, s):
        r = dict(zip(regs, v))
        x, y, w, z = r["x"], r["y"], r["w"], r["z"]
        val = (pow(w, x, p) * pow(g, y, p)) % p if 1 <= w < p else 0
        r["z"] = (z + s * val) % p if z < p else z
        return tuple(r[name] for name in regs)
    return ref


def _ref_shift(p, h, power):
    return lambda v: ((v[0] * pow(h, power, p)) % p,) if 1 <= v[0] < p else v


def _ref_cshift(p, h, power):
    return lambda v: ((v[0], (v[1] * pow(h, power * v[0] % (p - 1), p)) % p)
                      if 1 <= v[1] < p else v)


def _unit(L, start=2):
    """The first unit mod L from `start` on."""
    return next(a for a in itertools.count(start) if math.gcd(a, L) == 1)


ODD_PRIMES_TO_61 = [q for q in range(3, 62) if is_prime(q)]


@pytest.mark.parametrize("p", [q if q <= 13 else pytest.param(q, marks=pytest.mark.slow)
                               for q in ODD_PRIMES_TO_61])
def test_arithmetic_constructors_match_their_reference_formulas(p):
    D = gates.register_dim(p)
    for L in (p, p - 1, D):
        a = _unit(L)
        cases = [
            (gates.add_mod(L, "x", "z"), _ref_add(L), (D, D), f"ADD_{L}"),
            (gates.mul3(L, "x", "y", "z"), _ref_mul3(L), (D, D, D), f"MUL3_{L}"),
            (mod_reduce(L, "x", "z", D), _ref_mod_reduce(L, D), (D, D), f"MOD_{L}"),
            (gates.set_const(L - 1, "z", D), _ref_set(L - 1, D), (D,), f"SET_{L - 1}"),
            (mul_const(a, L, "z"), _ref_mul_const(a, L), (D,), f"MUL_{a}_{L}"),
            (cond_mod_exp_two_reg(a, L, "x", "z"), _ref_cexp(a, L), (D, D),
             f"CEXP_{a}_{L}"),
            # any base: 2 shares a factor with the even moduli
            (cond_mod_exp_three_reg(2, L, "x", "y", "z"), _ref_cexp3(2, L), (D, D, D),
             f"CEXP3_2_{L}"),
            (cond_mod_exp_two_var(3, 2, L, "x", "y", "z"), _ref_cexp2v(3, 2, L),
             (D, D, D), f"CEXP2V_3_2_{L}"),
        ]
        cases += [(gates.pow_const(e, L, "x", "z"), _ref_pow(e, L), (D, D), f"POW_{e}_{L}")
                  for e in range(4)]
        for gate, ref, dims, label in cases:
            assert_tables_match(gate, ref, dims, label)
    assert_tables_match(gates.group_mul_acc(p, "x", "z"), _ref_gmul(p), (D, D), f"GMUL_{p}")
    for h in (find_primitive_root(p), p - 1):
        for power in range(-3, 6):
            assert_tables_match(gates.cyclic_shift(p, h, "z", power=power),
                                _ref_shift(p, h, power), (D,), f"SHIFT_{h}^{power}")
            assert_tables_match(gates.cyclic_shift(p, h, "z", power=power, control="x"),
                                _ref_cshift(p, h, power), (D, D), f"CSHIFT_{h}^{power}")


@pytest.mark.parametrize("p", ODD_PRIMES_TO_61)
def test_the_log_gates_forward_step_is_the_two_register_mod_exp(p):
    # u_log clears OUT with the group translation by g**W, which on the whole
    # padded domain is the general-modulus y -> y * g**x mod p, as g**(p-1) = 1
    D = gates.register_dim(p)
    g = make_group_spec(p).g
    shift = gates.cyclic_shift(p, g, "OUT", control="W")
    ref = cond_mod_exp_two_reg(g, p, "W", "OUT")
    assert np.array_equal(shift.table_for((D, D)), ref.table_for((D, D)))
    assert np.array_equal(shift.inv_tables[(D, D)], ref.inv_tables[(D, D)])


@pytest.mark.parametrize("p", [3, 5, 7, pytest.param(11, marks=pytest.mark.slow),
                               pytest.param(13, marks=pytest.mark.slow)])
def test_work_mod_exp_matches_its_reference_formula(p):
    # the compiled tables are what the gate does
    D = gates.register_dim(p)
    g = find_primitive_root(p)
    gate = gates.work_mod_exp(g, p, "x", "y", "w", "z")
    assert sorted(gate.regs) == ["w", "x", "y", "z"] and gate.label == f"UF_{g}_{p}"
    ref = _ref_work(g, p, gate.regs)
    assert_tables_match(gate, lambda v: ref(v, 1), (D,) * 4, gate.label)




@functools.lru_cache(maxsize=1)
def _work_gate_on_dlog_layout(p):
    spec = make_group_spec(p)
    regs = dlog_pipeline.REGS
    gate = gates.work_mod_exp(spec.g, p, regs.x, regs.y, regs.w, regs.f)
    return spec.g, dlog_pipeline.make_dlog_layout(spec), gate, adjoint(gate)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_61)
@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_work_mod_exp_moves_basis_states_as_its_reference_does(p, data):
    # up to p = 31 the gate runs on its compiled table, from 37 on row by row
    g, layout, gate, back = _work_gate_on_dlog_layout(p)
    D = gates.register_dim(p)
    assert (gate.table_for((D,) * 4) is None) == (p >= 37)
    regs = dlog_pipeline.REGS
    ref = _ref_work(g, p, tuple({regs.w: "w", regs.x: "x", regs.y: "y", regs.f: "z"}[r]
                                for r in gate.regs))
    v = tuple(data.draw(hst.integers(0, D - 1), label=r) for r in gate.regs)
    st = SparseState.basis(layout, dict(zip(gate.regs, v)))
    for op, s in ((gate, 1), (back, -1)):
        want = SparseState.basis(layout, dict(zip(gate.regs, ref(v, s))))
        assert sole_tuple(apply(st, op)) == sole_tuple(want), (op.label, v)


def test_work_mod_exp_compiles_a_slice_at_a_time():
    # p = 29 is the demo's largest compiled table: 32**4 entries, made in one
    # forward and one inverse call per value of w, within the int32 table and
    # its inverse (4 MiB each), the int64 domain that is the inverse's scatter
    # source (8 MiB) and one slice's temporaries: 16.25 MiB measured
    gate = gates.work_mod_exp(2, 29, "x", "y", "w", "z")
    widths = []

    def spy(f):
        return lambda cols: widths.append(cols.shape[1]) or f(cols)

    gate.fn, gate.inv = spy(gate.fn), spy(gate.inv)
    tracemalloc.start()
    try:
        table = gate.table_for((32,) * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths == [32 ** 3] * 64
    assert table.nbytes == 4 << 20 and peak < 20 << 20


def test_construction_refusals_are_kept():
    with pytest.raises(DomainError):
        mul_const(4, 6, "z")
    with pytest.raises(DomainError):
        cond_mod_exp_two_reg(2, 6, "x", "z")
    with pytest.raises(DomainError):
        gates.pow_const(-1, 5, "x", "z")
    with pytest.raises(DomainError):
        gates.set_const(-1, "z", 8)
    with pytest.raises(DomainError, match="divisible"):
        gates.cyclic_shift(7, 14, "z")
    with pytest.raises(DomainError, match="not invertible"):
        gates.cyclic_shift(9, 3, "z")
