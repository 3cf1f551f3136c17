import functools
import itertools

import numpy as np
import pytest

import references as ref
from cycsim import crt_reduction as cr
from cycsim import halting_program as hp
from cycsim.hilbert import SparseState, apply, apply_all, assert_registers_clean
from cycsim.numtheory import DomainError, make_group_spec

CASES = {3: 7, 4: 13, 8: 17, 16: 17}


def config_for(m_r):
    p = CASES[m_r]
    return hp.ProgramConfig(p, m_r, ref.element_of_order(m_r, p))


def test_program_config_guards():
    with pytest.raises(DomainError):
        hp.ProgramConfig(13, 4, 3)  # 3 has order 3, not 4
    cfg = config_for(4)
    assert cfg.f_r(0) == 1
    assert cfg.f_r(cfg.m_r) == 1  # periodicity
    assert cfg.control_value == cfg.p


def test_u_r_examples():
    cfg = hp.ProgramConfig(13, 4, 8)
    lay = ref.make_qp_layout(cfg)
    gate = hp.u_r_gate(cfg, "FR", "GR")
    ig = lay.index("GR")
    # |8^1>|8^3> = |8>|5>: exponents sum to 0 mod 4, second register becomes |1>
    out = apply(SparseState.basis(lay, {"FR": 8, "GR": 5}), gate)
    assert ref.sole_tuple(out)[ig] == 1
    # x=1, y=1: no action
    out = apply(SparseState.basis(lay, {"FR": 8, "GR": 8}), gate)
    assert ref.sole_tuple(out)[ig] == 8
    # x=0: the transposition degenerates to the identity on |1>
    out = apply(SparseState.basis(lay, {"FR": 1, "GR": 1}), gate)
    assert ref.sole_tuple(out)[ig] == 1


def test_u_r_involution():
    cfg = config_for(8)
    lay = ref.make_qp_layout(cfg)
    gate = hp.u_r_gate(cfg, "FR", "GR")
    for x in range(8):
        for y in range(8):
            st = SparseState.basis(lay, {"FR": cfg.f_r(x), "GR": cfg.f_r(y)})
            assert apply(apply(st, gate), gate).entries == st.entries


@functools.cache
def program_gate(cfg, pulse):
    """The driver's program gate, built once per configuration so its tables
    are compiled once for the many basis inputs a test applies it to."""
    return hp.qp_gate(cfg, hp.QpRegs(), pulse)


def run_program(cfg, lay, vals, pulse=None):
    """The driver's program gate applied to one basis input."""
    return apply(SparseState.basis(lay, vals), program_gate(cfg, pulse))


@pytest.mark.parametrize("m_r", sorted(CASES))
def test_run_qp_exhaustive(m_r):
    cfg = config_for(m_r)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    seen = set()
    for x, y in itertools.product(range(m_r), repeat=2):
        out = run_program(cfg, lay, {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)})
        step = out.register_value(regs.rec)
        tup = ref.sole_tuple(out)
        got = {n: tup[lay.index(n)] for n in lay.names}
        assert got == {regs.nh: 1, regs.bh: 1, regs.f: cfg.f_r(x), regs.g: 0,
                       regs.rec: step}
        assert step == ref.expected_record(x, y, m_r)
        key = (cfg.f_r(x), step)
        assert key not in seen  # (output, record) injectivity = unitarity witness
        seen.add(key)


def test_expected_record_formula():
    # m_r=4, x=2, y=1: pair transposition fires at step 1 (2+1+1 = 0 mod 4),
    # the halting statement one unit later
    assert ref.expected_record(2, 1, 4) == 2
    assert ref.expected_record(0, 0, 4) == 1   # already cleared at entry
    assert ref.expected_record(1, 3, 4) == 5   # fires at the trailing check


def test_run_qp_trace_example():
    cfg = hp.ProgramConfig(13, 4, 8)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    out = run_program(cfg, lay, {regs.f: cfg.f_r(2), regs.g: cfg.f_r(1)})
    tup = ref.sole_tuple(out)
    assert tup[lay.index(regs.f)] == cfg.f_r(2)
    assert (tup[lay.index(regs.nh)], tup[lay.index(regs.bh)]) == (1, 1)
    assert tup[lay.index(regs.g)] == 0


@pytest.mark.parametrize("m_r", sorted(CASES))
def test_run_qc_matches_qp_at_zero_leakage(m_r):
    cfg = config_for(m_r)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    pulse = hp.PulseModel(0.0)
    for x, y in itertools.product(range(m_r), repeat=2):
        vals = {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)}
        qc_out, info = ref.run_qc(SparseState.basis(lay, vals), cfg, pulse)
        assert abs(info["fidelity"] - 1) < 1e-12
        qp_out = run_program(cfg, lay, vals)
        tq, tc = ref.sole_tuple(qp_out), ref.sole_tuple(qc_out)
        for name in (regs.bh, regs.f, regs.g):
            assert tq[lay.index(name)] == tc[lay.index(name)]


def marginal(state, names):
    """Weight of each value tuple the named registers take."""
    out = {}
    cols = np.stack([state.column(n) for n in names], axis=1).tolist()
    for key, amp in zip(map(tuple, cols), state.amps.tolist()):
        out[key] = out.get(key, 0.0) + abs(amp) ** 2
    return out


@pytest.mark.parametrize("m_r", [3, 4, 8, pytest.param(16, marks=pytest.mark.slow)])
def test_pulsed_program_gate_matches_the_procedural_circuit(m_r):
    # one pulse model: the driver's leaky runs apply qp_gate with a P_SL leak
    # after each halting event, and that gate must leave the same (BH, F, G)
    # distribution as the step-by-step pulse simulation on every basis input
    cfg = config_for(m_r)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    names = (regs.bh, regs.f, regs.g)
    for eps, gamma in [(0.05, 0.0), (0.2, 0.4), (0.3, 1.0), (0.6, 2.5)]:
        pulse = hp.PulseModel(eps, gamma)
        for x, y in itertools.product(range(m_r), repeat=2):
            vals = {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)}
            want = marginal(ref.run_qc(SparseState.basis(lay, vals), cfg, pulse)[0], names)
            got = marginal(run_program(cfg, lay, vals, pulse), names)
            assert got.keys() == want.keys(), (m_r, eps, x, y)
            assert max(abs(got[k] - want[k]) for k in want) < 1e-9, (m_r, eps, x, y)


@pytest.mark.parametrize("m_r", sorted(CASES))
@pytest.mark.parametrize("pulse", [None, hp.PulseModel(0.0), hp.PulseModel(0.3, 1.0)])
def test_program_gate_matches_the_unit_by_unit_reference(m_r, pulse):
    # one loop writes the m_r units and the trailing check, with one leak
    # for every halting event; the sequence is the reference's, gate for gate
    cfg = config_for(m_r)
    regs = hp.QpRegs()
    gate = hp.qp_gate(cfg, regs, pulse)
    ref.assert_same_gate(gate, ref.qp_gate_reference(cfg, regs, pulse), ref.make_qp_layout(cfg))
    leaks = {id(g.inner) for g in gate.gates if g.label == "P_SL"}
    assert len(leaks) == (pulse is not None and pulse.epsilon > 0)


def test_run_qc_fidelity_strictly_decreasing():
    cfg = config_for(4)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    vals = {regs.f: cfg.f_r(1), regs.g: cfg.f_r(2)}
    fids = []
    for eps in (0.05, 0.1, 0.2):
        _, info = ref.run_qc(SparseState.basis(lay, vals), cfg,
                             hp.PulseModel(eps, gamma=0.4))
        fids.append(info["fidelity"])
    assert fids[0] > fids[1] > fids[2]
    assert all(abs(f - (1 - e * e)) < 1e-9 for f, e in zip(fids, (0.05, 0.1, 0.2)))


def test_run_qc_no_locking_event_is_leak_independent():
    # a pair value outside the subgroup never reaches the trigger
    cfg = config_for(4)
    lay = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    outside = 2 ** cfg.p.bit_length() - 1
    vals = {regs.f: cfg.f_r(1), regs.g: outside}
    out0, _ = ref.run_qc(SparseState.basis(lay, vals), cfg, hp.PulseModel(0.0))
    out1, _ = ref.run_qc(SparseState.basis(lay, vals), cfg, hp.PulseModel(0.3, 1.0))
    assert out0.entries == out1.entries


def test_pulse_model_guard():
    with pytest.raises(DomainError):
        hp.PulseModel(1.0)


def lifted_components(state, spec, regs):
    """A group state's subgroup components, lifted into the largest subspace."""
    state = apply_all(state, cr.subgroup_product_gates(spec, regs))
    assert_registers_clean(state, (regs.w, regs.a, regs.prod), "group-state reconstruction")
    return apply_all(state, cr.largest_subspace_gates(spec, regs))


def test_strip_registers_examples():
    spec = make_group_spec(13)
    layout, regs = cr.make_search_layout(spec)
    gate = cr.strip_gate(spec, 1, regs)
    # prepare the lifted component product for s = 7 and keep the second factor
    st = SparseState.basis(layout, {regs.w: pow(2, 7, 13)})
    st = lifted_components(st, spec, regs)
    out = apply(st, gate)
    tup = ref.sole_tuple(out)
    assert tup[layout.index(regs.comps[1])] == 5  # 8^3 mod 13
    assert tup[layout.index(regs.comps[0])] == 0
    # the stripped component's halting step stays on record; the kept one has none
    assert 1 <= out.register_value(regs.recs[0]) <= spec.largest_order + 1
    assert out.register_value(regs.recs[1]) == 0
    # identity index: component collapses to the unit element
    st = SparseState.basis(layout, {regs.w: 1})
    st = lifted_components(st, spec, regs)
    out = apply(st, gate)
    assert ref.sole_tuple(out)[layout.index(regs.comps[1])] == 1
