import itertools
import math

import pytest

from cycsim import crt_reduction as cr
from cycsim import halting_program as hp
from cycsim.hilbert import SimulationError, SparseState, apply, apply_all, assert_registers_clean
from cycsim.numtheory import DomainError, element_of_order, make_group_spec

CASES = {3: 7, 4: 13, 8: 17, 16: 17}


def config_for(m_r):
    p = CASES[m_r]
    return hp.ProgramConfig(p, m_r, element_of_order(m_r, p))


def test_program_config_guards():
    with pytest.raises(DomainError):
        hp.ProgramConfig(13, 4, 3)  # 3 has order 3, not 4
    cfg = config_for(4)
    assert cfg.f_r(0) == 1
    assert cfg.f_r(cfg.m_r) == 1  # periodicity
    assert cfg.control_value == cfg.p


def test_u_r_examples():
    cfg = hp.ProgramConfig(13, 4, 8)
    lay = hp.make_qp_layout(cfg)
    gate = hp.u_r_gate(cfg, "FR", "GR")
    ig = lay.index("GR")
    # |8^1>|8^3> = |8>|5>: exponents sum to 0 mod 4, second register becomes |1>
    out = apply(SparseState.basis(lay, {"FR": 8, "GR": 5}), gate)
    assert out.sole_tuple()[ig] == 1
    # x=1, y=1: no action
    out = apply(SparseState.basis(lay, {"FR": 8, "GR": 8}), gate)
    assert out.sole_tuple()[ig] == 8
    # x=0: the transposition degenerates to the identity on |1>
    out = apply(SparseState.basis(lay, {"FR": 1, "GR": 1}), gate)
    assert out.sole_tuple()[ig] == 1


def test_u_r_involution():
    cfg = config_for(8)
    lay = hp.make_qp_layout(cfg)
    gate = hp.u_r_gate(cfg, "FR", "GR")
    for x in range(8):
        for y in range(8):
            st = SparseState.basis(lay, {"FR": cfg.f_r(x), "GR": cfg.f_r(y)})
            assert apply(apply(st, gate), gate).entries == st.entries


@pytest.mark.parametrize("m_r", sorted(CASES))
def test_run_qp_exhaustive(m_r):
    cfg = config_for(m_r)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    seen = set()
    for x, y in itertools.product(range(m_r), repeat=2):
        st = SparseState.basis(lay, {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)})
        out, rec = hp.run_qp(st, cfg)
        tup = out.sole_tuple()
        got = {n: tup[lay.index(n)] for n in lay.names}
        assert got == {regs.nh: 1, regs.bh: 1, regs.f: cfg.f_r(x), regs.g: 0,
                       regs.rec: rec.step}
        assert rec.step == hp.expected_record(x, y, m_r)
        key = (cfg.f_r(x), rec.step)
        assert key not in seen  # (output, record) injectivity = unitarity witness
        seen.add(key)


def test_expected_record_formula():
    # m_r=4, x=2, y=1: pair transposition fires at step 1 (2+1+1 = 0 mod 4),
    # the halting statement one unit later
    assert hp.expected_record(2, 1, 4) == 2
    assert hp.expected_record(0, 0, 4) == 1   # already cleared at entry
    assert hp.expected_record(1, 3, 4) == 5   # fires at the trailing check


def test_run_qp_trace_example():
    cfg = hp.ProgramConfig(13, 4, 8)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    st = SparseState.basis(lay, {regs.f: cfg.f_r(2), regs.g: cfg.f_r(1)})
    out, rec = hp.run_qp(st, cfg)
    tup = out.sole_tuple()
    assert tup[lay.index(regs.f)] == cfg.f_r(2)
    assert (tup[lay.index(regs.nh)], tup[lay.index(regs.bh)]) == (1, 1)
    assert tup[lay.index(regs.g)] == 0


def test_run_qp_rejects_superposition():
    cfg = config_for(4)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    i_f = lay.index(regs.f)
    t1, t2 = list(lay.zero_tuple()), list(lay.zero_tuple())
    t1[i_f], t2[i_f] = 1, 8
    sup = SparseState(lay, {tuple(t1): 1 / math.sqrt(2), tuple(t2): 1 / math.sqrt(2)})
    with pytest.raises(SimulationError, match="superposition"):
        hp.run_qp(sup, cfg)


@pytest.mark.parametrize("m_r", sorted(CASES))
def test_run_qc_matches_qp_at_zero_leakage(m_r):
    cfg = config_for(m_r)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    pulse = hp.PulseModel(0.0)
    for x, y in itertools.product(range(m_r), repeat=2):
        vals = {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)}
        qc_out, info = hp.run_qc(SparseState.basis(lay, vals), cfg, pulse)
        assert abs(info["fidelity"] - 1) < 1e-12
        qp_out, _ = hp.run_qp(SparseState.basis(lay, vals), cfg)
        tq, tc = qp_out.sole_tuple(), qc_out.sole_tuple()
        for name in (regs.bh, regs.f, regs.g):
            assert tq[lay.index(name)] == tc[lay.index(name)]


def test_run_qc_fidelity_strictly_decreasing():
    cfg = config_for(4)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    vals = {regs.f: cfg.f_r(1), regs.g: cfg.f_r(2)}
    fids = []
    for eps in (0.05, 0.1, 0.2):
        _, info = hp.run_qc(SparseState.basis(lay, vals), cfg,
                            hp.PulseModel(eps, gamma=0.4))
        fids.append(info["fidelity"])
    assert fids[0] > fids[1] > fids[2]
    assert all(abs(f - (1 - e * e)) < 1e-9 for f, e in zip(fids, (0.05, 0.1, 0.2)))


def test_run_qc_no_locking_event_is_leak_independent():
    # a pair value outside the subgroup never reaches the trigger
    cfg = config_for(4)
    lay = hp.make_qp_layout(cfg)
    regs = hp.QpRegs()
    outside = 2 ** cfg.p.bit_length() - 1
    vals = {regs.f: cfg.f_r(1), regs.g: outside}
    out0, _ = hp.run_qc(SparseState.basis(lay, vals), cfg, hp.PulseModel(0.0))
    out1, _ = hp.run_qc(SparseState.basis(lay, vals), cfg, hp.PulseModel(0.3, 1.0))
    assert out0.entries == out1.entries


def test_pulse_model_guard():
    with pytest.raises(DomainError):
        hp.PulseModel(1.0)


def lifted_components(state, spec, regs):
    """A group state's subgroup components, lifted into the largest subspace."""
    state = apply_all(state, cr.subgroup_product_gates(spec, regs, state.layout.dim(regs.w)))
    assert_registers_clean(state, (regs.w, regs.a, regs.prod), "group-state reconstruction")
    return cr.to_largest_subspace(state, spec, regs)


def test_strip_registers_examples():
    spec = make_group_spec(13)
    layout, regs, strip = cr.make_search_layout(spec)
    gate = hp.strip_gate(spec, 1, strip, layout.dim(regs.w))
    # prepare the lifted component product for s = 7 and keep the second factor
    st = SparseState.basis(layout, {regs.w: pow(2, 7, 13)})
    st = lifted_components(st, spec, regs)
    out = apply(st, gate)
    tup = out.sole_tuple()
    assert tup[layout.index(regs.comps[1])] == 5  # 8^3 mod 13
    assert tup[layout.index(regs.comps[0])] == 0
    # the stripped component's halting step stays on record; the kept one has none
    assert 1 <= out.register_value(strip.recs[0]) <= spec.largest_order + 1
    assert out.register_value(strip.recs[1]) == 0
    # identity index: component collapses to the unit element
    st = SparseState.basis(layout, {regs.w: 1})
    st = lifted_components(st, spec, regs)
    out = apply(st, gate)
    assert out.sole_tuple()[layout.index(regs.comps[1])] == 1
