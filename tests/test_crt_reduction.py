import dataclasses
import math

import pytest

from references import sole_tuple
from cycsim import crt_reduction as cr
from cycsim import halting_program as hp
from cycsim import gates, hilbert
from cycsim.hilbert import SparseState, adjoint, apply, apply_all, assert_registers_clean
from cycsim.numtheory import classical_dlog, make_group_spec
from cycsim.oracle import OracleSpec, make_subspace_oracle

IDENTITY_PRIMES = (5, 7, 11, 13, 29, 61)


@pytest.fixture(scope="module")
def env13():
    spec = make_group_spec(13)
    layout, regs = cr.make_search_layout(spec)
    return spec, layout, regs


def component_values(state, layout, regs):
    tup = sole_tuple(state)
    return tuple(tup[layout.index(c)] for c in regs.comps)


def subgroup_product(state, spec, regs):
    state = apply_all(state, cr.subgroup_product_gates(spec, regs))
    assert_registers_clean(state, (regs.w, regs.a, regs.prod), "group-state reconstruction")
    return state


@pytest.mark.parametrize("p", IDENTITY_PRIMES)
def test_index_identity_classical(p):
    # linear-combination reconstruction of the index from its residues
    spec = make_group_spec(p)
    for s in range(p - 1):
        total = sum(c.n * c.M * (s % c.m) for c in spec.basis.components)
        assert total % (p - 1) == s


@pytest.mark.parametrize("p", IDENTITY_PRIMES)
def test_group_identity_classical(p):
    # product reconstruction of the group element from subgroup components
    spec = make_group_spec(p)
    for s in range(p - 1):
        prod = 1
        for gen, c in zip(spec.subgroup_generators, spec.basis.components):
            prod = (prod * pow(gen, c.n * (s % c.m), p)) % p
        assert prod == pow(spec.g, s, p)


def test_group_state_decomposition_examples(env13):
    spec, layout, regs = env13
    out = subgroup_product(SparseState.basis(layout, {regs.w: pow(2, 7, 13)}), spec, regs)
    assert component_values(out, layout, regs) == (3, 5)  # 3^1 and 8^3 mod 13
    out = subgroup_product(SparseState.basis(layout, {regs.w: 1}), spec, regs)
    assert component_values(out, layout, regs) == (1, 1)
    # reconstruction identity behind the uncompute: 3^1 * 8^9 = 2^7 (mod 13)
    assert (pow(3, 1, 13) * pow(8, 9, 13)) % 13 == 11 == pow(2, 7, 13)


def test_group_state_decomposition_exhaustive_and_adjoint(env13):
    spec, layout, regs = env13
    seq = cr.subgroup_product_gates(spec, regs)
    gate = hilbert.Sequence(tuple(seq))
    for s in range(12):
        st = SparseState.basis(layout, {regs.w: pow(2, s, 13)})
        out = apply(st, gate)
        vals = component_values(out, layout, regs)
        want = tuple(pow(gen, s % c.m, 13) for gen, c in
                     zip(spec.subgroup_generators, spec.basis.components))
        assert vals == want
        back = apply(out, adjoint(gate))
        assert hilbert.fidelity(back, st) > 1 - 1e-12


def test_subspace_lift(env13):
    # p = 13: the first component is <3> = {1, 3, 9}, the largest <8> = {1, 8, 12, 5}
    spec, layout, regs = env13
    lift, = cr.largest_subspace_gates(spec, regs)
    assert lift.label == "LIFT_3_4"
    i = layout.index(regs.comps[0])
    assert sole_tuple(apply(SparseState.basis(layout, {regs.comps[0]: 1}), lift))[i] == 1
    assert sole_tuple(apply(SparseState.basis(layout, {regs.comps[0]: 3}), lift))[i] == 8
    assert sole_tuple(apply(SparseState.basis(layout, {regs.comps[0]: 9}), lift))[i] == 12
    # identity outside both basis lists
    assert sole_tuple(apply(SparseState.basis(layout, {regs.comps[0]: 7}), lift))[i] == 7
    # roundtrip on the source subspace
    st = SparseState.basis(layout, {regs.comps[0]: 9})
    assert apply(apply(st, lift), adjoint(lift)).entries == st.entries


def test_to_largest_subspace(env13):
    spec, layout, regs = env13
    lifts = cr.largest_subspace_gates(spec, regs)
    st = SparseState.basis(layout, {regs.comps[0]: 3, regs.comps[1]: 5})
    out = apply_all(st, lifts)
    assert component_values(out, layout, regs) == (8, 5)
    st0 = SparseState.basis(layout, {regs.comps[0]: 1, regs.comps[1]: 1})
    assert component_values(apply_all(st0, lifts), layout, regs) == (1, 1)
    # each lifted register decodes back to s mod m_k in the top subspace
    h_r = spec.subgroup_generators[-1]
    for s in range(12):
        st = subgroup_product(SparseState.basis(layout, {regs.w: pow(2, s, 13)}), spec, regs)
        top = apply_all(st, lifts)
        vals = component_values(top, layout, regs)
        for v, c in zip(vals, spec.basis.components):
            assert classical_dlog(13, h_r, v) % c.m == s % c.m


def _aux_env(p, hidden_s):
    spec = make_group_spec(p)
    layout, regs = cr.make_search_layout(spec)
    designated = tuple(n for n in layout.names if n not in (regs.w, regs.search))
    base = make_subspace_oracle(OracleSpec(hidden_s, spec), regs.w, designated, math.pi)
    return spec, layout, regs, base


def _entry(regs, k, red):
    """The auxiliary oracle's own entry, without a trial's dressing."""
    return hilbert.Sequence((gates.swap_regs(regs.search, regs.comps[k]), adjoint(red)))


@pytest.mark.parametrize("p", [7, 13, 61, 127])
def test_search_layout_lists_its_registers_in_field_order(p):
    layout, regs = cr.make_search_layout(make_group_spec(p))
    assert [f.name for f in dataclasses.fields(regs)] == [
        "w", "comps", "a", "prod", "nh", "bh", "recs", "search"]
    assert layout.names == (regs.w, *regs.comps, regs.a, regs.prod, regs.nh, regs.bh,
                            *regs.recs, regs.search)


def test_search_layout():
    spec = make_group_spec(13)
    layout, regs = cr.make_search_layout(spec)
    assert layout.names == ("W", "C1", "C2", "TA", "TP", "NH", "BH", "R1", "R2", "SEARCH")
    cfg = hp.ProgramConfig.from_spec(spec)
    assert layout.dim("NH") == 2
    assert layout.dim("BH") == cfg.branch_dim
    assert layout.dim("R1") == layout.dim("R2") == cfg.record_dim
    assert all(layout.dim(n) == 16 for n in ("W", "C1", "C2", "TA", "TP", "SEARCH"))


@pytest.mark.parametrize("k,s_k", [(0, 1), (1, 3)])
def test_aux_oracle_selective_on_hidden_component(k, s_k):
    spec, layout, regs, base = _aux_env(13, hidden_s=7)
    red = cr.reduction_gate(spec, regs, k)
    st = apply(SparseState.basis(layout, {regs.w: pow(2, 7, 13)}), red)
    aux = cr.make_aux_oracle(base, k, _entry(regs, k, red))
    h_r = spec.subgroup_generators[-1]
    led = hilbert.GateLedger()
    for x in range(spec.largest_order):
        trial = apply(st, gates.transposition(0, pow(h_r, x, 13), regs.search))
        out = apply(trial, aux, led)
        amp = list(out.entries.values())[0]
        assert out.support_size == 1
        if x == s_k:
            assert abs(amp + 1) < 1e-9   # phase fired on the hidden component
        else:
            assert abs(amp - 1) < 1e-9
    assert led.count("oracle-call") == spec.largest_order  # one base call each


def test_aux_oracle_single_call_per_application():
    spec, layout, regs, base = _aux_env(13, hidden_s=7)
    red = cr.reduction_gate(spec, regs, 1)
    st = apply(SparseState.basis(layout, {regs.w: 11}), red)
    aux = cr.make_aux_oracle(base, 1, _entry(regs, 1, red))
    led = hilbert.GateLedger()
    apply(st, aux, led)
    assert led.count("oracle-call") == 1
