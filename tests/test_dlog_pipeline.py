import cmath
import math

import pytest

import dlog_stages as stages
from cycsim import dlog_pipeline as dl
from cycsim import gates, hilbert
from cycsim.hilbert import SparseState, adjoint, apply
from cycsim.numtheory import classical_dlog, make_group_spec, totient

PRIMES_WEIGHT = (5, 7, 11, 13, 29, 61)


def test_prepare_psi1_uniform(spec13):
    st = stages.prepare_psi1(spec13, b=pow(2, 7, 13))
    assert st.support_size == 144
    assert all(abs(abs(a) - 1 / 12) < 1e-12 for a in st.entries.values())
    assert abs(st.norm() - 1) < 1e-10


def test_prepare_psi1_p3_support():
    spec = make_group_spec(3)
    st = stages.prepare_psi1(spec, b=2)  # b = g^1
    assert st.support_size == 4
    # third register always holds 2^(x+y) mod 3
    lay = st.layout
    regs = dl.REGS
    for k in st.entries:
        x, y = k[lay.index(regs.x)], k[lay.index(regs.y)]
        assert k[lay.index(regs.f)] == pow(2, x + y, 3)


@pytest.mark.parametrize("p", [13, 29, 37])
def test_work_mod_exp_is_one_run_of_the_layout(p):
    # the base register listed first, UF's registers are the top run of one
    # word, so a row's code is one shift of its word
    spec = make_group_spec(p)
    (uf,) = [g for g in dl.pipeline_kit(spec)["psi1"] if g.label.startswith("UF_")]
    code = dl.make_dlog_layout(spec).code(uf.regs)
    assert code.run is not None and code.run.top


def test_to_psi2_patterns():
    spec = make_group_spec(5)
    st = stages.prepare_psi1(spec, b=pow(spec.g, 1, 5))
    st = stages.to_psi2(st, spec)
    assert dl.index_patterns(st) == {(l, l) for l in range(4)}  # s = 1
    # zero pattern always present, total probability 1
    assert (0, 0) in dl.index_patterns(st)
    assert abs(st.norm() - 1) < 1e-10


def test_to_psi2_rejects_wrong_shape(spec13):
    lay = dl.make_dlog_layout(spec13)
    with pytest.raises(hilbert.SimulationError):
        stages.to_psi2(SparseState.basis(lay, {"W": 2}), spec13)


@pytest.mark.parametrize("p", PRIMES_WEIGHT)
def test_euler_filter_weight(p):
    spec = make_group_spec(p)
    st = stages.prepare_psi1(spec, b=pow(spec.g, min(2, p - 2), p))
    st = stages.to_psi2(st, spec)
    st, weight = stages.euler_filter(st, spec)
    assert abs(weight - totient(p - 1) / (p - 1)) < 1e-12


def test_euler_filter_coprime_components_hold_index(spec13):
    s = 7
    st = stages.prepare_psi1(spec13, b=pow(2, s, 13))
    st = stages.to_psi2(st, spec13)
    st, _ = stages.euler_filter(st, spec13)
    lay = st.layout
    regs = dl.REGS
    ix, iout = lay.index(regs.x), lay.index(regs.out)
    for k in st.entries:
        if math.gcd(k[ix], 12) == 1:
            assert k[iout] == s
        if k[ix] == 0:
            assert k[iout] == 0  # zero base convention


def test_reflect_about_properties(spec5):
    # pivot reflection on a fully specified basis tuple
    regs = dl.REGS
    lay = dl.make_dlog_layout(spec5)
    prep = gates.qft(4, regs.x)
    pivot = {n: 0 for n in lay.names}
    refl = dl.reflect_about(prep, pivot, math.pi)
    psi = apply(SparseState.basis(lay), prep)             # the reflected state
    out = apply(psi, refl)
    assert hilbert.fidelity(out, psi) > 1 - 1e-12
    amp = hilbert.inner_product(psi, out)
    assert abs(amp + 1) < 1e-9                            # |Psi> -> -|Psi>
    # orthogonal states unchanged
    orth = apply(SparseState.basis(lay, {regs.x: 1}), prep)
    if abs(hilbert.inner_product(orth, psi)) < 1e-12:
        out2 = apply(orth, refl)
        assert abs(hilbert.inner_product(orth, out2) - 1) < 1e-9
    # squares to identity
    twice = apply(apply(psi, refl), refl)
    assert abs(hilbert.inner_product(psi, twice) - 1) < 1e-9


def rank_one_reflection(psi, prep, phi):
    """psi - (1 - exp(-i phi)) sum_w <Psi_w|psi> Psi_w with Psi_w = prep|w, 0...>
    over every value w of the work register: the full reflection without the
    conjugated pivot phase."""
    out = dict(psi.entries)
    for w in range(psi.layout.dim(dl.REGS.w)):
        big_psi = apply(SparseState.basis(psi.layout, {dl.REGS.w: w}), prep)
        coeff = (1 - cmath.exp(-1j * phi)) * hilbert.inner_product(big_psi, psi)
        for key, amp in big_psi.entries.items():
            out[key] = out.get(key, 0) - coeff * amp
    return out


@pytest.mark.parametrize("p", [5, 7, 13, pytest.param(29, marks=pytest.mark.slow)])
def test_full_reflection_matches_its_rank_one_form(p):
    spec = make_group_spec(p)
    layout = dl.make_dlog_layout(spec)
    prep1 = hilbert.Sequence(tuple(dl.pipeline_kit(spec)["stage1"]))

    def stage1(b):
        # rotated off the prepared state, so the reflection is more than a phase
        st = apply(SparseState.basis(layout, {dl.REGS.w: b}), prep1)
        return apply(st, dl.good_rotation_stage1(spec, 0.9))

    one, two = stage1(spec.g), stage1(pow(spec.g, 2, p))
    pair = SparseState(layout, {k: a / math.sqrt(2)
                                for st in (one, two) for k, a in st.entries.items()})
    for psi in (one, pair):
        for phi in (math.pi, 0.9):
            got = apply(psi, dl.reflect_about(prep1, dl._full_pivot(), phi)).entries
            want = rank_one_reflection(psi, prep1, phi)
            diff = max(abs(got.get(k, 0) - want.get(k, 0)) for k in got.keys() | want.keys())
            assert diff < 1e-12, (p, phi)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
def test_good_rotation_fires_on_coprime_index(p):
    # every value of the X register, including those >= p-1, keeps the gcd verdict
    spec = make_group_spec(p)
    regs = dl.REGS
    rot = dl.good_rotation_stage1(spec, 0.5).gates[2]
    assert rot.label == "C_good"
    layout = dl.make_dlog_layout(spec)
    N = gates.register_dim(p)
    amp = 1 / math.sqrt(N)
    rows = {}
    for x in range(N):
        key = list(layout.zero_tuple())
        key[layout.index(regs.x)], key[layout.index(regs.t)] = x, 1
        rows[tuple(key)] = amp + 0j
    out = apply(SparseState(layout, rows), rot)
    ix = layout.index(regs.x)
    for k, a in out.entries.items():
        coprime = math.gcd(k[ix], p - 1) == 1
        assert abs(a - (amp * complex(math.cos(0.5), -math.sin(0.5)) if coprime else amp)) < 1e-15


def test_amplification_schedule_grover_default():
    w = 1 / 3
    sched = dl.amplification_schedule(w, "grover")
    assert sched == [math.pi] * round(math.pi / (4 * math.asin(math.sqrt(w))) - 0.5)
    # saturated weight: nothing to do in either mode
    assert dl.amplification_schedule(1.0, "exact") == []
    assert dl.amplification_schedule(1.0, "grover") == []
    with pytest.raises(Exception):
        dl.amplification_schedule(0.0, "exact")


@pytest.mark.parametrize("mode,m", [("grover", 1), ("grover", 2), ("exact", None)])
def test_amplification_on_pipeline_state(spec13, mode, m):
    # drive the real Euler-filtered state and compare against the closed form
    regs = dl.REGS
    kit = dl.pipeline_kit(spec13, "exact", None)
    st = stages.prepare_psi1(spec13, b=pow(2, 7, 13))
    st = stages.to_psi2(st, spec13)
    st, w = stages.euler_filter(st, spec13)
    prep1 = hilbert.Sequence(tuple(kit["stage1"]))
    good = lambda phi: dl.good_rotation_stage1(spec13, phi)
    full = lambda phi: dl.reflect_about(prep1, dl._full_pivot(), phi)
    out, info = stages.amplitude_amplify(st, good, full, mode, w, m)
    coprime = [math.gcd(v, 12) == 1 for v in range(out.layout.dim(regs.x))]
    got = out.weight_where(regs.x, coprime)
    if mode == "grover":
        want = math.sin((2 * info["iterations"] + 1) * math.asin(math.sqrt(w))) ** 2
        assert abs(got - want) < 1e-9
    else:
        assert got > 1 - 1e-9


def test_v_f_inverse_examples(spec13):
    regs = dl.REGS
    lay = dl.make_dlog_layout(spec13)
    kit = dl.pipeline_kit(spec13)
    vinv = hilbert.Sequence(tuple(kit["stage1"] + kit["amp1"] + kit["mid"] + kit["amp2"]
                                  + kit["tail"]), label="V_finv")
    # index of the unit element is 0
    out = apply(SparseState.basis(lay, {regs.w: 1}), vinv)
    tgt = SparseState.basis(lay, {regs.w: 1, regs.out: 0})
    assert hilbert.fidelity(out, tgt) > 1 - 1e-6
    # |11>|0> -> |11>|7>
    out = apply(SparseState.basis(lay, {regs.w: 11}), vinv)
    tgt = SparseState.basis(lay, {regs.w: 11, regs.out: 7})
    assert hilbert.fidelity(out, tgt) > 1 - 1e-6


def test_v_f_inverse_cross_term_weight(spec13):
    # the off-diagonal weight before the second amplification is 1 - phi/(p-1)
    trace, rec, _ = dl.run_dlog_demo(spec13, b=pow(2, 7, 13))
    cross = next(e["fidelity"] for e in trace if e["stage"] == "psi7s")
    assert abs(cross - (1 - 4 / 12)) < 1e-10
    assert rec == 7


@pytest.mark.parametrize("p", (5, 7, 13))
def test_u_log_exhaustive(p):
    spec = make_group_spec(p)
    regs = dl.REGS
    lay = dl.make_dlog_layout(spec)
    gate = dl.u_log(spec)
    for s in range(p - 1):
        b = pow(spec.g, s, p)
        out = apply(SparseState.basis(lay, {regs.w: b}), gate)
        tgt = SparseState.basis(lay, {regs.w: s})
        assert hilbert.fidelity(out, tgt) >= 1 - 1e-6
        assert classical_dlog(p, spec.g, b) == s


def test_u_log_adjoint_roundtrip(spec13):
    regs = dl.REGS
    lay = dl.make_dlog_layout(spec13)
    gate = dl.u_log(spec13)
    for s in (0, 3, 7, 11):
        st = SparseState.basis(lay, {regs.w: pow(2, s, 13)})
        back = apply(apply(st, gate), adjoint(gate))
        assert hilbert.fidelity(back, st) > 1 - 1e-6
        # adjoint alone maps |s> -> |g^s>
        fwd = apply(SparseState.basis(lay, {regs.w: s}), adjoint(gate))
        tgt = SparseState.basis(lay, {regs.w: pow(2, s, 13)})
        assert hilbert.fidelity(fwd, tgt) > 1 - 1e-6


def test_u_log_superposition_support(spec13):
    regs = dl.REGS
    lay = dl.make_dlog_layout(spec13)
    gate = dl.u_log(spec13)
    iw = lay.index(regs.w)
    e = {}
    for s, a in ((3, 0.6), (9, 0.8)):
        tup = list(lay.zero_tuple())
        tup[iw] = pow(2, s, 13)
        e[tuple(tup)] = complex(a)
    out = apply(SparseState(lay, e), gate)
    weights = {}
    for k, a in out.entries.items():
        weights[k[iw]] = weights.get(k[iw], 0) + abs(a) ** 2
    assert abs(weights[3] - 0.36) < 1e-6
    assert abs(weights[9] - 0.64) < 1e-6


def test_fourier_pair_consistency(spec13):
    # undoing the second Fourier pass reconstructs the functional superposition
    b = pow(2, 7, 13)
    st1 = stages.prepare_psi1(spec13, b)
    st2 = stages.to_psi2(st1, spec13)
    regs = dl.REGS
    back = st2
    for gate in [gates.swap_regs(regs.x, regs.y),
                 adjoint(gates.qft(12, regs.x)), adjoint(gates.qft(12, regs.y))]:
        back = apply(back, gate)
    assert hilbert.fidelity(back, st1) > 1 - 1e-10


def test_pipeline_trace_serializes(spec13):
    trace, _, _ = dl.run_dlog_demo(spec13, b=11)
    stages = [e["stage"] for e in trace]
    assert stages == list(dl.STAGES)
    import json
    json.dumps(trace)


def test_grover_mode_demo_reports_partial_weight(spec13):
    # diagnostics mode: the recovered index is still the argmax
    trace, rec, _ = dl.run_dlog_demo(spec13, b=pow(2, 4, 13), mode="grover")
    assert rec == 4
    final = next(e["fidelity"] for e in trace if e["stage"] == "final")
    assert final < 1 - 1e-6  # plain reflections cannot finish exactly from w=1/3


@pytest.mark.slow
def test_u_log_large_prime_samples():
    for p, samples in ((29, (0, 11, 27)), (61, (37,))):
        spec = make_group_spec(p)
        lay = dl.make_dlog_layout(spec)
        gate = dl.u_log(spec)
        regs = dl.REGS
        for s in samples:
            out = apply(SparseState.basis(lay, {regs.w: pow(spec.g, s, p)}), gate)
            tgt = SparseState.basis(lay, {regs.w: s})
            assert hilbert.fidelity(out, tgt) >= 1 - 1e-6


def test_pipeline_kit_defaults_and_spelled_out_arguments_share_one_kit(cleared_gate_caches,
                                                                        spec5):
    # the memo is keyed on all three arguments, given by position, so a default
    # and its spelled-out value cannot build (and compile) the kit twice
    kit = dl.pipeline_kit(spec5)
    assert dl.pipeline_kit(spec5, "exact", None) is kit
    assert dl._kit.cache_info().misses == 1


@pytest.mark.parametrize("mode, grover_m", [("exact", None), ("grover", None), ("grover", 3),
                                            ("grover", 0)])
def test_pipeline_kit_holds_one_object_per_distinct_gate(spec13, mode, grover_m):
    # the two Fourier passes share their transforms, the X inverse transform
    # is one gate, and every amplification round repeats one (good, full) pair
    kit = dl.pipeline_kit(spec13, mode, grover_m)
    assert kit["psi1"][0] is kit["psi2"][0]
    assert kit["psi1"][1] is kit["psi2"][1]
    assert kit["mid"][1] is kit["tail"][0]
    rounds = len(kit["schedule"])
    if grover_m is not None:
        assert rounds == grover_m
    for amp in (kit["amp1"], kit["amp2"]):
        assert len(amp) == 2 * rounds
        assert all(gate is amp[i % 2] for i, gate in enumerate(amp))
