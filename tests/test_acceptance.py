"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s`.  Criterion 7 is expected to
fail and is marked strict-xfail: the step-count error of the product formula
is identically zero for this operator algebra, so the inverse-step slope it
asks for does not exist (details in the decisions ledger); the companion
exactness check in criterion 7b records the actual behavior.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import dlog_stages as stages
import references as ref
from cycsim import dlog_pipeline as dl
from cycsim import gates, halting_program as hp
from cycsim import hilbert, mq_circuits as mq
from cycsim.driver import ExperimentConfig, run_experiment, run_sweep
from cycsim.hilbert import Register, RegisterLayout, SparseState, adjoint, apply
from cycsim.numtheory import classical_dlog, crt_compose, make_group_spec, totient

CRT_PRIMES = (5, 7, 11, 13, 29, 61)


def _report(n, ok, extra=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{' - ' + extra if extra else ''}")


def test_criterion_1_crt_identities():
    t0 = time.perf_counter()
    for p in CRT_PRIMES:
        spec = make_group_spec(p)
        basis = spec.basis
        for s in range(p - 1):
            residues = ref.crt_decompose(s, basis)
            assert crt_compose(residues, basis) == s
            assert sum(c.n * c.M * r for c, r in
                       zip(basis.components, residues)) % (p - 1) == s
            prod = 1
            for gen, c, r in zip(spec.subgroup_generators, basis.components, residues):
                prod = (prod * pow(gen, c.n * r, p)) % p
            assert prod == pow(spec.g, s, p)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(1, True, f"{dt:.2f}s for p in {CRT_PRIMES}")


@pytest.mark.parametrize("p", (5, 7, 13))
def test_criterion_2_dlog_unitary(p):
    t0 = time.perf_counter()
    spec = make_group_spec(p)
    regs = dl.REGS
    layout = dl.make_dlog_layout(spec)
    gate = dl.u_log(spec)
    for s in range(p - 1):
        b = pow(spec.g, s, p)
        out = apply(SparseState.basis(layout, {regs.w: b}), gate)
        target = SparseState.basis(layout, {regs.w: s})
        fid = hilbert.fidelity(out, target)
        assert fid >= 1 - 1e-6, (p, s, fid)
        assert classical_dlog(p, spec.g, b) == s
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(2, True, f"p={p} exhaustive in {dt:.2f}s")


def test_criterion_3_euler_filter_and_grover():
    for p in CRT_PRIMES:
        spec = make_group_spec(p)
        st = stages.prepare_psi1(spec, b=pow(spec.g, min(3, p - 2), p))
        st = stages.to_psi2(st, spec)
        _, weight = stages.euler_filter(st, spec)
        assert abs(weight - totient(p - 1) / (p - 1)) < 1e-12, p
    # amplified weight follows the closed-form rotation
    spec = make_group_spec(13)
    regs = dl.REGS
    kit = dl.pipeline_kit(spec)
    prep1 = hilbert.Sequence(tuple(kit["stage1"]))
    w = totient(12) / 12
    for m in (1, 2, 3):
        st = stages.prepare_psi1(spec, b=11)
        st = stages.to_psi2(st, spec)
        st, _ = stages.euler_filter(st, spec)
        out, _ = stages.amplitude_amplify(
            st, lambda phi: dl.good_rotation_stage1(spec, phi),
            lambda phi: dl.reflect_about(prep1, dl._full_pivot(), phi),
            "grover", w, m)
        coprime = [math.gcd(v, 12) == 1 for v in range(out.layout.dim(regs.x))]
        got = out.weight_where(regs.x, coprime)
        want = math.sin((2 * m + 1) * math.asin(math.sqrt(w))) ** 2
        assert abs(got - want) < 1e-9, (m, got, want)
    _report(3, True, "weights exact, rotation closed form to 1e-9")


def test_criterion_4_halting_program():
    t0 = time.perf_counter()
    cases = {3: 7, 4: 13, 8: 17, 16: 17}
    for m_r, p in cases.items():
        cfg = hp.ProgramConfig(p, m_r, ref.element_of_order(m_r, p))
        layout = ref.make_qp_layout(cfg)
        regs = hp.QpRegs()
        qp = hp.qp_gate(cfg, regs, None)
        seen = set()
        for x, y in itertools.product(range(m_r), repeat=2):
            st = SparseState.basis(layout, {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)})
            out = apply(st, qp)
            step = out.register_value(regs.rec)
            tup = ref.sole_tuple(out)
            got = tuple(tup[layout.index(nm)]
                        for nm in (regs.nh, regs.bh, regs.f, regs.g))
            assert got == (1, 1, cfg.f_r(x), 0), (m_r, x, y, got)
            assert step == ref.expected_record(x, y, m_r)
            key = (cfg.f_r(x), step)
            assert key not in seen
            seen.add(key)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(4, True, f"m_r in {tuple(cases)} exhaustive in {dt:.2f}s")


def test_criterion_5_pulse_model():
    cases = {3: 7, 4: 13, 8: 17, 16: 17}
    for m_r, p in cases.items():
        cfg = hp.ProgramConfig(p, m_r, ref.element_of_order(m_r, p))
        layout = ref.make_qp_layout(cfg)
        regs = hp.QpRegs()
        qp = hp.qp_gate(cfg, regs, None)
        for x, y in itertools.product(range(m_r), repeat=2):
            vals = {regs.f: cfg.f_r(x), regs.g: cfg.f_r(y)}
            qc_out, info = ref.run_qc(SparseState.basis(layout, vals), cfg,
                                      hp.PulseModel(0.0))
            assert abs(info["fidelity"] - 1) < 1e-12
            qp_out = apply(SparseState.basis(layout, vals), qp)
            tq, tc = ref.sole_tuple(qp_out), ref.sole_tuple(qc_out)
            for nm in (regs.bh, regs.f, regs.g):
                assert tq[layout.index(nm)] == tc[layout.index(nm)]
    cfg = hp.ProgramConfig(13, 4, 8)
    layout = ref.make_qp_layout(cfg)
    regs = hp.QpRegs()
    vals = {regs.f: cfg.f_r(2), regs.g: cfg.f_r(1)}
    fids = [ref.run_qc(SparseState.basis(layout, vals), cfg,
                       hp.PulseModel(eps, 0.7))[1]["fidelity"]
            for eps in (0.05, 0.1, 0.2)]
    assert fids[0] > fids[1] > fids[2]
    _report(5, True, f"circuit==program at eps=0; fidelities {['%.4f' % f for f in fids]}")


def test_criterion_6_mq_algebra():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        spins = mq.SpinConventions(n)
        N = 2**n
        K = (2**n) * spins.product_chain(spins.ix)
        D0 = np.zeros((N, N), complex)
        D0[0, 0] = 1
        q = ref.q_n_operator(n, "y")
        assert np.max(np.abs(2j * q - (D0 @ K - K @ D0))) < 1e-10
        ez = mq._expm_i_herm(spins.iz_total(), math.pi / (2 * n))
        assert np.max(np.abs(2j * q + 1j * ez @ (D0 @ K + K @ D0) @ ez.conj().T)) < 1e-10
        C0 = np.eye(N) - 2 * D0
        assert np.max(np.abs((D0 @ K + K @ D0)
                             - 0.5 * (K - C0 @ K @ C0.conj().T))) < 1e-10
        for _ in range(100):
            a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            rho = (a + a.conj().T) / 2
            t = int(rng.integers(0, N))
            th = float(rng.uniform(-math.pi, math.pi))
            dt_ = np.zeros((N, N), complex)
            dt_[t, t] = 1
            ct = np.eye(N, dtype=complex)
            ct[t, t] = np.exp(-1j * th)
            lhs = ct @ rho @ np.linalg.inv(ct)
            rhs = (rho - (1 - math.cos(th)) * (rho @ dt_ + dt_ @ rho)
                   + 1j * math.sin(th) * (rho @ dt_ - dt_ @ rho)
                   + 2 * (1 - math.cos(th)) * dt_ @ rho @ dt_)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
    for n in (2, 3, 4, 5, 6):
        N = 2**n
        half = mq.u_ny_exact(n, math.pi / 4, "q")
        grid = [math.pi * (k + 1) / 9 for k in range(9)]
        for t in range(N):
            for th in grid:
                rep = mq.membership_circuit(gates.selective_phase({t: th}, "q"), half)
                want = (1 - math.cos(th)) / 2 if t in (0, N - 1) else 0.0
                assert abs(rep.probability - want) < 1e-12, (n, t, th)
    _report(6, True, "operator identities to 1e-10; transition grid exact")


@pytest.mark.xfail(strict=True,
                   reason="unattainable as stated: the product-formula error is "
                          "identically ~1e-15 at every step count (the two "
                          "conjugated exponents commute), so the slope is noise; "
                          "see the decisions ledger")
def test_criterion_7_product_formula_slope():
    ok = True
    for n in (2, 3, 4):
        errs = [mq.trotter_error(n, math.pi / 4, m) for m in (4, 8, 16, 32)]
        slope = float(np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)[0])
        if abs(slope + 1) > 0.2:
            _report(7, False, f"n={n}: errors {['%.1e' % e for e in errs]}, "
                              f"slope {slope:.2f} (error is already exact)")
            ok = False
    assert ok


def test_criterion_7b_product_formula_exactness():
    # the honest replacement bound: the construction reproduces the rotation to
    # rounding at every step count (strictly stronger than 1/m convergence)
    worst = max(mq.trotter_error(n, math.pi / 4, m)
                for n in (2, 3, 4) for m in (4, 8, 16, 32))
    assert worst < 1e-12
    _report("7b", True, f"operator error <= {worst:.2e} at every step count")


@pytest.mark.parametrize("p", (13, 29))
def test_criterion_8_end_to_end(p):
    t0 = time.perf_counter()
    reports = run_sweep(ExperimentConfig(p=p))
    dt = time.perf_counter() - t0
    assert len(reports) == p - 1
    m_r = make_group_spec(p).largest_order
    total_calls = 0
    for rep in reports:
        assert rep.verification["success"] is True, rep.verification
        for comp in rep.components:
            assert comp["oracle_calls"] <= m_r
        total_calls += rep.oracle_calls_total
        assert rep.oracle_calls_total == rep.gate_counts.get("oracle-call", 0)
    assert dt < 60.0
    _report(8, True, f"p={p}: {p-1}/{p-1} recovered, {total_calls} oracle calls, {dt:.1f}s")


def _fuzz_layout():
    return RegisterLayout([Register("a", 6), Register("b", 4),
                           Register("c", 3), Register("q", 8)])


def _fuzz_zoo():
    from cycsim.oracle import binary_rep

    return [
        gates.add_mod(3, "b", "c"),
        gates.add_mod(4, "c", "b"),
        gates.mul3(3, "a", "b", "c"),
        ref.mod_reduce(3, "a", "b", 4),
        gates.transposition(1, 4, "a"),
        gates.set_const(2, "b", 4),
        ref.mul_const(3, 5, "a"),
        ref.cond_mod_exp_two_reg(2, 5, "b", "a"),
        ref.cond_mod_exp_three_reg(2, 4, "a", "c", "b"),
        ref.cond_mod_exp_two_var(2, 3, 5, "b", "c", "a"),
        gates.pow_const(3, 5, "a", "q"),
        gates.group_mul_acc(5, "a", "q"),
        gates.cyclic_shift(5, 2, "a"),
        gates.cyclic_shift(5, 2, "a", power=2, control="b"),
        gates.qft(6, "a"),
        gates.qft(3, "c"),
        ref.functional_qft(lambda x: pow(2, x, 5), 4, "q", 8),
        gates.selective_phase({2: 0.3, 5: -1.0}, "a"),
        gates.pairing_permutation([1, 2, 4], [1, 3, 5], "q"),
        mq.u_ny_exact(3, 0.7, "q"),
        hilbert.LocalUnitary("q", mq.u_ny_trotter_matrix(3, 0.7, 4)),
        mq.u_or(binary_rep(5, 3), "q"),
        hp.u_r_gate(hp.ProgramConfig(5, 4, 2), "a", "q"),
    ]


def test_criterion_9_unitarity_fuzz():
    layout = _fuzz_layout()
    rng = random.Random(99)
    dims = [r.dim for r in layout.registers]

    def rand_state():
        keys = set()
        while len(keys) < 5:
            keys.add(tuple(rng.randrange(d) for d in dims))
        amps = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in keys}
        norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        return SparseState(layout, {k: v / norm for k, v in amps.items()})

    checked_tables = 0
    for gate in _fuzz_zoo():
        for _ in range(100):
            st = rand_state()
            try:
                out = apply(st, gate)
            except hilbert.SimulationError as err:
                if "outside the" in str(err):  # domain-contract refusal, not drift
                    continue
                raise
            assert abs(out.norm() - 1.0) < 1e-10, gate.label
            back = apply(out, adjoint(gate))
            assert hilbert.fidelity(back, st) > 1 - 1e-10, gate.label
        if isinstance(gate, hilbert.Permutation):
            assert any(t is not None for t in gate.tables.values()), gate.label
            checked_tables += 1
    assert checked_tables >= 10
    _report(9, True, f"{len(_fuzz_zoo())} gates x 100 states; "
                     f"{checked_tables} permutations verified bijective")


def test_criterion_10_determinism():
    cfg = ExperimentConfig(p=13, hidden_s=9)
    blobs = {run_experiment(cfg).to_json() for _ in range(3)}
    assert len(blobs) == 1
    cfg_r = ExperimentConfig(p=13, hidden_random=True, seed=5)
    blobs_r = {run_experiment(cfg_r).to_json() for _ in range(2)}
    assert len(blobs_r) == 1
    # gate application is single-threaded with a fixed reduction order, so the
    # report bytes cannot depend on a thread count
    _report(10, True, "byte-identical reports across repeated runs")
