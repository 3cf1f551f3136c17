import gc
import math

import numpy as np
import pytest

from references import IPLUS, IY, q_n_operator, sole_tuple
from cycsim import gates, hilbert, mq_circuits as mq
from cycsim.driver import ExperimentConfig, run_experiment
from cycsim.numtheory import DomainError


def test_spin_relations():
    for n in (1, 2, 3):
        spins = mq.SpinConventions(n)
        for k in range(1, n + 1):
            iy = spins.single(k, IY)
            comm = spins.ix(k) @ iy - iy @ spins.ix(k)
            assert np.allclose(comm, 1j * spins.iz(k))
        # ladder actions on the single-qubit factors: I+|1> = |0>, I+|0> = 0
        up = spins.single(1, IPLUS)
        e0 = np.zeros(2**n)
        e0[0] = 1
        assert np.allclose(up @ e0, 0)


def test_q_n_corner_actions():
    for n in (2, 3, 4):
        q = q_n_operator(n, "y")
        N = 2**n
        e0 = np.zeros(N)
        e0[0] = 1
        etop = np.zeros(N)
        etop[-1] = 1
        assert np.allclose(2 * q @ e0, 1j * etop)
        assert np.allclose(2 * q @ etop, -1j * e0)
        assert np.allclose(q, q.conj().T)
        # all matrix elements away from the two corners vanish
        masked = np.abs(q).copy()
        masked[0, -1] = masked[-1, 0] = 0
        assert np.max(masked) < 1e-14
        qx = q_n_operator(n, "x")
        assert np.allclose(qx, qx.conj().T)
    with pytest.raises(DomainError):
        q_n_operator(3, "z")
    with pytest.raises(DomainError):
        q_n_operator(13, "y")


def test_u_ny_exact_actions():
    n = 3
    N = 2**n
    lay = hilbert.RegisterLayout([hilbert.Register("q", N)])
    half = mq.u_ny_exact(n, math.pi / 4, "q")
    out = hilbert.apply(hilbert.SparseState.basis(lay), half)
    amps = {k[0]: a for k, a in out.entries.items()}
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(amps[N - 1] - 1 / math.sqrt(2)) < 1e-12
    ident = mq.u_ny_exact(n, 0.0, "q")
    st = hilbert.SparseState.basis(lay, {"q": 3})
    assert hilbert.apply(st, ident).entries == st.entries
    # middle basis states are untouched for any angle
    out = hilbert.apply(hilbert.SparseState.basis(lay, {"q": 1}),
                        mq.u_ny_exact(n, 1.0, "q"))
    assert sole_tuple(out)[0] == 1
    with pytest.raises(DomainError):
        mq.u_ny_exact(n, 4.0, "q")


def test_u_ny_exact_refuses_too_many_qubits_before_building_its_matrix(monkeypatch):
    # 13 qubits would be a dense 8192 x 8192 matrix and its unitarity check
    monkeypatch.setattr(mq, "u_ny_matrix", lambda *args: pytest.fail("matrix built"))
    with pytest.raises(DomainError, match=f"qubit count {mq.MAX_QUBITS + 1} outside"):
        mq.u_ny_exact(mq.MAX_QUBITS + 1, math.pi / 4, "q")


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_commutator_identity(n):
    spins = mq.SpinConventions(n)
    N = 2**n
    K = (2**n) * spins.product_chain(spins.ix)
    D0 = np.zeros((N, N), complex)
    D0[0, 0] = 1
    q = q_n_operator(n, "y")
    assert np.max(np.abs(2j * q - (D0 @ K - K @ D0))) < 1e-10


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_anticommutator_identity(n):
    spins = mq.SpinConventions(n)
    N = 2**n
    K = (2**n) * spins.product_chain(spins.ix)
    D0 = np.zeros((N, N), complex)
    D0[0, 0] = 1
    q = q_n_operator(n, "y")
    ez = mq._expm_i_herm(spins.iz_total(), math.pi / (2 * n))
    rhs = -1j * ez @ (D0 @ K + K @ D0) @ ez.conj().T
    assert np.max(np.abs(2j * q - rhs)) < 1e-10


@pytest.mark.parametrize("n", (2, 3))
def test_rotation_conjugation_identity(n):
    rng = np.random.default_rng(4)
    N = 2**n
    for _ in range(25):
        a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        rho = (a + a.conj().T) / 2
        t = int(rng.integers(0, N))
        th = float(rng.uniform(-math.pi, math.pi))
        dt = np.zeros((N, N), complex)
        dt[t, t] = 1
        ct = np.eye(N, dtype=complex)
        ct[t, t] = np.exp(-1j * th)
        lhs = ct @ rho @ np.linalg.inv(ct)
        rhs = (rho - (1 - math.cos(th)) * (rho @ dt + dt @ rho)
               + 1j * math.sin(th) * (rho @ dt - dt @ rho)
               + 2 * (1 - math.cos(th)) * dt @ rho @ dt)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_reflection_anticommutator_identity(n):
    spins = mq.SpinConventions(n)
    N = 2**n
    K = (2**n) * spins.product_chain(spins.ix)
    D0 = np.zeros((N, N), complex)
    D0[0, 0] = 1
    assert np.max(np.abs(D0 @ K @ D0)) < 1e-14  # no diagonal matrix element
    C0 = np.eye(N) - 2 * D0
    lhs = D0 @ K + K @ D0
    rhs = 0.5 * (K - C0 @ K @ C0.conj().T)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_product_formula_is_exact():
    # the reflection and the X-chain involution generate commuting conjugates,
    # so the step product reproduces the rotation with no step-count error
    for n in (2, 3, 4):
        for m in (1, 4, 16, 64):
            assert mq.trotter_error(n, math.pi / 4, m) < 1e-12


def test_product_formula_state_preparation():
    n = 3
    N = 2**n
    lay = hilbert.RegisterLayout([hilbert.Register("q", N)])
    out = hilbert.apply(hilbert.SparseState.basis(lay),
                        hilbert.LocalUnitary("q", mq.u_ny_trotter_matrix(n, math.pi / 4, 256)))
    amps = {k[0]: a for k, a in out.entries.items()}
    fid = abs(amps.get(0, 0) / math.sqrt(2) + amps.get(N - 1, 0) / math.sqrt(2)) ** 2
    assert fid >= 0.999
    # identity at zero angle regardless of step count
    st = hilbert.SparseState.basis(lay, {"q": 5})
    out = hilbert.apply(st, hilbert.LocalUnitary("q", mq.u_ny_trotter_matrix(n, 0.0, 3)))
    assert hilbert.fidelity(out, st) > 1 - 1e-12


@pytest.mark.xfail(strict=True,
                   reason="step-count error is identically zero (the product "
                          "formula closes exactly for this algebra), so no "
                          "inverse-step slope exists; see the decisions ledger")
def test_product_formula_slope():
    for n in (2, 3, 4):
        errs = [mq.trotter_error(n, math.pi / 4, m) for m in (4, 8, 16, 32)]
        slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)[0]
        assert abs(slope + 1) < 0.2


def _half(n):
    """The half rotation on register "q", on which the verification circuits run."""
    return mq.u_ny_exact(n, math.pi / 4, "q")


@pytest.mark.parametrize("n", (2, 3))
def test_membership_probabilities(n):
    N = 2**n
    half = _half(n)
    thetas = [math.pi * k / 8 for k in range(1, 9)]
    for t in range(N):
        for th in thetas:
            rot = gates.selective_phase({t: th}, "q", label="C_t")
            rep = mq.membership_circuit(rot, half)
            want = (1 - math.cos(th)) / 2 if t in (0, N - 1) else 0.0
            assert abs(rep.probability - want) < 1e-12


def test_membership_examples():
    half = _half(3)
    rep = mq.membership_circuit(gates.selective_phase({0: math.pi}, "q"), half)
    assert abs(rep.probability - 1) < 1e-12 and rep.verdict == "member"
    rep = mq.membership_circuit(gates.selective_phase({5: math.pi}, "q"), half)
    assert rep.probability < 1e-12 and rep.verdict == "non_member"
    rep = mq.membership_circuit(gates.selective_phase({7: math.pi / 2}, "q"), half)
    assert abs(rep.probability - 0.5) < 1e-12


def test_disambiguation():
    for n in (2, 3, 4):
        N = 2**n
        rep = mq.disambiguate_circuit(gates.selective_phase({0: -math.pi / 2}, "q"), _half(n))
        assert rep.verdict == "is_zero" and rep.probability < 1e-12
        rep = mq.disambiguate_circuit(gates.selective_phase({N - 1: -math.pi / 2}, "q"),
                                      _half(n))
        assert rep.verdict == "is_Nminus1" and abs(rep.probability - 1) < 1e-12


def _rotation_product(rep):
    """U_OR as its definition reads: a pi x-rotation for every set bit."""
    spins = mq.SpinConventions(rep.n)
    out = np.eye(2**rep.n, dtype=complex)
    for k, bit in enumerate(rep.bits, start=1):
        if bit:
            out = out @ mq._expm_i_herm(spins.ix(k), math.pi)
    return out


def _u_or_matrix(rep):
    """The permutation matrix of the U_OR gate, from its compiled table."""
    N = 2**rep.n
    out = np.zeros((N, N), dtype=complex)
    out[mq.u_or(rep, "q").table_for((N,)), np.arange(N)] = 1
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_u_or_closed_form_matches_the_rotation_product(n):
    from cycsim.oracle import binary_rep
    for value in range(2**n):
        rep = binary_rep(value, n)
        # the gate drops the global phase i**popcount of the rotation product
        closed = 1j ** sum(rep.bits) * _u_or_matrix(rep)
        assert np.max(np.abs(closed - _rotation_product(rep))) < 1e-14


def test_u_or_conjugation():
    from cycsim.oracle import binary_rep
    n = 4
    N = 16
    s = 11
    # r = 0: all factors cancel to the identity
    assert np.allclose(_u_or_matrix(binary_rep(0, n)), np.eye(N))

    def c_t(t):  # the selective rotation of basis t at theta = 0.9
        mat = np.eye(N, dtype=complex)
        mat[t, t] = np.exp(-0.9j)
        return mat

    cs = c_t(s)
    for r, want_t in ((s, 0), ((~s) & (N - 1), N - 1), (3, s ^ 3)):
        u = _u_or_matrix(binary_rep(r, n))
        conj = u @ cs @ u.conj().T
        expect = c_t(want_t)
        # equality up to a global phase
        phase = conj[0, 0] / expect[0, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(conj - phase * expect)) < 1e-12


def test_verify_solution_examples():
    n, N, s = 4, 16, 11

    def orc(theta):
        return gates.selective_phase({s: theta}, "q", label="oracle",
                                     cost_class="oracle-call")

    half = _half(n)
    led = hilbert.GateLedger()
    assert mq.verify_solution(s, orc, half, led) is True
    assert led.count("oracle-call") <= 2
    assert mq.verify_solution((~s) & (N - 1), orc, half) is False  # complement rejected
    assert mq.verify_solution(5, orc, half) is False
    for r in range(N):
        assert mq.verify_solution(r, orc, half) is (r == s)


def test_a_warm_verification_leaves_no_reference_cycle():
    # U_OR is its own inverse and dresses both sides, so the call keeps no
    # gate and adjoint pair, and reference counting frees every gate it builds
    n, s = 6, 43

    def orc(theta):
        return gates.selective_phase({s: theta}, "q", label="oracle",
                                     cost_class="oracle-call")

    half = _half(n)
    assert mq.verify_solution(s, orc, half) is True  # builds the adjoint of the half rotation
    gc.collect()
    gc.disable()
    try:
        assert mq.verify_solution(s, orc, half) is True
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("run_demo", [False, True], ids=["search", "demo"])
@pytest.mark.parametrize("epsilon, gamma", [(0.0, 0.0), (0.1, 0.3)], ids=["exact", "pulse"])
def test_a_warm_run_leaves_no_reference_cycle(run_demo, epsilon, gamma):
    # every gate a run builds and adjoints is kept by its instance or kit, so
    # reference counting frees whatever else a warm run makes
    config = ExperimentConfig(p=13, hidden_s=5, epsilon=epsilon, gamma=gamma,
                              run_demo=run_demo)
    assert run_experiment(config).verification["success"]
    gc.collect()
    gc.disable()
    try:
        assert run_experiment(config).verification["success"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_solution_applies_the_callers_half_rotation(monkeypatch):
    # the circuits run on the caller's rotation and its kept adjoint, and
    # build no dense matrix of their own
    n, s = 5, 19

    def orc(theta):
        return gates.selective_phase({s: theta}, "q", label="oracle",
                                     cost_class="oracle-call")

    half = _half(n)
    hilbert.adjoint(half)  # in a run, the search trials have built and kept it
    applied, built = [], []
    apply = hilbert.apply
    monkeypatch.setattr(hilbert, "apply",
                        lambda st, gate, led=None: applied.append(gate) or apply(st, gate, led))
    monkeypatch.setattr(hilbert.LocalUnitary, "__post_init__", lambda self: built.append(self))
    for _ in range(2):
        assert mq.verify_solution(s, orc, half) is True
    halves = [g for g in applied if g.label.startswith("UNY_")]
    # two runs, two circuits each, one rotation and its adjoint per circuit
    assert [id(g) for g in halves] == [id(half), id(hilbert.adjoint(half))] * 4
    assert built == []
