"""Highest-order multiple-quantum operators and the circuits built from them:
exact and Trotterized two-level rotations between |00...0> and |11...1>,
membership/disambiguation tests, solution verification, and the per-subspace
trial search loop.  The verification circuits run on the register of the half
rotation they are given, so one rotation serves a search and its check.

Spin conventions: qubit k = 1 is the least significant bit of the register
index; |0> is the +1/2 eigenstate of I_kz.  Dense 2^n matrices (n <= 12),
applied through the sparse engine as local unitaries; U_OR is a permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gates, hilbert
from .hilbert import GateLedger, GateOp, LocalUnitary, RegisterLayout, SparseState, SimulationError
from .numtheory import CyclicGroupSpec, DomainError
from .oracle import binary_rep, rep_value

MAX_QUBITS = 12

_I2 = np.eye(2, dtype=complex)
_IPLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # I+|1> = |0>
_IMINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # I-|0> = |1>
_IX = (_IPLUS + _IMINUS) / 2
_IZ = np.array([[0.5, 0], [0, -0.5]], dtype=complex)


@dataclass(frozen=True)
class SpinConventions:
    """Operator builders for an n-qubit register (qubit 1 least significant)."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise DomainError(f"qubit count {self.n} outside 1..{MAX_QUBITS}")

    def single(self, k: int, op: np.ndarray) -> np.ndarray:
        """op on qubit k, identity elsewhere."""
        if not 1 <= k <= self.n:
            raise DomainError(f"qubit index {k} outside 1..{self.n}")
        out = np.array([[1.0 + 0j]])
        for j in range(self.n, 0, -1):  # most significant first in the kron chain
            out = np.kron(out, op if j == k else _I2)
        return out

    def ix(self, k: int) -> np.ndarray:
        return self.single(k, _IX)

    def iz(self, k: int) -> np.ndarray:
        return self.single(k, _IZ)

    def iz_total(self) -> np.ndarray:
        return sum(self.iz(k) for k in range(1, self.n + 1))

    def product_chain(self, op_builder: Callable[[int], np.ndarray]) -> np.ndarray:
        out = np.eye(2**self.n, dtype=complex)
        for k in range(1, self.n + 1):
            out = out @ op_builder(k)
        return out


@dataclass(frozen=True)
class TransitionReport:
    probability: float
    verdict: str  # member | non_member | is_zero | is_Nminus1

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1 + 1e-12:
            raise SimulationError("probability outside [0, 1]")


def u_ny_matrix(n: int, theta: float) -> np.ndarray:
    """exp(-i 2 theta Q_ny): plane rotation in span{|0...0>, |1...1>}."""
    N = 2**n
    mat = np.eye(N, dtype=complex)
    mat[0, 0] = math.cos(theta)
    mat[N - 1, N - 1] = math.cos(theta)
    mat[N - 1, 0] = math.sin(theta)
    mat[0, N - 1] = -math.sin(theta)
    return mat


def u_ny_exact(n: int, theta: float, reg: str) -> GateOp:
    if not -math.pi <= theta <= math.pi:
        raise DomainError("rotation angle outside [-pi, pi]")
    SpinConventions(n)  # refuses n past MAX_QUBITS before the 4**n-entry matrix is built
    return LocalUnitary(reg, u_ny_matrix(n, theta), label=f"UNY_{n}", cost_class="arith")


def u_ny_trotter_matrix(n: int, theta: float, m: int) -> np.ndarray:
    """Product-formula approximation of exp(-i 2 theta Q_ny) with O(1/m) error."""
    if m < 1:
        raise DomainError("at least one product step required")
    spins = SpinConventions(n)
    N = 2**n
    ix_chain = spins.product_chain(spins.ix)
    phi = math.pi / (2 * n)
    d0 = np.zeros((N, N), dtype=complex)
    d0[0, 0] = 1.0
    c0 = np.eye(N, dtype=complex) - 2 * d0  # C_0(pi)
    g = _expm_i_herm(ix_chain, -theta * (2 ** (n - 1)) / m)
    step = c0 @ g @ c0.conj().T @ g.conj().T
    core = np.linalg.matrix_power(step, m)
    ez = _expm_i_herm(spins.iz_total(), phi)
    return ez @ core @ ez.conj().T


def _expm_i_herm(h: np.ndarray, c: float) -> np.ndarray:
    """exp(1j * c * h) for Hermitian h, via eigendecomposition (exactly unitary)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * c * w)) @ v.conj().T


def trotter_error(n: int, theta: float, m: int) -> float:
    """Largest singular value of (product formula - exact)."""
    diff = u_ny_trotter_matrix(n, theta, m) - u_ny_matrix(n, theta)
    return float(np.linalg.norm(diff, 2))


def _conjugated(half: GateOp, middle: tuple[GateOp, ...], ledger: GateLedger | None,
                state: SparseState | None = None) -> tuple[float, SparseState]:
    """half, the middle gates and half's kept adjoint applied to `state`, by
    default the ground state of a one-register layout of half's register;
    returns the weight of the highest value of half's register and the state."""
    if state is None:
        state = SparseState.basis(RegisterLayout([hilbert.Register(half.reg, half.matrix.shape[0])]))
    state = hilbert.apply_all(state, (half, *middle, hilbert.adjoint(half)), ledger)
    dim = state.layout.dim(half.reg)
    return state.weight_where(half.reg, np.arange(dim) == dim - 1), state


def membership_circuit(t_rotation: GateOp, half: GateOp,
                       ledger: GateLedger | None = None) -> TransitionReport:
    """Probability of reaching |1...1> from the ground state when the selective
    rotation is sandwiched between the two-level half rotation `half` and its
    adjoint, on half's register.

    Equals (1 - cos theta)/2 for a rotation by theta of basis 0 or N-1, else 0.
    """
    prob, _ = _conjugated(half, (t_rotation,), ledger)
    verdict = "member" if prob > 0.5 - 1e-9 else "non_member"
    return TransitionReport(prob, verdict)


def disambiguate_circuit(t_rotation_neg: GateOp, half: GateOp,
                         ledger: GateLedger | None = None) -> TransitionReport:
    """Given a membership hit, decide ground vs highest: C_0(pi/2) then the
    candidate rotation at -pi/2 inside the same conjugation."""
    c0 = gates.selective_phase({0: math.pi / 2}, half.reg, label="C_0")
    prob, _ = _conjugated(half, (c0, t_rotation_neg), ledger)
    verdict = "is_Nminus1" if prob > 0.5 else "is_zero"
    return TransitionReport(prob, verdict)


def u_or(rep, reg: str) -> GateOp:
    """Basis relabeling x -> x XOR value on the 2**n levels of the rep, the
    identity above them.

    By definition this is the product of pi x-rotations exp(i pi I_kx) on the
    bits set in the rep, each i times the flip of bit k: i**popcount times
    the permutation.  The global phase cancels in every conjugation
    U_OR+ . C . U_OR, so the gate is the permutation alone, which is its own
    inverse: U_OR . C . U_OR is the same conjugation.
    """
    SpinConventions(rep.n)  # validates the qubit count
    mask, top = rep_value(rep), 2**rep.n

    def xor(cols: np.ndarray) -> np.ndarray:
        return np.where(cols < top, cols ^ mask, cols)

    return hilbert.Permutation((reg,), xor, xor, label="U_OR")


def verify_solution(candidate: int, oracle_for_theta: Callable[[float], GateOp],
                    half: GateOp, ledger: GateLedger | None = None) -> bool:
    """Two-stage check that `candidate` is the marked basis value, using at most
    two oracle calls: membership at theta = pi, then disambiguation at -pi/2.

    Both circuits run on the register of the half rotation `half` (2**n
    levels); the oracle factory must return the selective rotation of the
    hidden value on that register for a requested angle.
    """
    n = half.matrix.shape[0].bit_length() - 1
    conj = u_or(binary_rep(candidate, n), half.reg)

    def dressed(theta: float) -> GateOp:
        # conj is an involution, so it dresses both sides and no adjoint is kept
        return hilbert.Sequence((conj, oracle_for_theta(theta), conj), label="C_t")

    stage1 = membership_circuit(dressed(math.pi), half, ledger)
    if stage1.verdict != "member":
        return False
    stage2 = disambiguate_circuit(dressed(-math.pi / 2), half, ledger)
    return stage2.verdict == "is_zero"


@dataclass(frozen=True)
class SearchGates:
    """The gates of a component search that do not depend on the instance
    data, built once so their tables compile once.

    half opens a trial and its adjoint closes it.  dress[x] = (f1, shift_x)
    fixes |1...1> and turns the ground branch into the x-th subgroup state
    (x < m_r), at the head of trial x's chain into the auxiliary oracle.
    top_reset returns a register found at |1...1> to 0.  All act on half.reg.
    """

    half: GateOp
    dress: tuple[tuple[GateOp, GateOp], ...]
    top_reset: GateOp


def search_gates(spec: CyclicGroupSpec, reg: str) -> SearchGates:
    """Search gates on register `reg` of `gates.register_dim(p)` = 2**n levels.

    Ground and highest states of the search register sit outside the subgroup
    state space (asserted), so the inert |1...1> branch survives the dressing.
    """
    m_r = spec.largest_order
    h_r = spec.subgroup_generators[-1]
    n = spec.p.bit_length()
    N = 2**n
    sub_values = {pow(h_r, x, spec.p) for x in range(m_r)}
    if 0 in sub_values or N - 1 in sub_values:
        raise SimulationError("ground/highest state collides with the subgroup space")
    f1 = gates.transposition(0, 1, reg)          # fixes the top state
    shifts = [gates.cyclic_shift(spec.p, h_r, reg, power=x) for x in range(m_r)]
    return SearchGates(u_ny_exact(n, math.pi / 4, reg), tuple((f1, shift) for shift in shifts),
                       gates.transposition(0, N - 1, reg))


def trial_circuit_prob(state: SparseState, search: SearchGates, aux_oracle: GateOp,
                       ledger: GateLedger | None = None) -> tuple[float, SparseState]:
    """One search trial: the half rotation, the auxiliary oracle dressed for
    the trial, the half rotation's adjoint; returns the |1...1> probability
    and the post-trial state."""
    return _conjugated(search.half, (aux_oracle,), ledger, state)


TRIAL_THRESHOLD = 0.5  # the hit trial of a theta = pi oracle reads 1


def subspace_search(aux_oracle_for: Callable[[int], GateOp], search: SearchGates, k: int,
                    state: SparseState, ledger: GateLedger | None = None
                    ) -> tuple[int, SparseState, dict]:
    """Try subgroup indices x = 0, 1, ... until the highest-state probability
    crosses TRIAL_THRESHOLD; at most m_r trials, one oracle call each.  The
    factory returns the auxiliary oracle dressed for trial x."""
    probs: list[float] = []
    found: int | None = None
    for x in range(len(search.dress)):
        prob, state = trial_circuit_prob(state, search, aux_oracle_for(x), ledger)
        probs.append(prob)
        if prob > TRIAL_THRESHOLD:
            found = x
            # measured outcome is the highest state; return the register to 0
            state = hilbert.apply(state, search.top_reset, ledger)
            break
    if found is None:
        raise SimulationError(
            f"search fault: no trial probability above {TRIAL_THRESHOLD} (component {k})")
    info = {"trial_probabilities": probs, "oracle_calls": len(probs),
            "max_probability": max(probs)}
    return found, state, info
