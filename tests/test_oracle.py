import math

import pytest

from cycsim import hilbert
from cycsim.hilbert import Register, RegisterLayout, SparseState, apply
from cycsim.numtheory import DomainError
from cycsim.oracle import (BinaryRep, OracleSpec, binary_rep, make_oracle,
                           make_subspace_oracle, rep_value)


def test_binary_rep_examples():
    assert binary_rep(0, 3).b == (1, 1, 1)
    assert binary_rep(7, 3).b == (-1, -1, -1)
    rep = binary_rep(11, 4)
    assert rep.bits == (1, 1, 0, 1)  # 11 = 8+2+1, least significant first
    assert rep.b == (-1, -1, 1, -1)
    assert rep_value(rep) == 11
    with pytest.raises(DomainError):
        binary_rep(8, 3)
    with pytest.raises(DomainError):
        BinaryRep(2, (1, 0))


@pytest.mark.parametrize("n", range(1, 13))
def test_binary_rep_roundtrip_exhaustive(n):
    for v in range(2**n):
        assert rep_value(binary_rep(v, n)) == v


def test_oracle_spec_guards(spec13):
    with pytest.raises(DomainError):
        OracleSpec(12, spec13)
    with pytest.raises(DomainError):
        OracleSpec(-1, spec13)


def test_phase_oracle_marks_exactly_one_state(spec13):
    lay = RegisterLayout([Register("w", 16)])
    spec = OracleSpec(7, spec13)
    gate = make_oracle(spec, "w", math.pi)
    flipped = 0
    for x in range(12):
        st = SparseState.basis(lay, {"w": pow(spec13.g, x, 13)})
        out = apply(st, gate)
        amp = list(out.entries.values())[0]
        assert abs(abs(amp) - 1) < 1e-12
        if amp.real < 0:
            flipped += 1
            assert x == 7
    assert flipped == 1  # hidden-index uniqueness


def test_phase_oracle_inverse_pair(spec13):
    lay = RegisterLayout([Register("w", 16)])
    spec = OracleSpec(5, spec13)
    fwd = make_oracle(spec, "w", 1.1)
    back = make_oracle(spec, "w", -1.1)
    st = apply(SparseState.basis(lay), hilbert.Sequence((fwd, back)))
    assert st.entries == SparseState.basis(lay).entries


def test_subspace_oracle_cases(spec13):
    lay = RegisterLayout([Register("w", 16), Register("a1", 4),
                          Register("a2", 4)])
    spec = OracleSpec(7, spec13)
    gate = make_subspace_oracle(spec, "w", ("a1", "a2"), math.pi)
    marked = pow(spec13.g, 7, 13)
    # aux all zero and marked work value: phase applied
    out = apply(SparseState.basis(lay, {"w": marked}), gate)
    assert abs(list(out.entries.values())[0] + 1) < 1e-12
    # aux library disturbed: no action even on the marked value
    out = apply(SparseState.basis(lay, {"w": marked, "a1": 2}), gate)
    assert abs(list(out.entries.values())[0] - 1) < 1e-12
    # aux zero but unmarked work value: no action
    out = apply(SparseState.basis(lay, {"w": 5}), gate)
    assert abs(list(out.entries.values())[0] - 1) < 1e-12
    with pytest.raises(DomainError):
        make_subspace_oracle(spec, "w", ("w", "a1"), math.pi)


def test_subspace_oracle_fires_only_on_a_clean_library(spec13):
    lay = RegisterLayout([Register("w", 16), Register("a1", 4),
                          Register("a2", 3)])
    spec = OracleSpec(7, spec13)
    gate = make_subspace_oracle(spec, "w", ("a1", "a2"), math.pi)
    assert gate.on == {(0, 0)}
    marked = pow(spec13.g, 7, 13)
    rows = [(w, a1, a2) for w in (marked, 5) for a1 in range(4) for a2 in range(3)]
    amp = 1 / math.sqrt(len(rows))
    out = apply(SparseState(lay, {k: amp + 0j for k in rows}), gate)
    for (w, a1, a2), a in out.entries.items():
        fired = w == marked and a1 == 0 and a2 == 0
        assert abs(a - (-amp if fired else amp)) < 1e-12


def test_oracle_ledger_class(spec13):
    lay = RegisterLayout([Register("w", 16), Register("a1", 4)])
    spec = OracleSpec(3, spec13)
    gate = make_subspace_oracle(spec, "w", ("a1",), math.pi)
    led = hilbert.GateLedger()
    apply(SparseState.basis(lay, {"w": 1}), gate, led)
    assert led.count("oracle-call") == 1
