import math

import pytest
from hypothesis import given, strategies as st

from references import crt_decompose, element_of_order, moduli, prime_powers
from cycsim import numtheory as nt

TEST_PRIMES = (5, 7, 11, 13, 29, 61)


def test_factorize_orders_by_prime_power():
    f = nt.factorize(12)
    assert f.factors == ((3, 1), (2, 2))  # 3 < 4
    assert nt.factorize(7).factors == ((7, 1),)
    f60 = nt.factorize(60)
    assert f60.factors == ((3, 1), (2, 2), (5, 1))  # 3 < 4 < 5
    assert prime_powers(f60) == (3, 4, 5)


def test_factorize_rejects_small():
    with pytest.raises(nt.DomainError):
        nt.factorize(1)


@given(st.integers(2, 5000))
def test_factorize_reconstructs(n):
    f = nt.factorize(n)
    assert math.prod(p**a for p, a in f.factors) == n
    assert all(nt.is_prime(p) for p, _ in f.factors)


def test_totient_examples():
    assert nt.euler_totient(nt.factorize(12)) == 4
    assert nt.euler_totient(nt.factorize(13)) == 12
    assert nt.euler_totient(nt.factorize(60)) == 16


@pytest.mark.parametrize("n", list(range(2, 257)) + [999, 1024, 3600, 9973, 10000])
def test_totient_matches_coprime_count(n):
    brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert nt.totient(n) == brute


def test_primitive_roots():
    assert nt.find_primitive_root(3) == 2
    assert nt.find_primitive_root(13) == 2
    assert nt.find_primitive_root(7) == 3
    with pytest.raises(nt.DomainError):
        nt.find_primitive_root(12)


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_primitive_root_has_full_order(p):
    g = nt.find_primitive_root(p)
    assert nt.multiplicative_order(g, p) == p - 1
    assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_crt_basis_invariants(p):
    basis = nt.crt_basis(nt.factorize(p - 1))
    assert math.prod(moduli(basis)) == p - 1
    for c in basis.components:
        assert (c.n * c.M) % c.m == 1 % c.m
        assert c.M == (p - 1) // c.m
    ms = moduli(basis)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            assert math.gcd(ms[i], ms[j]) == 1


def test_crt_compose_example_p13():
    basis = nt.crt_basis(nt.factorize(12))
    assert moduli(basis) == (3, 4)
    assert nt.crt_compose((1, 3), basis) == 7  # 1*4*1 + 3*3*3 = 31 = 7 mod 12
    assert nt.crt_compose((0, 0), basis) == 0


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_crt_roundtrip_exhaustive(p):
    basis = nt.crt_basis(nt.factorize(p - 1))
    for s in range(p - 1):
        assert nt.crt_compose(crt_decompose(s, basis), basis) == s


def test_crt_range_errors():
    basis = nt.crt_basis(nt.factorize(12))
    with pytest.raises(nt.DomainError):
        nt.crt_compose((3, 3), basis)  # first residue out of range
    with pytest.raises(nt.DomainError):
        crt_decompose(12, basis)


def test_classical_dlog_examples():
    assert nt.classical_dlog(13, 2, 1) == 0
    assert nt.classical_dlog(13, 2, 2) == 1
    assert nt.classical_dlog(13, 2, 11) == 7
    with pytest.raises(nt.DomainError):
        nt.classical_dlog(13, 2, 0)


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_classical_dlog_exhaustive(p):
    g = nt.find_primitive_root(p)
    for s in range(p - 1):
        assert nt.classical_dlog(p, g, pow(g, s, p)) == s


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_group_spec(p):
    spec = nt.make_group_spec(p)
    for gen, comp in zip(spec.subgroup_generators, spec.basis.components):
        assert nt.multiplicative_order(gen, p) == comp.m
    assert spec.largest_order == max(moduli(spec.basis))


def test_element_of_order():
    assert nt.multiplicative_order(element_of_order(8, 17), 17) == 8
    with pytest.raises(nt.DomainError):
        element_of_order(5, 17)
