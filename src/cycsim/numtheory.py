"""Exact integer number theory: factorization, totient, primitive roots,
CRT composition, and the classical discrete-log oracle used to cross-check
every quantum stage.

All functions are pure and operate on plain ints; nothing here is probabilistic.
Scale target is desk-sized moduli (p <= 2^16), so trial division and brute-force
discrete logs are deliberate choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


@dataclass(frozen=True)
class Factorization:
    """n as a product of prime powers, ordered ascending by p**a."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, a in self.factors:
            prod *= p**a
        if prod != self.n:
            raise DomainError(f"factors do not multiply to {self.n}")
        powers = [p**a for p, a in self.factors]
        if powers != sorted(powers) or len(set(p for p, _ in self.factors)) != len(self.factors):
            raise DomainError("factors must be distinct primes ordered by p**a")


def factorize(n: int) -> Factorization:
    """Trial-division factorization; components sorted ascending by p**a."""
    if n < 2:
        raise DomainError(f"cannot factorize {n}: need n >= 2")
    m = n
    raw: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            raw[d] = raw.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        raw[m] = raw.get(m, 0) + 1
    factors = tuple(sorted(raw.items(), key=lambda pa: pa[0] ** pa[1]))
    return Factorization(n, factors)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def euler_totient(f: Factorization) -> int:
    phi = 1
    for p, a in f.factors:
        phi *= p ** (a - 1) * (p - 1)
    return phi


def totient(n: int) -> int:
    return euler_totient(factorize(n)) if n > 1 else 1


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in the multiplicative group mod p (p prime, gcd(a,p)=1)."""
    if a % p == 0:
        raise DomainError("element divisible by modulus has no order")
    order = p - 1
    for q, _ in factorize(p - 1).factors:
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod p (determinism: smallest is canonical)."""
    if not is_prime(p) or p < 3:
        raise DomainError(f"{p} is not an odd prime")
    qs = [q for q, _ in factorize(p - 1).factors]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise DomainError(f"no primitive root mod {p}")  # unreachable for prime p


@dataclass(frozen=True)
class CrtComponent:
    m: int  # prime-power modulus m_k
    M: int  # cofactor (p-1)/m_k
    n: int  # inverse of M mod m, n*M = 1 (mod m)


@dataclass(frozen=True)
class CrtBasis:
    """Chinese-remainder data for Z_m with pairwise-coprime prime-power moduli."""

    modulus: int
    components: tuple[CrtComponent, ...]

    def __post_init__(self):
        prod = 1
        for c in self.components:
            prod *= c.m
            if c.M != self.modulus // c.m or (c.n * c.M) % c.m != 1 % c.m:
                raise DomainError("inconsistent CRT component")
        if prod != self.modulus:
            raise DomainError("component moduli do not multiply to the modulus")


def crt_basis(f: Factorization) -> CrtBasis:
    comps = []
    for p, a in f.factors:
        m = p**a
        M = f.n // m
        comps.append(CrtComponent(m=m, M=M, n=pow(M, -1, m) if m > 1 else 0))
    return CrtBasis(f.n, tuple(comps))


def crt_compose(residues: tuple[int, ...] | list[int], basis: CrtBasis) -> int:
    if len(residues) != len(basis.components):
        raise DomainError("residue count does not match basis")
    total = 0
    for r, c in zip(residues, basis.components):
        if not 0 <= r < c.m:
            raise DomainError(f"residue {r} outside Z_{c.m}")
        total += c.n * c.M * r
    return total % basis.modulus


def classical_dlog(p: int, g: int, b: int) -> int:
    """Brute-force index s with g**s = b (mod p); correctness oracle at desk scale."""
    if not 1 <= b < p:
        raise DomainError(f"{b} outside the multiplicative group mod {p}")
    acc = 1
    for s in range(p - 1):
        if acc == b:
            return s
        acc = (acc * g) % p
    raise DomainError(f"{b} is not a power of {g} mod {p}")


@dataclass(frozen=True)
class CyclicGroupSpec:
    """Group data for one problem instance: prime p, primitive root g, CRT basis
    of Z_{p-1}, and the subgroup generators g**M_k."""

    p: int
    g: int
    basis: CrtBasis
    subgroup_generators: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if multiplicative_order(self.g, self.p) != self.p - 1:
            raise DomainError(f"{self.g} is not a primitive root mod {self.p}")

    @property
    def r(self) -> int:
        return len(self.basis.components)

    @property
    def largest_order(self) -> int:
        return self.basis.components[-1].m


def make_group_spec(p: int, g: int | None = None) -> CyclicGroupSpec:
    if not is_prime(p) or p < 3:
        raise DomainError(f"{p} is not an odd prime")
    if g is None:
        g = find_primitive_root(p)
    basis = crt_basis(factorize(p - 1))
    gens = tuple(pow(g, c.M, p) for c in basis.components)
    return CyclicGroupSpec(p=p, g=g, basis=basis, subgroup_generators=gens)
