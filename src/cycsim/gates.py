"""Constructors for reversible arithmetic, relabeling and Fourier gates.

Partial textbook definitions (result written into a |0> target) are extended to
total permutations by *adding* the result into the target modulo the working
modulus L; on the intended inputs the behavior is unchanged.  Group-valued maps
instead *multiply* the target by a unit mod L.  `_accumulate` and `_scale` are
the one home of these two extensions: every arithmetic constructor below is one
call to either, each one rule for both directions (the adjoint adds the
negated value or multiplies by the inverse unit).  Relabelings of listed basis
tuples (transpositions, the halting statement, the pair transposition U_r)
have one home too, `pairing_permutation`.  Every permutation is a column map
(see `hilbert.Permutation`): fn and inv take a k x n int64 matrix of register
columns to the matrix of their images, and every compiled table is checked on
its whole domain.  The builders write their rules on one basis tuple and pass
them through `per_tuple`, which maps a column matrix one tuple at a time; only
`work_mod_exp` gives `_accumulate` its value in column form, one numpy function
of the control registers' int64 columns.  Registers may be padded above the
working modulus: every gate acts as the identity outside its defined domain (a
target at or above L, or a value or factor forced to 0 or 1), and pipelines
assert that support never leaves that domain.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .hilbert import GateOp, LocalUnitary, Permutation, PhaseFn
from .numtheory import DomainError


def register_dim(p: int) -> int:
    """Uniform register size 2**n with n = floor(log2 p) + 1; holds Z_p plus
    the out-of-group control value p and the top state 2**n - 1."""
    return 2 ** p.bit_length()


def per_tuple(f: Callable[[tuple], tuple]) -> Callable[[np.ndarray], np.ndarray]:
    """The column map of a map on basis tuples: each column of a k x n
    matrix of register columns goes through `f` as one tuple."""
    return lambda cols: np.array([f(v) for v in zip(*cols.tolist())], dtype=np.int64).T


def _accumulate(regs: tuple[str, ...], L: int, value: Callable[..., int],
                label: str, columns: bool = False) -> GateOp:
    """|c...>|z> -> |c...>|(z + value(c...)) mod L> for z < L, identity for
    z >= L; the adjoint subtracts.  The target is the last register, and
    value is 0 wherever the gate must act as the identity.  value takes the
    control registers' values of one tuple, or with `columns` their int64
    columns, as one numpy function."""

    def shift(sign):
        def on_columns(v):
            *c, z = v
            return np.vstack([*c, np.where(z < L, (z + sign * value(*c)) % L, z)])

        def on_tuple(v):
            z = v[-1]
            if z >= L:
                return v
            c = v[:-1]
            return c + ((z + sign * value(*c)) % L,)

        return on_columns if columns else per_tuple(on_tuple)

    return Permutation(regs, shift(1), shift(-1), label=label)


def _scale(regs: tuple[str, ...], L: int, factor: Callable[..., int], label: str) -> GateOp:
    """|c...>|y> -> |c...>|y * factor(c...) mod L> for y < L, identity for
    y >= L; the adjoint multiplies by the inverse of factor mod L.  The target
    is the last register, factor(c...) must be a unit mod L, and it is 1
    wherever the gate must act as the identity."""

    def scale(by):
        def on_tuple(v):
            y = v[-1]
            if y >= L:
                return v
            c = v[:-1]
            return c + (y * by(*c) % L,)

        return per_tuple(on_tuple)

    return Permutation(regs, scale(factor), scale(lambda *c: pow(factor(*c), -1, L)),
                       label=label)


def add_mod(L: int, src: str, dst: str) -> GateOp:
    """|x>|y> -> |x>|(x+y) mod L> for x, y < L; identity outside Z_L x Z_L.
    On a zero target this copies x; the adjoint subtracts."""
    return _accumulate((src, dst), L, lambda x: x if x < L else 0, f"ADD_{L}")


def mul3(L: int, a: str, b: str, dst: str) -> GateOp:
    """|x>|y>|z> -> |x>|y>|(z + x*y) mod L> for z < L (additive extension)."""
    return _accumulate((a, b, dst), L, operator.mul, f"MUL3_{L}")


def swap_regs(r1: str, r2: str) -> GateOp:
    fl = per_tuple(lambda v: (v[1], v[0]))
    return Permutation((r1, r2), fl, fl, label="SWAP")


def set_const(j: int, reg: str, dim: int) -> GateOp:
    """Adds the constant j mod dim; on |0> this loads |j>."""
    if not 0 <= j < dim:
        raise DomainError(f"constant {j} outside register dimension {dim}")
    return _accumulate((reg,), dim, lambda: j, f"SET_{j}")


def transposition(a: int, b: int, reg: str) -> GateOp:
    """Swap two basis values of one register, identity elsewhere (and
    everywhere when a == b).

    Used where a state transfer |0> -> |j> must leave every other basis value
    (in particular the top of the register) untouched.
    """
    return pairing_permutation([a], [b], reg, f"X_{a}_{b}")


def pow_const(e: int, L: int, src: str, tgt: str) -> GateOp:
    """|x>|z> -> |x>|(z + x**e mod L) mod L> for z < L (register-base power).

    0**e = 0 for e >= 1, so a zero source contributes nothing.
    """
    if e < 0:
        raise DomainError("exponent must be non-negative")
    return _accumulate((src, tgt), L, lambda x: pow(x, e, L), f"POW_{e}_{L}")


def group_mul_acc(p: int, src: str, dst: str) -> GateOp:
    """|u>|w> -> |u>|w*u mod p> on the multiplicative group: u, w in Z_p^+."""
    return _scale((src, dst), p, lambda u: u if 1 <= u < p else 1, f"GMUL_{p}")


def work_mod_exp(g: int, p: int, x_reg: str, y_reg: str, w_reg: str, tgt: str) -> GateOp:
    """|w>|x>|y>|z> -> |w>|x>|y>|(z + w**x * g**y mod p) mod p> for w in Z_p^+.

    The double-variable modular exponential with the base taken from the work
    register, so one gate serves every group element held there.  The gate
    lists the base register first: in the pipeline's layout (W X Y F ...) its
    registers are then one run of one word, so a row's code is read with one
    shift and written back with one add rather than as four digits.  Its
    value is in column form, `powers[w * n + x] * g_powers[y]`: two lookups
    in tables of w**x mod p (0 outside 1 <= w < p; flat, as one index reads
    faster than two) and of g**y mod p over the registers' n =
    `register_dim(p)` values, left for `_accumulate` to reduce mod p once.
    """
    n = register_dim(p)
    powers = np.array([pow(w, x, p) if 1 <= w < p else 0 for w in range(n) for x in range(n)])
    g_powers = np.array([pow(g, y, p) for y in range(n)])
    return _accumulate((w_reg, x_reg, y_reg, tgt), p,
                       lambda w, x, y: powers[w * n + x] * g_powers[y], f"UF_{g}_{p}",
                       columns=True)


def cyclic_shift(p: int, h: int, reg: str, power: int = 1,
                 control: str | None = None) -> GateOp:
    """Group translation y -> y * h**power mod p on {1..p-1}; fixes 0 and >= p.

    With a control register, the control value scales the exponent:
    |a>|y> -> |a>|y * h**(power*a) mod p>.
    """
    if h % p == 0:
        raise DomainError("generator divisible by modulus")
    if math.gcd(h, p) != 1:
        raise DomainError(f"{h} is not invertible mod {p}")
    if control is None:
        mult = pow(h, power, p)
        return _scale((reg,), p, lambda: mult, f"SHIFT_{h}^{power}")
    return _scale((control, reg), p, lambda a: pow(h, power * a % (p - 1), p),
                  f"CSHIFT_{h}^{power}")


def qft(N: int, reg: str) -> GateOp:
    """|l> -> (1/sqrt N) sum_k exp(+i 2 pi k l / N)|k>, dense NxN.

    Application errors out if the state has support at indices >= N.
    """
    k = np.arange(N)
    mat = np.exp(2j * math.pi * np.outer(k, k) / N) / math.sqrt(N)
    return LocalUnitary(reg, mat, label=f"QFT_{N}", cost_class="qft")


def pairing_permutation(src_values: list, dst_values: list, regs: str | tuple[str, ...],
                        label: str = "PAIR") -> GateOp:
    """Bijection sending src_values[i] -> dst_values[i], identity outside both
    lists; leftover destination values are folded back onto leftover sources in
    ascending order so the whole map stays a permutation ([a] -> [b] is the
    transposition of a and b).

    The values are basis tuples of the registers `regs`; with a single
    register name for `regs` they are that register's ints.
    """
    if isinstance(regs, str):
        regs = (regs,)
        src_values = [(v,) for v in src_values]
        dst_values = [(v,) for v in dst_values]
    if len(src_values) != len(dst_values):
        raise DomainError("pairing lists must have equal length")
    src, dst = set(src_values), set(dst_values)
    if len(src) != len(src_values) or len(dst) != len(dst_values):
        raise DomainError("pairing lists must not repeat values")
    mapping = dict(zip(src_values, dst_values))
    mapping.update(zip(sorted(dst - src), sorted(src - dst)))
    inv_map = {v: k for k, v in mapping.items()}
    return Permutation(regs, per_tuple(lambda v: mapping.get(v, v)),
                       per_tuple(lambda v: inv_map.get(v, v)), label=label)


def selective_phase(values: dict[int, float], reg: str, label: str = "CSEL",
                    cost_class: str = "arith") -> GateOp:
    """Diagonal phase exp(-i theta_v) on chosen basis values of one register."""
    return PhaseFn((reg,), {(v,): -theta for v, theta in values.items()}, label=label,
                   cost_class=cost_class)
