"""Gaussian binomials, (-q;q)_j and Delannoy numbers.

A polynomial with coefficients in [0, 2**bits) is stored as its value at
q = 2**bits: adding is integer addition, multiplying by q^j a left shift by
j*bits, and by q^s - 1 a shift and a subtraction, which
`over_q_power_minus_one` undoes by a checked exact division.  [n,k]_q is
the product of the factors (q^(n-k+i) - 1)/(q^i - 1), and its coefficients
sum to C(n,k), which fixes the slot width.  D(h,k) = sum_j 2^j C(h,j) C(k,j).
"""

from __future__ import annotations

from math import comb, isqrt

# The module, not its names, so `delannoy` and `is_prime` load no polynomial code.
from . import polyring


def over_q_power_minus_one(value: int, s: int, nbits: int) -> int:
    """The c in [0, 2**nbits) with c * (2**s - 1) == value; ArithmeticError if there is none.

    Modulo 2**nbits, 1/(2**s - 1) = -(1 + 2**s + 2**2s + ...), summed by
    log2(nbits/s) doublings.  The candidate is multiplied back, so an
    undersized nbits or an inexact division raises, never a wrong quotient.
    """
    if s < 1:
        raise ValueError(f"divisor exponent must be positive, got {s}")
    mask = (1 << nbits) - 1
    series, width = value & mask, s
    while width < nbits:
        series = (series + (series << width)) & mask
        width *= 2
    quotient = -series & mask
    if (quotient << s) - quotient != value:
        raise ArithmeticError(f"{value.bit_length()}-bit value is not 2**{s} - 1 times a {nbits}-bit quotient")
    return quotient


def q_binomial_packed(n: int, k: int, bits: int) -> int:
    """[n, k]_q packed at q = 2**bits, for 0 <= k <= n and slots that hold C(n, k).

    Step i makes [m+i, i] = [m+i-1, i-1] (q^(m+i) - 1)/(q^i - 1), with m = max(k, n-k):
    its degree is i*m and its coefficients sum to C(m+i, i) <= C(n, k), so it fits i*m + 1 slots.
    """
    m, value = max(k, n - k), 1
    for i in range(1, n - m + 1):
        value = over_q_power_minus_one((value << ((m + i) * bits)) - value, i * bits, (i * m + 1) * bits)
    return value


def neg_q_pochhammer(j: int) -> polyring.IntPoly:
    """(-q;q)_j = (1+q)(1+q^2)...(1+q^j); the empty product is 1."""
    if j < 0:
        raise ValueError(f"Pochhammer index must be nonnegative, got {j}")
    p = polyring.ONE
    for i in range(1, j + 1):
        p = p * (polyring.ONE + polyring.IntPoly.monomial(i))
    return p


def q_binomial(h: int, k: int) -> polyring.IntPoly:
    """Gaussian binomial [h choose k]_q; zero outside 0 <= k <= h."""
    if h < 0:
        raise ValueError(f"upper index must be nonnegative, got {h}")
    if k < 0 or k > h:
        return polyring.ZERO
    total = comb(h, k)
    bits = polyring.slot_bits(total)
    return polyring.IntPoly.from_packed(q_binomial_packed(h, k, bits), bits, total)


def delannoy(h: int, k: int) -> int:
    """Number of E/N/D lattice paths from the origin to (h,k): sum_j 2^j C(h,j) C(k,j)."""
    if h < 0 or k < 0:
        return 0
    return sum((comb(h, j) * comb(k, j)) << j for j in range(min(h, k) + 1))


def is_prime(p: int) -> bool:
    """Trial division; inputs here are tiny."""
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))
