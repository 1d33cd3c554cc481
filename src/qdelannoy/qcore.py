"""Gaussian binomials, (-q;q)_j and Delannoy numbers.

Gaussian binomials are filled row by row by the Pascal-style recurrence on
packed integers: a polynomial with coefficients in [0, 2**bits) is stored
as its value at q = 2**bits, so adding is integer addition and multiplying
by q^j is a left shift by j*bits.  `q_binomial` needs one entry, so it
fills only the half of the table on one side of the diagonal, by
[a+b,a] = [a+b,b]; `gaussian_rows` yields whole rows for callers that read
entries on both sides.  The coefficients of [h,k] are nonnegative and
sum to C(h,k), which fixes the slot width; the factorial-quotient form is
exercised only as a test oracle.  Delannoy numbers come from the closed
form sum_j 2^j C(h,j) C(k,j).
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from .polyring import ONE, IntPoly, ZERO, slot_bits


def gaussian_rows(bits: int, width: int, rows: int) -> Iterator[list[int]]:
    """Rows b = 0..rows-1 of [a+b, a]_q for 0 <= a <= width, packed at q = 2**bits.

    [a+b, a] = [a+b-1, a-1] + q^a [a+b-1, a], so each row is updated in
    place from the one before: the same list is yielded every time, and a
    caller keeps what it needs before asking for the next row.  It serves
    callers that read whole rows, on both sides of the diagonal; a single
    entry is cheaper from `q_binomial`'s half fill.
    """
    row = [1] * (width + 1)
    for b in range(rows):
        if b:
            for a in range(1, width + 1):
                row[a] = row[a - 1] + (row[a] << (a * bits))
        yield row


def neg_q_pochhammer(j: int) -> IntPoly:
    """(-q;q)_j = (1+q)(1+q^2)...(1+q^j); the empty product is 1."""
    if j < 0:
        raise ValueError(f"Pochhammer index must be nonnegative, got {j}")
    p = ONE
    for i in range(1, j + 1):
        p = p * (ONE + IntPoly.monomial(i))
    return p


def q_binomial(h: int, k: int) -> IntPoly:
    """Gaussian binomial [h choose k]_q; zero outside 0 <= k <= h.

    [h,k] = [h,h-k], so the row spans the shorter side.  With
    G(a,b) = [a+b,a], row b holds G(a,b) only for a <= b, as in
    `gaussian_rows`.  The diagonal cell is G(b,b) = G(b-1,b) * (1+q^b),
    because G(b,b-1) = G(b-1,b).
    """
    if h < 0:
        raise ValueError(f"upper index must be nonnegative, got {h}")
    if k < 0 or k > h:
        return ZERO
    k = min(k, h - k)
    bits = slot_bits(comb(h, k))
    row = [1] * (k + 1)
    for b in range(1, h - k + 1):
        for a in range(1, min(b, k + 1)):
            row[a] = row[a - 1] + (row[a] << (a * bits))
        if b <= k:
            row[b] = row[b - 1] + (row[b - 1] << (b * bits))
    return IntPoly.from_packed(row[k], bits)


def delannoy(h: int, k: int) -> int:
    """Number of E/N/D lattice paths from the origin to (h,k): sum_j 2^j C(h,j) C(k,j)."""
    if h < 0 or k < 0:
        return 0
    return sum((comb(h, j) * comb(k, j)) << j for j in range(min(h, k) + 1))


def is_prime(p: int) -> bool:
    """Trial division; inputs here are tiny."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True
