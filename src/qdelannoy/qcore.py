"""Gaussian binomials, (-q;q)_j and Delannoy numbers.

Gaussian binomials are filled row by row by the Pascal-style recurrence on
packed integers: a polynomial with coefficients in [0, 2**bits) is stored
as its value at q = 2**bits, so adding is integer addition and multiplying
by q^j is a left shift by j*bits.  `gaussian_binomials` is the one fill: by
[a+b,a] = [a+b,b] it fills only the half of the table on one side of the
diagonal, and `q_binomial` and the def and alt routes read their entries
from it.  The coefficients of [h,k] are nonnegative and sum to C(h,k),
which fixes the slot width; the factorial-quotient form is exercised only
as a test oracle.  Delannoy numbers come from the closed form
sum_j 2^j C(h,j) C(k,j).
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

from .polyring import ONE, IntPoly, ZERO, slot_bits


def gaussian_binomials(bits: int, wanted: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """[n, k]_q packed at q = 2**bits for each of one or more wanted 0 <= k <= n.

    With G(a,b) = [a+b,a], [a+b,a] = [a+b-1,a-1] + q^a [a+b-1,a] updates row
    b in place from row b-1.  [a+b,a] = [a+b,b], so row b holds G(a,b) only
    for a <= b, and [n,k] is read as G(min(k,n-k), max(k,n-k)).  The
    diagonal cell is G(b,b) = G(b-1,b) * (1+q^b), because G(b,b-1) = G(b-1,b).
    The rows run up to the largest larger index among the wanted entries,
    and the width is the largest smaller index.
    """
    by_row: dict[int, list[tuple[int, int]]] = {}
    for n, k in wanted:
        by_row.setdefault(max(k, n - k), []).append((n, k))
    width = max(min(k, n - k) for cells in by_row.values() for n, k in cells)
    row, out = [1] * (width + 1), {}
    for b in range(max(by_row) + 1):
        for a in range(1, min(b, width + 1)):
            row[a] = row[a - 1] + (row[a] << (a * bits))
        if 0 < b <= width:
            row[b] = row[b - 1] + (row[b - 1] << (b * bits))
        for n, k in by_row.get(b, ()):
            out[n, k] = row[min(k, n - k)]
    return out


def neg_q_pochhammer(j: int) -> IntPoly:
    """(-q;q)_j = (1+q)(1+q^2)...(1+q^j); the empty product is 1."""
    if j < 0:
        raise ValueError(f"Pochhammer index must be nonnegative, got {j}")
    p = ONE
    for i in range(1, j + 1):
        p = p * (ONE + IntPoly.monomial(i))
    return p


def q_binomial(h: int, k: int) -> IntPoly:
    """Gaussian binomial [h choose k]_q; zero outside 0 <= k <= h."""
    if h < 0:
        raise ValueError(f"upper index must be nonnegative, got {h}")
    if k < 0 or k > h:
        return ZERO
    bits = slot_bits(comb(h, k))
    return IntPoly.from_packed(gaussian_binomials(bits, [(h, k)])[h, k], bits)


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
