"""q-Delannoy polynomials and Gaussian binomials in the ring Z[q]/(q^n - 1).

Phi_n divides q^n - 1, so the remainder of a polynomial mod Phi_n depends
only on its image in Z[q]/(q^n - 1), where coefficient i collects every q^e
with e = i mod n.  Running the recurrences in that ring keeps every entry at
n coefficients, whatever the degree of the polynomial it stands for; this is
the reduction argument behind the congruences (Sagan, "Congruence
properties of q-analogs", Adv. Math. 95, 1992).  Each fill yields its
rows in turn, with no recursion, so a caller keeps only the rows it still
reads.

An element is packed as in `qcore`: its n coefficients, all in
[0, 2**bits), are the slots of one integer, its value at q = 2**bits.
Multiplying by q^k then rotates the slots k places: two shifts, a mask and
an or.  The coefficients of P(h,k) and [h,k] are nonnegative and sum to
D(h,k) and C(h,k), so those bound every slot.

`phi_test` decides divisibility by Phi_n with no division.  For v in Z[q],

    Phi_n | v  <=>  q^n - 1 | v * prod over primes p | n of (1 - q^(n/p)).

Forward: every proper divisor d of n divides some n/p, so the product holds
every Phi_d with d < n, and Phi_n times it is a multiple of q^n - 1.  Back:
no factor 1 - q^(n/p) vanishes at a primitive n-th root of unity, so Phi_n,
monic and irreducible, divides v over Z.  This is the kernel behind
vanishing sums of roots of unity (Lam and Leung, J. Algebra 224, 2000).
Expanded, the product is a signed sum of 2^omega(n) powers of q, half of
them + and half - once n > 1, so in Z[q]/(q^n - 1) the test compares two
sums of rotations of v.  When every slot of the two sides of v lies in
[0, M], those sums stay at most 2^omega(n) * M per slot, which fixes the
slot width of the test and of the rows it reads.

With `mod` set the rows are at q = 1 (n = 1) and hold Delannoy numbers or
binomial coefficients, each reduced mod that integer.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .polyring import slot_bits
from .qcore import is_prime


def phi_test(n: int, bound: int) -> tuple[int, Callable[[int, int], bool]]:
    """A slot width in bits and a test of whether Phi_n divides pos - neg.

    pos and neg are elements of Z[q]/(q^n - 1) packed at q = 2**bits with
    every slot in [0, bound].  For n > 1 the test forms
    v = pos - neg + bound * (1 + q + ... + q^(n-1)), whose slots lie in
    [0, 2 * bound], and compares the sums of its + and - rotations; the
    offset cancels there because both sums have 2^(omega(n)-1) terms, and
    each sum's slots stay at most 2^omega(n) * bound, which the width
    holds.  For n = 1 the product is empty and the test is pos == neg.
    A bound of 0 is sized as 1, so no slot is 0 bits wide.
    """
    bound = max(bound, 1)
    if n == 1:
        return slot_bits(bound), lambda pos, neg: pos == neg
    plus, minus = [0], []
    for p in range(2, n + 1):
        if n % p == 0 and is_prime(p):
            s = n // p
            plus, minus = plus + [(e + s) % n for e in minus], minus + [(e + s) % n for e in plus]
    bits = slot_bits(bound * len(plus) * 2)
    size = n * bits
    mask = (1 << size) - 1
    offset = bound * (mask // ((1 << bits) - 1))
    # Rotating by e places shifts left by e * bits and wraps what passes size.
    plus = [(e * bits, size - e * bits) for e in plus]
    minus = [(e * bits, size - e * bits) for e in minus]

    def divides(pos: int, neg: int) -> bool:
        v = pos - neg + offset
        diff = 0
        for left, right in plus:
            diff += v << left & mask | v >> right
        for left, right in minus:
            diff -= v << left & mask | v >> right
        return not diff

    return bits, divides


def _shifts(n: int, bits: int, cols: int) -> list[int]:
    """Per column k, the shift that multiplies by q^k; 0 where q^k = 1."""
    return [k % n * bits for k in range(cols)]


def delannoy_rows(n: int, bits: int, cols: int, mod: int | None = None) -> Iterator[list[int]]:
    """Rows h = 0, 1, ... of P(h,k) mod q^n - 1, packed at q = 2**bits, for 0 <= k < cols.

    P(h,k) = P(h,k-1) + q^k (P(h-1,k) + P(h-1,k-1)), with 1 on both axes.
    Slots must hold D(h, cols - 1) for the last row h the caller reads;
    with `mod` set, n is 1.  Each row is a new list.
    """
    size = n * bits
    mask = (1 << size) - 1
    shifts = _shifts(n, bits, cols)
    row = [1] * cols
    while True:
        yield row
        prev, row = row, [1]
        for k in range(1, cols):
            up, s = prev[k] + prev[k - 1], shifts[k]
            x = row[-1] + (up << s & mask | up >> size - s if s else up)
            row.append(x % mod if mod else x)


def binomial_rows(n: int, bits: int, cols: int, mod: int | None = None) -> Iterator[list[int]]:
    """Rows h = 0, 1, ... of the Gaussian binomials [h,k] mod q^n - 1, packed at q = 2**bits, for 0 <= k < cols.

    [h,k] = q^k [h-1,k] + [h-1,k-1], with [h,0] = 1 and [0,k] = 0 for k > 0,
    which makes every entry with k > h zero.  Slots must hold the largest
    C(h,k) of the rows the caller reads; with `mod` set, n is 1.  Each row
    is a new list.
    """
    size = n * bits
    mask = (1 << size) - 1
    shifts = _shifts(n, bits, cols)
    row = [1] + [0] * (cols - 1)
    while True:
        yield row
        prev, row = row, [1]
        for k in range(1, cols):
            up, s = prev[k], shifts[k]
            x = (up << s & mask | up >> size - s if s else up) + prev[k - 1]
            row.append(x % mod if mod else x)
