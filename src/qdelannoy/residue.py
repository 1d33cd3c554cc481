"""q-Delannoy polynomials and Gaussian binomials in the ring Z[q]/(q^n - 1).

Phi_n divides q^n - 1, so the remainder of a polynomial mod Phi_n depends
only on its image in Z[q]/(q^n - 1).  There an element is a length-n
coefficient vector (coefficient i collects every q^e with e = i mod n) and
multiplying by q^k rotates the vector k places.  Running the recurrences in
that ring keeps every entry at n coefficients, whatever the degree of the
polynomial it stands for; this is the reduction argument behind the
congruences (Sagan, "Congruence properties of q-analogs", Adv. Math. 95,
1992).  Tables are filled row by row, with no recursion.

With `mod` set every coefficient is kept reduced mod that integer; at n = 1
(q = 1) such a table holds Delannoy numbers or binomial coefficients mod p.
"""

from __future__ import annotations

Vector = list[int]


def rotate(v: Vector, k: int) -> Vector:
    """v times q^k in Z[q]/(q^n - 1), n = len(v)."""
    k %= len(v)
    return v[-k:] + v[:-k]


def _one(n: int) -> Vector:
    return [1] + [0] * (n - 1)


def _reduce(v: Vector, mod: int | None) -> Vector:
    return [x % mod for x in v] if mod else v


def delannoy_table(n: int, rows: int, cols: int, mod: int | None = None) -> list[list[Vector]]:
    """P(h,k) mod q^n - 1 for 0 <= h < rows and 0 <= k < cols.

    P(h,k) = P(h,k-1) + q^k (P(h-1,k) + P(h-1,k-1)), with 1 on both axes.
    """
    one = _one(n)
    table = [[one] * cols]
    for h in range(1, rows):
        prev, row = table[-1], [one]
        for k in range(1, cols):
            up = rotate([x + y for x, y in zip(prev[k], prev[k - 1])], k)
            row.append(_reduce([x + y for x, y in zip(row[-1], up)], mod))
        table.append(row)
    return table


def binomial_table(n: int, rows: int, cols: int, mod: int | None = None) -> list[list[Vector]]:
    """Gaussian binomials [h,k] mod q^n - 1 for 0 <= h < rows and 0 <= k < cols.

    [h,k] = q^k [h-1,k] + [h-1,k-1], with [h,0] = 1 and [0,k] = 0 for k > 0,
    which makes every entry with k > h zero.
    """
    one = _one(n)
    table = [[one] + [[0] * n] * (cols - 1)]
    for h in range(1, rows):
        prev, row = table[-1], [one]
        for k in range(1, cols):
            row.append(_reduce([x + y for x, y in zip(rotate(prev[k], k), prev[k - 1])], mod))
        table.append(row)
    return table
