"""The q-analog of the Delannoy numbers, computed by three independent routes.

All three routes agree exactly:

* ``q_delannoy_def`` -- the defining sum over Gaussian binomials,
* ``q_delannoy_alt`` -- the manifestly symmetric sum with (-q;q)_j weights,
* ``q_delannoy_rec`` -- the three-term recurrence with q^k weights.

Negative arguments give 0, both axes give 1, and evaluation at q=1 recovers
the classical Delannoy number.  P(h,k) = P(k,h): the ``alt`` sum makes the
symmetry manifest, and ``q_delannoy_rec`` rests on it to fill only the
cells on one side of the diagonal.

Each route works on packed integers, as in `qcore`: a polynomial is stored
as its value at q = 2**bits.  ``def`` and ``alt`` read their Gaussian
binomials from `qcore.gaussian_binomials`, the one half fill.  The
coefficients of P(h,k) are nonnegative (it counts paths by a statistic)
and sum to D(h,k), so slots of `slot_bits(D(h,k))` bits hold every one of
them and the packed result reads back exactly, whatever the intermediate
entries carried.
"""

from __future__ import annotations

from .polyring import IntPoly, ZERO, slot_bits
from .qcore import delannoy, gaussian_binomials


def q_delannoy_def(h: int, k: int) -> IntPoly:
    """Defining route: sum_j q^(j(j+1)/2) * [k,j]_q * [h+k-j, k]_q."""
    if h < 0 or k < 0:
        return ZERO
    bits = slot_bits(delannoy(h, k))
    js = range(min(h, k) + 1)
    g = gaussian_binomials(bits, [(k, j) for j in js] + [(h + k - j, k) for j in js])
    total = sum((g[k, j] * g[h + k - j, k]) << (j * (j + 1) // 2 * bits) for j in js)
    return IntPoly.from_packed(total, bits)


def q_delannoy_alt(h: int, k: int) -> IntPoly:
    """Symmetric route: sum_j q^((h-j)(k-j)) * (-q;q)_j * [k,j]_q * [h,j]_q."""
    if h < 0 or k < 0:
        return ZERO
    bits = slot_bits(delannoy(h, k))
    js = range(min(h, k) + 1)
    g = gaussian_binomials(bits, [(h, j) for j in js] + [(k, j) for j in js])
    total, poch = 0, 1
    for j in js:
        if j:
            poch += poch << (j * bits)
        total += (poch * g[h, j] * g[k, j]) << ((h - j) * (k - j) * bits)
    return IntPoly.from_packed(total, bits)


def q_delannoy_rec(h: int, k: int) -> IntPoly:
    """Recurrence route: P(h,k) = P(h,k-1) + q^k*P(h-1,k) + q^k*P(h-1,k-1).

    P(h,k) = P(k,h), so only the cells P(i,j) with i <= j are filled, about
    half the table.  One row over j holds P(i,j) for j >= i and is updated
    in place for each i up to min(h,k); the cell left of the diagonal is
    P(i,i-1) = P(i-1,i), the old entry at i.  `diag` keeps the entry
    P(i-1,j-1) that the update of column j-1 overwrote.
    """
    if h < 0 or k < 0:
        return ZERO
    bits = slot_bits(delannoy(h, k))
    m, k = min(h, k), max(h, k)
    row = [1] * (k + 1)
    for i in range(1, m + 1):
        diag, row[i - 1] = row[i - 1], row[i]
        for j in range(i, k + 1):
            diag, row[j] = row[j], row[j - 1] + ((row[j] + diag) << (j * bits))
    return IntPoly.from_packed(row[k], bits)


ROUTES = {
    "def": q_delannoy_def,
    "alt": q_delannoy_alt,
    "rec": q_delannoy_rec,
}


def q_delannoy(h: int, k: int, route: str = "rec") -> IntPoly:
    """Compute the q-Delannoy polynomial by the named route."""
    try:
        fn = ROUTES[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; expected one of {sorted(ROUTES)}") from None
    return fn(h, k)
