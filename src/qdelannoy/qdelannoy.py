"""The q-analog of the Delannoy numbers, computed by three independent routes.

* ``q_delannoy_def`` -- the defining sum over Gaussian binomials,
* ``q_delannoy_alt`` -- the manifestly symmetric sum with (-q;q)_j weights,
* ``q_delannoy_rec`` -- the three-term recurrence with q^k weights.

All three agree exactly.  Negative arguments give 0, both axes give 1, and
evaluation at q=1 recovers the classical Delannoy number.  P(h,k) = P(k,h):
the ``alt`` sum makes the symmetry manifest, and ``q_delannoy_rec`` rests
on it to fill only the cells on one side of the diagonal.

Each route works on packed integers, as in `qcore`.  The coefficients of
P(h,k) are nonnegative (it counts paths by a statistic) and sum to D(h,k),
which sizes the slots and is checked on read-back.  ``def`` and ``alt``
derive each term of their sum from the last by shifts, subtractions and two
checked exact divisions by q^s - 1.  A term has degree at most hk and is
part of P(h,k), so it fits hk + 1 slots, and each first quotient is a next
term times q^s - 1, which takes s more.
"""

from __future__ import annotations

from .polyring import IntPoly, ZERO, slot_bits
from .qcore import delannoy, over_q_power_minus_one, q_binomial_packed


def q_delannoy_def(h: int, k: int) -> IntPoly:
    """Defining route: sum_j q^(j(j+1)/2) * [k,j]_q * [h+k-j, k]_q.

    T_0 = [h+k, k], and T_(j+1) = T_j q^(j+1) (q^(k-j) - 1)(q^(h-j) - 1) / ((q^(j+1) - 1)(q^(h+k-j) - 1)).
    """
    if h < 0 or k < 0:
        return ZERO
    paths = delannoy(h, k)
    bits = slot_bits(paths)
    term = total = q_binomial_packed(h + k, k, bits)
    for j in range(min(h, k)):
        term = (term << ((k + 1) * bits)) - (term << ((j + 1) * bits))
        term = (term << ((h - j) * bits)) - term
        term = over_q_power_minus_one(term, (j + 1) * bits, (h * k + 1 + h + k) * bits)
        term = over_q_power_minus_one(term, (h + k - j) * bits, (h * k + 1) * bits)
        total += term
    return IntPoly.from_packed(total, bits, paths)


def q_delannoy_alt(h: int, k: int) -> IntPoly:
    """Symmetric route: sum_j q^((h-j)(k-j)) * (-q;q)_j * [k,j]_q * [h,j]_q.

    T_0 = q^(hk), and T_(j+1) = T_j q^-(h+k-2j-1) (1 + q^(j+1))(q^(h-j) - 1)(q^(k-j) - 1) / (q^(j+1) - 1)^2.
    The right shift is exact, as (h-j)(k-j) >= h+k-2j-1.
    """
    if h < 0 or k < 0:
        return ZERO
    paths = delannoy(h, k)
    bits = slot_bits(paths)
    term = total = 1 << (h * k * bits)
    for j in range(min(h, k)):
        term >>= (h + k - 2 * j - 1) * bits
        term += term << ((j + 1) * bits)
        term = (term << ((h - j) * bits)) - term
        term = (term << ((k - j) * bits)) - term
        term = over_q_power_minus_one(term, (j + 1) * bits, (h * k + 2 + j) * bits)
        term = over_q_power_minus_one(term, (j + 1) * bits, (h * k + 1) * bits)
        total += term
    return IntPoly.from_packed(total, bits, paths)


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
    paths = delannoy(h, k)
    bits = slot_bits(paths)
    m, k = min(h, k), max(h, k)
    row = [1] * (k + 1)
    for i in range(1, m + 1):
        diag, row[i - 1] = row[i - 1], row[i]
        for j in range(i, k + 1):
            diag, row[j] = row[j], row[j - 1] + ((row[j] + diag) << (j * bits))
    return IntPoly.from_packed(row[k], bits, paths)


ROUTES = {"def": q_delannoy_def, "alt": q_delannoy_alt, "rec": q_delannoy_rec}


def q_delannoy(h: int, k: int, route: str = "rec") -> IntPoly:
    """Compute the q-Delannoy polynomial by the named route."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {sorted(ROUTES)}")
    return ROUTES[route](h, k)
