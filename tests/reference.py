"""Slow, independent reference formulas for the packed fills in the package.

Every value here is built from IntPoly arithmetic alone: schoolbook
products, coefficient-wise sums and memoized recursion, with no packed
integers; (-q;q)_j comes from `qcore.neg_q_pochhammer`, which multiplies
IntPoly factors too.  These are the package's original routes, kept as the
oracle the fast ones are checked against, plus the original recursive path
enumeration.
"""

from functools import cache

from qdelannoy.polyring import ONE, ZERO
from qdelannoy.qcore import neg_q_pochhammer


@cache
def q_binomial(h, k):
    """Pascal recurrence [h,k] = q^k*[h-1,k] + [h-1,k-1]."""
    if k < 0 or k > h:
        return ZERO
    if k == 0 or k == h:
        return ONE
    return q_binomial(h - 1, k).shift(k) + q_binomial(h - 1, k - 1)


@cache
def q_delannoy_rec(h, k):
    """P(h,k) = P(h,k-1) + q^k*(P(h-1,k) + P(h-1,k-1)), with 1 on both axes."""
    if h < 0 or k < 0:
        return ZERO
    if h == 0 or k == 0:
        return ONE
    return q_delannoy_rec(h, k - 1) + (q_delannoy_rec(h - 1, k) + q_delannoy_rec(h - 1, k - 1)).shift(k)


def q_delannoy_def(h, k):
    """sum_j q^(j(j+1)/2) * [k,j]_q * [h+k-j, k]_q."""
    total = ZERO
    for j in range(min(h, k) + 1):
        total = total + (q_binomial(k, j) * q_binomial(h + k - j, k)).shift(j * (j + 1) // 2)
    return total


def q_delannoy_alt(h, k):
    """sum_j q^((h-j)(k-j)) * (-q;q)_j * [k,j]_q * [h,j]_q."""
    total = ZERO
    for j in range(min(h, k) + 1):
        term = neg_q_pochhammer(j) * q_binomial(k, j) * q_binomial(h, j)
        total = total + term.shift((h - j) * (k - j))
    return total


def enumerate_paths(h, k, prefix=()):
    """Recursive depth-first enumeration trying E, then N, then D at each position."""
    if h == 0 and k == 0:
        yield prefix
    if h:
        yield from enumerate_paths(h - 1, k, prefix + ("E",))
    if k:
        yield from enumerate_paths(h, k - 1, prefix + ("N",))
    if h and k:
        yield from enumerate_paths(h - 1, k - 1, prefix + ("D",))
