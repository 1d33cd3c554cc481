"""Cyclotomic polynomials and exact residue arithmetic modulo them.

Phi_n is computed as (q^n - 1) divided exactly by the product of Phi_d over
the proper divisors d of n; the division is by a monic polynomial, so it
stays in Z[q].  All congruence checks in the package reduce to exact
polynomial remainders against these moduli.
"""

from __future__ import annotations

from .polyring import ONE, IntPoly

# n -> Phi_n, filled on first use; entries are immutable, so sharing is safe.
_PHI: dict[int, IntPoly] = {1: IntPoly((-1, 1))}


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree totient(n)."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    cached = _PHI.get(n)
    if cached is not None:
        return cached
    p = IntPoly.monomial(n) - ONE
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            p, rem = p.divrem(cyclotomic(d))
            if not rem.is_zero():
                raise ArithmeticError(f"Phi_{d} leaves a remainder dividing q^{n} - 1; the table is corrupt")
    _PHI[n] = p
    return p


def reduce_mod(p: IntPoly, n: int) -> IntPoly:
    """Remainder of p modulo Phi_n; degree strictly below totient(n)."""
    return p.divrem(cyclotomic(n))[1]


def congruent(p1: IntPoly, p2: IntPoly, n: int) -> bool:
    """Whether p1 and p2 agree modulo Phi_n, as an exact remainder check."""
    return reduce_mod(p1 - p2, n).is_zero()
