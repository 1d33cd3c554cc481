"""Cyclotomic polynomials and exact residue arithmetic modulo them.

Phi_n is computed as (q^n - 1) divided exactly by the product of Phi_d over
the proper divisors d of n; the division is by a monic polynomial, so it
stays in Z[q].  All congruence checks in the package reduce to exact
polynomial remainders against these moduli.
"""

from __future__ import annotations

from .polyring import ONE, IntPoly


class CyclotomicTable:
    """Memoized table of cyclotomic polynomials, safe to share read-only."""

    def __init__(self) -> None:
        self._memo: dict[int, IntPoly] = {1: IntPoly((-1, 1))}

    def poly(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError(f"cyclotomic index must be positive, got {n}")
        cached = self._memo.get(n)
        if cached is not None:
            return cached
        p = IntPoly.monomial(n) - ONE
        for d in range(1, n // 2 + 1):
            if n % d == 0:
                p, rem = p.divrem(self.poly(d))
                if not rem.is_zero():
                    raise ArithmeticError(f"Phi_{d} leaves a remainder dividing q^{n} - 1; the table is corrupt")
        self._memo[n] = p
        return p

    def reduce(self, p: IntPoly, n: int) -> IntPoly:
        return p.divrem(self.poly(n))[1]

    def congruent(self, p1: IntPoly, p2: IntPoly, n: int) -> bool:
        return self.reduce(p1 - p2, n).is_zero()

    def exponent_residue(self, n: int, e: int) -> IntPoly:
        """Residue of q**e modulo Phi_n.

        q^n is congruent to 1, so the exponent may be taken mod n first;
        in particular the result is 1 when n | e, and -1 when n is even
        and e falls on the half-period n/2.
        """
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        return self.reduce(IntPoly.monomial(e % n), n)


_TABLE = CyclotomicTable()


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree totient(n)."""
    return _TABLE.poly(n)


def reduce_mod(p: IntPoly, n: int) -> IntPoly:
    """Remainder of p modulo Phi_n; degree strictly below totient(n)."""
    return _TABLE.reduce(p, n)


def congruent(p1: IntPoly, p2: IntPoly, n: int) -> bool:
    """Whether p1 and p2 agree modulo Phi_n, as an exact remainder check."""
    return _TABLE.congruent(p1, p2, n)


def exponent_residue_factor(n: int, e: int) -> IntPoly:
    """Residue of q**e modulo Phi_n, computed via e mod n."""
    return _TABLE.exponent_residue(n, e)
