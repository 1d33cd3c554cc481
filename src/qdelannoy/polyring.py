"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Every q-object in this package (Gaussian binomials, q-Delannoy numbers,
cyclotomic moduli) lives in this ring.  Coefficients are stored ascending
by degree, so the degree is len(coeffs) - 1; the zero polynomial stores no
coefficients at all.  A polynomial with nonnegative coefficients can also
be packed as its value at q = 2**bits, in slots of `slot_bits` bits, and
read back with `IntPoly.from_packed`.
"""

from __future__ import annotations

from collections.abc import Iterable


class ModulusError(ValueError):
    """Polynomial division attempted with a zero or non-monic divisor."""


def slot_bits(bound: int) -> int:
    """Bits per packed slot, a whole number of bytes, that hold every coefficient in [0, bound]; bound >= 1."""
    return 8 * ((bound.bit_length() + 7) // 8)


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class IntPoly:
    """An integer polynomial, normalized so the top stored coefficient is nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        coeffs = list(coeffs)
        for c in coeffs:
            # A bool is an int but prints as True/False; exact ints take the first test alone.
            if type(c) is not int and (isinstance(c, bool) or not isinstance(c, int)):
                raise TypeError(f"IntPoly coefficients must be int, got {type(c).__name__} {c!r}")
        self.coeffs = _trim(coeffs)

    @classmethod
    def monomial(cls, exponent: int) -> IntPoly:
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls([0] * exponent + [1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        """The product with a polynomial, or with an int scalar on the right."""
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPoly(out)

    def shift(self, exponent: int) -> IntPoly:
        """Multiply by q**exponent."""
        if exponent < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * exponent + self.coeffs)

    def divrem(self, divisor: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Quotient and remainder by a monic divisor, exact over the integers.

        Raises ModulusError unless the divisor is nonzero with leading
        coefficient 1; every modulus in play (Phi_n, q-1, q^n-1) is monic,
        which keeps the division integral.
        """
        m = divisor.coeffs
        if not m:
            raise ModulusError("division by the zero polynomial")
        if m[-1] != 1:
            raise ModulusError(f"divisor is not monic (leading coefficient {m[-1]})")
        dm = len(m) - 1
        r = list(self.coeffs)
        if len(r) <= dm:
            return IntPoly(), self
        quot = [0] * (len(r) - dm)
        for i in range(len(r) - 1, dm - 1, -1):
            c = r[i]
            if c:
                quot[i - dm] = c
                for j in range(dm):
                    r[i - dm + j] -= c * m[j]
                r[i] = 0
        return IntPoly(quot), IntPoly(r[:dm])

    def to_text(self) -> str:
        """Canonical report form, terms ascending: "1 + 2*q + 2*q^2"."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def to_json_coeffs(self) -> list[str]:
        """JSON form: decimal coefficient strings ascending by degree."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_packed(cls, value: int, bits: int, total: int | None = None) -> IntPoly:
        """The polynomial p with p(2**bits) == value and every coefficient in [0, 2**bits).

        Such a p is unique: coefficient i is slot i of `bits` bits,
        little-endian, and `bits` is a whole number of bytes, as
        `slot_bits` gives.  Evaluating at q = 2**bits is a ring
        homomorphism Z[q] -> Z, so a value built by adding, shifting and
        multiplying packed integers reads back exactly whenever the final
        coefficients fit their slots, however intermediate entries carried.
        A carry out of a slot lowers the read-back coefficient sum by 2**bits - 1,
        so a read-back of nonnegative coefficients whose sum misses `total` raises ArithmeticError.
        """
        if value < 0:
            raise ValueError(f"packed value must be nonnegative, got {value}")
        if bits < 1 or bits % 8:
            raise ValueError(f"slot width must be a positive multiple of 8 bits, got {bits}")
        width = bits // 8
        size = -(-value.bit_length() // bits) * width
        data = value.to_bytes(size, "little")
        poly = cls(int.from_bytes(data[i : i + width], "little") for i in range(0, size, width))
        if total is not None and sum(poly.coeffs) != total:
            raise ArithmeticError(f"packed read-back sums to {sum(poly.coeffs)}, not {total}: a slot overflowed")
        return poly

    def __repr__(self) -> str:
        return f"IntPoly('{self.to_text()}')"


ZERO = IntPoly()
ONE = IntPoly((1,))
