import operator
import random
from fractions import Fraction

import pytest

from qdelannoy.polyring import IntPoly, ModulusError, ONE, ZERO, slot_bits
from reference import evaluate, poly_from_json

Q = IntPoly((0, 1))


# ---------------------------------------------------------------------------
# Independent oracles: dict-based arithmetic, checked against nothing but
# schoolbook algebra.
# ---------------------------------------------------------------------------

def oracle_add(a, b):
    out = {}
    for i, c in enumerate(a):
        out[i] = out.get(i, 0) + c
    for i, c in enumerate(b):
        out[i] = out.get(i, 0) + c
    return out


def oracle_mul(a, b):
    out = {}
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = out.get(i + j, 0) + c * d
    return out


def oracle_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def from_dict(d):
    if not d:
        return IntPoly()
    top = max(d)
    return IntPoly([d.get(i, 0) for i in range(top + 1)])


def oracle_divmod(num, den):
    """Long division on exponent dicts; den must be monic."""
    num = {i: c for i, c in enumerate(num) if c}
    dden = len(den) - 1
    quot = {}
    while num and max(num) >= dden:
        top = max(num)
        c = num[top]
        quot[top - dden] = c
        for j, m in enumerate(den):
            e = top - dden + j
            v = num.get(e, 0) - c * m
            if v:
                num[e] = v
            else:
                num.pop(e, None)
    return from_dict(quot), from_dict(num)


def random_poly(rnd, max_degree=8):
    return IntPoly([rnd.randint(-9, 9) for _ in range(rnd.randint(0, max_degree + 1))])


def random_monic(rnd, max_degree=5):
    coeffs = [rnd.randint(-9, 9) for _ in range(rnd.randint(1, max_degree + 1))]
    coeffs.append(1)
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# Addition / multiplication
# ---------------------------------------------------------------------------

def test_add_inverse_cancels():
    p = IntPoly([1, 1])
    assert (p + (-p)).is_zero()


def test_add_identity():
    p = IntPoly([1, 2])
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_example():
    got = IntPoly([1, 1, 1]) + IntPoly([0, 0, 1])
    assert got == from_dict(oracle_add([1, 1, 1], [0, 0, 1]))
    assert got == IntPoly([1, 1, 2])


def test_mul_difference_of_squares():
    assert IntPoly([1, 1]) * IntPoly([1, -1]) == IntPoly([1, 0, -1])


def test_mul_annihilator():
    assert (IntPoly([3, 1]) * ZERO).is_zero()
    assert (IntPoly([3, 1]) * 0).is_zero()


def test_mul_example():
    got = IntPoly([1, 1, 1]) * IntPoly([1, 1])
    assert got == from_dict(oracle_mul([1, 1, 1], [1, 1]))
    assert got == IntPoly([1, 2, 2, 1])


def test_mul_degree_adds():
    rnd = random.Random(7)
    for _ in range(100):
        a, b = random_poly(rnd), random_poly(rnd)
        if a.is_zero() or b.is_zero():
            continue
        # leading coefficients are nonzero ints, so no cancellation at the top
        assert (a * b).degree == a.degree + b.degree


def test_ring_axioms_random():
    rnd = random.Random(12345)
    for _ in range(200):
        a, b, c = random_poly(rnd), random_poly(rnd), random_poly(rnd)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero()
        assert a * ONE == a


def _poly_strategies():
    """Hypothesis strategies: any IntPoly, and any monic IntPoly (degree 0 to 6)."""
    st = pytest.importorskip("hypothesis.strategies")
    coeffs = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), max_size=12)
    polys = coeffs.map(IntPoly)
    monics = st.lists(st.integers(-(2**40), 2**40), max_size=6).map(lambda c: IntPoly(c + [1]))
    return st, polys, monics


def test_ring_axioms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st, polys, _ = _poly_strategies()
    scalars = st.integers(-(2**70), 2**70)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys, polys, polys, scalars, scalars)
    def axioms(a, b, c, s, t):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (b + c) * a == b * a + c * a
        # an int scalar on the right acts as its constant polynomial
        assert a * s == a * IntPoly((s,))
        assert (a + b) * s == a * s + b * s
        assert (a * b) * s == a * (b * s)
        assert (a * s) * t == a * (s * t)

    axioms()


@pytest.mark.parametrize("other", [1.5, "q", Fraction(1, 2)], ids=["float", "str", "Fraction"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_non_integer_operands_raise_type_error(op, other):
    p = IntPoly((1, 2))
    with pytest.raises(TypeError):
        op(p, other)
    with pytest.raises(TypeError):
        op(other, p)


@pytest.mark.parametrize(
    "bad", [1.5, "x", Fraction(1, 2), True, False], ids=["float", "str", "Fraction", "True", "False"]
)
def test_non_integer_coefficients_raise_type_error(bad):
    with pytest.raises(TypeError, match="coefficients must be int"):
        IntPoly([1, bad])
    with pytest.raises(TypeError, match="coefficients must be int"):
        IntPoly((bad,))
    with pytest.raises(TypeError, match="coefficients must be int"):
        IntPoly.monomial(2, bad)


def test_integer_coefficients_are_accepted():
    assert IntPoly([1, 1, 0]).coeffs == (1, 1)
    assert IntPoly((0,)) == ZERO
    assert IntPoly.monomial(2, -3).coeffs == (0, 0, -3)


def test_integer_operands_only_scale():
    # an int only scales, through `*` on the right; a constant is IntPoly((c,))
    p = IntPoly((1, 2))
    assert p * 3 == IntPoly((3, 6))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(3, p)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(p, 3)
    assert p != 3 and IntPoly((3,)) != 3 and ZERO != 0


# ---------------------------------------------------------------------------
# Division by monic polynomials
# ---------------------------------------------------------------------------

def test_divrem_exact_factor():
    quot, rem = IntPoly([-1, 0, 1]).divrem(IntPoly([-1, 1]))
    assert quot == IntPoly([1, 1])
    assert rem.is_zero()


def test_divrem_example():
    num, den = IntPoly([0, 0, 0, 1]), IntPoly([1, 1])
    quot, rem = num.divrem(den)
    oq, orr = oracle_divmod([0, 0, 0, 1], [1, 1])
    assert (quot, rem) == (oq, orr)
    assert quot == IntPoly([1, -1, 1])
    assert rem == IntPoly([-1])


def test_divrem_low_degree_numerator():
    p = IntPoly([5, 3])
    quot, rem = p.divrem(IntPoly([0, 0, 1]))
    assert quot.is_zero()
    assert rem == p


def test_divrem_round_trip_random():
    rnd = random.Random(99)
    for _ in range(200):
        a, m = random_poly(rnd), random_monic(rnd)
        quot, rem = a.divrem(m)
        assert quot * m + rem == a
        assert rem.degree < m.degree
        oq, orr = oracle_divmod(list(a.coeffs), list(m.coeffs))
        assert (quot, rem) == (oq, orr)


def test_divrem_property():
    hypothesis = pytest.importorskip("hypothesis")
    _, polys, monics = _poly_strategies()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys, monics)
    def division(a, m):
        quot, rem = a.divrem(m)
        assert a == quot * m + rem
        assert rem.degree < m.degree

    division()


def test_divrem_rejects_bad_divisors():
    with pytest.raises(ModulusError):
        IntPoly([1]).divrem(ZERO)
    with pytest.raises(ModulusError):
        IntPoly([1]).divrem(IntPoly([1, 2]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_coefficient_sum():
    assert evaluate(IntPoly([1, 2]), 1) == 3


def test_evaluate_zero_poly():
    assert evaluate(ZERO, 12345) == 0


def test_evaluate_example():
    p = IntPoly([1, 2, 4, 4, 2])
    assert evaluate(p, -1) == oracle_eval([1, 2, 4, 4, 2], -1) == 1


def test_evaluate_is_ring_homomorphism():
    rnd = random.Random(31)
    for _ in range(200):
        a, b, x = random_poly(rnd), random_poly(rnd), rnd.randint(-5, 5)
        assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)
        assert evaluate(a + b, x) == evaluate(a, x) + evaluate(b, x)


# ---------------------------------------------------------------------------
# Representation invariants and serialization
# ---------------------------------------------------------------------------

def test_normalization_strips_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0, 0]).coeffs == ()


def test_zero_degree_sentinel():
    assert ZERO.degree == -1
    assert IntPoly([7]).degree == 0


def test_shift_is_monomial_multiplication():
    p = IntPoly([1, 2])
    assert p.shift(3) == p * IntPoly.monomial(3)
    assert ZERO.shift(5).is_zero()


def test_text_form():
    assert ZERO.to_text() == "0"
    assert IntPoly([1, 2, 2]).to_text() == "1 + 2*q + 2*q^2"
    assert IntPoly([-1, 1]).to_text() == "-1 + q"
    assert IntPoly([1, -1, 1]).to_text() == "1 - q + q^2"
    assert Q.to_text() == "q"


def test_json_round_trip():
    rnd = random.Random(4)
    for _ in range(50):
        p = random_poly(rnd)
        assert poly_from_json(p.to_json_coeffs()) == p
    assert IntPoly([10**30, -1]).to_json_coeffs() == [str(10**30), "-1"]


def pack(coeffs, bits):
    return sum(c << (bits * i) for i, c in enumerate(coeffs))


def test_slot_bits_boundaries():
    # slots are whole bytes, so a bound one past a byte's range takes one more byte
    assert slot_bits(1) == slot_bits(255) == 8
    assert slot_bits(256) == 16
    assert slot_bits(2**16 - 1) == 16
    assert slot_bits(2**16) == 24


def test_from_packed_examples():
    assert IntPoly.from_packed(0, 24).is_zero()
    assert IntPoly.from_packed(pack([1, 2, 2], 8), 8) == IntPoly([1, 2, 2])
    assert IntPoly.from_packed(pack([255, 0, 0, 7], 8), 8) == IntPoly([255, 0, 0, 7])
    assert IntPoly.from_packed(pack([0, 0, 2**64 - 1], 64), 64) == IntPoly([0, 0, 2**64 - 1])
    # the value at q = 2**8 of a polynomial whose slots carried still reads back exactly
    assert IntPoly.from_packed(evaluate(IntPoly([300, 1]), 256), 8) == IntPoly([44, 2])
    with pytest.raises(ValueError):
        IntPoly.from_packed(-1, 8)
    for bits in (0, -8, 12):
        with pytest.raises(ValueError, match="positive multiple of 8 bits"):
            IntPoly.from_packed(5, bits)


def test_from_packed_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def slots(draw):
        bits = 8 * draw(st.integers(1, 9))
        top = 2**bits - 1
        coeffs = draw(st.lists(st.one_of(st.sampled_from([0, top]), st.integers(0, top)), max_size=40))
        return bits, coeffs

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(slots())
    def round_trip(case):
        bits, coeffs = case
        assert IntPoly.from_packed(pack(coeffs, bits), bits) == IntPoly(coeffs)

    round_trip()


def test_from_packed_inverts_packing_property():
    # the other direction of the round trip: every nonnegative integer is the
    # value at q = 2**bits of the polynomial read from its slots
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(0, 2**600), st.integers(1, 9).map(lambda width: 8 * width))
    def inverts(value, bits):
        base = 2**bits
        poly = IntPoly.from_packed(value, bits)
        assert evaluate(poly, base) == value
        assert all(0 <= c < base for c in poly.coeffs)

    inverts()
