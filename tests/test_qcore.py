from math import comb

import pytest

import reference
import qdelannoy.qcore as qcore_module
import qdelannoy.qdelannoy as qdelannoy_module
from qdelannoy.polyring import IntPoly, ONE, ZERO, slot_bits
from qdelannoy.congruence import verify_delannoy_lucas, verify_lucas, verify_q_lucas
from qdelannoy.qcore import (
    delannoy,
    is_prime,
    neg_q_pochhammer,
    over_q_power_minus_one,
    q_binomial,
    q_binomial_packed,
)
from reference import delannoy_series_table, evaluate, q_binomial_theorem_check, q_integer


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def q_binomial_by_quotient(h, k):
    """Factorial-quotient form via exact division; independent of the recurrence."""
    if k < 0 or k > h:
        return ZERO
    num = ONE
    for i in range(h - k + 1, h + 1):
        num = num * q_integer(i)
    den = ONE
    for i in range(1, k + 1):
        den = den * q_integer(i)
    quot, rem = num.divrem(den)
    assert rem.is_zero()
    return quot


def q_binomial_second_recurrence(h, k, memo={}):
    """[h,k] = [h-1,k] + q^(h-k)*[h-1,k-1], the other Pascal-style recurrence."""
    if k < 0 or k > h:
        return ZERO
    if k == 0 or k == h:
        return ONE
    if (h, k) not in memo:
        memo[(h, k)] = q_binomial_second_recurrence(h - 1, k) + q_binomial_second_recurrence(
            h - 1, k - 1
        ).shift(h - k)
    return memo[(h, k)]


def delannoy_closed_form_1(h, k):
    return sum(comb(k, j) * comb(h + k - j, k) for j in range(h + 1))


def delannoy_closed_form_2(h, k):
    return sum(2**j * comb(k, j) * comb(h, j) for j in range(h + 1))


# ---------------------------------------------------------------------------
# q-integers and Pochhammer products
# ---------------------------------------------------------------------------

def test_q_integer():
    assert q_integer(0).is_zero()
    assert q_integer(1) == ONE
    assert q_integer(4) == IntPoly([1, 1, 1, 1])
    with pytest.raises(ValueError):
        q_integer(-1)


def test_neg_q_pochhammer():
    assert neg_q_pochhammer(0) == ONE
    assert neg_q_pochhammer(1) == IntPoly([1, 1])
    assert neg_q_pochhammer(2) == IntPoly([1, 1]) * IntPoly([1, 0, 1])
    assert neg_q_pochhammer(2) == IntPoly([1, 1, 1, 1])


def test_q_binomial_theorem_identity():
    for j in range(9):
        assert q_binomial_theorem_check(j)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def test_q_binomial_base_cases():
    assert q_binomial(5, 0) == ONE
    assert q_binomial(3, -1).is_zero()
    assert q_binomial(3, 4).is_zero()


def test_q_binomial_example():
    assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])
    assert q_binomial(4, 2) == q_binomial_by_quotient(4, 2)


def test_q_binomial_matches_quotient_oracle():
    for h in range(13):
        for k in range(h + 1):
            assert q_binomial(h, k) == q_binomial_by_quotient(h, k)


def test_both_recurrences_agree():
    for h in range(21):
        for k in range(h + 1):
            assert q_binomial(h, k) == q_binomial_second_recurrence(h, k)


def test_q_binomial_specializes_to_binomial():
    for h in range(21):
        for k in range(-1, h + 2):
            expected = comb(h, k) if 0 <= k <= h else 0
            assert evaluate(q_binomial(h, k), 1) == expected


def test_q_binomial_symmetry_and_degree():
    for h in range(21):
        for k in range(h + 1):
            p = q_binomial(h, k)
            assert p == q_binomial(h, h - k)
            assert len(p.coeffs) - 1 == k * (h - k)
            assert all(c >= 0 for c in p.coeffs)


def test_q_binomial_rejects_negative_upper():
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_explicit_table():
    assert q_binomial(6, 3) == reference.q_binomial(6, 3)
    assert q_binomial(6, 3) == IntPoly([1, 1, 2, 3, 3, 3, 3, 2, 1, 1])


def test_q_binomial_matches_pascal_reference():
    # k > h/2 included: the fill runs over the short side there.
    for h in range(31):
        for k in range(h + 1):
            assert q_binomial(h, k) == reference.q_binomial(h, k), (h, k)
    # Near the middle the half fill ends on its diagonal cell.
    for h in (60, 61):
        for k in (h // 2, (h + 1) // 2):
            assert q_binomial(h, k) == reference.q_binomial(h, k), (h, k)


def test_q_binomial_packed_reads_back_at_a_shared_width():
    # The coefficients of [n,k] sum to C(n,k), so slots sized by the largest
    # C(n,k) hold every entry, and any wider slot does too.
    wanted = [(n, k) for n in range(15) for k in range(n + 1)]
    for bits in (slot_bits(max(comb(n, k) for n, k in wanted)), 64):
        for n, k in wanted:
            value = q_binomial_packed(n, k, bits)
            assert IntPoly.from_packed(value, bits, comb(n, k)) == reference.q_binomial(n, k), (n, k, bits)


def test_q_binomial_packed_takes_the_short_side():
    # [40,39] runs one division step through [40,1]; [6,3] runs to the middle.
    for n, k in [(40, 1), (40, 39), (6, 3), (5, 4), (0, 0), (7, 7)]:
        bits = slot_bits(comb(n, k))
        assert q_binomial_packed(n, k, bits) == q_binomial_packed(n, n - k, bits)
        assert IntPoly.from_packed(q_binomial_packed(n, k, bits), bits) == reference.q_binomial(n, k), (n, k)


# ---------------------------------------------------------------------------
# Exact division by 2**s - 1
# ---------------------------------------------------------------------------

def test_over_q_power_minus_one_examples():
    assert over_q_power_minus_one(0, 8, 16) == 0
    assert over_q_power_minus_one(255, 8, 8) == 1
    assert over_q_power_minus_one(7 * 255, 8, 8) == 7
    # (q^2 - 1) / (q - 1) = q + 1 at q = 2**8.
    assert over_q_power_minus_one((1 << 16) - 1, 8, 16) == 257
    # A bound far above the quotient costs doublings, not correctness.
    assert over_q_power_minus_one(3 * ((1 << 5) - 1), 5, 1000) == 3


def test_over_q_power_minus_one_with_divisor_wider_than_bound():
    # s >= nbits: no doubling runs, and the quotient is -value mod 2**nbits.
    assert over_q_power_minus_one(5 * ((1 << 24) - 1), 24, 8) == 5
    assert over_q_power_minus_one(200 * ((1 << 8) - 1), 8, 8) == 200
    with pytest.raises(ArithmeticError):
        over_q_power_minus_one(300 * ((1 << 24) - 1), 24, 8)


def test_over_q_power_minus_one_raises_for_inexact_value():
    for value, s in [(1, 8), (256, 8), (255 * 3 + 1, 8), ((1 << 16) - 2, 16)]:
        with pytest.raises(ArithmeticError):
            over_q_power_minus_one(value, s, 64)
    with pytest.raises(ArithmeticError):
        over_q_power_minus_one(-255, 8, 64)


def test_over_q_power_minus_one_raises_for_undersized_bound():
    quotient = (1 << 40) + 12345
    value = (quotient << 16) - quotient
    assert over_q_power_minus_one(value, 16, 48) == quotient
    for nbits in (8, 16, 40):
        with pytest.raises(ArithmeticError):
            over_q_power_minus_one(value, 16, nbits)


def test_over_q_power_minus_one_rejects_a_zero_exponent():
    with pytest.raises(ValueError):
        over_q_power_minus_one(0, 0, 8)


def test_over_q_power_minus_one_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(0, 2**600), st.integers(1, 300), st.integers(1, 700), st.integers(1, 2**40))
    def law(c, s, nbits, nudge):
        value = (c << s) - c
        if c < 2**nbits:
            assert over_q_power_minus_one(value, s, nbits) == c
        else:
            with pytest.raises(ArithmeticError):
                over_q_power_minus_one(value, s, nbits)
        # value + nudge is a multiple of 2**s - 1 only when nudge is.
        if nudge % ((1 << s) - 1):
            with pytest.raises(ArithmeticError):
                over_q_power_minus_one(value + nudge, s, nbits)

    law()


def test_packed_read_back_is_checked_at_every_call_site(monkeypatch):
    # With slots half as wide as the sum bound, a coefficient overflows its
    # slot: each route and q_binomial raises instead of returning a wrong
    # polynomial, through its read-back's sum or an exact division's check.
    half = lambda bound: max(8, slot_bits(bound) // 16 * 8)
    monkeypatch.setattr(qcore_module, "slot_bits", half)
    monkeypatch.setattr(qdelannoy_module, "slot_bits", half)
    with pytest.raises(ArithmeticError):
        q_binomial(20, 10)
    for route in (qdelannoy_module.q_delannoy_rec, qdelannoy_module.q_delannoy_def, qdelannoy_module.q_delannoy_alt):
        with pytest.raises(ArithmeticError):
            route(8, 8)


def test_deep_arguments_have_no_recursion_limit():
    assert evaluate(q_binomial(1500, 2), 1) == comb(1500, 2)
    assert q_binomial(1500, 1498) == q_binomial(1500, 2)
    assert delannoy(1200, 1) == delannoy(1, 1200) == 2401
    assert delannoy(200, 200) == delannoy_closed_form_1(200, 200)


# ---------------------------------------------------------------------------
# Delannoy numbers
# ---------------------------------------------------------------------------

def test_delannoy_spot_values():
    assert delannoy(0, 0) == 1
    assert delannoy(1, 1) == 3
    assert delannoy(3, 3) == 63
    assert delannoy(-1, 2) == 0
    assert delannoy(4, 0) == 1


def test_delannoy_matches_both_closed_forms():
    for h in range(13):
        for k in range(13):
            d = delannoy(h, k)
            assert d == delannoy_closed_form_1(h, k)
            assert d == delannoy_closed_form_2(h, k)
            assert d == delannoy(k, h)


def test_series_table_matches_recurrence():
    assert delannoy_series_table(0) == [[1]]
    table = delannoy_series_table(12)
    assert table[2][2] == 13
    for h in range(13):
        assert table[h][0] == 1
        for k in range(13):
            assert table[h][k] == delannoy(h, k)


# ---------------------------------------------------------------------------
# Lucas-type congruence checks
# ---------------------------------------------------------------------------

def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_lucas_examples():
    assert verify_lucas(3, 2, 1, 1, 1).passed
    assert verify_lucas(2, 0, 1, 0, 0).passed
    assert verify_lucas(5, 1, 0, 0, 3).passed


def test_lucas_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_lucas(4, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        verify_lucas(3, 1, 3, 1, 0)


def test_lucas_small_grid():
    for p in (2, 3, 5):
        for a in range(4):
            for c in range(4):
                for b in range(p):
                    for d in range(p):
                        assert verify_lucas(p, a, b, c, d).passed
                        assert verify_delannoy_lucas(p, a, b, c, d).passed


def test_delannoy_lucas_examples():
    assert delannoy(4, 4) == 321 and 321 % 3 == 0
    assert verify_delannoy_lucas(3, 1, 1, 1, 1).passed
    for b in range(2):
        for d in range(2):
            assert verify_delannoy_lucas(2, 0, b, 0, d).passed
    assert verify_delannoy_lucas(5, 2, 0, 1, 0).passed


def test_q_lucas_examples():
    assert verify_q_lucas(3, 1, 1, 0, 2).passed
    for b in range(5):
        for d in range(5):
            assert verify_q_lucas(5, 0, b, 0, d).passed
    assert verify_q_lucas(4, 1, 0, 1, 0).passed


def test_q_lucas_small_grid():
    for n in range(1, 7):
        for a in range(3):
            for c in range(3):
                for b in range(n):
                    for d in range(n):
                        assert verify_q_lucas(n, a, b, c, d).passed
