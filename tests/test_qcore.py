from math import comb

import pytest

import reference
from qdelannoy.polyring import IntPoly, ONE, ZERO
from qdelannoy.congruence import verify_delannoy_lucas, verify_lucas, verify_q_lucas
from qdelannoy.qcore import delannoy, is_prime, neg_q_pochhammer, q_binomial
from reference import delannoy_series_table, q_binomial_theorem_check, q_integer


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
            assert q_binomial(h, k).evaluate(1) == expected


def test_q_binomial_symmetry_and_degree():
    for h in range(21):
        for k in range(h + 1):
            p = q_binomial(h, k)
            assert p == q_binomial(h, h - k)
            assert p.degree == k * (h - k)
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


def test_deep_arguments_have_no_recursion_limit():
    assert q_binomial(1500, 2).evaluate(1) == comb(1500, 2)
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
