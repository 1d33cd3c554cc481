import tracemalloc

import pytest

import reference
from reference import evaluate, specialize_q1
from qdelannoy.polyring import IntPoly, ONE
from qdelannoy.qcore import delannoy, q_binomial
from qdelannoy.qdelannoy import (
    q_delannoy,
    q_delannoy_alt,
    q_delannoy_def,
    q_delannoy_rec,
)

# Frozen by hand-expanding the defining sum (and cross-checked by the other
# two routes below).
DQ_11 = IntPoly([1, 2])
DQ_22 = IntPoly([1, 2, 4, 4, 2])
DQ_32 = IntPoly([1, 2, 4, 6, 6, 4, 2])
DQ_33 = IntPoly([1, 2, 4, 8, 10, 12, 12, 8, 4, 2])


def test_defining_route_spot_values():
    assert q_delannoy_def(0, 0) == ONE
    assert q_delannoy_def(1, 1) == DQ_11
    assert q_delannoy_def(2, 2) == DQ_22


def test_alternate_route_spot_values():
    assert q_delannoy_alt(1, 1) == DQ_11
    assert q_delannoy_alt(4, 0) == ONE
    assert q_delannoy_alt(3, 2) == DQ_32


def test_recurrence_route_spot_values():
    assert q_delannoy_rec(0, 5) == ONE
    assert q_delannoy_rec(2, 1) == IntPoly([1, 2, 2])
    # (2,2) from (2,1), (1,2), (1,1)
    expected = IntPoly([1, 2, 2]) + (IntPoly([1, 2, 2]) + IntPoly([1, 2])).shift(2)
    assert q_delannoy_rec(2, 2) == expected == DQ_22
    assert q_delannoy_rec(3, 3) == DQ_33
    assert evaluate(DQ_33, 1) == 63


def test_negative_arguments_vanish():
    for fn in (q_delannoy_def, q_delannoy_alt, q_delannoy_rec):
        assert fn(-1, 3).is_zero()
        assert fn(3, -1).is_zero()
        assert fn(-2, -2).is_zero()


def test_routes_agree():
    for h in range(9):
        for k in range(9):
            d = q_delannoy_def(h, k)
            assert d == q_delannoy_alt(h, k)
            assert d == q_delannoy_rec(h, k)


def test_symmetry():
    # The packed fill is symmetric by construction, so check it against the
    # full recursion at the transposed point.
    for h in range(11):
        for k in range(11):
            assert q_delannoy_rec(h, k) == reference.q_delannoy_rec(k, h), (h, k)


def test_coefficients_nonnegative_and_specialize():
    for h in range(11):
        for k in range(11):
            p = q_delannoy_rec(h, k)
            assert all(c > 0 for c in p.coeffs)
            assert evaluate(p, 1) == delannoy(h, k)


def test_specialize_q1():
    assert specialize_q1(1, 1) == 3
    assert specialize_q1(0, 0) == 1
    assert specialize_q1(5, 5) == 1683
    with pytest.raises(ValueError):
        specialize_q1(-1, 0)


def test_route_dispatch():
    assert q_delannoy(2, 2, route="def") == DQ_22
    assert q_delannoy(2, 2, route="alt") == DQ_22
    assert q_delannoy(2, 2) == DQ_22
    with pytest.raises(ValueError):
        q_delannoy(2, 2, route="magic")


def test_explicit_table():
    assert q_delannoy_rec(3, 3) == DQ_33
    assert q_delannoy_rec(-1, 1).is_zero()


ROUTE_PAIRS = [
    (q_delannoy_def, reference.q_delannoy_def),
    (q_delannoy_alt, reference.q_delannoy_alt),
    (q_delannoy_rec, reference.q_delannoy_rec),
]


@pytest.mark.parametrize("route, oracle", ROUTE_PAIRS, ids=["def", "alt", "rec"])
def test_routes_match_reference(route, oracle):
    for h in range(13):
        for k in range(13):
            assert route(h, k) == oracle(h, k), (h, k)


@pytest.mark.parametrize("h, k", [(60, 2), (2, 60), (0, 50), (50, 0), (20, 21), (21, 20), (21, 21)])
@pytest.mark.parametrize("route, oracle", ROUTE_PAIRS, ids=["def", "alt", "rec"])
def test_skewed_shapes_match_reference(route, oracle, h, k):
    assert route(h, k) == oracle(h, k)


def test_deep_recurrence_has_no_recursion_limit():
    p = q_delannoy_rec(1200, 1)
    assert evaluate(p, 1) == delannoy(1200, 1) == 2401
    assert p == q_delannoy_rec(1, 1200) == q_delannoy_def(1200, 1) == q_delannoy_alt(1, 1200)


@pytest.mark.parametrize("h, k", [(71, 69), (3, 100), (100, 3)])
def test_term_ratio_routes_match_rec_at_size(h, k):
    # def and alt derive each term from the last by exact divisions, whose
    # quotient bounds grow with h*k; rec fills a table, so it is independent.
    p = q_delannoy_rec(h, k)
    assert q_delannoy_def(h, k) == p
    assert q_delannoy_alt(h, k) == p


def test_fill_memory_is_bounded():
    tracemalloc.start()
    try:
        q_delannoy_rec(60, 60)
        q_binomial(120, 60)
        q_delannoy_def(60, 60)
        q_delannoy_alt(60, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_symmetry_and_route_agreement_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(0, 15), st.integers(0, 15))
    def laws(h, k):
        p = q_delannoy_rec(h, k)
        assert p == q_delannoy_def(k, h)
        assert q_delannoy_def(h, k) == p == q_delannoy_alt(h, k)
        assert evaluate(p, 1) == delannoy(h, k)

    laws()
