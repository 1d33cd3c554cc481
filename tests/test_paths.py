import pytest

import reference
from reference import path_points

from qdelannoy.polyring import IntPoly, ONE
from qdelannoy.qcore import delannoy
from qdelannoy.qdelannoy import q_delannoy_rec
from qdelannoy.paths import (
    enumerate_paths,
    path_text,
    sigma,
    sigma_poly,
    walk,
    x_of,
    y_of,
)


def test_sigma_all_east_is_zero():
    assert sigma(("E",) * 7) == 0


def test_sigma_single_diagonal():
    assert sigma(("D",)) == 1


def test_sigma_edn():
    # D ends at x=2, N ends at x=2
    assert sigma(tuple("EDN")) == 4


def test_displacements():
    p = tuple("EDNND")
    assert x_of(p) == 3
    assert y_of(p) == 4
    assert path_points(p) == [(0, 0), (1, 0), (2, 1), (2, 2), (2, 3), (3, 4)]
    assert path_points(p, start=(2, 5))[-1] == (5, 9)


def test_concat_identity():
    p = tuple("DEN")
    assert p + () == p
    assert sigma(p + ()) == sigma(p)


def test_concat_sigma_examples():
    assert sigma(("E",) + ("N",)) == 1
    assert sigma(("D",) + ("D",)) == 3


def test_concat_law_exhaustive():
    pool = [
        p
        for h in range(4)
        for k in range(4)
        for p in enumerate_paths(h, k)
    ]
    for p1 in pool:
        s1, x1 = sigma(p1), x_of(p1)
        for p2 in pool:
            assert sigma(p1 + p2) == s1 + sigma(p2) + x1 * y_of(p2)


def test_enumeration_base_case():
    assert list(enumerate_paths(0, 0)) == [()]


def test_enumeration_order_is_e_then_n_then_d():
    assert [path_text(p) for p in enumerate_paths(1, 1)] == ["EN", "NE", "D"]
    first_few = [path_text(p) for p in list(enumerate_paths(2, 2))[:3]]
    assert first_few == ["EENN", "ENEN", "ENNE"]


def test_enumeration_counts_match_delannoy():
    for h in range(8):
        for k in range(8):
            assert sum(1 for _ in enumerate_paths(h, k)) == delannoy(h, k)


def test_enumeration_yields_distinct_paths_to_target():
    seen = set(enumerate_paths(3, 3))
    assert len(seen) == delannoy(3, 3)
    for p in seen:
        assert x_of(p) == 3 and y_of(p) == 3


def test_enumeration_matches_recursive_reference():
    for h in range(6):
        for k in range(6):
            assert list(enumerate_paths(h, k)) == list(reference.enumerate_paths(h, k))


def test_walk_matches_recursive_reference_and_sigma():
    # The one path stream, against the recursive enumeration for its order
    # and against `sigma` for the statistic it carries.  The thin shapes end
    # most paths in a long straight run on the last column or row; the
    # reference recurses at most 41 deep on them.
    assert list(walk(0, 0)) == [((), 0)]
    thin = [(1, 40), (40, 1), (2, 25), (25, 2), (0, 30), (30, 0)]
    for h, k in [(h, k) for h in range(5) for k in range(5)] + thin:
        expected = [(p, sigma(p)) for p in reference.enumerate_paths(h, k)]
        assert list(walk(h, k)) == expected, (h, k)


def test_enumeration_has_no_recursion_limit():
    assert list(enumerate_paths(5000, 0)) == [("E",) * 5000]
    assert sum(1 for _ in enumerate_paths(1, 1500)) == delannoy(1, 1500)
    assert all(s == sigma(p) for p, s in walk(1, 300))


def test_enumeration_rejects_negative_targets():
    with pytest.raises(ValueError):
        list(enumerate_paths(-1, 2))


@pytest.mark.parametrize("h, k", [(1.5, 1), (1, 2.0), (True, 1), (1, False), ("2", 1)])
def test_enumeration_rejects_non_int_targets(h, k):
    # Raised by the call itself, before any path is asked for: a half-step
    # target would otherwise never be reached and the walk would never end.
    with pytest.raises(TypeError, match="target coordinates must be int"):
        enumerate_paths(h, k)


@pytest.mark.parametrize(
    "h, k, error, message",
    [(-(10**6), -(10**6), ValueError, "first quadrant"), (1.5, 2, TypeError, "target coordinates must be int")],
    ids=["negative", "float"],
)
def test_sigma_poly_checks_its_arguments_before_sizing_counts(h, k, error, message):
    # h * k sizes the count list: 10**12 slots for the negative pair, a float for the other.
    with pytest.raises(error, match=message):
        sigma_poly(h, k)


def test_sigma_poly_spot_values():
    assert sigma_poly(1, 1) == IntPoly([1, 2])
    assert sigma_poly(2, 2) == IntPoly([1, 2, 4, 4, 2])
    for h in range(6):
        assert sigma_poly(h, 0) == ONE


def test_sigma_poly_equals_q_delannoy():
    for h in range(6):
        for k in range(6):
            assert sigma_poly(h, k) == q_delannoy_rec(h, k)


def test_max_sigma_equals_polynomial_degree():
    for h in range(7):
        for k in range(7):
            top = max(sigma(p) for p in enumerate_paths(h, k))
            assert top == q_delannoy_rec(h, k).degree


def test_path_text_round_trip():
    p = tuple("EDN")
    assert path_text(p) == "EDN"
    assert tuple(path_text(p)) == p
