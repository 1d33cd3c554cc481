import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qdelannoy
import qdelannoy.cyclotomic as cyclotomic_module
from qdelannoy.cyclotomic import congruent, cyclotomic, reduce_mod
from qdelannoy.polyring import IntPoly, ONE, Q

# Where the imported package lives, so a subprocess runs the same copy.
SRC = Path(qdelannoy.__file__).resolve().parent.parent


def totient(n):
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def q_power_minus_one(n):
    return IntPoly.monomial(n) - ONE


def test_package_root_hides_no_submodule():
    # Every name is imported from its module; the root defines no function or
    # class, so none can shadow the submodule of the same name.  A fresh
    # process shows what `import qdelannoy` alone binds.
    script = (
        "import types\n"
        "import qdelannoy\n"
        "assert isinstance(qdelannoy.cyclotomic, types.ModuleType)\n"
        "assert not [v for v in vars(qdelannoy).values() if isinstance(v, (types.FunctionType, type))]\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert qdelannoy.cyclotomic is cyclotomic_module
    assert isinstance(cyclotomic_module._PHI, dict)


def test_base_case():
    assert cyclotomic(1) == IntPoly([-1, 1])


def test_known_small_values():
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(4) == IntPoly([1, 0, 1])
    assert cyclotomic(6) == IntPoly([1, -1, 1])


def test_prime_index_gives_q_integer():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert cyclotomic(p) == IntPoly([1] * p)


def test_divisor_product_and_degree():
    for n in range(1, 41):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == q_power_minus_one(n)
        assert cyclotomic(n).degree == totient(n)
        assert cyclotomic(n).coeffs[-1] == 1


def test_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        reduce_mod(ONE, -3)


def test_reduce_self_is_zero():
    assert reduce_mod(cyclotomic(4), 4).is_zero()


def test_reduce_examples():
    assert reduce_mod(IntPoly.monomial(3), 3) == ONE
    assert reduce_mod(Q, 2) == IntPoly([-1])


def test_q_to_the_n_is_one():
    for n in range(1, 41):
        assert congruent(IntPoly.monomial(n), ONE, n)
        if n % 2 == 0:
            assert congruent(IntPoly.monomial(n // 2), IntPoly([-1]), n)


def test_congruent_basics():
    p = IntPoly([3, 1, 4])
    assert congruent(p, p, 5)
    for n in (2, 3, 4, 6):
        assert congruent(IntPoly.monomial(n), ONE, n)
    assert not congruent(Q, ONE, 2)


def test_congruent_is_equivalence_and_respects_ops():
    rnd = random.Random(2024)
    for _ in range(100):
        n = rnd.randint(1, 12)
        phi = cyclotomic(n)

        def rand_poly():
            return IntPoly([rnd.randint(-9, 9) for _ in range(rnd.randint(0, 9))])

        a, c, r1, r2 = rand_poly(), rand_poly(), rand_poly(), rand_poly()
        b = a + phi * r1
        d = c + phi * r2
        assert congruent(a, b, n)
        assert congruent(b, a, n)
        assert congruent(a + c, b + d, n)
        assert congruent(a * c, b * d, n)


def test_exponent_residue_examples():
    # q^n = 1 mod Phi_n, so the exponent may be taken mod n first.
    for n, e, expected in ((3, 6, ONE), (4, 2, IntPoly([-1])), (2, 3, IntPoly([-1])), (12, 12, ONE)):
        assert reduce_mod(IntPoly.monomial(e), n) == expected
        assert reduce_mod(IntPoly.monomial(e % n), n) == expected


def test_exponent_residue_matches_direct_reduction():
    for n in range(1, 15):
        for e in range(0, 3 * n + 1):
            assert reduce_mod(IntPoly.monomial(e), n) == reduce_mod(IntPoly.monomial(e % n), n)


def test_explicit_table_is_self_contained(monkeypatch):
    # A fresh memo rebuilds every Phi_d it needs from Phi_1 alone.
    monkeypatch.setattr(cyclotomic_module, "_PHI", {1: IntPoly((-1, 1))})
    assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])
    assert sorted(cyclotomic_module._PHI) == [1, 2, 3, 4, 6, 12]
    assert reduce_mod(IntPoly.monomial(12), 12) == ONE
    assert congruent(IntPoly.monomial(5), ONE, 5)


def test_corrupt_memo_entry_raises(monkeypatch):
    monkeypatch.setattr(cyclotomic_module, "_PHI", {1: IntPoly((-1, 1)), 2: IntPoly([2, 1])})
    with pytest.raises(ArithmeticError):
        cyclotomic(4)


def test_corrupt_memo_entry_raises_under_optimize():
    script = (
        "import qdelannoy.cyclotomic as module\n"
        "from qdelannoy.polyring import IntPoly\n"
        "module._PHI[2] = IntPoly([2, 1])\n"
        "try:\n"
        "    module.cyclotomic(4)\n"
        "except ArithmeticError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    for n in range(1, 101):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, q), q).all_coeffs()[::-1]
        assert list(cyclotomic(n).coeffs) == [int(c) for c in expected]


def test_reduce_mod_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rnd = random.Random(1508)
    for _ in range(100):
        n = rnd.randint(1, 40)
        p = IntPoly([rnd.randint(-50, 50) for _ in range(rnd.randint(0, 3 * n))])
        rem = sympy.rem(sympy.Poly(p.coeffs[::-1], q), sympy.Poly(sympy.cyclotomic_poly(n, q), q))
        assert reduce_mod(p, n) == IntPoly(int(c) for c in rem.all_coeffs()[::-1])
