"""Acceptance suite: ten exact, fully reproducible desk-scale criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its elapsed time.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import qdelannoy
from qdelannoy.cyclotomic import congruent, cyclotomic, reduce_mod
from qdelannoy.polyring import IntPoly, ONE
from qdelannoy.qcore import delannoy
from qdelannoy.qdelannoy import q_delannoy_alt, q_delannoy_def, q_delannoy_rec
from qdelannoy.paths import sigma_poly
from qdelannoy.orbits import CornerFrame, audit
from qdelannoy.congruence import (
    SweepConfig,
    sweep,
    verify_delannoy_lucas,
    verify_lucas,
    verify_q_lucas,
    verify_theorem2,
)
from reference import delannoy_series_table, induction_consistency

# Where the imported package lives, so a subprocess runs the same copy.
SRC = Path(qdelannoy.__file__).resolve().parent.parent


class _Timer:
    def __init__(self, number, description, budget=None):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {status}  {self.description}  [{elapsed:.2f}s]")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s budget"
        return False


def test_criterion_01_route_agreement():
    with _Timer(1, "three q-Delannoy routes agree for h,k <= 10", budget=5.0):
        for h in range(11):
            for k in range(11):
                d = q_delannoy_def(h, k)
                assert d == q_delannoy_alt(h, k)
                assert d == q_delannoy_rec(h, k)


def test_criterion_02_combinatorial_interpretation():
    with _Timer(2, "path-statistic polynomial equals q-Delannoy for h,k <= 6", budget=5.0):
        for h in range(7):
            for k in range(7):
                assert sigma_poly(h, k) == q_delannoy_rec(h, k)


def test_criterion_03_corner_congruence():
    with _Timer(3, "corner congruence holds for n <= 8, h,k <= 8, correct signs", budget=30.0):
        for n in range(1, 9):
            for h in range(9):
                for k in range(9):
                    assert verify_theorem2(n, h, k).passed
        # the parity sign is not interchangeable
        wrong_even = q_delannoy_rec(2, 0) + q_delannoy_rec(0, 2) + q_delannoy_rec(0, 0)
        assert not congruent(q_delannoy_rec(2, 2), wrong_even, 2)
        wrong_odd = q_delannoy_rec(3, 0) + q_delannoy_rec(0, 3) - q_delannoy_rec(0, 0)
        assert not congruent(q_delannoy_rec(3, 3), wrong_odd, 3)


def test_criterion_04_split_congruence_and_induction():
    with _Timer(4, "split congruence and induction layer for n <= 8, a,c <= 2", budget=60.0):
        summary = sweep(SweepConfig("thm1", max_n=8, max_a=2, max_c=2))
        assert summary.failed == 0
        assert summary.total == sum(9 * n * n for n in range(1, 9))
        for n in range(1, 9):
            for a in range(3):
                for c in range(3):
                    for b in range(n):
                        for d in range(n):
                            assert induction_consistency(n, a, b, c, d)


def test_criterion_05_lucas_family():
    with _Timer(5, "q-Lucas for n <= 10 plus integer Lucas variants for p <= 7"):
        for n in range(1, 11):
            for a in range(4):
                for c in range(4):
                    for b in range(n):
                        for d in range(n):
                            assert verify_q_lucas(n, a, b, c, d).passed
        for p in (2, 3, 5, 7):
            for a in range(5):
                for c in range(5):
                    for b in range(p):
                        for d in range(p):
                            assert verify_lucas(p, a, b, c, d).passed
                            assert verify_delannoy_lucas(p, a, b, c, d).passed


def test_criterion_06_spot_values():
    with _Timer(6, "frozen spot values"):
        assert delannoy(1, 1) == 3
        assert delannoy(2, 2) == 13
        assert delannoy(3, 3) == 63
        assert delannoy(5, 5) == 1683
        assert q_delannoy_rec(1, 1) == IntPoly([1, 2])
        assert q_delannoy_rec(2, 2) == IntPoly([1, 2, 4, 4, 2])
        assert reduce_mod(q_delannoy_rec(3, 3), 3) == IntPoly([3])


def test_criterion_07_cyclotomic_suite():
    with _Timer(7, "cyclotomic table checks up to n = 100", budget=5.0):
        import math

        for n in range(1, 101):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPoly.monomial(n) - ONE
            assert cyclotomic(n).degree == sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)
            if n % 2 == 0:
                assert congruent(IntPoly.monomial(n // 2), IntPoly([-1]), n)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            assert cyclotomic(p) == IntPoly([1] * p)


def test_criterion_08_orbit_audit():
    with _Timer(8, "orbit audit clean for all frames h,k <= 2, n <= 5", budget=300.0):
        for h in range(3):
            for k in range(3):
                for n in range(1, 6):
                    report = audit(CornerFrame(h, k, n))
                    assert report.ok, (h, k, n, report.violations)


def test_criterion_09_generating_function_table():
    with _Timer(9, "series table matches Delannoy numbers for h,k <= 12", budget=1.0):
        table = delannoy_series_table(12)
        for h in range(13):
            for k in range(13):
                assert table[h][k] == delannoy(h, k)


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qdelannoy", *args], capture_output=True, env=env)


def test_criterion_10_cli_determinism():
    with _Timer(10, "CLI output byte-identical across runs and --jobs settings"):
        invocations = [
            ("compute", "qdelannoy", "--h", "4", "--k", "3", "--json"),
            ("verify", "thm2", "--max-n", "3", "--max-h", "3", "--max-k", "3", "--json"),
            ("orbits", "audit", "--h", "1", "--k", "1", "--n", "2", "--json"),
        ]
        for args in invocations:
            first = _run_cli(*args)
            second = _run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
        jobs_base = ("verify", "qlucas", "--max-n", "4", "--max-a", "2", "--max-c", "2", "--json")
        serial = _run_cli(*jobs_base, "--jobs", "1")
        parallel = _run_cli(*jobs_base, "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout
        assert json.loads(serial.stdout)["failed"] == 0
