import json
import os
import re
import tracemalloc
from itertools import islice
from math import comb

import pytest

from qdelannoy import congruence, cyclotomic as cyclotomic_module, paths, qdelannoy as qdelannoy_module
from qdelannoy import residue as residue_module
from qdelannoy.cli import main
from qdelannoy.cyclotomic import congruent, cyclotomic, reduce_mod
from qdelannoy.paths import sigma
from qdelannoy.polyring import ONE, IntPoly, ZERO, slot_bits
from qdelannoy.qcore import delannoy, q_binomial
from qdelannoy.qdelannoy import q_delannoy_rec
from qdelannoy.residue import binomial_rows, delannoy_rows, phi_test
from qdelannoy.congruence import (
    STATEMENTS,
    SweepConfig,
    run_case,
    sweep,
    verify_delannoy_lucas,
    verify_lucas,
    verify_q_lucas,
    verify_theorem1,
    verify_theorem2,
)
import reference
from reference import evaluate, grid_cases, induction_consistency


def test_theorem2_n1_is_integer_recurrence():
    for h in range(6):
        for k in range(6):
            report = verify_theorem2(1, h, k)
            assert report.passed
            assert report.tag == "thm2-odd"


def test_theorem2_even_spot_case():
    report = verify_theorem2(2, 0, 0)
    assert report.passed
    assert report.tag == "thm2-even"
    # lhs at q=-1: 1-2+4-4+2 = 1 matches 1+1-1
    assert evaluate(report.lhs, -1) == 1


def test_theorem2_odd_spot_case():
    report = verify_theorem2(3, 0, 0)
    assert report.passed
    assert report.rhs == IntPoly([3])


def test_theorem2_grid():
    for n in range(1, 6):
        for h in range(5):
            for k in range(5):
                assert verify_theorem2(n, h, k).passed


def test_theorem2_report_carries_residue():
    report = verify_theorem2(4, 2, 1)
    assert report.residue.is_zero()
    assert report.passed == report.residue.is_zero()
    assert congruent(report.lhs, report.rhs, 4)


def test_theorem1_trivial_when_a_c_zero():
    for n in (2, 3, 5):
        for b in range(n):
            for d in range(n):
                report = verify_theorem1(n, 0, b, 0, d)
                assert report.passed
                assert report.lhs == report.rhs


def test_theorem1_even_spot_case():
    report = verify_theorem1(2, 1, 0, 1, 0)
    assert report.passed
    assert report.rhs == q_delannoy_rec(0, 0)


def test_theorem1_odd_uses_delannoy_factor():
    report = verify_theorem1(3, 2, 1, 1, 2)
    assert report.passed
    assert report.rhs == q_delannoy_rec(1, 2) * delannoy(2, 1)


def test_theorem1_grid():
    for n in range(1, 6):
        for a in range(3):
            for c in range(3):
                for b in range(n):
                    for d in range(n):
                        assert verify_theorem1(n, a, b, c, d).passed


def test_theorem1_rejects_out_of_range_parts():
    with pytest.raises(ValueError):
        verify_theorem1(3, 1, 3, 0, 0)
    with pytest.raises(ValueError):
        verify_theorem1(3, 1, 0, 0, -1)


def test_induction_examples():
    assert induction_consistency(3, 0, 0, 0, 0)
    assert induction_consistency(5, 1, 2, 0, 3)
    assert induction_consistency(2, 1, 1, 1, 0)


@pytest.mark.parametrize("case", [(0, 0, 0, 0, 0), (3, -1, 0, 0, 0), (3, 0, 0, -2, 1), (3, 0, 3, 0, 0)])
def test_induction_rejects_bad_args(case):
    with pytest.raises(ValueError):
        induction_consistency(*case)


def test_induction_grid():
    for n in range(1, 6):
        for a in range(3):
            for c in range(3):
                for b in range(n):
                    for d in range(n):
                        assert induction_consistency(n, a, b, c, d)


def test_specialization_to_integer_congruence():
    # at q=1 and prime n, both theorem sides collapse to the integer statement
    for p in (2, 3, 5):
        for a in range(3):
            for c in range(3):
                for b in range(p):
                    for d in range(p):
                        report = verify_theorem1(p, a, b, c, d)
                        assert report.passed
                        assert (evaluate(report.lhs, 1) - evaluate(report.rhs, 1)) % p == 0
                        assert verify_delannoy_lucas(p, a, b, c, d).passed
                        lhs_q1 = evaluate(report.lhs, 1)
                        assert (lhs_q1 - delannoy(a, c) * delannoy(b, d)) % p == 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_thm2():
    summary = sweep(SweepConfig("thm2", max_n=4, max_h=3, max_k=3))
    assert summary.total == 4 * 16
    assert summary.failed == 0
    assert summary.passed == summary.total
    assert summary.failures == ()


def test_sweep_empty_ranges(capsys):
    summary = sweep(SweepConfig("thm2", max_n=0, max_h=5, max_k=5))
    assert summary.total == 0
    assert summary.failed == 0
    # No shard at all still gets seat 0, so no range() step is ever 0.
    outputs = []
    for jobs in ("1", "2", "3"):
        for fmt in ((), ("--json",)):
            assert main(["verify", "thm2", "--max-n", "0", "--jobs", jobs, *fmt]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0] == "thm2: 0 cases, 0 passed, 0 failed\n"
    assert outputs[::2] == [outputs[0]] * 3 and outputs[1::2] == [outputs[1]] * 3
    assert json.loads(outputs[1])["total"] == 0


def test_sweep_qlucas():
    summary = sweep(SweepConfig("qlucas", max_n=5, max_a=2, max_c=2))
    assert summary.failed == 0
    assert summary.total == sum(9 * n * n for n in range(1, 6))


def test_sweep_lucas_and_dlucas():
    for statement in ("lucas", "dlucas"):
        summary = sweep(SweepConfig(statement, max_n=5, max_a=2, max_c=2))
        assert summary.failed == 0
        assert summary.total == sum(9 * p * p for p in (2, 3, 5))


def test_sweep_interp():
    summary = sweep(SweepConfig("interp", max_h=4, max_k=4))
    assert summary.total == 25
    assert summary.failed == 0


def test_sweep_parallel_matches_serial():
    config = dict(statement="thm2", max_n=3, max_h=3, max_k=3)
    serial = sweep(SweepConfig(**config, jobs=1))
    parallel = sweep(SweepConfig(**config, jobs=2))
    assert serial == parallel
    assert serial.to_json() == parallel.to_json()


def test_sweep_rejects_unknown_statement():
    with pytest.raises(ValueError):
        sweep(SweepConfig("thm3", max_n=2))


def test_run_case_shapes():
    report = run_case("thm2", (2, 1, 1))
    assert report.tag == "thm2-even"
    report = run_case("lucas", (3, 1, 1, 1, 1))
    assert report.tag == "lucas" and report.passed
    report = run_case("interp", (2, 2))
    assert report.tag == "interp" and report.passed
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["params"] == {"h": 2, "k": 2}


def test_run_case_unknown_statement():
    with pytest.raises(ValueError):
        run_case("thm3", (2, 1, 1))


def test_lucas_family_reports():
    report = verify_lucas(3, 2, 1, 1, 1)
    assert report == run_case("lucas", (3, 2, 1, 1, 1))
    assert report.params == {"p": 3, "a": 2, "b": 1, "c": 1, "d": 1}
    assert report.lhs == IntPoly((comb(7, 4),)) and report.rhs == IntPoly((2,))
    assert report.residue == IntPoly(((35 - 2) % 3,))
    report = verify_delannoy_lucas(3, 1, 1, 1, 1)
    assert report == run_case("dlucas", (3, 1, 1, 1, 1))
    assert report.tag == "delannoy-lucas" and report.passed
    assert report.lhs == IntPoly((delannoy(4, 4),))
    report = verify_q_lucas(3, 1, 1, 0, 2)
    assert report == run_case("qlucas", (3, 1, 1, 0, 2))
    assert report.tag == "q-lucas" and report.passed
    assert report.params == {"n": 3, "a": 1, "b": 1, "c": 0, "d": 2}


@pytest.mark.parametrize(
    "check, case",
    [
        (verify_lucas, (4, 1, 0, 1, 0)),
        (verify_lucas, (1, 0, 0, 0, 0)),
        (verify_lucas, (3, 1, 3, 1, 0)),
        (verify_lucas, (3, 1, 0, 1, -1)),
        (verify_delannoy_lucas, (6, 1, 0, 1, 0)),
        (verify_delannoy_lucas, (5, 0, 0, 0, 5)),
        (verify_q_lucas, (0, 1, 0, 1, 0)),
        (verify_q_lucas, (3, 1, 3, 0, 0)),
        (verify_q_lucas, (3, 1, 0, 0, -1)),
        # negative quotient parts
        (verify_delannoy_lucas, (3, -1, 0, 0, 0)),
        (verify_lucas, (3, 0, 0, -1, 0)),
        (verify_q_lucas, (3, -1, 2, 0, 0)),
        (verify_theorem1, (3, 0, 0, -1, 0)),
    ],
)
def test_lucas_family_rejects_bad_args(check, case):
    with pytest.raises(ValueError):
        check(*case)


# ---------------------------------------------------------------------------
# Residue engine against the full-polynomial oracle
# ---------------------------------------------------------------------------

def _fold(poly, n):
    """Image of a polynomial in Z[q]/(q^n - 1)."""
    out = [0] * n
    for e, c in enumerate(poly.coeffs):
        out[e % n] += c
    return out


def _unpack(value, n, bits):
    """The n slots of a packed element of Z[q]/(q^n - 1); nothing may lie above them."""
    assert value >> (n * bits) == 0
    return [value >> (i * bits) & ((1 << bits) - 1) for i in range(n)]


def _pack(slots, bits):
    return sum(x << (i * bits) for i, x in enumerate(slots))


def test_residue_tables_match_full_polynomials():
    bits = slot_bits(delannoy(20, 20))
    for n in range(1, 8):
        delannoy_t = list(islice(delannoy_rows(n, bits, 21), 21))
        binomial_t = list(islice(binomial_rows(n, bits, 21), 21))
        for h in range(21):
            for k in range(21):
                for entry, full in ((delannoy_t[h][k], q_delannoy_rec(h, k)), (binomial_t[h][k], q_binomial(h, k))):
                    slots = _unpack(entry, n, bits)
                    assert slots == _fold(full, n)
                    assert reduce_mod(IntPoly(slots), n) == reduce_mod(full, n)


def test_mod_p_tables_are_flat_residues():
    for p in (2, 3, 7):
        delannoy_t = list(islice(delannoy_rows(1, 0, 15, p), 15))
        binomial_t = list(islice(binomial_rows(1, 0, 15, p), 15))
        for h in range(15):
            for k in range(15):
                assert delannoy_t[h][k] == delannoy(h, k) % p
                assert binomial_t[h][k] == comb(h, k) % p


# Moduli with omega(n) = 0, 1, 2 and 3 distinct prime factors.
PHI_MODULI = (1, 8, 12, 30)


def _phi_multiple_slots(n, bound, factor):
    """pos, neg with slots in [0, bound], and as many at the bound as pos - neg = factor * Phi_n allows."""
    v = _fold(cyclotomic(n) * factor, n) if n > 1 else [0]
    return [bound - max(-x, 0) for x in v], [bound - max(x, 0) for x in v]


def _decides_exactly(n, bound, pos, neg):
    bits, divides = phi_test(n, bound)
    assert 0 <= min(pos + neg) and max(pos + neg) <= bound
    return divides(_pack(pos, bits), _pack(neg, bits)) == reduce_mod(IntPoly(pos) - IntPoly(neg), n).is_zero()


@pytest.mark.parametrize("n", PHI_MODULI)
def test_phi_test_at_slot_bounds(n):
    # Byte edges, where 2^omega(n) * bound needs more bytes than bound itself.
    for bound in (0, 1, 2, 255, 256, 2**16 - 1, 10**6):
        full, empty = [bound] * n, [0] * n
        cases = [(full, empty), (empty, full), (full, full)]
        cases += [([bound * (i == j) for i in range(n)], full) for j in range(n)]
        if bound >= 255:  # the multiples' coefficients are small, but above 1
            cases += [_phi_multiple_slots(n, bound, w) for w in (IntPoly((1,)), IntPoly((1, 1)), IntPoly((3, 0, -2)))]
        for pos, neg in cases:
            assert _decides_exactly(n, bound, pos, neg)
        # 1 + q + ... + q^(n-1) = (q^n - 1)/(q - 1) is a multiple of Phi_n exactly when n > 1.
        bits, divides = phi_test(n, bound)
        assert divides(_pack(full, bits), 0) == (n > 1 or bound == 0)


def test_phi_test_matches_reduction_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def instances(draw):
        n = draw(st.sampled_from(PHI_MODULI))
        bound = draw(st.one_of(st.sampled_from([1, 255, 2**16 - 1, 10**6]), st.integers(1, 10**6)))
        if draw(st.booleans()):
            # pos - neg = w * Phi_n folded, with each pos slot driven toward an end of its range.
            w = IntPoly(draw(st.lists(st.integers(-3, 3), max_size=n)))
            v = _fold(cyclotomic(n) * w, n) if w.coeffs else [0] * n
            bound = max([bound] + [abs(x) for x in v])
            ends = [(max(x, 0), bound + min(x, 0)) for x in v]
            pos = [draw(st.sampled_from([lo, hi]) | st.integers(lo, hi)) for lo, hi in ends]
            return n, bound, pos, [p - x for p, x in zip(pos, v)]
        slot = st.sampled_from([0, bound]) | st.integers(0, bound)
        return n, bound, draw(st.lists(slot, min_size=n, max_size=n)), draw(st.lists(slot, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(instances())
    def agrees(case):
        assert _decides_exactly(*case)

    agrees()


def test_phi_test_one_byte_short_decides_wrongly(monkeypatch):
    # At n = 30 each side sums 4 rotations of slots up to 2 * bound: 8 * (2^16 - 1) needs 3 bytes.
    n, bound = 30, 2**16 - 1
    pos, neg = _phi_multiple_slots(n, bound, IntPoly((1,)))
    assert reduce_mod(IntPoly(pos) - IntPoly(neg), n).is_zero()
    bits, divides = phi_test(n, bound)
    assert bits == 24 and divides(_pack(pos, bits), _pack(neg, bits))
    monkeypatch.setattr(residue_module, "slot_bits", lambda b: slot_bits(b) - 8)
    bits, short = phi_test(n, bound)
    assert bits == 16 and not short(_pack(pos, bits), _pack(neg, bits))


SMALL_GRIDS = [
    SweepConfig("thm2", max_n=7, max_h=4, max_k=3),
    SweepConfig("thm1", max_n=7, max_a=1, max_c=2),
    SweepConfig("qlucas", max_n=7, max_a=2, max_c=1),
    SweepConfig("lucas", max_n=11, max_a=3, max_c=2),
    SweepConfig("dlucas", max_n=11, max_a=2, max_c=3),
    SweepConfig("interp", max_h=6, max_k=5),
]


@pytest.mark.parametrize("config", SMALL_GRIDS, ids=lambda config: config.statement)
def test_residue_engine_matches_oracle(config):
    entry = STATEMENTS[config.statement]
    for key in entry.keys(config):
        assert entry.failures(config, key) == _oracle_shard(config, key)


@pytest.mark.parametrize("config", SMALL_GRIDS, ids=lambda config: config.statement)
def test_case_tuples_sort_in_grid_order(config):
    # `sweep` sorts the failing cases its seats send back, which restores
    # grid order only if the grid, shard keys ascending, is already sorted.
    assert len(SMALL_GRIDS) == len(STATEMENTS)
    keys = STATEMENTS[config.statement].keys(config)
    assert keys == sorted(set(keys))
    cases = [case for key in keys for case in grid_cases(config, key)]
    assert len(cases) > 1 and cases == sorted(cases)


def _oracle_shard(config, key):
    """The case count and the oracle's failing cases of one shard, over the independently enumerated grid."""
    cases = grid_cases(config, key)
    return len(cases), [case for case in cases if not run_case(config.statement, case).passed]


def test_sweep_failure_is_the_oracle_report(monkeypatch, capsys):
    # D(1,1) = 3 read as 4 breaks exactly one case: n=1, a=c=1 (even n drop the factor).
    monkeypatch.setattr(congruence, "delannoy", lambda a, c: delannoy(a, c) + ((a, c) == (1, 1)))
    config = SweepConfig("thm1", max_n=2, max_a=1, max_c=1)
    summary = sweep(config)
    assert (summary.total, summary.failed) == (4 + 16, 1)
    assert summary.failures == (run_case("thm1", (1, 1, 0, 1, 0)).to_json(),)
    assert summary.failures[0]["pass"] is False

    argv = ["verify", "thm1", "--max-n", "2", "--max-a", "1", "--max-c", "1", "--json"]
    outputs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == summary.to_json()


def test_sweep_rejects_engine_oracle_disagreement(monkeypatch):
    def corrupt(n, bits, cols):
        for h, row in enumerate(delannoy_rows(n, bits, cols)):
            yield [x + _pack([1] * n, bits) * ((h, k) == (1, 1)) for k, x in enumerate(row)]

    monkeypatch.setattr(congruence, "delannoy_rows", corrupt)
    with pytest.raises(RuntimeError, match="passes the oracle check"):
        sweep(SweepConfig("thm2", max_n=1, max_h=1, max_k=1))


@pytest.mark.parametrize(
    "config",
    [SweepConfig("thm2", max_n=3, max_h=2, max_k=2), SweepConfig("thm1", max_n=3, max_a=1, max_c=1)],
    ids=lambda config: config.statement,
)
def test_engine_false_negative_is_caught(monkeypatch, config):
    # The packed test calls the first case of the n = 2 shard not divisible, though it is.
    missed = []

    def phi_test_missing_one(n, bound):
        bits, divides = phi_test(n, bound)

        def divides_but_one(pos, neg):
            if n == 2 and not missed:
                missed.append((pos, neg))
                return False
            return divides(pos, neg)

        return bits, divides_but_one

    monkeypatch.setattr(congruence, "phi_test", phi_test_missing_one)
    first = grid_cases(config, 2)[0]
    assert run_case(config.statement, first).passed
    with pytest.raises(RuntimeError, match=re.escape(f"case {first} fails") + ".* passes the oracle check"):
        sweep(config)
    assert len(missed) == 1


def _engine_failures_match_oracle(config):
    """Every shard fails exactly the oracle's failing cases, and the sweep reports them as the oracle does."""
    entry = STATEMENTS[config.statement]
    expected = []
    for key in entry.keys(config):
        shard = _oracle_shard(config, key)
        assert entry.failures(config, key) == shard
        expected += [run_case(config.statement, case).to_json() for case in shard[1]]
    summary = sweep(config)
    assert expected and summary.failures == tuple(expected)
    return expected


def test_thm2_engine_failures_match_oracle_with_wrong_sign(monkeypatch):
    # The corner step with its last sign flipped, on moduli with two prime factors.
    sign = congruence._thm2_sign
    monkeypatch.setattr(congruence, "_thm2_sign", lambda n: -sign(n))
    monkeypatch.setitem(STATEMENTS, "thm2", STATEMENTS["thm2"]._replace(keys=lambda config: [6, 10, 12]))
    failures = _engine_failures_match_oracle(SweepConfig("thm2", max_n=12, max_h=3, max_k=3))
    assert {f["params"]["n"] for f in failures} == {6, 10, 12}


def test_qlucas_engine_failures_match_oracle_with_wrong_factor(monkeypatch):
    # C(1,1) read as 2, by the engine and the oracle alike, on moduli with two prime factors.
    def factor(a, c):
        return comb(a, c) + ((a, c) == (1, 1))

    def check(n, a, b, c, d):
        return congruence._split_report("q-lucas", "n", q_binomial, factor, n, a, b, c, d)

    def failures(config, n):
        return congruence._split_failures(config, n, binomial_rows, factor, peak=congruence._binomial_peak)

    entry = STATEMENTS["qlucas"]._replace(check=check, failures=failures, keys=lambda config: [6, 10, 12])
    monkeypatch.setitem(STATEMENTS, "qlucas", entry)
    failures = _engine_failures_match_oracle(SweepConfig("qlucas", max_n=12, max_a=1, max_c=1))
    # [b,d] is 0 for d > b, so only the cases with d <= b fail.
    assert len(failures) == sum(n * (n + 1) // 2 for n in (6, 10, 12))


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig("thm2", max_n=30, max_h=1, max_k=1),
        SweepConfig("thm1", max_n=12, max_a=1, max_c=1),
        SweepConfig("qlucas", max_n=12, max_a=1, max_c=1),
    ],
    ids=lambda config: config.statement,
)
def test_passing_phi_sweep_divides_nothing(monkeypatch, config):
    # Every case passes the packed test, so no sweep reaches reduce_mod or the oracle.
    calls = []
    monkeypatch.setattr(cyclotomic_module, "reduce_mod", lambda *args: calls.append(args))
    monkeypatch.setattr(congruence, "run_case", lambda *args: calls.append(args))
    summary = sweep(config)
    assert summary.total > 0 and summary.failed == 0
    assert calls == []


# The mod-p engines: one fill at q = 1 per prime, with its count and factor.
MOD_P = {"lucas": ("binomial_rows", binomial_rows, comb), "dlucas": ("delannoy_rows", delannoy_rows, delannoy)}


@pytest.mark.parametrize("statement", MOD_P)
def test_mod_p_engine_rejects_corrupt_table_entry(monkeypatch, statement):
    name, fill, _ = MOD_P[statement]

    def corrupt(n, bits, cols, mod=None):
        for h, row in enumerate(fill(n, bits, cols, mod)):
            yield [(x + ((h, k) == (1, 1))) % mod for k, x in enumerate(row)]

    monkeypatch.setattr(congruence, name, corrupt)
    with pytest.raises(RuntimeError, match=f"{statement} case .* passes the oracle check"):
        sweep(SweepConfig(statement, max_n=5, max_a=1, max_c=1))


def _mod_p_entry_with_factor(statement, factor):
    """The statement's registry entry with `factor` given to its engine and its oracle alike."""
    _, fill, count = MOD_P[statement]
    entry = STATEMENTS[statement]
    tag = entry.check(2, 0, 0, 0, 0).tag

    def check(p, a, b, c, d):
        return congruence._split_report(tag, "p", count, factor, p, a, b, c, d)

    def failures(config, p):
        return congruence._split_failures(config, p, fill, factor, p)

    return entry._replace(check=check, failures=failures)


@pytest.mark.parametrize("statement", MOD_P)
def test_mod_p_engine_failure_is_the_oracle_report(monkeypatch, capsys, statement):
    # A factor one too large at (a,c) = (1,1), given to the engine and the oracle alike.
    count = MOD_P[statement][2]
    entry = _mod_p_entry_with_factor(statement, lambda a, c: count(a, c) + ((a, c) == (1, 1)))
    monkeypatch.setitem(STATEMENTS, statement, entry)
    config = SweepConfig(statement, max_n=5, max_a=1, max_c=1)
    shards = [_oracle_shard(config, p) for p in entry.keys(config)]
    assert [entry.failures(config, p) for p in entry.keys(config)] == shards
    expected = [run_case(statement, case).to_json() for _, failing in shards for case in failing]
    summary = sweep(config)
    assert expected and summary.failures == tuple(expected)
    assert (summary.total, summary.failed) == (4 * (4 + 9 + 25), len(expected))

    argv = ["verify", statement, "--max-n", "5", "--max-a", "1", "--max-c", "1", "--json"]
    outputs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == summary.to_json()


@pytest.mark.parametrize("statement", MOD_P)
def test_mod_p_engine_failures_match_oracle_in_every_case(monkeypatch, statement):
    # Every factor one too large, so the failures span every (a,c) and must come in grid order.
    count = MOD_P[statement][2]
    monkeypatch.setitem(STATEMENTS, statement, _mod_p_entry_with_factor(statement, lambda a, c: count(a, c) + 1))
    _engine_failures_match_oracle(SweepConfig(statement, max_n=5, max_a=1, max_c=1))


@pytest.mark.parametrize("statement", MOD_P)
def test_passing_mod_p_sweep_runs_no_oracle_case(monkeypatch, statement):
    calls = []
    monkeypatch.setattr(congruence, "run_case", lambda *args: calls.append(args))
    summary = sweep(SweepConfig(statement, max_n=13, max_a=3, max_c=3))
    assert (summary.total, summary.failed) == (16 * (4 + 9 + 25 + 49 + 121 + 169), 0)
    assert calls == []


@pytest.mark.parametrize(
    "config, key, count, bound",
    [
        # The n = 4 shard reads rows 0..154 of its fill but holds only the
        # last n + 1 = 5: about 0.018 MiB, where the whole table took 0.36 MiB.
        (SweepConfig("thm2", max_n=4, max_h=150, max_k=20), 4, 151 * 21, 0.05),
        # The n = 5 shard reads rows 0..204 but holds only rows b < 5 and the
        # row it reads: about 0.009 MiB, where the whole table took 0.16 MiB.
        (SweepConfig("thm1", max_n=5, max_a=40, max_c=1), 5, 205 * 10, 0.03),
        # The largest shard of the 60/4/4 grid (p = 59) sets a serial sweep's
        # peak.  It holds the 59 rows b < p of 295 flat residues, about
        # 0.15 MiB; the whole 295 x 295 table took 0.71 MiB, and holding the
        # case list as well would take about 7 MB more.
        (SweepConfig("lucas", max_n=60, max_a=4, max_c=4), 59, 87_025, 0.25),
        (SweepConfig("dlucas", max_n=60, max_a=4, max_c=4), 59, 87_025, 0.25),
    ],
    ids=["thm2", "thm1", "lucas", "dlucas"],
)
def test_shard_memory_is_the_rows_it_still_reads(config, key, count, bound):
    tracemalloc.start()
    try:
        result = STATEMENTS[config.statement].failures(config, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (count, [])
    assert peak <= bound * 2**20


def test_interp_engine_rejects_corrupt_trie_count(monkeypatch):
    sigma_counts = paths.sigma_counts

    def corrupt(max_h, max_k):
        counts = sigma_counts(max_h, max_k)
        counts[0][max_k] += ONE  # one more path of sigma 0
        return counts

    monkeypatch.setattr(paths, "sigma_counts", corrupt)
    with pytest.raises(RuntimeError, match=r"interp case \(0, 2\) fails .* passes the oracle check"):
        sweep(SweepConfig("interp", max_h=2, max_k=2))


@pytest.mark.parametrize(
    "node, failing",
    [
        # Left of column BAND: one more D step from the origin, which column 3,
        # the band's column 1 moved right by 2, reads too.
        ((1, 1, 1), [(1, 1), (3, 1), (3, 2)]),
        # On column BAND: one more path of sigma 1 arriving at (2, 1).  Every
        # later cell at least one row up reads it, and so do the arrivals on
        # column 4 that the next band starts from.
        ((2, 1, 1), [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]),
    ],
    ids=["inside-band", "band-arrival"],
)
def test_interp_engine_rejects_corrupt_count_at_a_band_boundary(monkeypatch, node, failing):
    # At max_h = 4 the sweep reads the one band's walk at columns 0, 2 and 4.
    assert paths.BAND == 2
    trie = paths._trie

    def corrupt(width, max_k):
        yield node
        yield from trie(width, max_k)

    monkeypatch.setattr(paths, "_trie", corrupt)
    config = SweepConfig("interp", max_h=4, max_k=2)
    assert STATEMENTS["interp"].failures(config, 0) == (5 * 3, failing)
    h, k = failing[0]
    with pytest.raises(RuntimeError, match=rf"interp case \({h}, {k}\) fails .* passes the oracle check"):
        sweep(config)


def test_interp_engine_failure_is_the_oracle_report(monkeypatch, capsys):
    # P(3,2) read with its constant term one too large, by the engine and the oracle alike.
    def rec(h, k):
        return q_delannoy_rec(h, k) + (ONE if (h, k) == (3, 2) else ZERO)

    monkeypatch.setattr(qdelannoy_module, "q_delannoy_rec", rec)
    summary = sweep(SweepConfig("interp", max_h=4, max_k=3))
    assert (summary.total, summary.failed) == (5 * 4, 1)
    assert summary.failures == (run_case("interp", (3, 2)).to_json(),)
    assert summary.failures[0]["residue"] == ["-1"]

    argv = ["verify", "interp", "--max-h", "4", "--max-k", "3", "--json"]
    outputs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == summary.to_json()


def test_interp_engine_failures_match_oracle_in_every_case(monkeypatch):
    monkeypatch.setattr(qdelannoy_module, "q_delannoy_rec", lambda h, k: q_delannoy_rec(h, k) + ONE)
    assert len(_engine_failures_match_oracle(SweepConfig("interp", max_h=3, max_k=3))) == 4 * 4


def test_sigma_counts_match_reference_paths():
    # Every cell of one box walk against the recursive enumeration, weighed by `sigma`.
    for max_h in range(5):
        for max_k in range(5):
            counts = paths.sigma_counts(max_h, max_k)
            assert len(counts) == max_h + 1 and all(len(row) == max_k + 1 for row in counts)
            for h in range(max_h + 1):
                for k in range(max_k + 1):
                    expected = [0] * (h * k + 1)
                    for path in reference.enumerate_paths(h, k):
                        expected[sigma(path)] += 1
                    assert list(counts[h][k].coeffs) == expected, (max_h, max_k, h, k)


# Every box up to 6 x 6, two that are not square, and thin and empty-width
# boxes, where max_h = 0 or 1 ends the box inside the first band.
BOX_WALK_SIZES = [(h, k) for h in range(7) for k in range(7)] + [(8, 6), (6, 8), (9, 1), (1, 9), (9, 0), (0, 9)]


def test_sigma_counts_match_box_walk():
    # The band engine against the walk of the whole box's prefix trie, cell by cell.
    for max_h, max_k in BOX_WALK_SIZES:
        counts = paths.sigma_counts(max_h, max_k)
        expected = reference.sigma_counts(max_h, max_k)
        assert len(counts) == max_h + 1 and all(len(row) == max_k + 1 for row in counts)
        for h in range(max_h + 1):
            for k in range(max_k + 1):
                assert list(counts[h][k].coeffs) == expected[h][k], (max_h, max_k, h, k)


def test_interp_sweep_walks_the_box_once(monkeypatch):
    walks = []
    sigma_counts = paths.sigma_counts
    monkeypatch.setattr(paths, "sigma_counts", lambda *args: walks.append(args) or sigma_counts(*args))
    for jobs in (1, 2):
        summary = sweep(SweepConfig("interp", max_h=5, max_k=3, jobs=jobs))
        assert (summary.total, summary.failed) == (6 * 4, 0)
    assert walks == [(5, 3), (5, 3)]


def test_passing_interp_sweep_runs_no_oracle_case(monkeypatch):
    calls = []
    monkeypatch.setattr(congruence, "run_case", lambda *args: calls.append(args))
    summary = sweep(SweepConfig("interp", max_h=6, max_k=6))
    assert (summary.total, summary.failed) == (7 * 7, 0)
    assert calls == []


# ---------------------------------------------------------------------------
# Sweep configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        dict(jobs=0),
        dict(jobs=-3),
        dict(max_n=-2),
        dict(max_a=-1),
        dict(max_c=-1),
        dict(max_h=-1),
        dict(max_k=-1),
        # a nonzero bound the statement does not read
        dict(max_a=3),
        dict(max_c=1),
        dict(statement="thm1", max_n=2, max_h=1),
        dict(statement="lucas", max_n=3, max_k=2),
        dict(statement="interp", max_n=1, max_h=2),
        dict(statement="interp", max_a=1),
    ],
)
def test_sweep_config_rejects_bad_bounds(bad):
    with pytest.raises(ValueError):
        SweepConfig(**{"statement": "thm2", **bad})


def test_each_statement_takes_its_own_bounds():
    axes = {name: entry.axes for name, entry in STATEMENTS.items()}
    assert axes == {"lucas": "nac", "dlucas": "nac", "qlucas": "nac", "thm1": "nac", "thm2": "nhk", "interp": "hk"}
    for name, own in axes.items():
        assert STATEMENTS[name].keys(SweepConfig(name, **{f"max_{axis}": 2 for axis in own}))


def test_shard_counts_sum_to_grid_size():
    grids = [
        (SweepConfig("thm2", max_n=4, max_h=2, max_k=3), 4 * 3 * 4),
        (SweepConfig("thm1", max_n=3, max_a=1, max_c=2), 2 * 3 * (1 + 4 + 9)),
        (SweepConfig("lucas", max_n=7, max_a=1, max_c=1), 4 * (4 + 9 + 25 + 49)),
        (SweepConfig("interp", max_h=3, max_k=2), 4 * 3),
    ]
    for config, size in grids:
        keys = STATEMENTS[config.statement].keys(config)
        assert len(keys) == 1 if config.statement == "interp" else len(keys) > 1
        shards = [_oracle_shard(config, key) for key in keys]
        assert [STATEMENTS[config.statement].failures(config, key) for key in keys] == shards
        assert sum(count for count, _ in shards) == size == sweep(config).total


def test_sweep_pool_is_capped_at_shard_count(monkeypatch):
    sizes, orders = [], []

    def recording(config, keys, seats):
        sizes.append(seats)
        orders.append(keys)
        return [STATEMENTS[config.statement].failures(config, key) for key in keys]

    monkeypatch.setattr(congruence, "_forked", recording)
    summary = sweep(SweepConfig("thm2", max_n=3, max_h=1, max_k=1, jobs=10**9))
    assert sizes == [3]
    assert orders == [[3, 2, 1]]  # largest shard first
    assert (summary.total, summary.failed) == (12, 0)
    sweep(SweepConfig("thm2", max_n=1, max_h=1, max_k=1, jobs=10**9))
    assert sizes == [3, 1]
    sweep(SweepConfig("lucas", max_n=7, max_a=1, max_c=1, jobs=2))
    assert sizes == [3, 1, 2] and orders[-1] == [7, 5, 3, 2]
    sweep(SweepConfig("thm2", max_h=1, max_k=1, jobs=3))  # no shard still gets one seat
    assert sizes == [3, 1, 2, 1] and orders[-1] == []


def _counting_forks(monkeypatch) -> list[int]:
    """Patch `os.fork` to record this process's forks; a child's own count stays in the child."""
    fork, parent, forks = os.fork, os.getpid(), []

    def counting():
        if os.getpid() == parent:
            forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_forks_one_process_fewer_than_its_seats(monkeypatch):
    # The calling process is seat 0, so --jobs 1 forks nothing, and a
    # two-shard grid forks one child however many jobs it is given.
    forks = _counting_forks(monkeypatch)
    config = SweepConfig("thm2", max_n=2, max_h=2, max_k=2)
    expected = sweep(config)
    assert forks == []
    for jobs in (2, 3):
        forks.clear()
        assert sweep(config._replace(jobs=jobs)) == expected
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_worker_failure_keeps_its_exception_type_and_leaves_no_child(monkeypatch):
    thm1, parent = STATEMENTS["thm1"], os.getpid()

    def failing(config, n):
        if n == 2:
            raise ValueError("table overflow")
        return thm1.failures(config, n)

    def failing_in_worker(config, n):
        if n == 3 and os.getpid() != parent:
            raise ValueError("worker only")
        return thm1.failures(config, n)

    monkeypatch.setitem(STATEMENTS, "thm1", thm1._replace(failures=failing))
    for jobs in (1, 2, 3):  # the parent re-runs the seat, so every jobs setting raises the same error
        with pytest.raises(ValueError, match="table overflow"):
            sweep(SweepConfig("thm1", max_n=4, max_a=1, max_c=1, jobs=jobs))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    # At jobs=2 seat 0 takes shards 4 and 2, and the forked seat 1 takes 3 and 1.
    monkeypatch.setitem(STATEMENTS, "thm1", thm1._replace(failures=failing_in_worker))
    with pytest.raises(RuntimeError, match=r"^thm1 sweep worker 1 raised, but its shards pass in this process$"):
        sweep(SweepConfig("thm1", max_n=4, max_a=1, max_c=1, jobs=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_worker_other_status_is_not_rerun_and_leaves_no_child(monkeypatch):
    # At jobs=3 seat 0 takes shards 4 and 1, seat 1 takes 3 and seat 2
    # takes 2, whose process leaves with status 3 before it writes.
    thm1, parent, rerun = STATEMENTS["thm1"], os.getpid(), []

    def dying_in_worker(config, n):
        if os.getpid() != parent and n == 2:
            os._exit(3)
        if os.getpid() == parent and n in (3, 2):
            rerun.append(n)
        return thm1.failures(config, n)

    monkeypatch.setitem(STATEMENTS, "thm1", thm1._replace(failures=dying_in_worker))
    with pytest.raises(RuntimeError, match=r"^thm1 sweep worker 2 exited with status 3$"):
        sweep(SweepConfig("thm1", max_n=4, max_a=1, max_c=1, jobs=3))
    assert rerun == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_seat_zero_failure_keeps_its_exception_type_and_leaves_no_child(monkeypatch):
    # At jobs=3 seats 1 and 2 are forked before seat 0 runs shard 4, its
    # first, which raises only in this process.
    thm1, parent = STATEMENTS["thm1"], os.getpid()

    class TableOverflow(Exception):
        pass

    def failing_in_parent(config, n):
        if n == 4 and os.getpid() == parent:
            raise TableOverflow("seat 0 only")
        return thm1.failures(config, n)

    forks = _counting_forks(monkeypatch)
    monkeypatch.setitem(STATEMENTS, "thm1", thm1._replace(failures=failing_in_parent))
    with pytest.raises(TableOverflow, match="seat 0 only"):
        sweep(SweepConfig("thm1", max_n=4, max_a=1, max_c=1, jobs=3))
    assert forks == [1, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_that_fails_in_the_parent_kills_and_reaps_its_workers(monkeypatch):
    # At jobs=4 three workers are forked; the first reaped worker's status
    # cannot be read, so the other two are still running.
    def unreadable(status):
        raise OSError("status lost")

    monkeypatch.setattr(os, "waitstatus_to_exitcode", unreadable)
    with pytest.raises(OSError, match="status lost"):
        sweep(SweepConfig("thm1", max_n=6, max_a=1, max_c=1, jobs=4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_without_fork_runs_its_shards_in_process(monkeypatch):
    config = SweepConfig("thm1", max_n=5, max_a=1, max_c=1, jobs=3)
    forked = sweep(config)
    seats = []
    forked_runner = congruence._forked

    def recording(config, keys, count):
        seats.append(count)
        return forked_runner(config, keys, count)

    monkeypatch.delattr(os, "fork", raising=False)  # calling it would fail
    monkeypatch.setattr(congruence, "_forked", recording)
    assert sweep(config) == forked == sweep(config._replace(jobs=1))
    assert seats == [1, 1]
