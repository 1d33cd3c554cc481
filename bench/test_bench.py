"""Self-tests of the benchmark: smoke runs, oracle rejections, and BENCHMARK.json agreement.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import calibrate
import layers
import oracle
import run
import workloads

ALL_REQUESTS = [
    r for name in workloads.WORKLOADS for r in workloads.generate(name, seed=0, tiny=True)
] + [workloads.SETUP_PROBE, *workloads.LAYER_TOUCH]


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_end_to_end(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke", "--workload", "all", "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_same_seed_same_requests_and_band_is_narrow():
    for name in workloads.WORKLOADS:
        assert [r.argv for r in workloads.generate(name, 7)] == [r.argv for r in workloads.generate(name, 7)]
        works = [sum(r.work for r in workloads.generate(name, seed)) for seed in range(20)]
        assert max(works) <= 1.05 * min(works), name


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: r.text)
def test_oracle_accepts_real_output_and_rejects_a_wrong_exit_status(request_):
    outcome = run.execute(request_.argv)
    assert request_.check(outcome.rc, outcome.stdout) is None
    assert request_.check(1, outcome.stdout) is not None
    assert request_.check(2, b"") is not None


def _changed_coefficient(stdout: bytes) -> bytes:
    out = json.loads(stdout)
    out["coeffs"][len(out["coeffs"]) // 2] = str(int(out["coeffs"][len(out["coeffs"]) // 2]) + 1)
    return json.dumps(out).encode()


def test_oracle_rejects_one_changed_coefficient():
    rec = workloads.qdelannoy_request(4, 3, "rec", as_json=True)
    binom = workloads.generate("compute-routes", 0, tiny=True)[1]
    for request in (rec, binom):
        stdout = run.execute(request.argv).stdout
        assert request.check(0, stdout) is None
        assert request.check(0, _changed_coefficient(stdout)) is not None
    text = workloads.qdelannoy_request(2, 2, "alt", as_json=False)
    assert text.check(0, b"1 + 2*q + 4*q^2 + 4*q^3 + 2*q^4\n") is None
    assert text.check(0, b"1 + 2*q + 4*q^2 + 5*q^3 + 2*q^4\n") is not None
    assert text.check(0, b"1 + 2*q + 4*q^2 + 4*q^3\n") is not None


def test_oracle_rejects_a_wrong_case_count_or_a_failed_case():
    request = workloads.sweep_request("thm2", 1, max_n=2, max_h=1, max_k=1)
    good = {"statement": "thm2", "total": 8, "passed": 8, "failed": 0, "failures": []}
    assert request.check(0, json.dumps(good).encode()) is None
    assert request.check(0, json.dumps({**good, "total": 7, "passed": 7}).encode()) is not None
    assert request.check(0, json.dumps({**good, "passed": 7, "failed": 1}).encode()) is not None


def test_oracle_rejects_a_wrong_audit():
    request = workloads.audit_request(0, 0, 2)
    good = json.loads(run.execute(request.argv).stdout)
    assert request.check(0, json.dumps(good).encode()) is None
    assert request.check(0, json.dumps({**good, "total_paths": good["total_paths"] - 1}).encode()) is not None
    assert request.check(0, json.dumps({**good, "ok": False, "violations": ["x"]}).encode()) is not None


def test_book_flags_outputs_that_differ_between_repetitions_or_twins():
    def outcome(stdout: bytes) -> run.Outcome:
        return run.Outcome(0, stdout, b"", b"", 0.1, 0.1, 1.0)

    book = run.Book()
    def_ = workloads.qdelannoy_request(1, 1, "def", as_json=False, twin="t")
    alt = workloads.qdelannoy_request(1, 1, "alt", as_json=False, twin="t")
    book.record(def_, outcome(b"1 + 2*q\n"))
    book.record(def_, outcome(b"1 + 2*q\n"))
    assert not book.failures
    # "q^1" passes the oracle on its own; only the digest comparison catches it.
    assert alt.check(0, b"1 + 2*q^1\n") is None
    book.record(alt, outcome(b"1 + 2*q^1\n"))
    book.record(def_, outcome(b"1 + 2*q^1\n"))
    assert book.attempted == 4 and len(book.failures) == 2


def test_oracle_delannoy_and_case_counts():
    assert [oracle.delannoy(n, n) for n in range(5)] == [1, 3, 13, 63, 321]
    assert oracle.sweep_cases("thm2", max_n=16, max_h=16, max_k=16) == 4624
    assert oracle.sweep_cases("thm1", max_n=11, max_a=2, max_c=2) == 4554
    assert oracle.sweep_cases("qlucas", max_n=12, max_a=3, max_c=3) == 10400
    assert oracle.parse_poly_text("3 - q + 2*q^3\n") == [3, -1, 0, 2]


def test_calibration_slice_repeats_its_work_and_stays_small():
    assert calibrate.work() == calibrate.EXPECTED
    wall, cpu = calibrate.slice_s()
    assert 0 < cpu <= wall * 1.01 + 0.001 and wall < 20 * calibrate.REFERENCE_S


def test_wall_time_leaves_out_steal_shared_among_busy_vcpus():
    def outcome(wall: float, cpu: float, steal: float) -> run.Outcome:
        return run.Outcome(0, b"", b"", b"", wall, cpu, 1.0, steal)

    assert outcome(2.0, 1.5, 0.5).wall_less_steal_s == pytest.approx(1.5)
    assert outcome(2.0, 3.0, 0.6).wall_less_steal_s == pytest.approx(1.6)  # two vCPUs, 1.5 busy
    assert run.steal_s() >= 0


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [m[:3] for m in layers.LAYER_METRICS]


def test_refuses_to_run_without_the_package(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.BENCH / "no-such-checkout" / "src")
    assert run.main(["--workload", "orbit-audit", "--seconds", "0"]) == 2
