"""Per-layer metrics: what trace_child.py records, and how spans become metrics.

The layers are the package's modules.  Each metric names the end-to-end
metric and workload it is expected to move, so that a later change can say
beforehand which numbers should move and which should stay.
"""

from __future__ import annotations

import array
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field

from trace_child import COLUMNS

_ADD_SHIFT = "wall_s and peak_rss_mb on compute-routes (rec, qbinom); a little wall_s on thm-sweep"
_MUL = "wall_s on compute-routes (def/alt); nothing elsewhere"
_DIVREM = "wall_s and cpu_s on thm-sweep"
_CYCLOTOMIC = "wall_s on thm-sweep; a little on orbit-audit"
_QCORE = "wall_s and peak_rss_mb on compute-routes; wall_s on thm-sweep (qlucas)"
_QDELANNOY = "wall_s and peak_rss_mb on compute-routes (all distinct) and thm-sweep (heavy reuse)"
_PATHS = "wall_s on orbit-audit"
_CONGRUENCE = "wall_s and cpu_s on thm-sweep"
_CLI = "setup_s on all workloads; wall_s on compute-routes"

# (name, unit, better, what it should move); BENCHMARK.json lists the first three.
LAYER_METRICS = (
    ("polyring.add.calls", "count", "lower", _ADD_SHIFT),
    ("polyring.add.self_s", "s", "lower", _ADD_SHIFT),
    ("polyring.add.coeffs", "count", "lower", _ADD_SHIFT),
    ("polyring.shift.calls", "count", "lower", _ADD_SHIFT),
    ("polyring.shift.self_s", "s", "lower", _ADD_SHIFT),
    ("polyring.mul.calls", "count", "lower", _MUL),
    ("polyring.mul.self_s", "s", "lower", _MUL),
    ("polyring.mul.coeff_ops", "count", "lower", _MUL),
    ("polyring.divrem.calls", "count", "lower", _DIVREM),
    ("polyring.divrem.self_s", "s", "lower", _DIVREM),
    ("polyring.divrem.coeff_ops", "count", "lower", _DIVREM),
    ("cyclotomic.reduce_mod.calls", "count", "lower", _CYCLOTOMIC),
    ("cyclotomic.reduce_mod.self_s", "s", "lower", _CYCLOTOMIC),
    ("cyclotomic.reduce_mod.in_coeffs", "count", "lower", _CYCLOTOMIC),
    ("cyclotomic.congruent.calls", "count", "lower", _CYCLOTOMIC),
    ("qcore.q_binomial.calls", "count", "lower", _QCORE),
    ("qcore.q_binomial.self_s", "s", "lower", _QCORE),
    ("qcore.q_binomial.distinct_ratio", "ratio", "higher", _QCORE),
    ("qcore.neg_q_pochhammer.self_s", "s", "lower", _QCORE),
    ("qcore.delannoy.calls", "count", "lower", _QCORE),
    ("qdelannoy.rec.calls", "count", "lower", _QDELANNOY),
    ("qdelannoy.rec.self_s", "s", "lower", _QDELANNOY),
    ("qdelannoy.rec.distinct_ratio", "ratio", "higher", _QDELANNOY),
    ("qdelannoy.rec.out_coeffs", "count", "lower", _QDELANNOY),
    ("qdelannoy.def.self_s", "s", "lower", _QDELANNOY),
    ("qdelannoy.alt.self_s", "s", "lower", _QDELANNOY),
    ("paths.enumerate.paths", "count", "lower", _PATHS),
    ("paths.enumerate.self_s", "s", "lower", _PATHS),
    ("paths.sigma.calls", "count", "lower", _PATHS),
    ("paths.sigma.self_s", "s", "lower", _PATHS),
    ("paths.sigma_poly.self_s", "s", "lower", _PATHS),
    ("orbits.audit.self_s", "s", "lower", _PATHS),
    ("orbits.decompose.calls", "count", "lower", _PATHS),
    ("orbits.decompose.self_s", "s", "lower", _PATHS),
    ("orbits.violations", "count", "lower", _PATHS),
    ("congruence.cases", "count", "higher", _CONGRUENCE),
    ("congruence.failed", "count", "lower", _CONGRUENCE),
    ("congruence.run_case.p50_s", "s", "lower", _CONGRUENCE),
    ("congruence.run_case.p90_s", "s", "lower", _CONGRUENCE),
    ("congruence.sweep.self_s", "s", "lower", _CONGRUENCE),
    ("congruence.pool.wait_s", "s", "lower", _CONGRUENCE + " (--jobs 2 requests)"),
    ("congruence.result_bytes", "B", "lower", _CONGRUENCE),
    ("cli.main.self_s", "s", "lower", _CLI),
    ("cli.stdout_bytes", "B", "lower", _CLI),
    ("cli.import_s", "s", "lower", _CLI),
    ("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s of the same round; no layer"),
)

NOTES = (
    "per-case numbers (congruence.run_case.*, congruence.result_bytes) and congruence.sweep.self_s come from "
    "--jobs 1 requests only: for --jobs 2 requests the parent sees one span for the whole sweep, reported as "
    "congruence.pool.wait_s, and the pool workers' spans are not collected",
    "traced rounds also run the layer-touch requests, so that every layer has spans on every workload; "
    "trace.overhead_s leaves them out",
)


@dataclass
class RequestTrace:
    """One traced request reduced to per-span-name totals."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    case_s: list = field(default_factory=list)
    import_s: float = 0.0
    spans: int = 0


def parse(payload: bytes) -> RequestTrace:
    """Read trace_child's output and compute each span's self time.

    Self time is a span's duration minus the durations of its child spans;
    calls are synchronous, so children never overlap.  Children are
    recorded after their parent, so one backward pass suffices.  A request
    killed before it wrote its spans yields an empty trace.
    """
    if not payload:
        return RequestTrace()
    head, _, body = payload.partition(b"\n")
    header = json.loads(head)
    columns, offset = [], 0
    for _, code in COLUMNS:
        column = array.array(code)
        size = column.itemsize * header["spans"]
        column.frombytes(body[offset : offset + size])
        columns.append(column)
        offset += size
    names, parents, starts, ends = columns
    span_names = header["span_names"]
    children = [0.0] * len(names)
    self_by_id = [0.0] * len(span_names)
    calls_by_id = [0] * len(span_names)
    case_id = span_names.index("congruence.run_case") if "congruence.run_case" in span_names else -1
    out = RequestTrace(counters=Counter(header["counters"]), import_s=header["import_s"], spans=len(names))
    for i in range(len(names) - 1, -1, -1):
        duration = ends[i] - starts[i]
        name_id = names[i]
        self_by_id[name_id] += duration - children[i]
        calls_by_id[name_id] += 1
        if parents[i] >= 0:
            children[parents[i]] += duration
        if name_id == case_id:
            out.case_s.append(duration)
    for name_id, name in enumerate(span_names):
        out.calls[name] = calls_by_id[name_id]
        out.self_s[name] = self_by_id[name_id]
    return out


def round_metrics(traces: list[RequestTrace], stdout_bytes: int, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced round of requests."""
    calls, self_s, counters, case_s = Counter(), Counter(), Counter(), []
    for t in traces:
        calls.update(t.calls)
        self_s.update(t.self_s)
        counters.update(t.counters)
        case_s.extend(t.case_s)
    p50 = statistics.median(case_s) if case_s else 0.0
    special = {
        "congruence.run_case.p50_s": p50,
        "congruence.run_case.p90_s": statistics.quantiles(case_s, n=10)[8] if len(case_s) > 1 else p50,
        "congruence.pool.wait_s": self_s["congruence.pool"],
        "cli.stdout_bytes": stdout_bytes,
        "cli.import_s": statistics.median(t.import_s for t in traces),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, *_ in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif kind == "calls":
            metrics[name] = calls[span]
        elif kind == "self_s":
            metrics[name] = self_s[span]
        elif kind == "distinct_ratio":
            metrics[name] = counters[f"{span}.distinct"] / calls[span] if calls[span] else 0.0
        else:
            metrics[name] = counters[name]
    return metrics
