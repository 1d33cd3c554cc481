"""Benchmark of the qdelannoy CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload compute-routes --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30        # every workload, one report
    python3 bench/run.py --smoke --workload all --seconds 0 --trace 1   # tiny sizes

Every request is a fresh `python -m qdelannoy ...` process, so it starts with
cold memo tables the way a user's does.  The loop is closed, from one client:
the next request starts when the previous one has ended, so at most one CLI
process and its `--jobs` pool run at once.  The workload's requests repeat in
rounds until --seconds have passed; each time is the mean over rounds,
and setup_s and peak RSS are medians.  Every output is checked against the
oracle in oracle.py.  Times are scaled to a reference host speed: a
calibration slice (calibrate.py) is timed before every untraced request,
and the run's times are multiplied by REFERENCE_S over the slices' mean CPU
time, so that the host's speed drift between runs does not read as a
change of the program.  Wall times leave out the steal time that
/proc/stat counts while a request runs: the time the hypervisor gave the
request's vCPUs to other guests.

--trace 0 reports the end-to-end metrics.  --trace 1 adds, in each round, a
traced copy of every request (bench/trace_child.py) and reports the
per-layer metrics of layers.py, including the tracing overhead.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import layers
import workloads
from workloads import LAYER_TOUCH, SETUP_PROBE, Request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# (name, unit); BENCHMARK.json gives each its bound.
END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "unit/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PROBES_PER_ROUND = 2
# A run stops waiting this long after its --seconds are up: a hung request is killed
# and counted as failed, so the run still ends within the 180 s a run may take.
HARD_STOP_GRACE_S = 120.0


@dataclass
class Outcome:
    """What one CLI process did, from its pipes and its wait4 rusage."""

    rc: int
    stdout: bytes
    stderr: bytes
    trace: bytes
    wall_s: float
    cpu_s: float  # user + system, including reaped pool workers
    rss_mb: float  # this process's peak, or a pool worker's if larger
    steal_s: float = 0.0  # vCPU time the hypervisor withheld meanwhile, summed over vCPUs

    @property
    def wall_less_steal_s(self) -> float:
        """Wall time less what the hypervisor withheld from the vCPUs the request kept busy.

        CPU time over wall time says how many vCPUs that was, at least one.
        """
        return self.wall_s - self.steal_s / max(1.0, self.cpu_s / self.wall_s)


def steal_s() -> float:
    """The machine's steal time so far: the steal column of /proc/stat, 0 where there is none."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def execute(argv: tuple[str, ...], traced: bool = False, deadline: float | None = None) -> Outcome:
    """Run one request to completion and account for it with os.wait4.

    Past `deadline` (a time.perf_counter() value) the request's process group is killed.
    """
    if traced:
        trace_fd, child_fd = os.pipe()
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(child_fd), *argv]
    else:
        cmd = [sys.executable, "-m", "qdelannoy", *argv]
    stolen = steal_s()
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
        cwd=ROOT,
        pass_fds=(child_fd,) if traced else (),
        start_new_session=True,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    buffers = {out_fd: bytearray(), err_fd: bytearray()}
    if traced:
        os.close(child_fd)
        buffers[trace_fd] = bytearray()
    try:
        _drain(buffers, deadline, proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if traced:
            os.close(trace_fd)
    wall = time.perf_counter() - start
    stolen = steal_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        rc=proc.returncode,
        stdout=bytes(buffers[out_fd]),
        stderr=bytes(buffers[err_fd]),
        trace=bytes(buffers[trace_fd]) if traced else b"",
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        steal_s=stolen,
    )


def _drain(buffers: dict[int, bytearray], deadline: float | None, pid: int) -> None:
    """Read every pipe to EOF; past the deadline, kill the request's process group."""
    killed = False
    with selectors.DefaultSelector() as selector:
        for fd in buffers:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            timeout = None if killed or deadline is None else max(0.0, deadline - time.perf_counter())
            events = selector.select(timeout)
            if not events and not killed:
                os.killpg(pid, signal.SIGKILL)
                killed = True
            for key, _ in events:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd] += chunk
                else:
                    selector.unregister(key.fd)


class Book:
    """Oracle verdicts and stdout digests of every request made in a run, and the
    wall and CPU times of the calibration slices timed before each untraced one."""

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[object, str] = {}
        self.slices: list[tuple[float, float]] = []

    def record(self, request: Request, outcome: Outcome) -> None:
        """Check one output; requests that repeat, or are twins, must print the same bytes."""
        self.attempted += 1
        reason = request.check(outcome.rc, outcome.stdout)
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        first = self.digests.setdefault(request.twin or request.argv, digest)
        if reason is None and digest != first:
            reason = f"stdout sha256 {digest[:12]} differs from an earlier {first[:12]}"
        if reason is not None:
            stderr = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{request.text}: {reason} {stderr}")

    def run(self, request: Request, traced: bool = False) -> Outcome:
        if not traced:
            self.slices.append(calibrate.slice_s())
        outcome = execute(request.argv, traced, self.deadline)
        self.record(request, outcome)
        return outcome


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}  n={len(values)}"


def _typical(rounds: list[list[Outcome]]) -> list[dict[str, float]]:
    """Each request's mean wall time less steal, mean CPU time and median peak RSS
    over the rounds.

    Times are means, like the calibration slices they are scaled by: the
    ratio of the run's total request time to its total slice time is what
    stays put when the host's speed moves, within a run or between runs.
    """
    return [
        {
            "wall_s": statistics.fmean(outs[i].wall_less_steal_s for outs in rounds),
            "cpu_s": statistics.fmean(outs[i].cpu_s for outs in rounds),
            "rss_mb": statistics.median(outs[i].rss_mb for outs in rounds),
        }
        for i in range(len(rounds[0]))
    ]


def _end_to_end(requests: list[Request], typical: list[dict[str, float]], scale: float) -> dict[str, float]:
    """Typical request times summed over the workload and scaled to the reference
    speed; peak RSS is the largest request's."""
    wall = scale * sum(t["wall_s"] for t in typical)
    return {
        "wall_s": wall,
        "work_per_s": sum(r.work for r in requests) / wall,
        "cpu_s": scale * sum(t["cpu_s"] for t in typical),
        "peak_rss_mb": max(t["rss_mb"] for t in typical),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[list[str], dict]:
    """Run one workload for `seconds`; return the report lines and the result object."""
    requests = workloads.generate(workload, seed, tiny)
    load_before = os.getloadavg()
    deadline = time.perf_counter() + seconds
    book = Book(deadline + HARD_STOP_GRACE_S)
    probes: list[float] = []
    plain_rounds: list[list[Outcome]] = []
    traced_rounds: list[tuple[list[Outcome], list[Outcome]]] = []
    round_s: list[float] = []
    while True:
        start = time.perf_counter()
        probes += [book.run(SETUP_PROBE).wall_less_steal_s for _ in range(PROBES_PER_ROUND)]
        plain_rounds.append([book.run(r) for r in requests])
        if trace:
            touch = [book.run(r, traced=True) for r in LAYER_TOUCH]
            traced_rounds.append(([book.run(r, traced=True) for r in requests], touch))
        round_s.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(round_s) > deadline:
            break
    load_after = os.getloadavg()

    # Times are reported at the reference speed of calibrate.py, so that a
    # drift of the host's CPU speed between runs does not read as a change.
    slice_wall, slice_cpu = (statistics.fmean(times) for times in zip(*book.slices))
    scale = calibrate.REFERENCE_S / slice_cpu
    typical = _typical(plain_rounds)
    e2e = {**_end_to_end(requests, typical, scale), "setup_s": scale * statistics.median(probes)}
    raw = _end_to_end(requests, typical, 1.0)
    rows = [_end_to_end(requests, _typical([outs]), scale) for outs in plain_rounds]
    lines = [
        f"== workload {workload}  seed {seed}  trace {int(trace)}  rounds {len(plain_rounds)}"
        f"{'  (smoke sizes)' if tiny else ''}",
        f"host: nproc {os.cpu_count()}  python {platform.python_version()}  commit {_git_commit()}",
        f"loadavg before {' '.join(f'{x:.2f}' for x in load_before)}  after {' '.join(f'{x:.2f}' for x in load_after)}",
        "requests (each `python -m qdelannoy ARGS`, in this order every round):",
        *(f"  [{i}] {r.text}" for i, r in enumerate(requests)),
        f"setup probe, {PROBES_PER_ROUND} per round: {SETUP_PROBE.text}",
        f"calibration: {len(book.slices)} slices, mean wall {slice_wall:.5f} s, mean cpu {slice_cpu:.5f} s"
        f" ({_quartiles([c for _, c in book.slices])}); times below are scaled by"
        f" {calibrate.REFERENCE_S} / {slice_cpu:.5f} = {scale:.4f}",
        f"  unscaled: wall_s {raw['wall_s']:.6g}  cpu_s {raw['cpu_s']:.6g}  setup_s {statistics.median(probes):.6g};"
        f" steal left out of wall_s: {sum(o.steal_s for outs in plain_rounds for o in outs):.2f} s in {len(plain_rounds)} rounds",
        f"end-to-end over {len(rows)} rounds, work unit {workloads.WORK_UNIT[workload]}; quartiles are of single rounds:",
    ]
    for name, unit in END_TO_END:
        values = [scale * p for p in probes] if name == "setup_s" else [row[name] for row in rows]
        lines.append(f"  {name:<12} {e2e[name]:12.6g} {unit:<7} {_quartiles(values)}")
    failed = len(book.failures)
    lines.append(f"  {'fail_ratio':<12} {failed / book.attempted:12.6g} -       {failed}/{book.attempted} requests")
    lines.append("per request, unscaled mean over rounds: wall s, cpu s; median peak rss MB")
    for i, t in enumerate(typical):
        lines.append(f"  [{i}] {t['wall_s']:8.3f} {t['cpu_s']:8.3f} {t['rss_mb']:8.1f}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        metrics, layer_lines = _layer_report(requests, plain_rounds, traced_rounds)
        lines += layer_lines
    lines += [f"FAIL {f}" for f in book.failures]
    result = {"correct": not book.failures, "attempted": book.attempted, "failed": failed, "metrics": metrics}
    return lines, result


def _layer_report(requests, plain_rounds, traced_rounds) -> tuple[dict, list[str]]:
    rows, parsed_rounds = [], []
    for plain, (outs, touch) in zip(plain_rounds, traced_rounds):
        parsed = [layers.parse(o.trace) for o in outs]
        touch_parsed = [layers.parse(o.trace) for o in touch]
        overhead = sum(o.wall_s for o in outs) - sum(o.wall_s for o in plain)
        stdout_bytes = sum(len(o.stdout) for o in outs + touch)
        rows.append(layers.round_metrics(parsed + touch_parsed, stdout_bytes, overhead))
        parsed_rounds.append(parsed)
    # Counts repeat exactly from round to round; median_low keeps them whole numbers.
    values = {
        name: (statistics.median if unit == "s" else statistics.median_low)(row[name] for row in rows)
        for name, unit, _, _ in layers.LAYER_METRICS
    }
    lines = [f"per-layer, median of {len(rows)} traced rounds; 'moves' is the end-to-end metric each should move:"]
    for name, unit, _, moves in layers.LAYER_METRICS:
        lines.append(f"  {name:<34} {values[name]:14.6g} {unit:<6} moves: {moves}")
    lines.append("largest self time per traced request (first traced round), s:")
    for i, trace in enumerate(parsed_rounds[0]):
        top = "  ".join(f"{name} {s:.3f}" for name, s in trace.self_s.most_common(3))
        lines.append(f"  [{i}] {trace.spans} spans  {top}")
    lines += [f"note: {note}" for note in layers.NOTES]
    lines.append("layer-touch requests: " + " | ".join(r.text for r in LAYER_TOUCH))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in layers.LAYER_METRICS}
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure for this long; at least one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny request sizes, for self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "qdelannoy" / "__init__.py").is_file():
        print(f"error: no qdelannoy package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
