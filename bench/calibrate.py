"""A fixed slice of reference work that gauges how fast the host runs Python now.

The host's CPU speed drifts: single runs of the same code vary by 15% and
more over minutes, and CPU time drifts with wall time, so it is the speed
of the vCPU that moves.  run.py times one slice before every untraced
request and scales the run's wall and CPU times by

    REFERENCE_S / mean(slice CPU times of the run)

which reports them in seconds at the speed at which a slice takes
REFERENCE_S.  CPU time, not wall time, because at times the hypervisor
withholds the vCPU for a while (steal time): that lengthens a slice's wall
time but not its CPU time, and it comes in bursts that a few slices sample
poorly.  run.py takes what a request loses to it out of wall_s by itself.

The slice is the benchmark's own code and imports nothing from qdelannoy,
so a change to the package cannot move it: a slower program still reads
slower, while a slower host does not.  Its inner loops are those the
workloads spend their time in: big-integer polynomial addition and shifts,
schoolbook products, division by a monic polynomial, and lattice-path
enumeration.
"""

from __future__ import annotations

import time

# A slice's CPU time, in seconds, on a 2-vCPU Intel Xeon VM at 2.1 GHz under
# light load; the scale of every reported time.
REFERENCE_S = 0.12


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b) :]


def _table(n: int) -> tuple[int, ...]:
    """A q-weighted Delannoy table: every entry a sum of shifted neighbours."""
    row = [(1,)] * (n + 1)
    for i in range(1, n + 1):
        new = [(1,)]
        for j in range(1, n + 1):
            diag = (0,) * (i + j - 1) + row[j - 1]
            new.append(_add(_add(new[j - 1], (0,) * j + row[j]), diag))
        row = new
    return row[n]


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _rem(p: list[int], monic: tuple[int, ...]) -> list[int]:
    """p modulo a monic polynomial, by long division."""
    p, d = list(p), len(monic) - 1
    for top in range(len(p) - 1, d - 1, -1):
        c = p[top]
        if c:
            for j in range(d + 1):
                p[top - d + j] -= c * monic[j]
    return p[:d]


def _paths(h: int, k: int, prefix: tuple[str, ...] = ()):
    """Every Delannoy path from (0,0) to (h,k), as a tuple of E, N and D steps."""
    if h == 0 and k == 0:
        yield prefix
        return
    if h:
        yield from _paths(h - 1, k, prefix + ("E",))
    if k:
        yield from _paths(h, k - 1, prefix + ("N",))
    if h and k:
        yield from _paths(h - 1, k - 1, prefix + ("D",))


def work() -> int:
    """The slice itself; the same amount of work every time."""
    poly = _table(28)
    product = _mul(poly[:400], poly[300:700])
    residues = [_rem(product, (1,) * d) for d in range(4, 40, 4)]  # monic, degree d - 1
    crossings = sum(p.count("D") for p in _paths(6, 6))
    return sum(sum(r) for r in residues) % 1000003 + crossings


EXPECTED = work()


def slice_s() -> tuple[float, float]:
    """Wall and CPU time of one slice; fails loudly if the slice computed something else."""
    start, start_cpu = time.perf_counter(), time.thread_time()
    result = work()
    elapsed, elapsed_cpu = time.perf_counter() - start, time.thread_time() - start_cpu
    if result != EXPECTED:
        raise RuntimeError(f"calibration slice returned {result}, expected {EXPECTED}")
    return elapsed, elapsed_cpu
