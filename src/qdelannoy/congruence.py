"""Direct verification of the headline congruences, plus grid sweeps.

The two theorem checks reduce exact polynomial differences modulo Phi_n and
never touch the orbit machinery, so they corroborate it independently.  The
q-Lucas check does the same for Gaussian binomials, and the integer Lucas
and Delannoy-Lucas checks reduce mod a prime p; thm1 and the three Lucas
checks are one split check, count(am+b, cm+d) vs factor(a,c)*count(b,d).
Every check returns a report that carries both sides and the reduced
residue, so a failure localizes the discrepancy.

`STATEMENTS` holds one `Statement` entry per sweepable statement: its
check, the grid bounds (axes) it reads, how its grid splits into shards,
and the engine that decides one shard.  `SweepConfig`, `run_case`, `sweep`
and the CLI read the entry and never branch on the statement's name.

Each engine walks its own shard's ranges in grid order and decides every
case from one table: thm2, thm1 and qlucas in Z[q]/(q^n - 1), each entry
packed into one integer and each case decided with no division by
`residue.phi_test`; lucas and dlucas at q = 1 with every entry reduced mod
p; and interp from the path counts of `paths.sigma_counts`, one band's
prefix trie swept across the box, compared exactly with P(h,k).  An
engine builds a case tuple only for a case that fails.

`sweep` has one runner, `_forked`: the calling process is seat 0 of up to
`jobs` seats and forks the rest, so `jobs=1` forks nothing.  Each seat
runs the engine on its share of the shard keys; this process re-runs the
share of a forked seat that raised, so a shard's error reads the same at
every `jobs`.  The failing cases come back in any order, and sorting them
restores grid order.

A case that fails is re-run through the direct check, which builds its
report; a case the direct check passes raises RuntimeError, so an engine
that fails a passing case is caught rather than reported.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable
from math import comb
from typing import NamedTuple

from .cyclotomic import reduce_mod
from .polyring import IntPoly
from .qcore import delannoy, is_prime, q_binomial
from .qdelannoy import q_delannoy_rec
from .paths import sigma_counts, sigma_poly
from .residue import binomial_table, delannoy_table, phi_test


class CongruenceReport(NamedTuple):
    """One verified instance of a statement, with the reduced residue; it passes when that is zero."""

    tag: str
    params: dict
    lhs: IntPoly
    rhs: IntPoly
    residue: IntPoly

    @property
    def passed(self) -> bool:
        return self.residue.is_zero()

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "params": dict(sorted(self.params.items())),
            "lhs": self.lhs.to_json_coeffs(),
            "rhs": self.rhs.to_json_coeffs(),
            "residue": self.residue.to_json_coeffs(),
            "pass": self.passed,
        }


def _check_split(modulus: int, a: int, b: int, c: int, d: int) -> None:
    if modulus < 1:
        raise ValueError(f"modulus index must be positive, got {modulus}")
    if a < 0 or c < 0:
        raise ValueError("quotient parts must be nonnegative")
    if not 0 <= b <= modulus - 1 or not 0 <= d <= modulus - 1:
        raise ValueError(f"remainder parts must lie in [0, {modulus - 1}], got b={b} d={d}")


def _split_report(
    tag: str, key: str, count: Callable, factor: Callable[[int, int], int], m: int, a: int, b: int, c: int, d: int
) -> CongruenceReport:
    """count(am+b, cm+d) vs factor(a,c)*count(b,d), mod Phi_m (key "n") or mod the prime m (key "p").

    The integer statements (key "p") report constant polynomials.
    """
    if key == "p" and not is_prime(m):
        raise ValueError(f"modulus must be prime, got {m}")
    _check_split(m, a, b, c, d)
    params = {key: m, "a": a, "b": b, "c": c, "d": d}
    lhs = count(a * m + b, c * m + d)
    rhs = count(b, d) * factor(a, c)
    if key == "n":
        return CongruenceReport(tag, params, lhs, rhs, reduce_mod(lhs - rhs, m))
    return CongruenceReport(tag, params, IntPoly((lhs,)), IntPoly((rhs,)), IntPoly(((lhs - rhs) % m,)))


def _thm1_factor(n: int) -> Callable[[int, int], int]:
    """D(a,c) for odd n; for even n the factor drops out."""
    return delannoy if n % 2 else lambda a, c: 1


def _thm2_sign(n: int) -> int:
    """The sign on P(h,k) in the corner step: + for odd n, - for even n."""
    return 1 if n % 2 else -1


def verify_theorem2(n: int, h: int, k: int) -> CongruenceReport:
    """Corner-step congruence: P(h+n,k+n) vs P(h+n,k) + P(h,k+n) +/- P(h,k) mod Phi_n.

    The sign on the last term is + for odd n and - for even n.
    """
    if n < 1:
        raise ValueError(f"modulus index must be positive, got {n}")
    if h < 0 or k < 0:
        raise ValueError("corner coordinates must be nonnegative")
    lhs = q_delannoy_rec(h + n, k + n)
    rhs = q_delannoy_rec(h + n, k) + q_delannoy_rec(h, k + n) + q_delannoy_rec(h, k) * _thm2_sign(n)
    tag = "thm2-odd" if n % 2 else "thm2-even"
    return CongruenceReport(tag, {"n": n, "h": h, "k": k}, lhs, rhs, reduce_mod(lhs - rhs, n))


def verify_theorem1(n: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Split congruence: P(an+b, cn+d) vs D(a,c)*P(b,d) mod Phi_n.

    For even n the integer factor D(a,c) drops out and the right side is
    P(b,d) alone.
    """
    tag = "thm1-odd" if n % 2 else "thm1-even"
    return _split_report(tag, "n", q_delannoy_rec, _thm1_factor(n), n, a, b, c, d)


def verify_q_lucas(n: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """q-Lucas: [an+b, cn+d]_q vs C(a,c)*[b,d]_q mod Phi_n."""
    return _split_report("q-lucas", "n", q_binomial, comb, n, a, b, c, d)


def verify_lucas(p: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Lucas: C(ap+b, cp+d) vs C(a,c)*C(b,d) mod p."""
    return _split_report("lucas", "p", comb, comb, p, a, b, c, d)


def verify_delannoy_lucas(p: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Delannoy-Lucas: D(ap+b, cp+d) vs D(a,c)*D(b,d) mod p."""
    return _split_report("delannoy-lucas", "p", delannoy, delannoy, p, a, b, c, d)


def _interp_report(h: int, k: int) -> CongruenceReport:
    lhs = sigma_poly(h, k)
    rhs = q_delannoy_rec(h, k)
    return CongruenceReport("interp", {"h": h, "k": k}, lhs, rhs, lhs - rhs)


class _SweepFields(NamedTuple):
    """The fields of a `SweepConfig`, which validates them."""

    statement: str
    max_n: int = 0
    max_a: int = 0
    max_c: int = 0
    max_h: int = 0
    max_k: int = 0
    jobs: int = 1


class SweepConfig(_SweepFields):
    """Finite parameter grid for one statement.

    max_n bounds the modulus index (for lucas/dlucas: the primes tried);
    remainder parts b, d always range over the full [0, n-1].  A statement
    reads only the bounds on its registry axes, and any other bound must
    stay 0.  The grid is split into shards, one per modulus; interp is one
    shard, the whole box.  Construction, `_make`, `_replace` and unpickling
    all validate the fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
        entry = STATEMENTS.get(self.statement)
        if entry is None:
            raise ValueError(f"unknown statement {self.statement!r}; expected one of {tuple(STATEMENTS)}")
        for name, value in zip(self._fields[1:], self[1:]):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be int, got {value!r}")
        for axis in "nachk":
            name = f"max_{axis}"
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            if value and axis not in entry.axes:
                bounds = ", ".join(f"max_{a}" for a in entry.axes)
                raise ValueError(f"{self.statement} does not read {name} (got {value}); its bounds are {bounds}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        return self

    @classmethod
    def _make(cls, iterable) -> SweepConfig:
        return cls(*iterable)


def run_case(statement: str, case: tuple[int, ...]) -> CongruenceReport:
    """Evaluate one grid case; pure, so cases may run in any order."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}")
    return STATEMENTS[statement].check(*case)


class SweepSummary(NamedTuple):
    statement: str
    total: int
    passed: int
    failed: int
    failures: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


def _run_case_json(statement: str, case: tuple[int, ...]) -> dict:
    return run_case(statement, case).to_json()


class Statement(NamedTuple):
    """Everything a sweep knows about one statement.

    `check` reports one case and is the oracle.  `axes` names the grid
    bounds the statement reads, one letter per `SweepConfig.max_*` field.
    `keys` lists a grid's shard keys in grid order, smallest shard first.
    `failures(config, key)` decides every case of one shard from one table
    and returns the shard's case count and its failing cases, in grid order.
    Case tuples sort in grid order: each starts with its shard key, and a
    shard's cases run in lexicographic order (interp's one shard is every
    (h, k) by h, then k).  So `sweep` sorts the failing cases of all shards
    to put them back in grid order, whichever seat ran which shard.
    """

    check: Callable[..., CongruenceReport]
    axes: str
    keys: Callable[[SweepConfig], list[int]]
    failures: Callable[[SweepConfig, int], tuple[int, list[tuple[int, ...]]]]


def _moduli(config: SweepConfig) -> list[int]:
    return list(range(1, config.max_n + 1))


def _primes(config: SweepConfig) -> list[int]:
    return [p for p in range(2, config.max_n + 1) if is_prime(p)]


def _thm2_failures(config: SweepConfig, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """Cases (n, h, k) over h, then k; lhs - rhs is pos - neg, with P(h,k) on the side its sign puts it.

    D(h+n,k) + D(h,k+n) + D(h,k) <= D(h+n,k+n), so 2 D(max_h+n, max_k+n)
    bounds every slot of either side.
    """
    bits, divides = phi_test(n, 2 * delannoy(config.max_h + n, config.max_k + n))
    t = delannoy_table(n, bits, config.max_h + n + 1, config.max_k + n + 1)
    sign = _thm2_sign(n)
    failing = []
    for h in range(config.max_h + 1):
        low, high = t[h], t[h + n]
        for k in range(config.max_k + 1):
            pos, neg = high[k + n], high[k] + low[k + n]
            if sign > 0:
                neg += low[k]
            else:
                pos += low[k]
            if not divides(pos, neg):
                failing.append((n, h, k))
    return (config.max_h + 1) * (config.max_k + 1), failing


def _split_failures(
    config: SweepConfig,
    m: int,
    table: Callable[..., list[list[int]]],
    factor: Callable[[int, int], int],
    mod: int | None = None,
    peak: Callable[[int, int], int] | None = None,
) -> tuple[int, list[tuple[int, ...]]]:
    """Cases (m, a, b, c, d) over a, b, c, d: count(am+b, cm+d) vs factor(a,c)*count(b,d); factor(a,c) >= 0.

    The table is in Z[q]/(q^m - 1) and decided by `phi_test`.  `peak(h, k)`
    bounds every slot of every table entry at or below (h, k), so with the
    largest factor it bounds every slot of either side.  With `mod` set the
    table is at q = 1, reduced mod `mod`, and a case passes when its two
    sides agree mod `mod`.
    """
    rows, cols = (config.max_a + 1) * m, (config.max_c + 1) * m
    f = [[factor(a, c) for c in range(config.max_c + 1)] for a in range(config.max_a + 1)]
    if mod:
        t = table(1, 0, rows, cols, mod)

        def divides(pos: int, neg: int) -> bool:
            return (pos - neg) % mod == 0

    else:
        bits, divides = phi_test(m, max(peak(rows - 1, cols - 1), max(map(max, f)) * peak(m - 1, m - 1)))
        t = table(m, bits, rows, cols)
    failing = [
        (m, a, b, c, d)
        for a in range(config.max_a + 1)
        for b in range(m)
        for c in range(config.max_c + 1)
        for d in range(m)
        if not divides(t[a * m + b][c * m + d], f[a][c] * t[b][d])
    ]
    return rows * cols, failing


def _binomial_peak(h: int, k: int) -> int:
    """The largest C(i,j) with i <= h and j <= k, which bounds every slot of [i,j]."""
    return comb(h, min(k, h // 2))


def _thm1_failures(config: SweepConfig, n: int) -> tuple[int, list[tuple[int, ...]]]:
    return _split_failures(config, n, delannoy_table, _thm1_factor(n), peak=delannoy)


def _qlucas_failures(config: SweepConfig, n: int) -> tuple[int, list[tuple[int, ...]]]:
    return _split_failures(config, n, binomial_table, comb, peak=_binomial_peak)


def _lucas_failures(config: SweepConfig, p: int) -> tuple[int, list[tuple[int, ...]]]:
    return _split_failures(config, p, binomial_table, comb, p)


def _dlucas_failures(config: SweepConfig, p: int) -> tuple[int, list[tuple[int, ...]]]:
    return _split_failures(config, p, delannoy_table, delannoy, p)


def _interp_failures(config: SweepConfig, _: int) -> tuple[int, list[tuple[int, ...]]]:
    """Cases (h, k) over h, then k: the path counts by sigma must be the coefficients of P(h,k) exactly."""
    counts = sigma_counts(config.max_h, config.max_k)
    cells = ((h, k, c) for h, row in enumerate(counts) for k, c in enumerate(row))
    failing = [(h, k) for h, k, c in cells if c != q_delannoy_rec(h, k)]
    return (config.max_h + 1) * (config.max_k + 1), failing


STATEMENTS: dict[str, Statement] = {
    "lucas": Statement(verify_lucas, "nac", _primes, _lucas_failures),
    "dlucas": Statement(verify_delannoy_lucas, "nac", _primes, _dlucas_failures),
    "qlucas": Statement(verify_q_lucas, "nac", _moduli, _qlucas_failures),
    "thm1": Statement(verify_theorem1, "nac", _moduli, _thm1_failures),
    "thm2": Statement(verify_theorem2, "nhk", _moduli, _thm2_failures),
    "interp": Statement(_interp_report, "hk", lambda config: [0], _interp_failures),  # one shard: the whole box
}


def _failure_report(statement: str, case: tuple[int, ...]) -> dict:
    """The oracle's report of a case its engine failed; it must fail too."""
    report = _run_case_json(statement, case)
    if report["pass"]:
        raise RuntimeError(f"{statement} case {case} fails in its engine but passes the oracle check")
    return report


def _forked(config: SweepConfig, keys: list[int], seats: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The engine's (count, failing) result for every key, from `seats` processes, this one seat 0.

    Seat w runs keys[w::seats], and the results come back seat by seat.
    This process forks seats 1 to seats - 1, runs its own share, then reads
    the others' pipes and reaps them.  A forked seat writes its results to
    its pipe as one `marshal` list, which is enough for ints, tuples and
    lists.  It always leaves through `os._exit`, so it never flushes the
    stdio buffers it inherited or runs exit handlers: with status 0 once
    its results are written, and with status 1, writing nothing, if a shard
    raised.  Shards are pure, so this process re-runs the share of a seat
    that exited 1, and a shard's error propagates with its own type and
    traceback, as from seat 0; only if the re-run passes does it raise
    RuntimeError naming the seat.  Any other status raises RuntimeError
    with no re-run.  Every child is reaped before this returns or raises.
    """
    failures = STATEMENTS[config.statement].failures
    pids: list[int] = []  # forked and not yet reaped
    pipes = []  # each forked seat's pipe as a (read, write) pair of files
    try:
        for w in range(1, seats):
            read_end, write_end = os.pipe()
            reader, writer = open(read_end, "rb"), open(write_end, "wb")
            pipes.append((reader, writer))
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with writer:
                        writer.write(marshal.dumps([failures(config, key) for key in keys[w::seats]]))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            writer.close()  # a later seat must not inherit it, or this pipe never reaches EOF
        shards = [failures(config, key) for key in keys[::seats]]
        outputs = [reader.read() for reader, _ in pipes]
        codes = []
        while pids:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            codes.append(os.waitstatus_to_exitcode(status))
    finally:
        for reader, writer in pipes:
            reader.close()
            writer.close()
        for pid in pids:
            from signal import SIGKILL  # only a sweep that failed in this process gets here

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    for w, (data, code) in enumerate(zip(outputs, codes), 1):
        if code == 1:
            for key in keys[w::seats]:
                failures(config, key)
            raise RuntimeError(f"{config.statement} sweep worker {w} raised, but its shards pass in this process")
        if code:
            raise RuntimeError(f"{config.statement} sweep worker {w} exited with status {code}")
        shards += marshal.loads(data)
    return shards


def sweep(config: SweepConfig) -> SweepSummary:
    """Run every case of the grid; the summary is scheduling-independent.

    The shards go to `jobs` processes, this one and `jobs` - 1 forked ones
    (see `_forked`), never more than there are shards; where `os.fork` does
    not exist they all run in this process.  Forking is safe because the
    package starts no thread; a caller that runs threads of its own should
    sweep at `jobs=1`, which forks nothing.  Shards are dealt out largest
    first, so the longest shard does not start last, and seats return only
    the failing cases.  Sorting those puts them back in grid order (see
    `Statement`), and each is re-run through `run_case` to build its report.
    """
    keys = STATEMENTS[config.statement].keys(config)[::-1]
    seats = max(1, min(config.jobs, len(keys))) if hasattr(os, "fork") else 1
    shards = _forked(config, keys, seats)
    failing = sorted(case for _, cases in shards for case in cases)
    failures = tuple(_failure_report(config.statement, case) for case in failing)
    total = sum(count for count, _ in shards)
    return SweepSummary(config.statement, total, total - len(failures), len(failures), failures)
