"""Direct verification of the headline congruences, plus grid sweeps.

The two theorem checks reduce exact polynomial differences modulo Phi_n and
never touch the orbit machinery, so they corroborate it independently.  The
q-Lucas check does the same for Gaussian binomials, and the integer Lucas
and Delannoy-Lucas checks reduce mod a prime p.  Every check returns a
report that carries both sides and the reduced residue, not just a boolean,
so a failure localizes the discrepancy.

`STATEMENTS` holds one `Statement` entry per sweepable statement: its
check, the grid bounds (axes) it reads, how its grid splits into shards,
and an optional residue builder.  `SweepConfig`, `run_case`, `sweep` and
the CLI read the entry and never branch on the statement's name.

Sweeps of thm2, thm1 and qlucas do not build full polynomials.  Phi_n
divides q^n - 1, so each case is decided in Z[q]/(q^n - 1) (see `residue`):
one table per modulus n answers every case of that n, and the residue of
lhs - rhs is then reduced exactly mod Phi_n.  Only a case that fails there
is re-run through the full-polynomial `run_case`, which builds its report;
`run_case` stays the independent oracle, and a case it passes raises
RuntimeError.  Statements with no residue builder (lucas, dlucas, interp)
run `run_case` for every case.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb

from .cyclotomic import reduce_mod
from .polyring import IntPoly
from .qcore import delannoy, is_prime, q_binomial
from .qdelannoy import q_delannoy_rec
from .paths import sigma_poly
from .residue import binomial_table, delannoy_table


@dataclass(frozen=True)
class CongruenceReport:
    """One verified instance of a statement, with the reduced residue."""

    tag: str
    params: dict
    lhs: IntPoly
    rhs: IntPoly
    residue: IntPoly
    passed: bool

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "params": dict(sorted(self.params.items())),
            "lhs": self.lhs.to_json_coeffs(),
            "rhs": self.rhs.to_json_coeffs(),
            "residue": self.residue.to_json_coeffs(),
            "pass": self.passed,
        }


def _report(tag: str, params: dict, lhs: IntPoly, rhs: IntPoly, n: int | None) -> CongruenceReport:
    residue = reduce_mod(lhs - rhs, n) if n is not None else lhs - rhs
    return CongruenceReport(tag, params, lhs, rhs, residue, residue.is_zero())


def _check_remainders(modulus: int, b: int, d: int) -> None:
    if not 0 <= b <= modulus - 1 or not 0 <= d <= modulus - 1:
        raise ValueError(f"remainder parts must lie in [0, {modulus - 1}], got b={b} d={d}")


def verify_theorem2(n: int, h: int, k: int) -> CongruenceReport:
    """Corner-step congruence: P(h+n,k+n) vs P(h+n,k) + P(h,k+n) +/- P(h,k) mod Phi_n.

    The sign on the last term is + for odd n and - for even n.
    """
    if n < 1:
        raise ValueError(f"modulus index must be positive, got {n}")
    if h < 0 or k < 0:
        raise ValueError("corner coordinates must be nonnegative")
    sign = 1 if n % 2 else -1
    lhs = q_delannoy_rec(h + n, k + n)
    rhs = q_delannoy_rec(h + n, k) + q_delannoy_rec(h, k + n) + q_delannoy_rec(h, k) * sign
    tag = "thm2-odd" if n % 2 else "thm2-even"
    return _report(tag, {"n": n, "h": h, "k": k}, lhs, rhs, n)


def verify_theorem1(n: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Split congruence: P(an+b, cn+d) vs D(a,c)*P(b,d) mod Phi_n.

    For even n the integer factor D(a,c) drops out and the right side is
    P(b,d) alone.
    """
    if n < 1:
        raise ValueError(f"modulus index must be positive, got {n}")
    if a < 0 or c < 0:
        raise ValueError("quotient parts must be nonnegative")
    _check_remainders(n, b, d)
    lhs = q_delannoy_rec(a * n + b, c * n + d)
    if n % 2:
        rhs = q_delannoy_rec(b, d) * delannoy(a, c)
        tag = "thm1-odd"
    else:
        rhs = q_delannoy_rec(b, d)
        tag = "thm1-even"
    return _report(tag, {"n": n, "a": a, "b": b, "c": c, "d": d}, lhs, rhs, n)


def induction_consistency(n: int, a: int, b: int, c: int, d: int) -> bool:
    """Check one inductive layer deriving the split congruence from the corner one.

    Reduces P((a+1)n+b, (c+1)n+d) through the corner-step congruence at
    (an+b, cn+d), then confirms the telescoped right side: for odd n the
    three-term Delannoy recurrence assembles D(a+1,c+1), for even n the
    signs collapse to a single P(b,d).
    """
    _check_remainders(n, b, d)
    sign = 1 if n % 2 else -1
    lhs = q_delannoy_rec((a + 1) * n + b, (c + 1) * n + d)
    via_corner = (
        q_delannoy_rec((a + 1) * n + b, c * n + d)
        + q_delannoy_rec(a * n + b, (c + 1) * n + d)
        + q_delannoy_rec(a * n + b, c * n + d) * sign
    )
    if n % 2:
        target = q_delannoy_rec(b, d) * delannoy(a + 1, c + 1)
    else:
        target = q_delannoy_rec(b, d)
    step_ok = reduce_mod(lhs - via_corner, n).is_zero()
    telescoped_ok = reduce_mod(via_corner - target, n).is_zero()
    return step_ok and telescoped_ok


def verify_q_lucas(n: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """q-Lucas: [an+b, cn+d]_q vs C(a,c)*[b,d]_q mod Phi_n."""
    if n < 1:
        raise ValueError(f"modulus index must be positive, got {n}")
    _check_remainders(n, b, d)
    lhs = q_binomial(a * n + b, c * n + d)
    rhs = q_binomial(b, d) * comb(a, c)
    return _report("q-lucas", {"n": n, "a": a, "b": b, "c": c, "d": d}, lhs, rhs, n)


def _lucas_report(tag: str, count: Callable[[int, int], int], p: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """count(ap+b, cp+d) vs count(a,c)*count(b,d) mod the prime p, as constant polynomials."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    _check_remainders(p, b, d)
    lhs = count(a * p + b, c * p + d)
    rhs = count(a, c) * count(b, d)
    residue = IntPoly.const((lhs - rhs) % p)
    return CongruenceReport(
        tag,
        {"p": p, "a": a, "b": b, "c": c, "d": d},
        IntPoly.const(lhs),
        IntPoly.const(rhs),
        residue,
        residue.is_zero(),
    )


def verify_lucas(p: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Lucas: C(ap+b, cp+d) vs C(a,c)*C(b,d) mod p."""
    return _lucas_report("lucas", comb, p, a, b, c, d)


def verify_delannoy_lucas(p: int, a: int, b: int, c: int, d: int) -> CongruenceReport:
    """Delannoy-Lucas: D(ap+b, cp+d) vs D(a,c)*D(b,d) mod p."""
    return _lucas_report("delannoy-lucas", delannoy, p, a, b, c, d)


def _interp_report(h: int, k: int) -> CongruenceReport:
    lhs = sigma_poly(h, k)
    rhs = q_delannoy_rec(h, k)
    return _report("interp", {"h": h, "k": k}, lhs, rhs, None)


@dataclass(frozen=True)
class SweepConfig:
    """Finite parameter grid for one statement.

    max_n bounds the modulus index (for lucas/dlucas: the primes tried);
    remainder parts b, d always range over the full [0, n-1].  A statement
    reads only the bounds on its registry axes, and any other bound must
    stay 0.  The grid is split into shards: one per modulus, or one per row
    h for interp.
    """

    statement: str
    max_n: int = 0
    max_a: int = 0
    max_c: int = 0
    max_h: int = 0
    max_k: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        entry = STATEMENTS.get(self.statement)
        if entry is None:
            raise ValueError(f"unknown statement {self.statement!r}; expected one of {tuple(STATEMENTS)}")
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

    def shards(self) -> list[int]:
        """Shard keys in grid order: the modulus n (prime p), or the row h for interp."""
        return STATEMENTS[self.statement].keys(self)

    def shard_cases(self, key: int) -> list[tuple[int, ...]]:
        """The cases of one shard, in grid order."""
        return STATEMENTS[self.statement].cases(self, key)


def run_case(statement: str, case: tuple[int, ...]) -> CongruenceReport:
    """Evaluate one grid case; pure, so cases may run in any order."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}")
    return STATEMENTS[statement].check(*case)


@dataclass(frozen=True)
class SweepSummary:
    statement: str
    total: int
    passed: int
    failed: int
    failures: tuple[dict, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


def _run_case_json(args: tuple[str, tuple[int, ...]]) -> dict:
    return run_case(*args).to_json()


Residue = Callable[[tuple[int, ...]], list[int]]


@dataclass(frozen=True)
class Statement:
    """Everything a sweep knows about one statement.

    `check` reports one case from full polynomials and is the oracle.
    `axes` names the grid bounds the statement reads, one letter per
    `SweepConfig.max_*` field.  `keys` lists a grid's shard keys in order
    and `cases` the cases of one shard.  `residue`, when set, builds from
    one table per modulus n the residue of lhs - rhs in Z[q]/(q^n - 1) for
    every case of that n; without it each case runs through `check`.
    """

    check: Callable[..., CongruenceReport]
    axes: str
    keys: Callable[[SweepConfig], list[int]]
    cases: Callable[[SweepConfig, int], list[tuple[int, ...]]]
    residue: Callable[[SweepConfig, int], Residue] | None = None


def _moduli(config: SweepConfig) -> list[int]:
    return list(range(1, config.max_n + 1))


def _primes(config: SweepConfig) -> list[int]:
    return [p for p in range(2, config.max_n + 1) if is_prime(p)]


def _rows(config: SweepConfig) -> list[int]:
    return list(range(config.max_h + 1))


def _split_cases(config: SweepConfig, n: int) -> list[tuple[int, ...]]:
    return [
        (n, a, b, c, d)
        for a in range(config.max_a + 1)
        for b in range(n)
        for c in range(config.max_c + 1)
        for d in range(n)
    ]


def _corner_cases(config: SweepConfig, n: int) -> list[tuple[int, ...]]:
    return [(n, h, k) for h in range(config.max_h + 1) for k in range(config.max_k + 1)]


def _row_cases(config: SweepConfig, h: int) -> list[tuple[int, ...]]:
    return [(h, k) for k in range(config.max_k + 1)]


def _thm2_residue(config: SweepConfig, n: int) -> Residue:
    t = delannoy_table(n, config.max_h + n + 1, config.max_k + n + 1)
    sign = 1 if n % 2 else -1

    def residue(case: tuple[int, ...]) -> list[int]:
        _, h, k = case
        return [w - x - y - sign * z for w, x, y, z in zip(t[h + n][k + n], t[h + n][k], t[h][k + n], t[h][k])]

    return residue


def _split_residue(
    config: SweepConfig, n: int, table: Callable[[int, int, int], list[list[list[int]]]], factor: Callable[[int, int], int]
) -> Residue:
    t = table(n, (config.max_a + 1) * n, (config.max_c + 1) * n)

    def residue(case: tuple[int, ...]) -> list[int]:
        _, a, b, c, d = case
        f = factor(a, c)
        return [x - f * y for x, y in zip(t[a * n + b][c * n + d], t[b][d])]

    return residue


def _thm1_residue(config: SweepConfig, n: int) -> Residue:
    return _split_residue(config, n, delannoy_table, delannoy if n % 2 else lambda a, c: 1)


def _qlucas_residue(config: SweepConfig, n: int) -> Residue:
    return _split_residue(config, n, binomial_table, comb)


STATEMENTS: dict[str, Statement] = {
    "lucas": Statement(verify_lucas, "nac", _primes, _split_cases),
    "dlucas": Statement(verify_delannoy_lucas, "nac", _primes, _split_cases),
    "qlucas": Statement(verify_q_lucas, "nac", _moduli, _split_cases, _qlucas_residue),
    "thm1": Statement(verify_theorem1, "nac", _moduli, _split_cases, _thm1_residue),
    "thm2": Statement(verify_theorem2, "nhk", _moduli, _corner_cases, _thm2_residue),
    "interp": Statement(_interp_report, "hk", _rows, _row_cases),
}


def _shard_failures(task: tuple[SweepConfig, int]) -> tuple[int, list[tuple[int, ...]]]:
    """The case count and failing cases of one shard; pure, so shards may run in any order or process."""
    config, key = task
    cases = config.shard_cases(key)
    build = STATEMENTS[config.statement].residue
    if build is None:
        return len(cases), [case for case in cases if not run_case(config.statement, case).passed]
    residue = build(config, key)
    return len(cases), [case for case in cases if not reduce_mod(IntPoly(residue(case)), key).is_zero()]


def _failure_report(statement: str, case: tuple[int, ...]) -> dict:
    """The oracle's report of a case the residue engine failed; it must fail too."""
    report = _run_case_json((statement, case))
    if report["pass"]:
        raise RuntimeError(f"{statement} case {case} fails mod q^n - 1 but passes as a full polynomial")
    return report


def sweep(config: SweepConfig) -> SweepSummary:
    """Run every case of the grid; the summary is scheduling-independent.

    Workers take whole shards and return only the failing cases, each of
    which is then re-run through `run_case` to build its report.
    """
    tasks = [(config, key) for key in config.shards()]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_shard_failures, tasks))
    else:
        shards = [_shard_failures(task) for task in tasks]
    failures = tuple(_failure_report(config.statement, case) for _, failing in shards for case in failing)
    total = sum(count for count, _ in shards)
    return SweepSummary(
        statement=config.statement,
        total=total,
        passed=total - len(failures),
        failed=len(failures),
        failures=failures,
    )
