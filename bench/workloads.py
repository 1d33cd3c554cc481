"""Seeded request lists for the benchmark workloads.

A request is the argument list of one `python -m qdelannoy ...` process,
the oracle check for its output, and the work it completes.  The seed only
moves parameters inside a narrow band that keeps the amount of work, and so
the run time, about the same; the CLI sees nothing but the arguments.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import oracle


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, bytes], "str | None"]
    work: int
    twin: str | None = None  # requests with the same twin must print identical bytes

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def _argv(*parts: object) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def qdelannoy_request(h: int, k: int, route: str, as_json: bool, twin: str | None = None) -> Request:
    flags = ("--json",) if as_json else ()
    return Request(
        _argv("compute", "qdelannoy", "--route", route, "--h", h, "--k", k, *flags),
        partial(oracle.check_qdelannoy, h=h, k=k, as_json=as_json),
        h * k + 1,
        twin,
    )


def sweep_request(statement: str, jobs: int, work: int | None = None, **grid: int) -> Request:
    """`verify <statement>` on a grid; work defaults to the number of cases."""
    flags = [part for key, val in grid.items() for part in (f"--{key.replace('_', '-')}", val)]
    total = oracle.sweep_cases(statement, **grid)
    return Request(
        _argv("verify", statement, *flags, "--jobs", jobs, "--json"),
        partial(oracle.check_sweep, statement=statement, total=total),
        total if work is None else work,
    )


def audit_request(h: int, k: int, n: int) -> Request:
    return Request(
        _argv("orbits", "audit", "--h", h, "--k", k, "--n", n, "--json"),
        partial(oracle.check_audit, h=h, k=k, n=n),
        oracle.delannoy(h + n, k + n),
    )


def _interp_paths(max_h: int, max_k: int) -> int:
    return sum(oracle.delannoy(h, k) for h in range(max_h + 1) for k in range(max_k + 1))


def compute_routes(rng: random.Random, tiny: bool) -> list[Request]:
    """Full polynomials by every route, with no congruence step.

    One cold fill of the qdelannoy and qcore memo tables in which every
    lookup misses, so memory grows with h*k*degree.  polyring add and shift
    carry rec and qbinom, polyring mul carries def and alt, and cli formats
    about 230 KB of output.  cyclotomic, paths, orbits and congruence stay
    idle.  The seed trades h against k, which keeps h*k (table size and
    degree) within 0.7% of the centre.  Work: output coefficients.
    """
    rec, binom, route = (8, 8, 5) if tiny else (70, 70, 36)
    d_rec, d_binom, d_route = (rng.randint(-3, 3) for _ in range(3))
    h, k = route + d_route, route - d_route
    binom_k = binom + d_binom
    return [
        qdelannoy_request(rec + d_rec, rec - d_rec, "rec", as_json=True),
        Request(
            _argv("compute", "qbinom", "--h", 2 * binom, "--k", binom_k, "--json"),
            partial(oracle.check_qbinom, h=2 * binom, k=binom_k),
            binom_k * (2 * binom - binom_k) + 1,
        ),
        # def and alt print as text, so their outputs can be compared byte for byte.
        qdelannoy_request(h, k, "def", as_json=False, twin="def-alt"),
        qdelannoy_request(h, k, "alt", as_json=False, twin="def-alt"),
    ]


def thm_sweep(rng: random.Random, tiny: bool) -> list[Request]:
    """Many small, overlapping congruence cases.

    polyring.divrem, reached through cyclotomic.reduce_mod, carries thm2,
    and the rec table is reused across cases with many hits: a table change
    that speeds up the cold fill of compute-routes but drops reuse loses
    here.  thm2 at --jobs 1 is the plain single-process baseline; thm1 and
    qlucas at --jobs 2 exercise the congruence process pool, which is why
    cpu_s sits beside wall_s.  There are no poly-by-poly products, so a mul
    kernel change should not move this workload.  The seed trades max_h
    against max_k (case count within 1.4%); the thm1 and qlucas grids stay
    fixed because any step of their bounds changes the case count by 10% or
    more.  Work: verified cases.
    """
    n, d = (3 if tiny else 16), rng.randint(-2, 2)
    thm1 = dict(max_n=3, max_a=1, max_c=1) if tiny else dict(max_n=11, max_a=2, max_c=2)
    qlucas = dict(max_n=3, max_a=1, max_c=1) if tiny else dict(max_n=12, max_a=3, max_c=3)
    return [
        sweep_request("thm2", 1, max_n=n, max_h=n + d, max_k=n - d),
        sweep_request("thm1", 2, **thm1),
        sweep_request("qlucas", 2, **qlucas),
    ]


def orbit_audit(rng: random.Random, tiny: bool) -> list[Request]:
    """The combinatorial proof machinery.

    orbits.decompose, paths.sigma and path enumeration do the work; the
    arithmetic layers are nearly idle, so a polyring, cyclotomic or table
    optimisation should leave this workload unchanged.  Both frames end at
    (7,7), so each audit enumerates D(7,7) = 48639 paths.  The seed picks
    the interp grid 8x6 or 6x8, which transposes every case but keeps the
    63 cases and 112071 paths.  Work: enumerated paths.
    """
    tilt = rng.choice((-1, 1))
    frames = [(0, 0, 2), (1, 0, 1)] if tiny else [(3, 3, 4), (2, 2, 5)]
    side = 2 if tiny else 7
    interp = sweep_request("interp", 1, _interp_paths(side + tilt, side - tilt), max_h=side + tilt, max_k=side - tilt)
    return [*(audit_request(*f) for f in frames), interp]


WORKLOADS: dict[str, Callable[[random.Random, bool], list[Request]]] = {
    "compute-routes": compute_routes,
    "thm-sweep": thm_sweep,
    "orbit-audit": orbit_audit,
}
# What one unit of work_per_s is on each workload.
WORK_UNIT = {"compute-routes": "output coefficient", "thm-sweep": "verified case", "orbit-audit": "enumerated path"}

# Interpreter start, `import qdelannoy` and argparse, which every request pays.
SETUP_PROBE = Request(
    _argv("compute", "delannoy", "--h", 0, "--k", 0), partial(oracle.check_delannoy, h=0, k=0), 1
)

# Traced rounds add these small requests so that every layer records spans on
# every workload; each costs well under a millisecond inside the package.
LAYER_TOUCH = (
    qdelannoy_request(2, 2, "def", as_json=False, twin="touch-def-alt"),
    qdelannoy_request(2, 2, "alt", as_json=False, twin="touch-def-alt"),
    sweep_request("interp", 1, max_h=2, max_k=2),
    sweep_request("thm2", 2, max_n=2, max_h=1, max_k=1),
    audit_request(0, 0, 2),
)


def generate(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """The request list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
