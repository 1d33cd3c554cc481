"""Check that the tests kill a table of hand-written mutants of the package.

Each row names a source file under `src/qdelannoy`, an exact snippet that
must occur in it once, the snippet's replacement, and the test nodes that
must fail once the replacement is made.  For each row the script copies
`src/` to a temporary directory, applies the mutant there, and runs each
node under `pytest -x` with the copy first on `PYTHONPATH`; the tests
import whatever `qdelannoy` that finds.  A node kills the mutant when
pytest reports failed tests (exit status 1); a collection or usage error
does not count.  The checkout itself is never edited.

Run it from anywhere as `python tools/mutants.py`; it needs only the
stdlib and the pytest the tests use.  It exits 1 when a snippet is
missing or occurs more than once, or when a mutant survives one of its
nodes, and 0 when every row is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/qdelannoy
    snippet: str
    replacement: str
    nodes: tuple[str, ...]  # each must fail on its own


MUTANTS = [
    # The Q4 action's predicted sigma shift with its class test inverted.
    Mutant(
        "q4-shift",
        "orbits.py",
        "shift = segment.count(D) - n * (label == D)",
        "shift = segment.count(D) - n * (label != D)",
        ("tests/test_orbits.py",),
    ),
    # The audit decides each segment orbit's Phi_n test once; a copy that
    # marks every orbit sum as vanishing must fail.
    Mutant(
        "orbit-sum-vanishes",
        "orbits.py",
        "elif not _orbit_sum_vanishes(",
        "elif False and _orbit_sum_vanishes(",
        ("tests/test_orbits.py::test_audit_reports_orbit_sum_that_does_not_vanish",),
    ),
    # `paths.walk` is the one E -> N -> D path stream: the audit's segments
    # and every enumerated path come from it.  Its D step adds x, not x + 1.
    Mutant(
        "walk-d-step-sigma",
        "paths.py",
        "(path + (D,), x + 1, y + 1, s + x + 1)",
        "(path + (D,), x + 1, y + 1, s + x)",
        ("tests/test_paths.py", "tests/test_orbits.py::test_audit_matches_the_per_path_reference"),
    ),
    # The straight run on the last column or row adds x per N step; here it
    # adds x + 1.  Writing h for x there is an equivalent mutant for targets
    # in the first quadrant (a run with N steps starts on column h), so it
    # has no row.
    Mutant(
        "walk-straight-run-sigma",
        "paths.py",
        "s + x * (k - y)",
        "s + x * (k - y) + (k - y)",
        ("tests/test_paths.py",),
    ),
    # The corner step's sign on P(h,k), + for every n: thm2 fails at even n.
    Mutant(
        "thm2-sign",
        "congruence.py",
        "return 1 if n % 2 else -1",
        "return 1",
        ("tests/test_congruence.py",),
    ),
    # The rec route's update without its diagonal term P(i-1,j-1).
    Mutant(
        "rec-diagonal-term",
        "qdelannoy.py",
        "(row[j] + diag) << (j * bits)",
        "row[j] << (j * bits)",
        ("tests/test_qdelannoy.py",),
    ),
    # A band path moved right to column c adds c to sigma at each step that
    # raises y; here each band sweep term shifts one more slot.
    # `paths.sigma_counts` counts both interp's cells and the orbit audit's
    # heads, so the copy must fail the tests of each.
    Mutant(
        "band-concatenation-shift",
        "paths.py",
        "<< (c * (k - y) * bits)",
        "<< ((c * (k - y) + 1) * bits)",
        ("tests/test_congruence.py", "tests/test_orbits.py"),
    ),
    # A forked sweep seat's results are read and dropped, so a --jobs sweep
    # loses the case counts and failing cases of every seat but the first.
    Mutant(
        "forked-seat-results-dropped",
        "congruence.py",
        "shards += marshal.loads(data)",
        "marshal.loads(data)",
        ("tests/test_congruence.py",),
    ),
    # The trie walk behind `sigma_counts` with its D step adding x, not
    # x + 1.  interp's sweep compares its counts with the rec route.
    Mutant(
        "trie-d-step-sigma",
        "paths.py",
        "stack.append((x + 1, y + 1, s + x + 1))",
        "stack.append((x + 1, y + 1, s + x))",
        ("tests/test_congruence.py",),
    ),
    # The exact division by 2**s - 1 without its multiply-back check: an
    # inexact value or an undersized bound returns a wrong quotient.
    Mutant(
        "exact-division-unchecked",
        "qcore.py",
        "if (quotient << s) - quotient != value:",
        "if False:",
        (
            "tests/test_qcore.py::test_over_q_power_minus_one_raises_for_inexact_value",
            "tests/test_qcore.py::test_over_q_power_minus_one_raises_for_undersized_bound",
        ),
    ),
    # def's first quotient, T_(j+1) (q^(h+k-j) - 1), bounded as if it were a
    # term: the division's check raises on most cells.
    Mutant(
        "def-first-quotient-bound-short",
        "qdelannoy.py",
        "(h * k + 1 + h + k) * bits",
        "(h * k + 1) * bits",
        ("tests/test_qdelannoy.py",),
    ),
    # alt's shift from q^((h-j)(k-j)) to q^((h-j-1)(k-j-1)) one slot too far.
    Mutant(
        "alt-shift-off-by-one",
        "qdelannoy.py",
        "term >>= (h + k - 2 * j - 1) * bits",
        "term >>= (h + k - 2 * j) * bits",
        ("tests/test_qdelannoy.py",),
    ),
    # Packed slots half as wide as the sum bound needs, at every packed site:
    # the routes and q_binomial raise from their read-back's sum check.
    Mutant(
        "slots-half-width",
        "polyring.py",
        "return 8 * ((bound.bit_length() + 7) // 8)",
        "return 8 * max(1, (bound.bit_length() + 7) // 16)",
        ("tests/test_qcore.py", "tests/test_qdelannoy.py"),
    ),
    # The read-back's sum check dropped: an overflowed slot reads back as a
    # wrong polynomial.
    Mutant(
        "read-back-unchecked",
        "polyring.py",
        "if total is not None and sum(poly.coeffs) != total:",
        "if False:",
        (
            "tests/test_polyring.py::test_from_packed_checks_the_coefficient_sum",
            "tests/test_qcore.py::test_packed_read_back_is_checked_at_every_call_site",
        ),
    ),
    # thm2's window one row short, so that low is row h + 1, not row h.
    Mutant(
        "thm2-window-one-row-short",
        "congruence.py",
        "maxlen=n + 1",
        "maxlen=n",
        ("tests/test_congruence.py",),
    ),
    # The split engine keeping one low row too few, rows b < m - 1: every
    # later row then lands one place early, and low[m - 1] is missing.
    Mutant(
        "split-low-rows-one-short",
        "congruence.py",
        "low = list(islice(t, m))",
        "low = list(islice(t, m - 1))",
        ("tests/test_congruence.py",),
    ),
    # `SweepConfig` letting a bound of -1 through.
    Mutant(
        "sweep-bound-check",
        "congruence.py",
        "if value < 0:",
        "if value < -1:",
        ("tests/test_records.py",),
    ),
    # The split engine dropping the last case of each row, d = m - 1.
    Mutant(
        "split-last-case-dropped",
        "congruence.py",
        "for d in range(m)",
        "for d in range(m - 1)",
        ("tests/test_congruence.py",),
    ),
    # Packed slots one byte short whenever the bound's bit length is 8w + 1,
    # so a coefficient at the bound carries into the next slot.  The slot
    # width's byte boundaries catch it, and so do the sweeps' residue tables;
    # no route result in the tests has a coefficient near its sum bound.
    Mutant(
        "slot-bytes-short",
        "polyring.py",
        "(bound.bit_length() + 7) // 8",
        "max(1, (bound.bit_length() + 6) // 8)",
        ("tests/test_polyring.py::test_slot_bits_boundaries", "tests/test_congruence.py"),
    ),
    # The audit's heads: an east-arm point's heads keep the paths through
    # the corner.
    Mutant(
        "heads-east-arm-keeps-corner",
        "orbits.py",
        "box[h + i][k] - corner for i",
        "box[h + i][k] for i",
        ("tests/test_orbits.py::test_heads_and_segments_match_reference",),
    ),
    # A north-arm point's paths through the corner go on by i N steps at
    # x = h, which add h * i to sigma; here they add nothing ...
    Mutant(
        "heads-north-arm-unshifted",
        "orbits.py",
        "corner.shift(h * i)",
        "corner",
        ("tests/test_orbits.py::test_heads_and_segments_match_reference",),
    ),
    # ... and here one too many.
    Mutant(
        "heads-north-arm-shift-off-by-one",
        "orbits.py",
        "corner.shift(h * i)",
        "corner.shift(h * i + 1)",
        ("tests/test_orbits.py::test_heads_and_segments_match_reference",),
    ),
    # `cli` binding a library name, not its module, so every request runs
    # `congruence` at import, a compute request included.
    Mutant(
        "cli-loads-congruence-at-import",
        "cli.py",
        "from . import congruence, cyclotomic, orbits, paths, polyring, qcore, qdelannoy\n",
        "from . import congruence, cyclotomic, orbits, paths, polyring, qcore, qdelannoy\n"
        "from .congruence import STATEMENTS\n",
        ("tests/test_cli.py::test_a_request_runs_only_the_modules_it_uses",),
    ),
    # `congruence` binding interp's name, not its module, so a passing thm2
    # or Lucas sweep runs `paths` too.
    Mutant(
        "congruence-loads-paths-at-import",
        "congruence.py",
        "from . import cyclotomic, paths\n",
        "from . import cyclotomic, paths\nfrom .paths import sigma_counts\n",
        ("tests/test_cli.py::test_a_request_runs_only_the_modules_it_uses",),
    ),
    # The CLI's one --h/--k check letting -1 through.
    Mutant(
        "cli-negative-hk",
        "cli.py",
        'min(params["h"], params["k"]) < 0',
        'min(params["h"], params["k"]) < -1',
        ("tests/test_cli.py",),
    ),
]


def run(mutant: Mutant, scratch: Path) -> list[str]:
    """The problems with one row: a missing snippet, or each node the mutant survives."""
    src = scratch / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "qdelannoy" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return [f"snippet occurs {text.count(mutant.snippet)} times in {mutant.path}, not once: {mutant.snippet!r}"]
    target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    problems = []
    for node in mutant.nodes:
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", node]
        result = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if result.returncode != 1:
            tail = result.stdout.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"survives {node} (pytest exit {result.returncode}: {' '.join(tail)})")
    return problems


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qdelannoy-mutants-") as scratch:
        for mutant in MUTANTS:
            start = time.perf_counter()
            problems = run(mutant, Path(scratch))
            verdict = "killed" if not problems else "FAILED"
            print(f"{verdict:6}  {mutant.name}  ({time.perf_counter() - start:.1f} s)")
            for problem in problems:
                print(f"        {problem}")
            failed += bool(problems)
    print(f"{len(MUTANTS) - failed} killed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
