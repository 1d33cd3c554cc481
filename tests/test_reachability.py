"""Every function in the package runs for some CLI request, or is named here.

The corpus runs `cli.main` in this process under `sys.setprofile`: every
leaf of the command registry with small arguments, each as text and as
`--json`, the `def` and `alt` routes of `compute qdelannoy`, and one sweep
on forked workers.  A function defined in the package that no request
calls and that `ALLOWED` does not name fails the test: delete it, or add a
request that reaches it.  A name in `ALLOWED` that a request does reach, or
that no longer exists, fails too, so the list stays short.  Stdlib only.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import qdelannoy
import qdelannoy.cyclotomic as cyclotomic_module
from qdelannoy.cli import COMMANDS, main

PACKAGE = Path(qdelannoy.__file__).parent

# Small values for every flag a leaf takes; a sweep bound of 3 reaches the
# modulus n = 3 and the prime p = 3.
ARGS = {"--h": "2", "--k": "2", "--n": "3", "--route": "rec", "--jobs": "1"}
ARGS.update({f"--max-{axis}": "3" for axis in "nhkac"})

_ORACLE = "the oracle a sweep runs only on a case its engine fails"
_VIOLATION = "runs only when the audit finds a violation"
_RING = "IntPoly ring API, used by the tests and the reference routes"
_RECORD = "record API: `_replace` and callers of `_make` validate through it"
_DECOMPOSE = "`decompose`, a traced span name the reference tests compare against"

# (module, qualified name) -> why no request calls it.
ALLOWED = {
    ("cli", "run"): "the process entry: it calls `sys.exit(main())`, so the corpus calls `main`",
    ("congruence", "CongruenceReport.passed"): _ORACLE,
    ("congruence", "CongruenceReport.to_json"): _ORACLE,
    ("congruence", "_check_split"): _ORACLE,
    ("congruence", "_failure_report"): _ORACLE,
    ("congruence", "_interp_report"): _ORACLE,
    ("congruence", "_run_case_json"): _ORACLE + "; also a traced span name",
    ("congruence", "_split_report"): _ORACLE,
    ("congruence", "run_case"): _ORACLE + "; also a traced span name",
    ("congruence", "verify_delannoy_lucas"): _ORACLE,
    ("congruence", "verify_lucas"): _ORACLE,
    ("congruence", "verify_q_lucas"): _ORACLE,
    ("congruence", "verify_theorem1"): _ORACLE,
    ("congruence", "verify_theorem2"): _ORACLE,
    ("congruence", "SweepConfig._make"): _RECORD,
    ("orbits", "CornerFrame._make"): _RECORD,
    ("orbits", "CornerFrame.target"): _DECOMPOSE,
    ("orbits", "Decomposition.tail"): _DECOMPOSE,
    ("orbits", "decompose"): _DECOMPOSE,
    ("orbits", "audit.<locals>.at"): _VIOLATION,
    ("orbits", "audit.<locals>.violate"): _VIOLATION,
    ("paths", "path_text"): _VIOLATION,
    ("polyring", "IntPoly.__hash__"): _RING,
    ("polyring", "IntPoly.__repr__"): _RING,
    ("qcore", "neg_q_pochhammer"): "a traced span name; the reference's alt route multiplies with it",
}


def _corpus():
    for command, (_, _, leaves, _) in COMMANDS.items():
        for leaf, (_, flags, _) in leaves().items():
            argv = [command, leaf, *(word for flag, _ in flags for word in (flag, ARGS[flag]))]
            yield argv
            yield [*argv, "--json"]
    for route in ("def", "alt"):
        yield ["compute", "qdelannoy", "--route", route, "--h", "2", "--k", "2"]
    yield ["verify", "thm2", "--max-n", "3", "--max-h", "3", "--max-k", "3", "--jobs", "2"]


def _defined():
    """(module, qualified name) -> the line its code starts on, for every def in the package.

    A decorated function's code starts on its first decorator's line.
    """
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[module, prefix + child.name] = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for source in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), source.stem, "")
    return found


def _called():
    """(module, first line) of every package function the corpus called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = Path(code.co_filename)
            if path.parent == PACKAGE:
                called.add((path.stem, code.co_firstlineno))

    for argv in _corpus():
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                status = main(argv)
            finally:
                sys.setprofile(None)
        assert status == 0, argv
    return called


def test_every_function_runs_or_is_allowed(monkeypatch):
    # The package's one memo starts as at import, so what an earlier test
    # left in it skips no code here.
    monkeypatch.setattr(cyclotomic_module, "_PHI", {1: cyclotomic_module._PHI[1]})
    called = _called()
    unreached = {key for key, line in _defined().items() if (key[0], line) not in called}
    assert sorted(unreached - ALLOWED.keys()) == [], "no request runs these; delete them or reach them"
    assert sorted(ALLOWED.keys() - unreached) == [], "ALLOWED names these, but they run or do not exist"
