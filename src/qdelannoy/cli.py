"""Command-line entry point: compute / verify / orbits subcommands.

`main` parses argv, looks up its leaf's row in `COMMANDS`, checks --h and
--k once for every leaf that takes them, then calls the leaf and renders
the result with its command's renderer.  A well-formed argv is parsed
straight from `COMMANDS`; argparse is imported, and its parser built, only
for the rest: --help, usage errors and the spellings argparse also takes,
such as abbreviations.  This module binds the library
modules, never their names, and the package binds them lazily: a module's
code runs only when a request first reads one of its attributes.  A call
reads the function it runs from its module when it runs, so a name rebound
there (by a test's monkeypatch or the benchmark's tracer) reaches every
request.

All output is deterministic: byte-identical across runs and across --jobs
settings.  Exit codes: 0 all checks passed, 1 a verification failed, 2
usage error, or out of memory (a size no index holds, too).
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import congruence, cyclotomic, orbits, paths, polyring, qcore, qdelannoy

if TYPE_CHECKING:
    import argparse


def _render_value(value: int | polyring.IntPoly, params: dict, as_json: bool) -> tuple[object, int]:
    if isinstance(value, int):
        return ({**params, "value": str(value)} if as_json else str(value)), 0
    return ({**params, "coeffs": value.to_json_coeffs()} if as_json else value.to_text()), 0


def _render_summary(summary: congruence.SweepSummary, params: dict, as_json: bool) -> tuple[object, int]:
    status = 0 if summary.failed == 0 else 1
    if as_json:
        return summary.to_json(), status
    lines = [f"{summary.statement}: {summary.total} cases, {summary.passed} passed, {summary.failed} failed"]
    for failure in summary.failures:
        case = " ".join(f"{key}={val}" for key, val in sorted(failure["params"].items()))
        lines.append(f"FAIL {failure['tag']} {case} residue={failure['residue']}")
    return "\n".join(lines), status


def _render_report(report: orbits.AuditReport, params: dict, as_json: bool) -> tuple[object, int]:
    status = 0 if report.ok else 1
    if as_json:
        return report.to_json(), status
    lines = [
        f"frame h={report.h} k={report.k} n={report.n}: {report.total_paths} paths",
        "classes: " + " ".join(f"{c}={report.class_counts[c]}" for c in sorted(report.class_counts)),
        "fixed:   " + " ".join(f"{c}={report.fixed_counts[c]}" for c in sorted(report.fixed_counts)),
    ]
    for cls, hist in sorted(report.orbit_histograms.items()):
        if hist:
            lines.append(f"orbit sizes {cls}: " + " ".join(f"{d}:{count}" for d, count in sorted(hist.items())))
    lines.extend(f"{name} = {poly.to_text()}" for name, poly in sorted(report.sums.items()))
    lines.extend([f"VIOLATION {v}" for v in report.violations] or ["violations: none"])
    return "\n".join(lines), status


class _RouteNames:
    """The names of `qdelannoy.ROUTES`, as the choices of --route.

    argparse checks a value with `in` and lists the choices by iterating, so
    the module is read only then, and no compute leaf but qdelannoy loads it.
    """

    def __contains__(self, route: object) -> bool:
        return route in qdelannoy.ROUTES

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(qdelannoy.ROUTES))


_REQUIRED_INT = {"type": int, "required": True}
_HK = (("--h", _REQUIRED_INT), ("--k", _REQUIRED_INT))
# The flags every leaf ends with.
_OUTPUT = (
    ("--json", {"action": "store_true"}),
    ("--out", {"default": None, "help": "write output to a file instead of stdout"}),
)

# command -> (help, dest of its leaf, leaves, renderer), in the order help
# lists them.  `leaves()` returns leaf -> (help or None, flags before _OUTPUT,
# call); only the command argv names calls it, so a request loads only the
# modules its own command's rows read.  A flag is (name, add_argument
# keywords).  A call takes its leaf's flag values by argparse dest, and is a
# lambda so that no row holds a library function itself.  A renderer takes
# (result, those flag values, --json) and returns the output, text or a JSON
# payload, and the exit status.
COMMANDS = {
    "compute": ("print one exact value", "what", lambda: {
        "delannoy": ("classical Delannoy number", _HK, lambda h, k: qcore.delannoy(h, k)),
        "qdelannoy": ("q-Delannoy polynomial",
                      (("--route", {"choices": _RouteNames(), "default": "rec"}), *_HK),
                      lambda route, h, k: qdelannoy.q_delannoy(h, k, route=route)),
        "qbinom": ("Gaussian binomial coefficient", _HK, lambda h, k: qcore.q_binomial(h, k)),
        "cyclotomic": ("cyclotomic polynomial", (("--n", _REQUIRED_INT),), lambda n: cyclotomic.cyclotomic(n)),
        "sigma-poly": ("path-statistic polynomial by enumeration", _HK, lambda h, k: paths.sigma_poly(h, k)),
    }, _render_value),
    "verify": ("sweep a statement over a parameter grid", "statement", lambda: {
        name: (None, (
            *((f"--max-{axis}", {"type": int, "default": 0,
                                 "help": "modulus bound (primes for lucas/dlucas)" if axis == "n" else None})
              for axis in entry.axes),
            ("--jobs", {"type": int, "default": 1}),
            # The default binds this row's name; a closure would see the last one.
        ), lambda statement=name, **bounds: congruence.sweep(congruence.SweepConfig(statement, **bounds)))
        for name, entry in congruence.STATEMENTS.items()
    }, _render_summary),
    "orbits": ("group-action machinery", "action", lambda: {
        "audit": ("exhaustively audit one frame", (*_HK, ("--n", _REQUIRED_INT)),
                  lambda h, k, n: orbits.audit(orbits.CornerFrame(h, k, n))),
    }, _render_report),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# int() reads a string of this many digits or fewer under any limit that
# sys.set_int_max_str_digits can set: a nonzero limit is never lower.
_DIGITS_INT_READS = 640


def _table_parse(argv: list[str]) -> dict | None:
    """`vars(build_parser(argv).parse_args(argv))` for a well-formed argv, else None.

    Well formed: a command, one of its leaves, then each flag of that leaf at
    most once, spelled exactly, every required one included.  A valued flag
    takes the next word, which does not start with "-": ASCII digits that
    int() reads for an int flag, one of its choices for a flag that has
    them.  A flag not given takes the value argparse gives it.  `main` hands
    every other argv to argparse.
    """
    if len(argv) < 2 or argv[0] not in COMMANDS:
        return None
    command, leaf, *words = argv
    _, dest, leaves, _ = COMMANDS[command]
    row = leaves().get(leaf)
    if row is None:
        return None
    pending = dict((*row[1], *_OUTPUT))  # the flags not given yet
    values = {"command": command, dest: leaf}
    words = iter(words)
    for word in words:
        options = pending.pop(word, None)
        if options is None:
            return None
        if options.get("action") == "store_true":
            values[_dest(word)] = True
            continue
        value = next(words, "-")  # a flag with no word after it fails here
        if value.startswith("-"):
            return None
        if options.get("type") is int:
            if not (value.isascii() and value.isdigit() and len(value) <= _DIGITS_INT_READS):
                return None
            value = int(value)
        if "choices" in options and value not in options["choices"]:
            return None
        values[_dest(word)] = value
    for flag, options in pending.items():
        if options.get("required"):
            return None
        values[_dest(flag)] = False if options.get("action") == "store_true" else options.get("default")
    return values


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`, built only as far as `argv` reaches.

    Every command and leaf is registered by name and help, so help, usage
    lines and errors read as if every parser were built.  Only the command
    `argv` names gets its leaves, and only the leaf it names gets its flags.
    No parser above a leaf has an option that takes a value, so argparse
    dispatches each level on the first remaining word that does not start
    with "-", or on an earlier "-" word, which names nothing and fails as an
    invalid choice.  Those parsers take no abbreviations, so a leaf's flag
    given too early, such as `--h`, is a usage error and not `--help`.
    """
    import argparse  # here, so a well-formed request never loads it

    words = [arg for arg in argv if not arg.startswith("-")][:2]
    parser = argparse.ArgumentParser(prog="qdelannoy", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, dest, leaves, _) in COMMANDS.items():
        if words[:1] != [command]:
            commands.add_parser(command, help=command_help, add_help=False)
            continue
        command_parser = commands.add_parser(command, help=command_help, allow_abbrev=False)
        sub = command_parser.add_subparsers(dest=dest, required=True)
        for leaf, (leaf_help, flags, _) in leaves().items():
            named = words[1:] == [leaf]
            p = sub.add_parser(leaf, add_help=named, **({} if leaf_help is None else {"help": leaf_help}))
            for flag, options in (*flags, *_OUTPUT) if named else ():
                p.add_argument(flag, **options)
    return parser


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from exc


def _json_text(obj: object) -> str:
    import json  # here, so a plain-text request never loads it

    return json.dumps(obj, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    values = _table_parse(argv) or vars(build_parser(argv).parse_args(argv))
    _, dest, leaves, render = COMMANDS[values["command"]]
    _, flags, call = leaves()[values[dest]]
    params = {name: values[name] for name in (_dest(flag) for flag, _ in flags)}
    try:
        if "h" in params and min(params["h"], params["k"]) < 0:
            raise ValueError(f"--h and --k must be nonnegative, got h={params['h']} k={params['k']}")
        out, status = render(call(**params), params, values["json"])
        _emit(_json_text(out) if values["json"] else out, values["out"])
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print("error: out of memory; the request is too large for this machine", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry of `python -m qdelannoy` and the `qdelannoy` script.

    The package binds its library modules lazily, so only `cli`, the package
    root and what they import are loaded by now; those objects live until
    exit, so `gc.freeze` moves them out of the collector: no later
    collection, the ones at shutdown included, walks them, and forked --jobs
    workers do not copy their pages to write GC headers.  The modules a
    request loads inside `main` stay tracked.  `main` never freezes, because
    its other callers are long-lived processes.
    """
    gc.freeze()
    sys.exit(main())
