"""Command-line entry point: compute / verify / orbits subcommands.

All output is deterministic: byte-identical across runs and across --jobs
settings.  Exit codes: 0 all checks passed, 1 a verification failed, 2
usage error or out of memory.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .congruence import STATEMENTS, SweepConfig, sweep
from .cyclotomic import cyclotomic
from .orbits import CornerFrame, audit
from .qcore import delannoy, q_binomial
from .qdelannoy import ROUTES, q_delannoy
from .paths import sigma_poly


_REQUIRED_INT = {"type": int, "required": True}
_HK = (("--h", _REQUIRED_INT), ("--k", _REQUIRED_INT))
# The flags every leaf ends with.
_OUTPUT = (
    ("--json", {"action": "store_true"}),
    ("--out", {"default": None, "help": "write output to a file instead of stdout"}),
)

# command -> (help, dest of its leaf, leaf -> (help or None, flags before
# _OUTPUT)), in the order help lists them.  A flag is (name, add_argument
# keywords).
COMMANDS = {
    "compute": ("print one exact value", "what", {
        "delannoy": ("classical Delannoy number", _HK),
        "qdelannoy": ("q-Delannoy polynomial", (("--route", {"choices": sorted(ROUTES), "default": "rec"}), *_HK)),
        "qbinom": ("Gaussian binomial coefficient", _HK),
        "cyclotomic": ("cyclotomic polynomial", (("--n", _REQUIRED_INT),)),
        "sigma-poly": ("path-statistic polynomial by enumeration", _HK),
    }),
    "verify": ("sweep a statement over a parameter grid", "statement", {
        name: (None, (
            *((f"--max-{axis}", {
                "type": int,
                "default": 0,
                "help": "modulus bound (primes for lucas/dlucas)" if axis == "n" else None,
            }) for axis in entry.axes),
            ("--jobs", {"type": int, "default": 1}),
        ))
        for name, entry in STATEMENTS.items()
    }),
    "orbits": ("group-action machinery", "action", {
        "audit": ("exhaustively audit one frame", (*_HK, ("--n", _REQUIRED_INT))),
    }),
}


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
    words = [arg for arg in argv if not arg.startswith("-")][:2]
    parser = argparse.ArgumentParser(prog="qdelannoy", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, dest, leaves) in COMMANDS.items():
        if words[:1] != [command]:
            commands.add_parser(command, help=command_help, add_help=False)
            continue
        command_parser = commands.add_parser(command, help=command_help, allow_abbrev=False)
        sub = command_parser.add_subparsers(dest=dest, required=True)
        for leaf, (leaf_help, flags) in leaves.items():
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


def _run_compute(args: argparse.Namespace) -> int:
    if args.what != "cyclotomic" and (args.h < 0 or args.k < 0):
        raise ValueError(f"--h and --k must be nonnegative, got h={args.h} k={args.k}")
    if args.what == "delannoy":
        value = delannoy(args.h, args.k)
        if args.json:
            _emit(_json_text({"h": args.h, "k": args.k, "value": str(value)}), args.out)
        else:
            _emit(str(value), args.out)
        return 0
    if args.what == "qdelannoy":
        poly = q_delannoy(args.h, args.k, route=args.route)
        payload = {"h": args.h, "k": args.k, "route": args.route, "coeffs": poly.to_json_coeffs()}
    elif args.what == "qbinom":
        poly = q_binomial(args.h, args.k)
        payload = {"h": args.h, "k": args.k, "coeffs": poly.to_json_coeffs()}
    elif args.what == "cyclotomic":
        poly = cyclotomic(args.n)
        payload = {"n": args.n, "coeffs": poly.to_json_coeffs()}
    else:
        poly = sigma_poly(args.h, args.k)
        payload = {"h": args.h, "k": args.k, "coeffs": poly.to_json_coeffs()}
    _emit(_json_text(payload) if args.json else poly.to_text(), args.out)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    bounds = {f"max_{axis}": getattr(args, f"max_{axis}") for axis in STATEMENTS[args.statement].axes}
    summary = sweep(SweepConfig(args.statement, jobs=args.jobs, **bounds))
    if args.json:
        _emit(_json_text(summary.to_json()), args.out)
    else:
        lines = [f"{summary.statement}: {summary.total} cases, {summary.passed} passed, {summary.failed} failed"]
        for failure in summary.failures:
            params = " ".join(f"{key}={val}" for key, val in sorted(failure["params"].items()))
            lines.append(f"FAIL {failure['tag']} {params} residue={failure['residue']}")
        _emit("\n".join(lines), args.out)
    return 0 if summary.failed == 0 else 1


def _run_orbits(args: argparse.Namespace) -> int:
    report = audit(CornerFrame(args.h, args.k, args.n))
    if args.json:
        _emit(_json_text(report.to_json()), args.out)
    else:
        lines = [
            f"frame h={report.h} k={report.k} n={report.n}: {report.total_paths} paths",
            "classes: " + " ".join(f"{c}={report.class_counts[c]}" for c in sorted(report.class_counts)),
            "fixed:   " + " ".join(f"{c}={report.fixed_counts[c]}" for c in sorted(report.fixed_counts)),
        ]
        for cls in sorted(report.orbit_histograms):
            hist = report.orbit_histograms[cls]
            if hist:
                body = " ".join(f"{d}:{count}" for d, count in sorted(hist.items()))
                lines.append(f"orbit sizes {cls}: {body}")
        for name in sorted(report.sums):
            lines.append(f"{name} = {report.sums[name].to_text()}")
        if report.violations:
            lines.extend(f"VIOLATION {v}" for v in report.violations)
        else:
            lines.append("violations: none")
        _emit("\n".join(lines), args.out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "compute":
            return _run_compute(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_orbits(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the request is too large for this machine", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry of `python -m qdelannoy` and the `qdelannoy` script.

    Every module is imported by now and its objects live until exit, so
    `gc.freeze` moves them out of the collector: no later collection, the
    ones at shutdown included, walks them, and forked --jobs workers do not
    copy their pages to write GC headers.  `main` never freezes, because its
    other callers are long-lived processes.
    """
    gc.freeze()
    sys.exit(main())
