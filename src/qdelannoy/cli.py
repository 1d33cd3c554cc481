"""Command-line entry point: compute / verify / orbits subcommands.

All output is deterministic: byte-identical across runs and across --jobs
settings.  Exit codes: 0 all checks passed, 1 a verification failed, 2
usage error or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .congruence import STATEMENTS, SweepConfig, sweep
from .cyclotomic import cyclotomic
from .orbits import CornerFrame, audit
from .qcore import delannoy, q_binomial
from .qdelannoy import ROUTES, q_delannoy
from .paths import sigma_poly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdelannoy")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one exact value")
    csub = compute.add_subparsers(dest="what", required=True)

    def add_hk(p: argparse.ArgumentParser) -> None:
        p.add_argument("--h", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        _add_output_flags(p)

    p = csub.add_parser("delannoy", help="classical Delannoy number")
    add_hk(p)
    p = csub.add_parser("qdelannoy", help="q-Delannoy polynomial")
    p.add_argument("--route", choices=sorted(ROUTES), default="rec")
    add_hk(p)
    p = csub.add_parser("qbinom", help="Gaussian binomial coefficient")
    add_hk(p)
    p = csub.add_parser("cyclotomic", help="cyclotomic polynomial")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p = csub.add_parser("sigma-poly", help="path-statistic polynomial by enumeration")
    add_hk(p)

    verify = sub.add_parser("verify", help="sweep a statement over a parameter grid")
    vsub = verify.add_subparsers(dest="statement", required=True)
    for name, entry in STATEMENTS.items():
        p = vsub.add_parser(name)
        for axis in entry.axes:
            note = "modulus bound (primes for lucas/dlucas)" if axis == "n" else None
            p.add_argument(f"--max-{axis}", type=int, default=0, help=note)
        p.add_argument("--jobs", type=int, default=1)
        _add_output_flags(p)

    orbits = sub.add_parser("orbits", help="group-action machinery")
    osub = orbits.add_subparsers(dest="action", required=True)
    p = osub.add_parser("audit", help="exhaustively audit one frame")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    return parser


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


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
    args = build_parser().parse_args(argv)
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
