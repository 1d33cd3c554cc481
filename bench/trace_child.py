"""Run one qdelannoy CLI request with the package's layers wrapped in spans.

    python bench/trace_child.py FD ARG...

imports qdelannoy (src/ must be on PYTHONPATH), wraps the public functions
of every module from outside, calls `qdelannoy.cli.main([ARG...])`, and
when the request ends writes every span and counter once to the file
descriptor FD.  The package itself is not modified.

A span records its name, start, end and parent span; the request id is the
process.  Pool workers of `--jobs N > 1` sweeps inherit the wrappers but
their spans stay in the workers, so the parent sees only one span for the
whole sweep, named congruence.pool.
"""

from __future__ import annotations

import array
import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Typecodes of the four span columns written after the JSON header line.
COLUMNS = (("names", "H"), ("parents", "q"), ("starts", "d"), ("ends", "d"))


def _add(tracer, args, result):
    a, b = args
    tracer.counters["polyring.add.coeffs"] += max(len(a.coeffs), len(getattr(b, "coeffs", (b,))))


def _mul(tracer, args, result):
    a, b = args
    tracer.counters["polyring.mul.coeff_ops"] += len(a.coeffs) * len(getattr(b, "coeffs", (b,)))


def _divrem(tracer, args, result):
    p, m = args
    dm = len(m.coeffs) - 1
    tracer.counters["polyring.divrem.coeff_ops"] += max(0, len(p.coeffs) - dm) * dm


def _reduce_mod(tracer, args, result):
    tracer.counters["cyclotomic.reduce_mod.in_coeffs"] += len(args[0].coeffs)


def _q_binomial(tracer, args, result):
    tracer.seen["qcore.q_binomial"].add(args)


def _rec(tracer, args, result):
    tracer.counters["qdelannoy.rec.out_coeffs"] += len(result.coeffs)
    tracer.seen["qdelannoy.rec"].add(args)


def _audit(tracer, args, result):
    tracer.counters["orbits.violations"] += len(result.violations)


def _sweep(tracer, args, result):
    tracer.counters["congruence.cases"] += result.total
    tracer.counters["congruence.failed"] += result.failed


def _path(tracer, args, result):
    tracer.counters["paths.enumerate.paths"] += 1


# (module, attribute, span name, hook run inside the span when the call returns)
SPANS = (
    ("polyring", "IntPoly.__add__", "polyring.add", _add),
    ("polyring", "IntPoly.shift", "polyring.shift", None),
    ("polyring", "IntPoly.__mul__", "polyring.mul", _mul),
    ("polyring", "IntPoly.divrem", "polyring.divrem", _divrem),
    ("cyclotomic", "reduce_mod", "cyclotomic.reduce_mod", _reduce_mod),
    ("cyclotomic", "congruent", "cyclotomic.congruent", None),
    ("qcore", "q_binomial", "qcore.q_binomial", _q_binomial),
    ("qcore", "neg_q_pochhammer", "qcore.neg_q_pochhammer", None),
    ("qcore", "delannoy", "qcore.delannoy", None),
    ("qdelannoy", "q_delannoy_rec", "qdelannoy.rec", _rec),
    ("qdelannoy", "q_delannoy_def", "qdelannoy.def", None),
    ("qdelannoy", "q_delannoy_alt", "qdelannoy.alt", None),
    ("paths", "sigma", "paths.sigma", None),
    ("paths", "sigma_poly", "paths.sigma_poly", None),
    ("orbits", "audit", "orbits.audit", _audit),
    ("orbits", "decompose", "orbits.decompose", None),
    ("congruence", "run_case", "congruence.run_case", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Spans kept in flat arrays; index i is span i, parent -1 is the root."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.columns = {col: array.array(code) for col, code in COLUMNS}
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self.seen: defaultdict[str, set] = defaultdict(set)  # distinct argument tuples per span name
        self.cases: list[dict] = []  # per-case results of in-process sweeps, sized at exit

    def wrap(self, name: str, fn, hook=None):
        name_id = self.ids.setdefault(name, len(self.ids))
        names, parents = self.columns["names"].append, self.columns["parents"].append
        starts, ends, stack = self.columns["starts"], self.columns["ends"], self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names(name_id)
            parents(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every name in SPANS wherever the package bound it."""
        import qdelannoy

        package = [m for key, m in sys.modules.items() if key == "qdelannoy" or key.startswith("qdelannoy.")]
        for module, attribute, name, hook in SPANS:
            target = sys.modules[f"qdelannoy.{module}"]
            for part in attribute.split("."):
                target = getattr(target, part)
            _rebind(package, target, self.wrap(name, target, hook))
        enumerate_paths = qdelannoy.paths.enumerate_paths
        _rebind(package, enumerate_paths, self._wrap_generator("paths.enumerate", enumerate_paths, _path))
        sweep = qdelannoy.congruence.sweep
        _rebind(package, sweep, self._wrap_sweep(sweep))
        case_json = qdelannoy.congruence._run_case_json
        _rebind(package, case_json, self._keep_cases(case_json))

    def _wrap_generator(self, name: str, fn, hook):
        """One span per item the generator yields, so its work nests under the consumer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return iter(self.wrap(name, fn(*args, **kwargs).__next__, hook), _DONE)

        return traced

    def _wrap_sweep(self, fn):
        """Sweeps on a process pool get their own span name: their time is spent waiting on workers."""
        in_process = self.wrap("congruence.sweep", fn, _sweep)
        pooled = self.wrap("congruence.pool", fn, _sweep)

        @functools.wraps(fn)
        def traced(config):
            return (pooled if config.jobs > 1 else in_process)(config)

        return traced

    def _keep_cases(self, fn):
        """Keep each case's JSON-ready result: what a pool worker would pickle back."""

        @functools.wraps(fn)
        def keep(*args):
            result = fn(*args)
            self.cases.append(result)
            return result

        return keep

    def dump(self, fd: int, import_s: float) -> None:
        import json  # imported late so that import_s covers the CLI's own json import

        counters = dict(self.counters)
        for name, seen in self.seen.items():
            counters[f"{name}.distinct"] = len(seen)
        counters["congruence.result_bytes"] = sum(len(json.dumps(r)) for r in self.cases)
        header = {
            "span_names": list(self.ids),
            "spans": len(self.columns["names"]),
            "counters": counters,
            "import_s": import_s,
        }
        with os.fdopen(fd, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                self.columns[col].tofile(out)


_DONE = object()


def _rebind(modules, original, wrapper) -> None:
    """Replace `original` in module globals, dicts held by modules, and package classes."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = wrapper
            elif isinstance(value, type) and value.__module__.startswith("qdelannoy"):
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, wrapper)


def main() -> int:
    fd = int(sys.argv[1])
    start = perf_counter()
    import qdelannoy.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return qdelannoy.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(fd, import_s)


if __name__ == "__main__":
    sys.exit(main())
