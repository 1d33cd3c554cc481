"""Output oracle for the benchmark, written without importing qdelannoy.

Every check takes a request's exit status and stdout and returns None when
the output is right, or a one-line reason when it is not.  The expected
values come from stdlib integers only: Delannoy numbers from their own
recurrence, binomials from math.comb, and grid sizes from closed-form case
counts.
"""

from __future__ import annotations

import json
from math import comb


def delannoy(h: int, k: int) -> int:
    """D(h,k) by the three-term recurrence, one row at a time."""
    row = [1] * (k + 1)
    for _ in range(h):
        new = [1]
        for j in range(1, k + 1):
            new.append(new[j - 1] + row[j] + row[j - 1])
        row = new
    return row[k]


def sweep_cases(statement: str, max_n: int = 0, max_a: int = 0, max_c: int = 0, max_h: int = 0, max_k: int = 0) -> int:
    """Number of cases `verify <statement>` runs on the given grid."""
    if statement == "thm2":
        return max_n * (max_h + 1) * (max_k + 1)
    if statement in ("thm1", "qlucas"):
        return (max_a + 1) * (max_c + 1) * sum(n * n for n in range(1, max_n + 1))
    if statement == "interp":
        return (max_h + 1) * (max_k + 1)
    raise ValueError(f"no case count for {statement!r}")


def parse_poly_text(text: str) -> list[int]:
    """Coefficients, ascending, of the CLI's text form "1 + 2*q - q^3"."""
    text = text.strip()
    if text == "0":
        return []
    terms: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, q, power = term.lstrip("-").partition("q")
        exponent = (int(power[1:]) if power else 1) if q else 0
        terms[exponent] = sign * (int(coeff.rstrip("*")) if coeff else 1)
    return [terms.get(e, 0) for e in range(max(terms) + 1)]


def _check_coeffs(coeffs: list[int], value_at_1: int, degree: int) -> str | None:
    if len(coeffs) != degree + 1 or coeffs[-1] == 0:
        return f"degree {len(coeffs) - 1}, expected {degree}"
    if sum(coeffs) != value_at_1:
        return f"value at q=1 is {sum(coeffs)}, expected {value_at_1}"
    return None


def _json(stdout: bytes) -> dict | str:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"


def check_poly_json(rc: int, stdout: bytes, h: int, k: int, value_at_1: int, degree: int) -> str | None:
    """`compute qdelannoy|qbinom --json`: the coefficients evaluate and reach the right degree."""
    if rc != 0:
        return f"exit status {rc}"
    out = _json(stdout)
    if isinstance(out, str):
        return out
    if (out.get("h"), out.get("k")) != (h, k):
        return f"answered ({out.get('h')},{out.get('k')}), asked ({h},{k})"
    return _check_coeffs([int(c) for c in out["coeffs"]], value_at_1, degree)


def check_poly_text(rc: int, stdout: bytes, value_at_1: int, degree: int) -> str | None:
    """`compute qdelannoy` in text form."""
    if rc != 0:
        return f"exit status {rc}"
    return _check_coeffs(parse_poly_text(stdout.decode()), value_at_1, degree)


def check_qdelannoy(rc: int, stdout: bytes, h: int, k: int, as_json: bool) -> str | None:
    """P(h,k) evaluates to D(h,k) at q=1 and has degree h*k."""
    if as_json:
        return check_poly_json(rc, stdout, h, k, delannoy(h, k), h * k)
    return check_poly_text(rc, stdout, delannoy(h, k), h * k)


def check_qbinom(rc: int, stdout: bytes, h: int, k: int) -> str | None:
    """[h,k]_q evaluates to C(h,k) at q=1 and has degree k*(h-k)."""
    return check_poly_json(rc, stdout, h, k, comb(h, k), k * (h - k))


def check_sweep(rc: int, stdout: bytes, statement: str, total: int) -> str | None:
    """`verify <statement> --json`: every one of the expected cases ran and passed."""
    if rc != 0:
        return f"exit status {rc}"
    out = _json(stdout)
    if isinstance(out, str):
        return out
    got = (out.get("statement"), out.get("total"), out.get("passed"), out.get("failed"), out.get("failures"))
    if got != (statement, total, total, 0, []):
        return f"summary {got}, expected {(statement, total, total, 0, [])}"
    return None


def check_audit(rc: int, stdout: bytes, h: int, k: int, n: int) -> str | None:
    """`orbits audit --json`: D(h+n,k+n) paths and no violations."""
    if rc != 0:
        return f"exit status {rc}"
    out = _json(stdout)
    if isinstance(out, str):
        return out
    if out.get("frame") != {"h": h, "k": k, "n": n}:
        return f"audited frame {out.get('frame')}, asked {(h, k, n)}"
    expected = delannoy(h + n, k + n)
    if out.get("total_paths") != expected:
        return f"{out.get('total_paths')} paths, expected {expected}"
    if out.get("ok") is not True or out.get("violations") != []:
        return f"audit reports violations: {out.get('violations')}"
    return None


def check_delannoy(rc: int, stdout: bytes, h: int, k: int) -> str | None:
    """`compute delannoy` in text form."""
    if rc != 0:
        return f"exit status {rc}"
    if stdout != f"{delannoy(h, k)}\n".encode():
        return f"printed {stdout[:40]!r}, expected {delannoy(h, k)}"
    return None
