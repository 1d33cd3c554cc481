"""Lattice paths over east/north/northeast steps and the sigma statistic.

A path is a plain tuple of step symbols "E", "N", "D" read left to right;
paths are origin-relative, and absolute positions are derived on demand.
sigma(path) adds up, over every step that raises y, the x-coordinate of
that step's endpoint when the path starts at the origin.  Paths concatenate
with `+`, and sigma(a + b) = sigma(a) + sigma(b) + x(a)*y(b).
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyring import IntPoly

Path = tuple[str, ...]

E = "E"
N = "N"
D = "D"


def x_of(path: Path) -> int:
    return len(path) - path.count(N)


def y_of(path: Path) -> int:
    return len(path) - path.count(E)


def sigma(path: Path) -> int:
    total = 0
    x = 0
    for s in path:
        x += s != N
        if s != E:
            total += x
    return total


def enumerate_paths(h: int, k: int) -> Iterator[Path]:
    """Yield every path from (0,0) to (h,k) exactly once, in `walk` order.

    The stream is never materialized here; delannoy(h,k) paths in total.
    """
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (h, k)):
        raise TypeError(f"target coordinates must be int, got ({h!r}, {k!r})")
    if h < 0 or k < 0:
        raise ValueError(f"target must be in the first quadrant, got ({h}, {k})")
    return (path for path, _ in walk(h, k))


def walk(h: int, k: int) -> Iterator[tuple[Path, int]]:
    """Every path from (0,0) to (h,k) with its sigma; at each position try E, then N, then D.

    Depth first over an explicit list of steps, so path length has no
    ceiling, and each path is built once, when it is yielded.  It does not
    check its arguments; `enumerate_paths` does.
    """
    steps: list[str] = []
    x = y = s = 0
    while True:
        while x < h:
            steps.append(E)
            x += 1
        while y < k:
            steps.append(N)
            y, s = y + 1, s + x
        yield tuple(steps), s
        # Back up to the last step that has an untried successor: E -> N -> D.
        while steps:
            step = steps.pop()
            if step == E:
                x -= 1
                if y < k:
                    steps.append(N)
                    y, s = y + 1, s + x
                    break
            elif step == N:
                y, s = y - 1, s - x
                if x < h:
                    steps.append(D)
                    x, y, s = x + 1, y + 1, s + x + 1
                    break
            else:
                x, y, s = x - 1, y - 1, s - x
        else:
            return


def sigma_poly(h: int, k: int) -> IntPoly:
    """Sum of q^sigma over all paths to (h,k); equals the q-Delannoy polynomial.

    It builds each path and then walks it again in `sigma`, ignoring the
    sigma `walk` carries: D(h,k) paths, where the interp engine
    `congruence._sigma_counts` walks only the prefix trie left of its cut
    column (7,244 nodes for the whole 8 x 6 box, against D(8,6) = 40,081
    paths to its corner alone).  That is on purpose: this is the independent
    oracle that re-checks a case the interp engine failed, so it must share
    no code with that walk.
    """
    counts = [0] * (h * k + 1)
    for path in enumerate_paths(h, k):
        counts[sigma(path)] += 1
    return IntPoly(counts)


def path_text(path: Path) -> str:
    return "".join(path)
