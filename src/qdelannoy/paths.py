"""Lattice paths over east/north/northeast steps and the sigma statistic.

A path is a plain tuple of step symbols "E", "N", "D" read left to right;
paths are origin-relative, and absolute positions are derived on demand.
sigma(path) adds up, over every step that raises y, the x-coordinate of
that step's endpoint when the path starts at the origin.  Paths concatenate
with `+`, and sigma(a + b) = sigma(a) + sigma(b) + x(a)*y(b).

`walk` streams the paths to one point; `sigma_counts` counts the paths to
every cell of a box by sigma, for interp and the orbit audit's heads, by
sweeping one band's prefix trie across the box with that law.
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyring import IntPoly
from .qcore import delannoy, slot_bytes

Path = tuple[str, ...]

E = "E"
N = "N"
D = "D"

# Columns per band of `sigma_counts`.  At one a band is a column, and the sweep
# would be rec's recurrence transposed; at two each band is still a trie walk.
BAND = 2


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
    sigma `walk` carries: D(h,k) paths, where `sigma_counts`, which counts
    interp's cells and the orbit audit's heads, walks only the prefix trie
    of one band (141 nodes for the whole 8 x 6 box, against D(8,6) =
    40,081 paths to its corner alone).  That is on purpose: this is
    the independent oracle that re-checks a case the interp engine failed,
    so it shares no code with `sigma_counts` or its trie walk.
    """
    counts = [0] * (h * k + 1)
    for path in enumerate_paths(h, k):
        counts[sigma(path)] += 1
    return IntPoly(counts)


def _trie(width: int, max_k: int) -> Iterator[tuple[int, int, int]]:
    """Every node of the prefix trie of [0,width] x [0,max_k] up to column width, depth first, as (x, y, sigma).

    A node on column width is a leaf, where its path first reaches that column.
    `sigma_counts` counts a band from this walk alone; tests corrupt counts here.
    """
    stack = [(0, 0, 0)]
    while stack:
        node = x, y, s = stack.pop()
        yield node
        if x < width:
            stack.append((x + 1, y, s))
            if y < max_k:
                stack.append((x + 1, y + 1, s + x + 1))
                stack.append((x, y + 1, s + x))


def sigma_counts(max_h: int, max_k: int) -> list[list[IntPoly]]:
    """counts[h][k]: the sum of q^sigma over the paths from (0,0) to (h,k), for every cell of the box.

    The trie walk counts band[j][k]: the paths to (j,k), and at j = BAND those
    that first reach column BAND at (BAND,k).  A path to (c+j,k) first reaches
    column c at some (c,y), then goes on as a band path moved right by c, which
    gains c(k-y) in sigma.  So from arrive = [1, 0, ...] at c = 0, column c+j,
    and at j = BAND the next arrivals, are sum_y arrive[y] band[j][k-y] q^(c(k-y)),
    packed as in `qcore`: no slot carries, as each value read counts box paths.
    """
    width = slot_bytes(delannoy(max_h, max_k))
    bits = 8 * width
    band = [[0] * (max_k + 1) for _ in range(BAND + 1)]
    for x, y, s in _trie(BAND, max_k):
        band[x][y] += 1 << (s * bits)
    counts, arrive = [], [1] + [0] * max_k
    for c in range(0, max_h + 1, BAND):
        sums = [
            [sum(arrive[y] * row[k - y] << (c * (k - y) * bits) for y in range(k + 1)) for k in range(max_k + 1)]
            for row in band[: max_h + 1 - c]
        ]
        counts, arrive = counts + sums[:BAND], sums[-1]
    return [[IntPoly.from_packed(v, width) for v in row] for row in counts]


def path_text(path: Path) -> str:
    return "".join(path)
