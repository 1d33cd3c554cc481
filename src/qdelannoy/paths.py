"""Lattice paths over east/north/northeast steps and the sigma statistic.

A path is a plain tuple of step symbols "E", "N", "D" read left to right;
paths are origin-relative, and absolute positions are derived on demand.
sigma(path) adds up, over every step that raises y, the x-coordinate of
that step's endpoint when the path starts at the origin.  Paths concatenate
with `+`, and sigma(a + b) = sigma(a) + sigma(b) + x(a)*y(b).

`walk` streams the paths to one point; `sigma_counts` counts the paths to
every cell of a box by sigma without building them, for interp and for the
orbit audit's heads.
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyring import IntPoly
from .qcore import delannoy, slot_bytes

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
    sigma `walk` carries: D(h,k) paths, where `sigma_counts`, which counts
    interp's cells and the orbit audit's heads, walks only the prefix trie
    left of its cut column (7,244 nodes for the whole 8 x 6 box, against
    D(8,6) = 40,081 paths to its corner alone).  That is on purpose: this is
    the independent oracle that re-checks a case the interp engine failed,
    so it shares no code with `sigma_counts` or its trie walk.
    """
    counts = [0] * (h * k + 1)
    for path in enumerate_paths(h, k):
        counts[sigma(path)] += 1
    return IntPoly(counts)


def _trie(cut: int, max_k: int) -> Iterator[tuple[int, int, int]]:
    """Every node of the prefix trie of [0,cut] x [0,max_k] up to column cut, depth first, as (x, y, sigma).

    A node on column cut is a leaf: its path reaches that column there for
    the first time.  A generator, since CPython 3.11 specializes a loop only
    in code it has entered a few times: this one is entered once per node,
    where a plain loop in a function called once ran over twice as slow.
    """
    stack = [(0, 0, 0)]
    while stack:
        node = x, y, s = stack.pop()
        yield node
        if x < cut:
            stack.append((x + 1, y, s))
            if y < max_k:
                stack.append((x + 1, y + 1, s + x + 1))
                stack.append((x, y + 1, s + x))


def sigma_counts(max_h: int, max_k: int) -> list[list[IntPoly]]:
    """counts[h][k]: the sum of q^sigma over the paths from (0,0) to (h,k), for every cell of the box.

    A path to (h,k) with h >= cut first reaches column cut at some (cut,y).
    The trie walk counts those prefixes, arrive[y], and every cell left of
    the cut.  Since max_h - cut < cut, the rest is a path to a cell left of
    the cut moved right by cut, which gains cut in sigma at each of its k-y
    steps up: counts[h][k] = sum_y arrive[y] counts[h-cut][k-y] q^(cut(k-y)).
    Counts are packed as in `qcore`; no slot carries, since every term is
    nonnegative and no coefficient exceeds D(max_h, max_k).  When max_h = 0
    no cell lies right of the cut, and the arrivals on column 1 go unread.
    """
    cut = max_h // 2 + 1
    width = slot_bytes(delannoy(max_h, max_k))
    bits = 8 * width
    cells = [[[0] * (x * y + 1) for y in range(max_k + 1)] for x in range(cut + 1)]
    for x, y, s in _trie(cut, max_k):
        cells[x][y][s] += 1
    packed = [[sum(n << (s * bits) for s, n in enumerate(cell)) for cell in row] for row in cells]
    left, arrive = packed[:cut], packed[cut]
    right = [
        [sum(arrive[y] * row[k - y] << (cut * (k - y) * bits) for y in range(k + 1)) for k in range(max_k + 1)]
        for row in left[: max_h - cut + 1]
    ]
    return [[IntPoly.from_packed(v, width) for v in row] for row in left + right]


def path_text(path: Path) -> str:
    return "".join(path)
