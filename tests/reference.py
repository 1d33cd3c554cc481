"""Slow, independent reference formulas for the packed fills in the package.

Every value here is built from IntPoly arithmetic alone: schoolbook
products, coefficient-wise sums and memoized recursion, with no packed
integers; (-q;q)_j comes from `qcore.neg_q_pochhammer`, which multiplies
IntPoly factors too.  These are the package's original routes, kept as the
oracle the fast ones are checked against, plus the original recursive path
enumeration, the original corner decomposition and cyclic actions, which
build the point list of a path and cut it into lists of blocks, and the
orbit audit built from them one path at a time.  The small helpers at the
end (q-integers, the q-binomial theorem, the series table of
1/(1-x-y-xy), evaluation at q=1 and at any integer, JSON read-back, path
points, the cases of a sweep shard) exist only for the tests.
"""

from functools import cache
from itertools import product

from qdelannoy.orbits import Decomposition, PathClass
from qdelannoy.paths import sigma
from qdelannoy.polyring import ONE, IntPoly, ZERO
from qdelannoy.qcore import neg_q_pochhammer, q_binomial as packed_q_binomial
from qdelannoy.qdelannoy import q_delannoy_rec as packed_q_delannoy_rec

STEP_DX = {"E": 1, "N": 0, "D": 1}
STEP_DY = {"E": 0, "N": 1, "D": 1}


@cache
def q_binomial(h, k):
    """Pascal recurrence [h,k] = q^k*[h-1,k] + [h-1,k-1]."""
    if k < 0 or k > h:
        return ZERO
    if k == 0 or k == h:
        return ONE
    return q_binomial(h - 1, k).shift(k) + q_binomial(h - 1, k - 1)


@cache
def q_delannoy_rec(h, k):
    """P(h,k) = P(h,k-1) + q^k*(P(h-1,k) + P(h-1,k-1)), with 1 on both axes."""
    if h < 0 or k < 0:
        return ZERO
    if h == 0 or k == 0:
        return ONE
    return q_delannoy_rec(h, k - 1) + (q_delannoy_rec(h - 1, k) + q_delannoy_rec(h - 1, k - 1)).shift(k)


def q_delannoy_def(h, k):
    """sum_j q^(j(j+1)/2) * [k,j]_q * [h+k-j, k]_q."""
    total = ZERO
    for j in range(min(h, k) + 1):
        total = total + (q_binomial(k, j) * q_binomial(h + k - j, k)).shift(j * (j + 1) // 2)
    return total


def q_delannoy_alt(h, k):
    """sum_j q^((h-j)(k-j)) * (-q;q)_j * [k,j]_q * [h,j]_q."""
    total = ZERO
    for j in range(min(h, k) + 1):
        term = neg_q_pochhammer(j) * q_binomial(k, j) * q_binomial(h, j)
        total = total + term.shift((h - j) * (k - j))
    return total


def enumerate_paths(h, k, prefix=()):
    """Recursive depth-first enumeration trying E, then N, then D at each position."""
    if h == 0 and k == 0:
        yield prefix
    if h:
        yield from enumerate_paths(h - 1, k, prefix + ("E",))
    if k:
        yield from enumerate_paths(h, k - 1, prefix + ("N",))
    if h and k:
        yield from enumerate_paths(h - 1, k - 1, prefix + ("D",))


def on_anchor(frame, point):
    """Whether a point lies on L_E (east run from the corner) or L_N (north run)."""
    x, y = point
    if y == frame.k and frame.h <= x <= frame.h + frame.n:
        return True
    return x == frame.h and frame.k <= y <= frame.k + frame.n


def decompose(path, frame):
    """Scan the whole point list for the first anchor point, then extend the bar.

    The class comes from the bar's end points: a bar from the corner gives Q4
    when the tail holds a D step, else Q3; any other bar gives Q1 when it
    ends on y = k, else Q2.
    """
    pts = path_points(path)
    if pts[-1] != frame.target:
        raise ValueError(f"path ends at {pts[-1]}, frame expects {frame.target}")
    first = next(i for i, p in enumerate(pts) if on_anchor(frame, p))
    last = first
    while last + 1 < len(pts) and on_anchor(frame, pts[last + 1]):
        last += 1
    if pts[first] == (frame.h, frame.k):
        cls = PathClass.Q4 if "D" in path[first:] else PathClass.Q3
    else:
        cls = PathClass.Q1 if pts[last][1] == frame.k else PathClass.Q2
    return Decomposition(check=path[:first], bar=path[first:last], hat=path[last:], path_class=cls)


def x_of(path):
    return sum(s != "N" for s in path)


def y_of(path):
    return sum(s != "E" for s in path)


def split_on_leads(segment, leads):
    """Cut a segment at its lead steps; anything before the first lead is the leading run."""
    leading, blocks = [], []
    for s in segment:
        if s in leads:
            blocks.append([s])
        elif blocks:
            blocks[-1].append(s)
        else:
            leading.append(s)
    return tuple(leading), [tuple(b) for b in blocks]


def blocks(dec, frame):
    """The leading run and the blocks the class action permutes."""
    cls = dec.path_class
    if cls is PathClass.Q1:
        leading, parts = split_on_leads(dec.hat, ("N", "D"))
    elif cls is PathClass.Q2:
        leading, parts = split_on_leads(dec.hat, ("E", "D"))
    elif cls is PathClass.Q4:
        leading, parts = split_on_leads(dec.tail, ("E", "D"))
    else:
        raise ValueError("Q3 paths carry no block structure")
    if cls is not PathClass.Q4 and leading:
        raise AssertionError(f"a {cls.value} hat opens with its run step")
    if len(parts) != frame.n:
        raise AssertionError(f"expected {frame.n} blocks, found {len(parts)}")
    return leading, parts


def act_with_shift(dec, frame):
    """Rotate the blocks (Q1, Q2) or the lead labels (Q4) and rebuild the path."""
    cls, n = dec.path_class, frame.n
    leading, parts = blocks(dec, frame)
    if cls is PathClass.Q4:
        labels = [p[0] for p in parts]
        shift = labels.count("D") - n * (labels[-1] == "D")
        rotated = [labels[-1]] + labels[:-1]
        parts = [(lab,) + p[1:] for lab, p in zip(rotated, parts)]
        head = dec.check
    else:
        last = parts[-1]
        if cls is PathClass.Q1:
            shift = n * x_of(last) - x_of(dec.hat)
        else:
            shift = y_of(dec.hat) - n * y_of(last)
        parts = [last] + parts[:-1]
        head = dec.check + dec.bar
    body = list(leading)
    for p in parts:
        body.extend(p)
    return head + tuple(body), shift


def audit(frame):
    """The orbit audit path by path, as the fields of `orbits.AuditReport` it must match.

    Every path of the frame is decomposed and weighed on its own, and the
    first path of each orbit the enumeration reaches walks the orbit of whole
    paths with `act_with_shift`.
    """
    h, k, n = frame
    size = (h + n) * (k + n) + 1
    counts = {cls.value: 0 for cls in PathClass}
    histograms = {cls.value: {} for cls in PathClass}
    fixed = {cls: [0] * size for cls in PathClass}
    every = [0] * size
    seen = set()
    for path in enumerate_paths(h + n, k + n):
        cls, s = decompose(path, frame).path_class, sigma(path)
        counts[cls.value] += 1
        every[s] += 1
        if cls is PathClass.Q3:
            fixed[cls][s] += 1
        if cls is PathClass.Q3 or path in seen:
            continue
        orbit = [path]
        while (image := act_with_shift(decompose(orbit[-1], frame), frame)[0]) != path:
            orbit.append(image)
        seen.update(orbit)
        hist = histograms[cls.value]
        hist[len(orbit)] = hist.get(len(orbit), 0) + 1
        if len(orbit) == 1:
            fixed[cls][s] += 1
    sums = {f"S{i}": IntPoly(fixed[cls]) for i, cls in enumerate(PathClass, 1)}
    return {
        "total_paths": sum(every),
        "class_counts": counts,
        "orbit_histograms": histograms,
        "fixed_counts": {cls.value: sum(fixed[cls]) for cls in PathClass},
        "sums": sums,
        "grand_total": IntPoly(every),
    }


def path_points(path, start=(0, 0)):
    """Every lattice point the path visits, start included."""
    x, y = start
    pts = [(x, y)]
    for s in path:
        x += STEP_DX[s]
        y += STEP_DY[s]
        pts.append((x, y))
    return pts


def q_integer(n):
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError(f"q-integer index must be nonnegative, got {n}")
    return IntPoly([1] * n)


def q_binomial_theorem_check(j):
    """Whether (-q;q)_j equals sum_i q^(i(i+1)/2) * [j choose i]_q exactly, for the package's [j,i]."""
    rhs = ZERO
    for i in range(j + 1):
        rhs = rhs + packed_q_binomial(j, i).shift(i * (i + 1) // 2)
    return neg_q_pochhammer(j) == rhs


def delannoy_series_table(size):
    """Coefficient table of the power series 1/(1-x-y-xy) up to degree size.

    Entry [h][k] obeys c[h][k] = c[h-1][k] + c[h][k-1] + c[h-1][k-1] with
    c[0][0] = 1 and out-of-range terms zero, and must match delannoy(h,k).
    """
    if size < 0:
        raise ValueError(f"table size must be nonnegative, got {size}")
    table = [[0] * (size + 1) for _ in range(size + 1)]
    table[0][0] = 1
    for h in range(size + 1):
        for k in range(size + 1):
            if h == 0 and k == 0:
                continue
            up = table[h - 1][k] if h else 0
            left = table[h][k - 1] if k else 0
            diag = table[h - 1][k - 1] if h and k else 0
            table[h][k] = up + left + diag
    return table


def specialize_q1(h, k):
    """The package's q-Delannoy polynomial at q=1; equals delannoy(h,k)."""
    if h < 0 or k < 0:
        raise ValueError("specialization expects nonnegative arguments")
    return evaluate(packed_q_delannoy_rec(h, k), 1)


def evaluate(poly, x):
    """Horner evaluation of an IntPoly at an integer point."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def poly_from_json(items):
    """Read back IntPoly.to_json_coeffs: decimal coefficient strings, ascending."""
    return IntPoly(int(s) for s in items)


def grid_cases(config, key):
    """Every case of one sweep shard in grid order, enumerated apart from the engines.

    The key is the modulus n (or the prime p) of a split or thm2 shard, and
    the row h of an interp shard.
    """
    if config.statement == "interp":
        return [(key, k) for k in range(config.max_k + 1)]
    if config.statement == "thm2":
        return [(key, *hk) for hk in product(range(config.max_h + 1), range(config.max_k + 1))]
    return [(key, *abcd) for abcd in product(range(config.max_a + 1), range(key), range(config.max_c + 1), range(key))]
