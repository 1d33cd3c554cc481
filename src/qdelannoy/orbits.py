"""Corner decomposition, path classes, cyclic actions, and the orbit audit.

Fix a corner (h,k) and a modulus index n, and look at paths from (0,0) to
(h+n,k+n).  The anchor set is the union of two segments through the corner:
L_E, the east run from (h,k) to (h+n,k), and L_N, the north run from (h,k)
to (h,k+n).  Every path meets the anchor set in one contiguous stretch (the
"bar"); "check" is the prefix before it and "hat" the suffix after it.

Classification is corner-based:

* paths through the corner split there into check + tail and land in Q3
  (tail free of D steps) or Q4 (tail contains a D);
* paths avoiding the corner land in Q1 when the bar ends on L_E, else Q2
  (bar ends on L_N).

Note the bar of a corner-avoiding path lies on one open arm only, while a
corner path's bar starts at the corner, so the split is total and disjoint.

Three cyclic actions of order n drive the congruence bookkeeping:

* Q1: the hat climbs exactly n rows and starts with N or D; cut it into n
  blocks, each one y-raising step plus the following east run, and rotate
  the blocks (last to front).
* Q2: the hat advances exactly n columns and starts with E or D; cut at
  the x-raising steps instead and rotate likewise.
* Q4: the corner tail is a leading north run v_0 followed by n pairs
  (e_j, v_j), e_j the j-th x-raising step; rotate only the e labels,
  keeping every north run in place.

So a Q1/Q2 action is two slices of the hat at its last lead step, and a Q4
action rewrites the lead positions of the tail; `_leads` finds the lead
steps for both, and for `blocks`.

Each action preserves its class, has period dividing n, and changes sigma
by an exact amount that is nonzero mod n away from the fixed points, which
is why every non-singleton orbit's q^sigma sum vanishes mod Phi_n.  The
audit verifies all of this exhaustively for one frame, plus the closed
forms of the four fixed-point sums.  `orbit` and `audit` share one orbit
walk, which raises AssertionError when a law breaks.  The audit decomposes
each path once: it runs the walk at the first path of each orbit, keeps
the walk's decomposition and sigma of every later member for when the
enumeration reaches it, records any raise as a violation, and takes
S1/S2/S4 from the singleton orbits.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import NamedTuple, Optional

from .cyclotomic import congruent
from .polyring import IntPoly
from .qcore import delannoy, q_binomial
from .qdelannoy import q_delannoy_rec
from .residue import phi_test
from .paths import (
    D,
    E,
    N,
    Path,
    enumerate_paths,
    path_text,
    sigma,
    x_of,
    y_of,
)


class FrameError(ValueError):
    """A path does not fit the frame it is being decomposed against."""


class ClassError(ValueError):
    """An operation was applied to a path of the wrong class."""


class PathClass(enum.Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


class _FrameFields(NamedTuple):
    """The fields of a `CornerFrame`, which validates them."""

    h: int
    k: int
    n: int


class CornerFrame(_FrameFields):
    """Corner (h,k) with anchor segments of length n; paths end at (h+n,k+n).

    Construction, `_make`, `_replace` and unpickling all validate the fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CornerFrame:
        self = super().__new__(cls, *args, **kwargs)
        if self.h < 0 or self.k < 0:
            raise ValueError(f"corner must be in the first quadrant, got {(self.h, self.k)}")
        if self.n < 1:
            raise ValueError(f"segment length must be positive, got {self.n}")
        return self

    @classmethod
    def _make(cls, iterable) -> CornerFrame:
        return cls(*iterable)

    @property
    def target(self) -> tuple[int, int]:
        return (self.h + self.n, self.k + self.n)


class Decomposition(NamedTuple):
    """check + bar + hat, and the class they put the path in.

    The bar may be a single anchor point (no steps).
    """

    check: Path
    bar: Path
    hat: Path
    path_class: PathClass

    @property
    def tail(self) -> Path:
        """Everything after the corner; only meaningful for corner paths."""
        return self.bar + self.hat


class BlockDecomposition(NamedTuple):
    path_class: PathClass
    leading: Path
    blocks: tuple[Path, ...]


class Orbit(NamedTuple):
    members: tuple[Path, ...]
    size: int
    weight: IntPoly
    path_class: PathClass
    s_count: Optional[int]


def decompose(path: Path, frame: CornerFrame) -> Decomposition:
    """Split and classify a path around its anchor stretch, in one walk that stops at the bar's end."""
    end = (x_of(path), y_of(path))
    if end != frame.target:
        raise FrameError(f"path ends at {end}, frame expects {frame.target}")
    h, k, n = frame.h, frame.k, frame.n
    x = y = first = 0
    # Steps raise x and y by at most one, so the first point with x >= h and
    # y >= k lies on an arm, and it comes before the end (h+n, k+n): this
    # walk stops inside the path.
    while not (y == k and h <= x <= h + n or x == h and k <= y <= k + n):
        s = path[first]
        x += s != N
        y += s != E
        first += 1
    corner = x == h and y == k
    last = first
    while last < len(path):
        s = path[last]
        nx, ny = x + (s != N), y + (s != E)
        if not (ny == k and h <= nx <= h + n or nx == h and k <= ny <= k + n):
            break
        x, y = nx, ny
        last += 1
    if corner:
        path_class = PathClass.Q4 if D in path[first:] else PathClass.Q3
    else:
        path_class = PathClass.Q1 if y == k else PathClass.Q2
    return Decomposition(
        check=path[:first],
        bar=path[first:last],
        hat=path[last:],
        path_class=path_class,
    )


def classify(path: Path, frame: CornerFrame) -> PathClass:
    """Total, single-valued class of a path in the frame."""
    return decompose(path, frame).path_class


def _leads(dec: Decomposition, frame: CornerFrame) -> tuple[Path, list[int]]:
    """The segment the class action permutes, and the index of each block's lead step.

    A block is a lead step plus the run after it; anything before the first
    lead is the leading run.
    """
    cls = dec.path_class
    if cls is PathClass.Q1:
        segment, run = dec.hat, E
        if segment and segment[0] == run:
            raise AssertionError("a Q1 hat must open with a y-raising step")
    elif cls is PathClass.Q2:
        segment, run = dec.hat, N
        if segment and segment[0] == run:
            raise AssertionError("a Q2 hat must open with an x-raising step")
    elif cls is PathClass.Q4:
        segment, run = dec.tail, N
    else:
        raise ClassError("Q3 paths carry no block structure")
    leads = [i for i, s in enumerate(segment) if s != run]
    if len(leads) != frame.n:
        raise AssertionError(f"expected {frame.n} blocks, found {len(leads)}")
    return segment, leads


def blocks(path: Path, frame: CornerFrame) -> BlockDecomposition:
    """Block structure feeding the cyclic action; rejects Q3 paths."""
    dec = decompose(path, frame)
    segment, leads = _leads(dec, frame)
    bounds = zip(leads, leads[1:] + [len(segment)])
    return BlockDecomposition(
        path_class=dec.path_class,
        leading=segment[: leads[0]],
        blocks=tuple(segment[a:b] for a, b in bounds),
    )


def _act_with_shift(dec: Decomposition, frame: CornerFrame) -> tuple[Path, int]:
    """Apply the class action once; also return the exact predicted sigma shift."""
    segment, leads = _leads(dec, frame)
    cls, n = dec.path_class, frame.n
    if cls is PathClass.Q4:
        # Rotate the lead labels one place along the lead positions.
        labels = [segment[i] for i in leads]
        shift = labels.count(D) - n * (labels[-1] == D)
        tail = list(segment)
        for i, label in zip(leads, labels[-1:] + labels[:-1]):
            tail[i] = label
        return dec.check + tuple(tail), shift
    # Q1/Q2: the final block moves to the front of the hat.
    cut = leads[-1]
    last = segment[cut:]
    if cls is PathClass.Q1:
        shift = n * x_of(last) - x_of(segment)
    else:
        shift = y_of(segment) - n * y_of(last)
    return dec.check + dec.bar + last + segment[:cut], shift


def act(path: Path, frame: CornerFrame) -> Path:
    """One application of the cyclic action for the path's class."""
    return _act_with_shift(decompose(path, frame), frame)[0]


def _weight(sigmas: list[int]) -> IntPoly:
    if not sigmas:
        return IntPoly()
    counts = [0] * (max(sigmas) + 1)
    for s in sigmas:
        counts[s] += 1
    return IntPoly(counts)


def _walk_orbit(
    path: Path, dec: Decomposition, s: int, frame: CornerFrame
) -> dict[Path, tuple[Decomposition, int]]:
    """Every member of the orbit of `path`, in action order, with its decomposition and sigma.

    `dec` and `s` describe `path` itself; each later member is decomposed
    once.  Raises AssertionError when a step misses its predicted sigma
    shift or leaves the class, or when the action does not return to the
    path within n steps.
    """
    cls = dec.path_class
    members = {path: (dec, s)}
    cur, prev = dec, path
    while True:
        nxt, predicted = _act_with_shift(cur, frame)
        t = sigma(nxt)
        if t - s != predicted:
            raise AssertionError(f"sigma shift law failed at {path_text(prev)} ({cls.value})")
        if nxt == path:
            return members
        if len(members) == frame.n:
            raise AssertionError(f"action not n-periodic at {path_text(path)} ({cls.value})")
        if nxt in members:
            raise AssertionError(f"orbits overlap at {path_text(nxt)} ({cls.value})")
        cur = decompose(nxt, frame)
        if cur.path_class is not cls:
            raise AssertionError(f"action left {cls.value} at {path_text(prev)}")
        members[nxt] = (cur, t)
        prev, s = nxt, t


def orbit(path: Path, frame: CornerFrame) -> Orbit:
    """Trajectory of a path under its action; the size always divides n.

    Raises AssertionError when a law of the action breaks.
    """
    dec = decompose(path, frame)
    cls = dec.path_class
    if cls is PathClass.Q3:
        raise ClassError("Q3 paths carry no cyclic action")
    members = _walk_orbit(path, dec, sigma(path), frame)
    return Orbit(
        members=tuple(members),
        size=len(members),
        weight=_weight([s for _, s in members.values()]),
        path_class=cls,
        s_count=dec.tail.count(D) if cls is PathClass.Q4 else None,
    )


# (n, bound) -> phi_test(n, bound).  An audit asks for one n, and an orbit has
# at most n members, so this holds about one entry per frame modulus.
_PHI_TESTS: dict[tuple[int, int], tuple[int, Callable[[int, int], bool]]] = {}


def _orbit_sum_vanishes(sigmas: list[int], n: int) -> bool:
    """Whether the sum of q^sigma is 0 mod Phi_n.

    Exponents fold mod n first: Phi_n divides q^n - 1, so q^s and q^(s mod n)
    agree mod Phi_n.  The folded counts, each at most len(sigmas), are packed
    into n slots and decided by `residue.phi_test`, with no division.
    """
    key = n, max(n, len(sigmas))
    test = _PHI_TESTS.get(key)
    if test is None:
        test = _PHI_TESTS[key] = phi_test(*key)
    bits, divides = test
    return divides(sum(1 << s % n * bits for s in sigmas), 0)


# The partition convention the audit verifies.  Splitting corner paths off
# first (rather than by bar endpoints alone) is what makes all three actions
# class-closed; splitting Q1/Q2 by the bar's END point is what keeps
# corner-avoiding paths classifiable at all.
CLASSIFICATION_NOTE = (
    "corner paths split at the corner into Q3/Q4 by D-freeness of the tail; "
    "corner-avoiding paths go to Q1 or Q2 by the arm their bar ends on"
)


class AuditReport(NamedTuple):
    """Everything the exhaustive check of one frame produced."""

    h: int
    k: int
    n: int
    total_paths: int
    class_counts: dict[str, int]
    orbit_histograms: dict[str, dict[int, int]]
    fixed_counts: dict[str, int]
    sums: dict[str, IntPoly]
    grand_total: IntPoly
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "frame": {"h": self.h, "k": self.k, "n": self.n},
            "classification": CLASSIFICATION_NOTE,
            "total_paths": self.total_paths,
            "class_counts": dict(sorted(self.class_counts.items())),
            "orbit_histograms": {
                cls: {str(d): c for d, c in sorted(hist.items())}
                for cls, hist in sorted(self.orbit_histograms.items())
            },
            "fixed_counts": dict(sorted(self.fixed_counts.items())),
            "sums": {name: p.to_json_coeffs() for name, p in sorted(self.sums.items())},
            "grand_total": self.grand_total.to_json_coeffs(),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _reassembled_sigma(dec: Decomposition) -> int:
    """sigma of check+bar+hat from the concatenation law."""
    check, bar, hat = dec.check, dec.bar, dec.hat
    xc = x_of(check)
    xb = x_of(bar)
    return sigma(check) + sigma(bar) + sigma(hat) + xc * y_of(bar) + (xc + xb) * y_of(hat)


def audit(frame: CornerFrame) -> AuditReport:
    """Exhaustively verify the partition, actions, and sum identities of a frame.

    Violations are collected, not raised; an empty list means the frame
    passes every check.
    """
    h, k, n = frame.h, frame.k, frame.n
    violations: list[str] = []

    def violate(msg: str) -> None:
        if len(violations) < 100:
            violations.append(msg)

    class_counts = {cls.value: 0 for cls in PathClass}
    orbit_histograms: dict[str, dict[int, int]] = {cls.value: {} for cls in PathClass}
    # Paths per sigma: of every path, and of every Q3 path and every fixed
    # point of Q1, Q2 and Q4.
    degrees = (h + n) * (k + n) + 1
    grand_counts = [0] * degrees
    fixed_counts_by_sigma = {cls: [0] * degrees for cls in PathClass}
    total_paths = 0
    # decompositions and sigmas of finished orbits' members that the
    # enumeration has not reached yet
    ahead: dict[Path, tuple[Decomposition, int]] = {}

    for path in enumerate_paths(h + n, k + n):
        total_paths += 1
        walked = ahead.pop(path, None)
        if walked is None:
            dec, s = decompose(path, frame), sigma(path)
        else:
            dec, s = walked
        cls = dec.path_class
        if s != _reassembled_sigma(dec):
            violate(f"sigma reassembly failed for {path_text(path)}")
        class_counts[cls.value] += 1
        grand_counts[s] += 1
        if cls is PathClass.Q3:
            fixed_counts_by_sigma[cls][s] += 1
            continue
        if walked is not None:
            continue
        try:
            members = _walk_orbit(path, dec, s, frame)
        except (AssertionError, ValueError) as exc:
            violate(str(exc))
            continue
        later = iter(members.items())
        next(later)
        ahead.update(later)
        size = len(members)
        hist = orbit_histograms[cls.value]
        hist[size] = hist.get(size, 0) + 1
        if n % size != 0:
            violate(f"orbit size {size} does not divide n at {path_text(path)}")
        if cls is PathClass.Q1:
            is_fixed_char = x_of(dec.hat) == 0
        elif cls is PathClass.Q2:
            is_fixed_char = y_of(dec.hat) == 0
        else:
            is_fixed_char = dec.tail.count(D) == n
        if (size == 1) != is_fixed_char:
            violate(f"fixed-point characterization failed at {path_text(path)} ({cls.value})")
        if size == 1:
            fixed_counts_by_sigma[cls][s] += 1
        elif not _orbit_sum_vanishes([t for _, t in members.values()], n):
            violate(f"orbit sum not divisible by Phi_{n} at {path_text(path)}")

    if total_paths != delannoy(h + n, k + n):
        violate(f"enumerated {total_paths} paths, expected delannoy({h + n},{k + n})")
    if sum(class_counts.values()) != total_paths:
        violate("classification is not a partition of the path set")
    fixed_counts = {cls.value: sum(counts) for cls, counts in fixed_counts_by_sigma.items()}

    dq_hk = q_delannoy_rec(h, k)
    dq_h_kn = q_delannoy_rec(h, k + n)
    dq_hn_k = q_delannoy_rec(h + n, k)
    s1, s2, s3, s4 = (IntPoly(fixed_counts_by_sigma[cls]) for cls in PathClass)

    if s1 != (dq_hn_k - dq_hk).shift(n * (h + n)):
        violate("fixed sum S1 differs from its closed form")
    if s2 != dq_h_kn - dq_hk.shift(n * h):
        violate("fixed sum S2 differs from its closed form")
    if s3 != (q_binomial(2 * n, n) * dq_hk).shift(n * h):
        violate("class sum S3 differs from its closed form")
    if s4 != dq_hk.shift(n * h + n * (n + 1) // 2):
        violate("fixed sum S4 differs from its closed form")
    if not congruent(s3, dq_hk * 2, n):
        violate("S3 does not reduce to twice the corner polynomial mod Phi_n")

    grand_total = IntPoly(grand_counts)
    sign = 1 if n % 2 else -1
    if not congruent(grand_total, dq_hn_k + dq_h_kn + dq_hk * sign, n):
        violate("grand total congruence failed")
    if grand_total != q_delannoy_rec(h + n, k + n):
        violate("grand total differs from the q-Delannoy polynomial")

    return AuditReport(
        h=h,
        k=k,
        n=n,
        total_paths=total_paths,
        class_counts=class_counts,
        orbit_histograms=orbit_histograms,
        fixed_counts=fixed_counts,
        sums={"S1": s1, "S2": s2, "S3": s3, "S4": s4},
        grand_total=grand_total,
        violations=violations,
    )
