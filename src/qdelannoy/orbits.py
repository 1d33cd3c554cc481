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
action rewrites the lead positions of the tail; `_segment` checks the block
structure both rely on.

Each action preserves its class, has period dividing n, and changes sigma
by an exact amount that is nonzero mod n away from the fixed points, which
is why every non-singleton orbit's q^sigma sum vanishes mod Phi_n.  The
audit verifies all of this exhaustively for one frame, plus the closed
forms of the four fixed-point sums.  `orbit` and `audit` share one orbit
walk, which raises LawError when a law breaks.  The audit scans each path
once: one walk over its steps gives its decomposition, its sigma and its
sigma reassembled from the pieces.  The audit runs the orbit walk at the
first path of each orbit, keeps the walk's scan of every later member for
when the enumeration reaches it, records any raise as a violation, and
takes S1/S2/S4 from the singleton orbits.
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
    x_of,
    y_of,
)


class FrameError(ValueError):
    """A path does not fit the frame it is being decomposed against."""


class ClassError(ValueError):
    """An operation was applied to a path of the wrong class."""


class LawError(ValueError):
    """A cyclic action broke one of the laws the orbit argument relies on."""


class PathClass(enum.Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"

    # Members compare by identity, so they may hash by it too; Enum's own
    # __hash__ is a Python call on every dict access the audit makes per path.
    __hash__ = object.__hash__


# The members as module globals, so hot class tests skip the enum's class
# attribute lookup.
Q1, Q2, Q3, Q4 = PathClass


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


class Orbit(NamedTuple):
    members: tuple[Path, ...]
    size: int
    weight: IntPoly
    path_class: PathClass
    s_count: Optional[int]


def _scan(path: Path, frame: CornerFrame) -> tuple[Decomposition, int, int]:
    """Decomposition, sigma and reassembled sigma of a path, in one walk over its steps.

    sigma sums the global x of every y-raising step.  The reassembled sigma
    sums the check's and the hat's own sigma, each counted from the start of
    its piece, and adds the concatenation law's cross terms
    x(check)*y(bar) + (x(check) + x(bar))*y(hat); the bar is a run of E
    steps or of N steps, so its own sigma is 0.
    """
    h, k, n = frame
    size = len(path)
    if size - path.count(N) != h + n or size - path.count(E) != k + n:
        end = (size - path.count(N), size - path.count(E))
        raise FrameError(f"path ends at {end}, frame expects {frame.target}")
    x = y = total = first = 0
    # Steps raise x and y by at most one, so the first point with x >= h and
    # y >= k lies on an arm, and it comes before the end (h+n, k+n): this
    # walk stops inside the path.
    while x < h or y < k:
        s = path[first]
        first += 1
        if s != N:
            x += 1
        if s != E:
            y += 1
            total += x
    xc, reassembled = x, total
    # The bar is the run along the arm it starts on; at the corner the next
    # step picks the arm, and a D step leaves the bar empty.  From L_E the
    # path still has n rows to climb, and from L_N n columns to cross, so the
    # run stops inside the path and never passes the arm's end.
    last = first
    xb = yb = 0
    if y == k and (x > h or path[first] == E):
        while path[last] == E:
            last += 1
        xb = last - first
    elif x == h and (y > k or path[first] == N):
        while path[last] == N:
            last += 1
            total += x
        yb = last - first
    hat = path[last:]
    if x == h and y == k:
        path_class = Q4 if D in hat else Q3
    else:
        path_class = Q1 if y == k else Q2
    x += xb
    own_x = 0
    for s in hat:
        if s != N:
            x += 1
            own_x += 1
        if s != E:
            total += x
            reassembled += own_x
    reassembled += xc * yb + (xc + xb) * (len(hat) - hat.count(E))
    return Decomposition(path[:first], path[first:last], hat, path_class), total, reassembled


def decompose(path: Path, frame: CornerFrame) -> Decomposition:
    """Split a path around its anchor stretch, and give its class."""
    return _scan(path, frame)[0]


def _segment(dec: Decomposition, frame: CornerFrame) -> tuple[Path, str]:
    """The segment the class action permutes, and the step its blocks run on.

    A block is a lead step (any step but the run step) plus the run after it;
    anything before the first lead is the leading run.  Raises LawError
    unless the segment has exactly n blocks and a Q1/Q2 hat opens with a lead.
    The class is never Q3: `orbit` and `audit` turn Q3 paths away first.
    """
    cls = dec.path_class
    if cls is Q1:
        segment, run = dec.hat, E
        if segment and segment[0] == run:
            raise LawError("a Q1 hat must open with a y-raising step")
    elif cls is Q2:
        segment, run = dec.hat, N
        if segment and segment[0] == run:
            raise LawError("a Q2 hat must open with an x-raising step")
    else:
        segment, run = dec.tail, N
    found = len(segment) - segment.count(run)
    if found != frame.n:
        raise LawError(f"expected {frame.n} blocks, found {found}")
    return segment, run


def _act_with_shift(dec: Decomposition, frame: CornerFrame) -> tuple[Path, int]:
    """Apply the class action once; also return the exact predicted sigma shift."""
    segment, run = _segment(dec, frame)
    cls, n = dec.path_class, frame.n
    if cls is Q4:
        # Rotate the lead labels one place along the lead positions.
        leads = [i for i, s in enumerate(segment) if s != run]
        labels = [segment[i] for i in leads]
        shift = labels.count(D) - n * (labels[-1] == D)
        tail = list(segment)
        for i, label in zip(leads, labels[-1:] + labels[:-1]):
            tail[i] = label
        return dec.check + tuple(tail), shift
    # Q1/Q2: the final block, from the last lead on, moves to the front of the hat.
    cut = len(segment) - 1
    while segment[cut] == run:
        cut -= 1
    last = segment[cut:]
    if cls is Q1:
        shift = n * x_of(last) - x_of(segment)
    else:
        shift = y_of(segment) - n * y_of(last)
    return dec.check + dec.bar + last + segment[:cut], shift


def _weight(sigmas: list[int]) -> IntPoly:
    if not sigmas:
        return IntPoly()
    counts = [0] * (max(sigmas) + 1)
    for s in sigmas:
        counts[s] += 1
    return IntPoly(counts)


def _walk_orbit(
    path: Path, scanned: tuple[Decomposition, int, int], frame: CornerFrame
) -> dict[Path, tuple[Decomposition, int, int]]:
    """Every member of the orbit of `path`, in action order, with its `_scan` triple.

    `scanned` is the scan of `path` itself; each later member is scanned
    once, and the return to `path` needs no scan.  Raises LawError when a
    step misses its predicted sigma shift or leaves the class, or when the
    action does not return to the path within n steps.
    """
    dec, s, _ = scanned
    cls = dec.path_class
    members = {path: scanned}
    prev = path
    while True:
        nxt, predicted = _act_with_shift(dec, frame)
        seen = members.get(nxt)
        scanned = _scan(nxt, frame) if seen is None else seen
        t = scanned[1]
        if t - s != predicted:
            raise LawError(f"sigma shift law failed at {path_text(prev)} ({cls.value})")
        if nxt == path:
            return members
        if len(members) == frame.n:
            raise LawError(f"action not n-periodic at {path_text(path)} ({cls.value})")
        if seen is not None:
            raise LawError(f"orbits overlap at {path_text(nxt)} ({cls.value})")
        dec = scanned[0]
        if dec.path_class is not cls:
            raise LawError(f"action left {cls.value} at {path_text(prev)}")
        members[nxt] = scanned
        prev, s = nxt, t


def orbit(path: Path, frame: CornerFrame) -> Orbit:
    """Trajectory of a path under its action; the size always divides n.

    Raises LawError when a law of the action breaks.
    """
    scanned = _scan(path, frame)
    dec = scanned[0]
    cls = dec.path_class
    if cls is Q3:
        raise ClassError("Q3 paths carry no cyclic action")
    members = _walk_orbit(path, scanned, frame)
    return Orbit(
        members=tuple(members),
        size=len(members),
        weight=_weight([s for _, s, _ in members.values()]),
        path_class=cls,
        s_count=dec.tail.count(D) if cls is Q4 else None,
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

    counts = dict.fromkeys(PathClass, 0)
    orbit_histograms: dict[str, dict[int, int]] = {cls.value: {} for cls in PathClass}
    # Paths per sigma: of every path, and of every Q3 path and every fixed
    # point of Q1, Q2 and Q4.
    degrees = (h + n) * (k + n) + 1
    grand_counts = [0] * degrees
    fixed_counts_by_sigma = {cls: [0] * degrees for cls in PathClass}
    total_paths = 0
    # scans of finished orbits' members that the enumeration has not reached yet
    ahead: dict[Path, tuple[Decomposition, int, int]] = {}

    for path in enumerate_paths(h + n, k + n):
        total_paths += 1
        walked = ahead.pop(path, None)
        scanned = _scan(path, frame) if walked is None else walked
        dec, s, reassembled = scanned
        if s != reassembled:
            violate(f"sigma reassembly failed for {path_text(path)}")
        cls = dec.path_class
        counts[cls] += 1
        grand_counts[s] += 1
        if cls is Q3:
            fixed_counts_by_sigma[cls][s] += 1
            continue
        if walked is not None:
            continue
        try:
            members = _walk_orbit(path, scanned, frame)
        except ValueError as exc:
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
        if cls is Q1:
            is_fixed_char = x_of(dec.hat) == 0
        elif cls is Q2:
            is_fixed_char = y_of(dec.hat) == 0
        else:
            is_fixed_char = dec.tail.count(D) == n
        if (size == 1) != is_fixed_char:
            violate(f"fixed-point characterization failed at {path_text(path)} ({cls.value})")
        if size == 1:
            fixed_counts_by_sigma[cls][s] += 1
        elif not _orbit_sum_vanishes([t for _, t, _ in members.values()], n):
            violate(f"orbit sum not divisible by Phi_{n} at {path_text(path)}")

    if total_paths != delannoy(h + n, k + n):
        violate(f"enumerated {total_paths} paths, expected delannoy({h + n},{k + n})")
    class_counts = {cls.value: c for cls, c in counts.items()}
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
