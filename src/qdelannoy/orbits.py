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
action rewrites the lead positions of the tail; `_act` checks the block
structure both rely on.

Each action preserves its class, has period dividing n, and changes sigma
by an exact amount that is nonzero mod n away from the fixed points, which
is why every non-singleton orbit's q^sigma sum vanishes mod Phi_n.  The
audit verifies all of this exhaustively for one frame, plus the closed
forms of the four fixed-point sums.  The enumeration scans, the action
predicts, and the audit checks each prediction when the image arrives.
The per-step kernel `_step` scans a path (check end, bar end, class, sigma
and sigma reassembled from the pieces), once per prefix-trie node in the
audit and over one path in `decompose` and `orbit`.  An action rewrites
only a path's segment (the tail for Q4, the hat for Q1/Q2) and keeps the
head before it, so `_act` acts on segments and the orbit walk, which scans
nothing, walks a segment.  The audit walks each segment once and builds
every orbit as its head plus each member segment, each member's scan
predicted from the walk and checked when the image arrives.  A scan that
misses its prediction breaks the shift law or class closure; a prediction
left over at the end, a path two orbits claim, and any LawError are
violations too.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator
from typing import NamedTuple, Optional

from .cyclotomic import congruent
from .polyring import IntPoly
from .qcore import delannoy, q_binomial
from .qdelannoy import q_delannoy_rec
from .residue import phi_test
from .paths import D, E, N, Path, path_text, x_of, y_of


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
        for name, value in zip(self._fields, self):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be int, got {value!r}")
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


Scan = tuple[int, int, PathClass, int]  # where the check ends, where the bar ends, class, sigma


def _start(h: int, k: int) -> tuple:
    """The `_step` state of the empty path; at h = k = 0 the origin is the corner."""
    return ((None, None, None) if h or k else (0, None, Q3)) + (0, 0, 0, 0, 0, None, 0, 0)


def _step(state: tuple, s: str, h: int, k: int) -> tuple:
    """Extend a path's scan by one step s, for the corner (h,k).

    The state is (first, last, class, sigma, reassembled, steps, x, y, arm,
    base, own_x), and its first four fields are the `Scan`.  The check ends
    at the first point with x >= h and y >= k, which lies on an arm: an open
    arm gives Q1 or Q2, and at the corner the next step picks the arm (a D
    leaves the bar empty); the class stays Q3 until a D in the hat (Q4).  The
    reassembled sigma sums the check's sigma, x(check) per north bar step,
    and per y-raising hat step the hat's own x plus `base`, its start x.
    """
    first, last, cls, total, reassembled, i, x, y, arm, base, own_x = state
    if last is None and first is not None and s != arm:
        if arm is None and s != D:
            arm = s
        else:
            last, base = i, x
    i += 1
    x += s != N
    if s != E:
        y += 1
        total += x
    if last is not None:
        own_x += s != N
        if s != E:
            reassembled += own_x + base
            if s == D and cls is Q3:
                cls = Q4
    elif first is None:
        if x >= h and y >= k:
            first, reassembled = i, total
            if x > h:
                cls, arm = Q1, E
            elif y > k:
                cls, arm = Q2, N
            else:
                cls = Q3
    elif s == N:
        reassembled += x
    return first, last, cls, total, reassembled, i, x, y, arm, base, own_x


def _scan(path: Path, frame: CornerFrame) -> tuple:
    """The `_step` state of one whole path."""
    h, k, n = frame
    end = (len(path) - path.count(N), len(path) - path.count(E))
    if end != frame.target:
        raise FrameError(f"path ends at {end}, frame expects {frame.target}")
    state = _start(h, k)
    for s in path:
        state = _step(state, s, h, k)
    return state


def _scan_trie(frame: CornerFrame) -> Iterator[tuple[Path, tuple]]:
    """Every path of the frame in `enumerate_paths` order, with its `_step` state.

    Depth first over the E -> N -> D prefix trie on an explicit stack: each
    trie node is one `_step` from its parent's state.
    """
    h, k, n = frame
    step = _step
    stack = [(_start(h, k), ())]
    while stack:
        state, path = stack.pop()
        x, y = state[6], state[7]
        if x < h + n:
            if y < k + n:
                stack.append((step(state, D, h, k), path + (D,)))
                stack.append((step(state, N, h, k), path + (N,)))
            stack.append((step(state, E, h, k), path + (E,)))
        elif y < k + n:
            stack.append((step(state, N, h, k), path + (N,)))
        else:
            yield path, state


def decompose(path: Path, frame: CornerFrame) -> Decomposition:
    """Split a path around its anchor stretch, and give its class."""
    first, last, cls = _scan(path, frame)[:3]
    return Decomposition(path[:first], path[first:last], path[last:], cls)


def _act(segment: Path, cls: PathClass, n: int) -> tuple[Path, int, int]:
    """Apply the class action (never to Q3) to a segment once.

    Returns the image, the image's bar end past the cut (0 for Q1/Q2), and
    the sigma shift.  A block is a lead step (any step but the run step)
    plus the run after it.  Raises LawError unless the segment has exactly
    n blocks and a Q1/Q2 hat opens with a lead.
    """
    run = E if cls is Q1 else N
    if cls is not Q4 and segment and segment[0] == run:
        raise LawError(f"a {cls.value} hat must open with {'a y' if cls is Q1 else 'an x'}-raising step")
    found = len(segment) - segment.count(run)
    if found != n:
        raise LawError(f"expected {n} blocks, found {found}")
    if cls is Q4:
        # Rotate the lead labels one place along the lead positions; only leads are D.
        leads = [i for i, t in enumerate(segment) if t != run]
        tail = list(segment)
        label = segment[leads[-1]]
        shift = segment.count(D) - n * (label == D)
        for i in leads:
            tail[i], label = label, tail[i]
        bar = 0  # the length of the run a Q4 tail opens with; a D opens none
        while tail[bar] == tail[0] != D:
            bar += 1
        return tuple(tail), bar, shift
    # Q1/Q2: the final block, from the last lead on, moves to the front of the hat.
    cut = len(segment) - 1
    while segment[cut] == run:
        cut -= 1
    block = segment[cut:]
    if cls is Q1:  # n * x(block) - x(hat), and y(hat) - n * y(block) for Q2
        shift = n * (len(block) - block.count(N)) - (len(segment) - segment.count(N))
    else:
        shift = len(segment) - segment.count(E) - n * (len(block) - block.count(E))
    return block + segment[:cut], 0, shift


def _mismatch(predicted: Scan, scanned: Scan, prev: Path) -> str:
    """The law broken at `prev` when its image's scan misses the prediction: sigma's shift, else class closure."""
    cls = predicted[2].value
    if predicted[3] != scanned[3]:
        return f"sigma shift law failed at {path_text(prev)} ({cls})"
    return f"action left {cls} at {path_text(prev)}"


def _weight(sigmas: list[int]) -> IntPoly:
    return sum((IntPoly.monomial(s) for s in sigmas), IntPoly())


def _cut(scan: Scan) -> int:
    """Where a path's segment starts: the check end for Q4, else the bar end."""
    return scan[0] if scan[2] is Q4 else scan[1]


def _walk_orbit(path: Path, scan: Scan, n: int) -> tuple[tuple[Path, ...], tuple[int, ...], tuple[int, ...]]:
    """The orbit of `path`'s segment: the member segments in action order,
    their bar ends past the cut and their sigma offsets from `path`.

    `scan` is the scan of `path`; the walk scans nothing.  Raises LawError
    when the action returns to the segment off its scan, does not return
    within n steps, or revisits a later member.
    """
    cls = scan[2]
    cut = _cut(scan)
    segment = path[cut:]
    segs, bars, ds = (segment,), (scan[1] - cut,), (0,)
    while True:
        image, bar, shift = _act(segs[-1], cls, n)
        d = ds[-1] + shift
        if image == segment:
            if (bar, d) != (bars[0], 0):
                raise LawError(_mismatch((scan[0], cut + bar, cls, scan[3] + d), scan, path[:cut] + segs[-1]))
            return segs, bars, ds
        if len(segs) == n:
            raise LawError(f"action not n-periodic at {path_text(path)} ({cls.value})")
        if image in segs:
            raise LawError(f"orbits overlap at {path_text(path[:cut] + image)} ({cls.value})")
        segs += (image,)
        bars += (bar,)
        ds += (d,)


def _images(path: Path, scan: Scan, segs: tuple[Path, ...], bars: tuple[int, ...], ds: tuple[int, ...]) -> dict:
    """The members after `path` of its orbit, each its head plus a member
    segment, mapped to its predicted scan and its predecessor."""
    first, _, cls, s = scan
    head, prev, images = path[:_cut(scan)], path, {}
    for j in range(1, len(segs)):
        member = head + segs[j]
        images[member] = (first, len(head) + bars[j], cls, s + ds[j]), prev
        prev = member
    return images


def orbit(path: Path, frame: CornerFrame) -> Orbit:
    """Trajectory of a path under its action; the size always divides n.

    Raises LawError when a law breaks, or a member's scan misses its prediction.
    """
    scan = _scan(path, frame)[:4]
    cls = scan[2]
    if cls is Q3:
        raise ClassError("Q3 paths carry no cyclic action")
    segs, bars, ds = _walk_orbit(path, scan, frame.n)
    images = _images(path, scan, segs, bars, ds)
    for member, (predicted, prev) in images.items():
        scanned = _scan(member, frame)[:4]
        if scanned != predicted:
            raise LawError(_mismatch(predicted, scanned, prev))
    weight = _weight([scan[3] + d for d in ds])
    return Orbit((path, *images), len(segs), weight, cls, path[scan[0]:].count(D) if cls is Q4 else None)


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
    # predictions for finished orbits' members that the enumeration has not
    # reached yet, each with the member the action was applied to
    ahead: dict[Path, tuple[Scan, Path]] = {}
    # Each (class, segment) is walked once, and every orbit is built from the
    # walk after its own head.  A kept walk adds n slots: slot s mod n holds
    # the orbit sum test of an orbit whose start has sigma s, once decided.
    # A Q4 head is a path to the corner, the only one when h or k is 0, so
    # those walks are not kept.
    walks: dict[PathClass, dict[Path, tuple]] = {Q1: {}, Q2: {}, Q4: {}}

    for path, state in _scan_trie(frame):
        total_paths += 1
        _, _, cls, s = scan = state[:4]
        if s != state[4]:
            violate(f"sigma reassembly failed for {path_text(path)}")
        counts[cls] += 1
        grand_counts[s] += 1
        walked = ahead.pop(path, None)
        if walked is not None and walked[0] != scan:
            violate(_mismatch(walked[0], scan, walked[1]))
        if cls is Q3:
            fixed_counts_by_sigma[cls][s] += 1
        if cls is Q3 or walked is not None:
            continue
        segment = path[_cut(scan):]
        walk = walks[cls].get(segment)
        if walk is None:
            try:
                walk = *_walk_orbit(path, scan, n), [None] * n
            except ValueError as exc:
                violate(str(exc))
                continue
            if cls is not Q4 or h and k:
                walks[cls][walk[0][0]] = walk  # the key shares the walk's copy of the segment
        segs, bars, ds, vanishes = walk
        images = _images(path, scan, segs, bars, ds)
        if not ahead.keys().isdisjoint(images):
            claimed = next(p for p in images if p in ahead)
            violate(f"orbits overlap at {path_text(claimed)} ({cls.value})")
            continue
        ahead.update(images)
        size = len(segs)
        hist = orbit_histograms[cls.value]
        hist[size] = hist.get(size, 0) + 1
        if n % size != 0:
            violate(f"orbit size {size} does not divide n at {path_text(path)}")
        if cls is Q1:
            is_fixed_char = x_of(segment) == 0
        elif cls is Q2:
            is_fixed_char = y_of(segment) == 0
        else:
            is_fixed_char = segment.count(D) == n
        if (size == 1) != is_fixed_char:
            violate(f"fixed-point characterization failed at {path_text(path)} ({cls.value})")
        if size == 1:
            fixed_counts_by_sigma[cls][s] += 1
            continue
        # The folded orbit sum depends only on the walk and s mod n.
        vanish = vanishes[s % n]
        if vanish is None:
            vanish = vanishes[s % n] = _orbit_sum_vanishes([s + d for d in ds], n)
        if not vanish:
            violate(f"orbit sum not divisible by Phi_{n} at {path_text(path)}")

    # An image left here fell outside the frame, or came before its orbit's start.
    for image, (predicted, prev) in ahead.items():
        violate(f"action image {path_text(image)} of {path_text(prev)} ({predicted[2].value}) never reached")
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

    sums = {"S1": s1, "S2": s2, "S3": s3, "S4": s4}
    return AuditReport(
        h, k, n, total_paths, class_counts, orbit_histograms, fixed_counts, sums, grand_total, violations
    )
