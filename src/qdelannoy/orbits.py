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
forms of the four fixed-point sums.

The audit cuts every path where its action starts: at the corner for Q3/Q4
(the segment is the tail) and at the bar end for Q1/Q2 (the segment is the
hat).  There are at most 2n+1 cut points, the corner and the n points of
each open arm.  A head is a path to the corner, or a path to an open-arm
point that avoids the corner.  A segment is a path from the cut point to
the target, except one that goes on along the arm from an open-arm point,
and every head joins every segment from its cut point.  Since
sigma(head + segment) = sigma(head) + sigma(segment) + x(head)*y(segment),
and y(segment) is fixed at a cut point, every count and sum of the report
is the heads' sigma counts (`_heads`) convolved with the segments' (from
`paths.walk`).  The heads come from one `paths.sigma_counts` box, to the
target: an open-arm point's heads are its paths less those through the
corner.  An action rewrites the segment alone, so the audit walks each
segment orbit once per cut point (`_orbit`), whatever the head, and checks
every member it predicts when the segment stream reaches it.  A head
multiplies an orbit sum by a power of q, a unit mod Phi_n, so the Phi_n
test reads segment sigmas only.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .cyclotomic import congruent
from .polyring import IntPoly, ZERO
from .qcore import delannoy, q_binomial
from .qdelannoy import q_delannoy_rec
from .residue import phi_test
from .paths import D, E, N, Path, path_text, sigma_counts, walk, x_of, y_of


class FrameError(ValueError):
    """A path does not fit the frame it is being decomposed against."""


class LawError(ValueError):
    """A cyclic action broke one of the laws the orbit argument relies on."""


# The four path classes, named as the report prints them.
Q1, Q2, Q3, Q4 = "Q1", "Q2", "Q3", "Q4"


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
    path_class: str

    @property
    def tail(self) -> Path:
        """Everything after the corner; only meaningful for corner paths."""
        return self.bar + self.hat


def decompose(path: Path, frame: CornerFrame) -> Decomposition:
    """Split a path around its anchor stretch, and give its class.

    The check ends at the first point with x >= h and y >= k, which lies on
    an arm: an open arm gives Q1 or Q2, and at the corner the first step of
    the tail picks the arm (a D leaves the bar empty).
    """
    h, k, n = frame
    end = (x_of(path), y_of(path))
    if end != frame.target:
        raise FrameError(f"path ends at {end}, frame expects {frame.target}")
    x = y = first = 0
    while x < h or y < k:
        x += path[first] != N
        y += path[first] != E
        first += 1
    if x > h:
        cls, run = Q1, E
    elif y > k:
        cls, run = Q2, N
    else:
        cls, run = Q4 if D in path[first:] else Q3, path[first]
    last = first
    while last < len(path) and path[last] == run != D:
        last += 1
    return Decomposition(path[:first], path[first:last], path[last:], cls)


def _heads(h: int, k: int, n: int) -> dict[tuple[int, int], IntPoly]:
    """Every cut point's heads as the sum of q^sigma over them, from one `sigma_counts` box.

    Every path to the corner is a head.  A path to an open-arm point that
    meets the corner goes on from it along the arm, by E steps that add 0
    to sigma or by N steps at x = h that add h each.  So an open arm's
    heads are the paths to its point less those through the corner.  The
    counts come from path enumeration, never from `q_delannoy_rec`, which
    the audit checks its sums against.
    """
    box = sigma_counts(h + n, k + n)
    corner = box[h][k]
    return {
        (h, k): corner,
        **{(h + i, k): box[h + i][k] - corner for i in range(1, n + 1)},
        **{(h, k + i): box[h][k + i] - corner.shift(h * i) for i in range(1, n + 1)},
    }


def _act(segment: Path, cls: str, n: int) -> tuple[Path, int]:
    """Apply the class action (never to Q3) to a segment once.

    Returns the image and the sigma shift.  A block is a lead step (any
    step but the run step) plus the run after it.  Raises LawError unless
    the segment has exactly n blocks and a Q1/Q2 hat opens with a lead.
    """
    run = E if cls == Q1 else N
    if cls != Q4 and segment and segment[0] == run:
        raise LawError(f"a {cls} hat must open with {'a y' if cls == Q1 else 'an x'}-raising step")
    found = len(segment) - segment.count(run)
    if found != n:
        raise LawError(f"expected {n} blocks, found {found}")
    if cls == Q4:
        # Rotate the lead labels one place along the lead positions; only leads are D.
        leads = [i for i, t in enumerate(segment) if t != run]
        tail = list(segment)
        label = segment[leads[-1]]
        shift = segment.count(D) - n * (label == D)
        for i in leads:
            tail[i], label = label, tail[i]
        return tuple(tail), shift
    # Q1/Q2: the final block, from the last lead on, moves to the front of the hat.
    cut = len(segment) - 1
    while segment[cut] == run:
        cut -= 1
    block = segment[cut:]
    if cls == Q1:  # n * x(block) - x(hat), and y(hat) - n * y(block) for Q2
        shift = n * (len(block) - block.count(N)) - (len(segment) - segment.count(N))
    else:
        shift = len(segment) - segment.count(E) - n * (len(block) - block.count(E))
    return block + segment[:cut], shift


def _orbit(segment: Path, cls: str, n: int) -> tuple[list[Path], list[int]]:
    """A segment's orbit: its members in action order, and their sigma offsets from it.

    Raises LawError when the action returns to the segment with shifts that
    do not sum to 0, does not return within n steps, or revisits a member.
    """
    members, offsets = [segment], [0]
    while True:
        image, shift = _act(members[-1], cls, n)
        offset = offsets[-1] + shift
        if image == segment:
            if offset:
                raise LawError("sigma shift law failed")
            return members, offsets
        if len(members) == n:
            raise LawError("action not n-periodic")
        if image in members:
            raise LawError("orbits overlap")
        members.append(image)
        offsets.append(offset)


def _orbit_sum_vanishes(sigmas: list[int], n: int, test: tuple[int, Callable[[int, int], bool]]) -> bool:
    """Whether the sum of q^sigma is 0 mod Phi_n.

    Exponents fold mod n first: Phi_n divides q^n - 1, so q^s and q^(s mod n)
    agree mod Phi_n.  The folded counts are packed into n slots and decided
    by `test`, which is `residue.phi_test(n, n)`, with no division: an orbit
    has at most n members, so no count exceeds n.
    """
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
    passes every check.  A broken action law names the segment and its cut
    point.
    """
    h, k, n = frame.h, frame.k, frame.n
    violations: list[str] = []

    def violate(msg: str) -> None:
        if len(violations) < 100:
            violations.append(msg)

    def at(segment: Path) -> str:
        """The segment and the cut point (x, y) whose stream is being audited."""
        return f"{path_text(segment)} from ({x},{y})"

    counts = dict.fromkeys((Q1, Q2, Q3, Q4), 0)
    orbit_histograms: dict[str, dict[int, int]] = {cls: {} for cls in counts}
    # The sums of q^sigma over every Q3 path and every fixed point of Q1, Q2 and Q4.
    fixed_sums = dict.fromkeys(counts, ZERO)
    grand_total = ZERO
    phi = phi_test(n, n)

    for (x, y), head in _heads(h, k, n).items():
        heads = sum(head.coeffs)
        if not heads:
            continue
        dx, dy = h + n - x, k + n - y
        arm, run = (Q1, E) if x > h else (Q2, N) if y > k else (None, None)
        every = [0] * (dx * dy + 1)
        fixed = {cls: [0] * (dx * dy + 1) for cls in counts}
        # predicted sigmas of the members of walked orbits not reached yet
        ahead: dict[Path, int] = {}
        for segment, s in walk(dx, dy):
            if segment[0] == run:  # the bar goes on to a later cut point
                continue
            cls = arm or (Q4 if D in segment else Q3)
            counts[cls] += heads
            every[s] += 1
            predicted = ahead.pop(segment, None)
            if predicted is not None:
                if cls == Q3:
                    violate(f"action left Q4 at {at(segment)}")
                elif predicted != s:
                    violate(f"sigma shift law failed at {at(segment)} ({cls})")
                continue
            if cls == Q3:
                fixed[cls][s] += 1
                continue
            try:
                members, offsets = _orbit(segment, cls, n)
            except LawError as exc:
                violate(f"{exc} at {at(segment)} ({cls})")
                continue
            images = {member: s + d for member, d in zip(members[1:], offsets[1:])}
            if not ahead.keys().isdisjoint(images):
                claimed = next(member for member in images if member in ahead)
                violate(f"orbits overlap at {at(claimed)} ({cls})")
                continue
            ahead.update(images)
            size = len(members)
            hist = orbit_histograms[cls]
            hist[size] = hist.get(size, 0) + heads
            if n % size != 0:
                violate(f"orbit size {size} does not divide n at {at(segment)}")
            # A fixed point: a Q1 hat with no x step, a Q2 hat with no y step, a Q4 tail of n D steps.
            free = x_of(segment) if cls == Q1 else y_of(segment) if cls == Q2 else n - segment.count(D)
            if (size == 1) != (free == 0):
                violate(f"fixed-point characterization failed at {at(segment)} ({cls})")
            if size == 1:
                fixed[cls][s] += 1
            elif not _orbit_sum_vanishes([s + d for d in offsets], n, phi):
                violate(f"orbit sum not divisible by Phi_{n} at {at(segment)}")

        # An image left here fell outside the frame, or came before its orbit's start.
        for image in ahead:
            violate(f"action image {at(image)} ({arm or Q4}) never reached")
        # Every head to (x, y) raises sigma by x * dy on each segment from it.
        grand_total += (head * IntPoly(every)).shift(x * dy)
        for cls in counts:
            fixed_sums[cls] += (head * IntPoly(fixed[cls])).shift(x * dy)

    total_paths = sum(counts.values())
    if total_paths != delannoy(h + n, k + n):
        violate(f"enumerated {total_paths} paths, expected delannoy({h + n},{k + n})")
    fixed_counts = {cls: sum(p.coeffs) for cls, p in fixed_sums.items()}

    dq_hk = q_delannoy_rec(h, k)
    dq_h_kn = q_delannoy_rec(h, k + n)
    dq_hn_k = q_delannoy_rec(h + n, k)
    s1, s2, s3, s4 = fixed_sums.values()

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

    sign = 1 if n % 2 else -1
    if not congruent(grand_total, dq_hn_k + dq_h_kn + dq_hk * sign, n):
        violate("grand total congruence failed")
    if grand_total != q_delannoy_rec(h + n, k + n):
        violate("grand total differs from the q-Delannoy polynomial")

    sums = {"S1": s1, "S2": s2, "S3": s3, "S4": s4}
    return AuditReport(
        h, k, n, total_paths, counts, orbit_histograms, fixed_counts, sums, grand_total, violations
    )
