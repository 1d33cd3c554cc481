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

Each action preserves its class, has period dividing n, and changes sigma
by an exact amount that is nonzero mod n away from the fixed points, which
is why every non-singleton orbit's q^sigma sum vanishes mod Phi_n.  The
audit verifies all of this exhaustively for one frame, plus the closed
forms of the four fixed-point sums.  `orbit` is the one orbit walker: it
raises AssertionError when a law breaks, and `audit` calls it once per
orbit, records any raise as a violation, and takes S1/S2/S4 from the
singleton orbits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .cyclotomic import congruent, reduce_mod
from .polyring import IntPoly
from .qcore import delannoy, q_binomial
from .qdelannoy import q_delannoy_rec
from .paths import (
    D,
    E,
    N,
    Path,
    enumerate_paths,
    path_points,
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


@dataclass(frozen=True)
class CornerFrame:
    """Corner (h,k) with anchor segments of length n; paths end at (h+n,k+n)."""

    h: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.h < 0 or self.k < 0:
            raise ValueError(f"corner must be in the first quadrant, got {(self.h, self.k)}")
        if self.n < 1:
            raise ValueError(f"segment length must be positive, got {self.n}")

    @property
    def corner(self) -> tuple[int, int]:
        return (self.h, self.k)

    @property
    def target(self) -> tuple[int, int]:
        return (self.h + self.n, self.k + self.n)

    def on_anchor(self, point: tuple[int, int]) -> bool:
        x, y = point
        if y == self.k and self.h <= x <= self.h + self.n:
            return True
        return x == self.h and self.k <= y <= self.k + self.n


@dataclass(frozen=True)
class Decomposition:
    """check + bar + hat; the bar may be a single anchor point (no steps)."""

    check: Path
    bar: Path
    hat: Path
    bar_start: tuple[int, int]
    bar_end: tuple[int, int]
    passes_corner: bool

    @property
    def tail(self) -> Path:
        """Everything after the corner; only meaningful for corner paths."""
        return self.bar + self.hat


@dataclass(frozen=True)
class BlockDecomposition:
    path_class: PathClass
    leading: Path
    blocks: tuple[Path, ...]


@dataclass(frozen=True)
class Orbit:
    members: tuple[Path, ...]
    size: int
    weight: IntPoly
    path_class: PathClass
    s_count: Optional[int]


def decompose(path: Path, frame: CornerFrame) -> Decomposition:
    """Split a path around its anchor stretch."""
    pts = path_points(path)
    if pts[-1] != frame.target:
        raise FrameError(f"path ends at {pts[-1]}, frame expects {frame.target}")
    for first, p in enumerate(pts):
        if frame.on_anchor(p):
            break
    else:
        raise AssertionError("every path to the far corner meets the anchor set")
    last = first
    while last + 1 < len(pts) and frame.on_anchor(pts[last + 1]):
        last += 1
    return Decomposition(
        check=path[:first],
        bar=path[first:last],
        hat=path[last:],
        bar_start=pts[first],
        bar_end=pts[last],
        passes_corner=pts[first] == frame.corner,
    )


def _classify(dec: Decomposition, frame: CornerFrame) -> PathClass:
    if dec.passes_corner:
        return PathClass.Q4 if D in dec.tail else PathClass.Q3
    if dec.bar_end[1] == frame.k:
        return PathClass.Q1
    return PathClass.Q2


def classify(path: Path, frame: CornerFrame) -> PathClass:
    """Total, single-valued class of a path in the frame."""
    return _classify(decompose(path, frame), frame)


def _split_on_leads(segment: Path, leads: tuple[str, str]) -> tuple[Path, tuple[Path, ...]]:
    """Cut a segment at its lead steps; anything before the first lead is the leading run."""
    leading: list[str] = []
    blocks: list[list[str]] = []
    for s in segment:
        if s in leads:
            blocks.append([s])
        elif blocks:
            blocks[-1].append(s)
        else:
            leading.append(s)
    return tuple(leading), tuple(tuple(b) for b in blocks)


def blocks(path: Path, frame: CornerFrame) -> BlockDecomposition:
    """Block structure feeding the cyclic action; rejects Q3 paths."""
    dec = decompose(path, frame)
    cls = _classify(dec, frame)
    return _blocks_of(dec, cls, frame)


def _blocks_of(dec: Decomposition, cls: PathClass, frame: CornerFrame) -> BlockDecomposition:
    if cls is PathClass.Q1:
        leading, parts = _split_on_leads(dec.hat, (N, D))
        if leading:
            raise AssertionError("a Q1 hat must open with a y-raising step")
    elif cls is PathClass.Q2:
        leading, parts = _split_on_leads(dec.hat, (E, D))
        if leading:
            raise AssertionError("a Q2 hat must open with an x-raising step")
    elif cls is PathClass.Q4:
        leading, parts = _split_on_leads(dec.tail, (E, D))
    else:
        raise ClassError("Q3 paths carry no block structure")
    if len(parts) != frame.n:
        raise AssertionError(f"expected {frame.n} blocks, found {len(parts)}")
    return BlockDecomposition(path_class=cls, leading=leading, blocks=parts)


def _rebuild(dec: Decomposition, cls: PathClass, bd: BlockDecomposition, parts: tuple[Path, ...]) -> Path:
    body: list[str] = list(bd.leading)
    for p in parts:
        body.extend(p)
    if cls is PathClass.Q4:
        return dec.check + tuple(body)
    return dec.check + dec.bar + tuple(body)


def _act_with_shift(dec: Decomposition, cls: PathClass, frame: CornerFrame) -> tuple[Path, int]:
    """Apply the class action once; also return the exact predicted sigma shift."""
    bd = _blocks_of(dec, cls, frame)
    parts = bd.blocks
    n = frame.n
    if cls is PathClass.Q4:
        labels = [p[0] for p in parts]
        shift = labels.count(D) - n * (labels[-1] == D)
        rotated_labels = [labels[-1]] + labels[:-1]
        new_parts = tuple((lab,) + p[1:] for lab, p in zip(rotated_labels, parts))
    else:
        last = parts[-1]
        if cls is PathClass.Q1:
            shift = n * x_of(last) - x_of(dec.hat)
        else:
            shift = y_of(dec.hat) - n * y_of(last)
        new_parts = (last,) + parts[:-1]
    return _rebuild(dec, cls, bd, new_parts), shift


def act(path: Path, frame: CornerFrame) -> Path:
    """One application of the cyclic action for the path's class."""
    dec = decompose(path, frame)
    return _act_with_shift(dec, _classify(dec, frame), frame)[0]


def _weight(sigmas: list[int]) -> IntPoly:
    if not sigmas:
        return IntPoly()
    counts = [0] * (max(sigmas) + 1)
    for s in sigmas:
        counts[s] += 1
    return IntPoly(counts)


def orbit(path: Path, frame: CornerFrame) -> Orbit:
    """Trajectory of a path under its action; the size always divides n.

    Each member is decomposed once.  Raises AssertionError when a step
    misses its predicted sigma shift or leaves the class, or when the
    action does not return to the path within n steps.
    """
    dec = decompose(path, frame)
    cls = _classify(dec, frame)
    if cls is PathClass.Q3:
        raise ClassError("Q3 paths carry no cyclic action")
    members = [path]
    sigmas = [sigma(path)]
    cur = dec
    while True:
        nxt, predicted = _act_with_shift(cur, cls, frame)
        s = sigma(nxt)
        if s - sigmas[-1] != predicted:
            raise AssertionError(f"sigma shift law failed at {path_text(members[-1])} ({cls.value})")
        if nxt == path:
            break
        if len(members) == frame.n:
            raise AssertionError(f"action not n-periodic at {path_text(path)} ({cls.value})")
        if nxt in members:
            raise AssertionError(f"orbits overlap at {path_text(nxt)} ({cls.value})")
        cur = decompose(nxt, frame)
        if _classify(cur, frame) is not cls:
            raise AssertionError(f"action left {cls.value} at {path_text(members[-1])}")
        members.append(nxt)
        sigmas.append(s)
    return Orbit(
        members=tuple(members),
        size=len(members),
        weight=_weight(sigmas),
        path_class=cls,
        s_count=dec.tail.count(D) if cls is PathClass.Q4 else None,
    )


# The partition convention the audit verifies.  Splitting corner paths off
# first (rather than by bar endpoints alone) is what makes all three actions
# class-closed; splitting Q1/Q2 by the bar's END point is what keeps
# corner-avoiding paths classifiable at all.
CLASSIFICATION_NOTE = (
    "corner paths split at the corner into Q3/Q4 by D-freeness of the tail; "
    "corner-avoiding paths go to Q1 or Q2 by the arm their bar ends on"
)


@dataclass
class AuditReport:
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
    """sigma of check+bar+hat from the parts and the concatenation law."""
    xc = x_of(dec.check)
    xb = x_of(dec.bar)
    return (
        sigma(dec.check)
        + sigma(dec.bar)
        + sigma(dec.hat)
        + xc * y_of(dec.bar)
        + (xc + xb) * y_of(dec.hat)
    )


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
    # sigma of every Q3 path, and of every fixed point of Q1, Q2 and Q4
    fixed_exponents: dict[PathClass, list[int]] = {cls: [] for cls in PathClass}
    grand_exponents: list[int] = []
    total_paths = 0
    # members of finished orbits that the enumeration has not reached yet
    ahead: set[Path] = set()

    for path in enumerate_paths(h + n, k + n):
        total_paths += 1
        dec = decompose(path, frame)
        s = sigma(path)
        if s != _reassembled_sigma(dec):
            violate(f"sigma reassembly failed for {path_text(path)}")
        cls = _classify(dec, frame)
        class_counts[cls.value] += 1
        grand_exponents.append(s)
        if cls is PathClass.Q3:
            fixed_exponents[cls].append(s)
            continue
        if path in ahead:
            ahead.remove(path)
            continue
        try:
            o = orbit(path, frame)
        except (AssertionError, ValueError) as exc:
            violate(str(exc))
            continue
        ahead.update(o.members[1:])
        hist = orbit_histograms[cls.value]
        hist[o.size] = hist.get(o.size, 0) + 1
        if n % o.size != 0:
            violate(f"orbit size {o.size} does not divide n at {path_text(path)}")
        if cls is PathClass.Q1:
            is_fixed_char = x_of(dec.hat) == 0
        elif cls is PathClass.Q2:
            is_fixed_char = y_of(dec.hat) == 0
        else:
            is_fixed_char = o.s_count == n
        if (o.size == 1) != is_fixed_char:
            violate(f"fixed-point characterization failed at {path_text(path)} ({cls.value})")
        if o.size == 1:
            fixed_exponents[cls].append(s)
        elif not reduce_mod(o.weight, n).is_zero():
            violate(f"orbit sum not divisible by Phi_{n} at {path_text(path)}")

    if total_paths != delannoy(h + n, k + n):
        violate(f"enumerated {total_paths} paths, expected delannoy({h + n},{k + n})")
    if sum(class_counts.values()) != total_paths:
        violate("classification is not a partition of the path set")
    fixed_counts = {cls.value: len(exps) for cls, exps in fixed_exponents.items()}

    dq_hk = q_delannoy_rec(h, k)
    dq_h_kn = q_delannoy_rec(h, k + n)
    dq_hn_k = q_delannoy_rec(h + n, k)
    s1, s2, s3, s4 = (_weight(fixed_exponents[cls]) for cls in PathClass)

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

    grand_total = _weight(grand_exponents)
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
