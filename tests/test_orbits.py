import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from reference import path_points, poly_from_json
from qdelannoy.cyclotomic import congruent, reduce_mod
from qdelannoy.polyring import IntPoly
from qdelannoy.qcore import q_binomial
from qdelannoy.qdelannoy import q_delannoy_rec
import qdelannoy.orbits as orbits_module
from qdelannoy.orbits import (
    CornerFrame,
    FrameError,
    LawError,
    PathClass,
    audit,
    decompose,
)
from qdelannoy.paths import enumerate_paths, path_text, sigma, x_of, y_of
from qdelannoy.residue import phi_test


def _cut(dec):
    """Where a path's segment starts: the check end for Q3/Q4, else the bar end."""
    return len(dec.check) if dec.path_class in (PathClass.Q3, PathClass.Q4) else len(dec.check + dec.bar)


def _cut_point(segment, frame):
    """The cut point a segment starts from; its displacement fixes it."""
    x, y = frame.target
    return x - x_of(segment), y - y_of(segment)


def _orbit(path, frame):
    """The orbit of `path` as the audit builds it, and its members' sigmas.

    The walk of the path's segment gives the member segments and their
    sigma offsets; each member, the path's head plus a member segment, must
    keep the class and the cut and have its predicted sigma.  Raises
    LawError when the walk breaks a law or a member misses.
    """
    dec = decompose(path, frame)
    cls, cut = dec.path_class, _cut(dec)
    segments, offsets = orbits_module._orbit(path[cut:], cls, frame.n)
    members = tuple(path[:cut] + segment for segment in segments)
    sigmas = [sigma(path) + d for d in offsets]
    for member, s in zip(members, sigmas):
        image = decompose(member, frame)
        if image.path_class is not cls or _cut(image) != cut:
            raise LawError(f"action left {cls.value} at {path_text(member)}")
        if sigma(member) != s:
            raise LawError(f"sigma shift law failed at {path_text(member)}")
    return members, sigmas


def _streams(frame):
    """Each cut point's segments, in the order the audit streams them."""
    h, k, n = frame
    streams = {}
    for x, y in orbits_module._heads(h, k, n):
        run = "E" if x > h else "N" if y > k else None
        streams[x, y] = [seg for seg, _ in orbits_module.walk(h + n - x, k + n - y) if seg[0] != run]
    return streams


def _weight(sigmas):
    return sum((IntPoly.monomial(s) for s in sigmas), IntPoly())


# ---------------------------------------------------------------------------
# Frames and decomposition
# ---------------------------------------------------------------------------

def test_frame_validation():
    with pytest.raises(ValueError):
        CornerFrame(-1, 0, 2)
    with pytest.raises(ValueError):
        CornerFrame(0, 0, 0)


def test_decompose_single_point_bar():
    # trace: (0,0),(1,0),(2,1),(2,2),(2,3),(3,3); only (2,1) is on the anchors
    dec = decompose(tuple("EDNNE"), CornerFrame(1, 1, 2))
    assert path_text(dec.check) == "ED"
    assert dec.bar == ()
    assert path_text(dec.hat) == "NNE"
    assert (x_of(dec.check), y_of(dec.check)) == (2, 1)
    assert (x_of(dec.check + dec.bar), y_of(dec.check + dec.bar)) == (2, 1)
    assert dec.path_class is PathClass.Q1


def test_decompose_corner_split():
    dec = decompose(tuple("EDD"), CornerFrame(1, 0, 2))
    assert dec.path_class is PathClass.Q4
    assert path_text(dec.check) == "E"
    assert path_text(dec.tail) == "DD"


def test_decompose_bar_with_steps():
    # runs along the east anchor from (1,1) before climbing
    dec = decompose(tuple("DEENN"), CornerFrame(1, 1, 2))
    assert dec.path_class is PathClass.Q3
    assert path_text(dec.check) == "D"
    assert path_text(dec.bar) == "EE"
    assert path_text(dec.hat) == "NN"
    assert (x_of(dec.check), y_of(dec.check)) == (1, 1)
    assert (x_of(dec.check + dec.bar), y_of(dec.check + dec.bar)) == (3, 1)


def test_decompose_rejects_wrong_endpoint():
    with pytest.raises(FrameError):
        decompose(tuple("EN"), CornerFrame(1, 1, 2))


# Every frame with h,k <= 3 and n <= 4, plus (2,2,5), by segment length n.
ORACLE_FRAMES = {n: [(h, k) for h in range(4) for k in range(4)] for n in range(1, 5)} | {5: [(2, 2)]}


@pytest.mark.parametrize("n", sorted(ORACLE_FRAMES))
def test_decompose_and_act_match_reference(n):
    for h, k in ORACLE_FRAMES[n]:
        frame = CornerFrame(h, k, n)
        for path in enumerate_paths(h + n, k + n):
            dec = decompose(path, frame)
            assert dec == reference.decompose(path, frame), path_text(path)
            if dec.path_class is PathClass.Q3:
                continue
            cut = _cut(dec)
            segment, shift = orbits_module._act(path[cut:], dec.path_class, n)
            # The reference rebuilds the whole path, so it also checks that
            # the action keeps the head.
            image = path[:cut] + segment
            assert (image, shift) == reference.act_with_shift(dec, frame), path_text(path)
            # The shift is sigma's exact change, and the image keeps the
            # class and the cut.
            assert sigma(image) - sigma(path) == shift, path_text(path)
            assert decompose(image, frame).path_class is dec.path_class, path_text(path)
            assert _cut(decompose(image, frame)) == cut, path_text(path)


def test_heads_and_segments_match_reference():
    # Every path is a head to its cut point plus a segment from it.  The
    # heads' sigma counts and each cut point's segment stream must match what
    # the reference decomposition cuts out of every path, and sigma must obey
    # the concatenation law over head and segment.
    for n, corners in ORACLE_FRAMES.items():
        for h, k in corners:
            frame = CornerFrame(h, k, n)
            heads, segments = {}, {}
            for path in enumerate_paths(h + n, k + n):
                dec = reference.decompose(path, frame)
                cut = _cut(dec)
                head, segment = path[:cut], path[cut:]
                point = (x_of(head), y_of(head))
                heads.setdefault(point, set()).add(head)
                segments.setdefault(point, set()).add(segment)
                assert sigma(path) == sigma(head) + sigma(segment) + x_of(head) * y_of(segment)
            counted = orbits_module._heads(h, k, n)
            assert set(heads) <= set(counted) and len(counted) == 2 * n + 1
            streams = _streams(frame)
            for (x, y), counts in counted.items():
                expected = [0] * (x * y + 1)
                for head in heads.get((x, y), ()):
                    expected[sigma(head)] += 1
                assert counts.coeffs == IntPoly(expected).coeffs, (frame, x, y)
                if (x, y) in segments:
                    assert set(streams[x, y]) == segments[x, y], (frame, x, y)
            for (x, y), stream in streams.items():
                dx, dy, run = h + n - x, k + n - y, "E" if x > h else "N" if y > k else None
                assert stream == [p for p in reference.enumerate_paths(dx, dy) if p[0] != run], (frame, x, y)


def test_reassembly_covers_whole_path():
    frame = CornerFrame(1, 1, 2)
    for text in ("EDNNE", "DEENN", "ENDEN", "NNNEEE"):
        dec = decompose(tuple(text), frame)
        assert dec.check + dec.bar + dec.hat == tuple(text)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert decompose(tuple("EDNNE"), CornerFrame(1, 1, 2)).path_class is PathClass.Q1
    assert decompose(tuple("EDD"), CornerFrame(1, 0, 2)).path_class is PathClass.Q4
    assert decompose(tuple("EN"), CornerFrame(0, 0, 1)).path_class is PathClass.Q3


def test_classify_q2():
    # trace: (0,0),(0,1),(1,2),(1,3),(2,3),(3,3); bar is the north run (1,2)-(1,3)
    assert decompose(tuple("NDNEE"), CornerFrame(1, 1, 2)).path_class is PathClass.Q2


def test_classify_origin_corner_sends_everything_to_q3_q4():
    frame = CornerFrame(0, 0, 2)
    for path in enumerate_paths(2, 2):
        assert decompose(path, frame).path_class in (PathClass.Q3, PathClass.Q4)


def test_degenerate_frames_empty_classes():
    frame = CornerFrame(1, 0, 2)  # k=0: no corner-avoiding path reaches the east arm
    classes = {decompose(p, frame).path_class for p in enumerate_paths(3, 2)}
    assert PathClass.Q1 not in classes
    frame = CornerFrame(0, 1, 2)  # h=0: mirror case
    classes = {decompose(p, frame).path_class for p in enumerate_paths(2, 3)}
    assert PathClass.Q2 not in classes


def test_classes_are_total_and_disjoint():
    # From the point list alone: a corner path is Q4 exactly when a D follows
    # the corner; any other path meets exactly one open arm, and the east arm
    # makes it Q1.
    for n in range(1, 4):
        for h in range(3):
            for k in range(3):
                frame = CornerFrame(h, k, n)
                for path in enumerate_paths(h + n, k + n):
                    points = path_points(path)
                    cls = decompose(path, frame).path_class
                    if (h, k) in points:
                        after_corner = path[points.index((h, k)):]
                        assert cls is (PathClass.Q4 if "D" in after_corner else PathClass.Q3)
                        continue
                    east = any(y == k and h < x <= h + n for x, y in points)
                    north = any(x == h and k < y <= k + n for x, y in points)
                    assert east != north, path_text(path)
                    assert cls is (PathClass.Q1 if east else PathClass.Q2), path_text(path)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_blocks_q4_with_leading_north_run():
    # corner (1,0); the tail N D E is a leading north run, then the blocks D
    # and E: the action swaps their labels and leaves the north run in place
    frame = CornerFrame(1, 0, 2)
    assert decompose(tuple("ENDE"), frame).path_class is PathClass.Q4
    members, _ = _orbit(tuple("ENDE"), frame)
    assert [path_text(m) for m in members] == ["ENDE", "ENED"]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def test_act_q1_example():
    frame = CornerFrame(1, 1, 2)
    before = tuple("EDNNE")
    (_, after), _ = _orbit(before, frame)
    assert path_text(after) == "EDNEN"
    assert sigma(before) == 6 and sigma(after) == 7
    # exact shift law: n*x(last block) - x(hat) = 2*1 - 1
    assert sigma(after) - sigma(before) == 1


def test_act_fixed_points():
    assert _orbit(tuple("EDD"), CornerFrame(1, 0, 2))[0] == (tuple("EDD"),)  # all-diagonal tail
    assert _orbit(tuple("NDNEE"), CornerFrame(1, 1, 2))[0] == (tuple("NDNEE"),)  # all-east hat


def test_act_preserves_class_and_has_period_n():
    # Each member's orbit is the same cycle, started one action later: the
    # action maps members[i] to members[i + 1], and the last back to the first.
    frame = CornerFrame(1, 1, 3)
    for path in enumerate_paths(4, 4):
        cls = decompose(path, frame).path_class
        if cls is PathClass.Q3:
            continue
        members, _ = _orbit(path, frame)
        assert members[0] == path and frame.n % len(members) == 0
        for i, member in enumerate(members):
            assert decompose(member, frame).path_class is cls
            assert _orbit(member, frame)[0] == members[i:] + members[:i]


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def test_orbit_q1_pair():
    members, sigmas = _orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))
    assert len(members) == 2
    assert sigmas == [6, 7]
    assert reduce_mod(_weight(sigmas), 2).is_zero()


def test_orbit_fixed_point():
    frame = CornerFrame(1, 0, 2)
    members, sigmas = _orbit(tuple("EDD"), frame)
    assert len(members) == 1
    assert sigmas == [sigma(tuple("EDD"))]
    assert decompose(tuple("EDD"), frame).tail.count("D") == 2


def test_orbit_q4_mixed_labels():
    # tail D then E from the corner (1,0): labels rotate with period 2
    frame = CornerFrame(1, 0, 2)
    dec = decompose(tuple("EDNE"), frame)
    assert dec.path_class is PathClass.Q4
    assert dec.tail.count("D") == 1
    members, sigmas = _orbit(tuple("EDNE"), frame)
    assert len(members) == 2
    assert reduce_mod(_weight(sigmas), 2).is_zero()


def test_orbit_rejects_q3(monkeypatch):
    # Q3 paths carry no action: the audit walks none of their tails, and the
    # reference finds no blocks to rotate.
    frame = CornerFrame(1, 1, 2)
    walked = _count_walks(monkeypatch)
    assert audit(frame).ok
    assert walked and all(cls is not PathClass.Q3 for _, cls in walked)
    assert all("D" in segment for segment, cls in walked if cls is PathClass.Q4)
    with pytest.raises(ValueError, match="Q3 paths carry no block structure"):
        reference.blocks(decompose(tuple("EN"), CornerFrame(0, 0, 1)), CornerFrame(0, 0, 1))


def test_orbit_sizes_divide_n_and_sums_vanish():
    frame = CornerFrame(0, 1, 4)
    seen = set()
    for path in enumerate_paths(4, 5):
        if path in seen or decompose(path, frame).path_class is PathClass.Q3:
            continue
        members, sigmas = _orbit(path, frame)
        seen.update(members)
        assert frame.n % len(members) == 0
        if len(members) > 1:
            assert reduce_mod(_weight(sigmas), frame.n).is_zero()


def test_orbit_raises_when_a_law_breaks(monkeypatch):
    act = orbits_module._act

    # With no shift the walk closes, and the member EDNEN misses its sigma.
    def no_shift(segment, cls, n):
        return act(segment, cls, n)[0], 0

    monkeypatch.setattr(orbits_module, "_act", no_shift)
    with pytest.raises(LawError, match="sigma shift law failed at EDNEN"):
        _orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    # Shifts of 2 and 0 around a 2-cycle do not sum to 0.
    def wrong_shift(segment, cls, n):
        image, shift = act(segment, cls, n)
        return image, shift + 1

    monkeypatch.setattr(orbits_module, "_act", wrong_shift)
    with pytest.raises(LawError, match="sigma shift law failed"):
        _orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    # an action that sends every hat to NEN (EDNNE to EDNEN), with an honest
    # shift, never returns
    def stuck(segment, cls, n):
        return tuple("NEN"), 1

    monkeypatch.setattr(orbits_module, "_act", stuck)
    with pytest.raises(LawError, match="not n-periodic"):
        _orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    # with n = 3 the walk meets the hat NENEE again before its n-th step
    monkeypatch.setattr(orbits_module, "_act", lambda segment, cls, n: (tuple("NENEE"), 1))
    with pytest.raises(LawError, match="orbits overlap"):
        _orbit(tuple("EDNNNEE"), CornerFrame(1, 1, 3))


def test_audit_lets_an_unrelated_assertion_error_through(monkeypatch):
    def broken(segment, cls, n):
        raise AssertionError("not a law of the action")

    monkeypatch.setattr(orbits_module, "_act", broken)
    with pytest.raises(AssertionError, match="not a law of the action"):
        orbits_module.audit(CornerFrame(1, 1, 2))


def test_orbit_action_invariants_on_random_frames():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def frame_paths(draw):
        frame = CornerFrame(draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 7)))
        x, y = frame.target
        j = draw(st.integers(0, min(x, y)))
        path = draw(st.permutations(["E"] * (x - j) + ["N"] * (y - j) + ["D"] * j))
        return frame, tuple(path)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(frame_paths())
    def invariants(case):
        frame, path = case
        cls = decompose(path, frame).path_class
        hypothesis.assume(cls is not PathClass.Q3)
        members, sigmas = _orbit(path, frame)
        assert frame.n % len(members) == 0
        assert all(decompose(m, frame).path_class is cls for m in members)
        if len(members) > 1:
            assert reduce_mod(_weight(sigmas), frame.n).is_zero()
        # the action takes the last member back to the path
        assert _orbit(members[-1], frame)[0] == members[-1:] + members[:-1]

    invariants()


def test_folded_orbit_sum_matches_full_reduction(monkeypatch):
    folded_decision = orbits_module._orbit_sum_vanishes
    decided = []

    def both_ways(sigmas, n, test):
        folded = folded_decision(sigmas, n, test)
        assert folded == reduce_mod(_weight(sigmas), n).is_zero()
        decided.append(folded)
        return folded

    monkeypatch.setattr(orbits_module, "_orbit_sum_vanishes", both_ways)
    for n in range(1, 6):
        for h in range(3):
            for k in range(3):
                assert orbits_module.audit(CornerFrame(h, k, n)).ok
    assert decided and all(decided)


def test_folded_orbit_sum_keeps_nonvanishing_weights():
    def vanishes(sigmas, n):
        return orbits_module._orbit_sum_vanishes(sigmas, n, phi_test(n, n))

    assert not vanishes([0, 1], 3)  # 1 + q
    assert not vanishes([4, 7], 3)  # folds onto 2q
    assert vanishes([0, 1, 2], 3)
    assert vanishes([6, 7, 8, 9], 4)  # q^6(1 + q + q^2 + q^3)


def test_audit_reports_orbit_sum_that_does_not_vanish(monkeypatch):
    # Pair the first Q4 tail from the corner (1,1), the first segment the
    # audit walks, with a later one whose sigma differs by 2: 1 + q^2 is 2
    # mod Phi_2.
    frame = CornerFrame(1, 1, 2)
    tails = [(seg, s) for seg, s in orbits_module.walk(2, 2) if "D" in seg]
    (x, sx), (y, sy) = tails[0], next(t for t in tails[1:] if abs(t[1] - tails[0][1]) == 2)
    d = sy - sx
    act = orbits_module._act

    def swap(segment, cls, n):
        if segment in (x, y):
            return (y, d) if segment == x else (x, -d)
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", swap)
    report = orbits_module.audit(frame)
    assert f"orbit sum not divisible by Phi_2 at {path_text(x)} from (1,1)" in report.violations


# ---------------------------------------------------------------------------
# Fixed-point sums
# ---------------------------------------------------------------------------

def test_fixed_point_sums_smallest_frame():
    sums = audit(CornerFrame(0, 0, 1)).sums
    assert sums["S1"].is_zero() and sums["S2"].is_zero()
    assert sums["S3"] == IntPoly([1, 1])
    assert sums["S4"] == IntPoly.monomial(1)


def test_fixed_point_sums_q4_extra():
    sums = audit(CornerFrame(1, 1, 2)).sums
    assert sums["S4"] == q_delannoy_rec(1, 1).shift(5)  # q^(nh + n(n+1)/2) = q^5


def test_fixed_point_sums_empty_q1_when_k_zero():
    sums = audit(CornerFrame(1, 0, 2)).sums
    assert sums["S1"].is_zero()


def test_fixed_point_sums_closed_forms():
    for h, k, n in ((0, 0, 2), (1, 1, 2), (2, 1, 3), (1, 2, 2)):
        sums = audit(CornerFrame(h, k, n)).sums
        dq = q_delannoy_rec
        assert sums["S1"] == (dq(h + n, k) - dq(h, k)).shift(n * (h + n))
        assert sums["S2"] == dq(h, k + n) - dq(h, k).shift(n * h)
        assert sums["S3"] == (q_binomial(2 * n, n) * dq(h, k)).shift(n * h)
        assert sums["S4"] == dq(h, k).shift(n * h + n * (n + 1) // 2)


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

def test_audit_smallest_frames():
    report = audit(CornerFrame(0, 0, 1))
    assert report.ok
    assert report.total_paths == 3
    assert report.class_counts == {"Q1": 0, "Q2": 0, "Q3": 2, "Q4": 1}
    assert report.grand_total == IntPoly([1, 2])

    report = audit(CornerFrame(0, 0, 2))
    assert report.ok
    assert report.total_paths == 13
    assert report.class_counts["Q1"] == 0 and report.class_counts["Q2"] == 0
    # the even-n sign: total == 1 + 1 - 1 mod Phi_2
    assert reduce_mod(report.grand_total, 2) == IntPoly([1])


def test_audit_p33_frame():
    report = audit(CornerFrame(1, 1, 2))
    assert report.ok
    assert report.total_paths == 63
    assert sum(report.class_counts.values()) == 63
    assert report.sums["S4"] == q_delannoy_rec(1, 1).shift(5)
    for cls, hist in report.orbit_histograms.items():
        for d in hist:
            assert report.n % d == 0


def test_audit_grand_total_congruence():
    for h, k, n in ((0, 1, 3), (2, 0, 2), (1, 2, 3)):
        report = audit(CornerFrame(h, k, n))
        assert report.ok
        sign = 1 if n % 2 else -1
        rhs = q_delannoy_rec(h + n, k) + q_delannoy_rec(h, k + n) + q_delannoy_rec(h, k) * sign
        assert congruent(report.grand_total, rhs, n)


# Every frame with h,k <= 3 and n <= 3, plus the benchmark's frames and two
# edge frames: the origin as the corner, and a corner on the x axis.
AUDIT_ORACLE_FRAMES = [(h, k, n) for n in range(1, 4) for h in range(4) for k in range(4)]
AUDIT_ORACLE_FRAMES += [(3, 3, 4), (2, 2, 5), (0, 0, 6), (5, 0, 3)]


def test_audit_matches_the_per_path_reference():
    for frame in AUDIT_ORACLE_FRAMES:
        report = audit(CornerFrame(*frame))
        assert report.ok, frame
        for name, value in reference.audit(CornerFrame(*frame)).items():
            assert getattr(report, name) == value, (frame, name)


def test_audit_report_json_shape():
    report = audit(CornerFrame(1, 0, 2))
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["frame"] == {"h": 1, "k": 0, "n": 2}
    assert payload["violations"] == []
    assert set(payload["sums"]) == {"S1", "S2", "S3", "S4"}
    assert poly_from_json(payload["grand_total"]) == report.grand_total


def test_audit_reports_violations_instead_of_raising(monkeypatch):
    # break the S3 closed form on purpose; the audit must record it as data
    monkeypatch.setattr(orbits_module, "q_binomial", lambda h, k: IntPoly([5]))
    report = orbits_module.audit(CornerFrame(0, 0, 2))
    assert not report.ok
    assert any("S3" in v for v in report.violations)


def _off_at(point):
    """Breaks `q_delannoy_rec`: 1 is added to P(point) alone."""
    return lambda rec: lambda h, k: rec(h, k) + IntPoly.monomial(0) if (h, k) == point else rec(h, k)


def _acting_as(cls_from, cls_to):
    """Breaks `_act`: `cls_from` segments get the action of `cls_to`."""
    return lambda act: lambda segment, cls, n: act(segment, cls_to if cls is cls_from else cls, n)


def _walks_cut_to(size):
    """Breaks `_orbit`: each walk keeps only its first `size` members."""
    return lambda walk: lambda *args: tuple(t[:size] for t in walk(*args))


def _shifted(extra):
    """Breaks `_act`: every shift is off by `extra`."""
    return lambda act: lambda s, cls, n: (act(s, cls, n)[0], act(s, cls, n)[1] + extra)


def _adds_path_at(point):
    """Breaks `sigma_counts`: one more path of sigma 0 to `point`, in each box that holds it."""

    def breaks(sigma_counts):
        def counts(max_h, max_k):
            box = sigma_counts(max_h, max_k)
            x, y = point
            if x <= max_h and y <= max_k:
                box[x][y] += 1
            return box

        return counts

    return breaks


# A name in `orbits`, a wrapper that breaks it, a frame, and the start of a
# violation the audit must report.  Frame (1,1,3) has orbits of size 3.  The
# corner (1,1) is the first cut point, and END the first Q4 tail from it.
BROKEN_PARTS = {
    "S1": ("q_delannoy_rec", _off_at((3, 1)), (1, 1, 2), "fixed sum S1 differs from its closed form"),
    "S2": ("q_delannoy_rec", _off_at((1, 3)), (1, 1, 2), "fixed sum S2 differs from its closed form"),
    "S4": ("q_delannoy_rec", _off_at((1, 1)), (1, 1, 2), "fixed sum S4 differs from its closed form"),
    "S3": ("q_binomial", lambda qb: lambda a, b: qb(a, b) + 1, (1, 1, 2), "class sum S3 differs from its closed form"),
    "total": ("q_delannoy_rec", _off_at((3, 3)), (1, 1, 2), "grand total differs from the q-Delannoy polynomial"),
    "S3-mod": ("congruent", lambda _: lambda *args: False, (1, 1, 2), "S3 does not reduce to twice the corner"),
    "total-mod": ("congruent", lambda _: lambda *args: False, (1, 1, 2), "grand total congruence failed"),
    "count": ("delannoy", lambda d: lambda h, k: d(h, k) + 1, (1, 1, 2), "enumerated 63 paths, expected"),
    # The heads are path counts, never `q_delannoy_rec`, so its checks see a
    # miscounted cell.  One more head at the open-arm point (2,1) adds its 4
    # segments to the 63 paths.  One more path to the corner adds its 13
    # tails and takes 10 segments from the arms, whose heads are their paths
    # less those through the corner.
    "arm-count": ("sigma_counts", _adds_path_at((2, 1)), (1, 1, 2), "enumerated 67 paths, expected"),
    "arm-total": ("sigma_counts", _adds_path_at((2, 1)), (1, 1, 2), "grand total differs from the q-Delannoy"),
    "corner-count": ("sigma_counts", _adds_path_at((1, 1)), (1, 1, 2), "enumerated 66 paths, expected"),
    "corner-total": ("sigma_counts", _adds_path_at((1, 1)), (1, 1, 2), "grand total differs from the q-Delannoy"),
    "blocks": ("_act", lambda act: lambda s, cls, n: act(s, cls, n + 1), (1, 1, 2),
               "expected 3 blocks, found 2 at END from (1,1) (Q4)"),
    "Q1-hat": ("_act", _acting_as(PathClass.Q2, PathClass.Q1), (1, 1, 2),
               "a Q1 hat must open with a y-raising step at EEN from (1,2) (Q2)"),
    "Q2-hat": ("_act", _acting_as(PathClass.Q1, PathClass.Q2), (1, 1, 2),
               "a Q2 hat must open with an x-raising step at NEN from (2,1) (Q1)"),
    "shift": ("_act", _shifted(1), (1, 1, 2), "sigma shift law failed at END from (1,1) (Q4)"),
    # every segment goes to NEN, which goes to itself: no walk returns
    "periodic": ("_act", lambda _: lambda s, cls, n: (tuple("NEN"), 0), (1, 1, 2),
                 "action not n-periodic at END from (1,1) (Q4)"),
    # sorting is idempotent, so a walk meets its second member again
    "revisit": ("_act", lambda _: lambda s, cls, n: (tuple(sorted(s)), 0), (1, 1, 3),
                "orbits overlap at EENND from (1,1) (Q4)"),
    "size": ("_orbit", _walks_cut_to(2), (1, 1, 3), "orbit size 2 does not divide n at "),
    "fixed": ("_orbit", _walks_cut_to(1), (1, 1, 2), "fixed-point characterization failed at "),
}


@pytest.mark.parametrize("part", BROKEN_PARTS)
def test_audit_reports_each_broken_part(part, monkeypatch):
    name, breaks, frame, message = BROKEN_PARTS[part]
    monkeypatch.setattr(orbits_module, name, breaks(getattr(orbits_module, name)))
    assert any(v.startswith(message) for v in audit(CornerFrame(*frame)).violations)


def test_audit_streams_each_segment_once(monkeypatch):
    # The audit builds no whole path: it calls none of `decompose`, `sigma`
    # and `enumerate_paths`.  It counts the heads in one box, to the target,
    # and streams the segments of each cut point once; (2,2,3) has heads at
    # all 2n+1 of them.
    import qdelannoy.paths as paths_module

    calls = {"decompose": 0, "sigma": 0, "enumerate_paths": 0}
    streams, boxes = [], []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(orbits_module, "decompose", counted("decompose", orbits_module.decompose))
    for name in ("sigma", "enumerate_paths"):
        for module in (paths_module, orbits_module):
            monkeypatch.setattr(module, name, counted(name, getattr(paths_module, name)), raising=False)
    walk = orbits_module.walk
    monkeypatch.setattr(orbits_module, "walk", lambda *args: streams.append(args) or walk(*args))
    sigma_counts = orbits_module.sigma_counts
    monkeypatch.setattr(orbits_module, "sigma_counts", lambda *args: boxes.append(args) or sigma_counts(*args))
    report = orbits_module.audit(CornerFrame(2, 2, 3))
    assert report.ok
    assert calls == {"decompose": 0, "sigma": 0, "enumerate_paths": 0}
    assert boxes == [(5, 5)]
    assert len(streams) == len(set(streams)) == 7


# ---------------------------------------------------------------------------
# Predictions the segment stream must confirm
# ---------------------------------------------------------------------------

def test_audit_reports_a_wrong_predicted_class(monkeypatch):
    # The action sends the first Q4 tail from the corner (1,1), which opens
    # with E, to the D-free tail NNEE, with an honest shift: the image is a Q3
    # segment later in the stream, caught when the stream reaches it.
    frame = CornerFrame(1, 1, 2)
    x = next(seg for seg, _ in orbits_module.walk(2, 2) if "D" in seg)
    y = tuple("NNEE")
    assert x[0] == "E"
    shift = sigma(y) - sigma(x)
    act = orbits_module._act

    def leaves(segment, cls, n):
        if cls is PathClass.Q4 and segment in (x, y):
            return (y, shift) if segment == x else (x, -shift)
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", leaves)
    assert "action left Q4 at NNEE from (1,1)" in orbits_module.audit(frame).violations


def test_audit_checks_each_prediction_on_arrival(monkeypatch):
    act = orbits_module._act

    # With no shift the predicted sigmas agree around each orbit, so the walk
    # closes; only each image's own sigma, when the stream reaches it, shows
    # the shift law broken.
    def no_shift(segment, cls, n):
        return act(segment, cls, n)[0], 0

    monkeypatch.setattr(orbits_module, "_act", no_shift)
    violations = orbits_module.audit(CornerFrame(1, 1, 2)).violations
    assert "sigma shift law failed at NNE from (2,1) (Q1)" in violations
    assert not any(v.startswith(("action", "orbits overlap")) for v in violations)


def test_audit_reports_images_never_reached(monkeypatch):
    act = orbits_module._act
    frame = CornerFrame(1, 1, 2)
    x = next(seg for seg, _ in orbits_module.walk(2, 2) if "D" in seg)

    # An image outside the frame: its orbit closes, but the stream never
    # reaches the image.
    def escapes(segment, cls, n):
        if segment == x:
            return x + ("E",), 0
        if segment == x + ("E",):
            return x, 0
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", escapes)
    report = orbits_module.audit(frame)
    assert f"action image {path_text(x)}E from (1,1) (Q4) never reached" in report.violations
    monkeypatch.undo()

    # An image streamed before its orbit's start: the first walk from a cut
    # point where another orbit was walked earlier claims that orbit's start.
    walk, walked, claimed = orbits_module._orbit, [], []

    def claims_an_earlier_segment(segment, cls, n):
        members, offsets = walk(segment, cls, n)
        cut = _cut_point(segment, frame)
        earlier = [w for w in walked if _cut_point(w, frame) == cut and w not in members]
        walked.append(segment)
        if earlier and not claimed:
            claimed.append(earlier[0])
            members = members[:1] + earlier[:1] + members[1:]
            offsets = offsets[:1] + [sigma(earlier[0]) - sigma(segment)] + offsets[1:]
        return members, offsets

    monkeypatch.setattr(orbits_module, "_orbit", claims_an_earlier_segment)
    report = orbits_module.audit(frame)
    (image,) = claimed
    x, y = _cut_point(image, frame)
    assert f"action image {path_text(image)} from ({x},{y}) (Q4) never reached" in report.violations


def test_audit_reports_two_orbits_claiming_one_image(monkeypatch):
    frame = CornerFrame(1, 1, 2)
    order = {(cut, seg): i for cut, stream in _streams(frame).items() for i, seg in enumerate(stream)}
    walk = orbits_module._orbit
    pending, claimed = [], []

    # An orbit walked while an earlier orbit's member from the same cut point
    # still waits for the stream claims that member too.
    def claims_again(segment, cls, n):
        members, offsets = walk(segment, cls, n)
        cut = _cut_point(segment, frame)
        waiting = [m for m in pending if _cut_point(m, frame) == cut and order[cut, m] > order[cut, segment]]
        if waiting and not claimed:
            claimed.append((cut, waiting[0], cls))
            members = members + [waiting[0]]
            offsets = offsets + [sigma(waiting[0]) - sigma(segment)]
        pending.extend(members[1:])
        return members, offsets

    monkeypatch.setattr(orbits_module, "_orbit", claims_again)
    report = orbits_module.audit(frame)
    ((x, y), image, cls), = claimed
    assert f"orbits overlap at {path_text(image)} from ({x},{y}) ({cls.value})" in report.violations


def _audit_peak(frame):
    """Whether a fresh process audits `frame` clean, and its traced peak in
    bytes.  A fresh process, since a warm one reuses objects freed before
    tracing began, which tracemalloc does not count: the same audit reads
    less the later it runs in a test session."""
    script = (
        "import sys, tracemalloc\n"
        "from qdelannoy.orbits import CornerFrame, audit\n"
        "tracemalloc.start()\n"
        "ok = audit(CornerFrame(*map(int, sys.argv[1:]))).ok\n"
        "print(ok, tracemalloc.get_traced_memory()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(orbits_module.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", script, *map(str, frame)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    ok, peak = result.stdout.split()
    return ok == "True", int(peak)


@pytest.mark.parametrize("frame", [(3, 3, 4), (2, 2, 5), (4, 4, 6)], ids=["3-3-4", "2-2-5", "4-4-6"])
def test_audit_memory_is_bounded(frame):
    ok, peak = _audit_peak(frame)
    assert ok
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"


# ---------------------------------------------------------------------------
# Segment orbits walked once per cut point, whatever the head
# ---------------------------------------------------------------------------

def _count_walks(monkeypatch):
    """Every orbit walk the audit makes, as (segment, class), in order."""
    walk, walked = orbits_module._orbit, []

    def counted(segment, cls, n):
        walked.append((segment, cls))
        return walk(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_orbit", counted)
    return walked


@pytest.mark.parametrize("frame", [(3, 3, 4), (2, 2, 5)], ids=["3-3-4", "2-2-5"])
def test_audit_walks_each_segment_orbit_once(frame, monkeypatch):
    # The walks' members cover every segment the action moves, at every cut
    # point with heads, exactly once.
    frame = CornerFrame(*frame)
    heads = orbits_module._heads(*frame)
    moved = {
        (cut, seg) for cut, stream in _streams(frame).items() if sum(heads[cut].coeffs)
        for seg in stream if cut != frame[:2] or "D" in seg
    }
    walk = orbits_module._orbit
    walked = _count_walks(monkeypatch)
    assert orbits_module.audit(frame).ok
    members = [(_cut_point(seg, frame), m) for seg, cls in walked for m in walk(seg, cls, frame.n)[0]]
    assert len(members) == len(set(members))
    assert set(members) == moved


def _first_q4_orbit(frame):
    """The members of the first orbit of size n among the tails from the corner."""
    n = frame.n
    stream = _streams(frame)[frame.h, frame.k]
    return next(m for seg in stream if "D" in seg and len(m := orbits_module._orbit(seg, PathClass.Q4, n)[0]) == n)


def test_audit_checks_replayed_predictions_on_arrival(monkeypatch):
    # One walk's predictions stand for every head: (2,1) has 3 paths to it.
    # A wrong sigma shift for one segment, repaid by the next step, lets
    # every walk close, so only the arrival of the image the action slipped
    # on shows the broken shift law, once for all heads.
    frame = CornerFrame(2, 1, 3)
    x, y, z = _first_q4_orbit(frame)
    act = orbits_module._act
    walked = _count_walks(monkeypatch)
    for slip, repay in ((x, y), (y, z)):

        def slips(segment, cls, n):
            image, shift = act(segment, cls, n)
            return image, shift + (segment == slip) - (segment == repay)

        monkeypatch.setattr(orbits_module, "_act", slips)
        violations = orbits_module.audit(frame).violations
        failed = [v for v in violations if v.startswith("sigma shift law failed")]
        assert failed == [f"sigma shift law failed at {path_text(repay)} from (2,1) (Q4)"]
    assert [seg for seg, _ in walked if seg in (x, y, z)] == [x, x]


def test_audit_keeps_no_walk_of_a_corner_with_one_head():
    # No walk is kept: only the members not reached yet wait.  At h = k = 0
    # the origin is the corner, so all 8,989 paths of (0,0,5) are tails of
    # one empty head, and the peak stays small.
    ok, peak = _audit_peak((0, 0, 5))
    assert ok
    assert peak < 2**18, f"peak {peak / 2**20:.2f} MB"
