import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reference
from reference import path_points, poly_from_json
from qdelannoy.cyclotomic import congruent, reduce_mod
from qdelannoy.polyring import IntPoly
from qdelannoy.qcore import delannoy, q_binomial
from qdelannoy.qdelannoy import q_delannoy_rec
from qdelannoy.orbits import (
    ClassError,
    CornerFrame,
    FrameError,
    LawError,
    PathClass,
    audit,
    decompose,
    orbit,
)
from qdelannoy.paths import enumerate_paths, path_text, sigma, x_of, y_of


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
    import qdelannoy.orbits as orbits_module

    for h, k in ORACLE_FRAMES[n]:
        frame = CornerFrame(h, k, n)
        for path in enumerate_paths(h + n, k + n):
            dec = decompose(path, frame)
            assert dec == reference.decompose(path, frame), path_text(path)
            if dec.path_class is PathClass.Q3:
                continue
            first, _, cls, s = scan = orbits_module._scan(path, frame)[:4]
            cut = orbits_module._cut(scan)
            segment, bar, shift = orbits_module._act(path[cut:], cls, n)
            # The reference rebuilds the whole path, so it also checks that
            # the action keeps the head.
            image = path[:cut] + segment
            assert (image, shift) == reference.act_with_shift(dec, frame), path_text(path)
            # The image is a path of this frame too, so its scan is checked
            # against the reference where the loop reaches it.
            assert (first, cut + bar, cls, s + shift) == orbits_module._scan(image, frame)[:4], path_text(path)


def test_scan_matches_reference():
    # The trie walk drives the per-step kernel; every path's final state must
    # agree with the reference decomposition and with `sigma`.
    import qdelannoy.orbits as orbits_module

    for n, corners in ORACLE_FRAMES.items():
        for h, k in corners:
            frame = CornerFrame(h, k, n)
            scanned = list(orbits_module._scan_trie(frame))
            assert [path for path, _ in scanned] == list(enumerate_paths(h + n, k + n))
            for path, state in scanned:
                first, last, cls, s, reassembled = state[:5]
                dec = reference.decompose(path, frame)
                assert (first, last) == (len(dec.check), len(dec.check + dec.bar)), path_text(path)
                assert cls is dec.path_class, path_text(path)
                assert s == sigma(path), path_text(path)
                xc, xb = reference.x_of(dec.check), reference.x_of(dec.bar)
                cross = xc * reference.y_of(dec.bar) + (xc + xb) * reference.y_of(dec.hat)
                assert reassembled == sigma(dec.check) + sigma(dec.bar) + sigma(dec.hat) + cross
                assert orbits_module._scan(path, frame) == state


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
    o = orbit(tuple("ENDE"), CornerFrame(1, 0, 2))
    assert o.path_class is PathClass.Q4
    assert [path_text(m) for m in o.members] == ["ENDE", "ENED"]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def test_act_q1_example():
    frame = CornerFrame(1, 1, 2)
    before = tuple("EDNNE")
    _, after = orbit(before, frame).members
    assert path_text(after) == "EDNEN"
    assert sigma(before) == 6 and sigma(after) == 7
    # exact shift law: n*x(last block) - x(hat) = 2*1 - 1
    assert sigma(after) - sigma(before) == 1


def test_act_fixed_points():
    assert orbit(tuple("EDD"), CornerFrame(1, 0, 2)).members == (tuple("EDD"),)  # all-diagonal tail
    assert orbit(tuple("NDNEE"), CornerFrame(1, 1, 2)).members == (tuple("NDNEE"),)  # all-east hat


def test_act_preserves_class_and_has_period_n():
    # Each member's orbit is the same cycle, started one action later: the
    # action maps members[i] to members[i + 1], and the last back to the first.
    frame = CornerFrame(1, 1, 3)
    for path in enumerate_paths(4, 4):
        cls = decompose(path, frame).path_class
        if cls is PathClass.Q3:
            continue
        members = orbit(path, frame).members
        assert members[0] == path and frame.n % len(members) == 0
        for i, member in enumerate(members):
            assert decompose(member, frame).path_class is cls
            assert orbit(member, frame).members == members[i:] + members[:i]


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def test_orbit_q1_pair():
    o = orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))
    assert o.size == 2
    assert o.weight == IntPoly.monomial(6) + IntPoly.monomial(7)
    assert reduce_mod(o.weight, 2).is_zero()


def test_orbit_fixed_point():
    o = orbit(tuple("EDD"), CornerFrame(1, 0, 2))
    assert o.size == 1
    assert o.weight == IntPoly.monomial(sigma(tuple("EDD")))
    assert o.s_count == 2


def test_orbit_q4_mixed_labels():
    # tail D then E from the corner (1,0): labels rotate with period 2
    o = orbit(tuple("EDNE"), CornerFrame(1, 0, 2))
    assert o.path_class is PathClass.Q4
    assert o.size == 2
    assert o.s_count == 1
    assert reduce_mod(o.weight, 2).is_zero()


def test_orbit_rejects_q3():
    with pytest.raises(ClassError):
        orbit(tuple("EN"), CornerFrame(0, 0, 1))


def test_orbit_sizes_divide_n_and_sums_vanish():
    frame = CornerFrame(0, 1, 4)
    seen = set()
    for path in enumerate_paths(4, 5):
        if path in seen or decompose(path, frame).path_class is PathClass.Q3:
            continue
        o = orbit(path, frame)
        seen.update(o.members)
        assert frame.n % o.size == 0
        if o.size > 1:
            assert reduce_mod(o.weight, frame.n).is_zero()


def test_orbit_raises_when_a_law_breaks(monkeypatch):
    import qdelannoy.orbits as orbits_module

    act = orbits_module._act

    def no_shift(segment, cls, n):
        image, bar, _ = act(segment, cls, n)
        return image, bar, 0

    monkeypatch.setattr(orbits_module, "_act", no_shift)
    with pytest.raises(LawError, match="sigma shift law failed at EDNNE"):
        orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    def wrong_shift(segment, cls, n):
        image, bar, shift = act(segment, cls, n)
        return image, bar, shift + 1

    monkeypatch.setattr(orbits_module, "_act", wrong_shift)
    with pytest.raises(LawError, match="sigma shift law failed at EDNEN"):
        orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    # an action that sends every hat to NEN (EDNNE to EDNEN), with an honest
    # shift, never returns
    def stuck(segment, cls, n):
        return tuple("NEN"), 0, 1

    monkeypatch.setattr(orbits_module, "_act", stuck)
    with pytest.raises(LawError, match="not n-periodic"):
        orbit(tuple("EDNNE"), CornerFrame(1, 1, 2))

    # with n = 3 the walk meets the hat NENEE again before its n-th step
    monkeypatch.setattr(orbits_module, "_act", lambda segment, cls, n: (tuple("NENEE"), 0, 1))
    with pytest.raises(LawError, match=r"orbits overlap at EDNENEE \(Q1\)"):
        orbit(tuple("EDNNNEE"), CornerFrame(1, 1, 3))


def test_audit_lets_an_unrelated_assertion_error_through(monkeypatch):
    import qdelannoy.orbits as orbits_module

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
        o = orbit(path, frame)
        assert frame.n % o.size == 0
        assert all(decompose(m, frame).path_class is cls for m in o.members)
        if o.size > 1:
            assert reduce_mod(o.weight, frame.n).is_zero()
        # the action takes the last member back to the path
        assert orbit(o.members[-1], frame).members == o.members[-1:] + o.members[:-1]

    invariants()


def test_folded_orbit_sum_matches_full_reduction(monkeypatch):
    import qdelannoy.orbits as orbits_module

    folded_decision = orbits_module._orbit_sum_vanishes
    decided = []

    def both_ways(sigmas, n):
        folded = folded_decision(sigmas, n)
        assert folded == reduce_mod(orbits_module._weight(sigmas), n).is_zero()
        decided.append(folded)
        return folded

    monkeypatch.setattr(orbits_module, "_orbit_sum_vanishes", both_ways)
    for n in range(1, 6):
        for h in range(3):
            for k in range(3):
                assert orbits_module.audit(CornerFrame(h, k, n)).ok
    assert decided and all(decided)


def test_folded_orbit_sum_keeps_nonvanishing_weights():
    import qdelannoy.orbits as orbits_module

    assert not orbits_module._orbit_sum_vanishes([0, 1], 3)  # 1 + q
    assert not orbits_module._orbit_sum_vanishes([4, 7], 3)  # folds onto 2q
    assert orbits_module._orbit_sum_vanishes([0, 1, 2], 3)
    assert orbits_module._orbit_sum_vanishes([6, 7, 8, 9], 4)  # q^6(1 + q + q^2 + q^3)


def test_audit_reports_orbit_sum_that_does_not_vanish(monkeypatch):
    import qdelannoy.orbits as orbits_module

    # Pair the hats of two Q1 paths with one head whose sigmas differ by 2:
    # 1 + q^2 is 2 mod Phi_2.
    frame = CornerFrame(1, 1, 2)
    q1 = [(p, state[:4]) for p, state in orbits_module._scan_trie(frame) if state[2] is PathClass.Q1]
    a, b, cut, d = next(
        (a, b, sa[1], sb[3] - sa[3])
        for i, (a, sa) in enumerate(q1)
        for b, sb in q1[i + 1:]
        if a[: sa[1]] == b[: sb[1]] and abs(sb[3] - sa[3]) == 2
    )
    x, y = a[cut:], b[cut:]
    act = orbits_module._act

    def swap(segment, cls, n):
        if cls is PathClass.Q1 and segment in (x, y):
            return (y, 0, d) if segment == x else (x, 0, -d)
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", swap)
    report = orbits_module.audit(frame)
    assert f"orbit sum not divisible by Phi_2 at {path_text(a)}" in report.violations


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


def test_audit_report_json_shape():
    report = audit(CornerFrame(1, 0, 2))
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["frame"] == {"h": 1, "k": 0, "n": 2}
    assert payload["violations"] == []
    assert set(payload["sums"]) == {"S1", "S2", "S3", "S4"}
    assert poly_from_json(payload["grand_total"]) == report.grand_total


def test_audit_reports_violations_instead_of_raising(monkeypatch):
    import qdelannoy.orbits as orbits_module

    # break the S3 closed form on purpose; the audit must record it as data
    monkeypatch.setattr(orbits_module, "q_binomial", lambda h, k: IntPoly([5]))
    report = orbits_module.audit(CornerFrame(0, 0, 2))
    assert not report.ok
    assert any("S3" in v for v in report.violations)


def test_audit_scans_each_path_once(monkeypatch):
    import qdelannoy.orbits as orbits_module
    import qdelannoy.paths as paths_module

    calls = {"_step": 0, "_scan": 0, "decompose": 0, "sigma": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_step", "_scan", "decompose"):
        monkeypatch.setattr(orbits_module, name, counted(name, getattr(orbits_module, name)))
    for module in (paths_module, orbits_module):
        monkeypatch.setattr(module, "sigma", counted("sigma", paths_module.sigma), raising=False)
    report = orbits_module.audit(CornerFrame(2, 2, 3))
    assert report.ok

    # One kernel step per trie node: every non-empty prefix of a path to
    # (5,5) is one path from the origin to a point of the box.
    def nodes(x, y):
        return sum(delannoy(i, j) for i in range(x + 1) for j in range(y + 1)) - 1

    assert nodes(7, 7) == 132_863  # the benchmark's frames (3,3,4) and (2,2,5)
    assert calls == {"_step": nodes(5, 5), "_scan": 0, "decompose": 0, "sigma": 0}


# ---------------------------------------------------------------------------
# Predictions the enumeration must confirm
# ---------------------------------------------------------------------------

def test_audit_reports_a_wrong_predicted_class(monkeypatch):
    import qdelannoy.orbits as orbits_module

    # The action sends the tail of the first Q4 path, which opens with E, to
    # a D-free tail that opens with N, with an honest shift: the image is a
    # Q3 path after it, caught when the enumeration reaches it.
    frame = CornerFrame(1, 1, 2)
    a, state = next((p, st) for p, st in orbits_module._scan_trie(frame) if st[2] is PathClass.Q4)
    cut = orbits_module._cut(state)
    x, y = a[cut:], tuple("NNEE")
    assert x[0] == "E"
    shift = sigma(a[:cut] + y) - sigma(a)
    act = orbits_module._act

    def leaves(segment, cls, n):
        if cls is PathClass.Q4 and segment in (x, y):
            return (y, 0, shift) if segment == x else (x, state[1] - cut, -shift)
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", leaves)
    assert decompose(a[:cut] + y, frame).path_class is PathClass.Q3
    assert f"action left Q4 at {path_text(a)}" in orbits_module.audit(frame).violations


def test_audit_checks_each_prediction_on_arrival(monkeypatch):
    import qdelannoy.orbits as orbits_module

    act = orbits_module._act

    # With no shift the predicted sigmas agree around each orbit, so the walk
    # closes; only the scan of each image, when the enumeration reaches it,
    # shows the shift law broken.
    def no_shift(segment, cls, n):
        image, bar, _ = act(segment, cls, n)
        return image, bar, 0

    monkeypatch.setattr(orbits_module, "_act", no_shift)
    violations = orbits_module.audit(CornerFrame(1, 1, 2)).violations
    assert "sigma shift law failed at EENNEN (Q1)" in violations
    assert not any(v.startswith(("action", "orbits overlap")) for v in violations)


def test_audit_reports_images_never_reached(monkeypatch):
    import qdelannoy.orbits as orbits_module

    act = orbits_module._act
    frame = CornerFrame(1, 1, 2)
    scanned = {path: state[:4] for path, state in orbits_module._scan_trie(frame)}
    first = next(iter(scanned))
    cut = orbits_module._cut(scanned[first])
    x = first[cut:]

    # An image outside the frame: its orbit closes, but the enumeration never
    # reaches the image.
    def escapes(segment, cls, n):
        if segment == x:
            return x + ("E",), 0, 0
        if segment == x + ("E",):
            return x, 0, 0
        return act(segment, cls, n)

    monkeypatch.setattr(orbits_module, "_act", escapes)
    report = orbits_module.audit(frame)
    outside = first + ("E",)
    assert f"action image {path_text(outside)} of {path_text(first)} (Q1) never reached" in report.violations
    monkeypatch.undo()

    # An image enumerated before its orbit's start: the first walk whose
    # head leads to an earlier Q1 path claims that path too.
    walk = orbits_module._walk_orbit
    order = list(scanned)
    claimed = []

    def claims_an_earlier_path(path, scan, n):
        segs, bars, ds = walk(path, scan, n)
        cut = orbits_module._cut(scan)
        earlier = [
            p for p in order[: order.index(path)]
            if scanned[p][2] is PathClass.Q1 and p[:cut] == path[:cut] and p[cut:] not in segs
        ]
        if scan[2] is PathClass.Q1 and earlier and not claimed:
            claimed.extend((earlier[0], path))
            # right after the start, so the start is its predecessor
            p = scanned[earlier[0]]
            segs = segs[:1] + (earlier[0][cut:],) + segs[1:]
            bars = bars[:1] + (p[1] - cut,) + bars[1:]
            ds = ds[:1] + (p[3] - scan[3],) + ds[1:]
        return segs, bars, ds

    monkeypatch.setattr(orbits_module, "_walk_orbit", claims_an_earlier_path)
    report = orbits_module.audit(frame)
    image, start = claimed
    assert f"action image {path_text(image)} of {path_text(start)} (Q1) never reached" in report.violations


def test_audit_reports_two_orbits_claiming_one_image(monkeypatch):
    import qdelannoy.orbits as orbits_module

    frame = CornerFrame(1, 1, 2)
    scanned = {path: state[:4] for path, state in orbits_module._scan_trie(frame)}
    order = {path: i for i, path in enumerate(scanned)}
    walk = orbits_module._walk_orbit
    pending, claimed = [], []

    # An orbit walked while an earlier orbit's member with the same head
    # still waits for the enumeration claims that member too.
    def claims_again(path, scan, n):
        segs, bars, ds = walk(path, scan, n)
        cut = orbits_module._cut(scan)
        waiting = [p for p in pending if order[p] > order[path] and p[:cut] == path[:cut]]
        if waiting and not claimed:
            claimed.extend((waiting[0], path))
            p = scanned[waiting[0]]
            segs += (waiting[0][cut:],)
            bars += (p[1] - cut,)
            ds += (p[3] - scan[3],)
        pending.extend(path[:cut] + seg for seg in segs[1:])
        return segs, bars, ds

    monkeypatch.setattr(orbits_module, "_walk_orbit", claims_again)
    report = orbits_module.audit(frame)
    image, start = claimed
    cls = decompose(start, frame).path_class.value
    assert f"orbits overlap at {path_text(image)} ({cls})" in report.violations


@pytest.mark.parametrize("frame", [(3, 3, 4), (2, 2, 5)], ids=["3-3-4", "2-2-5"])
def test_audit_memory_is_bounded(frame):
    tracemalloc.start()
    try:
        report = audit(CornerFrame(*frame))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"


# ---------------------------------------------------------------------------
# Segment orbits walked once and built after every head
# ---------------------------------------------------------------------------

def _count_walks(monkeypatch):
    """The start of every orbit walk the audit makes, in order."""
    import qdelannoy.orbits as orbits_module

    walk, walked = orbits_module._walk_orbit, []

    def counted(path, scan, n):
        walked.append(path)
        return walk(path, scan, n)

    monkeypatch.setattr(orbits_module, "_walk_orbit", counted)
    return walked


def _first_q4_orbit(frame):
    """The first two segments x, y of the first Q4 orbit with more than one
    member, and every head (path to the corner) that leads into x."""
    import qdelannoy.orbits as orbits_module

    cut = orbits_module._cut
    scanned = list(orbits_module._scan_trie(frame))
    start, state = next(
        (p, st) for p, st in scanned if st[2] is PathClass.Q4 and orbit(p, frame).size > 1
    )
    x, y = start[cut(state):], orbit(start, frame).members[1][cut(state):]
    heads = [p[: cut(st)] for p, st in scanned if st[2] is PathClass.Q4 and p[cut(st):] == x]
    assert len(heads) == delannoy(frame.h, frame.k)
    return x, y, heads


@pytest.mark.parametrize("frame", [(3, 3, 4), (2, 2, 5)], ids=["3-3-4", "2-2-5"])
def test_audit_walks_each_segment_orbit_once(frame, monkeypatch):
    import qdelannoy.orbits as orbits_module

    frame = CornerFrame(*frame)
    segments = {
        (state[2], path[orbits_module._cut(state):])
        for path, state in orbits_module._scan_trie(frame)
        if state[2] is not PathClass.Q3
    }
    walked = _count_walks(monkeypatch)
    assert orbits_module.audit(frame).ok
    assert 0 < len(walked) <= len(segments)


def test_audit_checks_replayed_predictions_on_arrival(monkeypatch):
    import qdelannoy.orbits as orbits_module

    frame = CornerFrame(2, 1, 3)
    x, y, heads = _first_q4_orbit(frame)
    starts = [head + x for head in heads]
    z = orbit(starts[0], frame).members[2][len(heads[0]):]

    # A wrong sigma shift for one segment, whatever the head.  The next step
    # repays it, so every walk closes and only each image's arrival, at every
    # head, shows the broken shift law at the member the action slipped on.
    act = orbits_module._act
    walked = _count_walks(monkeypatch)
    for slip, repay in ((x, y), (y, z)):

        def slips(segment, cls, n):
            image, bar, shift = act(segment, cls, n)
            return image, bar, shift + (segment == slip) - (segment == repay)

        monkeypatch.setattr(orbits_module, "_act", slips)
        violations = orbits_module.audit(frame).violations
        failed = [v for v in violations if v.startswith("sigma shift law failed")]
        assert failed == [f"sigma shift law failed at {path_text(head + slip)} (Q4)" for head in heads]
    assert [p for p in walked if p in starts] == starts[:1] * 2


def test_audit_keeps_no_walk_of_a_corner_with_one_head():
    # At h = 0 or k = 0 one path leads to the corner, so no Q4 walk is met
    # again and none is kept; keeping them doubles the traced peak at
    # (0,0,5).  A fresh process, since a warm one reuses objects freed before
    # tracing began, which tracemalloc does not count.
    import qdelannoy.orbits as orbits_module

    script = (
        "import tracemalloc\n"
        "from qdelannoy.orbits import CornerFrame, audit\n"
        "tracemalloc.start()\n"
        "assert audit(CornerFrame(0, 0, 5)).ok\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(orbits_module.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    peak = int(result.stdout)
    assert peak < 2**18, f"peak {peak / 2**20:.2f} MB"


def test_audit_and_orbit_catch_a_wrong_bar_end(monkeypatch):
    import qdelannoy.orbits as orbits_module

    frame = CornerFrame(1, 1, 2)
    x, y, heads = _first_q4_orbit(frame)
    act = orbits_module._act

    # Every Q4 image's bar one step too long: each walk misses its start's
    # scan on the way back.
    def long_bars(segment, cls, n):
        image, bar, shift = act(segment, cls, n)
        return image, bar + (cls is PathClass.Q4), shift

    monkeypatch.setattr(orbits_module, "_act", long_bars)
    assert any(v.startswith("action left Q4 at ") for v in orbits_module.audit(frame).violations)
    with pytest.raises(LawError, match=f"action left Q4 at {path_text(heads[0] + y)}"):
        orbit(heads[0] + x, frame)

    # Only segment x's image has a long bar, so each walk closes and the
    # image's arrival, after every head, shows the wrong bar end.
    def long_bar(segment, cls, n):
        image, bar, shift = act(segment, cls, n)
        return image, bar + (cls is PathClass.Q4 and segment == x), shift

    monkeypatch.setattr(orbits_module, "_act", long_bar)
    violations = orbits_module.audit(frame).violations
    assert [v for v in violations if v.startswith("action left")] == [
        f"action left Q4 at {path_text(head + x)}" for head in heads
    ]
    with pytest.raises(LawError, match=f"action left Q4 at {path_text(heads[0] + x)}"):
        orbit(heads[0] + x, frame)
