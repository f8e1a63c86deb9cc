import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_reference import obb_distance_ref, obb_overlap_ref

from driverepair.geometry import (
    obb_corners,
    obb_distance,
    obb_overlap,
    segment_hits_aabb,
)


def box(x, y, heading=0.0, hl=2.0, hw=1.0):
    return obb_corners(x, y, heading, hl, hw)


class TestOverlap:
    def test_disjoint(self):
        assert not obb_overlap(box(0, 0), box(10, 0))

    def test_overlapping(self):
        assert obb_overlap(box(0, 0), box(3, 0))

    def test_touching_counts_as_overlap(self):
        assert obb_overlap(box(0, 0), box(4.0, 0))

    def test_rotated_diagonal_miss(self):
        # corner-to-corner near miss only detectable on a diagonal axis
        a = box(0, 0, 0.0, 2.0, 1.0)
        b = box(4.2, 3.3, math.pi / 4, 2.0, 1.0)
        assert not obb_overlap(a, b)
        assert obb_distance(a, b) > 1.0

    def test_cross_configuration(self):
        a = box(0, 0, 0.0, 3.0, 0.5)
        b = box(0, 0, math.pi / 2, 3.0, 0.5)
        assert obb_overlap(a, b)


class TestDistance:
    def test_axis_aligned_gap(self):
        assert obb_distance(box(0, 0), box(10, 0)) == pytest.approx(6.0)

    def test_lateral_gap(self):
        assert obb_distance(box(0, 0), box(0, 5)) == pytest.approx(3.0)

    def test_zero_when_overlapping(self):
        assert obb_distance(box(0, 0), box(1, 0)) == 0.0

    def test_corner_to_corner(self):
        a = box(0, 0, 0.0, 1.0, 1.0)
        b = box(4, 4, 0.0, 1.0, 1.0)
        assert obb_distance(a, b) == pytest.approx(math.hypot(2, 2))

    def test_symmetry(self):
        a = box(0, 0, 0.3)
        b = box(7, 2, -0.8)
        assert obb_distance(a, b) == pytest.approx(obb_distance(b, a))


# The simulator reports a collision when the scene's clearance is exactly
# 0.0, so zero clearance must mean the separating-axis test finds overlap.
def assert_zero_iff_overlap(a, b):
    assert (obb_distance(a, b) == 0.0) == obb_overlap(a, b)
    assert (obb_distance(b, a) == 0.0) == obb_overlap(b, a)


offset = st.floats(-8.0, 8.0)
heading = st.floats(-math.pi, math.pi)
half = st.floats(0.05, 5.0)
quarter = st.integers(1, 16).map(lambda k: k / 4)
# (ax, ay, al, aw, bl, bw, side, slide, hb, gap) for `resting`
resting_args = (st.integers(-20, 20), st.integers(-20, 20), quarter, quarter,
                quarter, quarter,
                st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                st.integers(-64, 64),
                st.sampled_from([0.0, math.pi / 2, math.pi]),
                st.sampled_from([0.0, 1e-12, -1e-12]))
# b turned by pi: its side lies 1e-16 off a's, and the point-to-edge
# distance rounds to 0 while the separating-axis test finds the gap
rounds_to_zero = example(ax=0, ay=0, al=0.25, aw=0.25, bl=0.25, bw=0.5,
                         side=(-1, 0), slide=2, hb=math.pi, gap=0.0)


@settings(max_examples=500, deadline=None)
@given(offset, offset, heading, half, half, heading, half, half)
def test_zero_clearance_iff_overlap_random(x, y, ha, al, aw, hb, bl, bw):
    assert_zero_iff_overlap(obb_corners(0.0, 0.0, ha, al, aw),
                            obb_corners(x, y, hb, bl, bw))


@settings(max_examples=500, deadline=None)
@given(*resting_args)
@rounds_to_zero
def test_zero_clearance_iff_overlap_touching(ax, ay, al, aw, bl, bw, side,
                                             slide, hb, gap):
    a, b = resting(ax, ay, al, aw, bl, bw, side, slide, hb, gap)
    assert_zero_iff_overlap(a, b)
    if hb == 0.0 and gap == 0.0:
        assert obb_overlap(a, b)      # exact contact counts as overlap


def resting(ax, ay, al, aw, bl, bw, side, slide, hb, gap):
    """Boxes a and b, b resting against a side of a, slid along it as far
    as a corner."""
    ex, ey = (bw, bl) if hb == math.pi / 2 else (bl, bw)
    sx, sy = side
    if sx:
        along = max(-(aw + ey), min(aw + ey, slide / 4))
        bx, by = ax + sx * (al + ex + gap), ay + along
    else:
        along = max(-(al + ex), min(al + ex, slide / 4))
        bx, by = ax + along, ay + sy * (aw + ey + gap)
    return obb_corners(ax, ay, 0.0, al, aw), obb_corners(bx, by, hb, bl, bw)


def assert_matches_oracle(a, b):
    assert obb_distance(a, b).hex() == obb_distance_ref(a, b).hex()
    assert obb_distance(b, a).hex() == obb_distance_ref(b, a).hex()


far = st.floats(-5000.0, 5000.0)


@settings(max_examples=500, deadline=None)
@given(far, far, heading, half, half, offset, offset, heading, half, half)
def test_distance_matches_oracle_random(ax, ay, ha, al, aw, x, y, hb, bl, bw):
    assert_matches_oracle(obb_corners(ax, ay, ha, al, aw),
                          obb_corners(ax + x, ay + y, hb, bl, bw))


@settings(max_examples=500, deadline=None)
@given(*resting_args)
@rounds_to_zero
def test_distance_matches_oracle_touching(ax, ay, al, aw, bl, bw, side,
                                          slide, hb, gap):
    assert_matches_oracle(*resting(ax, ay, al, aw, bl, bw, side, slide, hb,
                                   gap))


def assert_overlap_matches_oracle(a, b):
    assert obb_overlap(a, b) == obb_overlap_ref(a, b)
    assert obb_overlap(b, a) == obb_overlap_ref(b, a)


@settings(max_examples=500, deadline=None)
@given(far, far, heading, half, half, offset, offset, heading, half, half)
def test_overlap_matches_oracle_random(ax, ay, ha, al, aw, x, y, hb, bl, bw):
    assert_overlap_matches_oracle(obb_corners(ax, ay, ha, al, aw),
                                  obb_corners(ax + x, ay + y, hb, bl, bw))


@settings(max_examples=500, deadline=None)
@given(*resting_args)
@rounds_to_zero
def test_overlap_matches_oracle_touching(ax, ay, al, aw, bl, bw, side, slide,
                                         hb, gap):
    assert_overlap_matches_oracle(*resting(ax, ay, al, aw, bl, bw, side,
                                           slide, hb, gap))


# A NaN or infinite corner makes comparisons false; the projection extents
# must still come out as builtin min and max give them.
@settings(max_examples=500, deadline=None)
@given(offset, offset, heading, heading, st.integers(0, 7), st.booleans(),
       st.floats())
def test_overlap_matches_oracle_non_finite(x, y, ha, hb, corner, on_x, value):
    boxes = (obb_corners(0.0, 0.0, ha, 2.0, 1.0),
             obb_corners(x, y, hb, 2.0, 1.0))
    box, i = boxes[corner // 4], corner % 4
    box[i] = (value, box[i][1]) if on_x else (box[i][0], value)
    assert_overlap_matches_oracle(*boxes)


class TestSegmentAabb:
    def test_crossing_segment(self):
        assert segment_hits_aabb(-5, 0, 5, 0, -1, 1, -1, 1)

    def test_miss(self):
        assert not segment_hits_aabb(-5, 3, 5, 3, -1, 1, -1, 1)

    def test_fully_inside(self):
        assert segment_hits_aabb(0.1, 0.1, 0.2, 0.2, 0, 1, 0, 1)

    def test_fast_diagonal_through_box(self):
        # endpoints on both sides, no sample point inside
        assert segment_hits_aabb(-10, -10, 10, 10, -1, 1, -1, 1)

    def test_degenerate_point(self):
        assert segment_hits_aabb(0.5, 0.5, 0.5, 0.5, 0, 1, 0, 1)
        assert not segment_hits_aabb(2, 2, 2, 2, 0, 1, 0, 1)

    # A path that only touches the yield box is a conflict
    @pytest.mark.parametrize("segment, box", [
        ((0, -0.5, 0, 0.5), (0, 1, -1, 1)),
        ((-1, 0, 0, 0), (0, 1, -1, 1)),
        ((1, 0, 2, 0), (0, 1, -1, 1)),
        ((-1, 1, 1, -1), (0, 1, 0, 1)),
        ((-1, 0, 0, 1), (0, 1, 1, 2)),
    ], ids=["along-the-left-edge", "ending-on-an-edge",
            "leaving-from-an-edge", "through-a-corner", "ending-on-a-corner"])
    def test_touching_counts_as_a_hit(self, segment, box):
        assert segment_hits_aabb(*segment, *box)
