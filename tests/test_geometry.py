import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_reference import obb_corners_ref, obb_distance_ref, obb_overlap_ref

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


def facing(ax, ay, ha, al, aw, corner, bl, bw, gap):
    """Boxes a and b, b's corner 2 facing a's `corner` (signs of the local
    x, y) `gap` away, on the line through both centres: the clearance then
    equals each corner screen's bound, the centre distance less both
    half-diagonals."""
    sx, sy = corner
    toward = ha + math.atan2(sy * aw, sx * al)
    reach = math.hypot(al, aw) + gap + math.hypot(bl, bw)
    bx, by = ax + reach * math.cos(toward), ay + reach * math.sin(toward)
    return (obb_corners(ax, ay, ha, al, aw),
            obb_corners(bx, by, toward - math.atan2(bw, bl), bl, bw))


@settings(max_examples=500, deadline=None)
@given(far, far, heading, half, half,
       st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), half, half,
       st.sampled_from([0.3, 1e-9, 1e-12, 2.0]))
# b's corner lies 1e-9 m from a's; without the slack, or with the
# half-diagonal taken along one side, the screen skips the corner of b whose
# distance to a's edges is the clearance, 9e-18 m below the distance from
# a's corner to b's edges.
@example(4.0, 0.0, 0.0, 4.0, 0.3125, (-1, -1), 1.0, 1.0, 1e-9)
def test_distance_matches_oracle_corner_facing_corner(ax, ay, ha, al, aw,
                                                      corner, bl, bw, gap):
    assert_matches_oracle(*facing(ax, ay, ha, al, aw, corner, bl, bw, gap))


# b beside a with a face parallel to a's and as wide: two corners of each
# box lie at one distance from the other's centre, exactly so on quarter
# metres along the axes.
@settings(max_examples=500, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.sampled_from([0.0, math.pi / 2, math.pi, 0.7]), quarter, quarter,
       quarter, st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
       st.sampled_from([0.25, 3.0, 1e-12]))
def test_distance_matches_oracle_parallel_faces_tie(ax, ay, h, al, aw, bl,
                                                    side, gap):
    sx, sy = side
    if sx:
        lx, ly, b = sx * (al + bl + gap), 0.0, (bl, aw)
    else:
        lx, ly, b = 0.0, sy * (aw + bl + gap), (al, bl)
    c, s = math.cos(h), math.sin(h)
    a = obb_corners(ax, ay, h, al, aw)
    b = obb_corners(ax + lx * c - ly * s, ay + lx * s + ly * c, h, *b)
    assert_matches_oracle(a, b)


# Far from the origin the slack of the screen grows with the coordinates.
million = st.sampled_from([1e6, -1e6])


@settings(max_examples=300, deadline=None)
@given(million, million, heading, half, half, offset, offset, heading, half,
       half)
def test_distance_matches_oracle_a_million_metres_out(ax, ay, ha, al, aw, x,
                                                      y, hb, bl, bw):
    assert_matches_oracle(obb_corners(ax, ay, ha, al, aw),
                          obb_corners(ax + x, ay + y, hb, bl, bw))


# So far apart that a squared centre distance overflows to inf: the screen
# must not skip a side's first corner, and the best then is finite.
@pytest.mark.parametrize("gap", [1e155, 1e200, 1e300])
def test_distance_matches_oracle_past_the_square_range(gap):
    a, b = box(0.0, 0.0, 0.4), box(gap, -gap / 3, -1.1)
    assert_matches_oracle(a, b)
    assert math.isfinite(obb_distance(a, b))


# A zero half size collapses a box to a segment or a point: its zero-length
# edges take the `den == 0.0` branch.
@settings(max_examples=300, deadline=None)
@given(far, far, heading, half, half, offset, offset, heading,
       st.sampled_from([(0.0, 1.0), (2.0, 0.0), (0.0, 0.0)]))
def test_distance_matches_oracle_zero_half_size(ax, ay, ha, al, aw, x, y, hb,
                                                sizes):
    assert_matches_oracle(obb_corners(ax, ay, ha, al, aw),
                          obb_corners(ax + x, ay + y, hb, *sizes))


def bits(corners):
    return [(x.hex(), y.hex()) for x, y in corners]


# The four-product corners are the former corner-by-corner ones: (-a) * c
# is -(a * c) and x + (-v) is x - v in floating point.
@settings(max_examples=1000, deadline=None)
@given(st.floats(), st.floats(), st.floats(allow_infinity=False), st.floats(),
       st.floats())
@example(3.5, -2.25, 0.0, 2.4, 1.05)
@example(3.5, -2.25, -0.0, 2.4, 1.05)
@example(3.5, -2.25, math.pi, 2.4, 1.05)
@example(3.5, -2.25, -math.pi, 2.4, 1.05)
@example(3.5, -2.25, math.pi / 2, 2.4, 1.05)
@example(0.0, -0.0, -math.pi / 2, 0.0, -0.0)
def test_corners_match_oracle(x, y, h, hl, hw):
    assert bits(obb_corners(x, y, h, hl, hw)) == bits(
        obb_corners_ref(x, y, h, hl, hw))


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
