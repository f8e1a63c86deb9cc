"""2D oriented-bounding-box helpers: corners, overlap test, clearance."""
from __future__ import annotations

import math


def obb_corners(x, y, heading, half_len, half_wid):
    """Corners of a box centered at (x, y), long axis along `heading`."""
    c, s = math.cos(heading), math.sin(heading)
    local = ((half_len, half_wid), (half_len, -half_wid),
             (-half_len, -half_wid), (-half_len, half_wid))
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in local]


def obb_overlap(c1, c2):
    """Separating-axis test between two convex quads (corner lists).

    Each box's extent along an axis is the min and max of its four corner
    projections, taken in corner order with the comparisons that builtin
    `min` and `max` make, so the result matches theirs, NaN included.
    """
    (p0x, p0y), (p1x, p1y), (p2x, p2y), (p3x, p3y) = c1
    (q0x, q0y), (q1x, q1y), (q2x, q2y), (q3x, q3y) = c2
    for corners in (c1, c2):
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            nx, ny = y1 - y2, x2 - x1
            norm = math.hypot(nx, ny)
            if norm == 0.0:
                continue
            ax, ay = nx / norm, ny / norm
            lo1 = hi1 = p0x * ax + p0y * ay
            d = p1x * ax + p1y * ay
            if d < lo1:
                lo1 = d
            elif d > hi1:
                hi1 = d
            d = p2x * ax + p2y * ay
            if d < lo1:
                lo1 = d
            elif d > hi1:
                hi1 = d
            d = p3x * ax + p3y * ay
            if d < lo1:
                lo1 = d
            elif d > hi1:
                hi1 = d
            lo2 = hi2 = q0x * ax + q0y * ay
            d = q1x * ax + q1y * ay
            if d < lo2:
                lo2 = d
            elif d > hi2:
                hi2 = d
            d = q2x * ax + q2y * ay
            if d < lo2:
                lo2 = d
            elif d > hi2:
                hi2 = d
            d = q3x * ax + q3y * ay
            if d < lo2:
                lo2 = d
            elif d > hi2:
                hi2 = d
            if hi1 < lo2 or hi2 < lo1:
                return False
    return True


def _edges(corners):
    """Each edge's (x1, y1, dx, dy, dx*dx + dy*dy), from corner i to i + 1."""
    edges = []
    for (x1, y1), (x2, y2) in zip(corners, corners[1:] + corners[:1]):
        dx, dy = x2 - x1, y2 - y1
        edges.append((x1, y1, dx, dy, dx * dx + dy * dy))
    return edges


def obb_distance(c1, c2):
    """Clearance between two boxes: 0 when they touch or overlap."""
    if obb_overlap(c1, c2):
        return 0.0
    best = math.inf
    hypot = math.hypot
    for points, edges in ((c1, _edges(c2)), (c2, _edges(c1))):
        for x1, y1, dx, dy, den in edges:
            for px, py in points:
                if den == 0.0:
                    d = hypot(px - x1, py - y1)
                else:
                    # max(0.0, min(1.0, t)) without the calls
                    t = ((px - x1) * dx + (py - y1) * dy) / den
                    if not t < 1.0:
                        t = 1.0
                    elif not t > 0.0:
                        t = 0.0
                    d = hypot(px - (x1 + t * dx), py - (y1 + t * dy))
                if d < best:
                    best = d
    # Rounding can put a corner exactly on a nearly parallel edge that the
    # separating-axis test finds apart; 0 must still mean overlap.
    return best if best > 0.0 else math.ulp(0.0)


def segment_hits_aabb(x0, y0, x1, y1, xmin, xmax, ymin, ymax):
    """Liang-Barsky clip: does the segment touch the axis-aligned box?"""
    t0, t1 = 0.0, 1.0
    dx, dy = x1 - x0, y1 - y0
    for p, q in ((-dx, x0 - xmin), (dx, xmax - x0),
                 (-dy, y0 - ymin), (dy, ymax - y0)):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return False
                t0 = max(t0, r)
            else:
                if r < t0:
                    return False
                t1 = min(t1, r)
    return t0 <= t1
