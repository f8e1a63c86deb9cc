"""2D oriented-bounding-box helpers: corners, overlap test, clearance.

`obb_distance` returns the clearance that every corner of each box against
every edge of the other gives (`tests/oracle_reference.py` keeps that loop
as `obb_distance_ref`), bit for bit, but screens each corner first. No
point of a rectangle lies farther from its centre than its half-diagonal
r, so a corner at distance d from the other box's centre is at least
d - r from every edge of that box. Once d > best + r + slack, where best
is the smallest clearance found so far, none of that corner's four
distances can be below best, and skipping them keeps the minimum. The
corners are tried nearest first, so the first one that passes the screen
ends its side: every later corner is farther, and best only falls.

The bits hold because a skipped distance could not have changed best, and
every distance that is computed uses the oracle's arithmetic: the same
clamped projection, `den` as `dx * dx + dy * dy` (`dx ** 2` goes through
`pow`, whose rounding differs) and `math.hypot`. The slack, `_SKIP_MARGIN`
of the sum of the coordinate magnitudes, covers the rounding of the
centres, of r, of the squares and of the distances themselves, each about
1e-16 of those magnitudes; `trace_model.obstacle_geometry` uses the same
margin for its screen of whole obstacles.
"""
from __future__ import annotations

import math

_SKIP_MARGIN = 1e-9        # relative rounding margin of a clearance screen


def obb_corners(x, y, heading, half_len, half_wid):
    """Corners of a box centered at (x, y), long axis along `heading`.

    Corner i is (x + dx*c - dy*s, y + dx*s + dy*c) for the local offsets
    (half_len, half_wid), (half_len, -half_wid), (-half_len, -half_wid)
    and (-half_len, half_wid), written with four products: `(-a) * c` is
    `-(a * c)` and `x + (-v)` is `x - v`, bit for bit.
    """
    c, s = math.cos(heading), math.sin(heading)
    lc, ls = half_len * c, half_len * s
    wc, ws = half_wid * c, half_wid * s
    return [(x + lc - ws, y + ls + wc), (x + lc + ws, y + ls - wc),
            (x - lc + ws, y - ls - wc), (x - lc - ws, y - ls + wc)]


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
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
    d0x, d0y, d1x, d1y = x1 - x0, y1 - y0, x2 - x1, y2 - y1
    d2x, d2y, d3x, d3y = x3 - x2, y3 - y2, x0 - x3, y0 - y3
    return ((x0, y0, d0x, d0y, d0x * d0x + d0y * d0y),
            (x1, y1, d1x, d1y, d1x * d1x + d1y * d1y),
            (x2, y2, d2x, d2y, d2x * d2x + d2y * d2y),
            (x3, y3, d3x, d3y, d3x * d3x + d3y * d3y))


def _by_distance(corners, cx, cy):
    """(squared distance to (cx, cy), x, y) of each corner, nearest first."""
    keyed = []
    for px, py in corners:
        ex, ey = px - cx, py - cy
        keyed.append((ex * ex + ey * ey, px, py))
    keyed.sort()
    return keyed


def obb_distance(c1, c2):
    """Clearance between two boxes: 0 when they touch or overlap.

    Each box's corners must be a rectangle's, in order around it, as
    `obb_corners` makes them: the screen takes the centre and half-diagonal
    from corners 0 and 2.
    """
    if obb_overlap(c1, c2):
        return 0.0
    (a0x, a0y), _, (a2x, a2y), _ = c1
    (b0x, b0y), _, (b2x, b2y), _ = c2
    hypot = math.hypot
    ax, ay = (a0x + a2x) * 0.5, (a0y + a2y) * 0.5
    bx, by = (b0x + b2x) * 0.5, (b0y + b2y) * 0.5
    ra = hypot(a2x - a0x, a2y - a0y) * 0.5
    rb = hypot(b2x - b0x, b2y - b0y) * 0.5
    slack = _SKIP_MARGIN * (abs(ax) + abs(ay) + abs(bx) + abs(by) + ra + rb)
    best = math.inf
    for points, cx, cy, r, box in ((c1, bx, by, rb, c2), (c2, ax, ay, ra, c1)):
        edges = None
        for d2, px, py in _by_distance(points, cx, cy):
            reach = best + r + slack
            if d2 > reach * reach:
                break
            if edges is None:
                edges = _edges(box)
            for x1, y1, dx, dy, den in edges:
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
