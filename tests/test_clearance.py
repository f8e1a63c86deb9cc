"""The scene's box clearance against the unpruned oracle loop, and the
scene's distances under a rigid motion of the whole frame."""
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_reference import nearest_npc_sep_ref

from driverepair.trace_model import (
    AHEAD_LATERAL_M,
    EGO_HALF_LEN,
    EGO_HALF_WID,
    EgoPose,
    Obstacle,
    RawRecordFrame,
    scene_from_frame,
)

heading = st.floats(-math.pi, math.pi)
half = st.floats(0.05, 5.0)
# Arbitrary coordinates, or quarter metres, on which the "ring" obstacles
# below sit at exactly equal centre distances.
coord = st.one_of(st.floats(-5000.0, 5000.0),
                  st.integers(-20000, 20000).map(lambda v: v / 4))
RING = ((5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (-4, 3), (4, -3), (-3, -4))
CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SIDES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def facing_corner(corner, hl, hw, gap):
    """Ego-frame centre and heading of a box whose corner faces the ego's
    `corner` (signs of x, y) `gap` away, across the line through both
    centres: its clearance equals the centre distance less both
    half-diagonals, the skip's lower bound."""
    sx, sy = corner
    toward = math.atan2(sy * EGO_HALF_WID, sx * EGO_HALF_LEN)
    reach = math.hypot(EGO_HALF_LEN, EGO_HALF_WID) + gap + math.hypot(hl, hw)
    return (reach * math.cos(toward), reach * math.sin(toward),
            toward - math.atan2(hw, hl))


def frame_at(ex, ey, eh, obstacles):
    ego = EgoPose(x=ex, y=ey, heading=eh, speed=10.0, accel=0.0, steering=0.0)
    return RawRecordFrame(t=0.0, ego=ego, obstacles=tuple(
        Obstacle(id=f"o{i}", kind="vehicle", x=x, y=y, heading=h, speed=0.0,
                 half_len=hl, half_wid=hw)
        for i, (x, y, h, hl, hw) in enumerate(obstacles)))


@st.composite
def frames(draw):
    """0-12 obstacles around an ego at any pose: free boxes, boxes resting
    against an ego side (touching, overlapping or 1e-12 m apart), boxes
    corner to corner with the ego and boxes of one size at one centre
    distance."""
    ex, ey, eh = draw(coord), draw(coord), draw(heading)
    c, s = math.cos(eh), math.sin(eh)
    ring_k = draw(st.integers(1, 16)) / 4
    ring_box = (draw(half), draw(half), draw(st.sampled_from(
        [0.0, math.pi / 2, math.pi, eh])))
    obstacles = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["free", "resting", "corner", "ring"]))
        if kind == "ring":
            rx, ry = draw(st.sampled_from(RING))
            x, y = ex + rx * ring_k, ey + ry * ring_k
            hl, hw, h = ring_box
        else:
            hl, hw = draw(half), draw(half)
            if kind == "corner":
                corner = draw(st.sampled_from(CORNERS))
                gap = draw(st.sampled_from([0.0, 1e-12, 0.3]))
                lx, ly, turn = facing_corner(corner, hl, hw, gap)
                h = eh + turn
            elif kind == "free":
                lx, ly = draw(st.floats(-30, 30)), draw(st.floats(-30, 30))
                h = draw(heading)
            else:
                turn = draw(st.sampled_from([0.0, math.pi / 2, math.pi]))
                gap = draw(st.sampled_from([0.0, 1e-12, -1e-12, 0.3]))
                along = draw(st.floats(-1.0, 1.0))
                ext_l, ext_w = (hw, hl) if turn == math.pi / 2 else (hl, hw)
                sx, sy = draw(st.sampled_from(SIDES))
                if sx:
                    lx = sx * (EGO_HALF_LEN + ext_l + gap)
                    ly = along * (EGO_HALF_WID + ext_w)
                else:
                    lx = along * (EGO_HALF_LEN + ext_l)
                    ly = sy * (EGO_HALF_WID + ext_w + gap)
                h = eh + turn
            x, y = ex + lx * c - ly * s, ey + lx * s + ly * c
        obstacles.append((x, y, h, hl, hw))
    return frame_at(ex, ey, eh, obstacles)


@settings(max_examples=400, deadline=None)
@given(frames())
# Both boxes 0.3 m corner to corner: the 2 x 1 box's bound, rounded, lies
# above the 1 x 0.5 box's clearance while its own clearance lies 3 ulps below.
@example(frame_at(0.0, 0.0, 0.0, [
    (*facing_corner((1, 1), 2.0, 1.0, 0.3), 2.0, 1.0),
    (*facing_corner((1, -1), 1.0, 0.5, 0.3), 1.0, 0.5)]))
# A 2 x 2 box 4.4e-16 from the ego: the corner that holds the clearance lies
# within rounding of the screen's bound, so a screen without its slack
# skips it and reads 5.0e-16.
@example(frame_at(0.0, 0.0, 0.0, [(4.9912842565725315, 2.1836868622504824,
                                   -0.37298772180006096, 2.0, 2.0)]))
def test_clearance_equals_unpruned_loop(frame):
    assert (scene_from_frame(frame).nearest_npc_sep.hex()
            == nearest_npc_sep_ref(frame).hex())


def moved(frame, tx, ty, turn):
    """The frame turned by `turn` about the origin, then shifted by (tx, ty)."""
    c, s = math.cos(turn), math.sin(turn)

    def place(thing):
        return dict(x=thing.x * c - thing.y * s + tx,
                    y=thing.x * s + thing.y * c + ty,
                    heading=thing.heading + turn)

    ego = EgoPose(speed=frame.ego.speed, accel=0.0, steering=0.0,
                  **place(frame.ego))
    obstacles = tuple(Obstacle(id=ob.id, kind=ob.kind, speed=ob.speed,
                               half_len=ob.half_len, half_wid=ob.half_wid,
                               **place(ob))
                      for ob in frame.obstacles)
    return RawRecordFrame(t=frame.t, ego=ego, obstacles=obstacles)


def _off_corridor_edges(frame):
    """No obstacle sits within rounding of the "ahead" corridor's edges,
    where a moved copy may fall on the other side."""
    ego = frame.ego
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    for ob in frame.obstacles:
        dx, dy = ob.x - ego.x, ob.y - ego.y
        lon, lat = c * dx + s * dy, -s * dx + c * dy
        if abs(lon) < 1e-6 or abs(abs(lat) - AHEAD_LATERAL_M) < 1e-6:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(frames(), st.floats(-1000, 1000), st.floats(-1000, 1000), heading)
def test_rigid_motion_keeps_distances(frame, tx, ty, turn):
    assume(_off_corridor_edges(frame))
    before = scene_from_frame(frame)
    after = scene_from_frame(moved(frame, tx, ty, turn))
    for name in ("nearest_npc_sep", "nearest_npc_dist", "npc_ahead_dist"):
        assert math.isclose(getattr(before, name), getattr(after, name),
                            rel_tol=0.0, abs_tol=1e-9), name
