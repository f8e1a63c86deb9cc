"""Reference implementations kept apart from the production code so each
can check the other.

`rho_ref` is the direct recursive robustness evaluator, transcribed from
the definition: scalar recursion with explicit loops and no numpy. It
reads each variable at one scene by `read_ref`, the former per-scene
catalog: one attribute read of the scene per variable.
`obb_distance_ref` and `nearest_npc_sep_ref` are the former box clearance:
every corner against every edge, and every obstacle of a frame tested, none
skipped, on boxes built by `obb_corners_ref`, the former corner-by-corner
`geometry.obb_corners`. `obb_overlap_ref` is the former separating-axis
test, which builds each box's projections as a list for builtin `min` and
`max`.
`npc_obstacles_ref` is the former per-tick NPC loop of the simulator.
`window_agg_ref` is the former `spec_lang._window_agg`, which aggregates
every window of a bounded interval that stops short of the end on a
`sliding_window_view`. `step_frames_ref` is the former
`trace_model.step_frames`, a walk over the frames for each trace step.
`frame_line_ref` is the former record writer: the frame as nested dicts,
passed whole to `json.dumps`, with no text shared between obstacles.
`load_frames_independently` loads each line of a record as a one-line
record of its own, decoded whole (`_decode_reusing` off): with no previous
frame, no obstacle is reused, and no element is read apart from its line,
so every frame is built afresh through the same decoder and value
checks. The first line that fails raises its error, named by its line in
the record.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from driverepair.spec_lang import (
    Always,
    And,
    BoolLit,
    Eventually,
    Next,
    Not,
    Or,
    PredAtom,
    Prop,
    Until,
)
from driverepair import trace_model
from driverepair.trace_model import (
    EGO_HALF_LEN,
    EGO_HALF_WID,
    FAR,
    GEAR_CODE,
    LANE_CODE,
    LIGHT_CODE,
    STEP_S,
    STOPPED_KMH,
    Obstacle,
    RecordError,
    load_record,
)

INF = math.inf


def _flag(on):
    return 1.0 if on else -1.0


# Each variable's reading at one scene, with its arg (a predicate's
# distance threshold, None otherwise).
READ_REF = {
    "speed": lambda s, _: s.speed,
    "accel": lambda s, _: s.accel,
    "rainIntensity": lambda s, _: s.rain,
    "fogIntensity": lambda s, _: s.fog,
    "snowIntensity": lambda s, _: s.snow,
    "visibility": lambda s, _: s.visibility,
    "trafficLightColor": lambda s, _: LIGHT_CODE[s.light_color],
    "laneKind": lambda s, _: LANE_CODE[s.lane_kind],
    "gear": lambda s, _: GEAR_CODE[s.gear],
    "isOverTaking": lambda s, _: _flag(s.overtaking),
    "isChangingLane": lambda s, _: _flag(s.changing_lane),
    "inJunction": lambda s, _: _flag(s.in_junction),
    "junctionCongested": lambda s, _: _flag(s.congested),
    "stopped": lambda s, _: STOPPED_KMH - s.speed,
    "NPCAhead": lambda s, d: d - s.npc_ahead_dist,
    "junctionAhead": lambda s, d: d - s.dist_to_junction,
    "stoplineAhead": lambda s, d: d - s.dist_to_stopline,
    "signAhead": lambda s, d: d - s.dist_to_stop_sign,
    "NearestNPC": lambda s, d: d - s.nearest_npc_sep,
    "dest": lambda s, d: d - s.dist_to_dest,
}


def read_ref(var, scene) -> float:
    return READ_REF[var.name](scene, var.arg)


def _prop_margin(node: Prop, scene) -> float:
    f = node.expr.const
    for coef, var in node.expr.terms:
        f += coef * read_ref(var, scene)
    if node.cmp in (">", ">="):
        return f
    if node.cmp in ("<", "<="):
        return -f
    if node.cmp == "!=":
        return abs(f)
    return -abs(f)  # ==


def rho_ref(phi, trace, t: int = 0, end: int | None = None) -> float:
    if end is None:
        end = len(trace) - 1

    if isinstance(phi, Prop):
        return _prop_margin(phi, trace.scenes[t])
    if isinstance(phi, PredAtom):
        return read_ref(phi.var, trace.scenes[t])
    if isinstance(phi, BoolLit):
        return INF if phi.value else -INF
    if isinstance(phi, Not):
        return -rho_ref(phi.child, trace, t, end)
    if isinstance(phi, And):
        return min(rho_ref(phi.left, trace, t, end),
                   rho_ref(phi.right, trace, t, end))
    if isinstance(phi, Or):
        return max(rho_ref(phi.left, trace, t, end),
                   rho_ref(phi.right, trace, t, end))
    if isinstance(phi, Next):
        if t + 1 > end:
            return INF
        return rho_ref(phi.child, trace, t + 1, end)
    if isinstance(phi, (Always, Eventually)):
        lo = int(phi.lo)
        hi = end if phi.hi == INF else min(int(phi.hi) + t, end)
        values = [rho_ref(phi.child, trace, u, end)
                  for u in range(t + lo, hi + 1)]
        if isinstance(phi, Always):
            return min(values) if values else INF
        return max(values) if values else -INF
    if isinstance(phi, Until):
        lo = int(phi.lo)
        hi = end if phi.hi == INF else min(int(phi.hi) + t, end)
        best = -INF
        for t1 in range(t + lo, hi + 1):
            left_inf = min((rho_ref(phi.left, trace, t2, end)
                            for t2 in range(t, t1 + 1)), default=INF)
            best = max(best, min(rho_ref(phi.right, trace, t1, end), left_inf))
        return best
    raise TypeError(f"unknown node {phi!r}")


def until_double_loop(c1, c2, lo, hi, end: int) -> list:
    """The former production `Until` loop: out[t] for t in [0, end] is the
    max over t1 in [t+lo, min(t+hi, end)] of min(c2[t1], min c1[t..t1])."""
    out = [-INF] * (end + 1)
    lo_i = int(lo)
    for t in range(end + 1):
        hi_t = end if math.isinf(hi) else min(int(hi) + t, end)
        run = INF
        best = -INF
        for t1 in range(t, hi_t + 1):
            run = min(run, c1[t1])
            if t1 >= t + lo_i:
                best = max(best, min(c2[t1], run))
        out[t] = best
    return out


def window_agg_ref(child, lo, hi, is_min: bool):
    """out[..., t] = agg(child[..., t+lo : min(t+hi, end)+1]) along the last
    axis, `end` its last index; empty windows are vacuous."""
    ident = INF if is_min else -INF
    lo_i = int(lo)
    n = child.shape[-1]
    if math.isinf(hi) or int(hi) >= n - 1:   # every window reaches the end
        acc = np.minimum.accumulate if is_min else np.maximum.accumulate
        suffix = acc(child[..., ::-1], axis=-1)[..., ::-1]
        out = np.full(child.shape, ident)
        if lo_i < n:
            out[..., : n - lo_i] = suffix[..., lo_i:]
        return out
    hi_i = int(hi)
    if hi_i < lo_i:                           # every window is empty
        return np.full(child.shape, ident)
    w = hi_i - lo_i + 1
    padded = np.full(child.shape[:-1] + (n + lo_i + w,), ident)
    padded[..., :n] = child
    windows = sliding_window_view(padded, w, axis=-1)
    vals = windows.min(axis=-1) if is_min else windows.max(axis=-1)
    return vals[..., lo_i: lo_i + n]


def step_frames_ref(frames) -> list:
    """Index of the frame behind each trace step: the frame nearest in
    time, the later one on a tie, times compared in whole microseconds
    after the first frame."""
    if not frames:
        raise ValueError("cannot build a trace from an empty record")
    t0 = frames[0].t
    times = [round((f.t - t0) * 1e6) for f in frames]
    step = round(STEP_S * 1e6)
    indices = []
    j = 0
    for i in range(round(times[-1] / step) + 1):
        target = i * step
        while j + 1 < len(times) and abs(times[j + 1] - target) <= abs(times[j] - target):
            j += 1
        indices.append(j)
    return indices


def _point_segment_dist(px, py, x1, y1, x2, y2):
    dx, dy = x2 - x1, y2 - y1
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(px - x1, py - y1)
    t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / den))
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def _interval(corners, ax):
    dots = [cx * ax[0] + cy * ax[1] for cx, cy in corners]
    return min(dots), max(dots)


def obb_overlap_ref(c1, c2):
    """The former `geometry.obb_overlap`: separating-axis test between two
    convex quads (corner lists)."""
    for corners in (c1, c2):
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            nx, ny = y1 - y2, x2 - x1
            norm = math.hypot(nx, ny)
            if norm == 0.0:
                continue
            ax = (nx / norm, ny / norm)
            lo1, hi1 = _interval(c1, ax)
            lo2, hi2 = _interval(c2, ax)
            if hi1 < lo2 or hi2 < lo1:
                return False
    return True


def obb_distance_ref(c1, c2):
    """The former `geometry.obb_distance`: 32 point-segment distances."""
    if obb_overlap_ref(c1, c2):
        return 0.0
    best = math.inf
    for a, b in ((c1, c2), (c2, c1)):
        for px, py in a:
            for i in range(4):
                x1, y1 = b[i]
                x2, y2 = b[(i + 1) % 4]
                d = _point_segment_dist(px, py, x1, y1, x2, y2)
                if d < best:
                    best = d
    return best if best > 0.0 else math.ulp(0.0)


def obb_corners_ref(x, y, heading, half_len, half_wid):
    """The former `geometry.obb_corners`: each corner's local offset turned
    by `heading` and added to (x, y), one corner at a time."""
    c, s = math.cos(heading), math.sin(heading)
    local = ((half_len, half_wid), (half_len, -half_wid),
             (-half_len, -half_wid), (-half_len, half_wid))
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in local]


def nearest_npc_sep_ref(frame):
    """The former clearance loop of `scene_from_frame`: every obstacle's box
    is built and tested against the ego's, in record order."""
    ego = frame.ego
    ego_box = obb_corners_ref(ego.x, ego.y, ego.heading, EGO_HALF_LEN,
                              EGO_HALF_WID)
    sep = FAR
    for ob in frame.obstacles:
        box = obb_corners_ref(ob.x, ob.y, ob.heading, ob.half_len, ob.half_wid)
        sep = min(sep, obb_distance_ref(ego_box, box))
    return sep


def state_at_ref(npc, t):
    """The former body of `NpcSpec.state_at`: a linear scan for the first
    segment whose closed span holds t."""
    wps = npc.waypoints
    if t <= wps[0][0]:
        return wps[0][1], wps[0][2], npc._heading(0), 0.0
    if t >= wps[-1][0]:
        return wps[-1][1], wps[-1][2], npc._heading(len(wps) - 2), 0.0
    for i in range(len(wps) - 1):
        t0, x0, y0, _ = wps[i]
        t1, x1, y1, v1 = wps[i + 1]
        if t0 <= t <= t1:
            frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            x = x0 + frac * (x1 - x0)
            y = y0 + frac * (y1 - y0)
            if x0 == x1 and y0 == y1:
                return x, y, npc._heading(i), 0.0
            return x, y, math.atan2(y1 - y0, x1 - x0), v1
    raise AssertionError("unreachable for time-ordered waypoints")


def npc_obstacles_ref(script, t):
    """The former per-tick loop of `engine._World.emit_frame`: every NPC's
    state, prediction and rounding computed afresh at time t."""
    def round4(x):
        return round(x + 0.0, 4)

    obstacles = []
    for npc in script.npcs:
        x, y, heading, speed = npc.state_at(t)
        obstacles.append(Obstacle(
            id=npc.id, kind=npc.kind,
            x=round4(x), y=round4(y), heading=round4(heading),
            speed=round4(speed),
            half_len=npc.half_len, half_wid=npc.half_wid,
            predicted=tuple((round4(p[0]), round4(p[1]), round4(p[2]))
                            for p in npc.predicted(t)),
        ))
    return tuple(obstacles)


def load_frames_independently(path, work_dir):
    """The frames of the record at `path` in file order, each loaded from a
    one-line copy of its line written to `work_dir`."""
    frames = []
    with open(path, "r", encoding="utf-8") as fh, \
            mock.patch.object(trace_model, "_decode_reusing",
                              return_value=None):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            alone = Path(work_dir) / f"line{lineno}.jsonl"
            alone.write_text(line, encoding="utf-8")
            try:
                frame, = load_record(alone)
            except RecordError as exc:     # named by its line in the record
                raise RecordError(f"line {lineno}"
                                  + str(exc).removeprefix("line 1")) from None
            frames.append(frame)
    return frames


def frame_line_ref(frame) -> str:
    """The frame's canonical JSONL line, built as nested dicts and encoded
    by one `json.dumps` call."""
    doc = {
        "t": frame.t,
        "ego": {
            "x": frame.ego.x, "y": frame.ego.y, "heading": frame.ego.heading,
            "speed": frame.ego.speed, "accel": frame.ego.accel,
            "steering": frame.ego.steering, "gear": frame.ego.gear,
        },
        "obstacles": [
            {
                "id": ob.id, "kind": ob.kind, "x": ob.x, "y": ob.y,
                "heading": ob.heading, "speed": ob.speed,
                "half_len": ob.half_len, "half_wid": ob.half_wid,
                "predicted": [list(p) for p in ob.predicted],
            }
            for ob in frame.obstacles
        ],
        "traffic_light": None if frame.traffic_light is None else {
            "color": frame.traffic_light.color,
            "dist_to_stopline": frame.traffic_light.dist_to_stopline,
        },
        "weather": {
            "rain": frame.weather.rain, "fog": frame.weather.fog,
            "snow": frame.weather.snow, "visibility": frame.weather.visibility,
        },
        "map_ctx": {
            "in_junction": frame.map_ctx.in_junction,
            "dist_to_junction": frame.map_ctx.dist_to_junction,
            "lane_kind": frame.map_ctx.lane_kind,
            "dist_to_dest": frame.map_ctx.dist_to_dest,
            "dist_to_stop_sign": frame.map_ctx.dist_to_stop_sign,
            "is_changing_lane": frame.map_ctx.is_changing_lane,
        },
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
