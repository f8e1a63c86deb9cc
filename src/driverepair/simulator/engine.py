"""Fixed-step kinematic replay: scripted world, parameterized ego planner.

The ego runs a 1.5-D model: arc length along the route plus a lateral lane
offset for borrow maneuvers. Each tick the planner picks the lowest of the
applicable speed targets (cruise, light stop, sign stop, obstacle stop or
follow, yield hold) and tracks it with bounded acceleration. Rule programs
rewrite planner parameters live through the same scene the emitted frame
describes, so replaying the record reproduces every decision input.

The clock is the tick count: tick k is at k / TICK_HZ s, the double nearest
the decimal a script writes, so a light phase or waypoint that a script puts
on a tenth of a second falls on its tick. A run, a light phase and a
stop-sign wait last whole ticks (`scenarios.duration_ticks`), so no float
sum decides when one ends. The NPCs follow their scripts whatever the ego
does, so each tick's obstacles are built once per script, in tick order,
into `ScenarioScript.npc_timeline`, and every replay shares them. An NPC
whose prediction window lies in the same hold (`NpcSpec.hold_at`) as at the
previous tick keeps that tick's obstacle, and a tick whose NPCs are all
held keeps that tick's obstacles tuple.

A frame's obstacle geometry (`trace_model.obstacle_geometry`) depends only
on the ego's x, y, heading and dist_to_junction and on the tick's obstacles,
and a replay meets the same inputs again wherever the ego stands still or
passes a pose that the baseline or another replay had at that tick. So the
geometry is kept in a memo beside the timeline,
`ScenarioScript.geometry_memo`, keyed by those four floats and the
obstacles tuple by identity (`trace_model.scene_from_frame`). Every replay
of the script reads it, and it goes with the script: a `cmd_repair` or CLI
call resolves its script anew, so it computes every geometry again. Keys
equal by `==` hold equal bits, because no key float is -0.0, the one float
`==` to a float of other bits: `_round4` adds 0.0, which turns -0.0 into
0.0, and it rounds s >= 0, a lateral offset between 0 and BORROW_OFFSET and
a distance to the junction >= 0; the heading is the literal 0.0.

A frame's ego pose, map context and light state are built again only when
what they are built from changes, and a standing ego repeats all three
tick after tick. The pose is kept while the unrounded s, offset, v, prev_v
and steering are equal, the map context while s and the lane-change flag
are, and the light state while the light, its colour at the tick and s
are. Consecutive frames then hold the same objects, and the record writer
writes such a part once (`trace_model.record_bytes`). The keys are never
rounded values: `_round4` rounds an accel of -1e-05 to -0.0, which is `==`
0.0, so a pose kept on rounded equality would write 0.0 in its place.
Unrounded floats that are `==` but differ in bits are 0.0 and -0.0, which
`_round4` writes alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import segment_hits_aabb
from ..mudrive.catalog import DEFAULT_PARAMS, PlannerParams
from ..mudrive.grammar import MuDriveProgram
from ..mudrive.runtime import RuleStates, step_rules
from ..mudrive.validate import require_valid
from ..trace_model import (
    EGO_HALF_LEN,
    FAR,
    STOPPED_KMH,
    EgoPose,
    MapContext,
    Obstacle,
    RawRecordFrame,
    TrafficLightState,
)
from .scenarios import TICK_HZ, ScenarioScript, duration_ticks

DT = 1 / TICK_HZ
STOPLINE_STANDOFF = 4.0     # stop this far before a stop line or sign
CRUISE_MARGIN_KMH = 0.5     # planner keeps this much under the cruise setting
BASE_ACCEL = 3.0            # m/s^2 at obstacle_decrease_ratio 1
CORRIDOR_HALF_WIDTH = 2.0
STANDSTILL = STOPPED_KMH / 3.6  # m/s
BORROW_OFFSET = 3.0
BORROW_SLEW = 1.5           # m/s lateral
BLOCKED_BEFORE_BORROW_S = 5.0
MOVING_NPC_KMH = 3.0

OUTCOME_REACHED = "reached_destination"
OUTCOME_COLLIDED = "collided"
OUTCOME_TIMEOUT = "timed_out"


@dataclass
class _SignState:
    waited: int = 0             # ticks stood at the sign
    served: bool = False


def _stop_profile(a_max: float, run: float) -> float:
    return math.sqrt(2.0 * a_max * max(0.0, run))


def _round4(x: float) -> float:
    return round(x + 0.0, 4)


def _npc_obstacle(npc, t: float) -> Obstacle:
    """A scripted NPC as a frame at time t records it."""
    x, y, heading, speed = npc.state_at(t)
    return Obstacle(
        id=npc.id, kind=npc.kind,
        x=_round4(x), y=_round4(y), heading=_round4(heading),
        speed=_round4(speed),
        half_len=npc.half_len, half_wid=npc.half_wid,
        predicted=tuple((rel, _round4(px), _round4(py))
                        for rel, px, py in npc.predicted(t)),
    )


def _tick_obstacles(script: ScenarioScript, tick: int) -> tuple:
    """The NPC obstacles of a tick. A replay counts its ticks from 0, so a
    tick past the end of the timeline is the next one to fill."""
    timeline = script.npc_timeline
    if tick < len(timeline):
        return timeline[tick]
    t, prev_t = tick / TICK_HZ, (tick - 1) / TICK_HZ
    obstacles = []
    held = tick > 0
    for k, npc in enumerate(script.npcs):
        hold = npc.hold_at(t)
        if tick and hold is not None and npc.hold_at(prev_t) == hold:
            obstacles.append(timeline[tick - 1][k])
        else:
            obstacles.append(_npc_obstacle(npc, t))
            held = False
    # when every NPC is held, the tick shares the previous tick's tuple
    obstacles = timeline[tick - 1] if held else tuple(obstacles)
    timeline.append(obstacles)
    return obstacles


class _World:
    def __init__(self, script: ScenarioScript):
        self.script = script
        self.s = 0.0
        self.v = script.start_speed_kmh / 3.6   # m/s
        self.prev_v = self.v
        self.offset = 0.0
        self.offset_goal = 0.0
        self.borrow_phase = "none"      # none | out | pass | back
        self.borrow_past_s = 0.0
        self.blocked_time = 0.0
        self.signs = [_SignState() for _ in script.stop_signs]
        # the last ego pose, map context and light state built, each as
        # (the unrounded inputs it was built from, the value)
        self._ego = self._map_ctx = self._light = (None, None)

    # -- frame emission -----------------------------------------------------

    def current_light(self):
        for light in self.script.lights:
            if self.s <= light.release_s:
                return light
        return None

    def emit_frame(self, tick: int) -> RawRecordFrame:
        script = self.script
        t = tick / TICK_HZ
        obstacles = _tick_obstacles(script, tick)

        light = self.current_light()
        light_state = None
        if light is not None:
            key = (light, light.color_at(tick), self.s)
            if key != self._light[0]:
                self._light = key, TrafficLightState(
                    key[1], _round4(light.stopline_s - self.s))
            light_state = self._light[1]

        changing = abs(self.offset_goal - self.offset) > 1e-9
        steering = 0.0
        if changing:
            steering = 6.0 if self.offset_goal > self.offset else -6.0

        key = (self.s, self.offset, self.v, self.prev_v, steering)
        if key != self._ego[0]:
            accel = (self.v - self.prev_v) / DT
            self._ego = key, EgoPose(
                _round4(self.s), _round4(self.offset), 0.0,
                _round4(self.v * 3.6), _round4(accel), _round4(steering),
                "drive")

        key = (self.s, changing)
        if key != self._map_ctx[0]:
            signs_ahead = [s for s in script.stop_signs if s >= self.s - 1.0]
            dist_sign = min(signs_ahead) - self.s if signs_ahead else FAR
            self._map_ctx = key, MapContext(
                script.junction_at(self.s) is not None,
                _round4(script.dist_to_junction(self.s)),
                script.lane_kind_at(self.s),
                _round4(max(0.0, script.route_len_m - self.s)),  # to dest
                _round4(max(0.0, dist_sign)),                    # to stop sign
                changing)
        return RawRecordFrame(t, self._ego[1], obstacles, light_state,
                              script.weather, self._map_ctx[1])

    # -- planner ------------------------------------------------------------

    def _nearest_ahead(self, frame):
        """The nearest obstacle in the ego lane corridor ahead, as (gap,
        obstacle), or None; on a tie, the first in frame order."""
        nearest = None
        for ob in frame.obstacles:
            lon = ob.x - self.s
            lat = ob.y - self.offset
            if lon > 0.5 and abs(lat) < CORRIDOR_HALF_WIDTH:
                gap = lon - ob.half_len - EGO_HALF_LEN
                if nearest is None or gap < nearest[0]:
                    nearest = gap, ob
        return nearest

    def _yield_conflict(self, frame, yield_dist: float) -> bool:
        """Crossing traffic whose predicted path cuts the corridor close ahead."""
        for ob in frame.obstacles:
            if ob.speed < MOVING_NPC_KMH:
                continue
            lon = ob.x - self.s
            lat = ob.y - self.offset
            if lon > 0.5 and abs(lat) < CORRIDOR_HALF_WIDTH:
                continue  # already a follow/stop case
            if math.hypot(ob.x - self.s, ob.y - self.offset) > 2.5 * yield_dist:
                continue
            band = CORRIDOR_HALF_WIDTH + ob.half_wid
            pts = [(ob.x, ob.y)] + [(px, py) for _, px, py in ob.predicted]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if segment_hits_aabb(x0 - self.s, y0 - self.offset,
                                     x1 - self.s, y1 - self.offset,
                                     0.5, yield_dist, -band, band):
                    return True
        return False

    def _oncoming_gap_clear(self, frame, overtake_dist: float) -> bool:
        for ob in frame.obstacles:
            if ob.speed < MOVING_NPC_KMH:
                continue
            lon = ob.x - self.s
            lat = ob.y - self.offset
            if lon > 0 and 0.5 <= lat <= 5.5 and lon <= overtake_dist + 20.0:
                return False
        return True

    def plan(self, frame, params: PlannerParams):
        a_max = BASE_ACCEL * max(params.obstacle_decrease_ratio, 0.1)
        targets = [max(0.0, params.cruise_speed_kmh - CRUISE_MARGIN_KMH) / 3.6]

        # red / yellow light: brake once the stopline is within the
        # engagement distance, aiming at a fixed standoff before the line
        light = frame.traffic_light
        if (light is not None and light.color in ("red", "yellow")
                and 0.0 <= light.dist_to_stopline <= params.traffic_light_stop_dist_m):
            targets.append(_stop_profile(
                a_max, light.dist_to_stopline - STOPLINE_STANDOFF))

        # stop signs: always anticipated; wait, then proceed
        for sign_s, state in zip(self.script.stop_signs, self.signs):
            if state.served:
                continue
            ds = sign_s - self.s
            if ds < -1.0:
                state.served = True
                continue
            targets.append(_stop_profile(a_max, ds - STOPLINE_STANDOFF))
            if self.v < STANDSTILL and ds - STOPLINE_STANDOFF <= 1.0:
                state.waited += 1
                if state.waited >= duration_ticks(params.stop_sign_wait_s):
                    state.served = True

        # obstacles ahead in the corridor: stop behind static ones, follow
        # moving ones
        nearest = self._nearest_ahead(frame)
        blocker = None
        if nearest is not None:
            gap, ob = nearest
            lead_v = ob.speed / 3.6
            if lead_v * 3.6 < MOVING_NPC_KMH:
                targets.append(_stop_profile(a_max, gap - params.obstacle_stop_dist_m))
                if gap <= params.obstacle_stop_dist_m + 4.0:
                    blocker = ob
            elif gap <= 1.5 * params.follow_dist_m:
                targets.append(max(0.0, lead_v + 0.5 * (gap - params.follow_dist_m)))

        if self._yield_conflict(frame, params.yield_dist_m):
            targets.append(0.0)

        # lane borrow state machine
        if self.borrow_phase == "none":
            if blocker is not None and self.v < STANDSTILL:
                self.blocked_time += DT
            else:
                self.blocked_time = 0.0
            if (params.lane_borrow_enabled and blocker is not None
                    and self.blocked_time > BLOCKED_BEFORE_BORROW_S
                    and self._oncoming_gap_clear(frame, params.overtake_dist_m)):
                self.borrow_phase = "out"
                self.offset_goal = BORROW_OFFSET
                self.borrow_past_s = (blocker.x + blocker.half_len
                                      + EGO_HALF_LEN + 3.0)
        elif self.borrow_phase == "out":
            if self.offset >= BORROW_OFFSET - 0.1:
                self.borrow_phase = "pass"
        elif self.borrow_phase == "pass":
            if self.s > self.borrow_past_s:
                self.borrow_phase = "back"
                self.offset_goal = 0.0
        elif self.borrow_phase == "back":
            if abs(self.offset) <= 0.05:
                self.borrow_phase = "none"
                self.blocked_time = 0.0

        return min(targets), a_max

    def integrate(self, target: float, a_max: float):
        self.prev_v = self.v
        dv = max(-a_max * DT, min(a_max * DT, target - self.v))
        self.v = max(0.0, self.v + dv)
        self.s += self.v * DT
        if self.offset != self.offset_goal:
            step = BORROW_SLEW * DT
            delta = self.offset_goal - self.offset
            self.offset += math.copysign(min(step, abs(delta)), delta)


def run_scenario(script: ScenarioScript, program: MuDriveProgram | None = None):
    """Replay a script, optionally under a repair program.

    Returns (frames, outcome); deterministic for identical inputs. A program
    that fails `validate` raises a ValueError naming each problem.
    """
    if program is not None:
        require_valid(program)
    world = _World(script)
    states = RuleStates()
    frames = []
    outcome = OUTCOME_TIMEOUT

    for tick in range(int(duration_ticks(script.duration_s)) + 1):
        frame = world.emit_frame(tick)
        frames.append(frame)

        scene = frame.scene_with(script.geometry_memo)
        if scene.nearest_npc_sep == 0.0:    # boxes touch or overlap
            outcome = OUTCOME_COLLIDED
            break
        if script.route_len_m - world.s <= 0.5:
            outcome = OUTCOME_REACHED
            break

        if program is not None:
            params, states = step_rules(program, scene, states)
        else:
            params = DEFAULT_PARAMS
        target, a_max = world.plan(frame, params)
        world.integrate(target, a_max)

    return frames, outcome
