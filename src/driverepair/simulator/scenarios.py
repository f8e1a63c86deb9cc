"""Scenario scripts: a straight route with junctions, lights, signs, NPCs.

The eight benchmark scripts recreate classic misbehaviour archetypes; the
default planner parameters are deliberately mis-tuned, so every baseline run
violates its paired specification. Route geometry is one straight lane along
+x with a neighbour lane at +3.5 m for borrow maneuvers. Each scenario type
checks its own values when it is built, so built-in scripts and scenario
files pass the same checks.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

from ..trace_model import FAR, LANE_CODE, LIGHT_CODE, OBSTACLE_KINDS
from ..trace_model import WeatherState, missing_key, require_finite, require_id
from ..trace_model import require_list, require_non_negative, require_object
from ..trace_model import require_one_of, require_positive, require_row

# The offsets ahead of a tick at which an NPC's predicted path is sampled:
# every 0.5 s up to 3 s, each exact in binary.
PREDICTION_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
TICK_HZ = 10                # simulator ticks per second


def duration_ticks(seconds: float) -> float:
    """The ticks a duration lasts: seconds * TICK_HZ rounded to a whole
    number, a half to the even one, so tenths of a second are exact. A
    float, so that a duration too long for an int of ticks is inf."""
    return round(seconds * TICK_HZ, 0)


class ScenarioError(ValueError):
    """Malformed scenario script."""


def _raises_scenario_error(check):
    """A `__post_init__` that raises a broken value rule as a ScenarioError."""
    def post_init(self):
        try:
            check(self)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    return post_init


@dataclass(frozen=True)
class NpcSpec:
    id: str
    kind: str = "vehicle"
    half_len: float = 2.3
    half_wid: float = 1.0
    # ((t, x, y, speed_kmh), ...) time-ordered; keyword-only, so that it
    # keeps its place after the fields with defaults
    waypoints: tuple = field(kw_only=True)

    @_raises_scenario_error
    def __post_init__(self):
        wps = self.waypoints
        if not require_list(wps, "npcs.waypoints"):
            raise ValueError("npcs.waypoints must be a non-empty list of"
                             f" [t, x, y, speed_kmh], got {wps!r}")
        for w in wps:
            for v in require_row(w, ("t", "x", "y", "speed_kmh"),
                                 "npcs.waypoints"):
                require_finite(v, "npcs.waypoints")
            require_non_negative(w[3], "npcs.waypoints speed_kmh")
        if any(a[0] > b[0] for a, b in zip(wps, wps[1:])):
            raise ValueError(f"npcs.waypoints must be in time order, got {wps!r}")
        require_one_of(self.kind, OBSTACLE_KINDS, "npcs.kind")
        for attr in ("half_len", "half_wid"):
            name = f"npcs.{attr}"
            require_positive(require_finite(getattr(self, attr), name), name)

    def state_at(self, t: float):
        """Position, heading, speed at time t (holds endpoints)."""
        wps = self.waypoints
        piece = self._piece(t)
        if piece == 0:
            return wps[0][1], wps[0][2], self._heading(0), 0.0
        if piece == len(wps):
            return wps[-1][1], wps[-1][2], self._heading(len(wps) - 2), 0.0
        # segment piece - 1, with t0 < t <= t1
        t0, x0, y0, _ = wps[piece - 1]
        t1, x1, y1, v1 = wps[piece]
        frac = (t - t0) / (t1 - t0)
        x = x0 + frac * (x1 - x0)
        y = y0 + frac * (y1 - y0)
        if x0 == x1 and y0 == y1:
            return x, y, self._heading(piece - 1), 0.0
        return x, y, math.atan2(y1 - y0, x1 - x0), v1

    def _heading(self, seg: int):
        wps = self.waypoints
        for i in range(max(seg, 0), len(wps) - 1):
            if (wps[i][1], wps[i][2]) != (wps[i + 1][1], wps[i + 1][2]):
                return math.atan2(wps[i + 1][2] - wps[i][2],
                                  wps[i + 1][1] - wps[i][1])
        return 0.0

    def predicted(self, t: float):
        out = []
        for rel in PREDICTION_TIMES:
            x, y, _, _ = self.state_at(t + rel)
            out.append((rel, x, y))
        return tuple(out)

    @functools.cached_property
    def _still(self) -> tuple:
        """Whether `state_at` is constant on each piece (see `_piece`): the
        spans before the first and after the last waypoint always are, a
        segment is when it does not move."""
        wps = self.waypoints
        return ((True,)
                + tuple(a[1] == b[1] and a[2] == b[2]
                        for a, b in zip(wps, wps[1:]))
                + (True,))

    @functools.cached_property
    def _times(self) -> tuple:
        return tuple(w[0] for w in self.waypoints)

    def _piece(self, t: float) -> int:
        """Which branch of `state_at` serves time t: 0 up to the first
        waypoint, i + 1 for segment i (its left end belongs to the segment
        before), len(waypoints) from the last waypoint on."""
        times = self._times
        if t <= times[0]:
            return 0
        if t >= times[-1]:
            return len(times)
        return bisect.bisect_left(times, t)

    def hold_at(self, t: float):
        """The hold that covers the prediction window of a tick at time t,
        [t, t + PREDICTION_TIMES[-1]], or None.

        A hold is a piece of `state_at` on which it returns one constant
        value, so the obstacle built at any tick whose window lies inside it
        is the obstacle of every such tick."""
        piece = self._piece(t)
        if (self._still[piece]
                and self._piece(t + PREDICTION_TIMES[-1]) == piece):
            return piece
        return None


@dataclass(frozen=True)
class LightSpec:
    stopline_s: float
    release_s: float                     # control span ends here
    schedule: tuple                      # ((color, duration_s), ...) cycled

    @_raises_scenario_error
    def __post_init__(self):
        require_finite(self.stopline_s, "lights.stopline_s")
        require_finite(self.release_s, "lights.release_s")
        if not require_list(self.schedule, "lights.schedule"):
            raise ValueError("lights.schedule must not be empty")
        for row in self.schedule:
            color, dur = require_row(row, ("color", "duration_s"),
                                     "lights.schedule")
            require_one_of(color, LIGHT_CODE, "lights.schedule")
            if duration_ticks(require_finite(dur, "lights.schedule")) < 1:
                raise ValueError("lights.schedule duration_s must round to at"
                                 f" least one tick, got {dur!r}")

    @functools.cached_property
    def _phase_ends(self) -> tuple:
        """The tick of the cycle at which each phase ends."""
        return tuple(itertools.accumulate(
            duration_ticks(dur) for _, dur in self.schedule))

    def color_at(self, tick: int) -> str:
        """The colour at a tick; the schedule starts at tick 0 and cycles."""
        ends = self._phase_ends
        return self.schedule[bisect.bisect_right(ends, tick % ends[-1])][0]


@dataclass(frozen=True)
class ScenarioScript:
    id: str
    route_len_m: float
    duration_s: float = 200.0
    description: str = ""
    start_speed_kmh: float = 0.0
    lane_segments: tuple = ()            # ((s0, s1, kind), ...), default normal
    junctions: tuple = ()                # ((s0, s1), ...)
    lights: tuple = ()
    stop_signs: tuple = ()
    npcs: tuple = ()
    weather: WeatherState = field(default_factory=WeatherState)

    @_raises_scenario_error
    def __post_init__(self):
        for name in ("lane_segments", "junctions", "stop_signs"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple (a list in a"
                                 f" document), got {getattr(self, name)!r}")
        for name, columns in (("lane_segments", ("s0", "s1", "kind")),
                              ("junctions", ("s0", "s1"))):
            for row in getattr(self, name):
                require_row(row, columns, name)
        if not isinstance(self.description, str):
            raise ValueError("description must be a string,"
                             f" got {self.description!r}")
        w = self.weather     # checked here: records build one per frame
        for name, values in {
                "route_len_m": [self.route_len_m], "duration_s": [self.duration_s],
                "start_speed_kmh": [self.start_speed_kmh],
                "lane_segments": [v for seg in self.lane_segments for v in seg[:2]],
                "junctions": [v for s0, s1 in self.junctions for v in (s0, s1)],
                "stop_signs": self.stop_signs, "weather.rain": [w.rain],
                "weather.fog": [w.fog], "weather.snow": [w.snow],
                "weather.visibility": [w.visibility]}.items():
            for value in values:
                require_finite(value, name)
        require_positive(self.route_len_m, "route_len_m")
        require_positive(self.duration_s, "duration_s")
        require_finite(duration_ticks(self.duration_s), "duration_s in ticks")
        require_non_negative(self.start_speed_kmh, "start_speed_kmh")
        for _, _, kind in self.lane_segments:
            require_one_of(kind, LANE_CODE, "lane_segments")
        require_positive(w.visibility, "weather.visibility")

    @functools.cached_property
    def npc_timeline(self) -> list:
        """Tick -> that tick's NPC obstacles, filled in tick order by the
        simulator on first use and shared by every replay of this script."""
        return []

    @functools.cached_property
    def geometry_memo(self) -> dict:
        """The obstacle geometry of each (ego pose, tick obstacles) that a
        replay of this script has met (`trace_model.scene_from_frame`),
        kept beside `npc_timeline` and shared by every replay likewise."""
        return {}

    def lane_kind_at(self, s: float) -> str:
        for s0, s1, kind in self.lane_segments:
            if s0 <= s <= s1:
                return kind
        return "normal"

    def junction_at(self, s: float):
        for s0, s1 in self.junctions:
            if s0 <= s <= s1:
                return (s0, s1)
        return None

    def dist_to_junction(self, s: float) -> float:
        if self.junction_at(s) is not None:
            return 0.0
        ahead = [s0 - s for s0, _ in self.junctions if s0 > s]
        return min(ahead) if ahead else FAR


# ---------------------------------------------------------------------------
# Benchmark scripts
# ---------------------------------------------------------------------------

def _crosser(npc_id, x, y_from, y_to, speed_ms, t_start):
    dur = abs(y_to - y_from) / speed_ms
    return NpcSpec(
        id=npc_id,
        waypoints=(
            (0.0, x, y_from, 0.0),
            (t_start, x, y_from, 0.0),
            (t_start + dur, x, y_to, speed_ms * 3.6),
        ),
    )


def _s1():
    # Green-light junction; crossing traffic arrives as the ego turns in.
    crossings = (9.9, 12.4, 14.9, 17.4)   # times at which each crosser hits y=0
    npcs = tuple(
        _crosser(f"cross{i + 1}", 130.0, 70.0, -70.0, 12.0, t - 70.0 / 12.0)
        for i, t in enumerate(crossings)
    )
    return ScenarioScript(
        id="S1",
        description="Entered a green-light junction without yielding to"
                    " straight-moving traffic.",
        route_len_m=260.0,
        duration_s=45.0,
        junctions=((120.0, 146.0),),
        lights=(LightSpec(118.0, 146.0, (("green", 600.0),)),),
        npcs=npcs,
    )


def _s2():
    crossings = (17.2, 19.7)
    npcs = tuple(
        _crosser(f"cross{i + 1}", 99.5, 55.0, -55.0, 20.0, t - 55.0 / 20.0)
        for i, t in enumerate(crossings)
    )
    return ScenarioScript(
        id="S2",
        description="Pulled out from a stop sign into oncoming"
                    " straight-through traffic.",
        route_len_m=240.0,
        duration_s=50.0,
        junctions=((85.0, 112.0),),
        stop_signs=(80.0,),
        npcs=npcs,
    )


def _s3():
    return ScenarioScript(
        id="S3",
        description="Entered the intersection on a yellow light.",
        route_len_m=300.0,
        duration_s=50.0,
        junctions=((150.0, 176.0),),
        lights=(LightSpec(148.0, 176.0,
                          (("green", 8.0), ("yellow", 3.0), ("red", 15.0),
                           ("green", 600.0))),),
        npcs=(NpcSpec(id="parked1", waypoints=((0.0, 210.0, 7.0, 0.0),
                                               (600.0, 210.0, 7.0, 0.0))),),
    )


def _s4():
    return ScenarioScript(
        id="S4",
        description="Entered the intersection on a red light.",
        route_len_m=300.0,
        duration_s=60.0,
        junctions=((150.0, 176.0),),
        lights=(LightSpec(148.0, 176.0,
                          (("green", 4.0), ("yellow", 2.0), ("red", 30.0),
                           ("green", 600.0))),),
        npcs=(NpcSpec(id="parked1", waypoints=((0.0, 210.0, 7.0, 0.0),
                                               (600.0, 210.0, 7.0, 0.0))),),
    )


def _s5():
    return ScenarioScript(
        id="S5",
        description="Came to a stop behind a static obstacle in the fast"
                    " lane instead of changing lanes.",
        route_len_m=260.0,
        duration_s=70.0,
        start_speed_kmh=20.0,
        lane_segments=((40.0, 220.0, "fast"),),
        npcs=(NpcSpec(id="stalled1", waypoints=((0.0, 120.0, 0.0, 0.0),
                                                (600.0, 120.0, 0.0, 0.0))),),
    )


def _s6():
    return ScenarioScript(
        id="S6",
        description="Kept speeding in dense fog.",
        route_len_m=340.0,
        duration_s=75.0,
        weather=WeatherState(fog=0.8, visibility=40.0),
        npcs=(NpcSpec(id="parked1", waypoints=((0.0, 200.0, 7.0, 0.0),
                                               (600.0, 200.0, 7.0, 0.0))),),
    )


def _s7():
    def jam(npc_id, x, y):
        return NpcSpec(id=npc_id, waypoints=(
            (0.0, x, y, 0.0),
            (25.0, x, y, 0.0),
            (50.0, x + 250.0, y, 36.0),
        ))

    return ScenarioScript(
        id="S7",
        description="Drove into a junction jammed with stopped traffic.",
        route_len_m=280.0,
        duration_s=75.0,
        junctions=((150.0, 180.0),),
        npcs=(jam("jam1", 165.0, 0.0), jam("jam2", 160.0, 3.5),
              jam("jam3", 170.0, -3.5)),
    )


def _s8():
    return ScenarioScript(
        id="S8",
        description="Got stuck behind a stationary vehicle and never"
                    " finished the journey.",
        route_len_m=260.0,
        duration_s=70.0,
        start_speed_kmh=20.0,
        npcs=(NpcSpec(id="stalled1", waypoints=((0.0, 120.0, 0.0, 0.0),
                                                (600.0, 120.0, 0.0, 0.0))),),
    )


def _empty():
    return ScenarioScript(
        id="empty",
        description="Empty straight road, nothing to do but drive.",
        route_len_m=300.0,
        duration_s=40.0,
    )


_BUILDERS = {"S1": _s1, "S2": _s2, "S3": _s3, "S4": _s4, "S5": _s5,
             "S6": _s6, "S7": _s7, "S8": _s8, "empty": _empty}

# Which specification each benchmark scenario is checked against.
PAIRED_SPECS = {
    "S1": "no_collision",
    "S2": "no_collision",
    "S3": "law38_yellow",
    "S4": "law38_red",
    "S5": "law44",
    "S6": "law46",
    "S7": "law53",
    "S8": "finish_journey",
}


def scenario_by_id(scenario_id: str) -> ScenarioScript:
    try:
        return _BUILDERS[scenario_id]()
    except KeyError:
        raise ScenarioError(f"unknown scenario {scenario_id!r}; expected one of"
                            f" {sorted(_BUILDERS)}") from None


def benchmark_suite() -> list:
    """The eight benchmark scripts, S1 through S8."""
    return [scenario_by_id(f"S{i}") for i in range(1, 9)]


# ---------------------------------------------------------------------------
# JSON scenario files
# ---------------------------------------------------------------------------

def script_to_dict(script: ScenarioScript) -> dict:
    """The JSON document of a script; `script_from_dict` reads it back."""
    return asdict(script)


def _plain(value):
    """A JSON value as the scenario types hold it: a list (or tuple) as a
    tuple, a number as a float; anything else, true and false too, is left
    for the types to refuse."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_plain, value))
    if value is True or value is False:     # an int to Python
        return value
    try:
        return value * 1.0
    except (TypeError, OverflowError):
        return value


def _build(cls, doc, name, **convert):
    """A `cls` from its JSON object `doc`, each value passed through its
    field's converter in `convert` or `_plain`. A key that names no field
    is refused, so a misspelt one cannot leave its field at the default,
    and so is a missing field that has no default; any other omitted
    field takes the type's own default. Unknown keys are reported first,
    then faults in the objects it holds, then missing keys, then the
    type's own checks."""
    require_object(doc, name)
    known = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {name}")
    values = {key: convert.get(key, _plain)(value) for key, value in doc.items()}
    for key, f in known.items():
        if (key not in doc and f.default is MISSING
                and f.default_factory is MISSING):
            raise missing_key(key, name)
    return cls(**values)


def _each(cls, name, **convert):
    """A converter of a JSON list of `cls` objects, the i-th named name[i]."""
    return lambda docs: tuple(_build(cls, doc, f"{name}[{i}]", **convert)
                              for i, doc in enumerate(require_list(docs, name)))


def script_from_dict(doc: dict) -> ScenarioScript:
    """A script from its JSON document (see `_build`): the scenario types
    check the values, and a key the document omits takes its type's
    default."""
    try:
        return _build(ScenarioScript, doc, "scenario",
                      id=lambda v: require_id(v, "id"),
                      lights=_each(LightSpec, "lights"),
                      npcs=_each(NpcSpec, "npcs",
                                 id=lambda v: require_id(v, "npcs.id")),
                      weather=lambda w: _build(WeatherState, w, "weather"))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario document: {exc}") from exc


def resolve_script(name_or_path) -> ScenarioScript:
    """Accept a built-in scenario id or a path to a scenario JSON file."""
    name_or_path = str(name_or_path)
    if name_or_path in _BUILDERS:
        return _BUILDERS[name_or_path]()
    if not os.path.exists(name_or_path):
        raise ScenarioError(f"unknown scenario {name_or_path!r}: neither a"
                            " scenario file nor a built-in"
                            f" ({', '.join(_BUILDERS)})")
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return script_from_dict(json.load(fh))
