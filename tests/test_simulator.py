import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import at_20hz
from oracle_reference import frame_line_ref

from driverepair.mudrive import DEFAULT_PARAMS, parse_program
from driverepair.simulator import (
    PAIRED_SPECS,
    benchmark_suite,
    evaluate_trace,
    resolve_script,
    run_scenario,
    scenario_by_id,
    script_from_dict,
    script_to_dict,
)
from driverepair.simulator.engine import (
    BLOCKED_BEFORE_BORROW_S,
    CRUISE_MARGIN_KMH,
    _World,
)
from driverepair.simulator.scenarios import (
    LightSpec,
    NpcSpec,
    ScenarioError,
    ScenarioScript,
)
from driverepair.spec_lang import robustness
from driverepair.trace_model import (
    STOPPED_KMH,
    EgoPose,
    Obstacle,
    RawRecordFrame,
    WeatherState,
    build_trace,
    record_bytes,
)

RED_LIGHT_FIX = """
rule "approach lights gently"
trigger
    always
condition
    traffic_light_distance_leq(80)
then
    cruise_speed(8)
end

rule "stop close to the line at red"
trigger
    always
condition
    is_traffic_light(red)
then
    traffic_light_stop_dist(5)
end
"""

STOP_SIGN_WAIT = """
rule "wait at stop signs"
trigger
    always
condition
    speed_leq(100)
then
    stop_sign_wait(%s)
end
"""


class TestRunScenario:
    def test_empty_road_reaches_near_cruise(self):
        frames, outcome = run_scenario(scenario_by_id("empty"))
        assert outcome == "reached_destination"
        steady = [f.ego.speed for f in frames[-40:]]
        assert all(abs(v - 72.0) < 1.0 for v in steady)

    def test_s4_baseline_runs_the_red(self, baseline_runs, specs):
        run = baseline_runs["S4"]
        assert robustness(specs["law38_red"], run["trace"]) <= 0

    def test_s4_with_red_light_rule_passes(self, specs):
        program = parse_program(RED_LIGHT_FIX)
        frames, outcome = run_scenario(scenario_by_id("S4"), program)
        trace = build_trace(frames)
        assert outcome == "reached_destination"
        assert robustness(specs["law38_red"], trace) > 0

    def test_determinism_byte_identical(self):
        script = scenario_by_id("S1")
        frames_a, outcome_a = run_scenario(script)
        frames_b, outcome_b = run_scenario(script)
        assert outcome_a == outcome_b
        dump = lambda frames: "".join(map(frame_line_ref, frames))
        assert dump(frames_a) == dump(frames_b)

    def test_no_teleportation(self, baseline_runs):
        for sid, run in baseline_runs.items():
            frames = run["frames"]
            for a, b in zip(frames, frames[1:]):
                dt = b.t - a.t
                v_max = max(a.ego.speed, b.ego.speed) / 3.6
                dist = math.hypot(b.ego.x - a.ego.x, b.ego.y - a.ego.y)
                assert dist <= v_max * dt + 0.5 * 6.0 * dt * dt + 1e-6, sid

    def test_closed_loop_reingestion(self, baseline_runs, tmp_path):
        from driverepair.trace_model import load_record, save_record
        for sid, run in baseline_runs.items():
            path = tmp_path / f"{sid}.jsonl"
            save_record(run["frames"], path)
            again = load_record(path)
            assert len(again) == len(run["frames"])
            build_trace(again)

    @pytest.mark.parametrize("word, then", [
        ("unknown event 'nosuch'", "nosuch\nthen\n cruise_speed(30)"),
        ("unknown action 'warp'", "always\nthen\n warp(3)"),
        ("cruise_speed takes 1 argument", "always\nthen\n cruise_speed"),
    ], ids=["unknown-event", "unknown-action", "missing-argument"])
    def test_invalid_program_refused(self, word, then):
        program = parse_program(f'rule "x"\ntrigger\n {then}\nend\n')
        with pytest.raises(ValueError, match=word):
            run_scenario(scenario_by_id("S6"), program)

    def test_malformed_script_rejected(self):
        with pytest.raises(ScenarioError):
            script_from_dict({"id": "bad", "route_len_m": -5})

    @pytest.mark.parametrize("field, literal", [
        ("route_len_m", "NaN"), ("duration_s", "Infinity"),
        pytest.param("route_len_m", "1" + "0" * 400, id="int-beyond-float")])
    def test_non_finite_script_number_rejected(self, field, literal):
        doc = {"id": "bad", "route_len_m": 100, field: json.loads(literal)}
        with pytest.raises(ScenarioError, match=field):
            script_from_dict(doc)

    @pytest.mark.parametrize("field, edit", [
        ("route_len_m", lambda doc: doc.update(route_len_m="300")),
        ("weather.fog", lambda doc: doc["weather"].update(fog="nan")),
        ("npcs.waypoints",
         lambda doc: doc["npcs"][0]["waypoints"][0].__setitem__(1, "inf")),
        ("lights.schedule", lambda doc: doc["lights"][0].update(
            schedule=[["red", "10"]])),
    ], ids=["route_len_m", "weather.fog", "npcs.waypoints", "lights.schedule"])
    def test_number_written_as_a_string_is_refused(self, field, edit):
        # the reader of records refuses these too
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S4"))))
        edit(doc)
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {re.escape(field)} must be a"
                r" finite number, got '")):
            script_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "scenario must be an object, got [1, 2]"),
        ("S6", "scenario must be an object, got 'S6'"),
        ({"id": "w", "route_len_m": 100, "weather": []},
         "weather must be an object, got []"),
    ], ids=["list", "string", "weather-list"])
    def test_document_that_is_not_an_object_is_refused(self, doc, message):
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {re.escape(message)}$")):
            script_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("npcs", {}), ("npcs", {"id": "car"}), ("lights", ""),
        ("lights", "red")])
    def test_npcs_and_lights_must_be_lists(self, key, value):
        # iterated as they came, {} and "" built a script with none
        doc = {"id": "x", "route_len_m": 100, key: value}
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {key} must be a list,"
                rf" got {re.escape(repr(value))}$")):
            script_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(duraton_s=5),
         "unknown key 'duraton_s' in scenario"),
        (lambda doc: doc["weather"].update(foggy=0.5),
         "unknown key 'foggy' in weather"),
        (lambda doc: doc["lights"][0].update(releas_s=9.0),
         "unknown key 'releas_s' in lights[0]"),
        (lambda doc: doc["npcs"][0].update(half_lenn=4.0),
         "unknown key 'half_lenn' in npcs[0]"),
    ], ids=["scenario", "weather", "light", "npc"])
    def test_misspelt_key_is_refused(self, edit, message):
        # read as its default, "duraton_s": 5 would run for 200 s
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S4"))))
        edit(doc)
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {re.escape(message)}$")):
            script_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("npcs.kind", "truck"),
        ("lights.schedule", "blue"),
        ("lane_segments", "express"),
    ])
    def test_value_a_record_refuses_is_rejected(self, field, value):
        doc = script_to_dict(scenario_by_id("S1"))
        if field == "npcs.kind":
            doc["npcs"][0]["kind"] = value
        elif field == "lights.schedule":
            doc["lights"][0]["schedule"] = [[value, 10.0]]
        else:
            doc["lane_segments"] = [[0.0, 50.0, value]]
        with pytest.raises(ScenarioError, match=rf"{field} must be one of"
                                                rf" .*, got '{value}'"):
            script_from_dict(doc)


    @pytest.mark.parametrize("field, edit", [
        ("npcs.half_len", lambda doc: doc["npcs"][0].update(half_len=0)),
        # a moving NPC whose speed the record would hold
        ("npcs.waypoints speed_kmh", lambda doc: doc["npcs"][0].update(
            waypoints=[[0.0, 200.0, 7.0, 0.0], [60.0, 260.0, 7.0, -10.0]])),
        ("weather.visibility",
         lambda doc: doc["weather"].update(visibility=0)),
        ("start_speed_kmh", lambda doc: doc.update(start_speed_kmh=-10)),
        (r"npcs.waypoints must be a list of \[t, x, y, speed_kmh\],"
         r" got \(0.0, 200.0, 7.0\)$",
         lambda doc: doc["npcs"][0]["waypoints"][0].pop()),
        ("npcs.waypoints must be a non-empty list",
         lambda doc: doc["npcs"][0].update(waypoints=[])),
        (r"junctions must be a list of \[s0, s1\], got \(1.0, 2.0, 3.0\)$",
         lambda doc: doc.update(junctions=[[1.0, 2.0, 3.0]])),
        # a row of another shape is named, never unpacked or read by letter
        (r"junctions must be a list of \[s0, s1\], got 5.0$",
         lambda doc: doc.update(junctions=[5])),
        (r"lane_segments must be a list of \[s0, s1, kind\], got 'abc'$",
         lambda doc: doc.update(lane_segments=["abc"])),
        (r"npcs.waypoints must be a list of \[t, x, y, speed_kmh\],"
         r" got 'abcd'$",
         lambda doc: doc["npcs"][0]["waypoints"].append("abcd")),
        (r"npcs.waypoints must be a list, got 'abcd'$",
         lambda doc: doc["npcs"][0].update(waypoints="abcd")),
        (r"lights.schedule must be a list of \[color, duration_s\],"
         r" got \('red',\)$",
         lambda doc: doc.update(lights=[{"stopline_s": 5.0, "release_s": 9.0,
                                         "schedule": [["red"]]}])),
        (r"lights.schedule must be a list, got 5.0$",
         lambda doc: doc.update(lights=[{"stopline_s": 5.0, "release_s": 9.0,
                                         "schedule": 5}])),
    ], ids=["zero-half-len", "negative-waypoint-speed", "zero-visibility",
            "negative-start-speed", "three-number-waypoint", "no-waypoints",
            "three-number-junction", "number-junction", "string-lane-segment",
            "string-waypoint", "string-waypoints", "short-schedule-row",
            "number-schedule"])
    def test_value_a_record_refuses_is_rejected_on_load(self, field, edit):
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S6"))))
        edit(doc)
        with pytest.raises(ScenarioError, match=field):
            script_from_dict(doc)

    def test_empty_light_schedule_is_refused(self):
        # refused on load, not at the first tick that reads the light
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S4"))))
        doc["lights"][0]["schedule"] = []
        with pytest.raises(ScenarioError, match=r"^bad scenario document:"
                                                r" lights\.schedule must not"
                                                r" be empty$"):
            script_from_dict(doc)
        with pytest.raises(ScenarioError, match=r"^lights\.schedule must not"
                                                r" be empty$"):
            LightSpec(148.0, 176.0, ())


class TestFrameParts:
    """A frame's ego pose, map context and light state are built once while
    the unrounded state they are built from repeats (`_World.emit_frame`)."""

    def test_standing_ego_shares_its_frame_parts(self):
        frames, _ = run_scenario(scenario_by_id("S4"),
                                 parse_program(RED_LIGHT_FIX))
        standing = [(a, b) for a, b in zip(frames, frames[1:])
                    if a.ego.speed == b.ego.speed == 0.0
                    and a.ego.accel == b.ego.accel == 0.0
                    and a.traffic_light.color == b.traffic_light.color == "red"]
        assert len(standing) > 100
        for a, b in standing:
            assert b.ego is a.ego
            assert b.map_ctx is a.map_ctx
            assert b.traffic_light is a.traffic_light

    def test_moving_ego_builds_its_frame_parts_anew(self):
        frames, _ = run_scenario(scenario_by_id("S4"),
                                 parse_program(RED_LIGHT_FIX))
        moving = [(a, b) for a, b in zip(frames, frames[1:])
                  if a.ego.speed > 0.0 and b.ego.speed > 0.0
                  and b.traffic_light is not None]
        assert len(moving) > 100
        for a, b in moving:
            assert b.ego is not a.ego
            assert b.map_ctx is not a.map_ctx
            assert b.traffic_light is not a.traffic_light

    def test_accel_that_rounds_to_negative_zero_keeps_its_sign(self):
        # -1e-05 rounds to -0.0, which == the 0.0 of the tick before, and
        # the speed rounds alike: a pose kept on rounded values would be
        # that tick's, and the record would read "accel":0.0
        world = _World(scenario_by_id("S6"))
        world.v = world.prev_v = 5.0
        first = world.emit_frame(0)
        world.prev_v, world.v = 5.0, 5.0 - 1e-6
        second = world.emit_frame(1)
        assert first.ego.speed == second.ego.speed
        assert math.copysign(1.0, first.ego.accel) == 1.0
        assert math.copysign(1.0, second.ego.accel) == -1.0
        lines = record_bytes([first, second]).decode().splitlines()
        assert '"accel":0.0,' in lines[0]
        assert '"accel":-0.0,' in lines[1]


def _onsets(frames, color):
    """The times of the frames at which the light ahead turns to `color`."""
    colors = [f.traffic_light and f.traffic_light.color for f in frames]
    return [frames[k].t for k in range(1, len(frames))
            if colors[k] == color != colors[k - 1]]


class TestClock:
    """Tick k happens at k / 10 s, so whatever a script puts on a tenth of
    a second happens at its tick."""

    @pytest.mark.parametrize("sid, yellow, red", [("S3", 8.0, 11.0),
                                                   ("S4", 4.0, 6.0)])
    def test_scripted_light_phases_start_on_their_tick(
            self, baseline_runs, sid, yellow, red):
        frames = baseline_runs[sid]["frames"]
        assert [f.t for f in frames] == [k / 10 for k in range(len(frames))]
        assert _onsets(frames, "yellow") == [yellow]
        assert _onsets(frames, "red") == [red]

    def test_s7_jams_move_after_their_waypoint(self, baseline_runs):
        # the jams sit at their waypoint until 25.0 s, inclusive
        frames = baseline_runs["S7"]["frames"]
        moving = [f.t for f in frames if any(ob.speed for ob in f.obstacles)]
        assert moving[0] == 25.1

    @settings(max_examples=40, deadline=None)
    @given(ks=st.lists(st.integers(1, 80), min_size=1, max_size=5),
           colors=st.lists(st.sampled_from(["green", "yellow", "red"]),
                           min_size=6, max_size=6))
    @example(ks=[80], colors=["green", "yellow"] * 3)
    # 0.1 s - 0.1 s is not 0.2 s in floats: red starts at 0.3 s
    @example(ks=[1, 2], colors=["green", "yellow", "red"] * 2)
    def test_light_switches_at_the_tick_of_its_boundary(self, ks, colors):
        # phase i lasts ks[i] / 10 s, so it ends at tick ks[0] + ... + ks[i];
        # the phase after them outlasts the run
        phases = tuple((color, k / 10) for color, k in zip(colors, ks))
        last = colors[len(ks)]
        light = LightSpec(5000.0, 5000.0, phases + ((last, 600.0),))
        script = ScenarioScript(id="lit", route_len_m=5000.0,
                                duration_s=(sum(ks) + 1) / 10, lights=(light,))
        frames, _ = run_scenario(script)
        want = [color for color, k in zip(colors, ks) for _ in range(k)]
        assert [f.traffic_light.color for f in frames] == want + [last] * 2

    def test_light_phase_lasts_its_rounded_ticks(self):
        # a duration lasts seconds * 10 ticks, rounded: 0.26 s is 3 ticks,
        # 0.14 s is 1, and the 14-tick cycle starts again at tick 14
        light = LightSpec(148.0, 176.0, (("green", 0.26), ("red", 0.14),
                                         ("yellow", 1.0)))
        assert [light.color_at(k) for k in range(16)] == (
            ["green"] * 3 + ["red"] + ["yellow"] * 10 + ["green"] * 2)

    @pytest.mark.parametrize("seconds", [0.04, 0.05, 0.0, -1.0])
    def test_light_phase_shorter_than_a_tick_is_refused(self, seconds):
        # 0.05 s is half a tick, which rounds to the even count, 0
        with pytest.raises(ScenarioError, match=(
                r"^lights\.schedule duration_s must round to at least one"
                rf" tick, got {seconds!r}$")):
            LightSpec(148.0, 176.0, (("red", 9.0), ("green", seconds)))

    @settings(max_examples=30, deadline=None)
    @given(w=st.integers(1, 60))
    @example(w=10)
    def test_stop_sign_wait_holds_the_ego_for_its_ticks(self, w):
        # the ego stands at the sign from its first stopped frame up to the
        # frame of the tick whose plan sets it off, w ticks later
        script = ScenarioScript(id="sign", route_len_m=120.0, duration_s=40.0,
                                start_speed_kmh=20.0, stop_signs=(60.0,))
        frames, _ = run_scenario(script, parse_program(STOP_SIGN_WAIT % (w / 10)))
        stopped = [k for k, f in enumerate(frames) if f.ego.speed < STOPPED_KMH]
        assert stopped == list(range(stopped[0], stopped[0] + w + 1))

    def test_stop_sign_wait_past_any_tick_count_holds_to_the_end(self):
        # 1e308 s is a valid wait, though 1e308 * 10 overflows to inf
        script = ScenarioScript(id="sign", route_len_m=120.0, duration_s=20.0,
                                start_speed_kmh=20.0, stop_signs=(60.0,))
        program = parse_program(STOP_SIGN_WAIT % ("1" + "0" * 308))
        frames, outcome = run_scenario(script, program)
        assert outcome == "timed_out"
        assert frames[-1].ego.speed < STOPPED_KMH


def _waypoint_with(i, v):
    point = [0.0, 200.0, 7.0, 0.0]
    point[i] = v
    return NpcSpec(id="n", waypoints=(tuple(point), (60.0, 200.0, 7.0, 0.0)))


def _script_with(**changes):
    return dataclasses.replace(scenario_by_id("S4"), **changes)


# Each number a scenario type holds, built in Python with value v
_NUMBER_FIELDS = [
    ("npcs.waypoints", "t", lambda v: _waypoint_with(0, v)),
    ("npcs.waypoints", "x", lambda v: _waypoint_with(1, v)),
    ("npcs.waypoints", "y", lambda v: _waypoint_with(2, v)),
    ("npcs.waypoints", "speed_kmh", lambda v: _waypoint_with(3, v)),
    ("npcs.half_len", "", lambda v: NpcSpec(
        id="n", half_len=v, waypoints=((0.0, 1.0, 2.0, 0.0),))),
    ("npcs.half_wid", "", lambda v: NpcSpec(
        id="n", half_wid=v, waypoints=((0.0, 1.0, 2.0, 0.0),))),
    ("lights.stopline_s", "", lambda v: LightSpec(v, 176.0, (("red", 9.0),))),
    ("lights.release_s", "", lambda v: LightSpec(148.0, v, (("red", 9.0),))),
    ("lights.schedule", "", lambda v: LightSpec(148.0, 176.0, (("red", v),))),
    ("route_len_m", "", lambda v: _script_with(route_len_m=v)),
    ("duration_s", "", lambda v: _script_with(duration_s=v)),
    ("start_speed_kmh", "", lambda v: _script_with(start_speed_kmh=v)),
    ("lane_segments", "", lambda v: _script_with(
        lane_segments=((40.0, v, "fast"),))),
    ("junctions", "", lambda v: _script_with(junctions=((v, 176.0),))),
    ("stop_signs", "", lambda v: _script_with(stop_signs=(80.0, v))),
    ("weather.rain", "", lambda v: _script_with(weather=WeatherState(rain=v))),
    ("weather.fog", "", lambda v: _script_with(weather=WeatherState(fog=v))),
    ("weather.snow", "", lambda v: _script_with(weather=WeatherState(snow=v))),
    ("weather.visibility", "", lambda v: _script_with(
        weather=WeatherState(visibility=v))),
]

_NUMBER_IDS = [field + "." * bool(part) + part
               for field, part, _ in _NUMBER_FIELDS]


def _world_at(s, stop_signs=()):
    """A planner at rest at route position s on an empty straight road."""
    world = _World(ScenarioScript(id="t", route_len_m=300.0,
                                  stop_signs=stop_signs))
    world.s = s
    return world


def _frame_at(world, *obstacles):
    ego = EgoPose(x=world.s, y=world.offset, heading=0.0, speed=0.0,
                  accel=0.0, steering=0.0)
    return RawRecordFrame(t=0.0, ego=ego, obstacles=obstacles)


class TestPlanner:
    """Planner branches that no built-in scenario reaches."""

    @pytest.mark.parametrize("oncoming, phase", [(True, "none"),
                                                 (False, "out")])
    def test_oncoming_traffic_holds_back_a_lane_borrow(self, oncoming, phase):
        # blocked long enough behind a parked car, the ego borrows the
        # neighbour lane only while no moving car comes within reach there
        world = _world_at(50.0)
        world.blocked_time = BLOCKED_BEFORE_BORROW_S
        parked = Obstacle(id="parked", kind="vehicle", x=60.0, y=0.0,
                          heading=0.0, speed=0.0, half_len=2.3, half_wid=1.0)
        car = Obstacle(id="oncoming", kind="vehicle", x=90.0, y=3.0,
                       heading=math.pi, speed=30.0, half_len=2.3,
                       half_wid=1.0)
        frame = _frame_at(world, parked, *([car] if oncoming else []))
        params = dataclasses.replace(DEFAULT_PARAMS, lane_borrow_enabled=True)
        world.plan(frame, params)
        assert world.borrow_phase == phase

    def test_stop_sign_behind_counts_as_served(self):
        world = _world_at(45.0, stop_signs=(40.0,))
        target, _ = world.plan(_frame_at(world), DEFAULT_PARAMS)
        assert world.signs[0].served
        cruise = (DEFAULT_PARAMS.cruise_speed_kmh - CRUISE_MARGIN_KMH) / 3.6
        assert target == cruise


class TestScenarioNumbers:
    """The scenario types refuse a non-finite number in any field, however
    they are built: an NPC at x = NaN would read as a collision, and a NaN
    stop sign would hold the ego until the run times out."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, part, build", _NUMBER_FIELDS,
                             ids=_NUMBER_IDS)
    def test_non_finite_number_is_refused(self, field, part, build, value):
        with pytest.raises(ScenarioError, match=(
                rf"^{re.escape(field)} must be a finite number,"
                rf" got {re.escape(repr(value))}$")):
            build(value)

    @pytest.mark.parametrize("field, part, build", _NUMBER_FIELDS,
                             ids=_NUMBER_IDS)
    def test_finite_number_is_kept(self, field, part, build):
        # what the test above refuses is the value, not the call
        assert "12.5" in json.dumps(dataclasses.asdict(build(12.5)))

    def test_string_number_in_a_file_is_named_by_the_type(self):
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S4"))))
        doc["stop_signs"] = ["nan"]
        with pytest.raises(ScenarioError, match=(
                r"^bad scenario document: stop_signs must be a finite"
                r" number, got 'nan'$")):
            script_from_dict(doc)


class TestBenchmarkSuite:
    def test_eight_scripts(self):
        suite = benchmark_suite()
        assert [s.id for s in suite] == [f"S{i}" for i in range(1, 9)]

    def test_all_baselines_violate_their_paired_spec(self, baseline_runs, specs):
        for sid, run in baseline_runs.items():
            rho = robustness(specs[PAIRED_SPECS[sid]], run["trace"])
            assert rho <= 0, (sid, rho)

    def test_s6_baseline_speeds_in_fog(self, baseline_runs):
        frames = baseline_runs["S6"]["frames"]
        assert all(f.weather.fog > 0 for f in frames)
        assert max(f.ego.speed for f in frames) > 30.0

    def test_s8_baseline_times_out_stuck(self, baseline_runs):
        run = baseline_runs["S8"]
        assert run["outcome"] == "timed_out"
        tail = run["frames"][-50:]
        assert all(f.ego.speed < 0.5 for f in tail)
        # stopped behind the stationary vehicle, not at the destination
        assert tail[-1].map_ctx.dist_to_dest > 100

    def test_s1_and_s2_baselines_collide(self, baseline_runs):
        assert baseline_runs["S1"]["outcome"] == "collided"
        assert baseline_runs["S2"]["outcome"] == "collided"

    def test_s7_junction_congested_visible(self, baseline_runs):
        from driverepair.trace_model import scene_from_frame
        first = baseline_runs["S7"]["frames"][0]
        assert scene_from_frame(first).congested

    def test_repair_efficacy_all_scenarios(self, repair_results):
        # for every scenario some mock candidate flips the paired spec
        # positive while staying collision-free
        for sid, result in repair_results.items():
            assert any(r["rho_spec"] > 0 and r["rho_no_collision"] > 0
                       for r in result["replays"]), sid


class TestScenarioFiles:
    def test_roundtrip(self, tmp_path):
        for sid in ["empty", *(f"S{i}" for i in range(1, 9))]:
            script = scenario_by_id(sid)
            doc = script_to_dict(script)
            again = script_from_dict(json.loads(json.dumps(doc)))
            assert again == script

    def test_omitted_keys_take_the_types_defaults(self):
        # only the keys without a default: every other field, the weather
        # included, is the type's own default
        doc = {"id": "min", "route_len_m": 100,
               "lights": [{"stopline_s": 50, "release_s": 60,
                           "schedule": [["red", 5]]}],
               "npcs": [{"id": "n1", "waypoints": [[0, 70, 0, 0]]}]}
        want = ScenarioScript(
            id="min", route_len_m=100.0,
            lights=(LightSpec(50.0, 60.0, (("red", 5.0),)),),
            npcs=(NpcSpec(id="n1", waypoints=((0.0, 70.0, 0.0, 0.0),)),))
        got = script_from_dict(doc)
        assert got == want
        assert repr(script_to_dict(got)) == repr(script_to_dict(want))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("id"), "missing key 'id' in scenario"),
        (lambda doc: doc.pop("route_len_m"),
         "missing key 'route_len_m' in scenario"),
        (lambda doc: doc["npcs"][0].pop("waypoints"),
         "missing key 'waypoints' in npcs[0]"),
        (lambda doc: doc["lights"][0].pop("schedule"),
         "missing key 'schedule' in lights[0]"),
        # an object's unknown key is reported before its missing one, and
        # before the missing keys of the objects that hold it
        (lambda doc: doc.update(duraton_s=5) or doc.pop("route_len_m"),
         "unknown key 'duraton_s' in scenario"),
        (lambda doc: doc["weather"].update(foggy=0.5) or doc.pop("id"),
         "unknown key 'foggy' in weather"),
    ], ids=["id", "route_len_m", "npc-waypoints", "light-schedule",
            "unknown-then-missing", "nested-unknown-then-missing"])
    def test_missing_key_is_refused(self, edit, message):
        doc = json.loads(json.dumps(script_to_dict(scenario_by_id("S4"))))
        edit(doc)
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {re.escape(message)}$")):
            script_from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("junctions", {}, "junctions must be a tuple (a list in a document),"
                          " got {}"),
        ("stop_signs", "", "stop_signs must be a tuple (a list in a"
                           " document), got ''"),
        ("lane_segments", 7, "lane_segments must be a tuple (a list in a"
                             " document), got 7.0"),
        ("description", 5, "description must be a string, got 5.0"),
    ])
    def test_value_of_the_wrong_shape_is_refused(self, key, value, message):
        # each would be kept as read, and the script could not be hashed
        doc = {"id": "x", "route_len_m": 100, key: value}
        with pytest.raises(ScenarioError, match=(
                rf"^bad scenario document: {re.escape(message)}$")):
            script_from_dict(doc)

    def test_script_built_with_a_list_is_refused(self):
        with pytest.raises(ScenarioError, match=re.escape(
                "junctions must be a tuple (a list in a document),"
                " got [(120.0, 146.0)]")):
            ScenarioScript(id="x", route_len_m=200.0,
                           junctions=[(120.0, 146.0)])

    def test_load_script(self, tmp_path):
        path = tmp_path / "s7.json"
        path.write_text(json.dumps(script_to_dict(scenario_by_id("S7"))),
                        encoding="utf-8")
        assert resolve_script(path) == scenario_by_id("S7")

    def test_unknown_id(self):
        with pytest.raises(ScenarioError):
            scenario_by_id("S99")

    def test_resolve_script_prefers_a_built_in_id(self, tmp_path,
                                                  monkeypatch):
        # a file named like a built-in id does not shadow it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "S7").write_text(json.dumps(script_to_dict(
            scenario_by_id("S3"))), encoding="utf-8")
        assert resolve_script("S7") == scenario_by_id("S7")
        assert resolve_script("./S7") == scenario_by_id("S3")

    def test_resolve_script_names_an_unknown_scenario(self):
        with pytest.raises(ScenarioError, match=r"^unknown scenario 'S99':"
                                                r" neither a scenario file nor"
                                                r" a built-in \(S1, S2, "):
            resolve_script("S99")


def frames_from_speeds_ms(speeds_ms, dt=0.1):
    frames = []
    for i, v in enumerate(speeds_ms):
        frames.append(RawRecordFrame(
            t=round(i * dt, 4),
            ego=EgoPose(x=0.0, y=0.0, heading=0.0, speed=v * 3.6, accel=0.0,
                        steering=0.0)))
    return frames


class TestEvaluateTrace:
    def test_constant_speed_zero_energy(self):
        metrics = evaluate_trace(frames_from_speeds_ms([8.0] * 20))
        assert metrics["energy_j"] == pytest.approx(0.0)
        assert metrics["energy_positive_j"] == pytest.approx(0.0)

    def test_up_down_energy(self):
        metrics = evaluate_trace(frames_from_speeds_ms([0.0, 10.0, 0.0]))
        assert metrics["energy_j"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["energy_positive_j"] == pytest.approx(75000.0)

    def test_telescoping_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            speeds = [rng.uniform(0, 30) for _ in range(rng.randint(2, 50))]
            metrics = evaluate_trace(frames_from_speeds_ms(speeds))
            expect = 0.5 * 1500.0 * (speeds[-1] ** 2 - speeds[0] ** 2)
            assert metrics["energy_j"] == pytest.approx(expect, abs=1e-6)

    def test_single_frame_stop_time(self):
        stopped = evaluate_trace(frames_from_speeds_ms([0.0]))
        moving = evaluate_trace(frames_from_speeds_ms([5.0]))
        assert stopped["stop_time_s"] == pytest.approx(0.1)
        assert moving["stop_time_s"] == 0.0

    def test_stop_time_counts_stopped_steps(self, baseline_runs):
        # tenths of a second, as the tick clock counts them, at any frame
        # rate: S5 stands still for 596 steps
        frames = baseline_runs["S5"]["frames"]
        stopped = sum(f.ego.speed < STOPPED_KMH for f in frames)
        assert stopped == 596
        assert evaluate_trace(frames)["stop_time_s"] == 59.6
        assert evaluate_trace(at_20hz(frames))["stop_time_s"] == 59.6

    def test_every_metric_weighs_trace_steps(self):
        # 100 standing frames at 10 Hz, then 10 frames at 1 Hz at 36 km/h:
        # 91 of the 191 trace steps move at 10 m/s, though 10 of the 110
        # frames do
        frames = frames_from_speeds_ms([0.0] * 100)
        frames += [RawRecordFrame(t=10.0 + k,
                                  ego=EgoPose(0.0, 0.0, 0.0, 36.0, 0.0, 0.0))
                   for k in range(10)]
        metrics = evaluate_trace(frames)
        assert round(metrics["avg_speed_ms"], 4) == 4.7644
        assert metrics["max_speed_ms"] == 10.0
        assert metrics["stop_time_s"] == 10.0
        assert metrics["energy_j"] == metrics["energy_positive_j"] == 75000.0

    def test_speed_and_obstacle_stats(self, baseline_runs):
        metrics = evaluate_trace(baseline_runs["S5"]["frames"])
        assert metrics["max_speed_ms"] > metrics["avg_speed_ms"] > 0
        assert metrics["min_obstacle_dist_m"] is not None
        assert metrics["min_obstacle_dist_m"] <= metrics["avg_obstacle_dist_m"]
        assert metrics["stop_time_s"] > 30  # stuck for most of the run

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            evaluate_trace([])
