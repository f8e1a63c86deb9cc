import dataclasses
import json
import math
import random
import re
import warnings

import pytest

from conftest import make_scene, ramp_frames
from oracle_reference import frame_line_ref, load_frames_independently, read_ref

from driverepair import trace_model
from driverepair.simulator import run_scenario, scenario_by_id
from driverepair.trace_model import (
    LIGHT_CODE,
    MAX_FRAME_GAP_S,
    OBSTACLE_KINDS,
    CatalogError,
    EgoPose,
    MapContext,
    Obstacle,
    RawRecordFrame,
    RecordError,
    Scene,
    SignalVar,
    Trace,
    TrafficLightState,
    WeatherState,
    build_trace,
    catalog_kind,
    frame_to_line,
    load_record,
    save_record,
    scene_from_frame,
)


def frame_with(obstacles=(), speed=50.0, **ego_kwargs):
    ego = EgoPose(x=0.0, y=0.0, heading=0.0, speed=speed, accel=0.0,
                  steering=0.0, **ego_kwargs)
    return RawRecordFrame(t=0.0, ego=ego, obstacles=tuple(obstacles))


# How a refused obstacles.x on line 2 is reported, by the value's repr
_NOT_FINITE = "line 2: bad frame (obstacles.x must be a finite number, got %s)"


class TestLoadRecord:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        save_record(ramp_frames(3), path)
        assert len(load_record(path)) == 3

    def test_duplicate_timestamps_rejected(self, tmp_path):
        frames = ramp_frames(3)
        bad = [frames[0], frames[1],
               RawRecordFrame(t=frames[1].t, ego=frames[2].ego)]
        path = tmp_path / "rec.jsonl"
        save_record(bad, path)
        with pytest.raises(RecordError,
                           match="^line 3: timestamps not strictly increasing"):
            load_record(path)

    @pytest.mark.parametrize("late_t", [20000.0, 1e9])
    def test_frame_gap_over_limit_rejected(self, tmp_path, late_t):
        # the trace would need a step per STEP_S across the gap: 200,001
        # steps at t = 20000 s, 1e10 at t = 1e9 s
        frames = ramp_frames(2)
        frames[1] = dataclasses.replace(frames[1], t=late_t)
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        with pytest.raises(RecordError, match=(
                rf"^line 2: frame at t={late_t} comes .* after the one at"
                r" t=0\.0 \(line 1\)")):
            load_record(path)

    def test_frame_gap_names_lines_of_unsorted_record(self, tmp_path):
        frames = ramp_frames(3)
        frames[2] = dataclasses.replace(frames[2], t=5.0)
        path = tmp_path / "rec.jsonl"
        save_record([frames[2], frames[0], frames[1]], path)
        with pytest.raises(RecordError, match=r"^line 1: .* \(line 3\)"):
            load_record(path)

    def test_frame_gap_at_limit_loads(self, tmp_path):
        frames = ramp_frames(2)
        frames[1] = dataclasses.replace(frames[1], t=MAX_FRAME_GAP_S)
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        assert [f.t for f in load_record(path)] == [0.0, MAX_FRAME_GAP_S]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        good = json.dumps({"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0,
                                             "speed": 1}})
        path.write_text(good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2"):
            load_record(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        save_record(ramp_frames(3), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"gear":"drive"', '"gear":"hover"')
        path.write_text("\n" + lines[0] + "  \n\n" + lines[1] + "\t\n",
                        encoding="utf-8")
        assert load_record(path) == ramp_frames(2)
        # a later frame is still named by its line in the file
        path.write_text("\n" + lines[0] + "  \n\n" + lines[1] + "\t\n"
                        + lines[2], encoding="utf-8")
        with pytest.raises(RecordError, match=r"^line 7: bad frame \(ego\.gear"):
            load_record(path)

    def test_unknown_fields_warn_and_load(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": 1},
               "mystery": 1}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="mystery"):
            frames = load_record(path)
        assert len(frames) == 1

    def test_unknown_field_warns_once_per_record(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        lines = []
        for i in range(6):
            doc = {"t": i / 10, "ego": {"x": i, "y": 0, "heading": 0,
                                        "speed": 1}, "header": {"seq": i}}
            if i >= 2:
                doc["mystery"] = 1
            lines.append(json.dumps(doc) + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_record(path)
            load_record(path)
        assert [str(w.message) for w in caught] == 2 * [
            "ignoring unknown record field 'header' (first on line 1)",
            "ignoring unknown record field 'mystery' (first on line 3)"]

    def test_negative_speed_rejected(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": -1}}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(RecordError):
            load_record(path)

    @pytest.mark.parametrize("part, key, value, case", [
        ("ego", "gear", "hover", "bad gear"),
        ("ego", "speed", -0.5, "negative ego speed"),
        ("obstacle", "kind", "dragon", "bad obstacle kind"),
        ("obstacle", "half_wid", 0.0, "non-positive obstacle box"),
        ("obstacle", "speed", -1.0, "negative obstacle speed"),
        ("traffic_light", "color", "blue", "bad light color"),
        ("weather", "visibility", 0.0, "non-positive visibility"),
        ("map_ctx", "lane_kind", "river", "bad lane kind"),
    ])
    def test_domain_check_names_its_line(self, tmp_path, part, key, value,
                                         case):
        docs = []
        for t in (0.0, 0.1, 0.2):
            docs.append({
                "t": t,
                "ego": {"x": t, "y": 0, "heading": 0, "speed": 1.0},
                "obstacles": [{"id": "o", "kind": "vehicle", "x": 9.0,
                               "y": 0.0, "speed": 0.0, "half_len": 2.0,
                               "half_wid": 1.0}],
                "traffic_light": {"color": "green", "dist_to_stopline": 5.0},
                "weather": {"visibility": 300.0},
                "map_ctx": {"lane_kind": "normal"},
            })
        path = tmp_path / "rec.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
        assert len(load_record(path)) == 3
        target = docs[1]["obstacles"][0] if part == "obstacle" else docs[1][part]
        target[key] = value
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
        # the field is named by its path in the frame document
        field = f"{'obstacles' if part == 'obstacle' else part}.{key}"
        rule = {"bad": r"one of \[.*\]", "negative": "non-negative",
                "non-positive": "positive"}[case.split()[0]]
        with pytest.raises(RecordError, match=(
                rf"^line 2: bad frame \({re.escape(field)} must be {rule},"
                rf" got {re.escape(repr(value))}\)$")):
            load_record(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, tmp_path, value):
        # an obstacle at x = NaN defeats the separating-axis test and would
        # read as a collision with the ego
        frames = ramp_frames(3)
        ob = Obstacle(id="o", kind="vehicle", x=value, y=30.0, heading=0.0,
                      speed=0.0, half_len=2.0, half_wid=1.0)
        frames[1] = RawRecordFrame(t=frames[1].t, ego=frames[1].ego,
                                   obstacles=(ob,))
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        with pytest.raises(RecordError, match="line 2: non-finite number"):
            load_record(path)

    @pytest.mark.parametrize("literal, message", [
        pytest.param("1e400", _NOT_FINITE % "inf", id="1e400"),
        pytest.param("-2.5E+310", _NOT_FINITE % "-inf", id="-2.5E+310"),
        pytest.param("1" + "0" * 400, _NOT_FINITE % ("1" + "0" * 400),
                     id="401-digit-int"),
        pytest.param("1" + "0" * 400 + ".0", _NOT_FINITE % "inf",
                     id="401-digit-float"),
        # past Python's digit limit for int(), which the decoder raises
        pytest.param("9" * 5000, None, id="5000-digit-int"),
    ])
    def test_overflowing_number_rejected(self, tmp_path, literal, message):
        # such a literal decodes as inf, or as an int that float() refuses
        path = self._record_with_obstacle_x(tmp_path, literal)
        with pytest.raises(RecordError) as info:
            load_record(path)
        if message is None:
            assert str(info.value).startswith("line 2: ")
        else:
            assert str(info.value) == message

    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400],
                             ids=["1e400", "401-digit-int"])
    def test_numeric_id_beyond_the_float_range_is_refused(self, tmp_path,
                                                          literal):
        # an id is kept as its text, and 1e400 would load as the id "inf"
        path = self._record_with_obstacle_x(tmp_path, "12345.5")
        path.write_text(path.read_text().replace('"id":"o"', f'"id":{literal}'))
        with pytest.raises(RecordError) as info:
            load_record(path)
        assert str(info.value) == ("line 2: bad frame (obstacles.id must be a"
                                   f" finite number, got {json.loads(literal)!r})")

    @pytest.mark.parametrize("literal, value", [
        ("5e-05", 5e-05), ("1.5E3", 1500.0), ("1e308", 1e308),
        ("0." + "0" * 400 + "1", 0.0)],
        ids=["5e-05", "1.5E3", "1e308", "402-digit-fraction"])
    def test_number_with_exponent_or_long_digits_loads(self, tmp_path,
                                                       literal, value):
        path = self._record_with_obstacle_x(tmp_path, literal)
        assert load_record(path)[1].obstacles[0].x == value

    @pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
                             ids=["two-values", "four-values"])
    def test_predicted_point_needs_three_values(self, tmp_path, point):
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": 1},
               "obstacles": [{"id": "o", "x": 9.0, "y": 0.0, "speed": 0.0,
                              "half_len": 2.0, "half_wid": 1.0,
                              "predicted": [[0.5, 9.0, 0.0], point]}]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match=r"line 1: bad frame \("):
            load_record(path)

    @pytest.mark.parametrize("path_in_frame, value", [
        (("obstacles", 0, "x"), "nan"),
        (("obstacles", 0, "y"), "30"),
        (("obstacles", 0, "predicted", 0, 1), "inf"),
        (("t",), "inf"),
        (("ego", "x"), "1.5"),
        (("ego", "accel"), "nan"),
        (("traffic_light", "dist_to_stopline"), "5"),
        (("weather", "fog"), "nan"),
        (("map_ctx", "dist_to_dest"), "-inf"),
    ], ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
    def test_number_written_as_a_string_is_refused(self, tmp_path,
                                                   path_in_frame, value):
        # float() would read "nan" as NaN: an obstacle there would collide
        docs = []
        for t in (0.0, 0.1, 0.2):
            docs.append({
                "t": t,
                "ego": {"x": t, "y": 0, "heading": 0, "speed": 1.0,
                        "accel": 0.0},
                "obstacles": [{"id": "o", "kind": "vehicle", "x": 9.0,
                               "y": 30.0, "speed": 0.0, "half_len": 2.0,
                               "half_wid": 1.0,
                               "predicted": [[0.5, 9.0, 30.0]]}],
                "traffic_light": {"color": "green", "dist_to_stopline": 5.0},
                "weather": {"fog": 0.0},
                "map_ctx": {"dist_to_dest": 100.0},
            })
        *parents, key = path_in_frame
        target = docs[1]
        for step in parents:
            target = target[step]
        target[key] = value
        path = tmp_path / "rec.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
        # named by its path in the frame document, list indices left out
        field = ".".join(step for step in path_in_frame
                         if isinstance(step, str))
        with pytest.raises(RecordError, match=(
                rf"^line 2: bad frame \({re.escape(field)} must be a finite"
                rf" number, got {re.escape(repr(value))}\)$")):
            load_record(path)

    @pytest.mark.parametrize("key, value", [
        ("weather", []), ("weather", "fog"), ("map_ctx", 3),
        ("map_ctx", [{"in_junction": True}]), ("ego", [1, 2]),
        ("traffic_light", ["red", 5.0]), ("traffic_light", "red"),
        # each of these loaded as no obstacles, and saved back as []
        ("obstacles", {}), ("obstacles", ""), ("obstacles", None),
        ("obstacles.predicted", {}), ("obstacles.predicted", ""),
        ("obstacles element", 7), ("frame", [1, 2])])
    def test_sub_document_that_is_not_an_object_is_refused(self, tmp_path,
                                                           key, value):
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": 1}}
        ob = {"id": "o", "x": 9.0, "y": 0.0, "speed": 0.0, "half_len": 2.0,
              "half_wid": 1.0}
        if key == "frame":
            doc = value
        elif key == "obstacles element":
            doc["obstacles"] = [ob, value]
        elif key == "obstacles.predicted":
            doc["obstacles"] = [dict(ob, predicted=value)]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        kind = ("a list" if key in ("obstacles", "obstacles.predicted")
                else "an object")
        with pytest.raises(RecordError) as info:
            load_record(path)
        assert str(info.value) == (f"line 1: bad frame ({key} must be {kind},"
                                   f" got {value!r})")

    @pytest.mark.parametrize("key", ["in_junction", "is_changing_lane"])
    @pytest.mark.parametrize("value", ["false", "0", 0, [0], None],
                             ids=["string-false", "string-0", "zero", "list",
                                  "null"])
    def test_map_ctx_flag_must_be_true_or_false(self, tmp_path, key, value):
        # bool() would read "false", "0" and [0] as true, and 0 == False
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": 1},
               "map_ctx": {key: value}}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(RecordError) as info:
            load_record(path)
        assert str(info.value) == (f"line 1: bad frame (map_ctx.{key} must be"
                                   f" true or false, got {value!r})")

    @pytest.mark.parametrize("value", [True, False])
    def test_map_ctx_flags_load_as_written(self, tmp_path, value):
        path = tmp_path / "rec.jsonl"
        doc = {"t": 0.0, "ego": {"x": 0, "y": 0, "heading": 0, "speed": 1},
               "map_ctx": {"in_junction": value, "is_changing_lane": value}}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        frame, = load_record(path)
        assert frame.map_ctx.in_junction is value
        assert frame.map_ctx.is_changing_lane is value
        assert frame.scene.in_junction is value

    def test_exponents_and_ints_load_like_plain_numbers(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        plain.write_text('{"t":0.0,"ego":{"x":150.0,"y":10.0,"heading":0.0,'
                         '"speed":3.0},"map_ctx":{"dist_to_dest":120.0}}\n',
                         encoding="utf-8")
        written = tmp_path / "written.jsonl"
        written.write_text('{"t":0,"ego":{"x":1.5e2,"y":1E1,"heading":0,'
                           '"speed":3},"map_ctx":{"dist_to_dest":120}}\n',
                           encoding="utf-8")
        assert load_record(written) == load_record(plain)

    @staticmethod
    def _record_with_obstacle_x(tmp_path, literal):
        frames = ramp_frames(3)
        ob = Obstacle(id="o", kind="vehicle", x=12345.5, y=30.0, heading=0.0,
                      speed=0.0, half_len=2.0, half_wid=1.0)
        frames[1] = RawRecordFrame(t=frames[1].t, ego=frames[1].ego,
                                   obstacles=(ob,))
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        text = path.read_text()
        assert text.count('"x":12345.5') == 1
        path.write_text(text.replace('"x":12345.5', f'"x":{literal}'))
        return path

    def test_saved_records_reload_byte_identically(self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("S6"))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_record(frames, p1)
        save_record(load_record(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        trace = build_trace(load_record(p1))
        assert SignalVar("fogIntensity").readings((trace.scenes[0],))[0] == 0.8


# Spellings of equal values, plain ones first. A zero may decode to 0, 0.0
# or -0.0, which are all == but do not all write back alike; `-0e0`,
# `-0E-5` and `-1e-400` decode to -0.0 without a "-0." in their line.
_SPELLINGS = (
    ("0", "0.0", "-0", "-0.0", "-0.00", "0e0", "-0e0", "-0E-5", "-1e-400"),
    ("1", "1.0", "true", "1e0", "10E-1"),
    ("2.5", "2.50", "25e-1"),
    ("-3.25", "-325e-2"),
)
# Values taken with the odds of an exotic spelling
_E308 = "1" + "0" * 308                         # 309 digits, 1e308
_RARE_SPELLINGS = (
    ("0.000025", "2.5e-05", "25E-6", "0.0000250"),
    ("-5e-324", "-4.9e-324", "-0.5e-323"),      # the least subnormal
    (_E308, _E308 + ".0", "1e308", "1E+308"),
)
_PLAIN = {"0", "0.0", "-0", "1", "1.0", "true", "2.5", "2.50", "-3.25"}
# Literals beyond the float range: a line holding one is refused
_OVERFLOWS = ("1e400", "-1E+400", "2" + "0" * 308, "9" * 400)
_IDS = ("1", "1.0", "true", '"1"', '"a"')      # all but "a" are == 1


def _spelling(rng, group, exotic):
    """A spelling from `group`: one that is not plain with odds `exotic`."""
    plain = rng.random() >= exotic
    return rng.choice([v for v in group if (v in _PLAIN) == plain] or group)


def _number(rng, groups, exotic):
    if groups is _SPELLINGS and rng.random() < exotic:
        groups = _RARE_SPELLINGS
    return _spelling(rng, rng.choice(groups), exotic)


def _respelled(rng, literal):
    group = next(g for g in _SPELLINGS + _RARE_SPELLINGS if literal in g)
    return rng.choice(group)


def _random_obstacle(rng, exotic):
    def number(groups=_SPELLINGS):
        return _number(rng, groups, exotic)
    ob = {"id": rng.choice(_IDS), "x": number(), "y": number(),
          "speed": number(_SPELLINGS[:1]),
          "half_len": number(_SPELLINGS[1:3]),
          "half_wid": number(_SPELLINGS[1:3])}
    if rng.random() < 0.5:
        ob["kind"] = rng.choice(('"vehicle"', '"cyclist"'))
    if rng.random() < 0.5:
        ob["heading"] = number()
    if rng.random() < 0.3:
        ob["predicted"] = [[number() for _ in range(3)]]
    return ob


def _mutated(rng, obstacles, exotic):
    """The next frame's obstacles: the same, with one obstacle repeated,
    changed or re-spelled."""
    obstacles = [dict(ob, predicted=[list(p) for p in ob["predicted"]])
                 if "predicted" in ob else dict(ob) for ob in obstacles]
    if not obstacles:
        return [_random_obstacle(rng, exotic)]
    ob = rng.choice(obstacles)
    numeric = [k for k in ("x", "y", "heading", "speed", "half_len",
                           "half_wid") if k in ob]
    op = rng.choice(("repeat", "repeat", "respell", "respell", "change",
                     "id", "heading", "unknown", "twin", "add", "drop",
                     "predicted", "order"))
    if op == "respell":
        key = rng.choice(numeric)
        ob[key] = _respelled(rng, ob[key])
    elif op == "change":
        key = rng.choice(numeric)
        groups = (_SPELLINGS[1:3] if key.startswith("half_") else
                  _SPELLINGS[:1] if key == "speed" else _SPELLINGS)
        ob[key] = _number(rng, groups, exotic)
    elif op == "id":
        ob["id"] = rng.choice(_IDS)
    elif op == "heading":
        # an omitted heading reads as 0.0
        if "heading" in ob:
            del ob["heading"]
        else:
            ob["heading"] = rng.choice(("0.0", "0", "-0.0"))
    elif op == "unknown":
        if "note" in ob:
            del ob["note"]
        else:
            ob["note"] = rng.choice(('"x"', "0", "-0.0"))
    elif op == "twin":      # two obstacles with one id in the frame
        twin = dict(ob)
        twin["x"] = _respelled(rng, twin["x"])
        obstacles.insert(rng.randrange(len(obstacles) + 1), twin)
    elif op == "add":
        obstacles.append(_random_obstacle(rng, exotic))
    elif op == "drop":
        obstacles.remove(ob)
    elif op == "predicted":
        point = rng.choice(ob.get("predicted") or [["0", "0", "0"]])
        i = rng.randrange(3)
        point[i] = _respelled(rng, point[i])
        ob["predicted"] = [point]
    elif op == "order":
        items = list(ob.items())
        rng.shuffle(items)
        obstacles[obstacles.index(ob)] = dict(items)
    return obstacles


def _object_text(ob):
    def value(v):
        if isinstance(v, list):
            return "[" + ",".join(value(x) for x in v) + "]"
        return v
    return "{" + ",".join(f'"{k}":{value(v)}' for k, v in ob.items()) + "}"


def _random_member(rng, name, exotic):
    """A light (or null) or a weather object of literals."""
    if name == "traffic_light":
        if rng.random() < 0.3:
            return "null"
        return {"color": rng.choice(('"red"', '"green"')),
                "dist_to_stopline": _number(rng, _SPELLINGS, exotic)}
    member = {"rain": _number(rng, _SPELLINGS[:1], exotic),
              "visibility": _number(rng, _SPELLINGS[1:3], exotic)}
    if rng.random() < 0.5:
        member["fog"] = _number(rng, _SPELLINGS, exotic)
    return member


def _next_member(rng, member, name, exotic):
    """The next line's member: mostly the same text, else with a number
    re-spelled or changed, or left out, or new."""
    op = rng.choice(("repeat",) * 4 + ("respell", "respell", "change",
                                       "toggle"))
    if op == "repeat":
        return member
    if op == "toggle" or not isinstance(member, dict):
        if member is not None and rng.random() < 0.5:
            return None
        return _random_member(rng, name, exotic)
    member = dict(member)
    key = rng.choice([k for k in member if k != "color"])
    member[key] = (_respelled(rng, member[key]) if op == "respell" else
                   _number(rng, _SPELLINGS[1:3] if key == "visibility"
                           else _SPELLINGS, exotic))
    return member


def _with_members(rng, line, members):
    """`line` with its light and weather members (None leaves one out):
    after the array in the order a record writes them, or at times in the
    other order, spaced, or before the array."""
    colon = " : " if rng.random() < 0.1 else ":"
    texts = [f'"{name}"{colon}{m if isinstance(m, str) else _object_text(m)}'
             for name, m in members if m is not None]
    if rng.random() < 0.1:
        texts.reverse()
    comma = ", " if rng.random() < 0.1 else ","
    if texts and rng.random() < 0.1:
        return line.replace(',"obstacles":[',
                            "," + comma.join(texts) + ',"obstacles":[', 1)
    return line[:-2] + "".join(comma + t for t in texts) + "}\n"


def _record_text(rng):
    exotic = rng.choice((0.0, 0.02, 0.3))
    obstacles = [_random_obstacle(rng, exotic)
                 for _ in range(rng.randint(0, 3))]
    lines = []
    for i in range(rng.randint(2, 6)):
        if i:
            obstacles = _mutated(rng, obstacles, exotic)
        ego_x = _spelling(rng, ("0", "1.5", "-0.0", "15e-1"), exotic)
        if rng.random() < 0.02:
            ego_x = rng.choice(_OVERFLOWS)
        lines.append(f'{{"t":{i / 10},"ego":{{"x":{ego_x},"y":0,"heading":0,'
                     f'"speed":1}},"obstacles":['
                     + ",".join(map(_object_text, obstacles)) + "]}\n")
    # the members are drawn after the obstacles, which stay as they were
    members = {name: _random_member(rng, name, exotic)
               for name in ("traffic_light", "weather")}
    for i, line in enumerate(lines):
        if i:
            members = {name: _next_member(rng, m, name, exotic)
                       for name, m in members.items()}
        lines[i] = _with_members(rng, line, members.items())
    return "".join(lines)


# Rewrites of a `_record_text` line (`{"t":...,"obstacles":[...]}`) that the
# loader must read as it reads the whole line: ones that leave no single
# top-level "obstacles" array it can walk, ones that are not valid JSON, and
# whitespace, which the walk skips
_OTHER = '{"id":"d","x":1,"y":0,"speed":0,"half_len":2,"half_wid":1}'
_QUOTED_ID = ('{"id":"x\\"obstacles\\":[","x":1,"y":0,"speed":0,'
              '"half_len":2,"half_wid":1}')


def _first_in_array(line, element):
    comma = "" if '"obstacles":[]' in line else ","
    return line.replace('"obstacles":[', f'"obstacles":[{element}{comma}', 1)


def _in_weather(line):
    """The line with its obstacle array moved into `weather`, open: the
    closing `}` and newline are the caller's."""
    return line.replace(',"obstacles":[', ',"weather":{"obstacles":[', 1)[:-2]


_WHITESPACE = (('"obstacles":[', '"obstacles": ['), ('"obstacles":[',
               '"obstacles":[ '), ("},{", "}, {"), ("}]", "} ]"),
               ('"obstacles":[', '"obstacles" :['), ("},{", "}\t,\t{"),
               ('"obstacles":[', '"obstacles"\t: [\t'))
_MISPLACED_COMMAS = (("}]", "},]"), ("},{", "},,{"), ('"obstacles":[{',
                                                     '"obstacles":[,{'))

_DEFEATS = {
    "second key first": lambda rng, line: line.replace(
        '{"t":', f'{{"obstacles":[{_OTHER}],"t":', 1),
    "second key last": lambda rng, line: line[:-2] + ',"obstacles":[]}\n',
    "nested beside": lambda rng, line: (
        line[:-2] + f',"weather":{{"obstacles":[{_OTHER}]}}}}\n'),
    "nested only": lambda rng, line: _in_weather(line) + "}}\n",
    # "obst\u0061cles" decodes to a second "obstacles" key, which wins
    "escaped key last": lambda rng, line: (
        line[:-2] + ',"obst\\u0061cles":[]}\n'),
    "escaped key beside nested": lambda rng, line: (
        _in_weather(line) + '},"obst\\u0061cles":[]}\n'),
    # the key found is inside the string "a\"obstacles"; the escaped one
    # before it is the document's "obstacles"
    "quoted key": lambda rng, line: line.replace(
        '"obstacles":[', '"obst\\u0061cles":[],"a\\"obstacles":[', 1),
    "spaced second key": lambda rng, line: (
        line[:-2] + ', "obstacles" : [ ]}\n'),
    "whitespace": lambda rng, line: line.replace(*rng.choice(_WHITESPACE),
                                                 1),
    "key prefix": lambda rng, line: line.replace(
        '"obstacles":[', f'"obstacles_old":[{_OTHER}],"obstacles":[', 1),
    "quoted id": lambda rng, line: _first_in_array(line, _QUOTED_ID),
    "prefix texts": lambda rng, line: re.sub(
        r'"obstacles":\[.*\]', lambda m: '"obstacles":[%s]'
        % rng.choice(("1", "12", '"a"', '"ab"', "1,12", '"a","ab"')), line),
    "misplaced comma": lambda rng, line: line.replace(
        *rng.choice(_MISPLACED_COMMAS), 1),
    # a light or weather key again after the members: the last one wins
    "second member key last": lambda rng, line: line[:-2] + rng.choice((
        ',"weather":{"fog":1}', ',"traffic_light":null',
        ',"weather":[]')) + "}\n",
    "member keys nested after": lambda rng, line: (
        line[:-2] + ',"map_ctx":{"weather":{"fog":1},"traffic_light":[]}}\n'),
    "escaped member key last": lambda rng, line: line[:-2] + rng.choice((
        ',"we\\u0061ther":{"fog":2}', ',"tr\\u0061ffic_light":null')) + "}\n",
    # a top-level member before the array, which the one after it overrides
    "member key first": lambda rng, line: line.replace(
        '{"t":', rng.choice(('{"weather":[],"t":',
                             '{"traffic_light":{"color":"blue"},"t":')), 1),
    "member value run on": lambda rng, line: re.sub(
        r'(null|[0-9]})(?=,"weather"|}\n)', lambda m: m[1] + rng.choice(
            ("0", "e5", ".5", "x", "}")), line, count=1),
    "unterminated": lambda rng, line: (
        line[:rng.randrange(line.index('"obstacles":[') + 13, len(line) - 2)]
        + rng.choice(("\n", "}\n"))),
}


def _types(value):
    """The type of every leaf of a value; a record keeps its type name."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _types(getattr(value, f.name)) for f in dataclasses.fields(value))
    if hasattr(value, "_fields"):       # a NamedTuple record
        return (type(value).__name__,) + tuple(_types(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_types(v) for v in value)
    return type(value)


def _frames_or_error(load, *args):
    try:
        return load(*args), None
    except RecordError as exc:
        return [], str(exc)


def _assert_loads_like_each_line_alone(path, work):
    got, error = _frames_or_error(load_record, path)
    want, want_error = _frames_or_error(load_frames_independently, path, work)
    assert error == want_error
    assert [frame_to_line(f) for f in got] == [frame_to_line(f) for f in want]
    assert [repr(f.scene) for f in got] == [repr(f.scene) for f in want]
    assert [_types(f) for f in got] == [_types(f) for f in want]
    return got


def _reused(frames):
    return sum(any(ob is prev for prev in a.obstacles)
               for a, b in zip(frames, frames[1:]) for ob in b.obstacles)


def _shared(frames):
    """How often a frame holds the previous frame's whole part, by part
    (a light that is None aside)."""
    pairs = list(zip(frames, frames[1:]))
    return {"obstacles": sum(b.obstacles is a.obstacles
                             for a, b in pairs if a.obstacles),
            "traffic_light": sum(b.traffic_light is a.traffic_light
                                 for a, b in pairs if a.traffic_light),
            "weather": sum(b.weather is a.weather for a, b in pairs)}


class TestObstacleReuse:
    """A frame takes the previous line's whole obstacles array, light and
    weather where their text repeats, and else the previous line's Obstacle
    for an obstacle whose text repeats that line's element at its index;
    the frames must equal those built from each line alone."""

    def test_seeded_records_load_like_each_line_alone(self, tmp_path):
        reused = refused = 0
        shared = dict.fromkeys(("obstacles", "traffic_light", "weather"), 0)
        for seed in range(320):
            path = tmp_path / f"rec{seed}.jsonl"
            path.write_text(_record_text(random.Random(seed)),
                            encoding="utf-8")
            work = tmp_path / f"lines{seed}"
            work.mkdir()
            frames = _assert_loads_like_each_line_alone(path, work)
            reused += _reused(frames)
            refused += not frames
            for part, n in _shared(frames).items():
                shared[part] += n
        assert reused > 300
        assert refused > 5
        assert shared == {"obstacles": 169, "traffic_light": 163,
                          "weather": 252}

    def test_seeded_lines_that_defeat_the_fast_path(self, tmp_path):
        # a record's lines are rewritten, each with odds 1/2, by one of
        # _DEFEATS; the loader must give each line alone's frames or error
        rewritten = dict.fromkeys(_DEFEATS, 0)
        reused = refused = 0
        shared = dict.fromkeys(("obstacles", "traffic_light", "weather"), 0)
        for seed in range(320, 320 + 8 * len(_DEFEATS)):
            rng = random.Random(seed)
            kind = list(_DEFEATS)[seed % len(_DEFEATS)]
            lines = _record_text(rng).splitlines(keepends=True)
            for i, line in enumerate(lines):
                if rng.random() < 0.5:
                    lines[i] = _DEFEATS[kind](rng, line)
                    rewritten[kind] += lines[i] != line
            path = tmp_path / f"rec{seed}.jsonl"
            path.write_text("".join(lines), encoding="utf-8")
            work = tmp_path / f"lines{seed}"
            work.mkdir()
            with warnings.catch_warnings():     # "obstacles_old" is unknown
                warnings.simplefilter("ignore", UserWarning)
                frames = _assert_loads_like_each_line_alone(path, work)
            reused += _reused(frames)
            refused += not frames
            for part, n in _shared(frames).items():
                shared[part] += n
        assert min(rewritten.values()) >= 5, rewritten
        assert reused > 100
        assert refused > 10
        assert shared == {"obstacles": 20, "traffic_light": 18, "weather": 47}

    @pytest.mark.parametrize("field", ["x", "heading", "speed", "predicted",
                                       "dist_to_stopline", "rain"])
    def test_every_pair_of_zero_spellings(self, tmp_path, field):
        # 0.0 == -0.0, but their texts differ: an obstacle takes the
        # previous line's Obstacle, and a light or weather the previous
        # line's, only for the same spelling
        zeros = _SPELLINGS[0]
        for i, first in enumerate(zeros):
            for j, second in enumerate(zeros):
                lines = []
                for k, zero in enumerate((first, second, first)):
                    ob = {"id": '"o"', "x": "9", "y": "0", "speed": "0",
                          "half_len": "2", "half_wid": "1"}
                    light = {"color": '"red"', "dist_to_stopline": "5"}
                    weather = {"rain": "0", "fog": "0"}
                    part = {"dist_to_stopline": light,
                            "rain": weather}.get(field, ob)
                    part[field] = (f"[[1,2,{zero}]]" if field == "predicted"
                                   else zero)
                    lines.append(f'{{"t":{k / 10},"ego":{{"x":0,"y":0,'
                                 f'"heading":0,"speed":1}},"obstacles":['
                                 f"{_object_text(ob)}],\"traffic_light\":"
                                 f"{_object_text(light)},\"weather\":"
                                 f"{_object_text(weather)}}}\n")
                path = tmp_path / f"rec{i}_{j}.jsonl"
                path.write_text("".join(lines), encoding="utf-8")
                work = tmp_path / f"lines{i}_{j}"
                work.mkdir()
                _assert_loads_like_each_line_alone(path, work)

    def test_repeated_parts_are_the_previous_frames(self, tmp_path):
        # the whole obstacles array, the light and the weather are taken
        # from the previous frame while their text repeats; the ego moves
        obstacles = tuple(Obstacle(id=f"o{i}", kind="vehicle", x=9.0 + i,
                                   y=3.0, heading=0.0, speed=0.0,
                                   half_len=2.0, half_wid=1.0,
                                   predicted=((0.5, 9.0 + i, 3.0),))
                          for i in range(2))
        light = TrafficLightState("red", 12.5)
        weather = WeatherState(rain=0.0, fog=0.3)
        frames = [RawRecordFrame(t=f.t, ego=f.ego, obstacles=obstacles,
                                 traffic_light=light, weather=weather)
                  for f in ramp_frames(4)]
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        loaded = load_record(path)
        assert loaded == frames
        first = loaded[0]
        for second in loaded[1:]:
            assert second.obstacles is first.obstacles
            assert second.traffic_light is first.traffic_light
            assert second.weather is first.weather
            assert second.ego is not first.ego

    def test_negative_zero_weather_after_zero_is_read_anew(self, tmp_path):
        # "rain":-0.0 after "rain":0.0 has other text, so it is decoded:
        # it reads -0.0 and writes back as it was
        frames = [dataclasses.replace(f, weather=WeatherState(rain=rain))
                  for f, rain in zip(ramp_frames(3), (0.0, -0.0, -0.0))]
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        text = path.read_text(encoding="utf-8")
        assert text.count('"rain":0.0,') == 1 and text.count('"rain":-0.0,') == 2
        work = tmp_path / "lines"
        work.mkdir()
        loaded = _assert_loads_like_each_line_alone(path, work)
        assert [math.copysign(1.0, f.weather.rain) for f in loaded] == [
            1.0, -1.0, -1.0]
        assert loaded[1].weather is not loaded[0].weather
        assert loaded[2].weather is loaded[1].weather
        again = tmp_path / "again.jsonl"
        save_record(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_repeated_array_then_a_second_obstacles_key(self, tmp_path):
        # the array repeats the previous line's, but a second "obstacles"
        # key wins over it: the line is decoded whole, and offers nothing
        ob = Obstacle(id="o", kind="vehicle", x=9.0, y=0.0, heading=0.0,
                      speed=0.0, half_len=2.0, half_wid=1.0)
        frames = [RawRecordFrame(t=f.t, ego=f.ego, obstacles=(ob,))
                  for f in ramp_frames(3)]
        lines = [frame_to_line(f) for f in frames]
        lines[1] = lines[1][:-2] + ',"obstacles":[]}\n'
        doc, texts, elements = trace_model._decode_reusing(
            lines[0].strip(), None, trace_model._NO_TEXTS, ())
        first = trace_model._frame_from_dict(doc)
        assert trace_model._decode_reusing(lines[1].strip(), first, texts,
                                           elements) is None
        path = tmp_path / "rec.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        work = tmp_path / "lines"
        work.mkdir()
        loaded = _assert_loads_like_each_line_alone(path, work)
        assert [len(f.obstacles) for f in loaded] == [1, 0, 1]
        assert loaded[2].obstacles[0] is not loaded[0].obstacles[0]

    @pytest.mark.parametrize("rewrite, error", [
        (lambda line: '{"note":"obstacles",' + line[1:], None),
        (lambda line: '{"weather":{"obstacles":null},' + line[1:], None),
        (lambda line: line.replace("}]", "} 7]", 1),
         "line 2: not valid JSON (Expecting ',' delimiter)"),
        (lambda line: line + " 7", "line 2: not valid JSON (Extra data)"),
    ], ids=["string before the key", "nested key first", "junk after an element",
            "data after the document"])
    def test_irregular_line_is_decoded_whole(self, tmp_path, rewrite, error):
        ob = {"id": "o", "kind": "vehicle", "x": 9.0, "y": 0.0, "speed": 1.0,
              "half_len": 2.0, "half_wid": 1.0}
        lines = [json.dumps({"t": t / 10, "ego": {"x": 0, "y": 0, "heading": 0,
                                                  "speed": 1},
                             "obstacles": [ob]}, separators=(",", ":"))
                 for t in range(3)]
        lines[1] = rewrite(lines[1])
        assert trace_model._decode_reusing(lines[1], None, trace_model._NO_TEXTS, ()) is None
        path = tmp_path / "rec.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        work = tmp_path / "lines"
        work.mkdir()
        with warnings.catch_warnings():     # "note" is unknown
            warnings.simplefilter("ignore", UserWarning)
            frames = _assert_loads_like_each_line_alone(path, work)
            assert _frames_or_error(load_record, path)[1] == error
        assert len(frames) == (3 if error is None else 0)

    @pytest.mark.parametrize("scenario, reused, after_first", [
        ("S2", 253, 342), ("S5", 700, 700), ("S7", 660, 1155)],
        ids=["S2", "S5", "S7"])
    def test_scenario_records_reload_byte_identically(self, tmp_path,
                                                      scenario, reused,
                                                      after_first):
        # S2 and S7 hold lines with "-0.": an obstacle whose text repeats
        # is shared there too
        frames, _ = run_scenario(scenario_by_id(scenario))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_record(frames, p1)
        loaded = load_record(p1)
        save_record(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert [f.scene for f in loaded] == [f.scene for f in frames]
        assert sum(len(f.obstacles) for f in loaded[1:]) == after_first
        assert _reused(loaded) == reused
        if scenario != "S5":
            assert "-0." in p1.read_text(encoding="utf-8")

    @pytest.mark.parametrize("separators", [
        (", ", ": "), (" , ", " : "), ("\t,", ":\t")],
        ids=["json.dumps", "spaces", "tabs"])
    def test_spaced_record_shares_like_a_compact_one(self, tmp_path,
                                                     separators):
        # whitespace around the array, between its elements and around the
        # members after it is skipped: S2 written with spaces shares the 253
        # obstacles, and the whole parts, that it shares compact
        frames, _ = run_scenario(scenario_by_id("S2"))
        compact = tmp_path / "compact.jsonl"
        save_record(frames, compact)
        path = tmp_path / "spaced.jsonl"
        with open(compact, encoding="utf-8") as fh:
            path.write_text("".join(
                json.dumps(json.loads(line), separators=separators) + "\n"
                for line in fh), encoding="utf-8")
        work = tmp_path / "lines"
        work.mkdir()
        loaded = _assert_loads_like_each_line_alone(path, work)
        assert _reused(loaded) == 253
        assert _shared(loaded) == _shared(load_record(compact)) == {
            "obstacles": 114, "traffic_light": 0, "weather": 171}

    @pytest.mark.parametrize("ob_id, accel", [
        ("car-0.5", 0.0), ("car", 2.5e-05)],
        ids=["id car-0.5", "accel 2.5e-05"])
    def test_negative_zero_id_and_exponent_lines_share(self, tmp_path, ob_id,
                                                       accel):
        # neither an id holding "-0." nor an exponent elsewhere on the line
        # stops an obstacle whose text repeats from being shared
        ob = Obstacle(id=ob_id, kind="vehicle", x=9.0, y=0.0, heading=0.0,
                      speed=0.0, half_len=2.0, half_wid=1.0)
        frames = [RawRecordFrame(t=f.t, ego=f.ego._replace(accel=accel),
                                 obstacles=(ob,)) for f in ramp_frames(5)]
        path = tmp_path / "rec.jsonl"
        save_record(frames, path)
        assert ("2.5e-05" in path.read_text(encoding="utf-8")) == bool(accel)
        loaded = load_record(path)
        assert loaded == frames
        assert _reused(loaded) == 4

    def test_held_npc_is_one_object_across_frames(self, tmp_path):
        # S5's stalled car stands still: 700 of its 701 obstacles equal the
        # previous frame's
        frames, _ = run_scenario(scenario_by_id("S5"))
        path = tmp_path / "s5.jsonl"
        save_record(frames, path)
        loaded = load_record(path)
        assert [len(f.obstacles) for f in loaded] == [1] * 701
        stalled = loaded[1].obstacles[0]
        assert _reused(loaded) == 700
        assert all(f.obstacles[0] is stalled for f in loaded[1:])

    @pytest.mark.parametrize("key, value, message", [
        ("half_len", 0, "obstacles.half_len must be positive, got 0"),
        ("kind", "tank", "obstacles.kind must be one of ['vehicle',"
                         " 'pedestrian', 'cyclist', 'unknown'], got 'tank'"),
        ("speed", "1", "'>=' not supported between instances of 'str' and"
                       " 'int'"),
    ])
    def test_bad_value_after_shared_frames_names_its_line(self, tmp_path, key,
                                                          value, message):
        ob = {"id": "o", "kind": "vehicle", "x": 9.0, "y": 0.0, "speed": 1.0,
              "half_len": 2.0, "half_wid": 1.0}
        docs = [{"t": t / 10, "ego": {"x": 0, "y": 0, "heading": 0,
                                      "speed": 1},
                 "obstacles": [dict(ob)]} for t in range(5)]
        # compact lines, which share their repeated obstacle text
        lines = [json.dumps(d, separators=(",", ":")) + "\n" for d in docs]
        path = tmp_path / "rec.jsonl"
        path.write_text("".join(lines[:3]), encoding="utf-8")
        assert _reused(load_record(path)) == 2
        docs[3]["obstacles"][0][key] = value
        lines[3] = json.dumps(docs[3], separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(RecordError) as info:
            load_record(path)
        assert str(info.value) == f"line 4: bad frame ({message})"

    @pytest.mark.parametrize("ego_speed, end, message", [
        # the ego is built before the obstacles
        (-1, "}", "bad frame (ego.speed must be non-negative, got -1)"),
        # the whole line decodes before any obstacle is built
        (1, ',"t":}', "not valid JSON (Expecting value)"),
    ], ids=["ego first", "decode first"])
    def test_error_precedence_after_a_shared_line(self, tmp_path, ego_speed,
                                                  end, message):
        # line 2 holds a bad obstacle (kind "tank") after a line that offers
        # its obstacle
        lines = []
        for t, kind, speed in ((0.0, "vehicle", 1), (0.1, "tank", ego_speed)):
            ob = {"id": "o", "kind": kind, "x": 9.0, "y": 0.0, "speed": 1.0,
                  "half_len": 2.0, "half_wid": 1.0}
            doc = {"t": t, "ego": {"x": 0, "y": 0, "heading": 0,
                                   "speed": speed}, "obstacles": [ob]}
            lines.append(json.dumps(doc, separators=(",", ":")))
        lines[1] = lines[1][:-1] + end
        path = tmp_path / "rec.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecordError) as info:
            load_record(path)
        assert str(info.value) == f"line 2: {message}"

# Leaves whose text json.dumps writes in a way of its own
_ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
               1.7e9 + 0.1, 0.1, -2.5e-7, 1.7976931348623157e308)
_ODD_IDS = ("car1", "\u00e9", 'a"b', "two\nlines", "\\", "\u2603", 7, 1.5,
            True, None)


def _odd_number(rng):
    r = rng.random()
    if r < 0.5:
        return rng.choice(_ODD_FLOATS)
    if r < 0.65:
        return rng.randint(-3, 3)          # an int in a float field
    if r < 0.7:
        return rng.choice((True, False, None))
    return rng.uniform(-1e4, 1e4)


def _odd_flag(rng):
    return rng.choice((True, False, 1, 0))


def _odd_obstacle(rng):
    return Obstacle(
        id=rng.choice(_ODD_IDS), kind=rng.choice(OBSTACLE_KINDS),
        x=_odd_number(rng), y=_odd_number(rng), heading=_odd_number(rng),
        speed=_odd_number(rng), half_len=_odd_number(rng),
        half_wid=_odd_number(rng),
        predicted=tuple(tuple(_odd_number(rng) for _ in range(rng.choice((2, 3))))
                        for _ in range(rng.randint(0, 3))))


def _odd_frames(rng, n):
    """n fresh frames, made one at a time. An obstacle is new, repeated
    within its frame, the previous frame's, or one last seen two or more
    frames back."""
    previous, older = [], []
    for i in range(n):
        obstacles = []
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            if r < 0.15 and obstacles:
                ob = rng.choice(obstacles)
            elif r < 0.55 and previous:
                ob = rng.choice(previous)
            elif r < 0.7 and older:
                ob = rng.choice(older)
            else:
                ob = _odd_obstacle(rng)
            obstacles.append(ob)
        older = (older + [ob for ob in previous if ob not in obstacles])[-3:]
        previous = obstacles
        yield RawRecordFrame(
            t=_odd_number(rng),
            ego=EgoPose(x=_odd_number(rng), y=_odd_number(rng),
                        heading=_odd_number(rng), speed=_odd_number(rng),
                        accel=_odd_number(rng), steering=_odd_number(rng),
                        gear=rng.choice(("drive", "\u00e9", 'q"', 3))),
            obstacles=tuple(obstacles),
            traffic_light=rng.choice((None, TrafficLightState(
                color=rng.choice(("red", "green", None)),
                dist_to_stopline=_odd_number(rng)))),
            weather=WeatherState(rain=_odd_number(rng), fog=_odd_number(rng),
                                 snow=_odd_number(rng),
                                 visibility=_odd_number(rng)),
            map_ctx=MapContext(
                in_junction=_odd_flag(rng),
                dist_to_junction=_odd_number(rng),
                lane_kind=rng.choice(("normal", "\n", None)),
                dist_to_dest=_odd_number(rng),
                dist_to_stop_sign=_odd_number(rng),
                is_changing_lane=_odd_flag(rng)))


def _frames_sharing_parts(rng, n, back):
    """n odd frames, each part of which is, at random, its own, the
    previous frame's object (runs), or the object `back` frames back
    (with back 2, an A, B, A pattern)."""
    frames = []
    for i, frame in enumerate(_odd_frames(rng, n)):
        shared = {}
        for name in ("ego", "obstacles", "traffic_light", "weather",
                     "map_ctx"):
            r = rng.random()
            if r < 0.4 and i >= 1:
                shared[name] = getattr(frames[i - 1], name)
            elif r < 0.6 and i >= back:
                shared[name] = getattr(frames[i - back], name)
        frames.append(dataclasses.replace(frame, **shared))
    return frames


class TestRecordWriter:
    """Records are written through a template, and each obstacle keeps its
    own text for every frame that holds it; every line must equal the
    reference `json.dumps` of the frame as nested dicts."""

    def test_seeded_frames_match_reference(self, tmp_path):
        for seed in range(40):
            frames = list(_odd_frames(random.Random(seed), 50))
            want = [frame_line_ref(f) for f in frames]
            assert [frame_to_line(f) for f in frames] == want
            assert list(map(frame_to_line, frames)) == want   # kept texts
            path = tmp_path / f"rec{seed}.jsonl"
            save_record(frames, path)
            assert path.read_bytes() == "".join(want).encode()

    @pytest.mark.parametrize("back", [1, 2, 3])
    def test_record_bytes_of_frames_sharing_parts_match_reference(self,
                                                                 back):
        # the writer keeps a part's text while consecutive frames hold the
        # same object; fresh parts, runs and A, B, A must all read as the
        # reference writes them
        written = ""
        for seed in range(30):
            frames = _frames_sharing_parts(random.Random(seed), 60, back)
            want = "".join(map(frame_line_ref, frames))
            assert "".join(map(frame_to_line, frames)) == want
            assert trace_model.record_bytes(frames) == want.encode()
            written += want
        for leaf in (":-0.0,", ":NaN,", ":Infinity,", '"id":7,', '"gear":3}'):
            assert leaf in written, leaf

    def test_shared_parts_are_written_once(self, monkeypatch):
        # a script's one weather is written once per record, and so is a
        # standing ego's pose while its frames hold the same object
        written = []
        for name in ("_ego_text", "_weather_text"):
            real = getattr(trace_model, name)
            monkeypatch.setattr(trace_model, name,
                                lambda part, real=real, name=name:
                                written.append(name) or real(part))
        frames, _ = run_scenario(scenario_by_id("S5"))
        data = trace_model.record_bytes(frames)
        assert data == "".join(map(frame_line_ref, frames)).encode()
        assert written.count("_weather_text") == 1
        egos = [f.ego for f in frames]
        runs = 1 + sum(b is not a for a, b in zip(egos, egos[1:]))
        assert written.count("_ego_text") == runs < len(frames)

    def test_save_record_writes_record_bytes_in_binary_mode(self, tmp_path,
                                                            monkeypatch):
        # a text-mode file would turn each "\n" into "\r\n" on some
        # platforms, and the saved record would differ from a run
        # directory's record.jsonl
        modes = []

        def spy_open(path, mode="r", *args, **kwargs):
            modes.append(mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(trace_model, "open", spy_open, raising=False)
        frames = list(_odd_frames(random.Random(7), 50))
        save_record(frames, tmp_path / "rec.jsonl")
        assert modes == ["wb"]
        assert ((tmp_path / "rec.jsonl").read_bytes()
                == trace_model.record_bytes(frames)
                == "".join(map(frame_line_ref, frames)).encode())

    def test_frames_made_while_writing_match_reference(self, tmp_path):
        # frames dropped once written free their obstacles, whose ids the
        # obstacles of later frames may take
        for seed in range(20):
            want = "".join(map(frame_line_ref,
                               _odd_frames(random.Random(seed), 200)))
            assert "".join(map(frame_to_line,
                               _odd_frames(random.Random(seed), 200))) == want
            path = tmp_path / f"rec{seed}.jsonl"
            save_record(_odd_frames(random.Random(seed), 200), path)
            assert path.read_bytes() == want.encode()

    def test_odd_leaves_are_written_as_json_dumps(self):
        ob = Obstacle(id="\u00e9", kind="vehicle", x=5e-324, y=1e16,
                      heading=-0.0, speed=1.7e9 + 0.1, half_len=2,
                      half_wid=math.nan, predicted=((1.0, math.inf),
                                                    (-math.inf, 0, 1)))
        frame = dataclasses.replace(frame_with([ob, ob]),
                                    map_ctx=MapContext(in_junction=1,
                                                       is_changing_lane=0))
        line = frame_to_line(frame)
        assert line == frame_line_ref(frame)
        for text in ('"id":"\\u00e9"', '"x":5e-324', '"y":1e+16',
                     '"heading":-0.0', '"speed":1700000000.1',
                     '"half_len":2,', '"half_wid":NaN',
                     '"predicted":[[1.0,Infinity],[-Infinity,0,1]]',
                     '"in_junction":1,', '"is_changing_lane":0}'):
            assert text in line, text
        assert line.count('"half_wid":NaN') == 2

    def test_frames_refilling_one_obstacle_list_match_reference(self):
        # each frame's obstacles replace the last frame's in one list, so
        # new obstacles take the ids of freed ones
        shared = []
        ego = frame_with().ego

        def frames():
            for i in range(300):
                shared.clear()
                for name in (f"a{i}", f"b{i}"):
                    shared.append(Obstacle(id=name, kind="vehicle", x=0.5 * i,
                                           y=0.0, heading=0.0, speed=0.0,
                                           half_len=2.0, half_wid=1.0))
                yield RawRecordFrame(t=i * 0.1, ego=ego, obstacles=shared)

        got = list(map(frame_to_line, frames()))
        assert [(line.count(f'"id":"a{i}"'), line.count(f'"id":"b{i}"'))
                for i, line in enumerate(got)] == [(1, 1)] * 300
        want = list(map(frame_line_ref, frames()))
        assert got == want
        # one list object on every frame, its items new each time
        assert trace_model.record_bytes(frames()) == "".join(want).encode()

    def test_obstacle_of_the_previous_frame_is_encoded_once(self,
                                                            monkeypatch):
        a, b, c = (Obstacle(id=name, kind="vehicle", x=9.0, y=0.0,
                            heading=0.0, speed=0.0, half_len=2.0,
                            half_wid=1.0) for name in "abc")
        frames = [dataclasses.replace(frame_with(obs), t=i * 0.1)
                  for i, obs in enumerate([[a, a, b], [a, c], [b, a], []])]
        encoded = []
        real = trace_model._obstacle_text
        monkeypatch.setattr(trace_model, "_obstacle_text",
                            lambda ob: encoded.append(ob.id) or real(ob))
        want = list(map(frame_line_ref, frames))
        assert list(map(frame_to_line, frames)) == want
        # one encode per obstacle object: b is not encoded again after its
        # gap, and writing the frames again encodes nothing
        assert encoded == ["a", "b", "c"]
        assert list(map(frame_to_line, frames)) == want
        assert encoded == ["a", "b", "c"]
        encoded.clear()
        # S5's stalled car is one object from frame 1 on
        s5, _ = run_scenario(scenario_by_id("S5"))
        assert list(map(frame_to_line, s5)) == list(map(frame_line_ref, s5))
        assert encoded == ["stalled1"] * 2


class TestBuildTrace:
    def test_single_frame(self):
        trace = build_trace([frame_with(speed=50.0)])
        assert len(trace) == 1
        assert SignalVar("speed").readings((trace.scenes[0],))[0] == 50.0

    def test_ahead_geometry(self):
        ob = Obstacle(id="a", kind="vehicle", x=8.0, y=0.0, heading=0.0,
                      speed=20.0, half_len=2.3, half_wid=1.0)
        trace = build_trace([frame_with(obstacles=[ob])])
        scene = trace.scenes[0]
        assert SignalVar("NPCAhead", 10).readings((scene,))[0] > 0
        assert SignalVar("NPCAhead", 5).readings((scene,))[0] < 0
        # clearance: 8 m centre gap minus the two facing half-lengths
        sep = scene.nearest_npc_sep
        assert sep == pytest.approx(8.0 - 2.4 - 2.3, abs=1e-6)

    def test_behind_and_offset_obstacles_not_ahead(self):
        behind = Obstacle(id="b", kind="vehicle", x=-8.0, y=0.0, heading=0.0,
                          speed=0.0, half_len=2.3, half_wid=1.0)
        wide = Obstacle(id="w", kind="vehicle", x=8.0, y=3.0, heading=0.0,
                        speed=0.0, half_len=2.3, half_wid=1.0)
        trace = build_trace([frame_with(obstacles=[behind, wide])])
        assert SignalVar("NPCAhead", 50).readings((trace.scenes[0],))[0] < 0

    def test_ramp_speed_signal_matches_input(self):
        trace = build_trace(ramp_frames(91))
        assert len(trace) == 91
        for k in (0, 1, 55, 60, 90):
            assert SignalVar("speed").readings((trace.scenes[k],))[0] == float(k)

    def test_resample_at_native_dt_is_identity(self):
        frames = ramp_frames(40)
        t1 = build_trace(frames)
        speeds = [s.speed for s in t1.scenes]
        assert speeds == [f.ego.speed for f in frames]

    def test_resample_coarser(self):
        frames = ramp_frames(81, dt=0.05)     # a 20 Hz record
        t2 = build_trace(frames)
        assert len(t2) == 41
        assert [s.speed for s in t2.scenes][:4] == [0.0, 2.0, 4.0, 6.0]

    def test_stopped_threshold(self):
        trace = build_trace([frame_with(speed=0.4)])
        assert SignalVar("stopped").readings((trace.scenes[0],))[0] > 0
        trace = build_trace([frame_with(speed=0.6)])
        assert SignalVar("stopped").readings((trace.scenes[0],))[0] < 0


def _any_real(rng):
    return rng.choice((0.0, -0.0, 0.5, 1e-300, 9999.0, 1.7e9 + 0.1,
                       rng.uniform(-100.0, 100.0), rng.uniform(0.0, 0.6)))


def _any_scene(rng):
    """A scene with every field drawn, each enum over all its values."""
    values = {}
    for name, default in make_scene()._asdict().items():
        if isinstance(default, bool):
            values[name] = rng.random() < 0.5
        elif name == "light_color":
            values[name] = rng.choice(sorted(LIGHT_CODE))
        elif name == "lane_kind":
            values[name] = rng.choice(("normal", "fast", "slow"))
        elif name == "gear":
            values[name] = rng.choice(("park", "drive", "reverse"))
        else:
            values[name] = _any_real(rng)
    return Scene(**values)


class TestRecordTuples:
    RECORDS = {
        "EgoPose": EgoPose(1.0, 2.0, 0.5, 30.0, -1.0, 6.0, "reverse"),
        "TrafficLightState": TrafficLightState("red", 12.5),
        "MapContext": MapContext(True, 3.0, "fast", 40.0, 9999.0, False),
        "Scene": make_scene(speed=3.0, light_color="green"),
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_no_field_can_be_assigned(self, name):
        record = self.RECORDS[name]
        assert type(record).__name__ == name
        for field_name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field_name, getattr(record, field_name))
        with pytest.raises(AttributeError):
            record.extra = 1.0

    def test_scene_fields_by_name(self):
        # scene_from_frame builds the scene by position: each field holds
        # the value its name says
        ego = EgoPose(0.0, 0.0, 0.0, 31.0, -2.5, 0.0, "reverse")
        frame = RawRecordFrame(
            0.0, ego, (), TrafficLightState("yellow", -4.0),
            WeatherState(0.1, 0.2, 0.3, 44.0),
            MapContext(False, 17.0, "slow", 250.0, 33.0, True))
        assert scene_from_frame(frame)._asdict() == dict(
            speed=31.0, accel=-2.5, npc_ahead_dist=9999.0,
            nearest_npc_dist=9999.0, nearest_npc_sep=9999.0,
            dist_to_junction=17.0, dist_to_stopline=9999.0,
            dist_to_stop_sign=33.0, dist_to_dest=250.0, light_color="yellow",
            light_dist_raw=-4.0, rain=0.1, fog=0.2, snow=0.3, visibility=44.0,
            in_junction=False, lane_kind="slow", gear="reverse",
            overtaking=False, changing_lane=True, congested=False)

    def test_loaded_frame_fields_by_name(self, tmp_path):
        # _frame_from_dict builds the frame by position too
        doc = {"t": 0.5, "ego": {"x": 1.0, "y": 2.0, "heading": 0.25,
                                 "speed": 3.0, "accel": 4.0, "steering": 5.0,
                                 "gear": "park"},
               "obstacles": [],
               "traffic_light": {"color": "green", "dist_to_stopline": 6.0},
               "weather": {"rain": 0.1, "fog": 0.2, "snow": 0.3,
                           "visibility": 70.0},
               "map_ctx": {"in_junction": True, "dist_to_junction": 8.0,
                           "lane_kind": "fast", "dist_to_dest": 9.0,
                           "dist_to_stop_sign": 10.0,
                           "is_changing_lane": False}}
        path = tmp_path / "rec.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        frame, = load_record(path)
        assert frame.t == 0.5
        assert frame.ego._asdict() == doc["ego"]
        assert frame.traffic_light._asdict() == doc["traffic_light"]
        assert dataclasses.asdict(frame.weather) == doc["weather"]
        assert frame.map_ctx._asdict() == doc["map_ctx"]


class TestColumnReadings:
    @pytest.mark.parametrize("name", sorted(trace_model._CATALOG))
    def test_equal_to_per_scene_reads(self, name):
        # the column reading of every variable is bitwise the reading of
        # each scene alone, and the former per-scene catalog's
        rng = random.Random(name)
        for _ in range(25):
            scenes = tuple(_any_scene(rng) for _ in range(rng.randint(1, 40)))
            arg = _any_real(rng) if catalog_kind(name) == "pred" else None
            var = SignalVar(name, arg)
            column = var.readings(scenes)
            assert column.dtype == float and column.shape == (len(scenes),)
            got = [v.hex() for v in column.tolist()]
            assert got == [var.readings((scene,))[0].hex() for scene in scenes]
            assert got == [float(read_ref(var, scene)).hex()
                           for scene in scenes]


class TestSceneValue:
    def test_range_error(self):
        trace = build_trace([frame_with()])
        with pytest.raises(IndexError):
            trace.scenes[1]

    def test_unknown_variable(self):
        with pytest.raises(CatalogError):
            SignalVar("warpDrive")

    def test_pred_requires_arg(self):
        with pytest.raises(CatalogError):
            SignalVar("NPCAhead")

    def test_enum_values_are_strings(self):
        trace = build_trace([frame_with()])
        scene = trace.scenes[0]
        assert (scene.light_color, scene.gear) == ("off", "drive")
        color = SignalVar("trafficLightColor").readings((scene,))[0]
        assert color == LIGHT_CODE["off"]


class TestNearestSep:
    def test_matches_bruteforce_minimum(self):
        rng = random.Random(11)
        from driverepair.geometry import obb_corners, obb_distance
        for _ in range(50):
            obstacles = [
                Obstacle(id=f"o{i}", kind="vehicle",
                         x=rng.uniform(-40, 40), y=rng.uniform(-40, 40),
                         heading=rng.uniform(-math.pi, math.pi),
                         speed=rng.uniform(0, 60),
                         half_len=rng.uniform(0.5, 3), half_wid=rng.uniform(0.3, 1.5))
                for i in range(rng.randint(1, 5))
            ]
            frame = frame_with(obstacles=obstacles)
            scene = scene_from_frame(frame)
            ego_box = obb_corners(0.0, 0.0, 0.0, 2.4, 1.05)
            brute = min(
                obb_distance(ego_box, obb_corners(o.x, o.y, o.heading,
                                                  o.half_len, o.half_wid))
                for o in obstacles)
            assert scene.nearest_npc_sep == pytest.approx(brute, abs=1e-9)
            assert all(scene.nearest_npc_sep
                       <= math.hypot(o.x, o.y) + 1e-9 for o in obstacles)


class TestTraceInvariants:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_scenes_immutable(self):
        scene = make_scene()
        with pytest.raises(AttributeError):
            scene.speed = 10.0
