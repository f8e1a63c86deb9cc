"""One value rule per kind for every input the program reads: a driving
record, a scenario document and a µDrive program refuse a value that is not
a finite JSON number where a number goes, each naming the field by its path
in the document, and records and scenario documents refuse the same ids."""
import json

import pytest

from driverepair.mudrive import default_catalog, from_json, validate
from driverepair.simulator import script_from_dict, script_to_dict
from driverepair.simulator.scenarios import (
    LightSpec,
    NpcSpec,
    ScenarioError,
    ScenarioScript,
)
from driverepair.trace_model import (
    EgoPose,
    MapContext,
    Obstacle,
    RawRecordFrame,
    RecordError,
    TrafficLightState,
    WeatherState,
    frame_to_line,
    load_record,
)

# JSON values that are no number: Python counts true and false as ints
NOT_NUMBERS = (True, False, None)

# A frame and a script that hold every field a document may give them, each
# number a float
FRAME = RawRecordFrame(
    t=0.0, ego=EgoPose(1.0, 2.0, 0.5, 10.0, 0.3, 1.5, "drive"),
    obstacles=(Obstacle(id="o", kind="vehicle", x=9.0, y=1.0, heading=0.1,
                        speed=2.0, half_len=2.0, half_wid=1.0,
                        predicted=((0.5, 10.0, 1.0),)),),
    traffic_light=TrafficLightState("red", 12.0),
    weather=WeatherState(rain=0.1, fog=0.2, snow=0.3, visibility=300.0),
    map_ctx=MapContext(False, 30.0, "fast", 200.0, 50.0, False))
SCRIPT = ScenarioScript(
    id="every_field", route_len_m=100.0, duration_s=20.0,
    start_speed_kmh=5.0, lane_segments=((0.0, 50.0, "fast"),),
    junctions=((60.0, 70.0),),
    lights=(LightSpec(58.0, 70.0, (("green", 5.0), ("red", 5.0))),),
    stop_signs=(40.0,),
    npcs=(NpcSpec(id="n", half_len=2.0, half_wid=1.0,
                  waypoints=((0.0, 80.0, 0.0, 0.0), (10.0, 90.0, 0.0, 3.6))),),
    weather=WeatherState(rain=0.1, fog=0.2, snow=0.3, visibility=300.0))


def _number_paths(doc, path=()):
    """The path of each number in a JSON document, by key and index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if type(doc) is float else []
    return [p for key, value in items for p in _number_paths(value,
                                                             path + (key,))]


def _field(path):
    """A field's name in messages: its keys, without the indices."""
    return ".".join(key for key in path if isinstance(key, str))


def _path_id(path):
    return ".".join(map(str, path))


def _with(doc, path, value):
    """A copy of `doc` with `value` at `path`."""
    doc = json.loads(json.dumps(doc))
    *parent, last = path
    node = doc
    for key in parent:
        node = node[key]
    node[last] = value
    return doc


def _line(doc):
    return json.dumps(doc, separators=(",", ":")) + "\n"


RECORD_DOC = json.loads(frame_to_line(FRAME))
RECORD_PATHS = _number_paths(RECORD_DOC)
SCRIPT_DOC = json.loads(json.dumps(script_to_dict(SCRIPT)))
SCRIPT_PATHS = _number_paths(SCRIPT_DOC)


def _program(kind, entry, args):
    """A one-rule program document whose trigger, condition or action is
    `entry` called with `args`."""
    call = {"name": entry.name, "args": args}
    rule = {"name": "r", "trigger": {"name": "always"},
            "actions": [{"name": "cruise_speed", "args": {"kmh": 10}}]}
    if kind == "events":
        rule["trigger"] = call
    elif kind == "conditions":
        rule["conditions"] = [call]
    else:
        rule["actions"] = [call]
    return {"rules": [rule]}


def _valid_arg(spec):
    if spec.type == "number":
        return next((v for v in (spec.minimum, spec.maximum) if v is not None),
                    1.0)
    return spec.values[0] if spec.type == "enum" else True


_WHERE = {"events": "trigger", "conditions": "condition", "actions": "action"}
# (kind, entry, the index of a number parameter) for every one in the catalog
NUMBER_PARAMS = [(kind, entry, i)
                 for kind in _WHERE
                 for entry in getattr(default_catalog(), kind)
                 for i, spec in enumerate(entry.params)
                 if spec.type == "number"]


def test_the_tables_hold_every_number_field():
    assert {_field(p) for p in RECORD_PATHS} == {
        "t", "ego.x", "ego.y", "ego.heading", "ego.speed", "ego.accel",
        "ego.steering", "obstacles.x", "obstacles.y", "obstacles.heading",
        "obstacles.speed", "obstacles.half_len", "obstacles.half_wid",
        "obstacles.predicted", "traffic_light.dist_to_stopline",
        "weather.rain", "weather.fog", "weather.snow", "weather.visibility",
        "map_ctx.dist_to_junction", "map_ctx.dist_to_dest",
        "map_ctx.dist_to_stop_sign"}
    assert len(RECORD_PATHS) == 24      # three per predicted point
    assert {_field(p) for p in SCRIPT_PATHS} == {
        "route_len_m", "duration_s", "start_speed_kmh", "lane_segments",
        "junctions", "lights.stopline_s", "lights.release_s",
        "lights.schedule", "stop_signs", "npcs.half_len", "npcs.half_wid",
        "npcs.waypoints", "weather.rain", "weather.fog", "weather.snow",
        "weather.visibility"}
    assert len(SCRIPT_PATHS) == 26
    assert len(NUMBER_PARAMS) >= 10
    # the document loads as it is
    assert script_from_dict(SCRIPT_DOC) == SCRIPT


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("path", RECORD_PATHS, ids=_path_id)
def test_record_refuses_a_non_number(tmp_path, path, value):
    # after a line that offers its parts, so the bad part is decoded anew
    second = _with(_with(RECORD_DOC, ("t",), 0.1), path, value)
    rec = tmp_path / "rec.jsonl"
    rec.write_text(_line(RECORD_DOC) + _line(second), encoding="utf-8")
    with pytest.raises(RecordError) as info:
        load_record(rec)
    assert str(info.value) == (f"line 2: bad frame ({_field(path)} must be"
                               f" a finite number, got {value!r})")


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("path", SCRIPT_PATHS, ids=_path_id)
def test_scenario_document_refuses_a_non_number(path, value):
    with pytest.raises(ScenarioError) as info:
        script_from_dict(_with(SCRIPT_DOC, path, value))
    assert str(info.value) == (f"bad scenario document: {_field(path)} must"
                               f" be a finite number, got {value!r}")


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("kind, entry, index", NUMBER_PARAMS,
                         ids=[f"{e.name}.{e.params[i].name}"
                              for _, e, i in NUMBER_PARAMS])
def test_program_refuses_a_non_number(kind, entry, index, value):
    args = {spec.name: _valid_arg(spec) for spec in entry.params}
    assert validate(from_json(_program(kind, entry, args))) == []
    args[entry.params[index].name] = value
    problems = validate(from_json(_program(kind, entry, args)))
    assert [str(p) for p in problems] == [
        f"[r] {_WHERE[kind]}: {entry.name}: {entry.params[index].name} must"
        f" be a finite number, got {value!r}"]


# id literals that are neither a string nor a finite number (1e400 decodes
# as inf)
BAD_IDS = ("null", "true", "[1]", "{}", "1e400")


def _read_record_id(tmp_path, literal):
    """([the id kept], None) for an obstacle whose id is `literal`, or
    (None, the message that refuses it)."""
    line = _line(RECORD_DOC).replace('"id":"o"', f'"id":{literal}', 1)
    rec = tmp_path / "rec.jsonl"
    rec.write_text(line, encoding="utf-8")
    try:
        return [ob.id for ob in load_record(rec)[0].obstacles], None
    except RecordError as exc:
        return None, str(exc).removeprefix("line 1: bad frame (")[:-1]


def _read_scenario_id(path, literal):
    """As `_read_record_id`, for the scenario id or NPC id at `path`."""
    try:
        script = script_from_dict(_with(SCRIPT_DOC, path, json.loads(literal)))
    except ScenarioError as exc:
        return None, str(exc).removeprefix("bad scenario document: ")
    return [script.id] if path == ("id",) else [script.npcs[0].id], None


@pytest.mark.parametrize("literal", BAD_IDS + ("1", "2.5", '"a"'))
@pytest.mark.parametrize("path", [("id",), ("npcs", 0, "id")],
                         ids=["id", "npcs.id"])
def test_scenario_ids_follow_the_record_id_rule(tmp_path, path, literal):
    kept, error = _read_record_id(tmp_path, literal)
    assert (error is None) == (literal not in BAD_IDS)
    got_kept, got_error = _read_scenario_id(path, literal)
    assert got_kept == kept
    if error is not None:
        assert got_error == error.replace("obstacles.id", _field(path))


# An enum value that is a list or an object is named like any other; it was
# looked up in the dict of the enum's codes
@pytest.mark.parametrize("value", [[], {}, ["red"]], ids=repr)
@pytest.mark.parametrize("path, values", [
    (("ego", "gear"), "['park', 'drive', 'reverse']"),
    (("map_ctx", "lane_kind"), "['normal', 'fast', 'slow']"),
    (("traffic_light", "color"), "['off', 'red', 'yellow', 'green']"),
    (("obstacles", 0, "kind"),
     "['vehicle', 'pedestrian', 'cyclist', 'unknown']"),
], ids=_path_id)
def test_record_enum_refuses_a_list_or_an_object(tmp_path, path, values,
                                                 value):
    rec = tmp_path / "rec.jsonl"
    rec.write_text(_line(_with(RECORD_DOC, path, value)), encoding="utf-8")
    with pytest.raises(RecordError) as info:
        load_record(rec)
    assert str(info.value) == (f"line 1: bad frame ({_field(path)} must be"
                               f" one of {values}, got {value!r})")
