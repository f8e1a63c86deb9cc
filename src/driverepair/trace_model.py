"""Driving records, scenes, traces, and the signal-variable catalog.

A record is a JSONL file, one frame per line. Each frame snapshots the ego
vehicle, surrounding obstacles, the governing traffic light, weather, and
map context; a frame keeps its scene and an obstacle its record text once
computed. A trace resamples a record every STEP_S seconds and evaluates
every signal variable the property language can mention, one scene per step.
The value rules that records share with scenario documents live here too.

The per-frame values (EgoPose, TrafficLightState, MapContext) and Scene are
tuples (`typing.NamedTuple`), immutable like the frozen dataclasses around
them, and cheap to build: their positional order is their field order, and
the hot paths build them by position. A variable reads the column of its
Scene field by position (`SignalVar.readings`). A frame and an obstacle
stay frozen dataclasses, because each keeps a cached value, and so does
WeatherState, which a scenario document writes as an object (`asdict`).
"""
from __future__ import annotations

import array
import functools
import itertools
import json
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import _SKIP_MARGIN, obb_corners, obb_distance

STEP_S = 0.1               # trace step in seconds: spec windows count steps
MAX_FRAME_GAP_S = 1.0      # a record's consecutive frames lie at most this
                           # far apart: a trace has a step per STEP_S
STOPPED_KMH = 0.5          # below this the vehicle counts as stopped
AHEAD_LATERAL_M = 2.0      # half-width of the "ahead" corridor in the ego frame
FAR = 9999.0               # distance sentinel: no such feature on the route

EGO_HALF_LEN = 2.4
EGO_HALF_WID = 1.05
_EGO_RADIUS = math.hypot(EGO_HALF_LEN, EGO_HALF_WID)   # half-diagonal

OBSTACLE_KINDS = ("vehicle", "pedestrian", "cyclist", "unknown")
# The values of each enum a record holds, with the codes specs compare.
LIGHT_CODE = {"off": 0.0, "red": 1.0, "yellow": 2.0, "green": 3.0}
LANE_CODE = {"normal": 0.0, "fast": 1.0, "slow": 2.0}
GEAR_CODE = {"park": 0.0, "drive": 1.0, "reverse": 2.0}

JAM_SPEED_KMH = 2.0        # obstacles slower than this count toward congestion
JAM_MIN_COUNT = 3


class RecordError(ValueError):
    """Malformed or invalid driving record."""


class CatalogError(KeyError):
    """Unknown or misused signal variable."""


# ---------------------------------------------------------------------------
# Raw record frames
# ---------------------------------------------------------------------------

class EgoPose(NamedTuple):
    x: float
    y: float
    heading: float          # radians
    speed: float            # km/h
    accel: float            # m/s^2
    steering: float         # degrees
    gear: str = "drive"


@dataclass(frozen=True)
class Obstacle:
    id: str
    kind: str
    x: float
    y: float
    heading: float
    speed: float            # km/h
    half_len: float
    half_wid: float
    predicted: tuple = ()   # ((t_rel, x, y), ...)

    @functools.cached_property
    def record_text(self) -> str:
        """The obstacle's JSON text in a record line, encoded once."""
        return _obstacle_text(self)


class TrafficLightState(NamedTuple):
    color: str
    dist_to_stopline: float  # metres; negative once the stopline is behind


@dataclass(frozen=True)
class WeatherState:
    rain: float = 0.0
    fog: float = 0.0
    snow: float = 0.0
    visibility: float = 500.0


class MapContext(NamedTuple):
    in_junction: bool = False
    dist_to_junction: float = FAR
    lane_kind: str = "normal"
    dist_to_dest: float = FAR
    dist_to_stop_sign: float = FAR
    is_changing_lane: bool = False


@dataclass(frozen=True)
class RawRecordFrame:
    t: float
    ego: EgoPose
    obstacles: tuple = ()
    traffic_light: TrafficLightState | None = None
    weather: WeatherState = field(default_factory=WeatherState)
    map_ctx: MapContext = MapContext()

    @functools.cached_property
    def scene(self) -> Scene:
        """The frame's scene, computed on first use and kept with the frame."""
        return scene_from_frame(self)

    def scene_with(self, memo: dict) -> Scene:
        """`scene`, computed with a geometry memo (see `scene_from_frame`)
        unless the frame keeps it already."""
        scene = self.__dict__.get("scene")
        if scene is None:   # where `scene` keeps what it computes
            scene = self.__dict__["scene"] = scene_from_frame(self, memo)
        return scene


# Value rules that records and scenario documents share. Each names the field
# by its document path and returns the value it accepts.

def require_one_of(value, allowed, name):
    if value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)}, got {value!r}")
    return value


def require_bool(value, name):
    # by identity: `1 == True` and `0 == False`
    if value is not True and value is not False:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def require_finite(value, name):
    try:    # a string ("nan") or an int beyond the float range fails too
        if math.isfinite(value):
            return value
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_positive(value, name):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(value, name):
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def require_object(value, name):
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def require_list(value, name):
    # a tuple is what `dataclasses.asdict` makes of a sequence field
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


# Every number a frame keeps passes `require_finite`, which also refuses a
# JSON string (float() would read "nan" as NaN) and a literal beyond the
# float range (1e400 decodes as inf; a longer int overflows in isfinite).
# A sign rule goes first, so a string there keeps its comparison error.

def _real(value, name, rule=None):
    return require_finite(rule(value, name) if rule else value, name) * 1.0


def _obstacle_from_dict(ob):
    require_object(ob, "obstacles element")
    id_ = ob["id"]
    if isinstance(id_, (int, float)):   # kept as its text: "inf" would pass
        require_finite(id_, "obstacles.id")
    point = "obstacles.predicted"
    return Obstacle(
        id=str(id_),
        kind=require_one_of(ob.get("kind", "unknown"), OBSTACLE_KINDS,
                            "obstacles.kind"),
        x=_real(ob["x"], "obstacles.x"), y=_real(ob["y"], "obstacles.y"),
        heading=_real(ob.get("heading", 0.0), "obstacles.heading"),
        speed=_real(ob["speed"], "obstacles.speed", require_non_negative),
        half_len=_real(ob["half_len"], "obstacles.half_len", require_positive),
        half_wid=_real(ob["half_wid"], "obstacles.half_wid", require_positive),
        predicted=tuple([(_real(t, point), _real(x, point), _real(y, point))
                         for t, x, y in require_list(ob.get("predicted", ()),
                                                     point)]),
    )


def _frame_from_dict(doc):
    """Build one frame, ego first. A part of `doc` that is already built
    (the previous line's, for repeated text: the obstacles tuple, an
    element's Obstacle, the TrafficLightState or None, the WeatherState)
    was checked when it was built and is taken as it is; every other part
    is built. JSON decodes to none of these types."""
    require_object(doc, "frame")
    ego_doc = require_object(doc["ego"], "ego")
    ego = EgoPose(
        _real(ego_doc["x"], "ego.x"), _real(ego_doc["y"], "ego.y"),
        _real(ego_doc["heading"], "ego.heading"),
        _real(ego_doc["speed"], "ego.speed", require_non_negative),
        _real(ego_doc.get("accel", 0.0), "ego.accel"),
        _real(ego_doc.get("steering", 0.0), "ego.steering"),
        require_one_of(ego_doc.get("gear", "drive"), GEAR_CODE, "ego.gear"))

    obstacles = doc.get("obstacles", ())
    if type(obstacles) is not tuple:
        obstacles = tuple([
            ob if type(ob) is Obstacle else _obstacle_from_dict(ob)
            for ob in require_list(obstacles, "obstacles")])

    light = doc.get("traffic_light")
    if light is not None and type(light) is not TrafficLightState:
        require_object(light, "traffic_light")
        light = TrafficLightState(
            require_one_of(light["color"], LIGHT_CODE, "traffic_light.color"),
            _real(light["dist_to_stopline"], "traffic_light.dist_to_stopline"))

    weather = doc.get("weather", {})
    if type(weather) is not WeatherState:
        w = require_object(weather, "weather")
        weather = WeatherState(
            rain=_real(w.get("rain", 0.0), "weather.rain"),
            fog=_real(w.get("fog", 0.0), "weather.fog"),
            snow=_real(w.get("snow", 0.0), "weather.snow"),
            visibility=_real(w.get("visibility", 500.0), "weather.visibility",
                             require_positive),
        )

    m = require_object(doc.get("map_ctx", {}), "map_ctx")
    map_ctx = MapContext(
        require_bool(m.get("in_junction", False), "map_ctx.in_junction"),
        _real(m.get("dist_to_junction", FAR), "map_ctx.dist_to_junction"),
        require_one_of(m.get("lane_kind", "normal"), LANE_CODE,
                       "map_ctx.lane_kind"),
        _real(m.get("dist_to_dest", FAR), "map_ctx.dist_to_dest"),
        _real(m.get("dist_to_stop_sign", FAR), "map_ctx.dist_to_stop_sign"),
        require_bool(m.get("is_changing_lane", False),
                     "map_ctx.is_changing_lane"))

    t = _real(doc["t"], "t")    # last: another bad field is reported first
    return RawRecordFrame(t, ego, obstacles, light, weather, map_ctx)


def _reject_non_finite(token):
    raise RecordError(f"non-finite number {token}")


# NaN and +/-Infinity are JSON extensions. A NaN coordinate defeats the
# separating-axis test, so an obstacle at x = NaN would read as a collision.
# They are refused as they are decoded: a NaN let through would load as the
# id "nan". Every other number is checked as the frame is built.
_RECORD_DECODER = json.JSONDecoder(parse_constant=_reject_non_finite)


_OBSTACLES_KEY = '"obstacles"'
_SPACE = " \t\n\r"                           # JSON's whitespace
_skip_space = json.decoder.WHITESPACE.match
# the key, its colon and the array's "[", JSON whitespace skipped
_opens_array = re.compile(r'"obstacles"[ \t\n\r]*:[ \t\n\r]*\[').match
_HOLE = "[]"                # what a part spliced out of a line leaves there
# The members that a line takes whole from the previous line's frame when
# their text repeats, in the order a record line writes them after the
# obstacles array: each one's index in a line's texts, field, key, what it
# leaves once spliced out, and a matcher of the comma, key and colon that
# open it
_WHOLE_MEMBERS = tuple(
    (i, name, f'"{name}"', f',"{name}":{_HOLE}', re.compile(
        rf'[ \t\n\r]*,[ \t\n\r]*"{name}"[ \t\n\r]*:[ \t\n\r]*').match)
    for i, name in enumerate(("traffic_light", "weather"), 1))
_NO_TEXTS = (None, None, None)   # the obstacles array, the light, the weather


def _elements(line, pos, texts_before, before):
    """The elements of the array whose `[` ends at `pos`, each taken as
    `before`'s Obstacle at its index where it repeats the text that
    `texts_before` holds there, or else as decoded. Returns (elements,
    their texts, the position past the `]`), or None if no `]` closes the
    array where an element ends."""
    scan = _RECORD_DECODER.scan_once
    items, texts = [], []
    n = len(texts_before)
    obstacles_before = before.obstacles if n else ()
    if line[pos] in _SPACE:
        pos = _skip_space(line, pos).end()
    if line[pos] != "]":
        i = 0
        while True:
            if i < n and line.startswith(texts_before[i], pos):
                text = texts_before[i]
                items.append(obstacles_before[i])
                pos += len(text)
            else:
                item, end = scan(line, pos)
                items.append(item)
                text = line[pos:end]
                pos = end
            texts.append(text)
            i += 1
            if line[pos] in _SPACE:
                pos = _skip_space(line, pos).end()
            if line[pos] != ",":
                break
            pos += 1
            if line[pos] in _SPACE:
                pos = _skip_space(line, pos).end()
        if line[pos] != "]":
            return None
    return items, texts, pos + 1


def _decode_reusing(line, before, texts_before, elements_before):
    """Decode a line whose top-level "obstacles" key opens an array, taking
    from `before`, the previous line's frame, each part whose text repeats
    that line's: the whole obstacles tuple, or else each element's Obstacle
    by index; the traffic light; the weather.

    `texts_before` holds the previous line's texts of those three parts
    (None for one it did not offer), and `elements_before` its element
    texts by index. JSON whitespace around the parts and the elements is
    skipped. Returns the document, which holds each part and element as
    taken or as decoded, with this line's texts and element texts; or None
    if the line is irregular, which the caller decodes whole.
    """
    key = line.find(_OBSTACLES_KEY)
    if key < 0:
        return None
    scan = _RECORD_DECODER.scan_once
    try:
        opened = _opens_array(line, key)
        if opened is None:
            return None
        start = opened.end() - 1
        text = texts_before[0]
        if text is not None and line.startswith(text, start):
            parts = [("obstacles", before.obstacles)]
            elements, pos = elements_before, start + len(text)
        else:
            walked = _elements(line, start + 1, elements_before, before)
            if walked is None:
                return None
            items, elements, pos = walked
            parts = [("obstacles", items)]
            text = line[start:pos]
        texts = [text, None, None]
        pieces = [line[:start], _HOLE]
        # A member right after the array, or after the member spliced
        # before it, is a member of the same object. Its text runs from the
        # comma before it to the end of its value, so a repeat is one
        # comparison. One with the same key later in the line would win.
        for i, name, member_key, hole, opens in _WHOLE_MEMBERS:
            text = texts_before[i]
            if text is not None and line.startswith(text, pos):
                value, end = getattr(before, name), pos + len(text)
            else:
                opened = opens(line, pos)
                if opened is None:
                    continue
                value, end = scan(line, opened.end())
                text = line[pos:end]
            if line.find(member_key, end) >= 0:
                return None
            parts.append((name, value))
            texts[i] = text
            pieces.append(hole)
            pos = end
        # The parts are values of their own. Outside them, a backslash
        # could put the key found inside a longer string ("a\"obstacles")
        # or spell a key letter ("obst\u0061cles"), and a second
        # "obstacles" key after them would win over this one.
        if (line.find("\\", 0, start) >= 0 or line.find("\\", pos) >= 0
                or line.find(_OBSTACLES_KEY, pos) >= 0):
            return None
        pieces.append(line[pos:])
        rest = "".join(pieces)
        doc, end = scan(rest, 0)    # stripped, the line is one document
    except (IndexError, StopIteration, ValueError):
        return None
    # the array spliced out must be the document's own "obstacles"
    if end != len(rest) or type(doc) is not dict or doc.get("obstacles") != []:
        return None
    doc.update(parts)
    return doc, texts, elements


def load_record(path) -> list[RawRecordFrame]:
    """Parse a JSONL record. Frames come back sorted by t, strictly
    increasing, at most MAX_FRAME_GAP_S apart."""
    frames = []
    linenos = array.array("L")     # each frame's line, for the messages
    # Most lines repeat parts of the previous line's text: the whole
    # obstacles array, the weather, the light, or else obstacles at their
    # index in the array. A value's text fixes where it ends, and equal
    # text decodes to bitwise-equal values, -0.0 included, so such a part
    # is the previous frame's and is not decoded or built again
    # (_decode_reusing). A line offers its parts' texts and element texts
    # and, once built, its frame; a line decoded whole offers none.
    before, texts, elements = None, _NO_TEXTS, ()
    # the frame fields, and each unknown field once it has been warned about
    seen = {"t", "ego", "obstacles", "traffic_light", "weather", "map_ctx"}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            reused = _decode_reusing(line, before, texts, elements)
            if reused is None:
                texts, elements = _NO_TEXTS, ()
                try:
                    doc = _RECORD_DECODER.decode(line)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
                except RecordError as exc:
                    raise RecordError(f"line {lineno}: {exc}") from None
                except ValueError as exc:   # an int past Python's digit limit
                    raise RecordError(f"line {lineno}: not valid JSON ({exc})") from exc
            else:
                doc, texts, elements = reused
            try:
                before = _frame_from_dict(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordError(f"line {lineno}: bad frame ({exc})") from exc
            frames.append(before)
            linenos.append(lineno)
            for name in sorted(doc.keys() - seen):
                warnings.warn(f"ignoring unknown record field {name!r}"
                              f" (first on line {lineno})")
                seen.add(name)

    def line_of(frame):
        return linenos[next(i for i, f in enumerate(frames) if f is frame)]

    ordered = sorted(frames, key=lambda f: f.t)
    for a, b in zip(ordered, ordered[1:]):
        if not b.t > a.t:
            raise RecordError(f"line {line_of(b)}: timestamps not strictly"
                              f" increasing at t={b.t}")
        if b.t - a.t > MAX_FRAME_GAP_S:
            raise RecordError(
                f"line {line_of(b)}: frame at t={b.t} comes {b.t - a.t} s"
                f" after the one at t={a.t} (line {line_of(a)}); frames may"
                f" be at most {MAX_FRAME_GAP_S} s apart")
    return ordered


# Records are written through one template per frame, byte for byte what
# json.dumps(..., separators=(",", ":")) writes for the frame as nested
# dicts: finite floats by float.__repr__, str by the ASCII-escaping string
# encoder, True and False by identity (1 in a bool field stays 1), and any
# other leaf (NaN, +-inf, an int, a non-str id, None) by json itself. The
# template fills in the text of each part of the frame (ego, obstacles,
# light, weather, map context), which a part writer below writes. A line
# writer (`_line_writer`) keeps each part's last object and text: while
# consecutive frames hold the same object (`is`), as a simulated standing
# ego's frames do and every frame of a script holds its one weather, the
# text is written once. Each obstacle keeps its own text (`record_text`).
_json_leaf = json.JSONEncoder(separators=(",", ":")).encode
_float_text = float.__repr__
_str_text = json.encoder.encode_basestring_ascii


def _num(v):
    if type(v) is float and v - v == 0.0:      # finite
        return _float_text(v)
    return _json_leaf(v)


def _str(v):
    return _str_text(v) if type(v) is str else _json_leaf(v)


def _bool(v):
    return "true" if v is True else "false" if v is False else _json_leaf(v)


def _points_text(points) -> str:
    # Points are most of an obstacle's numbers, and an obstacle that moves
    # is written anew on every frame: one % call writes triples of finite
    # floats (%r is float.__repr__ for a float), _num the rest
    flat = tuple(itertools.chain.from_iterable(points))
    if (set(map(type, flat)) <= {float} and set(map(len, points)) <= {3}
            and math.isfinite(sum(flat))):
        return ",".join(["[%r,%r,%r]"] * len(points)) % flat
    return ",".join(["[" + ",".join(map(_num, p)) + "]" for p in points])


def _obstacle_text(ob: Obstacle) -> str:
    points = _points_text(ob.predicted)
    return (f'{{"id":{_str(ob.id)},"kind":{_str(ob.kind)},"x":{_num(ob.x)},'
            f'"y":{_num(ob.y)},"heading":{_num(ob.heading)},'
            f'"speed":{_num(ob.speed)},"half_len":{_num(ob.half_len)},'
            f'"half_wid":{_num(ob.half_wid)},"predicted":[{points}]}}')


def _ego_text(e: EgoPose) -> str:
    return (f'{{"x":{_num(e.x)},"y":{_num(e.y)},"heading":{_num(e.heading)},'
            f'"speed":{_num(e.speed)},"accel":{_num(e.accel)},'
            f'"steering":{_num(e.steering)},"gear":{_str(e.gear)}}}')


def _obstacles_text(obstacles: tuple) -> str:
    return ",".join([ob.record_text for ob in obstacles])


def _light_text(tl: TrafficLightState | None) -> str:
    if tl is None:
        return "null"
    return (f'{{"color":{_str(tl.color)},'
            f'"dist_to_stopline":{_num(tl.dist_to_stopline)}}}')


def _weather_text(w: WeatherState) -> str:
    return (f'{{"rain":{_num(w.rain)},"fog":{_num(w.fog)},'
            f'"snow":{_num(w.snow)},"visibility":{_num(w.visibility)}}}')


def _map_text(m: MapContext) -> str:
    return (f'{{"in_junction":{_bool(m.in_junction)},'
            f'"dist_to_junction":{_num(m.dist_to_junction)},'
            f'"lane_kind":{_str(m.lane_kind)},'
            f'"dist_to_dest":{_num(m.dist_to_dest)},'
            f'"dist_to_stop_sign":{_num(m.dist_to_stop_sign)},'
            f'"is_changing_lane":{_bool(m.is_changing_lane)}}}')


def _kept(write):
    """`write`, returning its last text again while it is called on the
    same object as last time. Holding that object keeps its id from
    passing to another."""
    last, text = object(), ""

    def text_of(part):
        nonlocal last, text
        if part is not last:
            last, text = part, write(part)
        return text
    return text_of


def _line_writer():
    """A writer of frame lines that writes each part's text once while
    consecutive frames hold that same part."""
    ego, obstacles, light, weather, map_ctx = map(_kept, (
        _ego_text, _obstacles_text, _light_text, _weather_text, _map_text))

    def line(frame: RawRecordFrame) -> str:
        # tuple() is the tuple itself, and a new one for a list, whose
        # items may change while it stays the same object
        return (f'{{"t":{_num(frame.t)},"ego":{ego(frame.ego)},'
                f'"obstacles":[{obstacles(tuple(frame.obstacles))}],'
                f'"traffic_light":{light(frame.traffic_light)},'
                f'"weather":{weather(frame.weather)},'
                f'"map_ctx":{map_ctx(frame.map_ctx)}}}\n')
    return line


def frame_to_line(frame: RawRecordFrame) -> str:
    """One canonical JSONL line (compact separators, field order fixed);
    each obstacle's part is its own `record_text`."""
    return _line_writer()(frame)


def _encoded_lines(frames):
    # each line is encoded as it comes: a record is never held as text
    line = _line_writer()
    return (line(f).encode() for f in frames)


def record_bytes(frames) -> bytes:
    """The record of `frames` as canonical JSONL bytes."""
    return b"".join(_encoded_lines(frames))


def save_record(frames, path) -> None:
    """Write `record_bytes(frames)` to `path` a line at a time (a long
    record is never held whole), in binary mode: no line end changes."""
    with open(path, "wb") as fh:
        fh.writelines(_encoded_lines(frames))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

class Scene(NamedTuple):
    """Per-step valuation of the base signals behind every catalog variable."""
    speed: float
    accel: float
    npc_ahead_dist: float       # nearest corridor obstacle ahead, centre offset
    nearest_npc_dist: float     # nearest obstacle, centre-to-centre
    nearest_npc_sep: float      # nearest obstacle, box clearance
    dist_to_junction: float
    dist_to_stopline: float     # FAR when no light ahead or stopline passed
    dist_to_stop_sign: float
    dist_to_dest: float
    light_color: str
    light_dist_raw: float       # may be negative while inside the junction
    rain: float
    fog: float
    snow: float
    visibility: float
    in_junction: bool
    lane_kind: str
    gear: str
    overtaking: bool
    changing_lane: bool
    congested: bool


def obstacle_geometry(x, y, heading, dist_to_junction, obstacles) -> tuple:
    """What a scene reads of its obstacles, for an ego box at (x, y) along
    `heading`: (npc_ahead_dist, nearest_npc_dist, nearest_npc_sep, the
    count of obstacles slower than JAM_SPEED_KMH near the junction)."""
    c, s = math.cos(heading), math.sin(heading)
    band_lo = max(0.0, dist_to_junction - 5.0)
    band_hi = dist_to_junction + 45.0

    # `if v < best: best = v` keeps the earlier of equal values and passes
    # over a NaN, as `min(best, v)` does.
    ahead = FAR
    nearest = FAR
    slow_near_junction = 0
    by_dist = []
    for ob in obstacles:
        dx, dy = ob.x - x, ob.y - y
        dist = math.hypot(dx, dy)
        if dist < nearest:
            nearest = dist
        by_dist.append((dist, ob))
        lon = c * dx + s * dy
        if lon > 0:
            lat = -s * dx + c * dy
            if abs(lat) < AHEAD_LATERAL_M and lon < ahead:
                ahead = lon
        if ob.speed < JAM_SPEED_KMH and band_lo <= dist <= band_hi:
            slow_near_junction += 1

    # No point of a box lies farther from its centre than its half-diagonal
    # r, so the clearance is at least dist - both r, and a pair whose bound
    # exceeds the best clearance so far cannot hold the minimum; nearest
    # centres go first so the best drops early. The margin covers the
    # rounding of the corners and of the bound, about 1e-16 of the
    # coordinates: without it a pair a few ulps below the best could be
    # skipped and change `sep`. Each obstacle has its own r, so a skipped
    # one does not end the loop: a farther, larger box may still be nearer.
    by_dist.sort(key=operator.itemgetter(0))
    scale = abs(x) + abs(y) + _EGO_RADIUS
    sep = FAR
    ego_box = None
    for dist, ob in by_dist:
        r = math.hypot(ob.half_len, ob.half_wid)
        if dist - _EGO_RADIUS - r - _SKIP_MARGIN * (scale + dist + r) > sep:
            continue
        if ego_box is None:
            ego_box = obb_corners(x, y, heading, EGO_HALF_LEN, EGO_HALF_WID)
        d = obb_distance(ego_box, obb_corners(ob.x, ob.y, ob.heading,
                                              ob.half_len, ob.half_wid))
        if d < sep:
            sep = d
    return ahead, nearest, sep, slow_near_junction


def scene_from_frame(frame: RawRecordFrame, memo: dict | None = None) -> Scene:
    """The frame's scene: its `obstacle_geometry` and copies of its fields.

    With a memo (a dict), the geometry is looked up there first and kept
    there, keyed by the ego's x, y, heading and dist_to_junction and by the
    identity of the obstacles tuple, which the entry keeps alive. Floats
    that are `==` make one key: the caller keeps -0.0 out of its keys (see
    `simulator.engine`), and a NaN matches only itself, the same object, so
    a hit has the bits that its entry was computed from.
    """
    ego, m, w = frame.ego, frame.map_ctx, frame.weather
    dj = m.dist_to_junction
    obstacles = frame.obstacles
    if memo is None:
        ahead, nearest, sep, slow_near_junction = obstacle_geometry(
            ego.x, ego.y, ego.heading, dj, obstacles)
    else:
        key = (ego.x, ego.y, ego.heading, dj, id(obstacles))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (obstacles, *obstacle_geometry(
                ego.x, ego.y, ego.heading, dj, obstacles))
        _, ahead, nearest, sep, slow_near_junction = entry

    if frame.traffic_light is None:
        color, raw = "off", FAR
    else:
        color, raw = frame.traffic_light.color, frame.traffic_light.dist_to_stopline
    stopline = raw if (frame.traffic_light is not None and raw >= 0) else FAR

    changing = m.is_changing_lane
    return Scene(
        ego.speed, ego.accel, ahead, nearest, sep,
        0.0 if m.in_junction else dj,               # dist_to_junction
        stopline, m.dist_to_stop_sign, m.dist_to_dest, color, raw,
        w.rain, w.fog, w.snow, w.visibility,
        m.in_junction, m.lane_kind, ego.gear,
        changing and nearest <= 20.0,               # overtaking
        changing, slow_near_junction >= JAM_MIN_COUNT)


# ---------------------------------------------------------------------------
# Signal variable catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalVar:
    """A catalog variable and its parameter, checked once, when built."""
    name: str
    arg: float | None = None

    def __post_init__(self):
        kind = catalog_kind(self.name)
        if kind == "pred" and self.arg is None:
            raise CatalogError(f"{self.name} requires a parameter, e.g. {self.name}(10)")
        if kind != "pred" and self.arg is not None:
            raise CatalogError(f"{self.name} does not take a parameter")

    def readings(self, scenes) -> np.ndarray:
        """The variable's reading at each scene (see `_CATALOG`), computed
        on the column of the Scene field it reads."""
        entry = _CATALOG[self.name]
        values = map(_COLUMN[entry.field], scenes)
        if entry.codes is not None:
            values = map(entry.codes.__getitem__, values)
        column = np.fromiter(values, float, len(scenes))
        if entry.reading is None:       # a real or an enum
            return column
        return entry.reading(column, self.arg)


# A scene is a tuple: each field is read by its position
_COLUMN = {name: operator.itemgetter(i) for i, name in enumerate(Scene._fields)}


@dataclass(frozen=True)
class _Entry:
    kind: str               # real | enum | bool | pred
    field: str              # the Scene field it reads
    reading: Callable | None = None     # (column, arg) -> readings
    codes: dict | None = None           # an enum's code of each value


def _flag(field):
    return _Entry("bool", field, lambda on, _: np.where(on, 1.0, -1.0))


def _within(field):
    return _Entry("pred", field, lambda dist, d: d - dist)


# Each entry is the only definition of its variable: a reading of the
# column of one Scene field as floats, where a flag reads 1.0 or 0.0 and an
# enum the code of its value. A real reads as its value, an enum as its
# code. A bool or pred reads as its margin, positive exactly when it holds:
# +/-1 for a scene flag, STOPPED_KMH - speed for `stopped`, and for a
# predicate its arg, a distance threshold, minus the distance.
_CATALOG = {
    "speed": _Entry("real", "speed"),
    "accel": _Entry("real", "accel"),
    "rainIntensity": _Entry("real", "rain"),
    "fogIntensity": _Entry("real", "fog"),
    "snowIntensity": _Entry("real", "snow"),
    "visibility": _Entry("real", "visibility"),
    "trafficLightColor": _Entry("enum", "light_color", codes=LIGHT_CODE),
    "laneKind": _Entry("enum", "lane_kind", codes=LANE_CODE),
    "gear": _Entry("enum", "gear", codes=GEAR_CODE),
    "isOverTaking": _flag("overtaking"),
    "isChangingLane": _flag("changing_lane"),
    "inJunction": _flag("in_junction"),
    "junctionCongested": _flag("congested"),
    "stopped": _Entry("bool", "speed", lambda speed, _: STOPPED_KMH - speed),
    "NPCAhead": _within("npc_ahead_dist"),
    "junctionAhead": _within("dist_to_junction"),
    "stoplineAhead": _within("dist_to_stopline"),
    "signAhead": _within("dist_to_stop_sign"),
    "NearestNPC": _within("nearest_npc_sep"),
    "dest": _within("dist_to_dest"),
}


def catalog_kind(name: str) -> str:
    if name in _CATALOG:
        return _CATALOG[name].kind
    for var, entry in _CATALOG.items():
        if entry.kind == "enum" and name in entry.codes:
            raise CatalogError(f"{name!r} is a value of {var}, not a variable;"
                               f" write it after its variable, as in"
                               f" {var} == {name}")
    raise CatalogError(f"unknown signal variable {name!r}")


def enum_code(name: str, literal: str) -> float:
    codes = _CATALOG[name].codes
    if literal not in codes:
        raise CatalogError(f"{literal!r} is not a value of {name}"
                           f" (expected one of {sorted(codes)})")
    return codes[literal]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class Trace:
    """Immutable sequence of scenes, one per STEP_S seconds."""

    def __init__(self, scenes):
        scenes = tuple(scenes)
        if not scenes:
            raise ValueError("trace must contain at least one scene")
        self.scenes = scenes
        self._signal_cache: dict = {}

    def __len__(self):
        return len(self.scenes)


def step_frames(frames) -> list[int]:
    """Index of the frame behind each trace step, frames in time order.

    Step i stands for time frames[0].t + i * STEP_S; its frame is the one
    nearest in time, the later one on a tie, and the last of frames at
    equal times. Times are compared in whole microseconds after the first
    frame, so a tie is a tie whatever the record's clock offset.
    """
    if not frames:
        raise ValueError("cannot build a trace from an empty record")
    t = np.array([f.t for f in frames], dtype=float)
    times = np.rint((t - t[0]) * 1e6).astype(np.int64)   # round half even
    step = round(STEP_S * 1e6)
    steps = round(int(times[-1]) / step) + 1
    targets = np.arange(steps, dtype=np.int64) * step
    # the nearest time at or after each target, and the one before it
    after = np.searchsorted(times, targets)
    last = len(times) - 1
    above = times[np.minimum(after, last)]
    below = times[np.maximum(after - 1, 0)]
    take_above = (after <= last) & (above - targets <= targets - below)
    nearest = np.where(take_above, above, below)
    return (np.searchsorted(times, nearest, side="right") - 1).tolist()


def build_trace(frames) -> Trace:
    """Resample frames at STEP_S (see `step_frames`) and evaluate scenes."""
    return Trace([frames[j].scene for j in step_frames(frames)])
