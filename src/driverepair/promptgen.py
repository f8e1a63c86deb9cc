"""Builds the multimodal repair prompt: two bird's-eye SVGs plus six text
segments (identity, weather, background, rule, sequence, default).

The renderer is deliberately compact and deterministic: fixed element order,
one-decimal coordinates, no timestamps. Output bytes double as golden-test
material and as the surrogate token source for cost accounting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .localizer import CriticalMoments, moment_frames
from .mudrive.catalog import ACTIONS, DEFAULT_PARAMS
from .trace_model import EGO_HALF_LEN, EGO_HALF_WID, FAR, RawRecordFrame

VIEW_M = 80.0               # metres shown edge to edge, ego centered
SCALE = 4.0                 # px per metre
ROAD_PX = int(VIEW_M * SCALE)
DASH_PX = 150
HEIGHT = ROAD_PX

KIND_FILL = {"vehicle": "#2e8b57", "pedestrian": "#e6b800",
             "cyclist": "#2060c0", "unknown": "#7a2ea0"}
LIGHT_FILL = {"red": "#d62020", "yellow": "#e6b800",
              "green": "#28a028", "off": "#555555"}

SEGMENT_ORDER = ("identity", "weather", "background", "rule", "sequence", "default")

BACKGROUND_TEXT = (
    "In these pictures, the left side shows the visualisation of the driving"
    " record. The right side displays the status of the traffic light, vehicle"
    " speed, and steering angle. The green boxes indicate detected vehicles,"
    " yellow boxes indicate detected pedestrians, blue boxes indicate detected"
    " bicycles, and purple boxes indicate unknown objects."
)


@dataclass(frozen=True)
class PromptBundle:
    segments: dict          # six named text segments, fixed order
    images: tuple           # (near_miss_svg, violation_svg)

    @property
    def text(self) -> str:
        return "\n\n".join(self.segments[k] for k in SEGMENT_ORDER)


def _f(v: float) -> str:
    out = f"{v:.1f}"
    return "0.0" if out == "-0.0" else out


def _to_view(frame: RawRecordFrame, x: float, y: float):
    """World point to pixel coordinates, ego centered, heading up."""
    ego = frame.ego
    dx, dy = x - ego.x, y - ego.y
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    lon = c * dx + s * dy
    lat = -s * dx + c * dy
    return ROAD_PX / 2 + lat * SCALE, ROAD_PX / 2 - lon * SCALE


def _box_rect(frame, cls, x, y, heading, half_len, half_wid, fill):
    """Vehicle footprint as a rotated rect, long axis along its heading."""
    cx, cy = _to_view(frame, x, y)
    w, h = 2 * half_len * SCALE, 2 * half_wid * SCALE
    angle = math.degrees(heading - frame.ego.heading) - 90.0
    return (f'<rect class="{cls}" x="{_f(cx - w / 2)}" y="{_f(cy - h / 2)}"'
            f' width="{_f(w)}" height="{_f(h)}" fill="{fill}"'
            f' transform="rotate({_f(angle)} {_f(cx)} {_f(cy)})"/>')


def render_moment(frame: RawRecordFrame) -> str:
    """One moment as a two-panel SVG: road view plus dashboard."""
    ego = frame.ego
    width = ROAD_PX + DASH_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{HEIGHT}" viewBox="0 0 {width} {HEIGHT}"'
        f' font-family="monospace" font-size="10">',
        f'<rect width="{ROAD_PX}" height="{HEIGHT}" fill="#f2f2ef"/>',
        # ego lane corridor, 3.5 m wide, straight ahead in the ego frame
        f'<rect x="{_f(ROAD_PX / 2 - 1.75 * SCALE)}" y="0"'
        f' width="{_f(3.5 * SCALE)}" height="{HEIGHT}" fill="#e2e2dc"/>',
    ]

    if frame.traffic_light is not None and frame.traffic_light.dist_to_stopline >= 0:
        d = frame.traffic_light.dist_to_stopline
        y = ROAD_PX / 2 - d * SCALE
        color = LIGHT_FILL[frame.traffic_light.color]
        parts.append(f'<line x1="0" y1="{_f(y)}" x2="{ROAD_PX}" y2="{_f(y)}"'
                     f' stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="4" y="{_f(y - 3)}" fill="{color}">stopline'
                     f' {_f(d)}m</text>')

    if frame.map_ctx.dist_to_junction < VIEW_M and not frame.map_ctx.in_junction:
        y = ROAD_PX / 2 - frame.map_ctx.dist_to_junction * SCALE
        parts.append(f'<line x1="0" y1="{_f(y)}" x2="{ROAD_PX}" y2="{_f(y)}"'
                     f' stroke="#999999" stroke-dasharray="6,4"/>')

    # obstacles, stable order, each annotated with range and speed
    for ob in sorted(frame.obstacles, key=lambda o: o.id):
        if ob.predicted:
            pts = " ".join("{},{}".format(_f(px), _f(py))
                           for px, py in (_to_view(frame, p[1], p[2])
                                          for p in ob.predicted))
            parts.append(f'<polyline points="{pts}" fill="none"'
                         f' stroke="{KIND_FILL[ob.kind]}" stroke-width="1"'
                         f' stroke-dasharray="3,3"/>')
        parts.append(_box_rect(frame, "obstacle", ob.x, ob.y, ob.heading,
                               ob.half_len, ob.half_wid, KIND_FILL[ob.kind]))
        dist = math.hypot(ob.x - ego.x, ob.y - ego.y)
        lx, ly = _to_view(frame, ob.x, ob.y)
        parts.append(f'<text x="{_f(lx + 6)}" y="{_f(ly - 4)}" fill="#222222">'
                     f'{_f(dist)}m {_f(ob.speed)}km/h</text>')

    # ego box, always centered
    parts.append(_box_rect(frame, "ego", ego.x, ego.y, ego.heading,
                           EGO_HALF_LEN, EGO_HALF_WID, "#1e4fd8"))

    # dashboard panel
    dash_x = ROAD_PX
    parts.append(f'<rect x="{dash_x}" y="0" width="{DASH_PX}" height="{HEIGHT}"'
                 f' fill="#1c1c1c"/>')
    light = frame.traffic_light.color if frame.traffic_light else "off"
    sep = frame.scene.nearest_npc_sep
    parts.append(f'<circle class="light" cx="{dash_x + 24}" cy="28" r="10"'
                 f' fill="{LIGHT_FILL[light]}"/>')
    rows = [
        f"light: {light}",
        f"speed: {_f(ego.speed)} km/h",
        f"steering: {_f(ego.steering)} deg",
        f"gear: {ego.gear}",
        f"cruise set: {_f(DEFAULT_PARAMS.cruise_speed_kmh)} km/h",
        f"t = {_f(frame.t)} s",
        f"clearance: {'none' if sep == FAR else _f(sep) + ' m'}",
        f"in junction: {'yes' if frame.map_ctx.in_junction else 'no'}",
    ]
    for i, row in enumerate(rows):
        parts.append(f'<text x="{dash_x + 44 if i == 0 else dash_x + 10}"'
                     f' y="{32 + i * 18}" fill="#eeeeee">{row}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _weather_segment(frame: RawRecordFrame) -> str:
    w = frame.weather
    noteworthy = w.rain > 0 or w.fog > 0 or w.snow > 0 or w.visibility <= 50
    if not noteworthy:
        return "There is nothing noteworthy about the weather."
    bits = []
    for label, level in (("rain", w.rain), ("fog", w.fog), ("snow", w.snow)):
        if level > 0:
            bits.append(f"{label} of intensity {level:g}")
    cond = " and ".join(bits) if bits else "reduced visibility"
    return (f"The weather is poor: there is {cond}, and visibility"
            f" is {w.visibility:g} m.")


def _gap_text(gap: float) -> str:
    return str(int(gap)) if float(gap).is_integer() else f"{gap:g}"


def _default_segment() -> str:
    bits = []
    for action in ACTIONS:
        value = getattr(DEFAULT_PARAMS, action.sets)
        if isinstance(value, bool):
            bits.append(f"{action.label} = {'on' if value else 'off'}")
        else:
            unit = action.params[0].unit
            suffix = f" {unit}" if unit else ""
            bits.append(f"{action.label} = {value:g}{suffix}")
    return "In the original ADS, the initial settings are: " + ", ".join(bits) + "."


def build_prompt(moments: CriticalMoments, frames,
                 spec_text: str) -> PromptBundle:
    """Assemble the six segments and both moment renderings; moments that
    were not located raise `MomentsNotFoundError`."""
    near_frame, violation_frame = moment_frames(moments, frames)

    segments = {
        "identity": "Suppose you are a driver.",
        "weather": _weather_segment(violation_frame),
        "background": BACKGROUND_TEXT,
        "rule": "You are supposed to follow the following rule: " + spec_text,
        "sequence": "The second picture was taken"
                    f" {_gap_text(moments.gap_seconds)} seconds later than"
                    " the first picture, capturing the moment when the rule"
                    " violation occurred.",
        "default": _default_segment(),
    }
    images = (render_moment(near_frame), render_moment(violation_frame))
    return PromptBundle(segments=segments, images=images)

