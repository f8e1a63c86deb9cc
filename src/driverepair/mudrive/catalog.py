"""Vocabulary catalog (events, conditions, actions) and planner parameters.

Every entry carries a natural-language description and explicit units so the
generated JSON schema can spell out exactly what each argument means.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: str                  # "number" | "enum" | "bool"
    description: str
    unit: str = ""
    values: tuple = ()         # enum members
    minimum: float | None = None
    maximum: float | None = None


@dataclass(frozen=True)
class VocabEntry:
    name: str
    description: str
    params: tuple = ()


EVENTS = (
    VocabEntry("entering_junction",
               "Fires at the moment the vehicle enters a junction."),
    VocabEntry("exiting_junction",
               "Fires at the moment the vehicle leaves a junction."),
    VocabEntry("approaching_stop_sign",
               "Fires when a stop sign first comes within 30 metres ahead."),
    VocabEntry("episode_start",
               "Fires once, at the first step of the drive."),
)

CONDITIONS = (
    VocabEntry("is_traffic_light",
               "The traffic light ahead currently shows the given color.",
               (ParamSpec("color", "enum",
                          "Color the light ahead must show.",
                          values=("red", "yellow", "green")),)),
    VocabEntry("traffic_light_distance_leq",
               "The stop line of the traffic light ahead is within the given distance.",
               (ParamSpec("metres", "number",
                          "Maximum distance to the stop line.",
                          unit="m", minimum=0.0),)),
    VocabEntry("obstacle_distance_leq",
               "Some detected obstacle is within the given distance of the vehicle.",
               (ParamSpec("metres", "number",
                          "Maximum centre-to-centre distance to any obstacle.",
                          unit="m", minimum=0.0),)),
    VocabEntry("front_vehicle_closer_than",
               "A vehicle directly ahead in the lane is within the given distance.",
               (ParamSpec("metres", "number",
                          "Maximum longitudinal distance to the front vehicle.",
                          unit="m", minimum=0.0),)),
    VocabEntry("speed_gt",
               "The vehicle is moving faster than the given speed.",
               (ParamSpec("kmh", "number", "Speed threshold.",
                          unit="km/h", minimum=0.0),)),
    VocabEntry("speed_leq",
               "The vehicle is moving at or below the given speed.",
               (ParamSpec("kmh", "number", "Speed threshold.",
                          unit="km/h", minimum=0.0),)),
    VocabEntry("is_weather",
               "The given kind of weather is currently active.",
               (ParamSpec("kind", "enum", "Weather kind that must be active.",
                          values=("rain", "fog", "snow")),)),
    VocabEntry("visibility_leq",
               "Visibility is at or below the given range.",
               (ParamSpec("metres", "number", "Visibility threshold.",
                          unit="m", minimum=0.0),)),
    VocabEntry("in_junction",
               "The vehicle is currently inside a junction."),
    VocabEntry("junction_congested",
               "The junction ahead (or around the vehicle) is jammed with"
               " slow or stationary vehicles."),
)

ACTIONS = (
    VocabEntry("cruise_speed",
               "Set the default planning speed.",
               (ParamSpec("kmh", "number", "Target cruise speed.",
                          unit="km/h", minimum=0.0),)),
    VocabEntry("follow_dist",
               "Set the gap to keep behind a moving front vehicle.",
               (ParamSpec("metres", "number", "Following distance.",
                          unit="m", minimum=0.0),)),
    VocabEntry("yield_dist",
               "Set how far ahead crossing traffic is checked for yielding.",
               (ParamSpec("metres", "number", "Yield lookahead distance.",
                          unit="m", minimum=0.0),)),
    VocabEntry("overtake_dist",
               "Set the clear gap required before starting an overtake.",
               (ParamSpec("metres", "number", "Required clear distance.",
                          unit="m", minimum=0.0),)),
    VocabEntry("obstacle_stop_dist",
               "Set how far behind a blocking obstacle the vehicle stops.",
               (ParamSpec("metres", "number", "Stop offset behind obstacles.",
                          unit="m", minimum=0.0),)),
    VocabEntry("obstacle_decrease_ratio",
               "Scale braking and acceleration aggressiveness toward obstacles"
               " (1 is nominal; the physical limit is 3 m/s^2 times this ratio).",
               (ParamSpec("ratio", "number", "Aggressiveness multiplier.",
                          unit="", minimum=0.0, maximum=2.0),)),
    VocabEntry("traffic_light_stop_dist",
               "Set how far from the stop line braking for a red or yellow"
               " light begins.",
               (ParamSpec("metres", "number", "Braking engagement distance.",
                          unit="m", minimum=0.0),)),
    VocabEntry("stop_sign_wait",
               "Set how long to hold at a stop sign before proceeding.",
               (ParamSpec("seconds", "number", "Wait duration.",
                          unit="s", minimum=0.0),)),
    VocabEntry("enable_lane_borrow",
               "Allow or forbid borrowing the neighbour lane to pass a blockage.",
               (ParamSpec("enabled", "bool", "Whether lane borrowing is allowed."),)),
)


@dataclass(frozen=True)
class VocabularyCatalog:
    events: tuple = EVENTS
    conditions: tuple = CONDITIONS
    actions: tuple = ACTIONS

    def event(self, name):
        return _find(self.events, name)

    def condition(self, name):
        return _find(self.conditions, name)

    def action(self, name):
        return _find(self.actions, name)


def _find(entries, name):
    for entry in entries:
        if entry.name == name:
            return entry
    return None


_DEFAULT = VocabularyCatalog()


def default_catalog() -> VocabularyCatalog:
    return _DEFAULT


@dataclass(frozen=True)
class PlannerParams:
    """Mutable driving-strategy knobs that rule actions overwrite."""
    cruise_speed_kmh: float = 72.0
    follow_dist_m: float = 15.0
    yield_dist_m: float = 20.0
    overtake_dist_m: float = 30.0
    obstacle_stop_dist_m: float = 8.0
    obstacle_decrease_ratio: float = 1.0
    traffic_light_stop_dist_m: float = 2.0
    stop_sign_wait_s: float = 2.0
    lane_borrow_enabled: bool = False

    def __post_init__(self):
        for name in ("cruise_speed_kmh", "follow_dist_m", "yield_dist_m",
                     "overtake_dist_m", "obstacle_stop_dist_m",
                     "obstacle_decrease_ratio", "traffic_light_stop_dist_m",
                     "stop_sign_wait_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


_ACTION_FIELDS = {
    "cruise_speed": "cruise_speed_kmh",
    "follow_dist": "follow_dist_m",
    "yield_dist": "yield_dist_m",
    "overtake_dist": "overtake_dist_m",
    "obstacle_stop_dist": "obstacle_stop_dist_m",
    "obstacle_decrease_ratio": "obstacle_decrease_ratio",
    "traffic_light_stop_dist": "traffic_light_stop_dist_m",
    "stop_sign_wait": "stop_sign_wait_s",
    "enable_lane_borrow": "lane_borrow_enabled",
}


def apply_action(params: PlannerParams, name: str, value) -> PlannerParams:
    return replace(params, **{_ACTION_FIELDS[name]: value})


PARAM_DESCRIPTIONS = (
    ("max planning speed", "cruise_speed_kmh", "km/h"),
    ("follow distance", "follow_dist_m", "m"),
    ("yield distance", "yield_dist_m", "m"),
    ("overtake distance", "overtake_dist_m", "m"),
    ("obstacle stop distance", "obstacle_stop_dist_m", "m"),
    ("obstacle decrease ratio", "obstacle_decrease_ratio", ""),
    ("traffic light stop distance", "traffic_light_stop_dist_m", "m"),
    ("stop sign wait", "stop_sign_wait_s", "s"),
    ("lane borrow enabled", "lane_borrow_enabled", ""),
)
