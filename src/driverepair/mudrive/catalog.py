"""Vocabulary catalog (events, conditions, actions) and planner parameters.

Each entry is the only definition of its word. It carries the
natural-language description and units the generated JSON schema shows the
model, and the meaning the runtime gives the word: a predicate (`holds`) for
events and conditions, the planner-parameter field (`sets`) for actions.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

WEATHER_ACTIVE = 0.05       # intensity above this counts as active weather
SIGN_NEAR_M = 30.0          # "approaching" radius for stop signs


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
    """One word of the vocabulary.

    Events hold as `holds(scene, previous scene or None)`, conditions as
    `holds(scene, *args)`. An action sets the `PlannerParams` field `sets`,
    which the prompt names `label`.
    """
    name: str
    description: str
    params: tuple = ()
    holds: Callable | None = None
    sets: str = ""
    label: str = ""


def _sign_near(scene) -> bool:
    return scene.dist_to_stop_sign <= SIGN_NEAR_M


EVENTS = (
    VocabEntry("entering_junction",
               "Fires at the moment the vehicle enters a junction.",
               holds=lambda now, prev: now.in_junction and (
                   prev is None or not prev.in_junction)),
    VocabEntry("exiting_junction",
               "Fires at the moment the vehicle leaves a junction.",
               holds=lambda now, prev: (prev is not None and prev.in_junction
                                        and not now.in_junction)),
    VocabEntry("approaching_stop_sign",
               f"Fires when a stop sign first comes within {SIGN_NEAR_M:g}"
               " metres ahead.",
               holds=lambda now, prev: _sign_near(now) and (
                   prev is None or not _sign_near(prev))),
    VocabEntry("episode_start",
               "Fires once, at the first step of the drive.",
               holds=lambda now, prev: prev is None),
)

# The `always` trigger: the rule is evaluated at every step. As an `until`
# it fires on every step. Kept out of EVENTS: the schema lists it apart.
ALWAYS = VocabEntry("always",
                    "Evaluate the rule at every step instead of on an event.",
                    holds=lambda now, prev: True)

CONDITIONS = (
    VocabEntry("is_traffic_light",
               "The traffic light ahead currently shows the given color.",
               (ParamSpec("color", "enum",
                          "Color the light ahead must show.",
                          values=("red", "yellow", "green")),),
               holds=lambda scene, color: scene.light_color == color),
    VocabEntry("traffic_light_distance_leq",
               "The stop line of the traffic light ahead is within the given distance.",
               (ParamSpec("metres", "number",
                          "Maximum distance to the stop line.",
                          unit="m", minimum=0.0),),
               holds=lambda scene, metres: (scene.light_color != "off" and
                                            0 <= scene.light_dist_raw <= metres)),
    VocabEntry("obstacle_distance_leq",
               "Some detected obstacle is within the given distance of the vehicle.",
               (ParamSpec("metres", "number",
                          "Maximum centre-to-centre distance to any obstacle.",
                          unit="m", minimum=0.0),),
               holds=lambda scene, metres: scene.nearest_npc_dist <= metres),
    VocabEntry("front_vehicle_closer_than",
               "A vehicle directly ahead in the lane is within the given distance.",
               (ParamSpec("metres", "number",
                          "Maximum longitudinal distance to the front vehicle.",
                          unit="m", minimum=0.0),),
               holds=lambda scene, metres: scene.npc_ahead_dist <= metres),
    VocabEntry("speed_gt",
               "The vehicle is moving faster than the given speed.",
               (ParamSpec("kmh", "number", "Speed threshold.",
                          unit="km/h", minimum=0.0),),
               holds=lambda scene, kmh: scene.speed > kmh),
    VocabEntry("speed_leq",
               "The vehicle is moving at or below the given speed.",
               (ParamSpec("kmh", "number", "Speed threshold.",
                          unit="km/h", minimum=0.0),),
               holds=lambda scene, kmh: scene.speed <= kmh),
    VocabEntry("is_weather",
               "The given kind of weather is currently active.",
               (ParamSpec("kind", "enum", "Weather kind that must be active.",
                          values=("rain", "fog", "snow")),),
               # each kind names the Scene field of its intensity
               holds=lambda scene, kind: getattr(scene, kind) > WEATHER_ACTIVE),
    VocabEntry("visibility_leq",
               "Visibility is at or below the given range.",
               (ParamSpec("metres", "number", "Visibility threshold.",
                          unit="m", minimum=0.0),),
               holds=lambda scene, metres: scene.visibility <= metres),
    VocabEntry("in_junction",
               "The vehicle is currently inside a junction.",
               holds=lambda scene: scene.in_junction),
    VocabEntry("junction_congested",
               "The junction ahead (or around the vehicle) is jammed with"
               " slow or stationary vehicles.",
               holds=lambda scene: scene.congested),
)

ACTIONS = (
    VocabEntry("cruise_speed",
               "Set the default planning speed.",
               (ParamSpec("kmh", "number", "Target cruise speed.",
                          unit="km/h", minimum=0.0),),
               sets="cruise_speed_kmh", label="max planning speed"),
    VocabEntry("follow_dist",
               "Set the gap to keep behind a moving front vehicle.",
               (ParamSpec("metres", "number", "Following distance.",
                          unit="m", minimum=0.0),),
               sets="follow_dist_m", label="follow distance"),
    VocabEntry("yield_dist",
               "Set how far ahead crossing traffic is checked for yielding.",
               (ParamSpec("metres", "number", "Yield lookahead distance.",
                          unit="m", minimum=0.0),),
               sets="yield_dist_m", label="yield distance"),
    VocabEntry("overtake_dist",
               "Set the clear gap required before starting an overtake.",
               (ParamSpec("metres", "number", "Required clear distance.",
                          unit="m", minimum=0.0),),
               sets="overtake_dist_m", label="overtake distance"),
    VocabEntry("obstacle_stop_dist",
               "Set how far behind a blocking obstacle the vehicle stops.",
               (ParamSpec("metres", "number", "Stop offset behind obstacles.",
                          unit="m", minimum=0.0),),
               sets="obstacle_stop_dist_m", label="obstacle stop distance"),
    VocabEntry("obstacle_decrease_ratio",
               "Scale braking and acceleration aggressiveness toward obstacles"
               " (1 is nominal; the physical limit is 3 m/s^2 times this ratio).",
               (ParamSpec("ratio", "number", "Aggressiveness multiplier.",
                          unit="", minimum=0.0, maximum=2.0),),
               sets="obstacle_decrease_ratio", label="obstacle decrease ratio"),
    VocabEntry("traffic_light_stop_dist",
               "Set how far from the stop line braking for a red or yellow"
               " light begins.",
               (ParamSpec("metres", "number", "Braking engagement distance.",
                          unit="m", minimum=0.0),),
               sets="traffic_light_stop_dist_m",
               label="traffic light stop distance"),
    VocabEntry("stop_sign_wait",
               "Set how long to hold at a stop sign before proceeding.",
               (ParamSpec("seconds", "number", "Wait duration.",
                          unit="s", minimum=0.0),),
               sets="stop_sign_wait_s", label="stop sign wait"),
    VocabEntry("enable_lane_borrow",
               "Allow or forbid borrowing the neighbour lane to pass a blockage.",
               (ParamSpec("enabled", "bool", "Whether lane borrowing is allowed."),),
               sets="lane_borrow_enabled", label="lane borrow enabled"),
)


@dataclass(frozen=True)
class VocabularyCatalog:
    events: tuple = EVENTS
    conditions: tuple = CONDITIONS
    actions: tuple = ACTIONS

    def __post_init__(self):
        # name -> entry, so the runtime's lookups on every tick are not scans
        for kind in ("events", "conditions", "actions"):
            object.__setattr__(self, "_" + kind,
                               {e.name: e for e in getattr(self, kind)})

    def trigger(self, name):
        """What a `trigger` or `until` may name: an event, or ALWAYS."""
        return ALWAYS if name == ALWAYS.name else self._events.get(name)

    def condition(self, name):
        return self._conditions.get(name)

    def action(self, name):
        return self._actions.get(name)


_DEFAULT = VocabularyCatalog()


def default_catalog() -> VocabularyCatalog:
    return _DEFAULT


@dataclass(frozen=True)
class PlannerParams:
    """Driving-strategy knobs; each action of ACTIONS sets one field."""
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
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")


# The original ADS settings: every run starts from these, and a repair
# program overrides them while its rules are active.
DEFAULT_PARAMS = PlannerParams()
