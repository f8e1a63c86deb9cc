"""Rule activation semantics driving the planner-parameter store.

Per tick: an `always` rule is active exactly when all of its (possibly
negated) conditions hold. An event-triggered rule activates on the rising
edge of its event, provided the conditions hold at that moment; with an
`until` trigger it stays active until that event fires, otherwise it stays
active while the conditions keep holding. Active rules overwrite parameters
in program order, so later rules win conflicts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ..trace_model import Scene
from .catalog import PlannerParams, apply_action
from .grammar import MuDriveProgram

WEATHER_ACTIVE = 0.05       # intensity above this counts as active weather
SIGN_NEAR_M = 30.0          # "approaching" radius for stop signs


@dataclass(frozen=True)
class _EdgeFlags:
    in_junction: bool = False
    sign_near: bool = False


@dataclass(frozen=True)
class RuleStates:
    """Per-episode activation state. Fresh state means nothing has fired yet."""
    active: tuple = ()
    prev: _EdgeFlags | None = None
    tick: int = 0

    @staticmethod
    def initial() -> "RuleStates":
        return RuleStates()


def _flags(scene: Scene) -> _EdgeFlags:
    return _EdgeFlags(
        in_junction=scene.in_junction,
        sign_near=scene.dist_to_stop_sign <= SIGN_NEAR_M,
    )


def _event_fired(name: str, now: _EdgeFlags, prev: _EdgeFlags | None,
                 tick: int) -> bool:
    before = prev or _EdgeFlags()
    if name == "episode_start":
        return tick == 0
    if name == "entering_junction":
        return now.in_junction and not before.in_junction
    if name == "exiting_junction":
        return (not now.in_junction) and (before.in_junction if prev else False)
    if name == "approaching_stop_sign":
        return now.sign_near and not before.sign_near
    if name == "always":
        return True
    return False


def _condition_holds(call, scene: Scene) -> bool:
    name, args = call.name, call.args
    if name == "is_traffic_light":
        return scene.light_color == args[0]
    if name == "traffic_light_distance_leq":
        return scene.light_color != "off" and 0 <= scene.light_dist_raw <= args[0]
    if name == "obstacle_distance_leq":
        return scene.nearest_npc_dist <= args[0]
    if name == "front_vehicle_closer_than":
        return scene.npc_ahead_dist <= args[0]
    if name == "speed_gt":
        return scene.speed > args[0]
    if name == "speed_leq":
        return scene.speed <= args[0]
    if name == "is_weather":
        level = {"rain": scene.rain, "fog": scene.fog, "snow": scene.snow}[args[0]]
        return level > WEATHER_ACTIVE
    if name == "visibility_leq":
        return scene.visibility <= args[0]
    if name == "in_junction":
        return scene.in_junction
    if name == "junction_congested":
        return scene.congested
    raise KeyError(f"no evaluator for condition {name!r}")


def _conditions_hold(rule, scene: Scene) -> bool:
    return all(_condition_holds(call, scene) != negated
               for negated, call in rule.conditions)


def step_rules(program: MuDriveProgram, scene: Scene, prev: RuleStates,
               base: PlannerParams):
    """One activation tick. Returns (effective params, next states)."""
    now = _flags(scene)
    was_active = prev.active or (False,) * len(program.rules)
    if len(was_active) != len(program.rules):
        raise ValueError("rule state does not match this program")

    active = []
    params = base
    for rule, before in zip(program.rules, was_active):
        if rule.trigger.name == "always":
            is_active = _conditions_hold(rule, scene)
        else:
            if before:
                if rule.until is not None:
                    is_active = not _event_fired(rule.until.name, now, prev.prev,
                                                 prev.tick)
                else:
                    is_active = _conditions_hold(rule, scene)
            else:
                fired = _event_fired(rule.trigger.name, now, prev.prev, prev.tick)
                is_active = fired and _conditions_hold(rule, scene)
        active.append(is_active)
        if is_active:
            for call in rule.actions:
                params = apply_action(params, call.name, call.args[0])

    return params, replace(prev, active=tuple(active), prev=now,
                           tick=prev.tick + 1)
