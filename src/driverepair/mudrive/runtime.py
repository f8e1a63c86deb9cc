"""Rule activation semantics driving the planner-parameter store.

What each word means lives with its catalog entry (`catalog.py`): an event's
or condition's predicate is its `holds`, an action's planner-parameter field
is its `sets`. This module only decides, per tick, which rules are active.

Per tick: an `always` rule is active exactly when all of its (possibly
negated) conditions hold. An event-triggered rule activates on the rising
edge of its event, provided the conditions hold at that moment; with an
`until` trigger it stays active until that event fires, otherwise it stays
active while the conditions keep holding. Active rules overwrite fields of
`DEFAULT_PARAMS` in program order, so later rules win conflicts. A tick
whose active rules are the previous tick's keeps that tick's params, which
`RuleStates` carries.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ..trace_model import Scene
from .catalog import ALWAYS, DEFAULT_PARAMS, PlannerParams, default_catalog
from .grammar import MuDriveProgram


@dataclass(frozen=True)
class RuleStates:
    """Per-episode activation state. Fresh state means nothing has fired yet."""
    active: tuple = ()
    prev: Scene | None = None       # the previous tick's scene
    params: PlannerParams = DEFAULT_PARAMS  # what `active` sets


def _fired(cat, call, scene: Scene, prev: Scene | None) -> bool:
    return cat.trigger(call.name).holds(scene, prev)


def _conditions_hold(cat, rule, scene: Scene) -> bool:
    return all(cat.condition(call.name).holds(scene, *call.args) != negated
               for negated, call in rule.conditions)


def step_rules(program: MuDriveProgram, scene: Scene, prev: RuleStates):
    """One activation tick. Returns (effective params, next states)."""
    cat = default_catalog()
    was_active = prev.active or (False,) * len(program.rules)
    if len(was_active) != len(program.rules):
        raise ValueError("rule state does not match this program")

    active = []
    for rule, before in zip(program.rules, was_active):
        if rule.trigger.name == ALWAYS.name:
            is_active = _conditions_hold(cat, rule, scene)
        elif before and rule.until is not None:
            is_active = not _fired(cat, rule.until, scene, prev.prev)
        elif before:
            is_active = _conditions_hold(cat, rule, scene)
        else:
            is_active = (_fired(cat, rule.trigger, scene, prev.prev)
                         and _conditions_hold(cat, rule, scene))
        active.append(is_active)
    active = tuple(active)

    if active == prev.active:       # the same rules set the same fields
        params = prev.params
    else:
        updates = {}
        for rule, is_active in zip(program.rules, active):
            if is_active:
                for call in rule.actions:
                    updates[cat.action(call.name).sets] = call.args[0]
        params = (replace(DEFAULT_PARAMS, **updates) if updates
                  else DEFAULT_PARAMS)
    return params, RuleStates(active, scene, params)
