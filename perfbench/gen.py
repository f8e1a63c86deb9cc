"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain JSON-able data or
text, so the same seed gives the same bytes. Randomness comes from
`random.Random` seeded with a string, which does not depend on hash
randomisation.
"""
from __future__ import annotations

import json
import random

from driverepair.mudrive import default_catalog

# Route lengths of the analyze_long records. They are fixed rather than drawn
# so that the quadratic localizer cost, which grows with record length, does
# not swing from seed to seed; the seed moves features along each route.
LONG_ROUTES_M = (1600.0, 3000.0, 4800.0)
JUNCTION_SPACING_M = 550.0
EGO_TOP_SPEED_MS = 20.0     # the default planner cruises just below this

# Upper ends for numeric action and condition arguments without a maximum,
# by unit. They keep random programs inside what a scenario can express.
ARG_CEILING = {"m": 80.0, "km/h": 100.0, "s": 10.0}


def _r1(x: float) -> float:
    return round(x, 1)


def _crosser(npc_id: str, x: float, speed_ms: float, t_start: float) -> dict:
    half_road = 50.0
    dur = 2 * half_road / speed_ms
    return {"id": npc_id, "kind": "vehicle", "half_len": 2.3, "half_wid": 1.0,
            "waypoints": [[0.0, x, half_road, 0.0],
                          [_r1(t_start), x, half_road, 0.0],
                          [_r1(t_start + dur), x, -half_road,
                           _r1(speed_ms * 3.6)]]}


def long_script_doc(seed: int, index: int) -> dict:
    """A long scenario document for `script_from_dict`.

    Junctions sit every ~550 m. They carry, in turn, a permanently green
    light, a stop sign and no control. One crossing vehicle per junction
    clears it before the ego can arrive and then parks off the road, so no
    record ends in a collision. A permanently yellow light halfway along and
    a permanently red one at the last junction give law38_yellow and
    law38_red one late violation each. A fast-lane stretch feeds law44.
    """
    rng = random.Random(f"long-script:{seed}:{index}")
    route = LONG_ROUTES_M[index]
    n_junctions = int(route // JUNCTION_SPACING_M)
    spacing = route / (n_junctions + 1)
    junctions, lights, signs, npcs = [], [], [], []
    for j in range(1, n_junctions + 1):
        s0 = _r1(j * spacing + rng.uniform(-60.0, 60.0))
        width = _r1(rng.uniform(24.0, 30.0))
        junctions.append([s0, _r1(s0 + width)])
        if j == n_junctions:
            schedule = [["red", 100000.0]]
        elif j == (n_junctions + 1) // 2:
            schedule = [["yellow", 100000.0]]
        elif j % 3 == 1:
            schedule = [["green", 100000.0]]
        else:
            schedule = None
        if schedule is not None:
            lights.append({"stopline_s": _r1(s0 - 2.0),
                           "release_s": _r1(s0 + width),
                           "schedule": schedule})
        elif j % 3 == 2:
            signs.append(_r1(s0 - 2.0))
        speed = rng.uniform(8.0, 14.0)
        latest_end = s0 / EGO_TOP_SPEED_MS - 6.0
        t_start = max(0.0, latest_end - 100.0 / speed - rng.uniform(0.0, 8.0))
        npcs.append(_crosser(f"cross{j}", _r1(s0 + width / 2), speed, t_start))
    fast_from = _r1(route * rng.uniform(0.25, 0.4))
    return {
        "id": f"long{index}",
        "description": f"Seeded {route / 1000:.1f} km route with"
                       f" {n_junctions} junctions.",
        "route_len_m": route,
        "duration_s": _r1(route / 12.0 + 60.0),
        "start_speed_kmh": 0.0,
        "lane_segments": [[fast_from, _r1(fast_from + rng.uniform(400, 600)),
                           "fast"]],
        "junctions": junctions,
        "lights": lights,
        "stop_signs": signs,
        "npcs": npcs,
        "weather": {"rain": 0.0, "fog": 0.0, "snow": 0.0, "visibility": 500.0},
    }


def until_spec_texts(seed: int) -> dict:
    """Two spec files that use `U`: name -> file text.

    Under prefix semantics both are violated within the first seconds of a
    record, so `locate` stays cheap; `robustness` over the whole record
    runs the bounded and the unbounded `Until` loops in full.
    """
    rng = random.Random(f"until-specs:{seed}")
    bounded = (f"G ((speed > {rng.randint(15, 25)}) -> ((speed > "
               f"{rng.randint(4, 8)}) U[0,{rng.randint(30, 60)}] (speed > "
               f"{rng.randint(55, 65)})))")
    unbounded = f"(speed < {rng.randint(100, 130)}) U dest({rng.randint(5, 15)})"
    return {
        "u_bounded": (f"name: u_bounded\nstl: {bounded}\n"
                      "prose: Once moving, keep moving and reach cruising"
                      " speed within a few seconds.\n"),
        "u_unbounded": (f"name: u_unbounded\nstl: {unbounded}\n"
                        "prose: Stay under the limit until the destination"
                        " is reached.\n"),
    }


def _arg_value(rng: random.Random, spec):
    if spec.type == "enum":
        return rng.choice(spec.values)
    if spec.type == "bool":
        return rng.random() < 0.5
    lo = spec.minimum if spec.minimum is not None else 0.0
    hi = spec.maximum if spec.maximum is not None else ARG_CEILING[spec.unit]
    return _r1(rng.uniform(lo, hi))


def _call_doc(rng: random.Random, entry) -> dict:
    doc = {"name": entry.name}
    if entry.params:
        doc["args"] = {p.name: _arg_value(rng, p) for p in entry.params}
    return doc


def random_program_doc(rng: random.Random) -> dict:
    """A schema-valid repair program with 1-4 rules from the default catalog.

    Entries are drawn from the catalog at run time, so vocabulary added to
    or removed from the catalog keeps the generator valid.
    """
    cat = default_catalog()
    triggers = [e.name for e in cat.events] + ["always"]
    rules = []
    for i in range(rng.randint(1, 4)):
        trigger = rng.choice(triggers)
        rule = {"name": f"random rule {i + 1}", "trigger": {"name": trigger}}
        conditions = []
        for entry in rng.sample(cat.conditions, rng.randint(0, 2)):
            cond = _call_doc(rng, entry)
            if rng.random() < 0.2:
                cond["negated"] = True
            conditions.append(cond)
        if conditions:
            rule["conditions"] = conditions
        rule["actions"] = [_call_doc(rng, entry)
                           for entry in rng.sample(cat.actions, rng.randint(1, 2))]
        if trigger != "always" and rng.random() < 0.3:
            rule["until"] = {"name": rng.choice(cat.events).name}
        rules.append(rule)
    return {"rules": rules}


def random_programs(seed: int, scenario_ids, per_scenario: int) -> list:
    """[(scenario_id, program_doc)], programs distinct within each scenario."""
    rng = random.Random(f"random-programs:{seed}")
    out = []
    for sid in scenario_ids:
        seen = set()
        while len(seen) < per_scenario:
            doc = random_program_doc(rng)
            key = json.dumps(doc, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append((sid, doc))
    return out
