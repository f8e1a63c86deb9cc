"""Metamorphic checks on the replay gate, over every benchmark scenario.

A program that never changes the planner's settings must replay to the
baseline record byte for byte, and rules whose actions set disjoint
settings must replay the same in either order.
"""
from dataclasses import fields

import pytest

from driverepair.mudrive import from_json, parse_program
from driverepair.mudrive.catalog import ACTIONS, DEFAULT_PARAMS
from driverepair.simulator import PAIRED_SPECS, run_scenario
from driverepair.trace_model import frame_to_line

SCENARIOS = sorted(PAIRED_SPECS)

NEVER_ACTIVE = parse_program("""
rule "never"
trigger
    always
condition
    speed_gt(100000)
then
    cruise_speed(5)
end
""")

# every setting, each through the action that sets it, at its default
RESTATE_DEFAULTS = from_json({"rules": [{
    "name": "restate the defaults",
    "trigger": {"name": "always"},
    "actions": [{"name": entry.name,
                 "args": {entry.params[0].name:
                          getattr(DEFAULT_PARAMS, entry.sets)}}
                for entry in ACTIONS],
}]})

FASTER = """
rule "faster"
trigger
    always
condition
    speed_gt(20)
then
    cruise_speed(40)
end
"""

KEEP_BACK = """
rule "keep back"
trigger
    always
condition
    obstacle_distance_leq(60)
then
    follow_dist(25)
    yield_dist(40)
end
"""


def replay(script, program=None):
    """The outcome and the record bytes of one run."""
    frames, outcome = run_scenario(script, program)
    return outcome, "".join(frame_to_line(f) for f in frames)


def baseline(run):
    return run["outcome"], "".join(frame_to_line(f) for f in run["frames"])


@pytest.mark.parametrize("sid", SCENARIOS)
def test_never_active_program_replays_the_baseline(baseline_runs, sid):
    run = baseline_runs[sid]
    assert replay(run["script"], NEVER_ACTIVE) == baseline(run)


def test_restating_program_sets_every_field():
    sets = {entry.name: entry.sets for entry in ACTIONS}
    (rule,) = RESTATE_DEFAULTS.rules
    assert (sorted(sets[call.name] for call in rule.actions)
            == sorted(f.name for f in fields(DEFAULT_PARAMS)))


@pytest.mark.parametrize("sid", SCENARIOS)
def test_restating_the_defaults_replays_the_baseline(baseline_runs, sid):
    run = baseline_runs[sid]
    assert replay(run["script"], RESTATE_DEFAULTS) == baseline(run)


@pytest.mark.parametrize("sid", SCENARIOS)
def test_disjoint_rules_replay_the_same_in_either_order(baseline_runs, sid):
    run = baseline_runs[sid]
    forward = replay(run["script"], parse_program(FASTER + KEEP_BACK))
    backward = replay(run["script"], parse_program(KEEP_BACK + FASTER))
    assert forward == backward
    assert forward != baseline(run)     # the pair does change the drive
