"""The scripted NPC timeline: each tick's obstacles are built once per
script and shared by every replay of that script.

The reference rebuilds every NPC at every tick, as the simulator once did;
the shared timeline must agree with it bit for bit on every frame of the
baseline and of each distinct replay.
"""
import dataclasses
import weakref
from collections import Counter

import pytest

from oracle_reference import npc_obstacles_ref

from driverepair import pipeline
from driverepair.pipeline import PipelineConfig, cmd_repair, cmd_sweep_delta
from driverepair.simulator import (
    PAIRED_SPECS,
    NpcSpec,
    run_scenario,
    scenario_by_id,
)
from driverepair.simulator.engine import DT

SCENARIOS = sorted(PAIRED_SPECS)


def _bits(value):
    """A value with every float spelled out by `float.hex`."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _bits(getattr(value, f.name)))
            for f in dataclasses.fields(value))
    return value


def _tick_times(n):
    """The unrounded time of each of n ticks, accumulated as the simulator
    steps its clock."""
    times, t = [], 0.0
    for _ in range(n):
        times.append(t)
        t += DT
    return times


@pytest.fixture(scope="module")
def repairs(tmp_path_factory):
    """For each scenario, one mock `cmd_repair` (n=20, seed 1): the scripts
    its simulator calls got, each call's frames (the baseline first), and
    the `NpcSpec.predicted` calls per (NPC, time)."""
    out = tmp_path_factory.mktemp("runs")
    found = {}
    for sid in SCENARIOS:
        scripts, runs, predicted = [], [], Counter()
        original_run = pipeline.run_scenario
        original_predicted = NpcSpec.predicted

        def keeping(script, program=None):
            frames, outcome = original_run(script, program)
            scripts.append(script)
            runs.append(frames)
            return frames, outcome

        def counting(npc, t):
            predicted[npc.id, t] += 1
            return original_predicted(npc, t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "run_scenario", keeping)
            mp.setattr(NpcSpec, "predicted", counting)
            cmd_repair(PipelineConfig(spec=PAIRED_SPECS[sid], scenario=sid,
                                      n=20, base_seed=1, out_dir=str(out)))
        found[sid] = scripts, runs, predicted
    return found


@pytest.mark.parametrize("sid", SCENARIOS)
def test_every_frame_matches_reference(repairs, sid):
    _, runs, _ = repairs[sid]
    assert len(runs) >= 2       # the baseline and at least one replay
    script = scenario_by_id(sid)
    for frames in runs:
        for frame, t in zip(frames, _tick_times(len(frames))):
            assert (_bits(frame.obstacles)
                    == _bits(npc_obstacles_ref(script, t))), (sid, t)


@pytest.mark.parametrize("sid", SCENARIOS)
def test_replays_share_each_tick_with_the_baseline(repairs, sid):
    scripts, runs, _ = repairs[sid]
    assert all(script is scripts[0] for script in scripts)
    longest = max(runs, key=len)
    for frames in runs:
        for frame, other in zip(frames, longest):
            assert frame.obstacles is other.obstacles


@pytest.mark.parametrize("sid", SCENARIOS)
def test_predicted_once_per_npc_and_tick(repairs, sid):
    scripts, runs, predicted = repairs[sid]
    ticks = _tick_times(max(len(frames) for frames in runs))
    assert predicted == Counter({(npc.id, t): 1
                                 for npc in scripts[0].npcs for t in ticks})


def test_scripts_do_not_share_a_timeline():
    a, b = scenario_by_id("S1"), scenario_by_id("S1")
    assert a == b and a.npc_timeline is not b.npc_timeline
    frames, _ = run_scenario(a)
    assert len(a.npc_timeline) == len(frames)
    assert b.npc_timeline == {}
    again, _ = run_scenario(b)
    assert all(x.obstacles is not y.obstacles and x.obstacles == y.obstacles
               for x, y in zip(frames, again))


def _weakly_resolved(monkeypatch):
    """Patch the pipeline's script resolver; returns weakrefs to the scripts
    it hands out."""
    refs = []
    original = pipeline.resolve_script

    def resolving(name_or_path):
        script = original(name_or_path)
        refs.append(weakref.ref(script))
        return script

    monkeypatch.setattr(pipeline, "resolve_script", resolving)
    return refs


def test_cmd_repair_releases_its_script(tmp_path, monkeypatch):
    refs = _weakly_resolved(monkeypatch)
    cmd_repair(PipelineConfig(spec=PAIRED_SPECS["S7"], scenario="S7", n=4,
                              out_dir=str(tmp_path)))
    assert len(refs) == 1 and refs[0]() is None


def test_cmd_sweep_delta_releases_its_script(monkeypatch):
    refs = _weakly_resolved(monkeypatch)
    cmd_sweep_delta(PipelineConfig(spec=PAIRED_SPECS["S1"], scenario="S1"),
                    [5.0, 15.0])
    assert len(refs) == 1 and refs[0]() is None
