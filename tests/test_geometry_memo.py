"""The simulator's obstacle-geometry memo, one per scenario script.

A memoed scene must hold the bits of a scene computed afresh, on every frame
of every baseline and distinct replay; a script's memo serves every replay
of that script and no other script.
"""
import math

import pytest

from driverepair import pipeline, trace_model
from driverepair.pipeline import PipelineConfig, cmd_repair
from driverepair.simulator import PAIRED_SPECS, resolve_script, run_scenario
from driverepair.trace_model import Scene, scene_from_frame


def _bits(scene: Scene) -> tuple:
    return tuple(v.hex() if type(v) is float else v for v in scene)


@pytest.mark.parametrize("seed", [0, 1])
def test_memoed_scenes_match_fresh_scenes(tmp_path, monkeypatch, seed):
    runs = []
    original = pipeline.run_scenario

    def keeping(script, program=None):
        frames, outcome = original(script, program)
        runs.append((script, frames))
        return frames, outcome

    monkeypatch.setattr(pipeline, "run_scenario", keeping)
    for sid in (f"S{i}" for i in range(1, 9)):
        cmd_repair(PipelineConfig(spec=PAIRED_SPECS[sid], scenario=sid, n=20,
                                  base_seed=seed, out_dir=str(tmp_path)))
    frames = [f for _, run in runs for f in run]
    assert len(runs) > 8        # the baselines and distinct replays
    for frame in frames:
        assert _bits(frame.scene) == _bits(scene_from_frame(frame))

    memos = {id(script): script.geometry_memo for script, _ in runs}
    entries = sum(len(memo) for memo in memos.values())
    assert 0 < entries < len(frames)        # some frames hit
    for memo in memos.values():
        for key, (obstacles, *_) in memo.items():
            assert key[4] == id(obstacles)  # the entry keeps its tuple
            assert all(math.copysign(1.0, v) == 1.0 for v in key[:4])


def test_each_script_computes_its_geometry_anew(monkeypatch):
    calls = []
    original = trace_model.obstacle_geometry

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trace_model, "obstacle_geometry", counting)
    first, second = resolve_script("S4"), resolve_script("S4")
    frames, _ = run_scenario(first)
    computed = len(calls)
    assert 0 < computed <= len(frames)
    again, _ = run_scenario(second)
    assert len(calls) == 2 * computed
    replayed, _ = run_scenario(first)
    assert len(calls) == 2 * computed   # every geometry of it is kept
    assert ([_bits(f.scene) for f in frames]
            == [_bits(f.scene) for f in again]
            == [_bits(f.scene) for f in replayed])


def test_tick_with_every_npc_held_shares_the_previous_tuple():
    script = resolve_script("S4")
    run_scenario(script)
    timeline = script.npc_timeline
    shared = 0
    for before, now in zip(timeline, timeline[1:]):
        held = all(a is b for a, b in zip(before, now))
        assert (now is before) == held
        shared += held
    assert shared > 0
