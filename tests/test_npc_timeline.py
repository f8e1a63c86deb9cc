"""The scripted NPC timeline: each tick's obstacles are built once per
script and shared by every replay of that script, and an NPC that holds
still keeps the previous tick's obstacle, so it is built once per hold.

The reference rebuilds every NPC at every tick, as the simulator once did;
the shared timeline must agree with it bit for bit on every frame of the
baseline and of each distinct replay, and on generated NPC scripts.
"""
import dataclasses
import hashlib
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_reference import npc_obstacles_ref, state_at_ref

from driverepair import pipeline
from driverepair.pipeline import PipelineConfig, cmd_repair, cmd_sweep_delta
from driverepair.simulator import (
    PAIRED_SPECS,
    NpcSpec,
    ScenarioScript,
    run_scenario,
    scenario_by_id,
)
from driverepair.simulator.engine import _World
from driverepair.simulator.scenarios import PREDICTION_TIMES, ScenarioError
from driverepair.trace_model import frame_to_line

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.sha256"

SCENARIOS = sorted(PAIRED_SPECS)


def _bits(value):
    """A value with every float spelled out by `float.hex`."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "_fields"):       # a NamedTuple record
        return (type(value).__name__,) + tuple(
            (name, _bits(v)) for name, v in zip(value._fields, value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _bits(getattr(value, f.name)))
            for f in dataclasses.fields(value))
    return value


def _tick_times(n):
    """The time of each of n ticks: tick k happens at k / 10 s."""
    return [k / 10 for k in range(n)]


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


def _build_unit(npc, t):
    """What one obstacle build serves: the NPC's hold, or the single tick
    whose prediction window lies in no hold."""
    hold = npc.hold_at(t)
    return ("tick", t) if hold is None else ("hold", hold)


@pytest.mark.parametrize("sid", SCENARIOS)
def test_predicted_once_per_npc_and_tick(repairs, sid):
    """One `predicted` call per (NPC, hold) reached, one per (NPC, tick)
    whose window is in no hold, and no other call."""
    scripts, runs, predicted = repairs[sid]
    npcs = {npc.id: npc for npc in scripts[0].npcs}
    ticks = _tick_times(max(len(frames) for frames in runs))
    expected = Counter({(npc.id, _build_unit(npc, t)): 1
                        for npc in npcs.values() for t in ticks})
    found = Counter()
    for (npc_id, t), calls in predicted.items():
        found[npc_id, _build_unit(npcs[npc_id], t)] += calls
    assert found == expected
    assert sum(expected.values()) < len(ticks) * len(npcs)


@pytest.mark.parametrize("sid", SCENARIOS)
def test_baseline_record_matches_golden_digest(sid):
    golden = dict(reversed(line.split()) for line in
                  GOLDEN_RECORDS.read_text(encoding="utf-8").splitlines())
    frames, _ = run_scenario(scenario_by_id(sid))
    data = "".join(frame_to_line(frame) for frame in frames).encode()
    assert hashlib.sha256(data).hexdigest() == golden[sid]


def _emitted(script, n_ticks):
    """The frames a simulation of the script emits over n ticks, whatever
    the ego does."""
    world = _World(script)
    return [world.emit_frame(tick) for tick in range(n_ticks)]


N_TICKS = 150
_TICKS = _tick_times(N_TICKS)
# Waypoint times at the edges the hold test must get right: a tick's time
# and the end of its prediction window.
_EDGE_TIMES = sorted(set(_TICKS[::10])
                     | {t + PREDICTION_TIMES[-1] for t in _TICKS[::10]})
_coords = st.sampled_from([0.0, -0.0, 1.5, -4.0, 12.25]) | st.floats(-50, 50)
_times = (st.sampled_from(_EDGE_TIMES) | st.sampled_from([-1.0, 0.0])
          | st.floats(-2.0, 16.0))
_waypoint = st.tuples(_times, _coords, _coords,
                      st.sampled_from([0.0, 10.0, 36.0]))


@st.composite
def _waypoints(draw):
    """1..5 time-ordered waypoints; a drawn point may repeat the one before,
    and a drawn time may repeat, giving zero-length first or last segments."""
    waypoints = []
    for _ in range(draw(st.integers(1, 5))):
        t, x, y, v = draw(_waypoint)
        if waypoints and draw(st.booleans()):
            x, y = waypoints[-1][1], waypoints[-1][2]
        if waypoints and draw(st.booleans()):
            t = waypoints[-1][0]
        waypoints.append((t, x, y, v))
    return tuple(sorted(waypoints, key=lambda w: w[0]))


@settings(max_examples=100, deadline=None)
@given(paths=st.lists(_waypoints(), min_size=1, max_size=3))
# all waypoints at one tick's time: that tick reads the first, not the last
@example(paths=[((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.5, 0.0))])
@example(paths=[((_TICKS[10], 5.0, 0.0, 0.0), (_TICKS[10], -0.0, 0.0, 0.0),
                 (_TICKS[40], -0.0, 9.0, 36.0), (_TICKS[40], 0.0, 9.0, 0.0))])
def test_emitted_obstacles_match_reference(paths):
    npcs = tuple(NpcSpec(id=f"npc{k}", waypoints=waypoints)
                 for k, waypoints in enumerate(paths))
    script = ScenarioScript(id="gen", route_len_m=100.0, npcs=npcs)
    shared = {}
    previous = (None,) * len(npcs)
    for frame, t in zip(_emitted(script, N_TICKS), _TICKS):
        ref = npc_obstacles_ref(script, t)
        assert _bits(frame.obstacles) == _bits(ref), t
        assert (frame_to_line(frame)
                == frame_to_line(dataclasses.replace(frame, obstacles=ref)))
        for k, (npc, ob) in enumerate(zip(npcs, frame.obstacles)):
            hold = npc.hold_at(t)
            if hold is not None:
                assert shared.setdefault((k, hold), ob) is ob
            else:
                assert ob is not previous[k]
        previous = frame.obstacles


@settings(max_examples=200, deadline=None)
@given(waypoints=_waypoints(), t=_times)
@example(waypoints=((1.0, 0.0, 0.0, 0.0), (2.0, 4.0, 0.0, 36.0),
                    (2.0, 4.0, 3.0, 10.0), (3.0, 4.0, 6.0, 10.0)), t=2.0)
def test_state_at_matches_the_segment_scan(waypoints, t):
    """`state_at` finds its segment by bisection; the scan it replaced gives
    the same bits at every time, a waypoint's own time included."""
    npc = NpcSpec(id="npc", waypoints=waypoints)
    for time in (t, *(w[0] for w in waypoints)):
        assert _bits(npc.state_at(time)) == _bits(state_at_ref(npc, time))


def test_one_obstacle_serves_a_long_parked_hold():
    parked = NpcSpec(id="parked", waypoints=((0.0, 40.0, 7.0, 0.0),
                                             (100.0, 40.0, 7.0, 0.0)))
    script = ScenarioScript(id="parked", route_len_m=100.0, npcs=(parked,))
    frames = _emitted(script, 900)
    # tick 0 sits on the first waypoint, before the parked segment's span;
    # every later tick's window lies in the parked segment
    assert [k for k, t in enumerate(_tick_times(900))
            if parked.hold_at(t) is not None] == list(range(1, 900))
    held = frames[1].obstacles[0]
    assert frames[0].obstacles[0] is not held
    assert all(frame.obstacles[0] is held for frame in frames[1:])


def test_npc_without_waypoints_is_a_scenario_error():
    # refused when the NPC is built, before any script or tick uses it
    with pytest.raises(ScenarioError, match=r"^npcs\.waypoints must be a"
                                            r" non-empty list of \[t, x, y,"):
        NpcSpec(id="ghost", waypoints=())
    with pytest.raises(TypeError, match="waypoints"):
        NpcSpec(id="ghost")


def test_npc_waypoints_out_of_time_order_are_a_scenario_error():
    wps = ((1.0, 0.0, 0.0, 0.0), (0.5, 1.0, 0.0, 0.0))
    with pytest.raises(ScenarioError) as info:
        NpcSpec(id="back", waypoints=wps)
    assert str(info.value) == f"npcs.waypoints must be in time order, got {wps!r}"


def test_scripts_do_not_share_a_timeline():
    a, b = scenario_by_id("S1"), scenario_by_id("S1")
    assert a == b and a.npc_timeline is not b.npc_timeline
    frames, _ = run_scenario(a)
    assert len(a.npc_timeline) == len(frames)
    assert b.npc_timeline == []
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
