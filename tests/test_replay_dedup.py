"""Replays run once per distinct program and scenes once per frame.

The oracle replays every candidate afresh, each from a script of its own,
so no state is shared between candidates, not even the scripted NPC
timeline. It must agree with the report and run directory byte for byte.
"""
from collections import Counter
from pathlib import Path

import pytest

from driverepair import pipeline, trace_model
from driverepair.mudrive import parse_program
from driverepair.pipeline import PipelineConfig, cmd_repair, cmd_sweep_delta
from driverepair.simulator import (
    PAIRED_SPECS,
    evaluate_trace,
    run_scenario,
    scenario_by_id,
)
from driverepair.spec_lang import builtin_specs, robustness
from driverepair.trace_model import build_trace, save_record, scene_from_frame


def _oracle_replay(sid, program, phi, nc_phi, record_path):
    frames, outcome = run_scenario(scenario_by_id(sid), program)
    save_record(frames, record_path)
    trace = build_trace(frames)
    rho_spec = robustness(phi, trace)
    rho_nc = robustness(nc_phi, trace)
    return {
        "outcome": outcome,
        "rho_spec": rho_spec,
        "rho_no_collision": rho_nc,
        "fixed": (rho_spec > 0 and rho_nc > 0
                  and outcome == "reached_destination"),
        "metrics": evaluate_trace(frames),
    }


@pytest.mark.parametrize("sid", ["S1", "S2", "S8"])
def test_report_matches_uncached_oracle(tmp_path, sid):
    specs = builtin_specs()
    phi, nc_phi = specs[PAIRED_SPECS[sid]], specs["no_collision"]
    report = cmd_repair(PipelineConfig(spec=PAIRED_SPECS[sid], scenario=sid,
                                       n=6, out_dir=str(tmp_path / "runs")))
    run_dir = Path(report["run_dir"])
    assert report["distinct_programs"] < len(report["candidates"])
    for cand in report["candidates"]:
        program = parse_program(
            (run_dir / cand["program_file"]).read_text(encoding="utf-8"))
        oracle_path = tmp_path / f"oracle_{cand['index']}.jsonl"
        expected = _oracle_replay(sid, program, phi, nc_phi, oracle_path)
        replay = dict(cand["replay"])
        stem = Path(cand["program_file"]).stem
        assert replay.pop("record") == f"replays/{stem}.jsonl"
        assert replay == expected
        assert ((run_dir / cand["replay"]["record"]).read_bytes()
                == oracle_path.read_bytes())


def _count_replays(monkeypatch):
    """Patch the pipeline's simulator binding; returns the programs replayed."""
    programs = []
    original = pipeline.run_scenario

    def counting(script, program=None):
        programs.append(program)
        return original(script, program)

    monkeypatch.setattr(pipeline, "run_scenario", counting)
    return programs


def test_cmd_repair_replays_each_distinct_program_once(tmp_path, monkeypatch):
    programs = _count_replays(monkeypatch)
    report = cmd_repair(PipelineConfig(spec=PAIRED_SPECS["S4"], scenario="S4",
                                       n=8, out_dir=str(tmp_path)))
    run_dir = Path(report["run_dir"])
    texts = {(run_dir / c["program_file"]).read_bytes()
             for c in report["candidates"]}
    assert programs[0] is None                       # the baseline
    assert len(programs) == 1 + len(texts) == 1 + report["distinct_programs"]
    assert len(set(programs)) == len(programs)
    assert len(list((run_dir / "replays").iterdir())) == report["distinct_programs"]
    assert (len(list((run_dir / "candidates").iterdir()))
            == report["distinct_programs"])


def test_candidates_share_files_exactly_when_programs_are_equal(tmp_path):
    report = cmd_repair(PipelineConfig(spec=PAIRED_SPECS["S4"], scenario="S4",
                                       n=8, out_dir=str(tmp_path)))
    run_dir = Path(report["run_dir"])
    cands = report["candidates"]
    programs = [parse_program((run_dir / c["program_file"]).read_text(
        encoding="utf-8")) for c in cands]
    assert len(set(programs)) < len(cands)          # some programs repeat
    for a, pa in zip(cands, programs):
        for b, pb in zip(cands, programs):
            same = pa == pb
            assert (a["program_file"] == b["program_file"]) == same
            assert (a["replay"]["record"] == b["replay"]["record"]) == same
    for directory, key in (("candidates", lambda c: c["program_file"]),
                           ("replays", lambda c: c["replay"]["record"])):
        written = {f"{directory}/{f.name}"
                   for f in (run_dir / directory).iterdir()}
        assert written == {key(c) for c in cands}


def test_sweep_delta_replays_each_distinct_program_once(monkeypatch):
    programs = _count_replays(monkeypatch)
    report = cmd_sweep_delta(PipelineConfig(spec=PAIRED_SPECS["S1"],
                                            scenario="S1"),
                             [5.0, 10.0, 15.0, 20.0])
    assert all(row["fixed"] is not None for row in report["rows"])
    assert programs[0] is None
    assert len(set(programs)) == len(programs) < 1 + len(report["rows"])


def _count_scenes(monkeypatch):
    """Patch the single scene implementation; returns calls per frame id."""
    calls = Counter()
    original = trace_model.scene_from_frame

    def counting(frame, memo=None):
        calls[id(frame)] += 1
        return original(frame, memo)

    monkeypatch.setattr(trace_model, "scene_from_frame", counting)
    return calls


def test_one_scene_per_frame_across_simulate_trace_metrics(monkeypatch):
    calls = _count_scenes(monkeypatch)
    frames, _ = run_scenario(scenario_by_id("S6"))
    simulated = sum(calls.values())
    trace = build_trace(frames)
    evaluate_trace(frames)
    assert simulated == len(frames)     # the collision check reads every scene
    assert calls == Counter({id(f): 1 for f in frames})
    assert all(scene is frame.scene
               for scene, frame in zip(trace.scenes, frames))


def test_one_scene_per_frame_across_cmd_repair(tmp_path, monkeypatch):
    runs = []
    original = pipeline.run_scenario

    def keeping(*args, **kwargs):
        frames, outcome = original(*args, **kwargs)
        runs.append(frames)         # keeps every frame, so ids stay unique
        return frames, outcome

    monkeypatch.setattr(pipeline, "run_scenario", keeping)
    calls = _count_scenes(monkeypatch)
    cmd_repair(PipelineConfig(spec=PAIRED_SPECS["S2"], scenario="S2", n=4,
                              out_dir=str(tmp_path)))
    assert calls == Counter({id(f): 1 for frames in runs for f in frames})


def test_cached_scene_equals_fresh_computation():
    frames, _ = run_scenario(scenario_by_id("S8"))
    for frame in frames[::25]:
        assert frame.scene is frame.scene
        assert frame.scene == scene_from_frame(frame)
