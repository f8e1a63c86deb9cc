"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driverepair import mudrive  # noqa: E402


def _generated_bytes(seed):
    docs = [gen.long_script_doc(seed, i) for i in range(len(gen.LONG_ROUTES_M))]
    return (json.dumps(docs, sort_keys=True)
            + json.dumps(gen.until_spec_texts(seed), sort_keys=True)
            + json.dumps(gen.random_programs(seed, workloads.SCENARIOS, 3))
            ).encode()


def test_generators_are_deterministic():
    assert _generated_bytes(5) == _generated_bytes(5)
    assert _generated_bytes(5) != _generated_bytes(6)


def test_random_programs_validate_and_are_distinct():
    programs = gen.random_programs(3, workloads.SCENARIOS, 10)
    for _, doc in programs:
        assert mudrive.validate(mudrive.from_json(doc)) == []
    for sid in workloads.SCENARIOS:
        docs = [json.dumps(d, sort_keys=True) for s, d in programs if s == sid]
        assert len(set(docs)) == len(docs) == 10


def _driverepair_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "driverepair" or name.startswith("driverepair.")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_restore_the_original_functions():
    before = _driverepair_bindings()
    complete = tracing.repair_llm.MockBackend.complete
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.engine.run_scenario is not before[
            ("driverepair.simulator.engine", "run_scenario")]
        assert tracing.pipeline.run_scenario is tracing.engine.run_scenario
        assert tracing.trace_model.obb_distance is not before[
            ("driverepair.trace_model", "obb_distance")]
        assert tracing.repair_llm.MockBackend.complete is not complete
    after = _driverepair_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.repair_llm.MockBackend.complete is complete


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer:
        frames, _ = tracing.engine.run_scenario(
            tracing.engine.ScenarioScript(id="t", route_len_m=60.0,
                                          duration_s=20.0))
    calls, busy, own = tracer.totals()["simulator.run_scenario"]
    _, scene_busy, _ = tracer.totals()["trace_model.scene_from_frame"]
    assert calls == 1
    assert own == pytest.approx(busy - scene_busy
                                - tracer.totals()["mudrive.step_rules"][1])
    assert tracer.counters.ticks == len(frames)


def test_stopwatch_samples_inside_and_leaves_its_kernel_runs_out():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Clock().stopwatch() as watch:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.2:
            pass
    elapsed = time.perf_counter() - t0
    assert len(watch.refs) >= 4     # before, two or more inside, after
    assert watch.inside > 0
    assert watch.seconds == pytest.approx(1.2, abs=0.05)
    assert watch.seconds + watch.inside <= elapsed
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Clock(sampling=False).stopwatch() as watch:
        time.sleep(0.6)
    assert len(watch.refs) == 2 and watch.inside == 0
    assert speed.at_reference(2.0, 2 * speed.REFERENCE_S) == 1.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics(tracing.Tracer())) | {
        "tracing.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer

    class Stub:
        pass_items = [[workloads.Part("x", 0.5)], [workloads.Part("x", 0.4)]]

    assert ({m["name"] for m in spec["end_to_end"]}
            == set(run.end_to_end(Stub(), 1.0)))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repair_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repair_suite_counts(tmp_path):
    """168 replays of 30 distinct (script, program) pairs, ~3 scenes a frame."""
    suite = workloads.WORKLOADS["repair_suite"]
    inputs = suite.prepare(0, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        items = suite.run_pass(inputs, tmp_path,
                               speed.Clock(sampling=False))
    metrics = tracing.layer_metrics(tracer)
    assert all(item.error is None for item in items)
    assert all(suite.check_pass(inputs, items, tmp_path))
    assert metrics["simulator.calls"][0] == 168
    assert len(tracer.counters.replay_keys) == 30
    assert 2.9 < metrics["trace_model.scenes_per_frame"][0] < 3.05
    assert metrics["pipeline.fix_rate"][0] == pytest.approx(153 / 160)
