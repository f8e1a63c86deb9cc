"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
import random
import time
from pathlib import Path

import pytest

from conftest import random_trace, speed_trace
from formula_gen import random_formula
from oracle_boolean import holds
from oracle_reference import rho_ref

from driverepair.localizer import locate
from driverepair.mudrive import (
    SchemaConversionError,
    from_json,
    parse_program,
    pretty_print,
    to_json,
    validate,
)
from driverepair.pipeline import PipelineConfig, cmd_repair
from driverepair.promptgen import build_prompt
from driverepair.repair_llm import MockBackend, batch_generate, cost_usd
from driverepair.simulator import (
    PAIRED_SPECS,
    benchmark_suite,
    evaluate_trace,
    run_scenario,
)
from driverepair.spec_lang import (
    builtin_specs,
    parse_spec,
    resolve_spec,
    robustness,
    robustness_bounded,
)
from driverepair.trace_model import EgoPose, RawRecordFrame, build_trace


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_robustness_exactness():
    """Worked speed-limit examples reproduce exactly."""
    t0 = time.monotonic()
    phi = parse_spec("G (speed < 60)")

    capped = speed_trace([0, 0.3, 10, 25, 40, 50])
    assert robustness(phi, capped) == 10.0

    ramp = speed_trace(range(91))
    assert robustness(phi, ramp) == -30.0
    for k in range(56):
        assert robustness_bounded(phi, ramp, k) == 60.0 - k
    assert robustness_bounded(phi, ramp, 55) == 5.0
    assert robustness_bounded(phi, ramp, 60) == 0.0
    assert robustness_bounded(phi, ramp, 61) == -1.0

    moments = locate(phi, ramp, delta=5.0)
    assert moments.violation_step == 60
    assert moments.near_miss_step == 55

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("1 robustness exactness", f"({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    """1000 random formula/trace pairs against both oracles."""
    t0 = time.monotonic()
    rng = random.Random(42)
    for i in range(1000):
        phi = random_formula(rng, depth=3)
        trace = random_trace(rng, max_len=12)
        got = robustness(phi, trace)
        ref = rho_ref(phi, trace, 0)
        assert got == pytest.approx(ref, abs=1e-9), f"case {i}"
        assert (got > 0) == holds(phi, trace, 0), f"case {i}: sign mismatch"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("2 oracle equivalence", f"(1000 cases, {elapsed:.1f}s)")


JUNCTION_SLOWDOWN = (
    'rule "Drive slowly through a junction when there is an obstacle."\n'
    "trigger\n    entering_junction\n"
    "condition\n    obstacle_distance_leq(20)\n    is_traffic_light(green)\n"
    "then\n    cruise_speed(30)\nuntil\n    exiting_junction\nend\n"
)
PROXIMITY_RULE = (
    'rule "S1 rule1"\ntrigger\n    always\n'
    "condition\n    front_vehicle_closer_than(10)\n"
    "then\n    follow_dist(10)\n    yield_dist(15)\n    overtake_dist(20)\n"
    "    obstacle_stop_dist(10)\n    obstacle_decrease_ratio(1)\nend\n"
)
RED_STOP_RULE = (
    'rule "S1 rule2"\ntrigger\n    always\n'
    "condition\n    is_traffic_light(red)\n    traffic_light_distance_leq(10)\n"
    "then\n    traffic_light_stop_dist(5)\nend\n"
)


def test_criterion_3_rule_dsl_conformance():
    """Reference programs round-trip; structural violations are rejected."""
    for text in (JUNCTION_SLOWDOWN, PROXIMITY_RULE, RED_STOP_RULE,
                 PROXIMITY_RULE + RED_STOP_RULE):
        program = parse_program(text)
        assert validate(program) == []
        assert parse_program(pretty_print(program)) == program
        assert from_json(to_json(program)) == program

    action = {"name": "cruise_speed", "args": {"kmh": 30}}
    zero_actions = {"rules": [{"name": "x", "trigger": {"name": "always"},
                               "actions": []}]}
    dual_until = {"rules": [{"name": "x", "trigger": {"name": "always"},
                             "actions": [action],
                             "until": [{"name": "exiting_junction"},
                                       {"name": "entering_junction"}]}]}
    bad_name = {"rules": [{"name": "x", "trigger": {"name": "always"},
                           "actions": [{"name": "warp_speed",
                                        "args": {"kmh": 1}}]}]}
    for doc in (zero_actions, dual_until, bad_name):
        with pytest.raises(SchemaConversionError):
            from_json(doc)
    _report("3 rule DSL conformance")


def test_criterion_4_pipeline_efficacy():
    """Each baseline violates; some mock repair flips the sign, collision-free,
    and reaches the destination."""
    t0 = time.monotonic()
    specs = builtin_specs()
    for script in benchmark_suite():
        spec_name = PAIRED_SPECS[script.id]
        phi = specs[spec_name]

        frames, _ = run_scenario(script)
        trace = build_trace(frames)
        rho_baseline = robustness(phi, trace)
        assert rho_baseline <= 0, (script.id, rho_baseline)

        moments = locate(phi, trace, delta=15.0)
        assert moments.located, script.id
        bundle = build_prompt(moments, frames, resolve_spec(spec_name).prose)
        batch = batch_generate(bundle, 3, MockBackend(), base_seed=0)
        assert batch.candidates, script.id

        fixed = False
        for cand in batch.candidates:
            rframes, routcome = run_scenario(script, cand.program)
            rtrace = build_trace(rframes)
            if (robustness(phi, rtrace) > 0
                    and robustness(specs["no_collision"], rtrace) > 0
                    and routcome == "reached_destination"):
                fixed = True
                break
        assert fixed, f"{script.id}: no candidate repaired the violation"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report("4 pipeline efficacy", f"(8 scenarios, {elapsed:.1f}s)")


def test_criterion_5_cost_accounting():
    """Published token counts reproduce every cost cell; mock stays cheap."""
    rows = [(7352, 179, 0.079), (7352, 163, 0.078), (7436, 121, 0.078),
            (7435, 185, 0.080), (7508, 97, 0.078), (7498, 81, 0.077),
            (7504, 123, 0.079), (7350, 82, 0.076)]
    for tin, tout, printed in rows:
        assert abs(cost_usd(tin, tout) - printed) < 0.001

    specs = builtin_specs()
    script = benchmark_suite()[5]  # S6
    frames, _ = run_scenario(script)
    trace = build_trace(frames)
    moments = locate(specs["law46"], trace, delta=15.0)
    bundle = build_prompt(moments, frames, resolve_spec("law46").prose)
    batch = batch_generate(bundle, 5, MockBackend())
    for cand in batch.candidates:
        assert cand.cost_usd < 0.08
    _report("5 cost accounting",
            f"(max candidate ${max(c.cost_usd for c in batch.candidates):.4f})")


def test_criterion_6_energy_identity():
    """Literal kinetic-delta sum telescopes; hand case gives 75 kJ."""
    def frames_from(speeds_ms):
        return [RawRecordFrame(t=round(i * 0.1, 4),
                               ego=EgoPose(x=0, y=0, heading=0,
                                           speed=v * 3.6, accel=0, steering=0))
                for i, v in enumerate(speeds_ms)]

    rng = random.Random(8)
    for _ in range(100):
        speeds = [rng.uniform(0, 35) for _ in range(rng.randint(2, 80))]
        metrics = evaluate_trace(frames_from(speeds))
        expect = 0.5 * 1500.0 * (speeds[-1] ** 2 - speeds[0] ** 2)
        assert metrics["energy_j"] == pytest.approx(expect, abs=1e-6)

    hand = evaluate_trace(frames_from([0.0, 10.0, 0.0]))
    assert hand["energy_j"] == pytest.approx(0.0, abs=1e-6)
    assert hand["energy_positive_j"] == pytest.approx(75000.0, abs=1e-6)
    _report("6 energy identity")


def test_criterion_7_delta_sweep_monotonicity():
    """Near-miss steps never increase with delta; delta 0 collapses."""
    specs = builtin_specs()
    for script in benchmark_suite():
        phi = specs[PAIRED_SPECS[script.id]]
        frames, _ = run_scenario(script)
        trace = build_trace(frames)
        steps = []
        for delta in (1, 5, 10, 15, 20, 25, 30):
            steps.append(locate(phi, trace, delta).near_miss_step)
        assert all(s is not None for s in steps), script.id
        assert steps == sorted(steps, reverse=True), (script.id, steps)
        zero = locate(phi, trace, 0.0)
        assert zero.near_miss_step == zero.violation_step, script.id
    _report("7 delta sweep monotonicity")


def test_criterion_8_determinism(tmp_path):
    """Records, SVGs, prompts, and reports are byte-identical on reruns."""
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = PipelineConfig(spec="law46", scenario="S6", n=2,
                             out_dir=str(out), base_seed=0)
        report = cmd_repair(cfg)
        run_dir = Path(report["run_dir"])
        files = {p.relative_to(run_dir).as_posix(): p.read_bytes()
                 for p in run_dir.rglob("*") if p.is_file()}
        outputs.append(files)
    assert outputs[0].keys() == outputs[1].keys()
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], rel
    kinds = {Path(rel).suffix for rel in outputs[0]}
    assert {".jsonl", ".svg", ".json", ".mud"} <= kinds
    _report("8 determinism", f"({len(outputs[0])} artifacts compared)")
