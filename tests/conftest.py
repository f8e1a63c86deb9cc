import dataclasses
import random

import pytest

from driverepair.localizer import locate
from driverepair.promptgen import build_prompt
from driverepair.repair_llm import MockBackend, batch_generate
from driverepair.simulator import PAIRED_SPECS, benchmark_suite, run_scenario
from driverepair.spec_lang import builtin_specs, resolve_spec, robustness
from driverepair.trace_model import (
    FAR,
    EgoPose,
    RawRecordFrame,
    Scene,
    Trace,
    build_trace,
)

SCENE_DEFAULTS = dict(
    speed=0.0, accel=0.0, npc_ahead_dist=FAR, nearest_npc_dist=FAR,
    nearest_npc_sep=FAR, dist_to_junction=FAR, dist_to_stopline=FAR,
    dist_to_stop_sign=FAR, dist_to_dest=FAR, light_color="off",
    light_dist_raw=FAR, rain=0.0, fog=0.0, snow=0.0, visibility=500.0,
    in_junction=False, lane_kind="normal", gear="drive",
    overtaking=False, changing_lane=False, congested=False,
)


def make_scene(**overrides) -> Scene:
    values = dict(SCENE_DEFAULTS)
    values.update(overrides)
    return Scene(**values)


def speed_trace(speeds) -> Trace:
    return Trace([make_scene(speed=float(v)) for v in speeds])


def random_scene(rng: random.Random) -> Scene:
    return make_scene(
        speed=rng.uniform(0, 90),
        accel=rng.uniform(-4, 4),
        npc_ahead_dist=rng.uniform(0, 60),
        nearest_npc_dist=rng.uniform(0, 60),
        nearest_npc_sep=rng.uniform(0, 50),
        dist_to_junction=rng.uniform(0, 80),
        dist_to_stopline=rng.uniform(0, 80),
        dist_to_stop_sign=rng.uniform(0, 80),
        dist_to_dest=rng.uniform(0, 300),
        light_color=rng.choice(["off", "red", "yellow", "green"]),
        rain=rng.uniform(0, 1),
        fog=rng.uniform(0, 1),
        snow=rng.uniform(0, 1),
        visibility=rng.uniform(5, 500),
        in_junction=rng.random() < 0.5,
        lane_kind=rng.choice(["normal", "fast", "slow"]),
        congested=rng.random() < 0.5,
    )


def random_trace(rng: random.Random, max_len=12) -> Trace:
    n = rng.randint(1, max_len)
    return Trace([random_scene(rng) for _ in range(n)])


def ramp_frames(n=91, dt=0.1):
    """Record whose speed signal is 0, 1, ..., n-1 km/h."""
    return [
        RawRecordFrame(t=round(i * dt, 4),
                       ego=EgoPose(x=float(i), y=0.0, heading=0.0,
                                   speed=float(i), accel=0.0, steering=0.0))
        for i in range(n)
    ]


def at_20hz(frames):
    """A 20 Hz record: each frame followed by a copy 0.05 s later."""
    out = []
    for frame in frames:
        out += [frame, dataclasses.replace(frame, t=round(frame.t + 0.05, 4))]
    return out


def drop_sixth_of_ten(frames):
    """The record with frames 5, 15, 25, ... missing."""
    return [f for i, f in enumerate(frames) if i % 10 != 5]


@pytest.fixture(scope="session")
def specs():
    return builtin_specs()


@pytest.fixture(scope="session")
def baseline_runs():
    """Baseline frames, trace, and outcome for every benchmark scenario."""
    runs = {}
    for script in benchmark_suite():
        frames, outcome = run_scenario(script)
        runs[script.id] = {
            "script": script,
            "frames": frames,
            "outcome": outcome,
            "trace": build_trace(frames),
        }
    return runs


@pytest.fixture(scope="session")
def repair_results(baseline_runs, specs):
    """Mock candidates and replay verdicts per scenario (3 seeds each)."""
    out = {}
    for sid, run in baseline_runs.items():
        spec_name = PAIRED_SPECS[sid]
        phi = specs[spec_name]
        moments = locate(phi, run["trace"], delta=15.0)
        bundle = build_prompt(moments, run["frames"],
                              resolve_spec(spec_name).prose)
        batch = batch_generate(bundle, 3, MockBackend(), base_seed=0)
        replays = []
        for cand in batch.candidates:
            rframes, routcome = run_scenario(run["script"], cand.program)
            rtrace = build_trace(rframes)
            replays.append({
                "candidate": cand,
                "outcome": routcome,
                "rho_spec": robustness(phi, rtrace),
                "rho_no_collision": robustness(specs["no_collision"], rtrace),
                "frames": rframes,
            })
        out[sid] = {"moments": moments, "bundle": bundle, "batch": batch,
                    "replays": replays}
    return out
