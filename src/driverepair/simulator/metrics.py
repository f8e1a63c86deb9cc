"""Trajectory metrics over a recorded run."""
from __future__ import annotations

from ..trace_model import STEP_S, STOPPED_KMH, step_frames

VEHICLE_MASS_KG = 1500.0


def evaluate_trace(frames) -> dict:
    """Speed, acceleration, obstacle distance, stop time, and energy metrics.

    Every metric is taken over the trace steps (`step_frames`), so a record
    weighs each STEP_S of its time alike, whatever its frame rate. Speeds
    are reported in m/s. Energy is the telescoping sum of kinetic deltas,
    0.5 * m * (v[t+1]^2 - v[t]^2) over consecutive steps; the
    positive-delta variant keeps only accelerating steps. Stop time counts
    the steps whose frame is stopped, STEP_S each.
    """
    if not frames:
        raise ValueError("no frames to evaluate")

    steps = [frames[j] for j in step_frames(frames)]
    speeds = [f.ego.speed / 3.6 for f in steps]
    accels = [abs(f.ego.accel) for f in steps]
    seps = [f.scene.nearest_npc_sep for f in steps if f.obstacles]

    energy = 0.0
    energy_positive = 0.0
    for v0, v1 in zip(speeds, speeds[1:]):
        delta = 0.5 * VEHICLE_MASS_KG * (v1 * v1 - v0 * v0)
        energy += delta
        if delta > 0:
            energy_positive += delta

    stopped = sum(f.ego.speed < STOPPED_KMH for f in steps)

    return {
        "avg_speed_ms": sum(speeds) / len(speeds),
        "max_speed_ms": max(speeds),
        "avg_accel_ms2": sum(accels) / len(accels),
        "max_accel_ms2": max(accels),
        "avg_obstacle_dist_m": (sum(seps) / len(seps)) if seps else None,
        "min_obstacle_dist_m": min(seps) if seps else None,
        "stop_time_s": stopped / round(1 / STEP_S),
        "energy_j": energy,
        "energy_positive_j": energy_positive,
    }
