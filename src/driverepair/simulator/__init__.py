"""Desk-scale kinematic replay environment with scripted scenarios."""

from .engine import STOPLINE_STANDOFF, run_scenario
from .metrics import evaluate_trace
from .scenarios import (
    PAIRED_SPECS,
    LightSpec,
    NpcSpec,
    ScenarioScript,
    benchmark_suite,
    resolve_script,
    scenario_by_id,
    script_from_dict,
    script_to_dict,
)

__all__ = [
    "PAIRED_SPECS",
    "LightSpec",
    "NpcSpec",
    "STOPLINE_STANDOFF",
    "ScenarioScript",
    "benchmark_suite",
    "evaluate_trace",
    "resolve_script",
    "run_scenario",
    "scenario_by_id",
    "script_from_dict",
    "script_to_dict",
]
