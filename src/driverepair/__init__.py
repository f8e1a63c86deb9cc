"""Driving-trace analysis, violation localization, and strategy repair."""

__version__ = "0.1.0"

from .localizer import CriticalMoments, locate, moment_frames
from .spec_lang import builtin_specs, parse_spec, robustness
from .trace_model import (
    RawRecordFrame,
    Scene,
    SignalVar,
    Trace,
    build_trace,
    load_record,
    save_record,
)

__all__ = [
    "CriticalMoments",
    "RawRecordFrame",
    "Scene",
    "SignalVar",
    "Trace",
    "build_trace",
    "builtin_specs",
    "load_record",
    "locate",
    "moment_frames",
    "parse_spec",
    "robustness",
    "save_record",
]
