"""In-memory span tracing of the public functions of `driverepair` modules.

`Tracer.install()` replaces each traced function at every place that binds
its name: the defining module, every module that imported it with
`from ... import`, and the package `__init__` files. `Tracer.remove()` puts
the originals back. Nothing under `src/` is edited.

A span is (name, start, end, parent). Spans live in flat arrays while the
run goes and are written out once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from driverepair import geometry, localizer, pipeline, promptgen, repair_llm
from driverepair import spec_lang, trace_model
from driverepair.mudrive import runtime, schema
from driverepair.simulator import engine, metrics

# The package re-exports the function `validate` under its module's name.
validate_mod = importlib.import_module("driverepair.mudrive.validate")


class Counters:
    """Work counts gathered from the arguments and results of traced calls."""

    def __init__(self):
        self.ticks = 0
        self.replay_keys = set()
        self.frames_loaded = 0
        self.save_bytes = 0
        self.prefixes = 0
        self.robustness_steps = 0
        self.prompt_chars = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self.candidates = 0
        self.gen_failures = 0
        self.replayed = 0
        self.fixed = 0
        self.files_written = 0
        self.bytes_written = 0


def _on_cmd_repair(c, args, kwargs, result):
    for cand in result["candidates"]:
        if cand["replay"] is not None:
            c.replayed += 1
            c.fixed += cand["replay"]["fixed"]
    for path in Path(result["run_dir"]).rglob("*"):
        if path.is_file():
            c.files_written += 1
            c.bytes_written += path.stat().st_size


def _on_run_scenario(c, args, kwargs, result):
    script = args[0]
    program = args[1] if len(args) > 1 else kwargs.get("program")
    base = args[2] if len(args) > 2 else kwargs.get("base")
    c.replay_keys.add((script, program, base))
    c.ticks += len(result[0])


def _on_load_record(c, args, kwargs, result):
    c.frames_loaded += len(result)


def _on_save_record(c, args, kwargs, result):
    c.save_bytes += os.path.getsize(args[1])


def _on_locate(c, args, kwargs, result):
    c.prefixes += len(result.prefix_rho)


def _on_robustness(c, args, kwargs, result):
    c.robustness_steps += len(args[1])


def _on_robustness_bounded(c, args, kwargs, result):
    c.robustness_steps += args[2] + 1


def _on_build_prompt(c, args, kwargs, result):
    c.prompt_chars += len(result.text) + sum(len(img) for img in result.images)


def _on_batch_generate(c, args, kwargs, result):
    c.candidates += len(result.candidates)
    c.gen_failures += len(result.failures)
    c.tokens_in += sum(cand.input_tokens for cand in result.candidates)
    c.tokens_out += sum(cand.output_tokens for cand in result.candidates)


# (span name, owner, attribute, counter hook). Owner is the defining module
# or, for a method, its class.
TARGETS = (
    ("pipeline.cmd_repair", pipeline, "cmd_repair", _on_cmd_repair),
    ("simulator.run_scenario", engine, "run_scenario", _on_run_scenario),
    ("simulator.metrics.evaluate_trace", metrics, "evaluate_trace", None),
    ("trace_model.scene_from_frame", trace_model, "scene_from_frame", None),
    ("trace_model.build_trace", trace_model, "build_trace", None),
    ("trace_model.save_record", trace_model, "save_record", _on_save_record),
    ("trace_model.load_record", trace_model, "load_record", _on_load_record),
    ("geometry.obb_distance", geometry, "obb_distance", None),
    ("localizer.locate", localizer, "locate", _on_locate),
    ("spec_lang.robustness", spec_lang, "robustness", _on_robustness),
    ("spec_lang.robustness_bounded", spec_lang, "robustness_bounded",
     _on_robustness_bounded),
    ("mudrive.step_rules", runtime, "step_rules", None),
    ("mudrive.validate", validate_mod, "validate", None),
    ("mudrive.from_json", schema, "from_json", None),
    ("promptgen.build_prompt", promptgen, "build_prompt", _on_build_prompt),
    ("repair_llm.batch_generate", repair_llm, "batch_generate",
     _on_batch_generate),
    ("repair_llm.generate_repair", repair_llm, "generate_repair", None),
    ("repair_llm.backend_complete", repair_llm.MockBackend, "complete", None),
)


def bindings(func):
    """Every (module, attribute) in `driverepair` that is bound to func."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "driverepair"
                               or name.startswith("driverepair.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is func:
                found.append((mod, attr))
    return found


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counters()
        self._stack = [-1]
        self._patched = []      # (owner, attribute, original)

    def _wrap(self, idx, func, hook):
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(name_idx)
            name_idx.append(idx)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        for idx, (_, owner, attr, hook) in enumerate(TARGETS):
            original = vars(owner)[attr]
            traced = self._wrap(idx, original, hook)
            sites = ([(owner, attr)] if isinstance(owner, type)
                     else bindings(original))
            for site, site_attr in sites:
                setattr(site, site_attr, traced)
                self._patched.append((site, site_attr, original))

    def remove(self):
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def totals(self):
        """name -> (calls, busy seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans; calls into traced functions are strictly nested, so
        children never overlap.
        """
        idx, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = idx == i
            out[name] = (int(sel.sum()), float(dur[sel].sum()),
                         float(own[sel].sum()))
        return out

    def write(self, path):
        idx, parent, start, end = self.arrays()
        np.savez(path, name=idx, parent=parent, start=start, end=end,
                 names=np.array(self.names))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    t = tracer.totals()
    c = tracer.counters
    sim_calls, sim_busy, sim_self = t["simulator.run_scenario"]
    scene_calls, scene_busy, _ = t["trace_model.scene_from_frame"]
    loc_calls, loc_busy, _ = t["localizer.locate"]
    rob_calls = (t["spec_lang.robustness"][0]
                 + t["spec_lang.robustness_bounded"][0])
    rob_busy = (t["spec_lang.robustness"][1]
                + t["spec_lang.robustness_bounded"][1])
    attempts = t["repair_llm.backend_complete"][0]
    requests = t["repair_llm.generate_repair"][0]
    frames = c.ticks + c.frames_loaded
    return {
        "simulator.calls": (sim_calls, "count"),
        "simulator.busy_s": (sim_busy, "s"),
        "simulator.self_s": (sim_self, "s"),
        "simulator.ticks": (c.ticks, "count"),
        "simulator.us_per_tick": (_ratio(sim_busy, c.ticks) * 1e6, "us"),
        "simulator.distinct_ratio": (_ratio(len(c.replay_keys), sim_calls),
                                     "ratio"),
        "simulator.metrics.busy_s": (t["simulator.metrics.evaluate_trace"][1],
                                     "s"),
        "trace_model.scene_calls": (scene_calls, "count"),
        "trace_model.scenes_per_frame": (_ratio(scene_calls, frames), "ratio"),
        "trace_model.scene_us": (_ratio(scene_busy, scene_calls) * 1e6, "us"),
        "trace_model.build_trace_s": (t["trace_model.build_trace"][1], "s"),
        "trace_model.save_record_s": (t["trace_model.save_record"][1], "s"),
        "trace_model.save_record_mb": (c.save_bytes / 1e6, "MB"),
        "trace_model.load_record_s": (t["trace_model.load_record"][1], "s"),
        "geometry.obb_distance_calls": (t["geometry.obb_distance"][0], "count"),
        "geometry.obb_distance_s": (t["geometry.obb_distance"][1], "s"),
        "localizer.calls": (loc_calls, "count"),
        "localizer.busy_s": (loc_busy, "s"),
        "localizer.prefixes": (c.prefixes, "count"),
        "localizer.us_per_prefix": (_ratio(loc_busy, c.prefixes) * 1e6, "us"),
        "spec_lang.robustness_calls": (rob_calls, "count"),
        "spec_lang.robustness_s": (rob_busy, "s"),
        "spec_lang.us_per_step": (_ratio(rob_busy, c.robustness_steps) * 1e6,
                                  "us"),
        "mudrive.step_rules_calls": (t["mudrive.step_rules"][0], "count"),
        "mudrive.step_rules_s": (t["mudrive.step_rules"][1], "s"),
        "mudrive.validate_s": (t["mudrive.validate"][1], "s"),
        "mudrive.from_json_s": (t["mudrive.from_json"][1], "s"),
        "promptgen.busy_s": (t["promptgen.build_prompt"][1], "s"),
        "promptgen.prompt_chars": (c.prompt_chars, "count"),
        "repair_llm.busy_s": (t["repair_llm.batch_generate"][1], "s"),
        "repair_llm.attempts": (attempts, "count"),
        "repair_llm.retries": (attempts - requests, "count"),
        "repair_llm.failures": (c.gen_failures, "count"),
        "repair_llm.useful_ratio": (_ratio(c.candidates, attempts), "ratio"),
        "repair_llm.tokens_in": (c.tokens_in, "count"),
        "repair_llm.tokens_out": (c.tokens_out, "count"),
        "repair_llm.tokens_per_candidate": (
            _ratio(c.tokens_in + c.tokens_out, c.candidates), "count"),
        "pipeline.busy_s": (t["pipeline.cmd_repair"][1], "s"),
        "pipeline.self_s": (t["pipeline.cmd_repair"][2], "s"),
        "pipeline.files_written": (c.files_written, "count"),
        "pipeline.bytes_written": (c.bytes_written, "bytes"),
        "pipeline.fix_rate": (_ratio(c.fixed, c.replayed), "ratio"),
        "tracing.spans": (len(tracer.name_idx), "count"),
    }
