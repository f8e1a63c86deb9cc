"""End-to-end orchestration: analyze, localize, prompt, generate, replay,
report. Every stage persists its artifact under a content-addressed run
directory, so reruns with identical inputs rewrite identical bytes. Each
distinct candidate program is written once, as `candidates/<stem>.mud`, and
replayed once, into `replays/<stem>.jsonl`; candidates share both files.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .localizer import DEFAULT_DELTA, first_at_or_below, locate
from .mudrive import DEFAULT_PARAMS, pretty_print
from .mudrive.schema import schema_json
from .promptgen import PromptBundle, build_prompt, bundle_to_json
from .repair_llm import MAX_ATTEMPTS, TEMPERATURE, BackendConfig
from .repair_llm import batch_generate, make_backend
from .simulator import (
    PAIRED_SPECS,
    evaluate_trace,
    resolve_script,
    run_scenario,
    script_to_dict,
)
from .simulator.engine import OUTCOME_REACHED
from .spec_lang import parse_spec, resolve_spec, robustness
from .trace_model import build_trace, frame_to_line, load_record

REPORT_VERSION = 2

NO_COLLISION = "no_collision"


class PipelineError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    spec: str | None = None               # built-in name or spec-file path;
                                          # None: the scenario's paired spec
    record: str | None = None             # existing record to analyze
    scenario: str | None = None           # built-in id or scenario JSON
                                          # path, for baseline + replays
    delta: float = DEFAULT_DELTA
    n: int = 20
    base_seed: int = 0
    out_dir: str = "runs"
    backend: BackendConfig = field(default_factory=BackendConfig)

    def __post_init__(self):
        if not self.delta >= 0:     # also rejects NaN
            raise ValueError(f"delta must be non-negative, got {self.delta!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        if not (self.record or self.scenario):
            raise ValueError("need a record path or a scenario")
        if self.spec is None:
            if self.scenario not in PAIRED_SPECS:
                if self.scenario:
                    resolve_script(self.scenario)   # names an unknown one
                raise ValueError("need a spec: only the scenarios"
                                 f" {sorted(PAIRED_SPECS)} have a paired one")
            self.spec = PAIRED_SPECS[self.scenario]


def locate_record(record, spec: str, delta: float):
    """Load a record and locate its moments; returns (spec entry, frames,
    moments)."""
    entry = resolve_spec(spec)
    frames = load_record(record)
    moments = locate(parse_spec(entry.stl), build_trace(frames), delta)
    return entry, frames, moments


@functools.cache
def _program_schema() -> str:
    """The program schema text that every backend receives."""
    return schema_json()


def _run_key(cfg: PipelineConfig, script, record_bytes: bytes,
             spec_stl: str) -> str:
    """Hash of every input that shapes the run directory's bytes."""
    backend = asdict(cfg.backend)
    del backend["api_key_env"]      # names where the key is, not what it is
    backend.update(max_retries=MAX_ATTEMPTS, temperature=TEMPERATURE)
    h = hashlib.sha256(record_bytes)
    h.update(json.dumps({
        "report_version": REPORT_VERSION,
        "program_schema": _program_schema(),
        "spec": spec_stl,
        "script": script_to_dict(script) if script is not None else None,
        "delta": cfg.delta,
        "n": cfg.n,
        "base_seed": cfg.base_seed,
        "params": asdict(DEFAULT_PARAMS),
        "backend": backend,
    }, sort_keys=True).encode())
    return h.hexdigest()[:12]


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2)


def _record_text(frames) -> str:
    return "".join(frame_to_line(f) for f in frames)


def write_prompt(out_dir, bundle: PromptBundle):
    """Write the two moment images and the bundle JSON into `out_dir`."""
    out = Path(out_dir)
    _write(out / "near_miss.svg", bundle.images[0])
    _write(out / "violation.svg", bundle.images[1])
    _write(out / "bundle.json", bundle_to_json(bundle))


def _replay(script, program, phi, nc_phi, record=None):
    """Replay `program` on `script`; returns the report's replay entry, which
    names `record` as its record file, and the replayed frames. A replay is
    fixed when it keeps the spec, collides with nothing and reaches the
    destination."""
    frames, outcome = run_scenario(script, program)
    trace = build_trace(frames)
    rho_spec = robustness(phi, trace, 0)
    rho_no_collision = robustness(nc_phi, trace, 0)
    return {"outcome": outcome,
            "rho_spec": rho_spec,
            "rho_no_collision": rho_no_collision,
            "fixed": (rho_spec > 0 and rho_no_collision > 0
                      and outcome == OUTCOME_REACHED),
            "record": record,
            "metrics": evaluate_trace(frames)}, frames


def _prepare(cfg: PipelineConfig):
    """Returns (spec entry, formula, no-collision formula, frames, record id,
    script, baseline outcome); the outcome is None for a loaded record."""
    entry = resolve_spec(cfg.spec)
    phi = parse_spec(entry.stl)
    nc_phi = parse_spec(resolve_spec(NO_COLLISION).stl)
    script = resolve_script(cfg.scenario) if cfg.scenario else None
    if cfg.record:
        return (entry, phi, nc_phi, load_record(cfg.record),
                Path(cfg.record).stem, script, None)
    frames, outcome = run_scenario(script)
    return entry, phi, nc_phi, frames, script.id, script, outcome


def cmd_repair(cfg: PipelineConfig) -> dict:
    """Full pipeline; always writes report.json and returns the report."""
    (spec_entry, phi, nc_phi, frames, record_id, script,
     baseline_outcome) = _prepare(cfg)

    record_lines = _record_text(frames)
    key = _run_key(cfg, script, record_lines.encode(), spec_entry.stl)
    run_dir = Path(cfg.out_dir) / f"{record_id}_{key}"
    _write(run_dir / "record.jsonl", record_lines)

    trace = build_trace(frames)
    rho_before = robustness(phi, trace, 0)
    rho_nc_before = robustness(nc_phi, trace, 0)
    baseline_metrics = evaluate_trace(frames)

    report = {
        "report_version": REPORT_VERSION,
        "record_id": record_id,
        "scenario": script.id if script else None,
        "spec": spec_entry.name,
        "spec_stl": spec_entry.stl,
        "delta": cfg.delta,
        "backend": cfg.backend.backend,
        "n": cfg.n,
        "baseline": {
            "outcome": baseline_outcome,
            "rho_spec": rho_before,
            "rho_no_collision": rho_nc_before,
            "metrics": baseline_metrics,
        },
        "notes": [],
    }

    if rho_before > 0:
        report["status"] = "no_violation"
        report["candidates"] = []
        report["fix_rate"] = None
        report["total_cost_usd"] = 0.0
        _write(run_dir / "report.json", _json_dump(report))
        return report

    moments = locate(phi, trace, cfg.delta)
    if not moments.located:
        raise PipelineError("trace violates the spec but no moments were"
                            " located; cannot continue")
    rhos = moments.prefix_rho
    if any(b > a for a, b in zip(rhos, rhos[1:])):
        report["notes"].append(
            "prefix robustness is non-monotone for this spec; the reported"
            " moments are the first crossings")

    bundle = build_prompt(moments, frames, spec_entry.name, spec_entry.prose,
                          record_id=record_id)
    write_prompt(run_dir / "prompt", bundle)
    report["moments"] = {
        "violation_step": moments.violation_step,
        "near_miss_step": moments.near_miss_step,
        "gap_seconds": bundle.meta["gap_seconds"],
        "prefix_rho": list(rhos),
    }
    report["prompt"] = {
        "bundle": "prompt/bundle.json",
        "images": ["prompt/near_miss.svg", "prompt/violation.svg"],
    }

    backend = make_backend(cfg.backend)
    batch = batch_generate(bundle, cfg.n, cfg.backend, backend=backend,
                           base_seed=cfg.base_seed)

    # One program file and one replay per distinct program, in first-seen
    # order, named by the digest of the program text. Candidates with the
    # same program share both files and every report field they shape.
    shared = {}
    for program in dict.fromkeys(cand.program for cand in batch.candidates):
        text = pretty_print(program)
        stem = hashlib.sha256(text.encode()).hexdigest()[:12]
        _write(run_dir / "candidates" / f"{stem}.mud", text)
        doc = shared[program] = {"program_file": f"candidates/{stem}.mud",
                                 "replay": None, "metrics_delta": None}
        if script is None:
            continue
        record = f"replays/{stem}.jsonl"
        replay, replay_frames = _replay(script, program, phi, nc_phi, record)
        _write(run_dir / record, _record_text(replay_frames))
        doc["replay"] = replay
        doc["metrics_delta"] = {
            key: (replay["metrics"][key] - baseline_metrics[key])
            for key in ("avg_speed_ms", "max_speed_ms", "stop_time_s",
                        "energy_j")
        }

    candidates = [{"index": i, "seed": cand.seed, "attempts": cand.attempts,
                   "input_tokens": cand.input_tokens,
                   "output_tokens": cand.output_tokens,
                   "cost_usd": cand.cost_usd,
                   **copy.deepcopy(shared[cand.program])}
                  for i, cand in enumerate(batch.candidates)]
    costs = [{key: c[key] for key in ("index", "seed", "input_tokens",
                                      "output_tokens", "cost_usd")}
             for c in candidates]
    fixed_count = sum(c["replay"]["fixed"] for c in candidates if c["replay"])

    report["candidates"] = candidates
    report["generation_failures"] = [
        {"seed": seed, "error": msg} for seed, msg in batch.failures]
    report["distinct_programs"] = batch.distinct_programs
    report["total_cost_usd"] = batch.total_cost_usd
    _write(run_dir / "costs.json", _json_dump(costs))

    if script is not None:
        report["fix_rate"] = fixed_count / len(candidates) if candidates else 0.0
        report["status"] = "repaired" if fixed_count else "unfixed"
    else:
        report["fix_rate"] = None
        report["status"] = "generated"
        report["notes"].append("no scenario available; candidates were not"
                               " replay-verified")

    _write(run_dir / "report.json", _json_dump(report))
    report["run_dir"] = str(run_dir)
    return report


def cmd_sweep_delta(cfg: PipelineConfig, deltas) -> dict:
    """Near-miss step and one-candidate fix verdict per threshold."""
    if not deltas:
        raise ValueError("need at least one delta")
    spec_entry, phi, nc_phi, frames, record_id, script, _ = _prepare(cfg)
    base = locate(phi, build_trace(frames), cfg.delta)
    backend = make_backend(cfg.backend)

    fixed = {}      # program -> verdict, so each is replayed once
    rows = []
    for delta in deltas:
        moments = replace(base, delta=delta, near_miss_step=first_at_or_below(
            base.prefix_rho, delta))
        row = {"delta": delta,
               "near_miss_step": moments.near_miss_step,
               "violation_step": moments.violation_step,
               "fixed": None}
        if moments.located and script is not None:
            bundle = build_prompt(moments, frames, spec_entry.name,
                                  spec_entry.prose, record_id=record_id)
            batch = batch_generate(bundle, 1, cfg.backend, backend=backend,
                                   base_seed=cfg.base_seed)
            if batch.candidates:
                program = batch.candidates[0].program
                if program not in fixed:
                    fixed[program] = _replay(script, program, phi,
                                             nc_phi)[0]["fixed"]
                row["fixed"] = fixed[program]
        rows.append(row)
    return {"record_id": record_id, "spec": spec_entry.name, "rows": rows}
