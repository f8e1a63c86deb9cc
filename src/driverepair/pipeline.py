"""End-to-end orchestration: analyze, localize, prompt, generate, replay,
report. `cmd_repair` builds every artifact in memory, then writes them all
into a run directory named `<record_id>_<digest>`, where the digest is the
first 12 hex digits of the sha256 over each (relative path, bytes) pair in
path order, each part preceded by its length. Equal bytes share a directory,
and any changed byte (a live backend's new answer, say) names a new one
instead of overwriting. A run that raises writes nothing, and a run whose
record already satisfies the spec still writes and reports its directory.
Each distinct candidate program is written once, as `candidates/<stem>.mud`,
and replayed once, into `replays/<stem>.jsonl`; candidates share both files.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .localizer import DEFAULT_DELTA, locate, require_delta
from .mudrive import pretty_print
from .promptgen import PromptBundle, build_prompt
from .repair_llm import MockBackend, batch_generate
from .simulator import (
    PAIRED_SPECS,
    evaluate_trace,
    resolve_script,
    run_scenario,
)
from .simulator.engine import OUTCOME_REACHED
from .spec_lang import parse_spec, resolve_spec, robustness
from .trace_model import build_trace, load_record, record_bytes

REPORT_VERSION = 2

NO_COLLISION = "no_collision"


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
    # any object with a `name` and `complete` (see repair_llm)
    backend: object = field(default_factory=MockBackend)

    def __post_init__(self):
        require_delta(self.delta)
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
    moments). A bad delta is refused before any of that work."""
    require_delta(delta)
    entry = resolve_spec(spec)
    frames = load_record(record)
    moments = locate(parse_spec(entry.stl), build_trace(frames), delta)
    return entry, frames, moments


def _write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _write_run(out_dir, record_id: str, files: dict, report: dict) -> dict:
    """Add report.json to `files` (relative path -> bytes), write them all
    into the run directory named by their digest (see the module docstring)
    and return the report with `run_dir` set."""
    files["report.json"] = json.dumps(report, indent=2).encode()
    paths = sorted(files)
    digest = hashlib.sha256()
    for path in paths:
        for part in (path.encode(), files[path]):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    run_dir = Path(out_dir) / f"{record_id}_{digest.hexdigest()[:12]}"
    for path in paths:
        _write(run_dir / path, files[path])
    report["run_dir"] = str(run_dir)
    return report


def _prompt_files(bundle: PromptBundle) -> dict:
    """The two moment images and the prompt text, as sent, by file name."""
    return {"near_miss.svg": bundle.images[0].encode(),
            "violation.svg": bundle.images[1].encode(),
            "prompt.txt": bundle.text.encode()}


def write_prompt(out_dir, bundle: PromptBundle):
    """Write the two moment images and the prompt text into `out_dir`."""
    for name, data in _prompt_files(bundle).items():
        _write(Path(out_dir) / name, data)


def _replay(script, program, phi, nc_phi, record=None):
    """Replay `program` on `script`; returns the report's replay entry, which
    names `record` as its record file, and the replayed frames. A replay is
    fixed when it keeps the spec, collides with nothing and reaches the
    destination."""
    frames, outcome = run_scenario(script, program)
    trace = build_trace(frames)
    rho_spec = robustness(phi, trace)
    rho_no_collision = robustness(nc_phi, trace)
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
    """Full pipeline; writes the run directory, report.json included, and
    returns the report with `run_dir` added. Candidates with one program
    share its `replay` and `metrics_delta` objects: treat them as read-only."""
    (spec_entry, phi, nc_phi, frames, record_id, script,
     baseline_outcome) = _prepare(cfg)
    files = {"record.jsonl": record_bytes(frames)}

    trace = build_trace(frames)
    rho_before = robustness(phi, trace)
    rho_nc_before = robustness(nc_phi, trace)
    baseline_metrics = evaluate_trace(frames)

    report = {
        "report_version": REPORT_VERSION,
        "record_id": record_id,
        "scenario": script.id if script else None,
        "spec": spec_entry.name,
        "spec_stl": spec_entry.stl,
        "delta": cfg.delta,
        "backend": cfg.backend.name,
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
        return _write_run(cfg.out_dir, record_id, files, report)

    moments = locate(phi, trace, cfg.delta)
    rhos = moments.prefix_rho
    if any(b > a for a, b in zip(rhos, rhos[1:])):
        report["notes"].append(
            "prefix robustness is non-monotone for this spec; the reported"
            " moments are the first crossings")

    bundle = build_prompt(moments, frames, spec_entry.prose)
    files.update((f"prompt/{name}", data)
                 for name, data in _prompt_files(bundle).items())
    report["moments"] = {
        "violation_step": moments.violation_step,
        "near_miss_step": moments.near_miss_step,
        "gap_seconds": moments.gap_seconds,
        "prefix_rho": list(rhos),
    }
    report["prompt"] = {
        "text": "prompt/prompt.txt",
        "images": ["prompt/near_miss.svg", "prompt/violation.svg"],
    }

    batch = batch_generate(bundle, cfg.n, cfg.backend, cfg.base_seed)

    # One program file and one replay per distinct program, in first-seen
    # order, named by the digest of the program text. Candidates with the
    # same program share both files and the one report entry built for it.
    shared = {}
    for program in dict.fromkeys(cand.program for cand in batch.candidates):
        text = pretty_print(program).encode()
        stem = hashlib.sha256(text).hexdigest()[:12]
        files[f"candidates/{stem}.mud"] = text
        doc = shared[program] = {"program_file": f"candidates/{stem}.mud",
                                 "replay": None, "metrics_delta": None}
        if script is None:
            continue
        record = f"replays/{stem}.jsonl"
        replay, replay_frames = _replay(script, program, phi, nc_phi, record)
        files[record] = record_bytes(replay_frames)
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
                   **shared[cand.program]}
                  for i, cand in enumerate(batch.candidates)]
    fixed_count = sum(c["replay"]["fixed"] for c in candidates if c["replay"])

    report["candidates"] = candidates
    report["generation_failures"] = [
        {"seed": seed, "error": msg} for seed, msg in batch.failures]
    report["distinct_programs"] = batch.distinct_programs
    report["total_cost_usd"] = batch.total_cost_usd

    if script is not None:
        report["fix_rate"] = fixed_count / len(candidates) if candidates else 0.0
        report["status"] = "repaired" if fixed_count else "unfixed"
    else:
        report["fix_rate"] = None
        report["status"] = "generated"
        report["notes"].append("no scenario available; candidates were not"
                               " replay-verified")

    return _write_run(cfg.out_dir, record_id, files, report)


def cmd_sweep_delta(cfg: PipelineConfig, deltas) -> dict:
    """Near-miss step and one-candidate fix verdict per threshold."""
    if not deltas:
        raise ValueError("need at least one delta")
    deltas = [require_delta(delta) for delta in deltas]
    spec_entry, phi, nc_phi, frames, record_id, script, _ = _prepare(cfg)
    base = locate(phi, build_trace(frames), cfg.delta)

    fixed = {}      # program -> verdict, so each is replayed once
    rows = []
    for delta in deltas:
        moments = replace(base, delta=delta)
        row = {"delta": delta,
               "near_miss_step": moments.near_miss_step,
               "violation_step": moments.violation_step,
               "fixed": None}
        if moments.located and script is not None:
            bundle = build_prompt(moments, frames, spec_entry.prose)
            batch = batch_generate(bundle, 1, cfg.backend, cfg.base_seed)
            if batch.candidates:
                program = batch.candidates[0].program
                if program not in fixed:
                    fixed[program] = _replay(script, program, phi,
                                             nc_phi)[0]["fixed"]
                row["fixed"] = fixed[program]
        rows.append(row)
    return {"record_id": record_id, "spec": spec_entry.name, "rows": rows}
