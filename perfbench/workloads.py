"""The benchmark workloads.

Each workload makes its inputs from the seed (`prepare`), warms the program
up, and then runs timed passes. A pass is a list of timed parts, mostly
items: one scenario repair, one (record, spec) check or one replay. Output
checks run after a pass, outside its timing, and report one verdict per
item plus run-level verdicts.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from driverepair import localizer, mudrive, pipeline, simulator, spec_lang
from driverepair import trace_model
from driverepair.simulator import engine

import gen
import speed

SCENARIOS = tuple(f"S{i}" for i in range(1, 9))
OUTCOMES = frozenset({engine.OUTCOME_REACHED, engine.OUTCOME_COLLIDED,
                      engine.OUTCOME_TIMEOUT})
REPAIR_N = 20
DELTA = 15.0
PROGRAMS_PER_SCENARIO = 14      # 8 x 14 = 112 replays, enough for a p90


@dataclass
class Part:
    """One timed part of a pass: an item, or work that later items share."""
    label: str
    seconds: float
    payload: object = None      # what the output checks need
    error: str | None = None
    is_item: bool = True
    ref: float = speed.REFERENCE_S  # kernel seconds around the part

    @property
    def ref_seconds(self) -> float:
        """The part's time at the reference speed (see speed.py)."""
        return speed.at_reference(self.seconds, self.ref)


def _timed(clock, label, fn, is_item=True):
    watch = clock.stopwatch()
    try:
        with watch:
            payload = fn()
    except Exception as exc:    # an item that raises is a failed operation
        return Part(label, watch.seconds, is_item=is_item, ref=watch.ref,
                    error=f"{type(exc).__name__}: {exc}")
    return Part(label, watch.seconds, payload, is_item=is_item, ref=watch.ref)


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class RepairSuite:
    """`cmd_repair` over S1..S8 with their paired specs, mock backend, n=20."""

    name = "repair_suite"

    def prepare(self, seed: int, work: Path):
        scripts = {sid: simulator.scenario_by_id(sid) for sid in SCENARIOS}
        doc = {sid: {"spec": simulator.PAIRED_SPECS[sid],
                     "script": simulator.script_to_dict(s)}
               for sid, s in scripts.items()}
        return {"seed": seed,
                "fingerprint": json.dumps(doc, sort_keys=True).encode()}

    def _repair(self, inputs, sid, out: Path):
        return pipeline.cmd_repair(pipeline.PipelineConfig(
            spec=simulator.PAIRED_SPECS[sid], scenario=sid, n=REPAIR_N,
            base_seed=inputs["seed"], out_dir=str(out)))

    def warm_up(self, inputs, work: Path):
        pipeline.cmd_repair(pipeline.PipelineConfig(
            spec=simulator.PAIRED_SPECS["S5"], scenario="S5", n=1,
            base_seed=inputs["seed"], out_dir=str(work / "warm")))

    def run_pass(self, inputs, out: Path, clock):
        return [_timed(clock, sid,
                       lambda sid=sid: self._repair(inputs, sid, out))
                for sid in SCENARIOS]

    def check_pass(self, inputs, items, out: Path):
        """Every baseline violates its paired spec."""
        verdicts = []
        for item in items:
            report = item.payload
            verdicts.append(item.error is None
                            and report["status"] != "no_violation"
                            and report["baseline"]["rho_spec"] <= 0)
        return verdicts

    def check_run(self, inputs, pass_items, pass_dirs):
        """Each scenario's run directory hashes the same in every pass."""
        verdicts = []
        for k, sid in enumerate(SCENARIOS):
            digests = set()
            for items, out in zip(pass_items, pass_dirs):
                report = items[k].payload
                if items[k].error is not None:
                    digests.add(None)
                    continue
                rel = Path(report["run_dir"]).relative_to(out)
                digests.add((rel.as_posix(), tree_digest(out / rel)))
            verdicts.append(len(digests) == 1 and None not in digests)
        return verdicts

    def quality(self, items):
        cands = [c for item in items if item.error is None
                 for c in item.payload["candidates"]]
        fixed = sum(1 for c in cands if c["replay"]["fixed"])
        tokens = sum(c["input_tokens"] + c["output_tokens"] for c in cands)
        return {"fix_rate": (fixed / len(cands) if cands else 0.0, "ratio"),
                "tokens_per_candidate": (tokens / len(cands) if cands else 0.0,
                                         "count")}


class AnalyzeLong:
    """`load_record`, `build_trace`, then `robustness` and `locate` for ten
    specs on long seeded records (the `driverepair localize` traffic)."""

    name = "analyze_long"

    def prepare(self, seed: int, work: Path):
        rec_dir = work / "records"
        rec_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        records = []
        for i in range(len(gen.LONG_ROUTES_M)):
            doc = gen.long_script_doc(seed, i)
            digest.update(json.dumps(doc, sort_keys=True).encode())
            frames, _ = simulator.run_scenario(simulator.script_from_dict(doc))
            path = rec_dir / f"{doc['id']}.jsonl"
            trace_model.save_record(frames, path)
            digest.update(path.read_bytes())
            records.append(path)
        specs = [(e.name, spec_lang.parse_spec(e.stl))
                 for e in spec_lang.BUILTIN_SPEC_ENTRIES]
        for name, text in gen.until_spec_texts(seed).items():
            path = work / f"{name}.spec"
            path.write_text(text, encoding="utf-8")
            digest.update(text.encode())
            entry = spec_lang.resolve_spec(path)
            specs.append((entry.name, spec_lang.parse_spec(entry.stl)))
        return {"records": records, "specs": specs,
                "fingerprint": digest.digest()}

    def warm_up(self, inputs, work: Path):
        frames = trace_model.load_record(inputs["records"][0])[:200]
        trace = trace_model.build_trace(frames)
        for _, phi in inputs["specs"]:
            spec_lang.robustness(phi, trace)
            localizer.locate(phi, trace, DELTA)

    def _check(self, phi, trace):
        rho = spec_lang.robustness(phi, trace)
        return phi, trace, rho, localizer.locate(phi, trace, DELTA)

    def run_pass(self, inputs, out: Path, clock):
        items = []
        for path in inputs["records"]:
            load = _timed(clock, f"{path.stem}:load", lambda path=path:
                          trace_model.build_trace(trace_model.load_record(path)),
                          is_item=False)
            items.append(load)
            for name, phi in inputs["specs"]:
                items.append(_timed(clock, f"{path.stem}:{name}",
                                    lambda phi=phi: self._check(phi,
                                                                load.payload)))
        return items

    def check_pass(self, inputs, items, out: Path):
        """A located violation is the first crossing, and a violated record
        has a located violation."""
        verdicts = []
        for item in items:
            # Free the traces, so peak RSS does not grow with the pass count.
            payload, item.payload = item.payload, None
            if item.error is not None:
                verdicts.append(False)
                continue
            if not item.is_item:
                continue
            phi, trace, rho, moments = payload
            v = moments.violation_step
            if v is None:
                verdicts.append(rho > 0)
                continue
            verdicts.append(
                spec_lang.robustness_bounded(phi, trace, v) <= 0
                and (v == 0
                     or spec_lang.robustness_bounded(phi, trace, v - 1) > 0))
        return verdicts

    def check_run(self, inputs, pass_items, pass_dirs):
        return []

    def quality(self, items):
        return {}


class ReplayDistinct:
    """S1..S8 each replayed under distinct seeded random programs (the
    `driverepair sim run --repair` traffic)."""

    name = "replay_distinct"

    def prepare(self, seed: int, work: Path):
        programs = gen.random_programs(seed, SCENARIOS, PROGRAMS_PER_SCENARIO)
        builtin = spec_lang.builtin_specs()
        return {"programs": programs,
                "scripts": {sid: simulator.scenario_by_id(sid)
                            for sid in SCENARIOS + ("empty",)},
                "specs": {sid: builtin[simulator.PAIRED_SPECS[sid]]
                          for sid in SCENARIOS},
                "no_collision": builtin["no_collision"],
                "fingerprint": json.dumps(programs).encode()}

    def _replay(self, inputs, sid, doc, phi):
        program = mudrive.from_json(doc)
        problems = mudrive.validate(program)
        frames, outcome = simulator.run_scenario(inputs["scripts"][sid],
                                                 program)
        trace = trace_model.build_trace(frames)
        rho = spec_lang.robustness(phi, trace)
        rho_nc = spec_lang.robustness(inputs["no_collision"], trace)
        simulator.evaluate_trace(frames)
        return problems, outcome, rho > 0 and rho_nc > 0

    def warm_up(self, inputs, work: Path):
        _, doc = inputs["programs"][0]
        self._replay(inputs, "empty", doc, inputs["no_collision"])

    def run_pass(self, inputs, out: Path, clock):
        return [_timed(clock, f"{sid}#{k}",
                       lambda sid=sid, doc=doc: self._replay(
                           inputs, sid, doc, inputs["specs"][sid]))
                for k, (sid, doc) in enumerate(inputs["programs"])]

    def check_pass(self, inputs, items, out: Path):
        """Every program validates and every outcome is a known one."""
        return [item.error is None and not item.payload[0]
                and item.payload[1] in OUTCOMES for item in items]

    def check_run(self, inputs, pass_items, pass_dirs):
        return []

    def quality(self, items):
        done = [item for item in items if item.error is None]
        fixed = sum(1 for item in done if item.payload[2])
        return {"fix_rate": (fixed / len(done) if done else 0.0, "ratio")}


WORKLOADS = {w.name: w for w in (RepairSuite(), AnalyzeLong(), ReplayDistinct())}
