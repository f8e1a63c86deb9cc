import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

from conftest import ramp_frames

from driverepair import pipeline
from driverepair.cli import main
from driverepair.localizer import locate
from driverepair.mudrive import PlannerParams, catalog, parse_program
from driverepair.pipeline import PipelineConfig, cmd_repair, cmd_sweep_delta
from driverepair.repair_llm import (
    API_KEY_ENV,
    MAX_ATTEMPTS,
    LiveBackend,
    MockBackend,
    cost_usd,
)
from driverepair.simulator import (
    PAIRED_SPECS,
    run_scenario,
    scenario_by_id,
    script_to_dict,
)
from driverepair.spec_lang import BUILTIN_SPEC_ENTRIES, parse_spec, resolve_spec
from driverepair.trace_model import build_trace, save_record

GOLDEN_RUN_DIRS = Path(__file__).parent / "golden" / "run_dirs.txt"
GOLDEN_SCHEMA = Path(__file__).parent / "golden" / "program.schema.json"


def _tree(run_dir: Path) -> dict:
    """Relative path -> bytes of every file under a run directory."""
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in run_dir.rglob("*") if p.is_file()}


def _digest(tree: dict) -> str:
    """The run directory name's digest, recomputed from its files."""
    h = hashlib.sha256()
    for path, data in sorted(tree.items()):
        for part in (path.encode(), data):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()[:12]


class _MockWithEndpoint(MockBackend):
    """The mock, carrying a setting that a live backend would send."""

    def __init__(self, endpoint):
        self.endpoint = endpoint


@pytest.fixture(scope="module")
def s6_n1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    return cmd_repair(PipelineConfig(scenario="S6", n=1, out_dir=str(out)))


@pytest.fixture(scope="module")
def s6_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = PipelineConfig(spec="law46", scenario="S6", n=5, out_dir=str(out))
    return cmd_repair(cfg), out


class TestCmdRepair:
    def test_s6_all_candidates_fix(self, s6_report):
        report, _ = s6_report
        assert report["status"] == "repaired"
        assert report["fix_rate"] == 1.0
        assert report["total_cost_usd"] < 0.40
        assert len(report["candidates"]) == 5

    def test_costs_below_headline(self, s6_report):
        report, _ = s6_report
        for cand in report["candidates"]:
            assert cand["cost_usd"] < 0.08

    def test_artifacts_persisted(self, s6_report):
        report, out = s6_report
        run_dir = Path(report["run_dir"])
        assert (run_dir / "report.json").exists()
        assert (run_dir / "record.jsonl").exists()
        assert report["prompt"] == {
            "text": "prompt/prompt.txt",
            "images": ["prompt/near_miss.svg", "prompt/violation.svg"]}
        for path in (report["prompt"]["text"], *report["prompt"]["images"]):
            assert (run_dir / path).exists()
        # each candidate's cost lives in its report entry, and nowhere else
        assert not (run_dir / "costs.json").exists()
        for i, cand in enumerate(report["candidates"]):
            assert cand["index"] == i and cand["seed"] == i
            assert cand["cost_usd"] == cost_usd(cand["input_tokens"],
                                                cand["output_tokens"])
            assert (run_dir / cand["program_file"]).exists()
            assert (run_dir / cand["replay"]["record"]).exists()

    def test_run_dir_holds_each_fact_once(self, s6_report):
        # the record, the report, the prompt as sent, and one program and
        # one replay per distinct program
        report, _ = s6_report
        programs = {c["program_file"] for c in report["candidates"]}
        replays = {c["replay"]["record"] for c in report["candidates"]}
        assert len(programs) == len(replays) == report["distinct_programs"]
        assert sorted(_tree(Path(report["run_dir"]))) == sorted({
            "record.jsonl", "report.json", "prompt/near_miss.svg",
            "prompt/violation.svg", "prompt/prompt.txt", *programs, *replays})

    def test_prompt_text_is_what_the_backend_received(self, tmp_path):
        sent = []

        class Recording(MockBackend):
            def complete(self, bundle, schema, seed, feedback=()):
                sent.append((bundle.text, bundle.images))
                return super().complete(bundle, schema, seed, feedback)

        report = cmd_repair(PipelineConfig(
            scenario="S6", n=2, out_dir=str(tmp_path), backend=Recording()))
        files = _tree(Path(report["run_dir"]))
        assert len(sent) == 2
        assert set(sent) == {(files["prompt/prompt.txt"].decode(),
                              (files["prompt/near_miss.svg"].decode(),
                               files["prompt/violation.svg"].decode()))}

    def test_report_paths_are_relative(self, s6_report):
        report, _ = s6_report
        run_dir = Path(report["run_dir"])
        on_disk = json.loads((run_dir / "report.json").read_text())
        assert "run_dir" not in on_disk
        for cand in on_disk["candidates"]:
            assert not Path(cand["program_file"]).is_absolute()

    def test_rho_before_and_after_recorded(self, s6_report):
        report, _ = s6_report
        assert report["baseline"]["rho_spec"] <= 0
        for cand in report["candidates"]:
            assert cand["replay"]["rho_spec"] > 0
            assert cand["replay"]["rho_no_collision"] > 0
            assert cand["metrics_delta"] is not None

    def test_non_violating_record_short_circuits(self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("empty"))
        record = tmp_path / "empty.jsonl"
        save_record(frames, record)

        calls = []

        class CountingBackend:
            name = "counting"

            def complete(self, *args, **kwargs):
                calls.append(1)
                raise AssertionError("backend must not be called")

        report = cmd_repair(PipelineConfig(
            spec="no_collision", record=str(record), n=3,
            out_dir=str(tmp_path / "runs"), backend=CountingBackend()))
        assert report["status"] == "no_violation"
        assert report["candidates"] == []
        assert calls == []
        assert report["total_cost_usd"] == 0.0
        run_dir = Path(report["run_dir"])
        assert sorted(_tree(run_dir)) == ["record.jsonl", "report.json"]
        assert run_dir.name == f"empty_{_digest(_tree(run_dir))}"

    def test_failed_generation_cost_is_reported(self, tmp_path):
        class NotJson:
            name = "not-json"

            def complete(self, bundle, schema, seed, feedback=()):
                return "not json", (1000, 50)

        cfg = PipelineConfig(scenario="S6", n=2,
                             out_dir=str(tmp_path / "runs"),
                             backend=NotJson())
        report = cmd_repair(cfg)
        assert report["candidates"] == []
        assert len(report["generation_failures"]) == 2
        assert report["total_cost_usd"] == pytest.approx(
            2 * MAX_ATTEMPTS * cost_usd(1000, 50))
        on_disk = json.loads(
            (Path(report["run_dir"]) / "report.json").read_text())
        assert on_disk["total_cost_usd"] == report["total_cost_usd"]

    def test_record_without_scenario_is_not_replayed(self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("S6"))
        record = tmp_path / "s6.jsonl"
        save_record(frames, record)
        cfg = PipelineConfig(spec="law46", record=str(record), n=2,
                             out_dir=str(tmp_path / "runs"))
        report = cmd_repair(cfg)
        assert report["status"] == "generated"
        assert report["fix_rate"] is None
        assert all(c["replay"] is None for c in report["candidates"])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = PipelineConfig(spec="law46", scenario="S6", n=2,
                             out_dir=str(tmp_path / "runs"))
        report1 = cmd_repair(cfg)
        run_dir = Path(report1["run_dir"])
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        report2 = cmd_repair(cfg)
        assert report2["run_dir"] == report1["run_dir"]
        after = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert before == after

    def test_one_record_against_two_scripts_gets_two_run_dirs(self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("S1"))
        record = tmp_path / "s1.jsonl"
        save_record(frames, record)
        reports = [cmd_repair(PipelineConfig(
            spec=PAIRED_SPECS["S1"], record=str(record), scenario=sid, n=1,
            out_dir=str(tmp_path / "runs"))) for sid in ("S1", "S2")]
        assert reports[0]["run_dir"] != reports[1]["run_dir"]
        for report in reports:
            run_dir = Path(report["run_dir"])
            on_disk = json.loads((run_dir / "report.json").read_text())
            assert on_disk["scenario"] == report["scenario"]

    def test_run_dir_is_named_by_its_bytes(self, s6_n1_run):
        run_dir = Path(s6_n1_run["run_dir"])
        assert run_dir.name == f"S6_{_digest(_tree(run_dir))}"

    @pytest.mark.parametrize("config, patches", [
        ({}, {f"driverepair.{module}.DEFAULT_PARAMS":
              PlannerParams(cruise_speed_kmh=50.0)
              for module in ("simulator.engine", "mudrive.runtime",
                             "promptgen")}),
        # the schema goes to the backend and into the mock's token count
        ({}, {"driverepair.mudrive.catalog._DEFAULT":
              catalog.VocabularyCatalog(events=catalog.EVENTS[1:])}),
        ({}, {"driverepair.pipeline.REPORT_VERSION":
              pipeline.REPORT_VERSION + 1}),
        ({"base_seed": 1}, {}),
        ({"delta": 10.0}, {}),
    ], ids=["planner-defaults", "catalog-without-an-event", "report-version",
            "base-seed", "delta"])
    def test_changed_bytes_get_a_new_run_dir(self, s6_n1_run, tmp_path,
                                             monkeypatch, config, patches):
        for target, value in patches.items():
            monkeypatch.setattr(target, value)
        base_dir = Path(s6_n1_run["run_dir"])
        run_dir = Path(cmd_repair(PipelineConfig(
            scenario="S6", n=1, out_dir=str(tmp_path), **config))["run_dir"])
        assert run_dir.name != base_dir.name
        assert _tree(run_dir) != _tree(base_dir)
        assert run_dir.name == f"S6_{_digest(_tree(run_dir))}"

    @pytest.mark.parametrize("config, patches", [
        ({}, {"driverepair.repair_llm.MAX_ATTEMPTS": 5}),
        ({}, {"driverepair.repair_llm.TEMPERATURE": 0.7}),
        # a backend is read only for its name and its answers
        ({"backend": _MockWithEndpoint("http://localhost:8000/v1")}, {}),
        ({}, {API_KEY_ENV: "sk-test"}),
    ], ids=["max-attempts", "temperature", "endpoint", "api-key-env"])
    def test_unchanged_bytes_share_the_run_dir(self, s6_n1_run, tmp_path,
                                               monkeypatch, config, patches):
        # the mock backend answers alike whatever these say
        for target, value in patches.items():
            if target == API_KEY_ENV:
                monkeypatch.setenv(target, value)
            else:
                monkeypatch.setattr(target, value)
        base_dir = Path(s6_n1_run["run_dir"])
        run_dir = Path(cmd_repair(PipelineConfig(
            scenario="S6", n=1, out_dir=str(tmp_path), **config))["run_dir"])
        assert run_dir.name == base_dir.name
        assert _tree(run_dir) == _tree(base_dir)

    def test_run_that_raises_writes_nothing(self, tmp_path):
        class Down:
            name = "down"

            def complete(self, *args, **kwargs):
                raise RuntimeError("backend down")

        out = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="backend down"):
            cmd_repair(PipelineConfig(scenario="S6", n=1, out_dir=str(out),
                                      backend=Down()))
        assert not out.exists()

    def test_live_reply_that_is_not_json_fails_only_its_slot(
            self, tmp_path, monkeypatch):
        # a proxy's login page answers with 200 and HTML
        posted = []

        def post(url, **kwargs):
            posted.append(url)
            resp = requests.Response()
            resp.status_code = 200
            resp._content = b"<html><body>Sign in to continue</body></html>"
            return resp

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        report = cmd_repair(PipelineConfig(
            scenario="S6", n=2, out_dir=str(tmp_path / "runs"),
            backend=LiveBackend("gpt-4-turbo", "http://localhost:8000/v1")))
        assert posted == ["http://localhost:8000/v1"] * 2
        assert report["backend"] == "live"
        assert report["candidates"] == []
        assert [f["seed"] for f in report["generation_failures"]] == [0, 1]
        for failure in report["generation_failures"]:
            assert "backend request failed" in failure["error"], failure

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(spec="law46")  # no record or scenario
        with pytest.raises(ValueError):
            PipelineConfig(spec="law46", scenario="S6", delta=-1)
        with pytest.raises(ValueError):
            PipelineConfig(spec="law46", scenario="S6", delta=math.nan)
        with pytest.raises(ValueError):
            PipelineConfig(spec="law46", scenario="S6", n=0)

    def test_spec_defaults_to_the_paired_spec(self, tmp_path):
        for sid, spec in PAIRED_SPECS.items():
            assert PipelineConfig(scenario=sid).spec == spec
        assert PipelineConfig(spec="law46", scenario="S1").spec == "law46"
        with pytest.raises(ValueError, match="unknown scenario 'S99'"):
            PipelineConfig(scenario="S99")
        script_file = tmp_path / "s6.json"
        script_file.write_text(json.dumps(script_to_dict(
            scenario_by_id("S6"))), encoding="utf-8")
        for kwargs in ({"scenario": "empty"}, {"record": "r.jsonl"},
                       {"scenario": str(script_file)}):
            with pytest.raises(ValueError, match="need a spec"):
                PipelineConfig(**kwargs)

    def test_parked_program_fixes_nothing(self):
        # standing still breaks no law and hits nothing, but never arrives
        parked = parse_program('rule "park"\ntrigger\n always\nthen\n'
                               ' cruise_speed(0)\nend\n')
        nc_phi = parse_spec(resolve_spec("no_collision").stl)
        verdicts = {}
        for sid, spec in PAIRED_SPECS.items():
            replay, _ = pipeline._replay(scenario_by_id(sid), parked,
                                         parse_spec(resolve_spec(spec).stl),
                                         nc_phi)
            assert replay["outcome"] == "timed_out", sid
            verdicts[sid] = replay["fixed"]
        assert sorted(verdicts) == [f"S{i}" for i in range(1, 9)]
        assert not any(verdicts.values()), verdicts


class TestCmdSweepDelta:
    def test_ramp_monotone_and_zero_delta(self, tmp_path):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        cfg = PipelineConfig(spec="custom", record=str(record))
        spec_file = tmp_path / "cap.spec"
        spec_file.write_text("name: cap60\nstl: G (speed < 60)\n",
                             encoding="utf-8")
        cfg.spec = str(spec_file)
        table = cmd_sweep_delta(cfg, [0, 1, 5, 15])
        rows = {row["delta"]: row for row in table["rows"]}
        assert rows[0]["near_miss_step"] == rows[0]["violation_step"] == 60
        steps = [rows[d]["near_miss_step"] for d in (1, 5, 15)]
        assert steps == sorted(steps, reverse=True)

    def test_rows_match_locate_at_each_delta(self, tmp_path):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        spec_file = tmp_path / "cap.spec"
        spec_file.write_text("name: cap60\nstl: G (speed < 60)\n",
                             encoding="utf-8")
        cfg = PipelineConfig(spec=str(spec_file), record=str(record))
        deltas = [0, 0.5, 1, 5, 15, 59, 60, 61]
        trace = build_trace(ramp_frames(91))
        phi = parse_spec("G (speed < 60)")
        rows = cmd_sweep_delta(cfg, deltas)["rows"]
        for delta, row in zip(deltas, rows):
            moments = locate(phi, trace, delta)
            assert row["near_miss_step"] == moments.near_miss_step
            assert row["violation_step"] == moments.violation_step
        for bad in (math.nan, -1.0):
            with pytest.raises(ValueError):
                cmd_sweep_delta(cfg, [1.0, bad])

    def test_s1_template_sensitivity(self):
        # near-miss scenes too close or too distant pick repairs that fail
        cfg = PipelineConfig(spec="no_collision", scenario="S1", n=1)
        table = cmd_sweep_delta(cfg, [1, 15, 30])
        verdicts = {row["delta"]: row["fixed"] for row in table["rows"]}
        assert verdicts[15] is True
        assert verdicts[1] is False
        assert verdicts[30] is False


class TestCli:
    def test_localize(self, tmp_path):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        spec_file = tmp_path / "cap.spec"
        spec_file.write_text("name: cap60\nstl: G (speed < 60)\n",
                             encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["localize", "--record", str(record),
                                      "--spec", str(spec_file),
                                      "--delta", "5"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["violation_step"] == 60
        assert doc["near_miss_step"] == 55
        assert doc["rho_at_each"][0] == 60.0

    def test_unknown_record_field_prints_one_warning_line(self, tmp_path):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        lines = record.read_text(encoding="utf-8").splitlines()
        record.write_text("".join(
            json.dumps(dict(json.loads(line), header={"seq": i})) + "\n"
            for i, line in enumerate(lines)), encoding="utf-8")
        result = CliRunner().invoke(main, ["localize", "--record", str(record),
                                           "--spec", "law46"])
        assert result.exit_code == 0, result.output
        assert result.stderr == ("Warning: ignoring unknown record field"
                                 " 'header' (first on line 1)\n")

    def test_record_that_keeps_the_spec(self, tmp_path):
        # the ramp never reaches 100 km/h
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        spec_file = tmp_path / "cap.spec"
        spec_file.write_text("name: cap100\nstl: G (speed < 100)\n",
                             encoding="utf-8")
        result = CliRunner().invoke(main, ["localize", "--record", str(record),
                                           "--spec", str(spec_file)])
        assert result.exit_code == 0, result.output
        doc, end = json.JSONDecoder().raw_decode(result.output)
        assert doc["violation_step"] is None
        assert result.output[end:] == "\nno violation found\n"
        out = tmp_path / "prompt"
        result = CliRunner().invoke(main, ["prompt", "--record", str(record),
                                           "--spec", str(spec_file),
                                           "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output == ("Error: record does not violate the spec;"
                                 " nothing to prompt\n")
        assert not out.exists()

    def test_prompt_writes_bundle(self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("S6"))
        record = tmp_path / "s6.jsonl"
        save_record(frames, record)
        runner = CliRunner()
        out = tmp_path / "prompt"
        result = runner.invoke(main, ["prompt", "--record", str(record),
                                      "--spec", "law46", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {out / 'prompt.txt'}\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "near_miss.svg", "prompt.txt", "violation.svg"]
        text = (out / "prompt.txt").read_text(encoding="utf-8")
        assert text.startswith("Suppose you are a driver.\n\n")
        assert text.count("\n\n") == 5       # six segments

    def test_repair_exit_code_ok(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["repair", "--scenario", "S6", "--n", "2",
                                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 0, result.output

    def test_prompt_matches_the_pipeline_prompt_dir(self, s6_report, tmp_path):
        # no prompt file names the record, so its file name does not matter
        frames, _ = run_scenario(scenario_by_id("S6"))
        record = tmp_path / "s6.jsonl"
        save_record(frames, record)
        out = tmp_path / "prompt"
        result = CliRunner().invoke(main, ["prompt", "--record", str(record),
                                           "--spec", "law46", "--out",
                                           str(out)])
        assert result.exit_code == 0, result.output
        expected = Path(s6_report[0]["run_dir"]) / "prompt"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in expected.iterdir())
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_scenario_file_runs_like_its_id(self, tmp_path):
        script_file = tmp_path / "s6.json"
        script_file.write_text(json.dumps(script_to_dict(
            scenario_by_id("S6"))), encoding="utf-8")
        runner = CliRunner()
        trees = []
        for i, source in enumerate((["--scenario", "S6"],
                                    ["--scenario", str(script_file)])):
            out = tmp_path / f"runs{i}"
            result = runner.invoke(main, ["repair", *source, "--spec", "law46",
                                          "--n", "2", "--out", str(out)])
            assert result.exit_code == 0, result.output
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        assert trees[0] == trees[1]
        sims = [runner.invoke(main, ["sim", "run", *source, "--metrics"])
                for source in (["--scenario", "S6"],
                               ["--scenario", str(script_file)])]
        assert sims[0].exit_code == sims[1].exit_code == 0
        assert sims[0].output == sims[1].output

    def test_scenario_too_long_to_count_in_ticks_is_refused(self, tmp_path):
        doc = script_to_dict(scenario_by_id("S6"))
        doc["duration_s"] = 1e308     # finite, but 1e309 ticks is inf
        script_file = tmp_path / "s6.json"
        script_file.write_text(json.dumps(doc), encoding="utf-8")
        result = CliRunner().invoke(main, ["sim", "run", "--scenario",
                                           str(script_file)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.splitlines() == [
            "Error: bad scenario document: duration_s in ticks must be a"
            " finite number, got inf"]

    def test_repair_reports_the_run_dir_of_a_non_violating_record(
            self, tmp_path):
        frames, _ = run_scenario(scenario_by_id("empty"))
        record = tmp_path / "empty.jsonl"
        save_record(frames, record)
        result = CliRunner().invoke(main, [
            "repair", "--record", str(record), "--spec", "no_collision",
            "--out", str(tmp_path / "runs")])
        assert result.exit_code == 0, result.output
        assert '"status": "no_violation"' in result.output
        run_dir = Path(result.output.split("artifacts: ")[1].strip())
        assert (run_dir / "report.json").is_file()

    def test_repair_exit_code_unfixed(self, tmp_path):
        # delta 1 forces the too-late emergency template on S1
        runner = CliRunner()
        result = runner.invoke(main, ["repair", "--scenario", "S1", "--n", "1",
                                      "--delta", "1",
                                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.output

    def test_sim_run_with_repair(self, tmp_path):
        program = tmp_path / "fix.mud"
        program.write_text(
            'rule "slow in fog"\ntrigger\n always\ncondition\n'
            ' is_weather(fog)\nthen\n cruise_speed(30)\nend\n',
            encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["sim", "run", "--scenario", "S6",
                                      "--repair", str(program), "--metrics",
                                      "--out", str(tmp_path / "rec.jsonl")])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["outcome"] == "reached_destination"
        assert doc["metrics"]["max_speed_ms"] <= 30 / 3.6

    def test_sim_run_rejects_invalid_program(self, tmp_path):
        invalid = tmp_path / "bad.mud"
        invalid.write_text(
            'rule "x"\ntrigger\n always\nthen\n warp_speed(9)\nend\n',
            encoding="utf-8")
        no_action = tmp_path / "syntax.mud"
        no_action.write_text('rule "x"\ntrigger\n always\nthen\nend\n',
                             encoding="utf-8")
        runner = CliRunner()
        for program in (invalid, no_action):
            result = runner.invoke(main, ["sim", "run", "--scenario", "S6",
                                          "--repair", str(program)])
            assert result.exit_code == 1
            assert "Error:" in result.output
        result = runner.invoke(main, ["mudrive", "check", str(invalid)])
        assert result.exit_code == 1
        assert result.output == ("Error: program is invalid:\n[x] action:"
                                 " unknown action 'warp_speed'\n")

    def test_mudrive_check(self, tmp_path):
        good = tmp_path / "good.mud"
        good.write_text('rule "x"\ntrigger\n always\nthen\n'
                        ' cruise_speed(30)\nend\n', encoding="utf-8")
        bad = tmp_path / "bad.mud"
        bad.write_text('rule "x"\ntrigger\n always\nthen\n'
                       ' cruise_speed(fast)\nend\n', encoding="utf-8")
        runner = CliRunner()
        assert runner.invoke(main, ["mudrive", "check", str(good)]).exit_code == 0
        assert runner.invoke(main, ["mudrive", "check", str(bad)]).exit_code == 1

    def test_mudrive_schema(self):
        runner = CliRunner()
        result = runner.invoke(main, ["mudrive", "schema"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["$schema"].endswith("2020-12/schema")

    def test_mudrive_schema_out_writes_the_golden_schema(self, tmp_path):
        out = tmp_path / "program.schema.json"
        result = CliRunner().invoke(main, ["mudrive", "schema", "--out",
                                           str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {out}\n"
        assert out.read_bytes() == GOLDEN_SCHEMA.read_bytes()

    def test_sim_list(self):
        result = CliRunner().invoke(main, ["sim", "list"])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert [line.split()[:2] for line in lines] == [
            [sid, f"[{PAIRED_SPECS[sid]}]"] for sid in sorted(PAIRED_SPECS)
        ] + [["empty", "[-]"]]

    def test_specs_command(self):
        result = CliRunner().invoke(main, ["specs"])
        assert result.exit_code == 0, result.output
        assert result.output == "".join(f"{e.name:16s} {e.stl}\n"
                                        for e in BUILTIN_SPEC_ENTRIES)

    def test_report_without_report_json(self, tmp_path):
        result = CliRunner().invoke(main, ["report", "--run", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {tmp_path / 'report.json'} not found\n"

    def test_report_command(self, s6_report):
        report, _ = s6_report
        runner = CliRunner()
        result = runner.invoke(main, ["report", "--run", report["run_dir"]])
        assert result.exit_code == 0, result.output
        assert "fix rate: 1.00" in result.output

    def test_sweep_delta_command(self, tmp_path):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(91), record)
        spec_file = tmp_path / "cap.spec"
        spec_file.write_text("name: cap60\nstl: G (speed < 60)\n",
                             encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["sweep-delta", "--record", str(record),
                                      "--spec", str(spec_file),
                                      "--deltas", "0,5,15"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert len(doc["rows"]) == 3

    def test_sweep_delta_without_deltas(self):
        result = CliRunner().invoke(main, ["sweep-delta", "--scenario", "S6",
                                           "--deltas", ","])
        assert result.exit_code == 1, result.output
        assert result.output == "Error: need at least one delta\n"

    @pytest.mark.parametrize("argv", [
        "sweep-delta --scenario S6 --deltas 1,nan",
        "sweep-delta --scenario S6 --deltas 1,abc",
        "repair --scenario S6 --delta -1 --out {runs}",
        "repair --scenario S6 --n 0 --out {runs}",
        "repair --scenario S99 --out {runs}",
        "repair --scenario S99 --spec law46 --out {runs}",
        "localize --record {record} --spec law46 --delta nan",
        "localize --record {record} --spec nosuch",
        "prompt --record {record} --spec law46 --delta -3 --out {runs}",
        "localize --record {tmp}/gap.jsonl --spec law46",
        # usage errors: a bad option value, a missing or an unknown option
        "repair --scenario S6 --n abc --out {runs}",
        "repair --scenario S6 --backend psychic --out {runs}",
        "repair --record {tmp}/nonexistent.jsonl --spec law46 --out {runs}",
        "localize --spec law46",
        "sim run --metrics",
        "repair --scenario S6 --scenario-file {s1} --out {runs}",
    ])
    def test_bad_input_prints_error_and_exits_1(self, tmp_path, argv):
        # exit 2 is reserved for "violation found, nothing fixed it"
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(20), record)
        s1 = tmp_path / "s1.json"
        s1.write_text(json.dumps(script_to_dict(scenario_by_id("S1"))),
                      encoding="utf-8")
        # two frames 20000 s apart would make a 200,001-step trace
        frame = ramp_frames(1)[0]
        save_record([frame, dataclasses.replace(frame, t=20000.0)],
                    tmp_path / "gap.jsonl")
        args = [a.format(record=record, runs=tmp_path / "runs", tmp=tmp_path,
                         s1=s1)
                for a in argv.split()]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith("Error: "), result.output
        for value, message in (("S99", "unknown scenario 'S99'"),
                               ("nosuch", "unknown spec 'nosuch'"),
                               ("gap.jsonl", "Error: line 2: ")):
            if value in argv:
                assert message in result.output, result.output
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, delta, shown", [
        ("localize", "nan", "nan"), ("localize", "-1", "-1.0"),
        ("prompt", "nan", "nan"), ("prompt", "-1", "-1.0"),
    ])
    def test_bad_delta_is_refused_before_the_record_is_read(
            self, tmp_path, command, delta, shown):
        record = tmp_path / "garbage.jsonl"
        record.write_text("not json\n", encoding="utf-8")
        args = [command, "--record", str(record), "--spec", "law46",
                "--delta", delta]
        if command == "prompt":
            args += ["--out", str(tmp_path / "prompt")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == (f"Error: delta must be non-negative,"
                                 f" got {shown}\n")
        assert not (tmp_path / "prompt").exists()

    @pytest.mark.parametrize("deltas, shown", [("1,-1", "-1.0"),
                                               ("nan", "nan")])
    def test_sweep_delta_checks_every_delta_before_any_work(
            self, monkeypatch, deltas, shown):
        def no_work(*args, **kwargs):
            raise AssertionError("the scenario must not be simulated")

        monkeypatch.setattr(pipeline, "run_scenario", no_work)
        result = CliRunner().invoke(main, ["sweep-delta", "--scenario", "S6",
                                           "--deltas", deltas])
        assert result.exit_code == 1, result.output
        assert result.output == (f"Error: delta must be non-negative,"
                                 f" got {shown}\n")

    @pytest.mark.parametrize("command, text, message", [
        ("localize", '{"t":0,"ego":{"x":0,"y":0,"heading":0,"speed":1},'
                     '"weather":[]}',
         "Error: line 1: bad frame (weather must be an object, got [])"),
        ("localize", '{"t":0,"ego":{"x":0,"y":0,"heading":0,"speed":1},'
                     '"map_ctx":3}',
         "Error: line 1: bad frame (map_ctx must be an object, got 3)"),
        ("localize", '{"t":0,"ego":{"x":0,"y":0,"heading":0,"speed":1},'
                     '"obstacles":[{"id":"o","x":"nan","y":0,"speed":0,'
                     '"half_len":2,"half_wid":1}]}',
         "Error: line 1: bad frame ("),
        ("localize", '{"t":"inf","ego":{"x":0,"y":0,"heading":0,"speed":1}}',
         "Error: line 1: bad frame ("),
        ("sim", "[1,2]",
         "Error: bad scenario document: scenario must be an object,"
         " got [1, 2]"),
        ("sim", '{"id":"w","route_len_m":100,"weather":[]}',
         "Error: bad scenario document: weather must be an object, got []"),
        ("sim", '{"id":"w","route_len_m":100,"duraton_s":5}',
         "Error: bad scenario document: unknown key 'duraton_s' in scenario"),
        ("mudrive", 'rule ""\ntrigger\n always\nthen\n cruise_speed(10)\nend\n',
         "Error: program is invalid:\n[] rule: a rule name must not be"
         " empty\n"),
        ("mudrive", 'rule "x"\ntrigger\n always\nthen\n cruise_speed(10)\n'
                    '# end is missing',
         "Error: syntax error: expected 'end', found 'end of input'"
         " (line 6, column 17)\n"),
    ], ids=["record-weather-list", "record-map-ctx-number",
            "record-nan-string", "record-inf-string-time",
            "scenario-list", "scenario-weather-list",
            "scenario-misspelt-key", "empty-rule-name",
            "syntax-error-after-comment"])
    def test_bad_document_prints_error_and_exits_1(self, tmp_path, command,
                                                   text, message):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        argv = {"localize": ["localize", "--record", str(path), "--spec",
                             "no_collision"],
                "sim": ["sim", "run", "--scenario", str(path)],
                "mudrive": ["mudrive", "check", str(path)]}[command]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith(message), result.output

    @pytest.mark.parametrize("argv", [[], ["sim"], ["mudrive"]],
                             ids=["driverepair", "sim", "mudrive"])
    def test_bare_group_prints_help_and_exits_1(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert result.output.startswith("Usage: "), result.output
        assert "Error" not in result.output

    @pytest.mark.parametrize("text, message", [
        ("name: x\nstl: G (warpDrive < 3)\n",
         "unknown signal variable 'warpDrive' (at position 3)"),
        ("name: x\nstl: G (trafficLightColor == purple)\n",
         "'purple' is not a value of trafficLightColor (expected one of"
         " ['green', 'off', 'red', 'yellow']) (at position 24)"),
        ("name: a\nstl: G (speed < 40)\nname: b\nstl: G (speed < 50)\n",
         "line 3: spec 'a' has a second name: line"),
        ("name: x\nstl: G (trafficLightColor < red)\n",
         "trafficLightColor is an enum; test it with == or != and one of its"
         " values (at position 3)"),
    ], ids=["unknown-variable", "unknown-enum-value", "two-specs",
            "enum-ordering"])
    def test_bad_spec_file_prints_error_and_exits_1(self, tmp_path, text,
                                                    message):
        record = tmp_path / "ramp.jsonl"
        save_record(ramp_frames(20), record)
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, ["localize", "--record", str(record),
                                           "--spec", str(spec_file)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {message}\n"

    def test_live_backend_without_key_is_refused_before_any_work(
            self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the scenario must not be simulated")

        monkeypatch.setattr(pipeline, "run_scenario", no_work)
        result = CliRunner().invoke(
            main, ["repair", "--scenario", "S6", "--backend", "live",
                   "--out", str(tmp_path / "runs")],
            env={API_KEY_ENV: None})
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == ("Error: set OPENAI_API_KEY to use the live"
                                 " backend\n")
        assert not (tmp_path / "runs").exists()

    def test_run_dir_names_match_golden(self, tmp_path):
        """`repair --n 2` on S1..S8, as CI runs it: any moved byte renames
        its run directory."""
        for sid in sorted(PAIRED_SPECS):
            result = CliRunner().invoke(main, [
                "repair", "--scenario", sid, "--n", "2",
                "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
        golden = GOLDEN_RUN_DIRS.read_text(encoding="utf-8").split()
        assert sorted(p.name for p in tmp_path.iterdir()) == golden
