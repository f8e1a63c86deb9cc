"""Command-line entry points.

Exit codes: 0 on success (including "no violation"), 2 when a violation was
found but no candidate fixed it, 1 on errors (bad input prints `Error: ...`).
"""
from __future__ import annotations

import contextlib
import json
import sys
import warnings
from pathlib import Path

import click

from .mudrive import MuDriveSyntaxError, parse_program, require_valid
from .mudrive.schema import schema_json
from .localizer import DEFAULT_DELTA
from .pipeline import (
    PipelineConfig,
    cmd_repair,
    cmd_sweep_delta,
    locate_record,
    write_prompt,
)
from .promptgen import build_prompt
from .repair_llm import BackendError, LiveBackend, MockBackend
from .simulator import (
    PAIRED_SPECS,
    benchmark_suite,
    evaluate_trace,
    resolve_script,
    run_scenario,
    scenario_by_id,
)
from .spec_lang import BUILTIN_SPEC_ENTRIES
from .trace_model import save_record


@contextlib.contextmanager
def _input_errors_exit_1():
    """Report bad input as an `Error:` line and exit 1, not a traceback.

    The program's input errors are all ValueErrors (bad numbers, unknown
    scenarios, malformed records and specs) or OSErrors (unreadable files).
    Click's usage errors (a bad option value, a missing or unknown option)
    exit 1 too, and so does a bare group, which prints its help without an
    `Error:` prefix: exit 2 means a violation that no candidate fixed.
    """
    try:
        yield
    except click.exceptions.NoArgsIsHelpError as exc:
        exc.exit_code = 1
        raise
    except click.UsageError as exc:
        raise click.ClickException(exc.format_message()) from exc
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc


def _warning_line(message, *args, **kwargs):
    """Show a warning as one `Warning:` line on stderr."""
    click.echo(f"Warning: {message}", err=True)


class _Group(click.Group):
    """Top-level group: bad input to its own options or to any command goes
    through `_input_errors_exit_1`, and any command's warning prints as
    `_warning_line`."""

    def make_context(self, *args, **kwargs):
        with _input_errors_exit_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _input_errors_exit_1(), warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Trace analysis and rule-based driving strategy repair."""


_SCENARIO_HELP = "Built-in scenario id or path to a scenario JSON file."


def _backend(kind, model, endpoint):
    """The backend `repair --backend` names; a live one without its key is
    bad input, refused before any work."""
    if kind == "mock":
        return MockBackend()
    try:
        return LiveBackend(model, endpoint)
    except BackendError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.option("--record", required=True, type=click.Path(exists=True))
@click.option("--spec", required=True)
@click.option("--delta", type=float, default=DEFAULT_DELTA, show_default=True)
def localize(record, spec, delta):
    """Find the violation and near-miss moments of a record."""
    entry, _, moments = locate_record(record, spec, delta)
    click.echo(json.dumps({
        "spec": entry.name,
        "delta": delta,
        "violation_step": moments.violation_step,
        "near_miss_step": moments.near_miss_step,
        "rho_at_each": list(moments.prefix_rho),
    }, indent=2))
    if moments.violation_step is None:
        click.echo("no violation found", err=True)


@main.command("prompt")
@click.option("--record", required=True, type=click.Path(exists=True))
@click.option("--spec", required=True)
@click.option("--delta", type=float, default=DEFAULT_DELTA, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def prompt_cmd(record, spec, delta, out_dir):
    """Render the two critical moments and the six-segment text prompt."""
    entry, frames, moments = locate_record(record, spec, delta)
    if not moments.located:
        raise click.ClickException("record does not violate the spec;"
                                   " nothing to prompt")
    write_prompt(out_dir, build_prompt(moments, frames, entry.prose))
    click.echo(f"wrote {Path(out_dir) / 'prompt.txt'}")


@main.command()
@click.option("--record", type=click.Path(exists=True), default=None)
@click.option("--scenario", default=None, help=_SCENARIO_HELP)
@click.option("--spec", default=None, help="Defaults to the scenario's"
                                           " paired spec.")
@click.option("--delta", type=float, default=DEFAULT_DELTA, show_default=True)
@click.option("--n", type=int, default=PipelineConfig.n, show_default=True)
@click.option("--backend", type=click.Choice(["mock", "live"]), default="mock",
              show_default=True)
@click.option("--model", default="gpt-4-turbo", show_default=True,
              help="Live backend only.")
@click.option("--endpoint", show_default=True,
              default="https://api.openai.com/v1/chat/completions",
              help="Live backend only.")
@click.option("--seed", type=int, default=PipelineConfig.base_seed,
              show_default=True)
@click.option("--out", "out_dir", type=click.Path(),
              default=PipelineConfig.out_dir, show_default=True)
def repair(record, scenario, spec, delta, n, backend, model, endpoint, seed,
           out_dir):
    """Run the whole pipeline and report per-candidate replay verdicts."""
    cfg = PipelineConfig(
        spec=spec, record=record, scenario=scenario, delta=delta, n=n,
        base_seed=seed, out_dir=out_dir,
        backend=_backend(backend, model, endpoint))
    report = cmd_repair(cfg)

    click.echo(json.dumps({k: report[k] for k in
                           ("status", "spec", "fix_rate", "total_cost_usd")},
                          indent=2))
    if "run_dir" in report:
        click.echo(f"artifacts: {report['run_dir']}")
    if report["status"] == "unfixed":
        sys.exit(2)


@main.command("sweep-delta")
@click.option("--record", type=click.Path(exists=True), default=None)
@click.option("--scenario", default=None, help=_SCENARIO_HELP)
@click.option("--spec", default=None, help="Defaults to the scenario's"
                                           " paired spec.")
@click.option("--deltas", default="1,5,10,15,20,25,30", show_default=True)
@click.option("--seed", type=int, default=PipelineConfig.base_seed,
              show_default=True)
def sweep_delta(record, scenario, spec, deltas, seed):
    """Near-miss step and mock fix verdict across thresholds."""
    values = [float(d) for d in deltas.split(",") if d.strip()]
    cfg = PipelineConfig(spec=spec, record=record, scenario=scenario,
                         base_seed=seed)
    table = cmd_sweep_delta(cfg, values)
    click.echo(json.dumps(table, indent=2))


def _read_program(path):
    """Parse and validate a .mud file."""
    try:
        program = parse_program(Path(path).read_text(encoding="utf-8"))
    except MuDriveSyntaxError as exc:
        raise click.ClickException(f"syntax error: {exc}")
    return require_valid(program)


@main.group()
def sim():
    """Scenario simulator."""


@sim.command("list")
def sim_list():
    for script in benchmark_suite() + [scenario_by_id("empty")]:
        paired = PAIRED_SPECS.get(script.id, "-")
        click.echo(f"{script.id:6s} [{paired}] {script.description}")


@sim.command("run")
@click.option("--scenario", required=True, help=_SCENARIO_HELP)
@click.option("--repair", "repair_file", type=click.Path(exists=True),
              default=None, help="Apply a repair program during the run.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the record as JSONL.")
@click.option("--metrics", "show_metrics", is_flag=True)
def sim_run(scenario, repair_file, out_path, show_metrics):
    """Replay one scenario, optionally under a repair program."""
    script = resolve_script(scenario)
    program = _read_program(repair_file) if repair_file else None
    frames, outcome = run_scenario(script, program)
    summary = {"scenario": script.id, "outcome": outcome,
               "frames": len(frames)}
    if show_metrics:
        summary["metrics"] = evaluate_trace(frames)
    if out_path:
        save_record(frames, out_path)
        summary["record"] = out_path
    click.echo(json.dumps(summary, indent=2))


@main.group("mudrive")
def mudrive_group():
    """Rule-program tooling."""


@mudrive_group.command("check")
@click.argument("file", type=click.Path(exists=True))
def mudrive_check(file):
    """Parse and validate a .mud program."""
    program = _read_program(file)
    click.echo(f"ok: {len(program.rules)} rule(s)")


@mudrive_group.command("schema")
@click.option("--out", "out_path", type=click.Path(), default=None)
def mudrive_schema(out_path):
    """Emit the JSON Schema used to constrain generation."""
    text = schema_json()
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text)


@main.command()
@click.option("--run", "run_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
def report(run_dir):
    """Summarize a previous pipeline run."""
    path = Path(run_dir) / "report.json"
    if not path.exists():
        raise click.ClickException(f"{path} not found")
    doc = json.loads(path.read_text(encoding="utf-8"))
    lines = [
        f"record: {doc['record_id']}  spec: {doc['spec']}  status: {doc['status']}",
        f"baseline rho: {doc['baseline']['rho_spec']:.3f}",
    ]
    if doc.get("moments"):
        m = doc["moments"]
        lines.append(f"violation step {m['violation_step']},"
                     f" near miss step {m['near_miss_step']},"
                     f" gap {m['gap_seconds']} s")
    for cand in doc.get("candidates", []):
        verdict = "-"
        if cand["replay"] is not None:
            verdict = ("fixed" if cand["replay"]["fixed"] else
                       f"not fixed ({cand['replay']['outcome']})")
        lines.append(f"  cand {cand['index']} (seed {cand['seed']}):"
                     f" ${cand['cost_usd']:.4f}  {verdict}")
    if doc.get("fix_rate") is not None:
        lines.append(f"fix rate: {doc['fix_rate']:.2f}"
                     f"  total cost: ${doc['total_cost_usd']:.4f}")
    click.echo("\n".join(lines))


@main.command()
def specs():
    """List the built-in specifications."""
    for entry in BUILTIN_SPEC_ENTRIES:
        click.echo(f"{entry.name:16s} {entry.stl}")


if __name__ == "__main__":
    main()
