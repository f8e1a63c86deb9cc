"""Benchmark of the driverepair pipeline.

    python3 perfbench/run.py --workload repair_suite --seed 1 --seconds 20 --trace 0

Runs one workload in this process, on one thread, as a closed loop with a
single caller: each item starts when the previous one has returned. Inputs
come from the seed; the program only sees the generated inputs.

Every time is given at a fixed reference CPU speed (see speed.py): a small
kernel runs around each timed part, and the part's time is scaled by the
kernel's. The machine's speed drifts by up to 2x; the program's work does
not.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs one untraced pass and one traced pass and prints the
per-layer metrics of the traced one, with the tracing overhead. Spans are
written to .perfbench_out/<workload>/spans.npz.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs at least SETUP_MIN_REPEATS times, and again while the
# set-ups so far took less than SETUP_BUDGET_S, up to SETUP_MAX_REPEATS: a
# cheap set-up (repair_suite, ~1 s) gets more repeats against its noise,
# an expensive one (analyze_long, ~3.5 s) does not lengthen the run.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS = 3, 7
SETUP_BUDGET_S = 4.0
MIN_PASSES = 2      # medians over passes; repair_suite's hash check
P90_MIN_BEYOND = 10  # a p90 is printed only with this many items beyond it


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _fresh_import():
    """Import the package in a new interpreter, as each CLI call pays it."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r});"
                    " import driverepair.pipeline"],
                   check=True, cwd=ROOT)


def set_up(workload, seed: int, work: Path):
    """Import, input generation and warm-up, repeated (see SETUP_BUDGET_S).

    Returns (median seconds at the reference speed, inputs, whether every
    repeat made the same input bytes).
    """
    times, fingerprints, clock = [], set(), speed.Clock()
    started = time.perf_counter()
    for r in range(SETUP_MAX_REPEATS):
        if (r >= SETUP_MIN_REPEATS
                and time.perf_counter() - started >= SETUP_BUDGET_S):
            break
        rep_dir = work / f"setup{r}"
        with clock.stopwatch() as importing:
            _fresh_import()
        with clock.stopwatch() as preparing:
            inputs = workload.prepare(seed, rep_dir)
        with clock.stopwatch() as warming:
            workload.warm_up(inputs, rep_dir)
        times.append(importing.at_reference + preparing.at_reference
                     + warming.at_reference)
        fingerprints.add(inputs["fingerprint"])
    return statistics.median(times), inputs, len(fingerprints) == 1


class Run:
    """Passes of one workload, their items and their check verdicts."""

    def __init__(self, workload, inputs, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.pass_seconds = []
        self.pass_items = []
        self.pass_dirs = []
        self.verdicts = []

    def one_pass(self, tracer=None) -> float:
        """Run one pass (traced when a tracer is given), then check it.

        Returns the pass's time at the reference speed.
        """
        out = self.work / f"pass{len(self.pass_seconds)}"
        out.mkdir(parents=True)
        # No kernel runs inside a traced part, so spans do not include them.
        clock = speed.Clock(sampling=tracer is None)
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            items = self.workload.run_pass(self.inputs, out, clock)
            self.pass_seconds.append(time.perf_counter() - t0)
        seconds = sum(part.ref_seconds for part in items)
        self.pass_items.append(items)
        self.pass_dirs.append(out)
        self.verdicts += self.workload.check_pass(self.inputs, items, out)
        for item in items:
            if item.error is not None:
                print(f"item {item.label} failed: {item.error}",
                      file=sys.stderr)
        return seconds

    def finish(self):
        self.verdicts += self.workload.check_run(self.inputs, self.pass_items,
                                                 self.pass_dirs)

    @property
    def items(self):
        return [item for items in self.pass_items for item in items
                if item.is_item]


def end_to_end(run: Run, setup_s: float) -> dict:
    """Each part of a pass is taken at its median over the run's passes,
    in seconds at the reference speed."""
    typical = [statistics.median(parts)
               for parts in zip(*([p.ref_seconds for p in items]
                                  for items in run.pass_items))]
    ms = [t * 1e3 for t, part in zip(typical, run.pass_items[0])
          if part.is_item]
    return {
        "wall_ref_s": (sum(typical), "s"),
        "item_p50_ref_ms": (statistics.median(ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "driverepair" / "__init__.py").is_file():
        print(f"perfbench: no driverepair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s, inputs, same_inputs = set_up(workload, args.seed, work)
    run = Run(workload, inputs, work)
    run.verdicts.append(same_inputs)

    if args.trace:
        from tracing import Tracer, layer_metrics

        untraced_s = run.one_pass()
        tracer = Tracer()
        traced_s = run.one_pass(tracer)
        run.finish()
        tracer.write(work / "spans.npz")
        metrics = layer_metrics(tracer)
        metrics["tracing.overhead"] = (traced_s / untraced_s, "ratio")
    else:
        started = time.perf_counter()
        while True:
            run.one_pass()
            elapsed = time.perf_counter() - started
            if (len(run.pass_seconds) >= MIN_PASSES
                    and elapsed + statistics.median(run.pass_seconds)
                    > args.seconds):
                break
        run.finish()
        metrics = end_to_end(run, setup_s)

    failed = sum(1 for ok in run.verdicts if not ok)
    attempted = len(run.verdicts)
    n_items = sum(1 for part in run.pass_items[0] if part.is_item)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}"
          f"  passes {len(run.pass_seconds)}  items per pass {n_items}"
          f"  ({n_items - math.ceil(0.9 * n_items)} beyond p90)")
    for name, (value, unit) in {**metrics,
                                **workload.quality(run.items)}.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    raw_ms = [part.seconds * 1e3 for part in run.items]
    print(f"  {'wall_s (measured, median pass)':36s}"
          f" {statistics.median(run.pass_seconds):14.4f} s")
    print(f"  {'item_p50_ms (measured)':36s}"
          f" {statistics.median(raw_ms):14.4f} ms")
    if n_items - math.ceil(0.9 * n_items) >= P90_MIN_BEYOND:
        print(f"  {'item_p90_ms (measured)':36s}"
              f" {nearest_rank(raw_ms, 0.9):14.4f} ms")
    print(f"  {'failed_frac':36s} {failed / attempted:14.4f} ratio"
          f"  ({failed} of {attempted} checks)")
    for path in run.pass_dirs:
        shutil.rmtree(path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
