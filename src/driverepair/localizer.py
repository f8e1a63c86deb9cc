"""Locates the violation moment and the near-miss moment of a trace.

Prefix robustness at k is the robustness of the formula over the first k+1
scenes only. The violation moment is the earliest prefix whose robustness
drops to or below zero; the near-miss moment is the earliest prefix at or
below a user threshold delta. Both are found by a scan from k = 0 that
stops as soon as the violation is found.

The scan is incremental for G[lo,inf)(psi) where psi has a finite horizon h
(all built-in specifications have this shape). psi's value at t on the
prefix ending at k is its whole-trace value whenever t + h <= k, so psi is
evaluated once over the whole trace and only the last h steps of each
prefix are evaluated again: O(n*h) for n steps. Any other formula is
evaluated afresh on each prefix, O(n) each.

Prefix robustness need not be monotone (eventually-style obligations can
dip on a clipped prefix and recover later); the first crossing is reported
regardless, and the report carries a note to that effect.

Moments are trace steps, STEP_S apart. `moment_frames` maps each step back
to the frame `build_trace` took for it (`trace_model.step_frames`), so the
rendered moments are the scenes the formula was evaluated on, whatever the
record's frame rate or gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spec_lang import Always, Formula, evaluate, horizon, robustness_bounded
from .trace_model import STEP_S, Trace, step_frames

DEFAULT_DELTA = 15.0        # near-miss threshold on prefix robustness


class MomentsNotFoundError(LookupError):
    """Raised when an operation needs moments that were not located."""


@dataclass(frozen=True)
class CriticalMoments:
    violation_step: int | None
    near_miss_step: int | None
    delta: float
    prefix_rho: tuple  # rho over prefixes k = 0 .. last step scanned

    @property
    def located(self) -> bool:
        return self.violation_step is not None and self.near_miss_step is not None


def _prefix_rhos(phi: Formula, trace: Trace):
    """Yield robustness_bounded(phi, trace, k) for k = 0, 1, ..."""
    h = (horizon(phi.child) if isinstance(phi, Always) and math.isinf(phi.hi)
         else math.inf)
    if math.isinf(h):
        for k in range(len(trace)):
            yield robustness_bounded(phi, trace, k)
        return
    lo = int(phi.lo)
    if lo < len(trace):
        # settled[i] = min of psi over [lo, lo+i] on the whole trace
        settled = np.minimum.accumulate(
            evaluate(phi.child, trace, lo, len(trace) - 1))
    for k in range(len(trace)):
        rho = math.inf
        if k - h >= lo:
            rho = settled[k - h - lo]
        tail = max(lo, k - h + 1)
        if tail <= k:
            rho = min(rho, evaluate(phi.child, trace, tail, k).min())
        yield float(rho) + 0.0


def first_at_or_below(prefix_rho, delta: float) -> int | None:
    """The first k with prefix_rho[k] <= delta, or None."""
    if not delta >= 0:      # also rejects NaN
        raise ValueError(f"delta must be non-negative, got {delta!r}")
    return next((k for k, rho in enumerate(prefix_rho) if rho <= delta), None)


def locate(phi: Formula, trace: Trace,
           delta: float = DEFAULT_DELTA) -> CriticalMoments:
    """Search from k = 0 for the first near-miss and violation; the scan
    stops at the violation, so `prefix_rho` does not depend on delta."""
    rhos = []
    for rho in _prefix_rhos(phi, trace):
        rhos.append(rho)
        if rho <= 0:
            break
    return CriticalMoments(violation_step=first_at_or_below(rhos, 0.0),
                           near_miss_step=first_at_or_below(rhos, delta),
                           delta=delta, prefix_rho=tuple(rhos))


def moment_frames(moments: CriticalMoments, frames) -> tuple:
    """Raw frames behind both located moments plus the gap in seconds.

    `frames` are the ones the located trace was built from; each moment's
    frame is the one `build_trace` took for that step. The gap is the step
    difference times STEP_S, rounded to 0.1 s.
    """
    if not moments.located:
        raise MomentsNotFoundError("both moments must be located first")
    if not frames:
        raise MomentsNotFoundError("no frames supplied")
    index = step_frames(frames)
    if moments.violation_step >= len(index):   # near miss <= violation
        raise MomentsNotFoundError("the moments lie past the last frame")
    near = frames[index[moments.near_miss_step]]
    viol = frames[index[moments.violation_step]]
    steps = moments.violation_step - moments.near_miss_step
    gap = round(steps * STEP_S * 10) / 10
    return near, viol, gap
