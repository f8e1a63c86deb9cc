"""Locates the violation moment and the near-miss moment of a trace.

Prefix robustness at k is the robustness of the formula over the first k+1
scenes only. The violation moment is the earliest prefix whose robustness
drops to or below zero; the near-miss moment is the earliest prefix at or
below a user threshold delta. Both are found by a scan from k = 0 that
stops as soon as the violation is found.

The scan is incremental for G[lo,inf)(psi) where psi has a finite horizon h
(all built-in specifications have this shape). psi's value at t on the
prefix ending at k is its whole-trace value whenever t + h <= k, so psi is
evaluated once over the whole trace, and only the last h steps of each
prefix need psi clipped at k. Those tails are evaluated a block of prefixes
at a time: one `spec_lang._eval` call takes each prefix of the block as a
row of min(h, n) steps, so the formula tree is walked once per block, not
once per prefix, and numpy does the O(n*h) element work for n steps. A
block holds at most `_BLOCK_ELEMENTS` values whatever h is, and blocks
start at a few rows and double, so an early violation stops the scan after
little work. Any other formula is evaluated afresh on each prefix, O(n)
each, so O(n^2) when it is never violated.

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

from .spec_lang import (
    Always,
    Formula,
    _eval,
    evaluate,
    horizon,
    robustness_bounded,
)
from .trace_model import STEP_S, Trace, step_frames

DEFAULT_DELTA = 15.0        # near-miss threshold on prefix robustness

# A block of the prefix scan evaluates at most this many (prefix, step)
# pairs at once, whatever the horizon; blocks start small and double, so an
# early violation stops the scan after little work.
_BLOCK_ELEMENTS = 1 << 16
_FIRST_BLOCK_ROWS = 4


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
    n = len(trace)
    lo = int(phi.lo)
    # settled[k] = min of psi over [lo, k-h] on the whole trace
    settled = np.full(n, math.inf)
    if lo + h < n:
        settled[lo + h:] = np.minimum.accumulate(
            evaluate(phi.child, trace, lo, n - 1)[: n - h - lo])
    # Row r of a block is the prefix ending at k + r; its columns are the
    # steps k + r - w + 1 .. k + r, psi clipped at k + r. Columns before
    # lo (and so before step 0) are not part of the prefix's minimum.
    w = min(h, n)
    cols = np.arange(w)
    max_rows = max(1, _BLOCK_ELEMENTS // max(w, 1))
    rows = _FIRST_BLOCK_ROWS
    k = 0
    while k < n:
        rows = min(rows, n - k, max_rows)
        rho = settled[k: k + rows]
        if w:
            first = k - w + 1
            tail = _eval(phi.child, trace, first, rows, w)
            if first < lo:
                tail = np.where(cols >= lo - first - np.arange(rows)[:, None],
                                tail, math.inf)
            rho = np.minimum(rho, tail.min(axis=1))
        yield from (rho + 0.0).tolist()
        k += rows
        rows *= 2


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
