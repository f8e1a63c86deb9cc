"""Locates the violation moment and the near-miss moment of a trace.

Prefix robustness at k is the robustness of the formula over the first k+1
scenes only. The violation moment is the earliest prefix whose robustness
drops to or below zero; the near-miss moment is the earliest prefix at or
below a user threshold delta. Both are found by a scan from k = 0 that
stops as soon as the violation is found.

The scan reads the formula as G[lo,hi] psi, and any other formula phi as
G[0,0] phi. psi's value at t on the prefix ending at k depends only on the
steps t .. min(t + h, k), h = horizon(psi), so it is its whole-trace value
whenever t + h <= k. The prefixes are evaluated a block at a time: one
`spec_lang._eval` call takes each prefix of the block as a row of
w = min(h + 1, k + rows, n) steps ending at it, so the formula tree is
walked once per block, not once per prefix. A row either starts at or
before step 0, and so holds every step of its prefix, or is h + 1 wide,
and then its first column is psi's whole-trace value; a running minimum of
those first columns stands for every step left of the row. Steps outside
[lo, hi] do not count, so from prefix hi + h on every prefix reads that
running minimum, and no block reaches past hi + h. A block holds at most
`_BLOCK_ELEMENTS` values whatever h is, and blocks start at a few rows
and double, so an early violation stops the scan after little work. A
never-violated formula costs O(m*h) element work, m = min(n, hi + h) for
n steps, and O(n^2) when psi has an unbounded window, because each row
then spans its whole prefix.

Prefix robustness need not be monotone (eventually-style obligations can
dip on a clipped prefix and recover later); the first crossing is reported
regardless, and the report carries a note to that effect.

Moments are trace steps, STEP_S apart. `moment_frames` maps each step back
to the frame `build_trace` took for it (`trace_model.step_frames`), so the
rendered moments are the scenes the formula was evaluated on, whatever the
record's frame rate or gaps.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spec_lang import Always, Formula, _eval, _hi, horizon
from .trace_model import STEP_S, Trace, require_non_negative, step_frames

DEFAULT_DELTA = 15.0        # near-miss threshold on prefix robustness

# A block of the prefix scan evaluates at most this many (prefix, step)
# pairs at once, whatever the horizon; blocks start small and double, so an
# early violation stops the scan after little work.
_BLOCK_ELEMENTS = 1 << 16
_FIRST_BLOCK_ROWS = 4


def require_delta(delta):
    """`delta`, the near-miss threshold; a ValueError unless delta >= 0
    (NaN is not)."""
    return require_non_negative(delta, "delta")


class MomentsNotFoundError(LookupError):
    """Raised when an operation needs moments that were not located."""


@dataclass(frozen=True)
class CriticalMoments:
    """A scan's prefix robustness and the near-miss threshold; the moments
    and their gap follow from the two."""
    delta: float
    prefix_rho: tuple  # rho over prefixes k = 0 .. last step scanned

    def __post_init__(self):
        require_delta(self.delta)

    def _first_at_or_below(self, bound: float) -> int | None:
        return next((k for k, rho in enumerate(self.prefix_rho)
                     if rho <= bound), None)

    @functools.cached_property
    def violation_step(self) -> int | None:
        return self._first_at_or_below(0.0)

    @functools.cached_property
    def near_miss_step(self) -> int | None:     # <= violation_step
        return self._first_at_or_below(self.delta)

    @functools.cached_property
    def gap_seconds(self) -> float | None:
        """The moments' step difference times STEP_S, to 0.1 s."""
        if not self.located:
            return None
        steps = self.violation_step - self.near_miss_step
        return round(steps * STEP_S * 10) / 10

    @property
    def located(self) -> bool:
        return self.violation_step is not None


def _prefix_rhos(phi: Formula, trace: Trace):
    """Yield robustness_bounded(phi, trace, k) for k = 0, 1, ..."""
    lo, hi, psi = ((int(phi.lo), _hi(phi), phi.child)
                   if isinstance(phi, Always) else (0, 0, phi))
    h = horizon(psi)
    n = len(trace)
    carry = math.inf        # min of psi over [lo, hi] left of the next row
    rows = _FIRST_BLOCK_ROWS
    k = 0
    while k < n:
        if k - h > hi:  # every row lies past hi: each prefix reads carry
            yield from itertools.repeat(float(carry) + 0.0, n - k)
            return
        # the block ends at prefix n - 1 or hi + h, whichever comes first
        rows = min(rows, n - k, hi + h + 1 - k)
        rows = max(1, min(rows, _BLOCK_ELEMENTS // min(h + 1, k + rows, n)))
        w = min(h + 1, k + rows, n)
        # Row r is the prefix ending at k + r; column j is step
        # first + r + j, psi clipped at k + r.
        first = k - w + 1
        vals = _eval(psi, trace, first, rows, w)
        if first < lo or k + rows - 1 > hi:
            steps = first + np.arange(rows)[:, None] + np.arange(w)
            vals = np.where((steps >= lo) & (steps <= hi), vals, math.inf)
        rho = vals.min(axis=1)
        if w > h:       # column 0 is psi's whole-trace value at k + r - h
            carry = np.minimum(np.minimum.accumulate(vals[:, 0]), carry)
            rho = np.minimum(rho, carry)
            carry = carry[-1]
        yield from (rho + 0.0).tolist()
        k += rows
        rows *= 2


def locate(phi: Formula, trace: Trace,
           delta: float = DEFAULT_DELTA) -> CriticalMoments:
    """Search from k = 0 for the first near-miss and violation; the scan
    stops at the violation, so `prefix_rho` does not depend on delta."""
    rhos = []
    for rho in _prefix_rhos(phi, trace):
        rhos.append(rho)
        if rho <= 0:
            break
    return CriticalMoments(delta=delta, prefix_rho=tuple(rhos))


def moment_frames(moments: CriticalMoments, frames) -> tuple:
    """Raw frames behind both located moments, near miss first.

    `frames` are the ones the located trace was built from; each moment's
    frame is the one `build_trace` took for that step.
    """
    if not moments.located:
        raise MomentsNotFoundError("both moments must be located first")
    if not frames:
        raise MomentsNotFoundError("no frames supplied")
    index = step_frames(frames)
    if moments.violation_step >= len(index):   # near miss <= violation
        raise MomentsNotFoundError("the moments lie past the last frame")
    return (frames[index[moments.near_miss_step]],
            frames[index[moments.violation_step]])
