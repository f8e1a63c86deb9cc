"""Independent boolean finite-trace evaluator used as a sign oracle.

Written against the language definition directly, sharing no temporal or
window machinery with the production evaluator. Atoms use the strict margin
reading (a comparison holds iff its signed margin is strictly positive), so
the verdict matches the sign of the robustness degree everywhere except on
measure-zero boundary cases, which the random generators avoid.
"""
from __future__ import annotations

from oracle_reference import read_ref

from driverepair.spec_lang import (
    Always,
    And,
    BoolLit,
    Eventually,
    Next,
    Not,
    Or,
    PredAtom,
    Prop,
    Until,
)


def _prop_holds(node: Prop, scene) -> bool:
    f = node.expr.const
    for coef, var in node.expr.terms:
        f += coef * read_ref(var, scene)
    if node.cmp in (">", ">="):
        return f > 0
    if node.cmp in ("<", "<="):
        return f < 0
    if node.cmp == "!=":
        return f != 0
    return False  # ==: the margin -|f| is never strictly positive


def holds(phi, trace, t: int = 0, end: int | None = None) -> bool:
    if end is None:
        end = len(trace) - 1
    scene = trace.scenes[t] if t <= end else None

    if isinstance(phi, Prop):
        return _prop_holds(phi, scene)
    if isinstance(phi, PredAtom):
        return read_ref(phi.var, scene) > 0
    if isinstance(phi, BoolLit):
        return phi.value
    if isinstance(phi, Not):
        return not holds(phi.child, trace, t, end)
    if isinstance(phi, And):
        return holds(phi.left, trace, t, end) and holds(phi.right, trace, t, end)
    if isinstance(phi, Or):
        return holds(phi.left, trace, t, end) or holds(phi.right, trace, t, end)
    if isinstance(phi, Next):
        if t + 1 > end:
            return True  # vacuous beyond the trace
        return holds(phi.child, trace, t + 1, end)
    if isinstance(phi, (Always, Eventually)):
        lo = int(phi.lo)
        hi = end if phi.hi == float("inf") else min(int(phi.hi) + t, end)
        window = range(t + lo, hi + 1)
        if isinstance(phi, Always):
            return all(holds(phi.child, trace, u, end) for u in window)
        return any(holds(phi.child, trace, u, end) for u in window)
    if isinstance(phi, Until):
        lo = int(phi.lo)
        hi = end if phi.hi == float("inf") else min(int(phi.hi) + t, end)
        for t1 in range(t + lo, hi + 1):
            if holds(phi.right, trace, t1, end) and all(
                    holds(phi.left, trace, t2, end) for t2 in range(t, t1 + 1)):
                return True
        return False
    raise TypeError(f"unknown node {phi!r}")
