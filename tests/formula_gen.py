"""Seeded random formula generator for the evaluator equivalence tests."""
from __future__ import annotations

import math
import random

from driverepair.spec_lang import (
    Always,
    And,
    BoolLit,
    Eventually,
    LinExpr,
    Next,
    Not,
    Or,
    PredAtom,
    Prop,
    Until,
)
from driverepair.trace_model import SignalVar

_REAL_VARS = ("speed", "accel", "visibility", "rainIntensity")
_BOOL_VARS = ("inJunction", "stopped", "junctionCongested", "isChangingLane")
_PRED_VARS = ("NPCAhead", "NearestNPC", "junctionAhead", "dest")
_CMPS = (">", ">=", "<", "<=", "!=")


def _atom(rng: random.Random):
    kind = rng.random()
    if kind < 0.5:
        terms = tuple(
            (rng.choice((-2.0, -1.0, 1.0, 2.0)), SignalVar(rng.choice(_REAL_VARS)))
            for _ in range(rng.randint(1, 2))
        )
        const = rng.uniform(-80, 80)
        return Prop(LinExpr(terms, const), rng.choice(_CMPS))
    if kind < 0.8:
        return PredAtom(SignalVar(rng.choice(_BOOL_VARS)))
    return PredAtom(SignalVar(rng.choice(_PRED_VARS), rng.uniform(0.5, 40)))


def _interval(rng: random.Random, unbounded_p: float):
    lo = rng.randint(0, 4)
    if rng.random() < unbounded_p:
        return float(lo), math.inf
    return float(lo), float(lo + rng.randint(0, 6))


def random_formula(rng: random.Random, depth: int = 3,
                   unbounded_p: float = 0.3):
    """A random formula; each temporal window is unbounded with
    probability unbounded_p."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return BoolLit(rng.random() < 0.5)
        return _atom(rng)

    def sub():
        return random_formula(rng, depth - 1, unbounded_p)

    choice = rng.randint(0, 6)
    if choice == 0:
        return Not(sub())
    if choice == 1:
        return And(sub(), sub())
    if choice == 2:
        return Or(sub(), sub())
    if choice == 3:
        lo, hi = _interval(rng, unbounded_p)
        return Always(lo, hi, sub())
    if choice == 4:
        lo, hi = _interval(rng, unbounded_p)
        return Eventually(lo, hi, sub())
    if choice == 5:
        return Next(sub())
    lo, hi = _interval(rng, unbounded_p)
    return Until(lo, hi, sub(), sub())
