"""Temporal property language over traces: parser and quantitative semantics.

Binary operators, loosest first: `->` (right-associative), `|`, `&` and
`U[l,u]` (until); then the prefixes `!`, `X` (next), `G[l,u]` (always) and
`F[l,u]` (eventually). An interval counts trace steps; `[l,inf]` or no
interval means unbounded. An atom is a comparison of linear expressions
over real variables (`speed - 2 * accel < 80`), an enum test `var == value`
or `var != value` (`trafficLightColor == red`), a bare boolean or predicate
variable (`stopped`, `dest(5)`), or `true` / `false`. An enum appears in no
other way: not in an ordering, in arithmetic or beside a number.

Evaluation yields a robustness degree: positive means satisfied, <= 0 means
violated. For a comparison the linear expression f = lhs - rhs gives +f for
> and >=, -f for < and <=, |f| for != and -|f| for ==. Bare variables give
their satisfaction margin. Temporal windows are clipped to the trace: an
empty window makes eventually -infinity and always +infinity, and next at
the final step is vacuously +infinity.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .trace_model import (
    CatalogError,
    SignalVar,
    Trace,
    catalog_kind,
    enum_code,
)

INF = math.inf
COMPARATORS = (">=", "<=", "==", "!=", ">", "<")


class SpecSyntaxError(ValueError):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinExpr:
    """Linear combination of numeric signal variables plus a constant."""
    terms: tuple  # ((coef, SignalVar), ...)
    const: float = 0.0

    def minus(self, other: "LinExpr") -> "LinExpr":
        return LinExpr(self.terms + tuple((-c, v) for c, v in other.terms),
                       self.const - other.const)


@dataclass(frozen=True)
class Prop:
    expr: LinExpr
    cmp: str


@dataclass(frozen=True)
class PredAtom:
    var: SignalVar


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Next:
    child: "Formula"


@dataclass(frozen=True)
class Always:
    lo: float
    hi: float
    child: "Formula"


@dataclass(frozen=True)
class Eventually:
    lo: float
    hi: float
    child: "Formula"


@dataclass(frozen=True)
class Until:
    lo: float
    hi: float
    left: "Formula"
    right: "Formula"


Formula = object  # union of the node classes above


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|>=|<=|==|!=|[><!&|()\[\],*+-])
  | (?P<ws>\s+)
""", re.VERBOSE)

# Prefix operator -> node class; `Always` and `Eventually` take an interval.
_PREFIX = {"!": Not, "X": Next, "next": Next, "G": Always, "always": Always,
           "F": Eventually, "eventually": Eventually}
_KEYWORDS = {op for op in _PREFIX if op.isalpha()} | {"U", "until", "true",
                                                       "false", "inf"}


def _shown(val):
    """A token's text in an error message; the end of input has none."""
    return repr(val or "end of input")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def take(self, *values):
        """The next token if its value is one of `values`, consumed; else None."""
        return self.next() if self.toks[self.i][1] in values else None

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise SpecSyntaxError(f"expected {value!r}, found {_shown(val)}", pos)

    # formula := or_expr ('->' formula)?   (implication is sugar for !a | b)
    def formula(self):
        left = self.or_expr()
        return Or(Not(left), self.formula()) if self.take("->") else left

    def or_expr(self):
        node = self.and_expr()
        while self.take("|"):
            node = Or(node, self.and_expr())
        return node

    def and_expr(self):
        node = self.until_expr()
        while self.take("&"):
            node = And(node, self.until_expr())
        return node

    def until_expr(self):
        node = self.unary()
        while self.take("U", "until"):
            node = Until(*self.maybe_interval(), node, self.unary())
        return node

    def unary(self):
        cls = _PREFIX.get(self.peek()[1])
        if cls is None:
            return self.primary()
        self.next()
        if cls in (Not, Next):
            return cls(self.unary())
        return cls(*self.maybe_interval(), self.unary())

    def maybe_interval(self):
        bracket = self.take("[")
        if bracket is None:
            return 0.0, INF
        lo = self.step_bound()
        self.expect(",")
        hi = INF if self.take("inf") else self.step_bound()
        self.expect("]")
        if lo < 0 or lo > hi:
            raise SpecSyntaxError(f"malformed interval [{lo:g},{hi:g}]", bracket[2])
        return lo, hi

    def step_bound(self):
        pos = self.peek()[2]
        value = self.number()
        if not value.is_integer():
            raise SpecSyntaxError("interval bounds count steps and must be"
                                  f" whole numbers, found {value:g}", pos)
        return value

    def number(self):
        sign = -1.0 if self.take("-") else 1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise SpecSyntaxError(f"expected a number, found {_shown(val)}", pos)
        return sign * float(val)

    def primary(self):
        if self.take("("):
            node = self.formula()
            self.expect(")")
            return node
        lit = self.take("true", "false")
        return self.atom() if lit is None else BoolLit(lit[1] == "true")

    # atom := enum ('==' | '!=') value | linexpr cmp linexpr | flag | predicate
    def atom(self):
        start = self.peek()[2]
        lhs = self.linexpr()
        cmp = self.take(*COMPARATORS)
        if len(lhs.terms) == 1 and lhs.const == 0.0 and lhs.terms[0][0] == 1.0:
            var = lhs.terms[0][1]
            kind = catalog_kind(var.name)
            if kind == "enum" and cmp is not None and cmp[1] in ("==", "!="):
                tok_kind, val, pos = self.next()
                if tok_kind == "eof":
                    raise SpecSyntaxError(f"expected a value of {var.name},"
                                          f" found {_shown(val)}", pos)
                try:
                    code = enum_code(var.name, val)
                except CatalogError as exc:
                    raise SpecSyntaxError(exc.args[0], pos) from None
                return Prop(LinExpr(((1.0, var),), 0.0 - code), cmp[1])
            if kind == "enum":
                raise SpecSyntaxError(f"{var.name} is an enum; test it with =="
                                      " or != and one of its values", start)
            if cmp is None and kind in ("bool", "pred"):
                return PredAtom(var)
            if cmp is None:
                raise SpecSyntaxError(
                    f"{var.name} is numeric; compare it (e.g. {var.name} < 60)", start)
        elif cmp is None:
            raise SpecSyntaxError("expected a comparison", start)
        lhs = self.real(lhs, start)     # checked before the right side is read
        return Prop(lhs.minus(self.real(self.linexpr(), start)), cmp[1])

    def real(self, expr, start):
        """`expr`, if each of its terms is a real variable."""
        for _, var in expr.terms:
            kind = catalog_kind(var.name)
            if kind != "real":
                what = "an enum" if kind == "enum" else "a proposition"
                raise SpecSyntaxError(f"{var.name} is {what} and cannot appear"
                                      " in arithmetic", start)
        return expr

    def linexpr(self):
        terms = []
        const = 0.0
        while True:
            sign = 1.0
            while sign_tok := self.take("+", "-"):
                if sign_tok[1] == "-":
                    sign = -sign
            kind, val, pos = self.peek()
            if kind == "num":
                self.next()
                coef = sign * float(val)
                if self.take("*"):
                    terms.append((coef, self.variable()))
                else:
                    const += coef
            elif kind == "name" and val not in _KEYWORDS:
                terms.append((sign, self.variable()))
            else:
                raise SpecSyntaxError("expected a variable or number, found"
                                      f" {_shown(val)}", pos)
            if self.peek()[1] not in ("+", "-"):
                return LinExpr(tuple(terms), const)

    def variable(self):
        kind, val, pos = self.next()
        if kind != "name" or val in _KEYWORDS:
            raise SpecSyntaxError(f"expected a variable name, found {_shown(val)}", pos)
        arg = None
        if self.take("("):
            arg = self.number()
            self.expect(")")
        try:
            return SignalVar(val, arg)
        except CatalogError as exc:
            raise SpecSyntaxError(exc.args[0], pos) from None


def parse_spec(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise SpecSyntaxError(f"unexpected trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Quantitative semantics
# ---------------------------------------------------------------------------

def _var_array(trace: Trace, var: SignalVar) -> np.ndarray:
    """The variable's reading at every scene, cached on the trace."""
    arr = trace._signal_cache.get(var)
    if arr is None:
        arr = var.readings(trace.scenes)
        trace._signal_cache[var] = arr
    return arr


def _prop_array(trace: Trace, node: Prop) -> np.ndarray:
    arr = trace._signal_cache.get(node)
    if arr is None:
        f = np.full(len(trace), node.expr.const, dtype=float)
        for coef, var in node.expr.terms:
            f = f + coef * _var_array(trace, var)
        if node.cmp in (">", ">="):
            arr = f
        elif node.cmp in ("<", "<="):
            arr = -f
        elif node.cmp == "!=":
            arr = np.abs(f)
        else:  # ==
            arr = -np.abs(f)
        trace._signal_cache[node] = arr
    return arr


def _windows(arr: np.ndarray, first: int, rows: int, width: int) -> np.ndarray:
    """arr[first + r + j] at [r, j]: a read-only view of overlapping rows
    (sliding_window_view's layout, built without its per-call cost). Steps
    before 0 read 0.0."""
    if first < 0:
        arr = np.concatenate((np.zeros(-first), arr[: first + rows + width - 1]))
        first = 0
    seg = arr[first: first + rows + width - 1]
    out = np.ndarray((rows, width), seg.dtype, seg, 0, seg.strides * 2)
    out.flags.writeable = False
    return out


def _window_agg(child: np.ndarray, lo, hi, is_min: bool) -> np.ndarray:
    """out[..., t] = agg(child[..., t+lo : min(t+hi, end)+1]) along the last
    axis, `end` its last index; empty windows are vacuous."""
    ident = INF if is_min else -INF
    acc = np.minimum.accumulate if is_min else np.maximum.accumulate
    lo_i = int(lo)
    n = child.shape[-1]
    if math.isinf(hi) or int(hi) >= n - 1:   # every window reaches the end
        suffix = acc(child[..., ::-1], axis=-1)[..., ::-1]
        if lo_i == 0:
            return suffix
        out = np.full(child.shape, ident)
        if lo_i < n:
            out[..., : n - lo_i] = suffix[..., lo_i:]
        return out
    hi_i = int(hi)
    if hi_i < lo_i:                           # every window is empty
        return np.full(child.shape, ident)
    # van Herk/Gil-Werman: x[j] = child[lo + j], cut into blocks of w steps.
    # The window at t, x[t .. t + w - 1], is the tail of t's block and the
    # head of the next, so its aggregate is that of a suffix and a prefix.
    w = hi_i - lo_i + 1
    blocks = (n + 2 * w - 2) // w             # x must reach n + w - 2
    x = np.full(child.shape[:-1] + (blocks, w), ident)
    flat = x.reshape(child.shape[:-1] + (blocks * w,))
    if lo_i < n:
        flat[..., : n - lo_i] = child[..., lo_i:]
    head = acc(x, axis=-1).reshape(flat.shape)
    tail = acc(x[..., ::-1], axis=-1)[..., ::-1].reshape(flat.shape)
    agg = np.minimum if is_min else np.maximum
    return agg(tail[..., :n], head[..., w - 1: w - 1 + n])


def _until(c1: np.ndarray, c2: np.ndarray, lo, hi, n: int) -> np.ndarray:
    """out[t] = max over t1 in [t+lo, min(t+hi, n-1)] of
    min(c2[t1], min(c1[t..t1])), -inf for an empty window.

    Under min/max robustness phi U[lo,hi] psi is the min of G[0,lo-1] phi,
    F[lo,hi] psi and the unbounded phi U psi taken at t+lo (Donze, Ferrere
    and Maler, CAV 2013). The unbounded one is the backward recurrence
    U(t) = min(c1[t], max(c2[t], U(t+1))) with U(n) = -inf. Every step only
    picks one of the given values, so the result is exact.
    """
    left = c1.tolist()
    right = c2.tolist()
    unbounded = [0.0] * n
    u = -INF
    for t in range(n - 1, -1, -1):
        if right[t] > u:
            u = right[t]
        if left[t] < u:
            u = left[t]
        unbounded[t] = u
    lo_i = int(lo)
    out = np.full(n, -INF)
    if lo_i < n:
        out[: n - lo_i] = unbounded[lo_i:]
    if lo_i > 0:
        out = np.minimum(out, _window_agg(c1, 0, lo_i - 1, is_min=True))
    # a window reaching the end holds every t1 the recurrence ranges over,
    # so its max bounds `out` from above
    if not (math.isinf(hi) or int(hi) >= n - 1):
        out = np.minimum(out, _window_agg(c2, lo, hi, is_min=False))
    return out


def _eval(node, trace: Trace, first: int, rows: int, width: int) -> np.ndarray:
    """Robustness of `node` on `rows` windows of `width` steps: [r, j] is its
    value at step first + r + j with the trace clipped at the row's last
    step, first + r + width - 1.

    Every operator looks only forward in time, so row r equals evaluating
    the slice of scenes [first + r, first + r + width - 1] on its own, and
    a column's value depends on no column before it. Columns before step 0
    hold no robustness value; callers that ask for them discard them.
    """
    if isinstance(node, Prop):
        out = _windows(_prop_array(trace, node), first, rows, width)
    elif isinstance(node, PredAtom):
        out = _windows(_var_array(trace, node.var), first, rows, width)
    elif isinstance(node, BoolLit):
        out = np.full((rows, width), INF if node.value else -INF)
    elif isinstance(node, Not):
        out = -_eval(node.child, trace, first, rows, width)
    elif isinstance(node, And):
        out = np.minimum(_eval(node.left, trace, first, rows, width),
                         _eval(node.right, trace, first, rows, width))
    elif isinstance(node, Or):
        out = np.maximum(_eval(node.left, trace, first, rows, width),
                         _eval(node.right, trace, first, rows, width))
    elif isinstance(node, Next):
        out = np.full((rows, width), INF)
        out[:, :-1] = _eval(node.child, trace, first, rows, width)[:, 1:]
    elif isinstance(node, Always):
        out = _window_agg(_eval(node.child, trace, first, rows, width),
                          node.lo, node.hi, is_min=True)
    elif isinstance(node, Eventually):
        out = _window_agg(_eval(node.child, trace, first, rows, width),
                          node.lo, node.hi, is_min=False)
    elif isinstance(node, Until):
        left = _eval(node.left, trace, first, rows, width)
        right = _eval(node.right, trace, first, rows, width)
        out = np.empty((rows, width))
        for r in range(rows):
            out[r] = _until(left[r], right[r], node.lo, node.hi, width)
    else:
        raise TypeError(f"not a formula node: {node!r}")
    return out


def evaluate(phi: Formula, trace: Trace, start: int, end: int) -> np.ndarray:
    """Robustness of phi at every step in [start, end], clipped at `end`."""
    if not 0 <= start <= end < len(trace):
        raise IndexError(f"steps [{start}, {end}] outside trace of length"
                         f" {len(trace)}")
    return _eval(phi, trace, start, 1, end - start + 1)[0]


def horizon(node) -> float:
    """Steps past t that the value of `node` at t can depend on.

    Under clipping at k the value at t is the whole-trace value whenever
    t + horizon <= k. Unbounded windows give inf.
    """
    if isinstance(node, (Prop, PredAtom, BoolLit)):
        return 0
    if isinstance(node, Not):
        return horizon(node.child)
    if isinstance(node, (And, Or)):
        return max(horizon(node.left), horizon(node.right))
    if isinstance(node, Next):
        return 1 + horizon(node.child)
    if isinstance(node, (Always, Eventually)):
        return _hi(node) + horizon(node.child)
    if isinstance(node, Until):
        return _hi(node) + max(horizon(node.left), horizon(node.right))
    raise TypeError(f"not a formula node: {node!r}")


def _hi(node):
    return INF if math.isinf(node.hi) else int(node.hi)


def robustness(phi: Formula, trace: Trace) -> float:
    """Robustness degree of phi over the whole trace, at step 0."""
    return float(_eval(phi, trace, 0, 1, len(trace))[0, 0]) + 0.0


def robustness_bounded(phi: Formula, trace: Trace, end: int) -> float:
    """Robustness at step 0 with evaluation clipped to scenes [0, end]."""
    if not 0 <= end < len(trace):
        raise IndexError(f"step {end} outside trace of length {len(trace)}")
    return float(_eval(phi, trace, 0, 1, end + 1)[0, 0]) + 0.0


# ---------------------------------------------------------------------------
# Built-in specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecEntry:
    name: str
    stl: str
    prose: str


# The four numbered laws are simplified desk-scale encodings of the cited
# road regulations. Windows count trace steps of trace_model.STEP_S, so
# F[0,200] spans 20 s.
BUILTIN_SPEC_ENTRIES = (
    SpecEntry(
        "no_collision",
        "G (!NearestNPC(0.1))",
        "Avoid collisions with other objects.",
    ),
    SpecEntry(
        "finish_journey",
        "G (F[0,200](speed > 0.5) | dest(5))",
        "Do not stop on the road; keep making progress unless close to the destination.",
    ),
    SpecEntry(
        "law38_green",
        "G ((trafficLightColor == green & stoplineAhead(3) & stopped) -> F[0,100] (!stopped))",
        "At a green light, proceed; do not remain stopped at the stop line.",
    ),
    SpecEntry(
        "law38_yellow",
        "G ((trafficLightColor == yellow & stoplineAhead(3)) -> stopped)",
        "At a yellow light, vehicles that have not yet crossed the stop line must stop.",
    ),
    SpecEntry(
        "law38_red",
        "G ((trafficLightColor == red & stoplineAhead(3)) -> stopped)",
        "At a red light, stop before the stop line and do not enter the intersection.",
    ),
    SpecEntry(
        "law44",
        "G ((laneKind == fast) -> (F[0,200] (speed > 0.5) | dest(5)))",
        "In the fast lane, keep moving; slow or stopped vehicles must leave it.",
    ),
    SpecEntry(
        "law46",
        "G ((fogIntensity > 0 | rainIntensity > 0 | snowIntensity > 0 | visibility < 50)"
        " -> (speed <= 30))",
        "Under rain, snow, or fog, or when visibility is below 50 metres,"
        " do not exceed 30 km/h.",
    ),
    SpecEntry(
        "law53",
        "G ((junctionAhead(1) & junctionCongested) -> !inJunction)",
        "Do not enter a congested junction; wait outside until it clears.",
    ),
)

_BUILTINS = {entry.name: entry for entry in BUILTIN_SPEC_ENTRIES}


def builtin_specs() -> dict:
    """Name to parsed formula for every built-in specification."""
    return {name: parse_spec(entry.stl) for name, entry in _BUILTINS.items()}


def load_spec_file(path) -> SpecEntry:
    """Parse a spec file: one spec as `name:`, `stl:` and optional `prose:`
    lines, the name: line first and each line once."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, colon, value = line.partition(":")
            if not colon or key not in ("name", "stl", "prose"):
                raise SpecSyntaxError(f"unexpected spec-file line: {line!r}")
            if not fields and key != "name":
                raise SpecSyntaxError(f"line {lineno}: {line!r} comes before"
                                      " the name: line")
            if key in fields:
                raise SpecSyntaxError(f"line {lineno}: spec {fields['name']!r}"
                                      f" has a second {key}: line")
            fields[key] = value.strip()
    if not fields:
        raise SpecSyntaxError("spec file has no name: line")
    if "stl" not in fields:
        raise SpecSyntaxError(f"spec {fields['name']!r} has no stl: line")
    return SpecEntry(fields["name"], fields["stl"],
                     fields.get("prose") or fields["name"])


def resolve_spec(name_or_path) -> SpecEntry:
    """Accept a built-in name or a path to a spec file."""
    name_or_path = str(name_or_path)
    if name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]
    if not os.path.exists(name_or_path):
        raise ValueError(f"unknown spec {name_or_path!r}: neither a spec file"
                         f" nor a built-in ({', '.join(_BUILTINS)})")
    return load_spec_file(name_or_path)
