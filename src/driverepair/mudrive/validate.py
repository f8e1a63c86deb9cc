"""Static validation of rule programs against the vocabulary catalog."""
from __future__ import annotations

from dataclasses import dataclass

from ..trace_model import require_bool, require_finite, require_one_of
from .catalog import default_catalog
from .grammar import Call, MuDriveProgram


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    where: str       # "trigger" | "condition" | "action" | "until" | "rule"
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.where}: {self.message}"


def _check_value(spec, value, name):
    """Raise a ValueError naming `name` if `value` does not fit `spec`."""
    if spec.type == "number":
        require_finite(value, name)
        if spec.minimum is not None and value < spec.minimum:
            raise ValueError(f"{name} must be >= {spec.minimum}, got {value}")
        if spec.maximum is not None and value > spec.maximum:
            raise ValueError(f"{name} must be <= {spec.maximum}, got {value}")
    elif spec.type == "enum":
        require_one_of(value, spec.values, name)
    elif spec.type == "bool":
        require_bool(value, name)


def _check_args(entry, call: Call, rule, where, out):
    if len(call.args) != len(entry.params):
        out.append(Diagnostic(rule, where,
                              f"{call.name} takes {len(entry.params)} argument(s),"
                              f" got {len(call.args)}"))
        return
    for spec, value in zip(entry.params, call.args):
        try:
            _check_value(spec, value, f"{call.name}: {spec.name}")
        except ValueError as exc:
            out.append(Diagnostic(rule, where, str(exc)))


def _check_trigger(call: Call, cat, rule, where, out):
    entry = cat.trigger(call.name)
    if entry is None:
        out.append(Diagnostic(rule, where, f"unknown event {call.name!r}"))
        return
    _check_args(entry, call, rule, where, out)


def validate(program: MuDriveProgram):
    """Returns a list of diagnostics; empty means the program is well formed."""
    cat = default_catalog()
    out: list[Diagnostic] = []

    if not program.rules:
        out.append(Diagnostic("<program>", "rule", "program has no rules"))

    seen = set()
    for rule in program.rules:
        if not rule.name:
            out.append(Diagnostic(rule.name, "rule",
                                  "a rule name must not be empty"))
        if rule.name in seen:
            out.append(Diagnostic(rule.name, "rule", "duplicate rule name"))
        seen.add(rule.name)

        _check_trigger(rule.trigger, cat, rule.name, "trigger", out)

        for negated, call in rule.conditions:
            entry = cat.condition(call.name)
            if entry is None:
                out.append(Diagnostic(rule.name, "condition",
                                      f"unknown condition {call.name!r}"))
                continue
            _check_args(entry, call, rule.name, "condition", out)

        if not rule.actions:
            out.append(Diagnostic(rule.name, "action", "rule has no actions"))
        for call in rule.actions:
            entry = cat.action(call.name)
            if entry is None:
                out.append(Diagnostic(rule.name, "action",
                                      f"unknown action {call.name!r}"))
                continue
            _check_args(entry, call, rule.name, "action", out)

        if rule.until is not None:
            _check_trigger(rule.until, cat, rule.name, "until", out)

    return out


def require_valid(program: MuDriveProgram) -> MuDriveProgram:
    """Returns `program`; raises a ValueError, one line per diagnostic, if
    `validate` finds a problem."""
    problems = validate(program)
    if problems:
        raise ValueError("\n".join(["program is invalid:", *map(str, problems)]))
    return program
