"""JSON Schema emission and the JSON <-> program bridge.

The schema describes exactly what the catalog allows so that a function-call
backend constrained by it can only produce structurally valid programs: one
trigger, optional conditions, at least one action, at most a single exit
trigger, encoded in that order.
"""
from __future__ import annotations

import json

from .catalog import ALWAYS, default_catalog
from .grammar import Call, MuDriveProgram, Rule

SCHEMA_DIALECT = "https://json-schema.org/draft/2020-12/schema"


class SchemaConversionError(ValueError):
    """A document breaks the program schema; `paths` holds the JSON path."""

    def __init__(self, path, message):
        self.paths = [path]
        super().__init__(f"document does not match the program schema:"
                         f" {path}: {message}")


def _param_schema(spec):
    if spec.type == "number":
        out = {"type": "number",
               "description": f"{spec.description} Unit: {spec.unit or 'unitless'}."}
        if spec.minimum is not None:
            out["minimum"] = spec.minimum
        if spec.maximum is not None:
            out["maximum"] = spec.maximum
        return out
    if spec.type == "enum":
        return {"type": "string", "enum": list(spec.values),
                "description": spec.description}
    return {"type": "boolean", "description": spec.description}


def _call_schema(entry, extra_properties=None):
    props = {"name": {"const": entry.name}}
    required = ["name"]
    if entry.params:
        props["args"] = {
            "type": "object",
            "properties": {p.name: _param_schema(p) for p in entry.params},
            "required": [p.name for p in entry.params],
            "additionalProperties": False,
        }
        required.append("args")
    if extra_properties:
        props.update(extra_properties)
    return {
        "type": "object",
        "description": entry.description,
        "properties": props,
        "required": required,
        "additionalProperties": False,
    }


_built = (None, None)       # (catalog, its schema), the last one built


def emit_schema() -> dict:
    """JSON Schema (draft 2020-12) for one whole repair program.

    The schema is built once per catalog object (`default_catalog()`) and
    every call returns that one shared document: treat it as read-only."""
    global _built
    cat = default_catalog()
    if _built[0] is not cat:
        _built = (cat, _schema_of(cat))
    return _built[1]


def _schema_of(cat) -> dict:
    negated = {"negated": {"type": "boolean", "default": False,
                           "description": "Invert the condition."}}

    return {
        "$schema": SCHEMA_DIALECT,
        "title": "driving_strategy_repair_program",
        "description": "One or more rules; each rule has a name, one trigger,"
                       " zero or more conditions, one or more actions, and at"
                       " most one exit trigger, in that order.",
        "type": "object",
        "properties": {
            "rules": {
                "type": "array",
                "minItems": 1,
                "items": {"$ref": "#/$defs/rule"},
                "description": "The rules of the program, applied in order;"
                               " later rules win parameter conflicts.",
            },
        },
        "required": ["rules"],
        "additionalProperties": False,
        "$defs": {
            "rule": {
                "type": "object",
                "properties": {
                    "name": {"type": "string", "minLength": 1,
                             "description": "Short human-readable description"
                                            " of what the rule does."},
                    "trigger": {"$ref": "#/$defs/event_trigger"},
                    "conditions": {
                        "type": "array",
                        "items": {"$ref": "#/$defs/condition"},
                        "description": "All conditions must hold for the rule"
                                       " to apply.",
                    },
                    "actions": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"$ref": "#/$defs/action"},
                        "description": "Parameter assignments applied while"
                                       " the rule is active.",
                    },
                    "until": {"$ref": "#/$defs/event_trigger"},
                },
                "required": ["name", "trigger", "actions"],
                "additionalProperties": False,
            },
            "event_trigger": {
                "description": "An event, or 'always' for every step.",
                "oneOf": [_call_schema(e) for e in (*cat.events, ALWAYS)],
            },
            "condition": {
                "description": "A context test, optionally negated.",
                "oneOf": [_call_schema(e, negated) for e in cat.conditions],
            },
            "action": {
                "description": "A planner-parameter assignment.",
                "oneOf": [_call_schema(e) for e in cat.actions],
            },
        },
    }


def schema_json() -> str:
    return json.dumps(emit_schema(), indent=2)


_RULE_KEYS = ("name", "trigger", "conditions", "actions", "until")


def _object(doc, path, required, allowed):
    if not isinstance(doc, dict):
        raise SchemaConversionError(path, "expected an object")
    for key in required:
        if key not in doc:
            raise SchemaConversionError(path, f"missing required key {key!r}")
    for key in doc:
        if key not in allowed:
            raise SchemaConversionError(path, f"unexpected key {key!r}")
    return doc


def _array(doc, path, min_items=0):
    if not isinstance(doc, list):
        raise SchemaConversionError(path, "expected an array")
    if len(doc) < min_items:
        raise SchemaConversionError(path, f"expected at least {min_items} item(s)")
    return doc


def _call_from_json(doc, path, kind, find, extra=()) -> Call:
    """One call object; `find` maps its name to the catalog entry or None."""
    if not isinstance(doc, dict):
        raise SchemaConversionError(path, "expected an object")
    name = doc.get("name")
    entry = find(name) if isinstance(name, str) else None
    if entry is None:
        raise SchemaConversionError(f"{path}.name",
                                    f"expected a catalog {kind} name, got {name!r}")
    required = ("name", "args") if entry.params else ("name",)
    _object(doc, path, required, required + extra)
    if not entry.params:
        return Call(name)
    args = doc["args"]
    names = [p.name for p in entry.params]
    if not isinstance(args, dict) or set(args) != set(names):
        raise SchemaConversionError(f"{path}.args", f"expected an object with"
                                    f" exactly the keys {names}")
    return Call(name, tuple(args[n] for n in names))


def from_json(doc) -> MuDriveProgram:
    """Build a program from a JSON document of the shape `emit_schema` describes.

    Raises SchemaConversionError at the first JSON path whose structure the
    schema rejects. Argument values (types, enums, ranges) and empty rule
    names are left to `validate`, which checks them on every program.
    """
    cat = default_catalog()
    rules = []
    rdocs = _array(_object(doc, "$", ("rules",), ("rules",))["rules"],
                   "$.rules", min_items=1)
    for i, rdoc in enumerate(rdocs):
        path = f"$.rules[{i}]"
        _object(rdoc, path, ("name", "trigger", "actions"), _RULE_KEYS)
        name = rdoc["name"]
        if not isinstance(name, str):
            raise SchemaConversionError(f"{path}.name", "expected a string")
        trigger = _call_from_json(rdoc["trigger"], f"{path}.trigger", "event",
                                  cat.trigger)
        conditions = []
        for j, cdoc in enumerate(_array(rdoc.get("conditions", []),
                                        f"{path}.conditions")):
            cpath = f"{path}.conditions[{j}]"
            call = _call_from_json(cdoc, cpath, "condition", cat.condition,
                                   extra=("negated",))
            negated = cdoc.get("negated", False)
            if not isinstance(negated, bool):
                raise SchemaConversionError(f"{cpath}.negated", "expected true or false")
            conditions.append((negated, call))
        actions = tuple(
            _call_from_json(adoc, f"{path}.actions[{j}]", "action", cat.action)
            for j, adoc in enumerate(_array(rdoc["actions"], f"{path}.actions",
                                            min_items=1)))
        until = None
        if "until" in rdoc:
            until = _call_from_json(rdoc["until"], f"{path}.until", "event",
                                    cat.trigger)
        rules.append(Rule(name=name, trigger=trigger, conditions=tuple(conditions),
                          actions=actions, until=until))
    return MuDriveProgram(tuple(rules))


def _call_to_json(call: Call, entry, negated=None):
    out = {"name": call.name}
    if entry is not None and entry.params:
        out["args"] = {p.name: v for p, v in zip(entry.params, call.args)}
    if negated:
        out["negated"] = True
    return out


def to_json(program: MuDriveProgram) -> dict:
    """Serialize a program into the schema's JSON shape."""
    cat = default_catalog()
    rules = []
    for rule in program.rules:
        rdoc = {
            "name": rule.name,
            "trigger": _call_to_json(rule.trigger, cat.trigger(rule.trigger.name)),
        }
        if rule.conditions:
            rdoc["conditions"] = [
                _call_to_json(call, cat.condition(call.name), negated)
                for negated, call in rule.conditions
            ]
        rdoc["actions"] = [_call_to_json(call, cat.action(call.name))
                           for call in rule.actions]
        if rule.until is not None:
            rdoc["until"] = _call_to_json(rule.until, cat.trigger(rule.until.name))
        rules.append(rdoc)
    return {"rules": rules}
