"""Rule DSL for driving strategy repairs.

A program is one or more rules. Each rule names itself, fires on an event
trigger (or `always`), is gated by optional conditions, applies one or more
planner-parameter actions while active, and may carry a single exit trigger.
"""

from .catalog import (
    ACTIONS,
    CONDITIONS,
    DEFAULT_PARAMS,
    EVENTS,
    PlannerParams,
    VocabularyCatalog,
    default_catalog,
)
from .grammar import (
    Call,
    MuDriveProgram,
    MuDriveSyntaxError,
    Rule,
    parse_program,
    pretty_print,
)
from .runtime import RuleStates, step_rules
from .schema import SchemaConversionError, emit_schema, from_json, to_json
from .validate import Diagnostic, require_valid, validate

__all__ = [
    "ACTIONS",
    "CONDITIONS",
    "EVENTS",
    "Call",
    "DEFAULT_PARAMS",
    "Diagnostic",
    "MuDriveProgram",
    "MuDriveSyntaxError",
    "PlannerParams",
    "Rule",
    "RuleStates",
    "SchemaConversionError",
    "VocabularyCatalog",
    "default_catalog",
    "emit_schema",
    "from_json",
    "parse_program",
    "pretty_print",
    "require_valid",
    "step_rules",
    "to_json",
    "validate",
]
