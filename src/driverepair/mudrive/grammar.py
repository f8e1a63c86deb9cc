"""Concrete syntax for rule programs: lexer, parser, pretty printer.

Grammar:

    program       ::= rule+
    rule          ::= 'rule' STRING
                      'trigger' event_trigger
                      ['condition' (['!'] call)+]
                      'then' call+
                      ['until' event_trigger]
                      'end'
    event_trigger ::= call | 'always'
    call          ::= NAME ['(' literal (',' literal)* ')']
    literal       ::= NUMBER | NAME | 'true' | 'false'

Whitespace and `#` comments (to the end of the line) separate tokens; in a
STRING, a backslash takes the next character literally.

Unknown vocabulary names parse fine; the validator flags them. Structural
problems (no rules, empty action block, a second `until`) are syntax errors.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class MuDriveSyntaxError(ValueError):
    """A syntax error at character `offset` of `text`; `line` and `col`
    count from 1."""

    def __init__(self, msg, text, offset):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{msg} (line {self.line}, column {self.col})")


_KEYWORDS = {"rule", "trigger", "condition", "then", "until", "end", "always"}


@dataclass(frozen=True)
class Call:
    """A named vocabulary item with literal arguments."""
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Rule:
    name: str
    trigger: Call
    conditions: tuple = ()   # ((negated, Call), ...)
    actions: tuple = ()
    until: Call | None = None


@dataclass(frozen=True)
class MuDriveProgram:
    rules: tuple


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | "(?P<string>(?:[^"\\]|\\.)*)"
  | (?P<number>-?\d[\d.]*)
  | (?P<name>[^\W\d]\w*)
  | (?P<punct>[(),!])
""", re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text):
    """(kind, value, offset) tokens, ending with an "eof" token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise MuDriveSyntaxError(
                "unterminated string literal" if text[pos] == '"'
                else f"unexpected character {text[pos]!r}", text, pos)
        kind, value = m.lastgroup, m[m.lastgroup]
        if kind == "string":
            value = _ESCAPE_RE.sub(r"\1", value)
        elif kind == "number" and value.count(".") > 1:
            raise MuDriveSyntaxError(f"malformed number {value!r}", text, pos)
        elif kind == "name" and value in _KEYWORDS:
            kind = "keyword"
        if kind != "skip":
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, msg, pos):
        return MuDriveSyntaxError(msg, self.text, pos)

    def expect_keyword(self, word):
        kind, val, pos = self.next()
        if kind != "keyword" or val != word:
            raise self.error(
                f"expected {word!r}, found {val or 'end of input'!r}", pos)

    def at_keyword(self, word):
        kind, val, _ = self.peek()
        return kind == "keyword" and val == word

    def program(self):
        rules = []
        if not self.at_keyword("rule"):
            _, val, pos = self.peek()
            raise self.error("a program needs at least one rule;"
                             f" found {val or 'end of input'!r}", pos)
        while self.at_keyword("rule"):
            rules.append(self.rule())
        kind, val, pos = self.peek()
        if kind != "eof":
            raise self.error(f"unexpected input after last rule: {val!r}", pos)
        return MuDriveProgram(tuple(rules))

    def rule(self):
        self.expect_keyword("rule")
        kind, name, pos = self.next()
        if kind != "string":
            raise self.error("rule name must be a quoted string", pos)

        self.expect_keyword("trigger")
        trigger = self.event_trigger()

        conditions = []
        if self.at_keyword("condition"):
            self.next()
            while True:
                negated = self.peek()[:2] == ("punct", "!")
                if negated:
                    self.next()
                kind, val, pos = self.peek()
                if kind == "keyword" and val == "always":
                    raise self.error("'always' is a trigger, not a condition", pos)
                if kind != "name":
                    if negated:
                        raise self.error("'!' must prefix a condition name", pos)
                    break
                conditions.append((negated, self.call()))
            if not conditions:
                raise self.error("condition block is empty", self.peek()[2])

        self.expect_keyword("then")
        actions = []
        while self.peek()[0] == "name":
            actions.append(self.call())
        if not actions:
            raise self.error("a rule needs at least one action", self.peek()[2])

        until = None
        if self.at_keyword("until"):
            self.next()
            until = self.event_trigger()
            if self.at_keyword("until"):
                raise self.error("a rule may have at most one 'until'",
                                 self.peek()[2])

        self.expect_keyword("end")
        return Rule(name=name, trigger=trigger, conditions=tuple(conditions),
                    actions=tuple(actions), until=until)

    def event_trigger(self):
        kind, val, pos = self.peek()
        if kind == "keyword" and val == "always":
            self.next()
            return Call("always")
        if kind != "name":
            raise self.error(
                f"expected an event name or 'always', found {val!r}", pos)
        return self.call()

    def call(self):
        """A call; the caller has checked that the next token is a name."""
        name = self.next()[1]
        args = []
        if self.peek()[:2] == ("punct", "("):
            self.next()
            while True:
                args.append(self.literal())
                kind, val, pos = self.next()
                if (kind, val) == ("punct", ")"):
                    break
                if (kind, val) != ("punct", ","):
                    raise self.error("expected ',' or ')' in argument list", pos)
        return Call(name, tuple(args))

    def literal(self):
        kind, val, pos = self.next()
        if kind == "number":
            num = float(val)
            return int(num) if num.is_integer() else num
        if kind == "name":
            if val == "true":
                return True
            if val == "false":
                return False
            return val
        raise self.error(f"expected a literal argument, found {val!r}", pos)


def parse_program(text: str) -> MuDriveProgram:
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _fmt_literal(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _fmt_call(call: Call) -> str:
    if not call.args:
        return call.name
    return f"{call.name}({', '.join(_fmt_literal(a) for a in call.args)})"


def pretty_print(program: MuDriveProgram) -> str:
    """Canonical concrete syntax; parsing the output reproduces the program."""
    lines = []
    for rule in program.rules:
        name = rule.name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'rule "{name}"')
        lines.append("trigger")
        lines.append(f"    {_fmt_call(rule.trigger)}")
        if rule.conditions:
            lines.append("condition")
            for negated, call in rule.conditions:
                bang = "!" if negated else ""
                lines.append(f"    {bang}{_fmt_call(call)}")
        lines.append("then")
        for call in rule.actions:
            lines.append(f"    {_fmt_call(call)}")
        if rule.until is not None:
            lines.append("until")
            lines.append(f"    {_fmt_call(rule.until)}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)
