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

Unknown vocabulary names parse fine; the validator flags them. Structural
problems (no rules, empty action block, a second `until`) are syntax errors.
"""
from __future__ import annotations

from dataclasses import dataclass


class MuDriveSyntaxError(ValueError):
    def __init__(self, msg, line=None, col=None):
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(f"{msg}{where}")
        self.line = line
        self.col = col


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

def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise MuDriveSyntaxError("unterminated string literal", line, col)
            tokens.append(("string", "".join(buf), line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if text.count(".", i, j) > 1:
                raise MuDriveSyntaxError(f"malformed number {text[i:j]!r}",
                                         line, col)
            tokens.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "name"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in "(),!":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise MuDriveSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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

    def expect_keyword(self, word):
        kind, val, line, col = self.next()
        if kind != "keyword" or val != word:
            raise MuDriveSyntaxError(
                f"expected {word!r}, found {val or 'end of input'!r}", line, col)
        return line, col

    def at_keyword(self, word):
        kind, val, _, _ = self.peek()
        return kind == "keyword" and val == word

    def program(self):
        rules = []
        if not self.at_keyword("rule"):
            kind, val, line, col = self.peek()
            raise MuDriveSyntaxError(
                f"a program needs at least one rule; found {val or 'end of input'!r}",
                line, col)
        while self.at_keyword("rule"):
            rules.append(self.rule())
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise MuDriveSyntaxError(f"unexpected input after last rule: {val!r}",
                                     line, col)
        return MuDriveProgram(tuple(rules))

    def rule(self):
        self.expect_keyword("rule")
        kind, name, line, col = self.next()
        if kind != "string":
            raise MuDriveSyntaxError("rule name must be a quoted string", line, col)

        self.expect_keyword("trigger")
        trigger = self.event_trigger()

        conditions = []
        if self.at_keyword("condition"):
            self.next()
            while True:
                kind, val, cline, ccol = self.peek()
                negated = False
                if kind == "punct" and val == "!":
                    self.next()
                    negated = True
                kind, val, cline, ccol = self.peek()
                if kind == "keyword" and val == "always":
                    raise MuDriveSyntaxError("'always' is a trigger, not a condition",
                                             cline, ccol)
                if kind != "name":
                    if negated:
                        raise MuDriveSyntaxError("'!' must prefix a condition name",
                                                 cline, ccol)
                    break
                conditions.append((negated, self.call()))
            if not conditions:
                kind, val, cline, ccol = self.peek()
                raise MuDriveSyntaxError("condition block is empty", cline, ccol)

        self.expect_keyword("then")
        actions = []
        while self.peek()[0] == "name":
            actions.append(self.call())
        if not actions:
            kind, val, aline, acol = self.peek()
            raise MuDriveSyntaxError("a rule needs at least one action", aline, acol)

        until = None
        if self.at_keyword("until"):
            self.next()
            until = self.event_trigger()
            if self.at_keyword("until"):
                kind, val, uline, ucol = self.peek()
                raise MuDriveSyntaxError("a rule may have at most one 'until'",
                                         uline, ucol)

        self.expect_keyword("end")
        return Rule(name=name, trigger=trigger, conditions=tuple(conditions),
                    actions=tuple(actions), until=until)

    def event_trigger(self):
        kind, val, line, col = self.peek()
        if kind == "keyword" and val == "always":
            self.next()
            return Call("always")
        if kind != "name":
            raise MuDriveSyntaxError(
                f"expected an event name or 'always', found {val!r}", line, col)
        return self.call()

    def call(self):
        kind, name, line, col = self.next()
        if kind != "name":
            raise MuDriveSyntaxError(f"expected a name, found {name!r}", line, col)
        args = []
        if self.peek()[:2] == ("punct", "("):
            self.next()
            while True:
                args.append(self.literal())
                kind, val, aline, acol = self.next()
                if val == ")":
                    break
                if val != ",":
                    raise MuDriveSyntaxError("expected ',' or ')' in argument list",
                                             aline, acol)
        return Call(name, tuple(args))

    def literal(self):
        kind, val, line, col = self.next()
        if kind == "number":
            num = float(val)
            return int(num) if num.is_integer() else num
        if kind == "name":
            if val == "true":
                return True
            if val == "false":
                return False
            return val
        raise MuDriveSyntaxError(f"expected a literal argument, found {val!r}",
                                 line, col)


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
