import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, random_scene

from driverepair.mudrive import (
    DEFAULT_PARAMS,
    Call,
    MuDriveProgram,
    MuDriveSyntaxError,
    PlannerParams,
    Rule,
    RuleStates,
    SchemaConversionError,
    default_catalog,
    emit_schema,
    from_json,
    parse_program,
    pretty_print,
    step_rules,
    to_json,
    validate,
)
from driverepair.mudrive.schema import schema_json

GOLDEN_SCHEMA = Path(__file__).parent / "golden" / "program.schema.json"

JUNCTION_SLOWDOWN = """
rule "Drive slowly through a junction when there is an obstacle."
trigger
    entering_junction
condition
    obstacle_distance_leq(20)
    is_traffic_light(green)
then
    cruise_speed(30)
until
    exiting_junction
end
"""

TWO_RULE_PROGRAM = """
rule "S1 rule1"
trigger
    always
condition
    front_vehicle_closer_than(10)
then
    follow_dist(10)
    yield_dist(15)
    overtake_dist(20)
    obstacle_stop_dist(10)
    obstacle_decrease_ratio(1)
end

rule "S1 rule2"
trigger
    always
condition
    is_traffic_light(red)
    traffic_light_distance_leq(10)
then
    traffic_light_stop_dist(5)
end
"""

_HEAD = 'rule "x"\ntrigger\n always\n'


class TestParse:
    def test_junction_slowdown_structure(self):
        program = parse_program(JUNCTION_SLOWDOWN)
        (rule,) = program.rules
        assert rule.trigger == Call("entering_junction")
        assert rule.conditions == ((False, Call("obstacle_distance_leq", (20,))),
                                   (False, Call("is_traffic_light", ("green",))))
        assert rule.actions == (Call("cruise_speed", (30,)),)
        assert rule.until == Call("exiting_junction")

    def test_two_rule_program_structure(self):
        program = parse_program(TWO_RULE_PROGRAM)
        rule1, rule2 = program.rules
        assert rule1.trigger == Call("always")
        assert len(rule1.conditions) == 1
        assert len(rule1.actions) == 5
        assert rule1.until is None
        assert rule2.conditions == ((False, Call("is_traffic_light", ("red",))),
                                    (False, Call("traffic_light_distance_leq", (10,))))

    def test_zero_rules_is_syntax_error(self):
        with pytest.raises(MuDriveSyntaxError, match="at least one rule"):
            parse_program("   \n")

    def test_empty_actions_is_syntax_error(self):
        bad = 'rule "x"\ntrigger\n always\nthen\nend\n'
        with pytest.raises(MuDriveSyntaxError, match="at least one action"):
            parse_program(bad)

    def test_duplicate_until_is_syntax_error(self):
        bad = ('rule "x"\ntrigger\n always\nthen\n cruise_speed(10)\n'
               'until\n exiting_junction\nuntil\n entering_junction\nend\n')
        with pytest.raises(MuDriveSyntaxError, match="at most one"):
            parse_program(bad)

    def test_always_cannot_be_a_condition(self):
        bad = ('rule "x"\ntrigger\n always\ncondition\n always\nthen\n'
               ' cruise_speed(10)\nend\n')
        with pytest.raises(MuDriveSyntaxError, match="trigger, not a condition"):
            parse_program(bad)

    def test_negated_condition(self):
        text = ('rule "x"\ntrigger\n always\ncondition\n !in_junction\nthen\n'
                ' cruise_speed(10)\nend\n')
        program = parse_program(text)
        assert program.rules[0].conditions == ((True, Call("in_junction")),)

    def test_unknown_names_parse_but_fail_validation(self):
        text = ('rule "x"\ntrigger\n always\ncondition\n warp_enabled\nthen\n'
                ' warp_speed(9)\nend\n')
        program = parse_program(text)
        problems = validate(program)
        assert any("warp_enabled" in str(p) for p in problems)
        assert any("warp_speed" in str(p) for p in problems)

    def test_syntax_error_carries_position(self):
        try:
            parse_program('rule "x"\ntrigger\nthen\n cruise_speed(1)\nend\n')
        except MuDriveSyntaxError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a syntax error")

    def test_malformed_number_is_syntax_error(self):
        bad = 'rule "x"\ntrigger\n always\nthen\n cruise_speed(1.2.3)\nend\n'
        with pytest.raises(MuDriveSyntaxError, match="'1.2.3'") as info:
            parse_program(bad)
        assert (info.value.line, info.value.col) == (5, 15)

    @pytest.mark.parametrize("text, message, line, col", [
        ('rule "x\ntrigger\n', "unterminated string literal", 1, 6),
        (_HEAD + 'then\n cruise_speed(1.2.3)\nend\n',
         "malformed number '1.2.3'", 5, 15),
        (_HEAD + 'then\n cruise_speed(10) @\nend\n',
         "unexpected character '@'", 5, 19),
        ('rule "x"\n always\nthen\n cruise_speed(10)\nend\n',
         "expected 'trigger', found 'always'", 2, 2),
        (_HEAD + 'then\n cruise_speed(10)\n',
         "expected 'end', found 'end of input'", 6, 1),
        ("   \n", "a program needs at least one rule; found 'end of input'",
         2, 1),
        ("\n  trigger always\n",
         "a program needs at least one rule; found 'trigger'", 2, 3),
        (_HEAD + 'then\n cruise_speed(10)\nend\n\nextra\n',
         "unexpected input after last rule: 'extra'", 8, 1),
        ('rule x\ntrigger\n always\nthen\n cruise_speed(10)\nend\n',
         "rule name must be a quoted string", 1, 6),
        (_HEAD + 'condition\n always\nthen\n cruise_speed(10)\nend\n',
         "'always' is a trigger, not a condition", 5, 2),
        (_HEAD + 'condition\n in_junction\n !\nthen\n cruise_speed(10)\nend\n',
         "'!' must prefix a condition name", 7, 1),
        (_HEAD + 'condition\nthen\n cruise_speed(10)\nend\n',
         "condition block is empty", 5, 1),
        (_HEAD + 'then\nend\n', "a rule needs at least one action", 5, 1),
        (_HEAD + 'then\n cruise_speed(10)\nuntil\n exiting_junction\n'
         'until\n entering_junction\nend\n',
         "a rule may have at most one 'until'", 8, 1),
        ('rule "x"\ntrigger\nthen\n cruise_speed(1)\nend\n',
         "expected an event name or 'always', found 'then'", 3, 1),
        (_HEAD + 'then\n cruise_speed(10 20)\nend\n',
         "expected ',' or ')' in argument list", 5, 18),
        (_HEAD + 'then\n cruise_speed(,)\nend\n',
         "expected a literal argument, found ','", 5, 15),
        # a string is a literal, not punctuation, whatever it spells
        (_HEAD + 'then\n cruise_speed(10 ")" end\n',
         "expected ',' or ')' in argument list", 5, 18),
        (_HEAD + 'then\n cruise_speed(10 "," 20)\nend\n',
         "expected ',' or ')' in argument list", 5, 18),
    ], ids=["unterminated-string", "malformed-number", "unexpected-character",
            "expected-keyword", "expected-keyword-at-end", "no-rule",
            "no-rule-but-a-word", "input-after-last-rule", "unquoted-rule-name",
            "always-as-condition", "bang-without-name", "empty-condition-block",
            "no-action", "second-until", "no-event", "bad-argument-separator",
            "non-literal-argument", "string-as-closing-paren",
            "string-as-comma"])
    def test_every_syntax_error_names_its_token(self, text, message, line,
                                                col):
        with pytest.raises(MuDriveSyntaxError) as info:
            parse_program(text)
        assert str(info.value) == f"{message} (line {line}, column {col})"
        assert (info.value.line, info.value.col) == (line, col)

    @pytest.mark.parametrize("text, line, col", [
        (_HEAD + 'then\n cruise_speed(10)\n# no end', 6, 9),
        ('rule "x" # note', 1, 16),
        ('rule "two\nlines"\ntrigger\nthen\n cruise_speed(1)\nend\n', 4, 1),
        ('rule "a\nbc" always', 2, 5),
    ], ids=["end-after-comment", "end-after-comment-on-token-line",
            "newline-in-rule-name", "newline-in-rule-name-same-line"])
    def test_position_counts_comments_and_newlines_in_names(self, text, line,
                                                            col):
        with pytest.raises(MuDriveSyntaxError) as info:
            parse_program(text)
        assert (info.value.line, info.value.col) == (line, col)

    def test_names_keep_unicode_letters(self):
        text = ('rule "ß"\ntrigger\n always\ncondition\n straße_frei\nthen\n'
                ' tempo_λ(ωmega)\nend\n')
        (rule,) = parse_program(text).rules
        assert rule.conditions == ((False, Call("straße_frei")),)
        assert rule.actions == (Call("tempo_λ", ("ωmega",)),)

    def test_comment_lines_are_skipped(self):
        text = ('# slow down everywhere\nrule "x"  # trailing\ntrigger\n'
                ' always\nthen\n# cruise_speed(99)\n cruise_speed(10)\nend\n')
        (rule,) = parse_program(text).rules
        assert rule.actions == (Call("cruise_speed", (10,)),)

    def test_escaped_quote_in_rule_name(self):
        text = ('rule "say \\"stop\\" \\\\ go"\ntrigger\n always\nthen\n'
                ' cruise_speed(10)\nend\n')
        program = parse_program(text)
        assert program.rules[0].name == 'say "stop" \\ go'
        assert parse_program(pretty_print(program)) == program


class TestValidate:
    def test_examples_clean(self):
        assert validate(parse_program(JUNCTION_SLOWDOWN)) == []
        assert validate(parse_program(TWO_RULE_PROGRAM)) == []

    def test_wrong_arg_type(self):
        text = 'rule "x"\ntrigger\n always\nthen\n cruise_speed(fast)\nend\n'
        problems = validate(parse_program(text))
        assert any("must be a finite number" in str(p) for p in problems)

    def test_bad_enum_member(self):
        text = ('rule "x"\ntrigger\n always\ncondition\n is_traffic_light(blue)\n'
                'then\n cruise_speed(10)\nend\n')
        problems = validate(parse_program(text))
        assert any("must be one of" in str(p) for p in problems)

    def test_ratio_range(self):
        text = ('rule "x"\ntrigger\n always\nthen\n'
                ' obstacle_decrease_ratio(2.5)\nend\n')
        problems = validate(parse_program(text))
        assert any("<= 2" in str(p) for p in problems)

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity",
        pytest.param("1" + "0" * 400, id="int-beyond-float")])
    def test_non_finite_number_rejected(self, literal):
        doc = json.loads('{"rules": [{"name": "x", "trigger": {"name": "always"},'
                         ' "actions": [{"name": "cruise_speed",'
                         ' "args": {"kmh": %s}}]}]}' % literal)
        problems = validate(from_json(doc))
        assert any("finite" in str(p) for p in problems)

    def test_duplicate_rule_names(self):
        text = ('rule "same"\ntrigger\n always\nthen\n cruise_speed(10)\nend\n'
                'rule "same"\ntrigger\n always\nthen\n cruise_speed(20)\nend\n')
        problems = validate(parse_program(text))
        assert any("duplicate" in str(p) for p in problems)

    def test_empty_rule_name_is_refused_in_both_forms(self):
        program = parse_program('rule ""\ntrigger\n always\nthen\n'
                                ' cruise_speed(10)\nend\n')
        problems = [str(p) for p in validate(program)]
        assert problems == ["[] rule: a rule name must not be empty"]
        doc = to_json(program)
        assert doc["rules"][0]["name"] == ""
        assert [str(p) for p in validate(from_json(doc))] == problems

    def test_program_without_rules(self):
        assert [str(p) for p in validate(MuDriveProgram(rules=()))] == [
            "[<program>] rule: program has no rules"]

    def test_rule_without_actions(self):
        program = MuDriveProgram(rules=(Rule("idle", Call("always")),))
        assert [str(p) for p in validate(program)] == [
            "[idle] action: rule has no actions"]

    @pytest.mark.parametrize("name", [3, None, ["x"]])
    def test_rule_name_that_is_not_a_string_fails_conversion(self, name):
        doc = to_json(parse_program(JUNCTION_SLOWDOWN))
        doc["rules"][0]["name"] = name
        with pytest.raises(SchemaConversionError, match=r"\$\.rules\[0\]\.name"):
            from_json(doc)


class TestRoundTrips:
    @pytest.mark.parametrize("text", [JUNCTION_SLOWDOWN, TWO_RULE_PROGRAM])
    def test_pretty_print_fixpoint(self, text):
        program = parse_program(text)
        printed = pretty_print(program)
        assert parse_program(printed) == program
        assert pretty_print(parse_program(printed)) == printed

    @pytest.mark.parametrize("text", [JUNCTION_SLOWDOWN, TWO_RULE_PROGRAM])
    def test_json_roundtrip(self, text):
        program = parse_program(text)
        doc = to_json(program)
        jsonschema.Draft202012Validator(emit_schema()).validate(doc)
        assert from_json(doc) == program

    def test_pretty_print_deterministic(self):
        program = parse_program(TWO_RULE_PROGRAM)
        assert pretty_print(program) == pretty_print(program)


# finite JSON values: what json.loads returns without NaN or Infinity
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12)


class TestSchema:
    def test_schema_is_valid_draft(self):
        jsonschema.Draft202012Validator.check_schema(emit_schema())

    def test_schema_is_deterministic(self):
        assert json.dumps(emit_schema()) == json.dumps(emit_schema())

    def test_schema_matches_golden_file(self):
        # the backend's contract and a run-key input; the file is what
        # `driverepair mudrive schema` prints, trailing newline included
        assert GOLDEN_SCHEMA.read_bytes() == (schema_json() + "\n").encode()

    def test_empty_actions_rejected(self):
        doc = {"rules": [{"name": "x", "trigger": {"name": "always"},
                          "actions": []}]}
        with pytest.raises(SchemaConversionError):
            from_json(doc)

    def test_two_until_values_rejected(self):
        doc = {"rules": [{"name": "x", "trigger": {"name": "always"},
                          "actions": [{"name": "cruise_speed",
                                       "args": {"kmh": 30}}],
                          "until": [{"name": "exiting_junction"},
                                    {"name": "entering_junction"}]}]}
        with pytest.raises(SchemaConversionError):
            from_json(doc)

    def test_out_of_catalog_name_rejected(self):
        doc = {"rules": [{"name": "x", "trigger": {"name": "always"},
                          "actions": [{"name": "warp_speed",
                                       "args": {"kmh": 30}}]}]}
        with pytest.raises(SchemaConversionError) as excinfo:
            from_json(doc)
        assert excinfo.value.paths

    def test_descriptions_present_everywhere(self):
        schema = emit_schema()
        for group in ("event_trigger", "condition", "action"):
            for variant in schema["$defs"][group]["oneOf"]:
                assert variant.get("description")
        # each description is written once: on the branch, not its const
        nodes, pending = [], [schema]
        while pending:
            node = pending.pop()
            if isinstance(node, dict):
                nodes.append(node)
                pending.extend(node.values())
            elif isinstance(node, list):
                pending.extend(node)
        assert sum("const" in node for node in nodes) > 20
        assert not [node for node in nodes
                    if "const" in node and "description" in node]

    def test_fuzzed_docs_roundtrip(self):
        rng = random.Random(505)
        cat = default_catalog()
        validator = jsonschema.Draft202012Validator(emit_schema())
        for _ in range(1000):
            doc = _random_program_doc(rng, cat)
            validator.validate(doc)
            program = from_json(doc)
            assert validate(program) == []
            assert parse_program(pretty_print(program)) == program
            assert from_json(to_json(program)) == program

    def test_paired_fuzz_schema_and_converter_agree(self):
        # every mutated document is judged the same way by the schema
        # validator and by the conversion path
        rng = random.Random(606)
        cat = default_catalog()
        validator = jsonschema.Draft202012Validator(emit_schema())
        mutators = (_drop_actions, _bad_enum, _rename_call, _listify_until,
                    _negative_number, _extra_key, _args_on_argless_call,
                    _missing_arg_key, _extra_arg_key, _non_bool_negated,
                    _null_until, _rule_as_list, _empty_rule_name,
                    lambda rng, doc: doc)
        for _ in range(300):
            doc = _random_program_doc(rng, cat)
            doc = rng.choice(mutators)(rng, doc)
            schema_ok = validator.is_valid(doc)
            try:
                program = from_json(doc)
                convert_ok = validate(program) == []
            except SchemaConversionError:
                convert_ok = False
            assert schema_ok == convert_ok, doc

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0), _JSON)
    def test_any_json_converts_or_raises_conversion_error(self, rnd, where,
                                                          junk):
        # arbitrary JSON, and a valid program with one value replaced by it
        validator = jsonschema.Draft202012Validator(emit_schema())
        doc = _random_program_doc(rnd, default_catalog())
        slots = list(_slots(doc))
        container, key = slots[where % len(slots)]
        container[key] = junk
        for candidate in (junk, doc):
            try:
                program = from_json(candidate)
            except SchemaConversionError as exc:
                assert exc.paths
                assert not validator.is_valid(candidate), candidate
                continue
            if validate(program) == []:
                assert validator.is_valid(candidate), candidate

    def test_runtime_imports_leave_jsonschema_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, driverepair.pipeline, driverepair.cli;"
                " print('jsonschema' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


def _random_args(rng, entry):
    args = {}
    for p in entry.params:
        if p.type == "number":
            lo = p.minimum if p.minimum is not None else 0.0
            hi = p.maximum if p.maximum is not None else lo + 100.0
            value = round(rng.uniform(lo, hi), 1)
            args[p.name] = int(value) if rng.random() < 0.5 else value
        elif p.type == "enum":
            args[p.name] = rng.choice(p.values)
        else:
            args[p.name] = rng.random() < 0.5
    return args


def _drop_actions(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["actions"] = []
    return doc


def _bad_enum(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["conditions"] = [{"name": "is_traffic_light", "args": {"color": "blue"}}]
    return doc


def _rename_call(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["actions"] = [{"name": "warp_speed", "args": {"kmh": 10}}]
    return doc


def _listify_until(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["until"] = [{"name": "exiting_junction"}, {"name": "entering_junction"}]
    return doc


def _negative_number(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["actions"] = [{"name": "cruise_speed", "args": {"kmh": -5}}]
    return doc


def _slots(node):
    """(container, key) of every value below `node`, in pre-order."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _extra_key(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["priority"] = 1
    return doc


def _args_on_argless_call(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["trigger"] = {"name": rng.choice(["always", "episode_start"]),
                       "args": {}}
    return doc


def _missing_arg_key(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["actions"] = [{"name": "cruise_speed", "args": {}}]
    return doc


def _extra_arg_key(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["actions"] = [{"name": "cruise_speed", "args": {"kmh": 10, "mph": 6}}]
    return doc


def _non_bool_negated(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["conditions"] = [{"name": "in_junction", "negated": 1}]
    return doc


def _null_until(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["until"] = None
    return doc


def _rule_as_list(rng, doc):
    i = rng.randrange(len(doc["rules"]))
    doc["rules"][i] = [doc["rules"][i]]
    return doc


def _empty_rule_name(rng, doc):
    rule = rng.choice(doc["rules"])
    rule["name"] = ""
    return doc


def _random_program_doc(rng, cat):
    rules = []
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            trigger = {"name": "always"}
        else:
            trigger = {"name": rng.choice(cat.events).name}
        rule = {"name": f"rule {i}", "trigger": trigger}
        if rng.random() < 0.7:
            conds = []
            for _ in range(rng.randint(1, 3)):
                entry = rng.choice(cat.conditions)
                cond = {"name": entry.name}
                args = _random_args(rng, entry)
                if args:
                    cond["args"] = args
                if rng.random() < 0.3:
                    cond["negated"] = True
                conds.append(cond)
            rule["conditions"] = conds
        actions = []
        for _ in range(rng.randint(1, 4)):
            entry = rng.choice(cat.actions)
            action = {"name": entry.name}
            args = _random_args(rng, entry)
            if args:
                action["args"] = args
            actions.append(action)
        rule["actions"] = actions
        if rng.random() < 0.4:
            rule["until"] = {"name": rng.choice(cat.events).name}
        rules.append(rule)
    return {"rules": rules}


class TestCatalog:
    def test_every_event_and_condition_has_a_predicate(self):
        cat = default_catalog()
        for entry in cat.events + (cat.trigger("always"),) + cat.conditions:
            assert callable(entry.holds), entry.name

    def test_actions_set_each_planner_field_once(self):
        actions = default_catalog().actions
        assert sorted(a.sets for a in actions) == \
            sorted(f.name for f in fields(PlannerParams))
        assert all(a.label and len(a.params) == 1 for a in actions)

    def test_lookups_by_kind(self):
        cat = default_catalog()
        assert "always" not in {e.name for e in cat.events}
        assert cat.trigger("always").name == "always"
        assert cat.trigger("in_junction") is None       # a condition
        assert cat.condition("entering_junction") is None
        assert cat.action("cruise_speed").sets == "cruise_speed_kmh"


def _condition_calls():
    """One call per condition; one per member of each enum argument."""
    for entry in default_catalog().conditions:
        choices = [p.values if p.type == "enum" else (10,) for p in entry.params]
        for args in itertools.product(*choices):
            yield Call(entry.name, args)


def _busy_scene(light_color):
    return make_scene(speed=50.0, npc_ahead_dist=5.0, nearest_npc_dist=5.0,
                      nearest_npc_sep=3.0, light_color=light_color,
                      light_dist_raw=5.0, dist_to_stopline=5.0, rain=0.8,
                      fog=0.8, snow=0.8, visibility=5.0, in_junction=True,
                      dist_to_junction=0.0, congested=True)


class TestStepRules:
    def run_sequence(self, program, scenes):
        states = RuleStates()
        out = []
        for scene in scenes:
            params, states = step_rules(program, scene, states)
            out.append(params)
        return out

    def test_junction_rule_applies_and_reverts(self):
        program = parse_program(JUNCTION_SLOWDOWN)
        outside = make_scene(nearest_npc_dist=15.0, light_color="green",
                             light_dist_raw=30.0)
        inside = make_scene(nearest_npc_dist=15.0, light_color="green",
                            light_dist_raw=-5.0, in_junction=True,
                            dist_to_junction=0.0)
        after = make_scene(nearest_npc_dist=15.0, light_color="green")
        params = self.run_sequence(program, [outside, inside, inside, after])
        assert params[0].cruise_speed_kmh == 72.0
        assert params[1].cruise_speed_kmh == 30.0
        assert params[2].cruise_speed_kmh == 30.0
        assert params[3].cruise_speed_kmh == 72.0  # exit trigger fired

    def test_no_active_rule_returns_base(self):
        program = parse_program(TWO_RULE_PROGRAM)
        scene = make_scene()
        (params,) = self.run_sequence(program, [scene])
        assert params == DEFAULT_PARAMS == PlannerParams()

    def test_later_rule_wins_conflicts(self):
        text = ('rule "a"\ntrigger\n always\nthen\n follow_dist(5)\nend\n'
                'rule "b"\ntrigger\n always\nthen\n follow_dist(10)\nend\n')
        program = parse_program(text)
        (params,) = self.run_sequence(program, [make_scene()])
        assert params.follow_dist_m == 10.0

    def test_event_rule_without_until_follows_conditions(self):
        text = ('rule "sign"\ntrigger\n approaching_stop_sign\ncondition\n'
                ' speed_gt(10)\nthen\n cruise_speed(20)\nend\n')
        program = parse_program(text)
        far = make_scene(speed=30.0, dist_to_stop_sign=100.0)
        near = make_scene(speed=30.0, dist_to_stop_sign=25.0)
        slow = make_scene(speed=5.0, dist_to_stop_sign=25.0)
        params = self.run_sequence(program, [far, near, near, slow, near])
        assert [p.cruise_speed_kmh for p in params] == [72, 20, 20, 72, 72]
        # after conditions drop, the rule stays off until a fresh edge

    def test_episode_start_fires_once(self):
        text = ('rule "boot"\ntrigger\n episode_start\nthen\n'
                ' cruise_speed(10)\nend\n')
        program = parse_program(text)
        scene = make_scene()
        params = self.run_sequence(program, [scene, scene])
        assert params[0].cruise_speed_kmh == 10.0
        assert params[1].cruise_speed_kmh == 10.0  # no conditions: stays active

    @pytest.mark.parametrize("event",
                             [e.name for e in default_catalog().events])
    def test_every_event_can_fire(self, event):
        program = parse_program(f'rule "e"\ntrigger\n {event}\nthen\n'
                                ' cruise_speed(10)\nend\n')
        outside = make_scene(dist_to_stop_sign=100.0)
        inside = make_scene(dist_to_stop_sign=25.0, in_junction=True,
                            dist_to_junction=0.0)
        params = self.run_sequence(program, [outside, inside, outside])
        assert any(p.cruise_speed_kmh == 10.0 for p in params)

    @pytest.mark.parametrize("call", list(_condition_calls()),
                             ids=lambda c: f"{c.name}{list(c.args)}")
    def test_every_condition_can_hold_and_fail(self, call):
        program = MuDriveProgram((Rule("c", Call("always"), ((False, call),),
                                       (Call("cruise_speed", (10,)),)),))
        scenes = [make_scene()] + [_busy_scene(color)
                                   for color in ("red", "yellow", "green")]
        speeds = {p.cruise_speed_kmh for p in self.run_sequence(program, scenes)}
        assert speeds == {10.0, 72.0}

    def test_always_rule_tracks_conditions_each_tick(self):
        text = ('rule "fog"\ntrigger\n always\ncondition\n is_weather(fog)\n'
                'then\n cruise_speed(30)\nend\n')
        program = parse_program(text)
        foggy = make_scene(fog=0.8)
        clear = make_scene(fog=0.0)
        params = self.run_sequence(program, [clear, foggy, clear, foggy])
        assert [p.cruise_speed_kmh for p in params] == [72, 30, 72, 30]

    def test_deterministic_and_pure(self):
        program = parse_program(TWO_RULE_PROGRAM)
        scene = make_scene(npc_ahead_dist=5.0)
        states = RuleStates()
        p1, s1 = step_rules(program, scene, states)
        p2, s2 = step_rules(program, scene, states)
        assert p1 == p2 and s1 == s2
        assert DEFAULT_PARAMS == PlannerParams()  # defaults untouched

    def test_params_equal_a_fresh_replace_at_every_tick(self):
        # a tick that keeps the previous tick's active rules keeps its
        # params; they must read as the params those rules set anew
        cat = default_catalog()
        kept = 0
        for seed in range(60):
            rng = random.Random(seed)
            program = from_json(_random_program_doc(rng, cat))
            scenes = [random_scene(rng)]
            for _ in range(30):
                scenes.append(scenes[-1] if rng.random() < 0.5
                              else random_scene(rng))
            states = RuleStates()
            for scene in scenes:
                before = states
                params, states = step_rules(program, scene, states)
                updates = {}
                for rule, on in zip(program.rules, states.active):
                    if on:
                        for call in rule.actions:
                            updates[cat.action(call.name).sets] = call.args[0]
                assert repr(params) == repr(replace(DEFAULT_PARAMS, **updates))
                assert states.params is params
                kept += states.active == before.active and bool(updates)
        assert kept > 0

    def test_deactivation_leaves_no_residue(self):
        program = parse_program(JUNCTION_SLOWDOWN)
        inside = make_scene(nearest_npc_dist=10.0, light_color="green",
                            in_junction=True, dist_to_junction=0.0)
        outside = make_scene()
        seq = [outside, inside, outside, outside]
        for params, scene in zip(self.run_sequence(program, seq), seq):
            if not scene.in_junction:
                assert params == DEFAULT_PARAMS
