import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, random_trace, speed_trace
from formula_gen import random_formula
from oracle_boolean import holds
from oracle_reference import rho_ref, window_agg_ref

from driverepair.localizer import locate
from driverepair.spec_lang import (
    Always,
    And,
    BoolLit,
    Eventually,
    LinExpr,
    Not,
    Or,
    PredAtom,
    Prop,
    SpecEntry,
    SpecSyntaxError,
    Until,
    _window_agg,
    evaluate,
    load_spec_file,
    parse_spec,
    resolve_spec,
    robustness,
)
from driverepair.trace_model import (
    GEAR_CODE,
    LANE_CODE,
    LIGHT_CODE,
    SignalVar,
    Trace,
)

GOLDEN_ROBUSTNESS = Path(__file__).parent / "golden" / "robustness.txt"
ENUM_TEST = ("trafficLightColor is an enum; test it with == or != and one of"
             " its values")
ENUM_SUM = "trafficLightColor is an enum and cannot appear in arithmetic"
LIGHTS = "(expected one of ['green', 'off', 'red', 'yellow'])"


def robustness_bits(traces, specs):
    """One line per trace and built-in: the robustness at step 0 and the
    sha256 of the located `prefix_rho`, every float as `float.hex`.

    `golden/robustness.txt` holds these lines for the S1..S8 baseline
    traces. Rewrite it from this function only in a change that means to
    move the evaluator's bits.
    """
    lines = []
    for sid, trace in sorted(traces.items()):
        for name, phi in sorted(specs.items()):
            rho = robustness(phi, trace).hex()
            prefix = " ".join(r.hex() for r in locate(phi, trace).prefix_rho)
            digest = hashlib.sha256(prefix.encode()).hexdigest()
            lines.append(f"{sid} {name} {rho} {digest}")
    return lines


class TestParser:
    def test_speed_limit_example(self):
        phi = parse_spec("G (speed < 60)")
        assert phi == Always(0.0, math.inf,
                             Prop(LinExpr(((1.0, SignalVar("speed")),), -60.0), "<"))

    def test_no_collision_text(self):
        phi = parse_spec("G (!NearestNPC(0.1))")
        assert phi == Always(0.0, math.inf, Not(PredAtom(SignalVar("NearestNPC", 0.1))))

    def test_finish_journey_shape(self):
        phi = parse_spec("G (F[0,200](speed > 0.5) | dest(5))")
        assert isinstance(phi, Always)
        assert isinstance(phi.child, Or)
        left, right = phi.child.left, phi.child.right
        assert isinstance(left, Eventually) and (left.lo, left.hi) == (0.0, 200.0)
        assert right == PredAtom(SignalVar("dest", 5.0))

    def test_interval_omitted_means_unbounded(self):
        phi = parse_spec("F (speed > 10)")
        assert (phi.lo, phi.hi) == (0.0, math.inf)

    def test_enum_comparison(self):
        phi = parse_spec("trafficLightColor == red")
        assert isinstance(phi, Prop) and phi.cmp == "=="

    def test_implication_desugars(self):
        phi = parse_spec("stopped -> inJunction")
        assert isinstance(phi, Or) and isinstance(phi.left, Not)

    def test_until_keyword(self):
        phi = parse_spec("(speed > 1) U[0,5] stopped")
        assert isinstance(phi, Until) and (phi.lo, phi.hi) == (0.0, 5.0)

    @pytest.mark.parametrize("bad", [
        "G (speed <)",
        "G (speed < 60",
        "wibble > 3",              # unknown variable
        "F[9,5] (speed > 1)",      # l > u
        "NPCAhead > 3",            # predicate in arithmetic
        "speed",                   # numeric var used as proposition
        "G (speed < 60) trailing",
        "G (warpDrive < 3)",               # unknown variable, nested
        "G (trafficLightColor == purple)",  # not a value of the enum
        "F[0.5,1.5] (speed > 1)",         # bounds count whole steps
        "G[0,2.5] (speed > 1)",
        "(speed > 1) U[1.5,inf] stopped",
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)

    def test_enum_compared_with_a_variable(self):
        for text, pos in (("laneKind == speed", 12),
                          ("G (gear != laneKind)", 11)):
            with pytest.raises(SpecSyntaxError,
                               match="is not a value of") as info:
                parse_spec(text)
            assert info.value.pos == pos

    @pytest.mark.parametrize("var, codes", [
        ("trafficLightColor", LIGHT_CODE), ("laneKind", LANE_CODE),
        ("gear", GEAR_CODE)])
    def test_enum_test_is_the_comparison_of_its_code(self, var, codes):
        for value, code in codes.items():
            for cmp in ("==", "!="):
                assert parse_spec(f"{var} {cmp} {value}") == Prop(
                    LinExpr(((1.0, SignalVar(var)),), 0.0 - code), cmp)

    @pytest.mark.parametrize("text, terms, const, cmp", [
        ("speed + accel - 3 < 60", ((1.0, "speed"), (1.0, "accel")), -63.0,
         "<"),
        ("-speed > -60", ((-1.0, "speed"),), 60.0, ">"),
        ("--speed < 60", ((1.0, "speed"),), -60.0, "<"),
        ("+speed <= 1 - -2", ((1.0, "speed"),), -3.0, "<="),
        ("2 * speed < accel", ((2.0, "speed"), (-1.0, "accel")), 0.0, "<"),
        ("speed - 2 * accel + 1 >= 0", ((1.0, "speed"), (-2.0, "accel")),
         1.0, ">="),
        # a variable, not an enum value, beside a numeric variable
        ("speed < accel", ((1.0, "speed"), (-1.0, "accel")), 0.0, "<"),
    ], ids=["plus-minus", "leading-minus", "repeated-minus",
            "leading-plus-and-minus-number", "coefficient",
            "minus-coefficient", "numeric-rhs-variable"])
    def test_linear_expressions(self, text, terms, const, cmp):
        expected = Prop(LinExpr(tuple((c, SignalVar(n)) for c, n in terms),
                                const), cmp)
        assert parse_spec(text) == expected

    def test_boolean_literals_and_unbounded_interval(self):
        speed_below_60 = Prop(LinExpr(((1.0, SignalVar("speed")),), -60.0), "<")
        assert parse_spec("true") == BoolLit(True)
        assert parse_spec("false | stopped") == Or(
            BoolLit(False), PredAtom(SignalVar("stopped")))
        assert parse_spec("G[0,inf] (speed < 60)") == Always(
            0.0, math.inf, speed_below_60)
        assert parse_spec("F[2,inf] true") == Eventually(2.0, math.inf,
                                                         BoolLit(True))

    def test_negative_interval_bound(self):
        phi = parse_spec("G[-0,3] (speed < 1)")
        assert (phi.lo, phi.hi) == (0.0, 3.0)
        assert math.copysign(1.0, phi.lo) == -1.0
        with pytest.raises(SpecSyntaxError, match=r"^malformed interval"
                                                  r" \[-1,5\] \(at position 1\)$"):
            parse_spec("F[-1,5] (speed > 1)")

    @pytest.mark.parametrize("text, message", [
        ("speed + 3", "expected a comparison (at position 0)"),
        ("3", "expected a comparison (at position 0)"),
        ("stopped + 1 > 0", "stopped is a proposition and cannot appear in"
                            " arithmetic (at position 0)"),
        ("G (speed < stopped)", "stopped is a proposition and cannot appear"
                                " in arithmetic (at position 3)"),
        ("2 * 3 < speed", "expected a variable name, found '3' (at position 4)"),
        ("2 * G < speed", "expected a variable name, found 'G' (at position 4)"),
        ("G[a,3] (speed < 1)", "expected a number, found 'a' (at position 2)"),
        ("G[-x,3] (speed < 1)", "expected a number, found 'x' (at position 3)"),
        ("speed < 60 @", "unexpected character '@' (at position 11)"),
        ("speed(3) > 1", "speed does not take a parameter (at position 0)"),
        ("red == trafficLightColor", "'red' is a value of trafficLightColor,"
         " not a variable; write it after its variable, as in"
         " trafficLightColor == red (at position 0)"),
        ("G (gear != reverse | park == gear)", "'park' is a value of gear,"
         " not a variable; write it after its variable, as in gear == park"
         " (at position 21)"),
        # an enum appears only as `var == value` or `var != value`
        ("trafficLightColor < red", f"{ENUM_TEST} (at position 0)"),
        ("G (trafficLightColor >= yellow)", f"{ENUM_TEST} (at position 3)"),
        ("G trafficLightColor", f"{ENUM_TEST} (at position 2)"),
        ("trafficLightColor + speed > 3", f"{ENUM_SUM} (at position 0)"),
        ("2 * trafficLightColor == red", f"{ENUM_SUM} (at position 0)"),
        ("-trafficLightColor == red", f"{ENUM_SUM} (at position 0)"),
        ("G (speed == trafficLightColor)", f"{ENUM_SUM} (at position 3)"),
        ("trafficLightColor - laneKind == 0", f"{ENUM_SUM} (at position 0)"),
        ("trafficLightColor == 1", "'1' is not a value of trafficLightColor"
         f" {LIGHTS} (at position 21)"),
        ("trafficLightColor == gear", "'gear' is not a value of"
         f" trafficLightColor {LIGHTS} (at position 21)"),
        ("trafficLightColor == red + 1",
         "unexpected trailing input '+' (at position 25)"),
        ("G (trafficLightColor == red + 1)",
         "expected ')', found '+' (at position 28)"),
        # the end of input is named, not shown as ''
        ("trafficLightColor ==", "expected a value of trafficLightColor,"
         " found 'end of input' (at position 20)"),
        ("speed >", "expected a variable or number, found 'end of input'"
         " (at position 7)"),
        ("NPCAhead(", "expected a number, found 'end of input'"
         " (at position 9)"),
        ("2 *", "expected a variable name, found 'end of input'"
         " (at position 3)"),
        ("G (speed < 1", "expected ')', found 'end of input'"
         " (at position 12)"),
    ], ids=["sum-without-comparison", "number-without-comparison",
            "proposition-on-left", "proposition-on-right",
            "coefficient-times-number", "coefficient-times-keyword",
            "name-as-bound", "negated-name-as-bound", "unexpected-character",
            "parameter-on-a-plain-variable", "enum-value-on-the-left",
            "enum-value-on-the-left-nested", "enum-less-than",
            "enum-at-least-nested", "bare-enum", "enum-plus-real",
            "enum-times-number", "negated-enum", "enum-on-the-right",
            "enum-minus-enum", "enum-equals-number", "enum-equals-variable",
            "enum-value-plus-number", "enum-value-plus-number-nested",
            "enum-test-cut-off", "comparison-cut-off", "parameter-cut-off",
            "coefficient-cut-off", "group-cut-off"])
    def test_error_messages(self, text, message):
        with pytest.raises(SpecSyntaxError) as info:
            parse_spec(text)
        assert str(info.value) == message

    def test_errors_carry_a_position(self):
        with pytest.raises(SpecSyntaxError, match="'warpDrive'") as info:
            parse_spec("G (warpDrive < 3)")
        assert info.value.pos == 3
        with pytest.raises(SpecSyntaxError,
                           match=r"expected one of \['green', 'off'") as info:
            parse_spec("G (trafficLightColor == purple)")
        assert info.value.pos == 24
        with pytest.raises(SpecSyntaxError, match="found 1.5") as info:
            parse_spec("F[1,1.5] (speed > 1)")
        assert info.value.pos == 4


class TestRobustnessExamples:
    def test_speed_limit_satisfied_margin(self):
        # max speed 50 against a 60 km/h cap leaves a margin of 10
        trace = speed_trace([0, 0.3, 10, 25, 40, 50])
        phi = parse_spec("G (speed < 60)")
        assert robustness(phi, trace) == pytest.approx(10.0)
        assert robustness(phi, trace) > 0

    def test_ramp_violates_by_30(self):
        trace = speed_trace(range(91))
        phi = parse_spec("G (speed < 60)")
        assert robustness(phi, trace) == pytest.approx(-30.0)
        assert robustness(phi, trace) <= 0

    def test_empty_window_eventually_is_false(self):
        trace = speed_trace([10, 10, 10])
        phi = parse_spec("F[5,9] (speed > 0)")
        assert robustness(phi, trace) == -math.inf
        assert robustness(phi, trace) <= 0

    def test_next_vacuous_at_last_step(self):
        trace = speed_trace([10, 20])
        from driverepair.spec_lang import Next
        phi = Next(parse_spec("speed > 15"))
        assert robustness(phi, trace) == pytest.approx(5.0)
        assert evaluate(phi, trace, 0, len(trace) - 1)[1] == math.inf

    @pytest.mark.parametrize("start, end", [(-1, 1), (2, 1), (0, 3)])
    def test_evaluate_steps_outside_the_trace(self, start, end):
        trace = speed_trace([10, 20, 30])
        with pytest.raises(IndexError) as info:
            evaluate(parse_spec("speed > 0"), trace, start, end)
        assert str(info.value) == (f"steps [{start}, {end}] outside trace of"
                                   " length 3")


class TestBuiltins:
    def test_names(self, specs):
        assert set(specs) == {"no_collision", "finish_journey", "law38_green",
                              "law38_yellow", "law38_red", "law44", "law46",
                              "law53"}

    def test_no_collision_matches_plain_text(self, specs):
        assert specs["no_collision"] == parse_spec("G (!NearestNPC(0.1))")

    def test_law46_flags_fog_speeding(self, specs):
        foggy_fast = Trace([make_scene(speed=45.0, fog=0.8, visibility=40.0)])
        foggy_slow = Trace([make_scene(speed=25.0, fog=0.8, visibility=40.0)])
        assert robustness(specs["law46"], foggy_fast) <= 0
        assert robustness(specs["law46"], foggy_slow) > 0

    def test_bits_on_baselines_match_golden(self, baseline_runs, specs):
        traces = {sid: run["trace"] for sid, run in baseline_runs.items()}
        golden = GOLDEN_ROBUSTNESS.read_text(encoding="utf-8").splitlines()
        assert robustness_bits(traces, specs) == golden

    def test_unknown_lookup_absent(self, specs):
        assert "unknown" not in specs

    def test_entry_has_prose(self):
        assert resolve_spec("no_collision").prose

    def test_spec_file_roundtrip(self, tmp_path):
        path = tmp_path / "custom.spec"
        path.write_text("name: slowish\nstl: G (speed < 40)\n"
                        "prose: Keep it under 40.\n", encoding="utf-8")
        entry = load_spec_file(path)
        assert entry == SpecEntry("slowish", "G (speed < 40)",
                                  "Keep it under 40.")
        parse_spec(entry.stl)

    @pytest.mark.parametrize("text, message", [
        ("name: a\nstl: G (speed < 40)\nname: a\nstl: G (speed < 50)\n",
         "line 3: spec 'a' has a second name: line"),
        ("name: a\nstl: G (speed < 40)\nname: b\nstl: G (speed < 50)\n",
         "line 3: spec 'a' has a second name: line"),
        ("stl: G (speed < 40)\nname: a\nstl: G (speed < 50)\n",
         "line 1: 'stl: G (speed < 40)' comes before the name: line"),
        ("# a comment\nprose: Slow.\nname: a\nstl: G (speed < 50)\n",
         "line 2: 'prose: Slow.' comes before the name: line"),
        ("name: a\nstl: G (speed < 40)\nstl: G (speed < 90)\n",
         "line 3: spec 'a' has a second stl: line"),
        ("name: a\nprose: Slow.\nstl: G (speed < 40)\nprose: Fast.\n",
         "line 4: spec 'a' has a second prose: line"),
        ("name: a\nstl G (speed < 40)\n",
         "unexpected spec-file line: 'stl G (speed < 40)'"),
        ("name: a\nprose: Slow.\n", "spec 'a' has no stl: line"),
        ("# only a comment\n\n# and another\n", "spec file has no name: line"),
    ], ids=["repeated-name", "two-specs", "stl-before-name",
            "prose-before-name", "second-stl", "second-prose", "no-colon",
            "no-stl", "comments-only"])
    def test_spec_file_drops_no_line(self, tmp_path, text, message):
        path = tmp_path / "custom.spec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SpecSyntaxError) as info:
            load_spec_file(path)
        assert str(info.value) == message


class TestEvaluatorEquivalence:
    def test_sign_and_value_against_oracles(self):
        rng = random.Random(2024)
        for _ in range(400):
            phi = random_formula(rng, depth=3)
            trace = random_trace(rng, max_len=12)
            got = robustness(phi, trace)
            ref = rho_ref(phi, trace, 0)
            assert got == pytest.approx(ref, abs=1e-9), (phi, trace.scenes)
            verdict = holds(phi, trace, 0)
            assert (got > 0) == verdict, (phi, got, verdict)

    def test_negation_flips_robustness(self):
        rng = random.Random(7)
        for _ in range(200):
            phi = random_formula(rng, depth=2)
            trace = random_trace(rng, max_len=10)
            assert robustness(Not(phi), trace) == -robustness(phi, trace)


@st.composite
def window_case(draw):
    """Rows of robustness values and an interval [lo, hi] over them."""
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1, 50))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
        st.floats(allow_nan=False))
    child = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                   min_size=rows, max_size=rows)))
    lo = draw(st.integers(0, n + 2))
    hi = draw(st.one_of(st.just(math.inf),
                        st.integers(lo, lo + n + 2).map(float)))
    return child, float(lo), hi


class TestWindowAggregate:
    @settings(max_examples=400, deadline=None)
    @given(window_case(), st.booleans())
    def test_equals_sliding_window_aggregate(self, case, is_min):
        # Both pick one value of each window. Where a window's min or max
        # is a zero held with both signs, numpy's reductions may pick either
        # sign, so zeros are compared as +0.0, as every robustness result
        # reads them; every other value is compared bit for bit.
        child, lo, hi = case
        got = _window_agg(child, lo, hi, is_min)
        want = window_agg_ref(child, lo, hi, is_min)
        assert got.shape == want.shape == child.shape
        assert ([(v + 0.0).hex() for v in got.ravel().tolist()]
                == [(v + 0.0).hex() for v in want.ravel().tolist()])


@st.composite
def formula_and_trace(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    return random_formula(rng, depth=2), random_trace(rng, max_len=8)


class TestAlgebraicProperties:
    @settings(max_examples=60, deadline=None)
    @given(formula_and_trace(), formula_and_trace())
    def test_de_morgan_exact(self, pair_a, pair_b):
        phi_a, trace = pair_a
        phi_b, _ = pair_b
        lhs = robustness(Not(And(phi_a, phi_b)), trace)
        rhs = robustness(Or(Not(phi_a), Not(phi_b)), trace)
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(formula_and_trace(),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=6))
    def test_eventually_is_true_until(self, pair, lo, width):
        phi, trace = pair
        hi = float(lo + width)
        ev = robustness(Eventually(float(lo), hi, phi), trace)
        un = robustness(Until(float(lo), hi, BoolLit(True), phi), trace)
        assert ev == un

    @settings(max_examples=60, deadline=None)
    @given(formula_and_trace(),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=6))
    def test_always_is_not_eventually_not(self, pair, lo, width):
        phi, trace = pair
        hi = float(lo + width)
        al = robustness(Always(float(lo), hi, phi), trace)
        dual = robustness(Not(Eventually(float(lo), hi, Not(phi))), trace)
        assert al == dual

    @settings(max_examples=60, deadline=None)
    @given(formula_and_trace(),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4))
    def test_widening_windows_monotone(self, pair, lo, width, extra):
        phi, trace = pair
        hi = float(lo + width)
        wider = hi + extra
        assert (robustness(Eventually(float(lo), wider, phi), trace)
                >= robustness(Eventually(float(lo), hi, phi), trace))
        assert (robustness(Always(float(lo), wider, phi), trace)
                <= robustness(Always(float(lo), hi, phi), trace))

    def test_exhaustive_boolean_traces(self):
        # every valuation of two boolean flags over traces up to length 6
        from oracle_boolean import holds as bool_holds
        shapes = [
            parse_spec("G (stopped | inJunction)"),
            parse_spec("F[0,2] (stopped & !inJunction)"),
            parse_spec("stopped U inJunction"),
            parse_spec("X (inJunction)"),
            parse_spec("G[1,3] (!stopped)"),
            parse_spec("F (stopped) & G (inJunction)"),
        ]
        for length in range(1, 7):
            for mask in range(4 ** length):
                scenes = []
                m = mask
                for _ in range(length):
                    scenes.append(make_scene(speed=0.0 if m % 2 else 10.0,
                                             in_junction=bool((m >> 1) % 2)))
                    m >>= 2
                trace = Trace(scenes)
                for phi in shapes:
                    rho = robustness(phi, trace)
                    assert (rho > 0) == bool_holds(phi, trace, 0)
