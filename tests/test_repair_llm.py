import json
import math

import pytest
import requests

from driverepair.mudrive import catalog, validate
from driverepair.mudrive import schema as program_schema
from driverepair.mudrive.grammar import parse_program, pretty_print
from driverepair.repair_llm import (
    API_KEY_ENV,
    MAX_ATTEMPTS,
    BackendError,
    GenerationFailedError,
    LiveBackend,
    MockBackend,
    batch_generate,
    cost_usd,
    generate_repair,
)

TABLE_COSTS = [
    # (input tokens, output tokens, printed cost in USD)
    ("S1", 7352, 179, 0.079),
    ("S2", 7352, 163, 0.078),
    ("S3", 7436, 121, 0.078),
    ("S4", 7435, 185, 0.080),
    ("S5", 7508, 97, 0.078),
    ("S6", 7498, 81, 0.077),
    ("S7", 7504, 123, 0.079),
    ("S8", 7350, 82, 0.076),
]


class TestCostAccounting:
    def test_headline_example(self):
        assert cost_usd(7352, 179) == pytest.approx(0.0789, abs=5e-4)

    @pytest.mark.parametrize("sid,tin,tout,printed", TABLE_COSTS)
    def test_reported_costs_reproduce(self, sid, tin, tout, printed):
        assert abs(cost_usd(tin, tout) - printed) < 0.001


class TestMockBackend:
    def test_deterministic_bytes(self, repair_results):
        bundle = repair_results["S1"]["bundle"]
        backend = MockBackend()
        schema = {}
        a, usage_a = backend.complete(bundle, schema, seed=0)
        b, usage_b = backend.complete(bundle, schema, seed=0)
        assert a == b and usage_a == usage_b

    def test_each_schema_is_priced_by_its_own_length(self, repair_results):
        # the surrogate is ceil(characters / 4) over everything sent, the
        # schema's JSON included, whichever schema came before
        bundle = repair_results["S6"]["bundle"]
        backend = MockBackend()
        small, large = {}, {"description": "x" * 401}
        for sent in (small, large, small):
            _, (tokens_in, _) = backend.complete(bundle, sent, 0)
            text = bundle.text + "".join(bundle.images) + json.dumps(sent)
            assert tokens_in == math.ceil(len(text) / 4)

    def test_s1_bundle_yields_two_rule_shape(self, repair_results):
        cand = repair_results["S1"]["batch"].candidates[0]
        rules = cand.program.rules
        assert len(rules) == 2
        proximity, red_stop = rules
        assert any(c.name == "obstacle_distance_leq"
                   for _, c in proximity.conditions)
        assert {a.name for a in proximity.actions} == {
            "follow_dist", "yield_dist", "overtake_dist",
            "obstacle_stop_dist", "obstacle_decrease_ratio"}
        assert any(c.name == "is_traffic_light" and c.args == ("red",)
                   for _, c in red_stop.conditions)
        assert any(a.name == "traffic_light_stop_dist" for a in red_stop.actions)

    def test_in_junction_bundle_holds_at_the_stop_sign(self, repair_results):
        # S2's near miss happens inside the junction
        assert ">in junction: yes<" in repair_results["S2"]["bundle"].images[0]
        (rule,) = repair_results["S2"]["batch"].candidates[0].program.rules
        assert rule.trigger.name == "approaching_stop_sign"

    def test_fog_bundle_caps_cruise_at_30(self, repair_results):
        cand = repair_results["S6"]["batch"].candidates[0]
        (rule,) = cand.program.rules
        assert any(c.name == "is_weather" and c.args == ("fog",)
                   for _, c in rule.conditions)
        assert any(a.name == "cruise_speed" and a.args == (30,)
                   for a in rule.actions)

    def test_stuck_bundle_enables_lane_borrow(self, repair_results):
        cand = repair_results["S8"]["batch"].candidates[0]
        (rule,) = cand.program.rules
        names = {a.name for a in rule.actions}
        assert "enable_lane_borrow" in names and "overtake_dist" in names


class TestGenerateRepair:
    def test_candidates_validate_and_roundtrip(self, repair_results):
        for sid, result in repair_results.items():
            for cand in result["batch"].candidates:
                assert validate(cand.program) == []
                assert parse_program(pretty_print(cand.program)) == cand.program
                assert cand.cost_usd == pytest.approx(
                    cost_usd(cand.input_tokens, cand.output_tokens))

    def test_retry_on_invalid_then_valid(self, repair_results):
        bundle = repair_results["S6"]["bundle"]
        good_raw, usage = MockBackend().complete(bundle, {}, seed=0)

        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def complete(self, bundle, schema, seed, feedback=()):
                self.calls += 1
                if self.calls == 1:
                    bad = {"rules": [{"name": "r", "trigger": {"name": "always"},
                                      "actions": []}]}
                    return json.dumps(bad), (100, 10)
                assert feedback  # diagnostics came back with the retry
                return good_raw, usage

        backend = FlakyBackend()
        cand = generate_repair(bundle, backend, seed=0)
        assert backend.calls == 2
        assert cand.attempts == 2
        assert validate(cand.program) == []
        assert cand.input_tokens == 100 + usage[0]

    def test_retry_on_nan_then_valid(self, repair_results):
        bundle = repair_results["S6"]["bundle"]
        good_raw, usage = MockBackend().complete(bundle, {}, seed=0)
        nan_raw = ('{"rules": [{"name": "r", "trigger": {"name": "always"},'
                   ' "actions": [{"name": "cruise_speed", "args": {"kmh": NaN}}]}]}')
        replies = [(nan_raw, (100, 10)), (good_raw, usage)]

        class NanFirstBackend:
            def complete(self, bundle, schema, seed, feedback=()):
                return replies.pop(0)

        cand = generate_repair(bundle, NanFirstBackend(), seed=0)
        assert cand.attempts == 2
        assert validate(cand.program) == []

    def test_all_retries_invalid_fails(self, repair_results):
        bundle = repair_results["S6"]["bundle"]

        class BrokenBackend:
            calls = 0

            def complete(self, bundle, schema, seed, feedback=()):
                BrokenBackend.calls += 1
                return json.dumps({"rules": []}), (10, 2)

        with pytest.raises(GenerationFailedError) as info:
            generate_repair(bundle, BrokenBackend(), seed=0)
        assert BrokenBackend.calls == MAX_ATTEMPTS == 3
        assert (info.value.input_tokens, info.value.output_tokens) == (30, 6)

    def test_live_backend_needs_api_key(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(BackendError, match="OPENAI_API_KEY"):
            LiveBackend("gpt-4-turbo", "http://localhost:8000/v1")


class TestBatchGenerate:
    def test_batch_of_20_has_at_most_3_distinct(self, repair_results):
        bundle = repair_results["S6"]["bundle"]
        batch = batch_generate(bundle, 20, MockBackend(), base_seed=0)
        assert len(batch.candidates) == 20
        assert batch.distinct_programs <= 3

    def test_batch_builds_the_schema_once(self, repair_results,
                                          monkeypatch):
        # a new catalog object, so the batch's first candidate builds it
        monkeypatch.setattr("driverepair.mudrive.catalog._DEFAULT",
                            catalog.VocabularyCatalog())
        build, builds, sent = program_schema._schema_of, [], []
        monkeypatch.setattr(program_schema, "_schema_of",
                            lambda cat: builds.append(cat) or build(cat))

        class Recording(MockBackend):
            def complete(self, bundle, schema, seed, feedback=()):
                sent.append(schema)
                return super().complete(bundle, schema, seed, feedback)

        batch = batch_generate(repair_results["S6"]["bundle"], 20,
                               Recording())
        assert len(batch.candidates) == len(sent) == 20
        assert builds == [catalog.default_catalog()]
        assert all(s is sent[0] for s in sent)

    def test_live_usage_that_is_not_a_number_fails_only_its_slot(
            self, repair_results, monkeypatch):
        bundle = repair_results["S6"]["bundle"]
        raw, _ = MockBackend().complete(bundle, {}, 0)
        usages = iter([{"prompt_tokens": "n/a", "completion_tokens": 12},
                       {"prompt_tokens": 900, "completion_tokens": 12}])

        def post(url, **kwargs):
            resp = requests.Response()
            resp.status_code = 200
            resp._content = json.dumps({
                "choices": [{"message": {"tool_calls": [
                    {"function": {"arguments": raw}}]}}],
                "usage": next(usages)}).encode()
            return resp

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        batch = batch_generate(
            bundle, 2, LiveBackend("gpt-4-turbo", "http://localhost:8000/v1"))
        assert [c.seed for c in batch.candidates] == [1]
        assert [seed for seed, _ in batch.failures] == [0]
        assert "unexpected backend response shape" in batch.failures[0][1]

    def test_singleton(self, repair_results):
        bundle = repair_results["S6"]["bundle"]
        batch = batch_generate(bundle, 1, MockBackend())
        assert len(batch.candidates) == 1

    def test_aggregate_cost_is_sum(self, repair_results):
        bundle = repair_results["S6"]["bundle"]
        batch = batch_generate(bundle, 5, MockBackend())
        assert batch.total_cost_usd == pytest.approx(
            sum(c.cost_usd for c in batch.candidates))

    def test_failures_do_not_abort_batch(self, repair_results):
        bundle = repair_results["S6"]["bundle"]

        class HalfBroken:
            def complete(self, bundle, schema, seed, feedback=()):
                if seed % 2 == 0:
                    return MockBackend().complete(bundle, schema, seed, feedback)
                return json.dumps({"rules": []}), (10, 2)

        batch = batch_generate(bundle, 4, HalfBroken(), base_seed=0)
        assert len(batch.candidates) == 2
        assert len(batch.failures) == 2

    @pytest.mark.parametrize("transport_error", [False, True],
                             ids=["invalid-answers", "then-transport-error"])
    def test_failed_slots_keep_their_cost(self, repair_results,
                                          transport_error):
        class NotJson:
            def complete(self, bundle, schema, seed, feedback=()):
                if transport_error and feedback:
                    raise BackendError("timeout")
                return "not json", (1000, 50)

        batch = batch_generate(repair_results["S6"]["bundle"], 2, NotJson())
        assert batch.candidates == [] and len(batch.failures) == 2
        # each slot pays for every answer it got
        paid = 1 if transport_error else MAX_ATTEMPTS
        assert batch.total_cost_usd == pytest.approx(
            2 * paid * cost_usd(1000, 50))
        if transport_error:
            assert all("timeout" in msg for _, msg in batch.failures)

    def test_n_must_be_positive(self, repair_results):
        with pytest.raises(ValueError):
            batch_generate(repair_results["S6"]["bundle"], 0, MockBackend())

    def test_mock_cost_under_eight_cents(self, repair_results):
        for sid, result in repair_results.items():
            for cand in result["batch"].candidates:
                assert cand.cost_usd < 0.08, (sid, cand.cost_usd)
