"""Repair-candidate generation through a schema-constrained tool call.

A backend is any object with a `name` and a method
`complete(bundle, schema, seed, feedback)`: it receives the prompt bundle
plus the program JSON schema and answers with the tool-call arguments and
the (input, output) token counts. Whatever comes back is parsed, converted,
and statically validated; invalid answers trigger a feedback retry. Only
validated programs leave this module.

The mock backend is fully offline and deterministic and reads only what a
live model is sent, the prompt text and the two images: it keys a small
template inventory on the spec named by the rule prose, the weather
segment and the near-miss dashboard's `clearance` and `in junction` rows,
and a seed picks among variants. Token counts for the mock use a
documented surrogate: ceil(characters / 4) over exactly what was sent and
received.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

from .mudrive import MuDriveProgram, from_json, validate
from .mudrive.schema import emit_schema
from .promptgen import SEGMENT_ORDER, PromptBundle
from .spec_lang import BUILTIN_SPEC_ENTRIES

TOOL_NAME = "submit_driving_strategy_repair"
MAX_ATTEMPTS = 3            # backend queries per candidate, retries included
TEMPERATURE = 0.2           # sampling temperature sent to the live backend
PRICE_IN = 10.0             # USD per 1e6 input tokens (GPT-4 Turbo)
PRICE_OUT = 30.0            # USD per 1e6 output tokens (GPT-4 Turbo)
API_KEY_ENV = "OPENAI_API_KEY"  # where the live backend reads its key


class BackendError(RuntimeError):
    """Transport-level failure talking to a backend."""


class GenerationFailedError(RuntimeError):
    """No valid program; carries the tokens its attempts were billed."""

    def __init__(self, attempts, diagnostics, input_tokens, output_tokens):
        self.attempts = attempts
        self.diagnostics = diagnostics
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens
        super().__init__(
            f"no valid program after {attempts} attempt(s); last diagnostics: "
            + "; ".join(str(d) for d in diagnostics))


def cost_usd(input_tokens: int, output_tokens: int) -> float:
    return input_tokens * PRICE_IN / 1e6 + output_tokens * PRICE_OUT / 1e6


@dataclass(frozen=True)
class RepairCandidate:
    program: MuDriveProgram
    attempts: int
    input_tokens: int
    output_tokens: int
    cost_usd: float
    seed: int = 0


def _surrogate_tokens(chars: int) -> int:
    return math.ceil(chars / 4)


# ---------------------------------------------------------------------------
# Mock templates
# ---------------------------------------------------------------------------

def _rule(name, trigger, conditions, actions, until=None):
    doc = {"name": name, "trigger": trigger}
    if conditions:
        doc["conditions"] = conditions
    doc["actions"] = actions
    if until is not None:
        doc["until"] = until
    return doc


def _cond(name, negated=False, **args):
    doc = {"name": name}
    if args:
        doc["args"] = args
    if negated:
        doc["negated"] = True
    return doc


def _act(name, **args):
    doc = {"name": name}
    if args:
        doc["args"] = args
    return doc


def _yield_repair(variant):
    yield_m = (60, 70, 65)[variant]
    ratio = (1.5, 2.0, 1.5)[variant]
    return {"rules": [
        _rule("Yield to crossing traffic near the junction",
              _cond("always"),
              [_cond("obstacle_distance_leq", metres=80)],
              [_act("follow_dist", metres=15), _act("yield_dist", metres=yield_m),
               _act("overtake_dist", metres=30), _act("obstacle_stop_dist", metres=10),
               _act("obstacle_decrease_ratio", ratio=ratio)]),
        _rule("Stop properly for red lights",
              _cond("always"),
              [_cond("is_traffic_light", color="red"),
               _cond("traffic_light_distance_leq", metres=60)],
              [_act("traffic_light_stop_dist", metres=40)]),
    ]}


def _stop_sign_repair(variant):
    yield_m = (60, 70, 60)[variant]
    wait_s = (4, 3, 5)[variant]
    return {"rules": [
        _rule("Hold at the stop sign until crossing traffic clears",
              _cond("approaching_stop_sign"),
              [_cond("obstacle_distance_leq", metres=150)],
              [_act("yield_dist", metres=yield_m),
               _act("stop_sign_wait", seconds=wait_s),
               _act("obstacle_decrease_ratio", ratio=1.5)],
              until=_cond("exiting_junction")),
    ]}


def _emergency_brake_repair(variant):
    return {"rules": [
        _rule("Brake hard when anything is close ahead",
              _cond("always"),
              [_cond("obstacle_distance_leq", metres=15)],
              [_act("obstacle_stop_dist", metres=12),
               _act("obstacle_decrease_ratio", ratio=2.0)]),
    ]}


def _generic_caution_repair(variant):
    return {"rules": [
        _rule("Drive a little slower overall",
              _cond("always"),
              [_cond("speed_gt", kmh=40)],
              [_act("cruise_speed", kmh=45)]),
    ]}


def _light_caution_repair(colors, variant):
    cruise = (25, 20, 25)[variant]
    engage = (70, 80, 75)[variant]
    rules = [
        _rule("Approach traffic lights slowly",
              _cond("always"),
              [_cond("traffic_light_distance_leq", metres=80)],
              [_act("cruise_speed", kmh=cruise)]),
    ]
    for color in colors:
        rules.append(
            _rule(f"Brake early for {color} lights",
                  _cond("always"),
                  [_cond("is_traffic_light", color=color),
                   _cond("traffic_light_distance_leq", metres=engage)],
                  [_act("traffic_light_stop_dist", metres=engage)]))
    return {"rules": rules}


def _borrow_repair(variant):
    overtake = (30, 25, 35)[variant]
    return {"rules": [
        _rule("Borrow the neighbour lane to pass a blocked stretch",
              _cond("always"),
              [_cond("front_vehicle_closer_than", metres=20)],
              [_act("enable_lane_borrow", enabled=True),
               _act("overtake_dist", metres=overtake),
               _act("follow_dist", metres=10)]),
    ]}


def _weather_repair(weather_text, variant):
    cruise = (30, 25, 28)[variant]
    for kind in ("fog", "rain", "snow"):
        if f"{kind} of intensity" in weather_text:
            cond = _cond("is_weather", kind=kind)
            break
    else:
        cond = _cond("visibility_leq", metres=50)
    return {"rules": [
        _rule("Slow down in bad weather",
              _cond("always"), [cond], [_act("cruise_speed", kmh=cruise)]),
    ]}


def _congestion_repair(variant):
    return {"rules": [
        _rule("Wait outside a congested junction",
              _cond("always"),
              [_cond("junction_congested"), _cond("in_junction", negated=True)],
              [_act("cruise_speed", kmh=0)]),
    ]}


_SPEC_BY_PROSE = {entry.prose: entry.name for entry in BUILTIN_SPEC_ENTRIES}
_DASH_ROW = re.compile(r">(clearance|in junction): ([^<]*)<")


def _select_template(text: str, near_miss_svg: str, variant: int) -> dict:
    segments = dict(zip(SEGMENT_ORDER, text.split("\n\n")))
    # "You are supposed to follow the following rule: <prose>"
    spec_name = _SPEC_BY_PROSE.get(segments["rule"].partition(": ")[2])
    if spec_name == "no_collision":
        dash = dict(_DASH_ROW.findall(near_miss_svg))
        clearance = dash.get("clearance", "none")
        sep = math.inf if clearance == "none" else float(
            clearance.removesuffix(" m"))
        if sep < 6.0:
            return _emergency_brake_repair(variant)
        if sep > 18.0:
            return _generic_caution_repair(variant)
        if dash.get("in junction") == "yes":
            return _stop_sign_repair(variant)
        return _yield_repair(variant)
    if spec_name == "law38_red":
        return _light_caution_repair(("red",), variant)
    if spec_name == "law38_yellow":
        return _light_caution_repair(("yellow", "red"), variant)
    if spec_name == "law46":
        return _weather_repair(segments["weather"], variant)
    if spec_name == "law53":
        return _congestion_repair(variant)
    if spec_name in ("law44", "finish_journey"):
        return _borrow_repair(variant)
    return _generic_caution_repair(variant)


class MockBackend:
    """Offline deterministic backend: same bundle and seed, same bytes.

    It reads `bundle.text` and `bundle.images`, as `LiveBackend` sends
    them. It encodes each schema object it is sent once, so a schema must
    not change once sent."""

    name = "mock"
    VARIANTS = 3
    _schema = _schema_chars = None      # the last schema sent, its length

    def complete(self, bundle: PromptBundle, schema: dict, seed: int,
                 feedback=()):
        text = bundle.text
        doc = _select_template(text, bundle.images[0], seed % self.VARIANTS)
        raw = json.dumps(doc, separators=(", ", ": "), sort_keys=False)
        if schema is not self._schema:
            self._schema, self._schema_chars = schema, len(json.dumps(schema))
        # surrogate accounting: 4 characters per token over everything sent
        sent = (len(text) + sum(map(len, bundle.images))
                + sum(map(len, feedback)) + self._schema_chars)
        usage = (_surrogate_tokens(sent), _surrogate_tokens(len(raw)))
        return raw, usage


class LiveBackend:
    """Chat-completions client with a forced tool call.

    Images are rasterized to PNG when a rasterizer is importable; otherwise
    the SVG sources are inlined as text parts so the request stays valid.
    """

    name = "live"

    def __init__(self, model: str, endpoint: str):
        self.model = model
        self.endpoint = endpoint
        self._key = os.environ.get(API_KEY_ENV, "")
        if not self._key:
            raise BackendError(f"set {API_KEY_ENV} to use the live backend")

    def _image_parts(self, bundle):
        try:
            import base64

            import cairosvg  # optional; not needed for the mock path

            parts = []
            for svg in bundle.images:
                png = cairosvg.svg2png(bytestring=svg.encode("utf-8"))
                b64 = base64.b64encode(png).decode("ascii")
                parts.append({"type": "image_url",
                              "image_url": {"url": f"data:image/png;base64,{b64}"}})
            return parts
        except ImportError:
            return [{"type": "text", "text": f"[image {i + 1} as SVG]\n{svg}"}
                    for i, svg in enumerate(bundle.images)]

    def complete(self, bundle: PromptBundle, schema: dict, seed: int,
                 feedback=()):
        import requests

        content = self._image_parts(bundle)
        content.append({"type": "text", "text": bundle.text})
        messages = [{"role": "user", "content": content}]
        for msg in feedback:
            messages.append({"role": "user", "content": msg})
        payload = {
            "model": self.model,
            "temperature": TEMPERATURE,
            "seed": seed,
            "messages": messages,
            "tools": [{
                "type": "function",
                "function": {"name": TOOL_NAME,
                             "description": "Submit one driving strategy repair"
                                            " program.",
                             "parameters": schema},
            }],
            "tool_choice": {"type": "function", "function": {"name": TOOL_NAME}},
        }
        try:
            resp = requests.post(
                self.endpoint,
                headers={"Authorization": f"Bearer {self._key}"},
                json=payload, timeout=120)
            resp.raise_for_status()
            body = resp.json()
        except requests.RequestException as exc:
            raise BackendError(f"backend request failed: {exc}") from exc
        try:
            raw = body["choices"][0]["message"]["tool_calls"][0]["function"]["arguments"]
            usage = (int(body["usage"]["prompt_tokens"]),
                     int(body["usage"]["completion_tokens"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"unexpected backend response shape: {exc}") from exc
        return raw, usage


# ---------------------------------------------------------------------------
# Generation with validation retries
# ---------------------------------------------------------------------------

def generate_repair(bundle: PromptBundle, backend,
                    seed: int = 0) -> RepairCandidate:
    """Query the backend until a program validates cleanly, or fail.

    A transport error ends the attempts; like running out of them, it
    raises GenerationFailedError with the tokens billed so far.
    """
    schema = emit_schema()

    feedback: list[str] = []
    total_in = total_out = 0
    last_diags = []
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            raw, (tok_in, tok_out) = backend.complete(bundle, schema, seed,
                                                      tuple(feedback))
        except BackendError as exc:
            raise GenerationFailedError(attempt, [exc], total_in,
                                        total_out) from exc
        total_in += tok_in
        total_out += tok_out
        try:
            program = from_json(json.loads(raw))
            diags = validate(program)
        except ValueError as exc:
            diags = [exc]
            program = None
        if program is not None and not diags:
            return RepairCandidate(
                program=program, attempts=attempt,
                input_tokens=total_in, output_tokens=total_out,
                cost_usd=cost_usd(total_in, total_out), seed=seed)
        last_diags = diags
        feedback.append(
            "The previous program was invalid: "
            + "; ".join(str(d) for d in diags)
            + ". Return a corrected program through the same function call.")
    raise GenerationFailedError(MAX_ATTEMPTS, last_diags, total_in,
                                total_out)


@dataclass
class BatchResult:
    candidates: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (seed, message)
    failed_cost_usd: float = 0.0    # billed to slots that yielded no program

    @property
    def distinct_programs(self) -> int:
        return len({c.program for c in self.candidates})

    @property
    def total_cost_usd(self) -> float:
        return sum(c.cost_usd for c in self.candidates) + self.failed_cost_usd


def batch_generate(bundle: PromptBundle, n: int, backend,
                   base_seed: int = 0) -> BatchResult:
    """n independent candidates; per-slot failures do not abort the batch."""
    if n < 1:
        raise ValueError("n must be at least 1")
    result = BatchResult()
    for i in range(n):
        seed = base_seed + i
        try:
            result.candidates.append(
                generate_repair(bundle, backend, seed))
        except GenerationFailedError as exc:
            result.failures.append((seed, str(exc)))
            result.failed_cost_usd += cost_usd(exc.input_tokens,
                                               exc.output_tokens)
    return result
