import dataclasses
from pathlib import Path

import pytest

from conftest import at_20hz, drop_sixth_of_ten, ramp_frames

from driverepair.localizer import MomentsNotFoundError, locate
from driverepair.promptgen import (
    SEGMENT_ORDER,
    build_prompt,
    render_moment,
)
from driverepair.simulator import PAIRED_SPECS
from driverepair.spec_lang import parse_spec
from driverepair.trace_model import (
    EgoPose,
    MapContext,
    Obstacle,
    RawRecordFrame,
    TrafficLightState,
    WeatherState,
    build_trace,
)

GOLDEN = Path(__file__).parent / "golden" / "moment.svg"


def golden_frame():
    return RawRecordFrame(
        t=12.3,
        ego=EgoPose(x=100.0, y=0.0, heading=0.0, speed=43.2, accel=-1.2,
                    steering=0.0),
        obstacles=(
            Obstacle(id="lead", kind="vehicle", x=108.0, y=0.0, heading=0.0,
                     speed=20.0, half_len=2.3, half_wid=1.0,
                     predicted=((0.5, 110.0, 0.0), (1.0, 112.0, 0.0),
                                (1.5, 114.0, 0.0))),
            Obstacle(id="walker", kind="pedestrian", x=106.0, y=-5.0,
                     heading=1.5708, speed=4.0, half_len=0.4, half_wid=0.4,
                     predicted=((0.5, 106.0, -4.5),)),
            Obstacle(id="rider", kind="cyclist", x=95.0, y=4.0, heading=0.0,
                     speed=15.0, half_len=1.0, half_wid=0.4),
            Obstacle(id="thing", kind="unknown", x=115.0, y=2.0, heading=0.3,
                     speed=0.0, half_len=1.0, half_wid=1.0),
        ),
        traffic_light=TrafficLightState(color="red", dist_to_stopline=18.0),
    )


class TestRenderMoment:
    def test_matches_golden_bytes(self):
        svg = render_moment(golden_frame())
        assert svg == GOLDEN.read_text(encoding="utf-8")

    def test_render_is_pure(self):
        a = render_moment(golden_frame())
        b = render_moment(golden_frame())
        assert a == b

    def test_vehicle_annotations(self):
        svg = render_moment(golden_frame())
        assert 'fill="#2e8b57"' in svg            # vehicle box is green
        assert "8.0m" in svg and "20.0km/h" in svg

    def test_every_obstacle_appears_exactly_once(self):
        svg = render_moment(golden_frame())
        assert svg.count('class="obstacle"') == len(golden_frame().obstacles)
        assert svg.count('class="ego"') == 1

    def test_empty_frame_renders_only_ego(self):
        frame = RawRecordFrame(t=0.0, ego=golden_frame().ego)
        svg = render_moment(frame)
        assert svg.count('class="obstacle"') == 0
        assert svg.count('class="ego"') == 1

    def test_dashboard_states_clearance_and_junction(self):
        svg = render_moment(golden_frame())
        assert ">clearance: 3.0 m<" in svg and ">in junction: no<" in svg
        inside = RawRecordFrame(t=0.0, ego=golden_frame().ego,
                                map_ctx=MapContext(in_junction=True))
        svg = render_moment(inside)
        assert ">clearance: none<" in svg and ">in junction: yes<" in svg

    def test_red_light_glyph(self):
        svg = render_moment(golden_frame())
        assert '<circle class="light"' in svg and 'fill="#d62020"' in svg

    def test_kind_colors(self):
        svg = render_moment(golden_frame())
        for color in ("#2e8b57", "#e6b800", "#2060c0", "#7a2ea0"):
            assert f'fill="{color}"' in svg


def located_bundle(weather=None, delta=5.0):
    frames = ramp_frames(91)
    if weather is not None:
        frames = [RawRecordFrame(t=f.t, ego=f.ego, obstacles=f.obstacles,
                                 traffic_light=f.traffic_light, weather=weather,
                                 map_ctx=f.map_ctx) for f in frames]
    trace = build_trace(frames)
    moments = locate(parse_spec("G (speed < 60)"), trace, delta=delta)
    return build_prompt(moments, frames, "Keep under the limit.")


class TestBuildPrompt:
    def test_six_segments_in_order(self):
        bundle = located_bundle()
        assert tuple(bundle.segments) == SEGMENT_ORDER
        assert all(bundle.segments[k] for k in SEGMENT_ORDER)

    def test_clear_weather_sentence(self):
        bundle = located_bundle()
        assert bundle.segments["weather"] == \
            "There is nothing noteworthy about the weather."

    def test_foggy_weather_mentions_fog_and_visibility(self):
        bundle = located_bundle(weather=WeatherState(fog=0.8, visibility=40.0))
        assert "fog" in bundle.segments["weather"]
        assert "40 m" in bundle.segments["weather"]

    def test_sequence_segment_gap(self):
        frames = ramp_frames(91)
        trace = build_trace(frames)
        moments = locate(parse_spec("G (speed < 60)"), trace, delta=40.0)
        bundle = build_prompt(moments, frames, "slow")
        assert moments.violation_step - moments.near_miss_step == 40
        assert "4 seconds later" in bundle.segments["sequence"]

    # the records and moments of test_localizer's frames-the-trace-used test
    @pytest.mark.parametrize("resample, gap", [(at_20hz, 0.7),
                                               (drop_sixth_of_ten, 0.6)])
    def test_moments_render_at_their_trace_steps(self, baseline_runs, specs,
                                                 resample, gap):
        frames = resample(baseline_runs["S4"]["frames"])
        moments = locate(specs[PAIRED_SPECS["S4"]], build_trace(frames),
                         delta=15.0)
        bundle = build_prompt(moments, frames, "stop at red")
        assert moments.gap_seconds == gap
        assert f"{gap:g} seconds later" in bundle.segments["sequence"]
        assert "t = 9.9 s" in bundle.images[0]
        assert "t = 10.6 s" in bundle.images[1]

    def test_rule_segment_embeds_prose(self):
        bundle = located_bundle()
        assert ("You are supposed to follow the following rule:"
                " Keep under the limit.") == bundle.segments["rule"]

    def test_default_segment_lists_settings(self):
        bundle = located_bundle()
        text = bundle.segments["default"]
        assert "the initial settings are" in text
        assert "max planning speed = 72 km/h" in text
        assert "lane borrow enabled = off" in text

    def test_default_segment_exact_text(self):
        # each setting is named and unit-labelled by the action that sets it
        assert located_bundle().segments["default"] == (
            "In the original ADS, the initial settings are:"
            " max planning speed = 72 km/h, follow distance = 15 m,"
            " yield distance = 20 m, overtake distance = 30 m,"
            " obstacle stop distance = 8 m, obstacle decrease ratio = 1,"
            " traffic light stop distance = 2 m, stop sign wait = 2 s,"
            " lane borrow enabled = off.")

    def test_two_images_near_miss_first(self):
        bundle = located_bundle()
        assert len(bundle.images) == 2
        assert "speed: 55.0 km/h" in bundle.images[0]
        assert "speed: 60.0 km/h" in bundle.images[1]

    def test_missing_moments_raise(self):
        frames = ramp_frames(10)
        trace = build_trace(frames)
        moments = locate(parse_spec("G (speed < 60)"), trace, delta=5.0)
        with pytest.raises(MomentsNotFoundError):
            build_prompt(moments, frames, "slow")

    def test_bundle_holds_only_what_a_backend_is_sent(self):
        # the segments, joined as `text`, and the two images; the moments
        # and the gap are read from `CriticalMoments`
        bundle = located_bundle()
        assert [f.name for f in dataclasses.fields(bundle)] == [
            "segments", "images"]
        assert bundle.text == "\n\n".join(bundle.segments[k]
                                           for k in SEGMENT_ORDER)
