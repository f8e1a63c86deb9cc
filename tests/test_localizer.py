import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    at_20hz,
    drop_sixth_of_ten,
    ramp_frames,
    random_trace,
    speed_trace,
)
from formula_gen import random_formula
from oracle_reference import rho_ref, step_frames_ref

from driverepair import localizer
from driverepair.localizer import (
    CriticalMoments,
    MomentsNotFoundError,
    locate,
    moment_frames,
)
from driverepair.simulator import PAIRED_SPECS
from driverepair.spec_lang import parse_spec, robustness, robustness_bounded
from driverepair.trace_model import (
    FAR,
    Obstacle,
    Trace,
    build_trace,
    load_record,
    save_record,
    step_frames,
)


@pytest.fixture(scope="module")
def ramp():
    return speed_trace(range(91))


@pytest.fixture(scope="module")
def cap60():
    return parse_spec("G (speed < 60)")


class TestPrefixRobustness:
    def test_ramp_prefixes(self, ramp, cap60):
        assert robustness_bounded(cap60, ramp, 0) == pytest.approx(60.0)
        assert robustness_bounded(cap60, ramp, 1) == pytest.approx(59.0)
        assert robustness_bounded(cap60, ramp, 55) == pytest.approx(5.0)
        assert robustness_bounded(cap60, ramp, 60) == pytest.approx(0.0)
        assert robustness_bounded(cap60, ramp, 61) == pytest.approx(-1.0)

    def test_full_prefix_equals_whole_trace(self, ramp, cap60):
        from driverepair.spec_lang import robustness
        assert (robustness_bounded(cap60, ramp, len(ramp) - 1)
                == robustness(cap60, ramp))

    def test_out_of_range(self, ramp, cap60):
        with pytest.raises(IndexError):
            robustness_bounded(cap60, ramp, len(ramp))

    def test_equals_truncated_copy(self):
        # bounded evaluation must agree with physically cutting the trace
        rng = random.Random(99)
        for _ in range(100):
            phi = random_formula(rng, depth=3)
            trace = random_trace(rng, max_len=10)
            k = rng.randrange(len(trace))
            cut = Trace(trace.scenes[: k + 1])
            assert robustness_bounded(phi, trace, k) == pytest.approx(
                rho_ref(phi, cut, 0), abs=1e-9)


class TestLocate:
    def test_ramp_moments(self, ramp, cap60):
        moments = locate(cap60, ramp, delta=5.0)
        assert moments.violation_step == 60
        assert moments.near_miss_step == 55
        assert moments.prefix_rho[55] == pytest.approx(5.0)
        assert moments.prefix_rho[60] == pytest.approx(0.0)

    def test_never_violating(self, cap60):
        trace = speed_trace([10, 20, 30, 50])
        moments = locate(cap60, trace, delta=15.0)
        assert moments.violation_step is None
        assert moments.near_miss_step == 3   # margin 10 <= 15
        assert not moments.located

    def test_delta_zero_collapses(self, ramp, cap60):
        moments = locate(cap60, ramp, delta=0.0)
        assert moments.near_miss_step == moments.violation_step == 60

    def test_negative_delta_rejected(self, ramp, cap60):
        with pytest.raises(ValueError):
            locate(cap60, ramp, delta=-1.0)
        with pytest.raises(ValueError):
            locate(cap60, ramp, delta=math.nan)

    def test_minimality_by_rescan(self, cap60):
        rng = random.Random(5)
        for _ in range(30):
            speeds = [rng.uniform(0, 90) for _ in range(rng.randint(2, 60))]
            trace = speed_trace(speeds)
            delta = rng.uniform(0, 20)
            moments = locate(cap60, trace, delta)
            rhos = [robustness_bounded(cap60, trace, k)
                    for k in range(len(trace))]
            expect_near = next((k for k, r in enumerate(rhos) if r <= delta), None)
            expect_viol = next((k for k, r in enumerate(rhos) if r <= 0), None)
            assert moments.near_miss_step == expect_near
            assert moments.violation_step == expect_viol

    def test_delta_monotonicity(self, ramp, cap60):
        steps = []
        for delta in (1, 5, 10, 15, 20, 25, 30):
            steps.append(locate(cap60, ramp, delta).near_miss_step)
        assert steps == sorted(steps, reverse=True)


class TestPrefixScanStop:
    """From prefix hi + h on, where h is the horizon of the formula read as
    G[lo,hi] psi, every prefix has the same value, and the scan evaluates
    no block that reaches past it."""

    @pytest.mark.parametrize("text, last", [
        ("F[0,50] (speed > 200) | (speed < 200)", 50),     # G[0,0], h = 50
        ("G[10,40] F[0,20] (speed > 30)", 60),
        ("G[0,300] (speed < 95)", 300),
        ("G[5,100] (speed < 60 U[0,7] speed > 20)", 107),
        ("X X (speed < 60)", 2),
    ])
    def test_no_block_reaches_past_hi_plus_h(self, monkeypatch, text, last):
        rng = random.Random(text)
        trace = speed_trace([rng.uniform(0.0, 90.0) for _ in range(400)])
        phi = parse_spec(text)
        reached = []
        real = localizer._eval

        def spy(node, trace, first, rows, width):
            reached.append(first + rows + width - 2)    # last step read
            return real(node, trace, first, rows, width)

        monkeypatch.setattr(localizer, "_eval", spy)
        rhos = list(localizer._prefix_rhos(phi, trace))
        assert reached and max(reached) <= last
        assert [r.hex() for r in rhos] == [
            robustness_bounded(phi, trace, k).hex() for k in range(400)]


class TestCriticalMoments:
    def test_moments_follow_from_delta_and_prefix_rho(self):
        assert [f.name for f in dataclasses.fields(CriticalMoments)] == [
            "delta", "prefix_rho"]
        moments = CriticalMoments(5.0, (20.0, 4.0, 3.0, -1.0))
        assert (moments.near_miss_step, moments.violation_step) == (1, 3)
        assert moments.located and moments.gap_seconds == 0.2
        unlocated = CriticalMoments(5.0, (20.0, 4.0))
        assert (unlocated.near_miss_step, unlocated.violation_step) == (1, None)
        assert not unlocated.located and unlocated.gap_seconds is None

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_bad_delta_is_refused(self, delta):
        with pytest.raises(ValueError, match="delta must be non-negative"):
            CriticalMoments(delta, (1.0,))

    # the scan stops at the violation, whatever delta is, so another
    # threshold is the same scan with another delta
    @pytest.mark.parametrize("sid", sorted(PAIRED_SPECS))
    def test_another_delta_is_the_same_scan(self, baseline_runs, specs, sid):
        phi, trace = specs[PAIRED_SPECS[sid]], baseline_runs[sid]["trace"]
        base = locate(phi, trace, 15.0)
        for delta in (0.0, 1.0, 5.0, 15.0, 30.0):
            assert dataclasses.replace(base, delta=delta) == locate(
                phi, trace, delta), delta


class TestMomentFrames:
    def test_gap_for_ramp(self, cap60):
        frames = ramp_frames(91)
        trace = build_trace(frames)
        moments = locate(cap60, trace, delta=5.0)
        near, viol = moment_frames(moments, frames)
        assert near.ego.speed == 55.0
        assert viol.ego.speed == 60.0
        assert moments.gap_seconds == pytest.approx(0.5)

    def test_zero_gap(self, cap60):
        frames = ramp_frames(91)
        trace = build_trace(frames)
        moments = locate(cap60, trace, delta=0.0)
        assert moment_frames(moments, frames)[0].ego.speed == 60.0
        assert moments.gap_seconds == 0.0

    def test_missing_moments_raise(self, cap60):
        frames = ramp_frames(10)
        trace = build_trace(frames)
        moments = locate(cap60, trace, delta=5.0)
        assert moments.violation_step is None
        with pytest.raises(MomentsNotFoundError):
            moment_frames(moments, frames)

    def test_no_frames_raise(self, cap60):
        moments = locate(cap60, build_trace(ramp_frames(91)), delta=5.0)
        with pytest.raises(MomentsNotFoundError) as info:
            moment_frames(moments, [])
        assert str(info.value) == "no frames supplied"

    def test_step_frames_of_no_frames_raise(self):
        with pytest.raises(ValueError) as info:
            step_frames([])
        assert str(info.value) == "cannot build a trace from an empty record"

    def test_moments_past_the_last_frame_raise(self, cap60):
        frames = ramp_frames(91)
        moments = locate(cap60, build_trace(frames), delta=5.0)
        with pytest.raises(MomentsNotFoundError):
            moment_frames(moments, frames[:60])

    def test_benchmark_gap_is_short_and_positive(self, baseline_runs, specs):
        run = baseline_runs["S1"]
        moments = locate(specs[PAIRED_SPECS["S1"]], run["trace"], delta=15.0)
        moment_frames(moments, run["frames"])
        assert 0 < moments.gap_seconds <= 10.0

    # S4 at 10 Hz locates law38_red at steps 99 (near miss) and 106. The
    # rendered frames are the ones the trace evaluated, at step * STEP_S, and
    # the gap is counted in trace steps, whatever the record's frame rate.
    @pytest.mark.parametrize("resample, steps, times, gap", [
        (at_20hz, (99, 106), (9.9, 10.6), 0.7),
        # frame 10.5 s is missing: step 105 took 10.6 s, the later of the
        # two frames equally near
        (drop_sixth_of_ten, (99, 105), (9.9, 10.6), 0.6),
    ])
    def test_frames_are_the_ones_the_trace_used(self, baseline_runs, specs,
                                                resample, steps, times, gap):
        frames = resample(baseline_runs["S4"]["frames"])
        trace = build_trace(frames)
        moments = locate(specs[PAIRED_SPECS["S4"]], trace, delta=15.0)
        assert (moments.near_miss_step, moments.violation_step) == steps
        near, viol = moment_frames(moments, frames)
        assert (near.t, viol.t) == times
        assert near.scene is trace.scenes[moments.near_miss_step]
        assert viol.scene is trace.scenes[moments.violation_step]
        assert moments.gap_seconds == gap


def _at_5hz(frames):
    return frames[::2]


def _at_15hz(frames):
    """Frames at k / 15 s, each taking the content of the 10 Hz frame
    nearest before it."""
    n = (len(frames) - 1) * 3 // 2 + 1
    return [dataclasses.replace(frames[k * 2 // 3], t=k / 15) for k in range(n)]


def _shifted(frames, shift):
    return [dataclasses.replace(f, t=f.t + shift) for f in frames]


def _verdicts(specs, frames):
    """Moments and robustness of every built-in, floats as hex."""
    trace = build_trace(frames)
    out = {}
    for name, phi in specs.items():
        m = locate(phi, trace, delta=15.0)
        out[name] = (m.violation_step, m.near_miss_step,
                     [r.hex() for r in m.prefix_rho],
                     robustness(phi, trace).hex())
    return out


class TestClockOffset:
    """A record's moments depend on its content, not on its clock: shifting
    every timestamp keeps each step's frame, and so every verdict. At 5 Hz
    every odd step lies exactly between two frames."""

    SHIFTS = (1.0, 100.0, 86_400.0, 1.7e9)

    @pytest.mark.parametrize("resample", [_at_5hz, _at_15hz],
                             ids=["5hz", "15hz"])
    def test_shift_keeps_step_frames(self, baseline_runs, resample):
        for sid, run in baseline_runs.items():
            frames = resample(run["frames"])
            want = step_frames(frames)
            for shift in self.SHIFTS:
                assert step_frames(_shifted(frames, shift)) == want, \
                    (sid, shift)

    @pytest.mark.parametrize("resample", [_at_5hz, _at_15hz],
                             ids=["5hz", "15hz"])
    @pytest.mark.parametrize("sid", [f"S{i}" for i in range(1, 9)])
    def test_shift_keeps_moments_and_robustness(self, baseline_runs, specs,
                                                resample, sid):
        frames = resample(baseline_runs[sid]["frames"])
        want = _verdicts(specs, frames)
        for shift in self.SHIFTS:
            assert _verdicts(specs, _shifted(frames, shift)) == want, shift

    def test_tie_takes_the_later_frame_at_any_offset(self):
        frames = ramp_frames(11, dt=0.2)
        for shift in (0.0,) + self.SHIFTS:
            assert step_frames(_shifted(frames, shift)) == [
                (i + 1) // 2 for i in range(21)], shift


@st.composite
def clocked_times(draw):
    """Frame times of a 5, 10, 15 or 20 Hz record with frames dropped,
    some frames repeated at the same time or within the same microsecond,
    and the clock shifted by up to 1.7e9 s."""
    rate = draw(st.sampled_from([5, 10, 15, 20]))
    n = draw(st.integers(1, 60))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    repeats = draw(st.lists(st.sampled_from([None, 0.0, 1e-7, 4e-7, 5e-7]),
                            min_size=n, max_size=n))
    shift = draw(st.one_of(st.sampled_from([0.0, 1.0, 86_400.0, 1.7e9]),
                           st.floats(0.0, 1.7e9)))
    times = []
    for k in range(n):
        if kept[k] or k == 0:
            times.append(k / rate + shift)
            if repeats[k] is not None:
                times.append(k / rate + repeats[k] + shift)
    return sorted(times)


class TestStepFrames:
    @settings(max_examples=300, deadline=None)
    @given(clocked_times())
    def test_equals_the_walk_over_frames(self, times):
        frames = [SimpleNamespace(t=t) for t in times]
        assert step_frames(frames) == step_frames_ref(frames)


def _permuted(frames):
    rng = random.Random(7)
    return [dataclasses.replace(f, obstacles=tuple(
        rng.sample(f.obstacles, len(f.obstacles)))) for f in frames]


def _renamed(frames):
    names = {}
    return [dataclasses.replace(f, obstacles=tuple(
        dataclasses.replace(ob, id=names.setdefault(ob.id, f"other{len(names)}"))
        for ob in f.obstacles)) for f in frames]


# The congestion band reaches dist_to_junction + 45 m, and dist_to_junction
# may be FAR: an obstacle closer than that is still read
_BEYOND_M = FAR + 100.0    # 45 m of band, plus more than both boxes' reach
_FAR_AWAY = Obstacle(id="far_away", kind="vehicle", x=-_BEYOND_M, y=0.0,
                     heading=0.0, speed=0.0, half_len=2.3, half_wid=1.0)


def _with_far_obstacle(frames):
    # every ego x lies in [0, route length], so this is behind it
    assert all(f.ego.x >= 0.0 and f.ego.heading == 0.0 for f in frames)
    return [dataclasses.replace(f, obstacles=f.obstacles + (_FAR_AWAY,))
            for f in frames]


class TestObstacleRelations:
    """Moments and robustness depend on which obstacles a frame holds, not
    on their order or names, and not on one beyond every distance a scene
    reads; each relation holds bitwise in memory and after a save and load.
    Besides the built-ins, a never-violated U[0,40] spec runs `locate`'s
    every-prefix path."""

    UNTIL_SPEC = "G ((speed > 20) -> ((speed > 1) U[0,40] (speed > 2)))"

    @pytest.mark.parametrize("relation", [_permuted, _renamed,
                                          _with_far_obstacle],
                             ids=["permuted", "renamed", "far-obstacle"])
    @pytest.mark.parametrize("resample", [lambda f: f, _at_5hz],
                             ids=["10hz", "5hz"])
    @pytest.mark.parametrize("sid", [f"S{i}" for i in range(1, 9)])
    def test_relation_keeps_moments_and_robustness(
            self, baseline_runs, specs, tmp_path, relation, resample, sid):
        specs = dict(specs, until=parse_spec(self.UNTIL_SPEC))
        frames = resample(baseline_runs[sid]["frames"])
        want = _verdicts(specs, frames)
        assert want["until"][0] is None
        changed = relation(frames)
        assert _verdicts(specs, changed) == want
        path = tmp_path / "changed.jsonl"
        save_record(changed, path)
        assert _verdicts(specs, load_record(path)) == want
