"""The linear-time `Until` and the block prefix scan of `locate` against
their definitions.

Values are compared by `float.hex` after adding 0.0: min and max may pick
either zero of a tie between 0.0 and -0.0 (as numpy's window aggregates
always could), and every public robustness value adds 0.0.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scene, random_trace, speed_trace
from formula_gen import random_formula
from oracle_reference import rho_ref, until_double_loop

from driverepair import localizer, spec_lang
from driverepair.localizer import (
    _BLOCK_ELEMENTS,
    _FIRST_BLOCK_ROWS,
    _prefix_rhos,
    locate,
)
from driverepair.spec_lang import (
    Always,
    And,
    Eventually,
    Next,
    Not,
    Or,
    Until,
    _until,
    evaluate,
    horizon,
    parse_spec,
    robustness,
    robustness_bounded,
)
from driverepair.trace_model import Trace


def _hex(values):
    return [float.hex(float(v) + 0.0) for v in values]


def _signal(rng, n, inf_frac):
    """Values on a 0.5 grid, so that min/max ties are common, with +-inf."""
    x = np.round(rng.normal(0.0, 3.0, n) * 2) / 2
    r = rng.random(n)
    x[r < inf_frac / 2] = math.inf
    x[(r >= inf_frac / 2) & (r < inf_frac)] = -math.inf
    return x


def _check_until(n, lo, hi, seed, inf_frac):
    rng = np.random.default_rng(seed)
    c1, c2 = _signal(rng, n, inf_frac), _signal(rng, n, inf_frac)
    got = _until(c1, c2, lo, hi, n)
    assert len(got) == n
    assert _hex(got) == _hex(until_double_loop(c1.tolist(), c2.tolist(),
                                               lo, hi, n - 1))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 2000), lo=st.integers(0, 8),
       width=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
       inf_frac=st.sampled_from([0.0, 0.05, 0.4]))
def test_bounded_until_matches_double_loop(n, lo, width, seed, inf_frac):
    _check_until(n, float(lo), float(lo + width), seed, inf_frac)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), lo=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1),
       inf_frac=st.sampled_from([0.0, 0.05, 0.4]))
def test_unbounded_until_matches_double_loop(n, lo, seed, inf_frac):
    _check_until(n, float(lo), math.inf, seed, inf_frac)


def test_long_unbounded_until_matches_double_loop():
    _check_until(2000, 3.0, math.inf, 7, 0.05)


def test_until_window_reaching_the_end_matches_double_loop():
    # hi >= n - 1 takes the recurrence, hi = n - 2 must not; fractional
    # bounds truncate
    for n in range(1, 16):
        for hi in (n - 2.0, n - 1.5, n - 1.0, n + 5.0):
            for lo in range(0, min(int(max(hi, 0)), 3) + 1):
                for seed in range(3):
                    _check_until(n, float(lo), hi, seed, 0.1)
    c1 = np.full(12, 5.0)
    c2 = np.full(12, -1.0)
    c2[-1] = 3.0    # only the last step satisfies the right operand
    assert _until(c1, c2, 0, 10.0, 12)[0] == -1.0
    assert _until(c1, c2, 0, 11.0, 12)[0] == 3.0


def test_window_reaching_the_end_matches_definition():
    # F and G windows with hi >= end take a suffix accumulate
    rng = random.Random(4)
    for n in range(1, 12):
        trace = speed_trace([rng.choice((10, 30, 50, 70)) for _ in range(n)])
        for op in ("F", "G"):
            for hi in range(max(n - 2, 0), n + 1):
                for lo in range(0, hi + 1):
                    phi = parse_spec(f"{op}[{lo},{hi}] (speed > 40)")
                    for start in range(n):
                        got = evaluate(phi, trace, start, n - 1)
                        want = [rho_ref(phi, trace, t) for t in range(start, n)]
                        assert _hex(got) == _hex(want)


def test_horizon():
    phi = parse_spec("G (F[0,200](speed > 0.5) | dest(5))")
    assert horizon(phi.child) == 200
    assert horizon(phi) == math.inf
    assert horizon(parse_spec("X X (speed > 1) U[2,5] X stopped")) == 7
    assert horizon(parse_spec("!G[1,3] F[0,4] stopped")) == 7
    assert horizon(parse_spec("(speed > 1) U stopped")) == math.inf


def _naive_prefix_rhos(phi, trace, count):
    return [robustness_bounded(phi, trace, k) for k in range(count)]


def _formula(seed, shape):
    rng = random.Random(seed)
    if shape == "other":
        phi = random_formula(rng, depth=3)
    else:
        lo = 0 if shape == "G" else rng.randint(1, 12)
        phi = Always(float(lo), math.inf,
                     random_formula(rng, depth=3, unbounded_p=0.0))
    return phi, random_trace(rng, max_len=40)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["G", "G_lo", "other"]),
       delta=st.sampled_from([0.0, 5.0, 15.0, 60.0]))
def test_locate_prefix_rho_matches_per_prefix(seed, shape, delta):
    phi, trace = _formula(seed, shape)
    moments = locate(phi, trace, delta)
    rhos = moments.prefix_rho
    assert _hex(rhos) == _hex(_naive_prefix_rhos(phi, trace, len(rhos)))
    viol = next((k for k, r in enumerate(rhos) if r <= 0), None)
    assert moments.violation_step == viol
    assert moments.near_miss_step == next(
        (k for k, r in enumerate(rhos) if r <= delta), None)
    assert viol is not None or len(rhos) == len(trace)
    # a violated trace always has both moments
    assert moments.located or robustness(phi, trace) > 0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["G", "G_lo", "other"]))
def test_every_prefix_matches_per_prefix(seed, shape):
    # past the first violation too, where locate stops
    phi, trace = _formula(seed, shape)
    assert _hex(_prefix_rhos(phi, trace)) == _hex(
        _naive_prefix_rhos(phi, trace, len(trace)))


def test_nested_windows_and_next_incremental():
    rng = random.Random(11)
    psi = Until(1.0, 4.0,
                Eventually(0.0, 3.0, Next(parse_spec("speed > 20"))),
                Always(2.0, 5.0, parse_spec("speed < 70")))
    phi = Always(2.0, math.inf, psi)
    trace = speed_trace([rng.uniform(0, 90) for _ in range(80)])
    assert _hex(_prefix_rhos(phi, trace)) == _hex(
        _naive_prefix_rhos(phi, trace, len(trace)))


def test_clipped_eventually_dips_then_recovers():
    # On the prefix ending at k = 1..3 the clipped window F[0,3] at t = 1
    # sees only slow steps; from k = 4 it reaches the fast step again.
    phi = parse_spec("G (F[0,3] (speed > 50))")
    trace = speed_trace([60, 10, 10, 10, 60, 60, 60, 60])
    assert _naive_prefix_rhos(phi, trace, 5) == [10.0, -40.0, -40.0, -40.0,
                                                 10.0]
    assert robustness(phi, trace) > 0
    moments = locate(phi, trace, delta=5.0)
    assert moments.violation_step == 1
    assert moments.near_miss_step == 1
    assert moments.prefix_rho == (10.0, -40.0)


def _scan(phi, trace):
    """Every prefix value of the scan, and (first, rows, width) of each
    block it evaluates."""
    blocks = []
    real = localizer._eval

    def spy(node, trace, first, rows, width):
        blocks.append((first, rows, width))
        return real(node, trace, first, rows, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localizer, "_eval", spy)
        values = list(_prefix_rhos(phi, trace))
    return values, blocks


def _check_block_widths(phi, trace, blocks):
    """Blocks tile every prefix up to hi + h, or to the last one, reading
    phi as G[lo,hi] psi; each block is min(h + 1, k + rows, n) wide for its
    first prefix k, and none exceeds the budget."""
    hi, psi = (phi.hi, phi.child) if isinstance(phi, Always) else (0, phi)
    h, n = horizon(psi), len(trace)
    k = 0
    for first, rows, width in blocks:
        assert first + width - 1 == k
        assert width == min(h + 1, k + rows, n)
        assert rows * width <= _BLOCK_ELEMENTS
        k += rows
    assert k == min(n, hi + h + 1)


def _long_formula(seed):
    """G[lo,inf) psi on 300-700 steps, lo and psi's horizon both wider
    than the first block of the scan."""
    rng = random.Random(seed)
    wide = rng.choice((Always, Eventually))(
        float(rng.randint(0, 20)), float(rng.randint(20, 60)),
        random_formula(rng, depth=2, unbounded_p=0.0))
    psi = rng.choice((And, Or))(
        wide, random_formula(rng, depth=2, unbounded_p=0.0))
    phi = Always(float(rng.randint(5, 60)), math.inf, psi)
    return phi, Trace([random_scene(rng)
                       for _ in range(rng.randint(300, 700))])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_long_trace_prefixes_match_per_prefix(seed):
    phi, trace = _long_formula(seed)
    assert _hex(_prefix_rhos(phi, trace)) == _hex(
        _naive_prefix_rhos(phi, trace, len(trace)))


def test_zero_horizon_prefixes_match_per_prefix():
    rng = random.Random(8)
    trace = Trace([random_scene(rng) for _ in range(500)])
    for text in ("G (!NearestNPC(0.1))", "G[37,inf] (!NearestNPC(0.1))",
                 "G[600,inf] (speed > 10)"):
        phi = parse_spec(text)
        assert horizon(phi.child) == 0
        assert _hex(_prefix_rhos(phi, trace)) == _hex(
            _naive_prefix_rhos(phi, trace, len(trace)))


def test_violation_on_the_first_and_last_row_of_a_block():
    n = 900
    for text, lo, hi in (("G (F[0,200] (speed > 40))", 0, math.inf),
                         ("G[30,700] (F[0,200] (speed > 40))", 30, 700)):
        phi = parse_spec(text)
        blocks = _scan(phi, speed_trace([60] * n))[1]
        # the budget caps a block before the trace ends
        assert any(rows == _BLOCK_ELEMENTS // width
                   for _, rows, width in blocks)
        # row r of a block is the prefix ending at first + width - 1 + r
        edges = sorted({first + width - 1 + r for first, rows, width in blocks
                        for r in (0, rows - 1)})
        assert len(edges) > 12
        for k in edges:
            speeds = [60] * n
            speeds[k] = 10      # the prefix ending at k sees only the slow step
            trace = speed_trace(speeds)
            moments = locate(phi, trace)
            # a slow step outside [lo, hi] is never seen on its own
            assert moments.violation_step == (k if lo <= k <= hi else None)
            assert _hex(moments.prefix_rho) == _hex(
                _naive_prefix_rhos(phi, trace, len(moments.prefix_rho)))


def test_horizon_past_the_trace_keeps_blocks_in_budget():
    # F[0,7000] on 6,000 steps: every row spans the whole trace
    rng = random.Random(5)
    trace = speed_trace([rng.choice((10, 30, 50, 70, 70, 70))
                         for _ in range(6000)])
    for text in ("G (F[0,7000] (speed > 40))", "G (F[0,5000] (speed > 40))"):
        phi = parse_spec(text)
        values, blocks = _scan(phi, trace)
        _check_block_widths(phi, trace, blocks)
        # once rows are h + 1 wide, every block but the one that the
        # trace end cuts fills the budget; F[0,7000] never gets that wide
        wide = horizon(phi.child) + 1
        capped = [rows for _, rows, width in blocks[:-1] if width == wide]
        assert bool(capped) == (wide < len(trace))
        assert all(rows == _BLOCK_ELEMENTS // wide for rows in capped)
        got = _hex(values)
        # past k = 5000 the per-prefix F[0,5000] slides a 5001-step
        # window, so those prefixes are sampled
        ks = [k for k in range(len(trace)) if k <= 5000 or k % 97 == 0]
        assert [got[k] for k in ks] == _hex(
            robustness_bounded(phi, trace, k) for k in ks)


def _any_shape(seed, shape):
    """A formula of the given shape on 1,000-1,200 random steps: `G[lo,hi]`
    with hi finite, a finite-horizon formula that is not `G`, or a formula
    with an unbounded window. The wide windows reach past a first block."""
    rng = random.Random(seed)

    def sub():
        return random_formula(rng, depth=2, unbounded_p=0.0)

    wide = rng.choice((Always, Eventually))(
        float(rng.randint(0, 20)), float(rng.randint(20, 80)), sub())
    if shape == "G_bounded":
        lo = rng.randint(0, 60)
        phi = Always(float(lo), float(lo + rng.randint(0, 1500)),
                     rng.choice((And, Or))(wide, sub()))
    elif shape == "other":
        phi = rng.choice((
            lambda: Or(wide, sub()),
            lambda: Not(wide),
            lambda: Eventually(float(rng.randint(0, 9)),
                               float(rng.randint(10, 90)),
                               And(wide, sub())),
            lambda: Until(float(rng.randint(0, 5)),
                          float(rng.randint(5, 60)), sub(), wide),
        ))()
    else:
        phi = rng.choice((
            lambda: Until(float(rng.randint(0, 5)), math.inf, sub(), sub()),
            lambda: Eventually(float(rng.randint(0, 5)), math.inf, wide),
            lambda: Always(float(rng.randint(0, 30)), math.inf,
                           Or(Eventually(0.0, math.inf, sub()), sub())),
        ))()
    return phi, Trace([random_scene(rng)
                       for _ in range(rng.randint(1000, 1200))])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["G_bounded", "other", "unbounded"]))
def test_one_scan_serves_every_shape(seed, shape):
    phi, trace = _any_shape(seed, shape)
    assert shape == "unbounded" or not math.isinf(
        horizon(phi.child if shape == "G_bounded" else phi))
    values, blocks = _scan(phi, trace)
    _check_block_widths(phi, trace, blocks)
    assert _hex(values) == _hex(_naive_prefix_rhos(phi, trace, len(trace)))
    located = locate(phi, trace).prefix_rho
    assert _hex(located) == _hex(values[: len(located)])


def test_locate_makes_no_whole_trace_pass(monkeypatch):
    # each formula is violated within its first steps, so a scan that
    # reads nothing past them must not evaluate anything to the trace end
    n = 3000
    trace = speed_trace([10] * n)
    evals = []
    real = spec_lang._eval

    def spy(node, trace, first, rows, width):
        evals.append(first + rows + width - 2)   # last step read
        return real(node, trace, first, rows, width)

    def refuse(*args, **kwargs):
        raise AssertionError("locate must not evaluate per prefix or whole")

    monkeypatch.setattr(spec_lang, "_eval", spy)
    monkeypatch.setattr(localizer, "_eval", spy)
    for name in ("evaluate", "robustness_bounded", "robustness"):
        monkeypatch.setattr(spec_lang, name, refuse)
        monkeypatch.setattr(localizer, name, refuse, raising=False)
    for text in ("G (F[0,200] (speed > 40))",
                 "G[3,500] (F[0,200] (speed > 40))",
                 "G (!NearestNPC(0.1) & speed > 40)",
                 "F[0,50] (speed > 40)",
                 "(speed > 5) U (speed > 40)",
                 "F G (speed > 40)"):
        evals.clear()
        moments = locate(parse_spec(text), trace)
        assert moments.violation_step is not None
        assert moments.violation_step < _FIRST_BLOCK_ROWS
        assert evals and max(evals) < _FIRST_BLOCK_ROWS, text
