"""scan.golden_max_lookahead against golden_max, the routine it batches."""

import math

import pytest
from hypothesis import given, strategies as st

from secstar import scan
from secstar.scan import LOOKAHEAD, golden_max, golden_max_lookahead


def batched(f, calls):
    """f on a list of points, one entry in ``calls`` per call."""
    def fs(xs):
        calls.append(list(xs))
        return [f(x) for x in xs]
    return fs


def assert_same_search(f, lo, hi):
    calls = []
    got = golden_max_lookahead(batched(f, calls), lo, hi)
    # repr tells the bits apart, signed zeros and NaN included.
    assert repr(got) == repr(golden_max(f, lo, hi))
    return calls


def step_function(levels, lo, hi):
    """A staircase on [lo, hi]: plateaus, and ties between them."""
    width = (hi - lo) / len(levels)

    def f(x):
        i = int((x - lo) / width) if width > 0 else 0
        return levels[min(max(i, 0), len(levels) - 1)]
    return f


finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(lo=finite, width=st.floats(0.0, 1e3), levels=st.lists(st.integers(0, 3), min_size=1,
                                                               max_size=40))
def test_lookahead_equals_golden_max_on_plateaus_and_ties(lo, width, levels):
    assert_same_search(step_function(levels, lo, lo + width), lo, lo + width)


@given(lo=finite, width=st.floats(0.0, 10.0), center=st.floats(-1.0, 2.0),
       power=st.sampled_from([1, 2, 3]), quantum=st.sampled_from([0.0, 1e-9, 0.25]))
def test_lookahead_equals_golden_max_on_quantised_peaks(lo, width, center, power, quantum):
    hi = lo + width
    peak = lo + center * width

    def f(x):
        v = -abs(x - peak) ** power
        return round(v / quantum) * quantum if quantum else v
    assert_same_search(f, lo, hi)


@pytest.mark.parametrize("lo,hi", [(0.3, 0.3), (0.3, 0.3 + 5e-13),
                                   (1.0, math.nextafter(1.0, 2.0)), (-2.0, -2.0 - 1e-3)])
def test_bracket_narrower_than_tol_takes_one_call(lo, hi):
    calls = assert_same_search(math.sin, lo, hi)
    assert [len(c) for c in calls] == [2]


@pytest.mark.parametrize("lo,hi", [(-1e40, 1e40), (math.nan, 1.0), (0.0, math.inf)])
def test_bracket_that_runs_to_max_iter(lo, hi):
    calls = assert_same_search(lambda x: -x * x, lo, hi)
    assert len(calls) == math.ceil(scan.MAX_ITER / LOOKAHEAD)


@pytest.mark.parametrize("max_iter", [0, 1, 4, 5, 13])
def test_max_iter_that_ends_inside_a_look_ahead(monkeypatch, max_iter):
    monkeypatch.setattr(scan, "MAX_ITER", max_iter)
    calls = assert_same_search(lambda x: math.cos(3 * x), 0.0, 2.0)
    assert len(calls) == max(1, math.ceil(max_iter / LOOKAHEAD))


def test_each_call_holds_the_reachable_points():
    # 2 initial points plus 2 + 4 + ... + 2^LOOKAHEAD, until the search nears
    # TOL; a bracket of width 1 needs 58 steps.
    calls = assert_same_search(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    full = 2 ** (LOOKAHEAD + 1) - 2
    assert len(calls[0]) == 2 + full
    assert all(len(c) == full for c in calls[1:-1])
    assert len(calls) == math.ceil(58 / LOOKAHEAD)
