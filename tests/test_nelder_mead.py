"""scan.nelder_mead against scipy's Nelder-Mead, the implementation it ports.

scipy is a test-only dependency: the package itself never imports it.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

from secstar import objectives, scan
from secstar.objectives import OBJECTIVES, _default_grid, maximize_box
from secstar.scan import nelder_mead

OPTIONS = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000}
NAMES = sorted(OBJECTIVES)


def _negated(name):
    fn, bounds = OBJECTIVES[name]
    lo, hi = np.array(bounds).T
    return lambda v: -fn(np.clip(v, lo, hi))


@functools.cache
def _default_starts(name, count=10, grid=None):
    """(node, grid value) of the cells maximize_box refines from, found by a
    full stable sort of the grid (the default one, or ``grid`` per axis)."""
    fn, bounds = OBJECTIVES[name]
    shape = _default_grid(len(bounds)) if grid is None else (grid,) * len(bounds)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    flat = np.asarray(fn(np.meshgrid(*axes, indexing="ij"))).ravel()
    starts = []
    for k in np.argsort(-flat, kind="stable")[:count]:
        idx = np.unravel_index(int(k), shape)
        node = np.array([axes[d][idx[d]] for d in range(len(bounds))])
        starts.append((node, float(flat[k])))
    return starts


def _assert_same_run(fun, x0, **options):
    want = scipy_minimize(fun, x0, method="Nelder-Mead", options=options)
    got = nelder_mead(fun, x0, options["xatol"], options["fatol"], options["maxiter"])
    assert got.x.tobytes() == want.x.tobytes()
    assert got.fun == want.fun
    assert (got.nfev, got.nit) == (want.nfev, want.nit)


@pytest.mark.parametrize("name", NAMES)
def test_matches_scipy_from_default_starts(name):
    fun = _negated(name)
    for x0, _ in _default_starts(name):
        _assert_same_run(fun, x0, **OPTIONS)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20)
@given(data=st.data())
def test_matches_scipy_from_random_starts(name, data):
    _, bounds = OBJECTIVES[name]
    x0 = np.array([data.draw(st.floats(lo, hi)) for lo, hi in bounds])
    _assert_same_run(_negated(name), x0, **OPTIONS)


@pytest.mark.parametrize("maxiter", [1, 2, 7])
def test_matches_scipy_when_maxiter_stops_it(maxiter):
    # Rosenbrock from a start with a zero coordinate: the 0.00025 vertex.
    rosen = lambda v: 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2
    _assert_same_run(rosen, np.array([0.0, 1.5]), xatol=1e-12, fatol=1e-14,
                     maxiter=maxiter)


def _scipy_maximize_box(name, grid, refine_starts):
    """maximize_box written with a full stable sort and scipy's refinement."""
    fn, bounds = OBJECTIVES[name]
    lo, hi = np.array(bounds).T
    fun = _negated(name)
    best_point, best_val = None, -math.inf
    for x0, node_val in _default_starts(name, refine_starts, grid):
        if node_val > best_val:
            best_val, best_point = node_val, tuple(float(v) for v in x0)
        res = scipy_minimize(fun, x0, method="Nelder-Mead", options=OPTIONS)
        cand = np.clip(res.x, lo, hi)
        val = float(fn(cand))
        if val > best_val:
            best_val, best_point = val, tuple(float(v) for v in cand)
    return best_point, best_val


@pytest.mark.parametrize("name", NAMES)
def test_maximize_box_equals_scipy_refined_reference(name):
    for grid in (None, 60):
        for refine_starts in (10, 20):
            got = maximize_box(name, grid=grid, refine_starts=refine_starts)
            want = _scipy_maximize_box(name, grid, refine_starts)
            # repr tells the bits apart, signed zeros included.
            assert repr(got) == repr(want), (grid, refine_starts)


def test_fun_gets_a_fresh_list_of_floats_and_ties_sort_as_in_scipy():
    # A 3-D staircase.  The four starting vertices take the values
    # (2.7, 2.8, 2.6, 2.6): a tie that numpy's argsort orders unlike a stable
    # sort, and later steps tie on its plateaus too.
    def stairs(v):
        return math.floor(10.0 * ((v[0] - 0.3) * (v[0] - 0.3) + (v[1] - 2.0) * (v[1] - 2.0)
                                  + (v[2] - 2.0) * (v[2] - 2.0))) / 10.0

    x0 = np.array([0.9, 0.9, 0.9])
    start = np.array([stairs(v) for v in [x0, *(x0 + 0.05 * x0 * np.eye(3))]])
    assert start.tolist() == [2.7, 2.8, 2.6, 2.6]
    assert np.argsort(start).tolist() != np.argsort(start, kind="stable").tolist()
    _assert_same_run(stairs, x0, **OPTIONS)

    seen = []

    def recording(v):
        seen.append(v)
        return stairs(v)

    got = nelder_mead(recording, x0, **OPTIONS)
    assert got.nfev == len(seen)
    assert all(type(v) is list and all(type(a) is float for a in v) for v in seen)

    def mutating(v):
        value = stairs(v)
        v[:] = [math.nan] * 3
        return value

    # Each list is fresh: clobbering it does not reach the simplex.
    assert repr(nelder_mead(mutating, x0, **OPTIONS)) == repr(got)


def test_clip_is_numpy_clip_with_array_bounds():
    from secstar.objectives import _clip
    bounds = ((0.0, 2.0), (0.0, 1.0))
    lo, hi = np.array(bounds).T
    edges = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, math.inf, math.nan]
    for a in edges:
        for b in edges:
            want = np.clip(np.array([a, b]), lo, hi)
            got = _clip([a, b], bounds)
            assert np.array(got).tobytes() == want.tobytes(), (a, b)


def weak_orders(n):
    """Every weak order of n values, as each value's level (0 the lowest)."""
    for levels in itertools.product(range(n), repeat=n):
        if set(levels) == set(range(max(levels) + 1)):
            yield levels


@pytest.mark.parametrize("n,count", [(2, 3), (3, 13), (4, 75), (5, 541)])
def test_vertex_order_is_numpys_on_every_weak_order(n, count):
    # Each weak order, realized with random level values of any sign and
    # magnitude, zero among them half the time as 0.0 or -0.0 at random.
    rng = np.random.default_rng(n)
    orders = list(weak_orders(n))
    assert len(orders) == count
    for levels in orders:
        for _ in range(6):
            m = max(levels) + 1
            pool = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
            if rng.random() < 0.5:
                pool[rng.integers(m)] = 0.0
            level_values = np.unique(pool)
            if level_values.size < m:
                continue
            values = [float(level_values[v]) for v in levels]
            values = [-v if v == 0.0 and rng.random() < 0.5 else v for v in values]
            assert math.isfinite(sum(values))
            assert list(scan._argsort(values)) == np.argsort(np.array(values)).tolist()


@pytest.mark.parametrize("values", [
    [1.0, math.nan, 0.5], [math.nan, 0.0, -0.0, math.nan], [math.inf, 1.0, 1.0, -2.0],
    [-math.inf, math.inf], [2.0, -math.inf, 2.0], [1e308, 1e308, -1.0, 1e308],
])
def test_vertex_order_with_nan_inf_or_overflow_is_numpys_own(monkeypatch, values):
    def unreachable(ranks):
        raise AssertionError("a non-finite sum has no weak order to look up")

    monkeypatch.setattr(scan, "_weak_order_argsort", unreachable)
    assert list(scan._argsort(values)) == np.argsort(np.array(values)).tolist()


def numpy_every_step(fsim):
    """The vertex order as nelder_mead took it before the memo: numpy's
    argsort on every sort."""
    return np.argsort(np.array(fsim))


def _assert_same_as_numpy_every_step(monkeypatch, fun, x0):
    got = nelder_mead(fun, x0, **OPTIONS)
    with monkeypatch.context() as m:
        m.setattr(scan, "_argsort", numpy_every_step)
        want = nelder_mead(fun, x0, **OPTIONS)
    assert got.x.tobytes() == want.x.tobytes()
    assert repr(got.fun) == repr(want.fun)
    assert (got.nfev, got.nit) == (want.nfev, want.nit)


@pytest.mark.parametrize("name", NAMES)
def test_memo_order_equals_numpy_every_step(monkeypatch, name):
    fn, bounds = OBJECTIVES[name]
    fun = lambda v: -fn(objectives._clip(v, bounds))
    rng = np.random.default_rng(len(name))
    starts = [x0.tolist() for x0, _ in _default_starts(name)]
    starts += [[float(rng.uniform(lo, hi)) for lo, hi in bounds] for _ in range(10)]
    for x0 in starts:
        _assert_same_as_numpy_every_step(monkeypatch, fun, x0)


def test_memo_order_equals_numpy_every_step_where_the_objective_is_nan(monkeypatch):
    # NaN beyond p = 1.2: the simplex steps into it and sorts NaN vertices.
    fn, bounds = OBJECTIVES["g_h3"]
    fun = lambda v: math.nan if v[0] > 1.2 else -fn(objectives._clip(v, bounds))
    for x0 in ([1.15, 0.5, 0.5], [1.19, 0.9, 0.1], [1.0, 0.0, 1.0]):
        _assert_same_as_numpy_every_step(monkeypatch, fun, x0)
