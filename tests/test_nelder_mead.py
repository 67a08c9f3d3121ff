"""scan.nelder_mead against scipy's Nelder-Mead, the implementation it ports.

scipy is a test-only dependency: the package itself never imports it.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

from secstar.objectives import OBJECTIVES, _default_grid, maximize_box
from secstar.scan import nelder_mead

OPTIONS = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000}
NAMES = sorted(OBJECTIVES)


def _negated(name):
    fn, bounds = OBJECTIVES[name]
    lo, hi = np.array(bounds).T
    return lambda v: -fn(np.clip(v, lo, hi))


@functools.cache
def _default_starts(name, count=10):
    """(node, grid value) of the cells maximize_box refines from, found by a
    full stable sort of the default grid."""
    fn, bounds = OBJECTIVES[name]
    shape = _default_grid(len(bounds))
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


def _scipy_maximize_box(name, refine_starts=10):
    """maximize_box written with a full stable sort and scipy's refinement."""
    fn, bounds = OBJECTIVES[name]
    lo, hi = np.array(bounds).T
    fun = _negated(name)
    best_point, best_val = None, -math.inf
    for x0, node_val in _default_starts(name, refine_starts):
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
    assert maximize_box(name) == _scipy_maximize_box(name)
