import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secstar import objectives
from secstar.caratheodory import SchurPoint, caratheodory_from_schur
from secstar.functionals import hankel_h31
from secstar.objectives import (OBJECTIVES, BoxPoint, edge_k1, edge_k4, edge_k6,
                                face_p0, face_x1, h2_bound_surface,
                                h2_reduced_polynomial, h3_bound_surface,
                                maximize_box)
from secstar.caratheodory import coefficients_from_prefix
from secstar.scan import NelderMeadResult, nelder_mead, top_k

K1_MAX = (7 * math.sqrt(21) - 27) / 300
K6_MAX = 1 / (12 * math.sqrt(3))
H3_FACE_MAX = (587 * math.sqrt(587) - 14200) / 324


def test_h2_surface_values():
    assert h2_bound_surface(0.0, 1.0) == 0.25
    assert h2_bound_surface(0.0, 0.0) == 0.0
    # At p = 2 the reduced quartic exceeds 1/4: the flagged anomaly.
    assert abs(h2_bound_surface(2.0, 1.0) - 272 / 768) < 1e-15
    assert abs(h2_reduced_polynomial(2.0) - 17 / 48) < 1e-15


def test_h2_surface_rejects_outside_box():
    # Python floats take the scalar domain test, numpy values the array one.
    for p, rho in ((2.5, 0.5), (-0.1, 0.5), (1.0, 1.5), (1.0, -1e-300),
                   (math.nan, 0.5), (1.0, math.nan)):
        for args in ((p, rho), (np.float64(p), np.float64(rho)),
                     (np.array([1.0, p]), np.array([0.5, rho]))):
            with pytest.raises(ValueError):
                h2_bound_surface(*args)


def test_h2_reduced_matches_rho_one_section():
    for p in np.linspace(0, 2, 41):
        assert abs(h2_bound_surface(p, 1.0) - h2_reduced_polynomial(p)) < 1e-13


def test_h3_surface_corner_values():
    assert h3_bound_surface(BoxPoint(0, 0, 1)) == 1 / 9
    assert abs(h3_bound_surface(BoxPoint(2, 0.3, 0.8)) - 5 / 576) < 1e-15
    x = 1 / math.sqrt(3)
    assert abs(h3_bound_surface(BoxPoint(0, x, 0)) - K6_MAX) < 1e-15


def test_box_point_validation():
    with pytest.raises(ValueError):
        BoxPoint(2.1, 0, 0)


@pytest.mark.parametrize("name,restriction", [
    ("h1", lambda p, x, y: face_p0(x, y) if p == 0 else None),
])
def test_face_p0_matches_surface(name, restriction):
    for x in np.linspace(0, 1, 21):
        for y in np.linspace(0, 1, 21):
            assert abs(h3_bound_surface((0.0, x, y)) - face_p0(x, y)) < 1e-12


def test_face_x1_matches_surface():
    for p in np.linspace(0, 2, 41):
        for y in (0.0, 0.3, 1.0):
            assert abs(h3_bound_surface((p, 1.0, y)) - face_x1(p)) < 1e-13


def printed_face_y0(p, x):
    """The y = 0 face as printed: g1 plus the y = 0 value of g4."""
    t, g1, _, _ = objectives._g_terms(p, x)
    return (g1 + t * (144.0 * p * p + 288.0 * t * x) * (1.0 - x * x)) / 36864.0


def printed_face_y1(p, x):
    """The y = 1 face as printed: g1 + g2 + g3, with g4 vanishing."""
    _, g1, g2, g3 = objectives._g_terms(p, x)
    return (g1 + g2 + g3) / 36864.0


def test_y_faces_are_the_printed_formulas_bit_for_bit():
    # face_y0 and face_y1 are the surface at y = 0 and y = 1; the terms that
    # vanish there add an exact zero, so the printed formulas' bits remain.
    rng = np.random.default_rng(19)
    corners = np.array([(p, x) for p in (0.0, 2.0) for x in (0.0, 1.0)])
    p = np.concatenate([rng.uniform(0.0, 2.0, 20_000), corners[:, 0]])
    x = np.concatenate([rng.uniform(0.0, 1.0, 20_000), corners[:, 1]])
    for face, printed in ((objectives.face_y0, printed_face_y0),
                          (objectives.face_y1, printed_face_y1)):
        assert face(p, x).tobytes() == printed(p, x).tobytes()
        # The sparse axes the grid scan passes broadcast alike.
        assert (face(p[:300, None], x[None, :300]).tobytes()
                == printed(p[:300, None], x[None, :300]).tobytes())
        for a, b in zip(p[-2004:].tolist(), x[-2004:].tolist()):
            assert face(a, b).hex() == printed(a, b).hex()


def test_edges_match_surface():
    for p in np.linspace(0, 2, 41):
        assert abs(h3_bound_surface((p, 0.0, 0.0)) - edge_k1(p)) < 1e-14
    for x in np.linspace(0, 1, 41):
        assert abs(h3_bound_surface((0.0, x, 0.0)) - edge_k6(x)) < 1e-14


def test_maximize_cuboid_surface():
    argmax, value = maximize_box("g_h3")
    assert abs(value - 1 / 9) < 1e-6
    assert np.allclose(argmax, (0.0, 0.0, 1.0), atol=1e-9)


def test_maximize_h2_surface_peaks_at_corner(monkeypatch):
    # The printed H2(2) majorant peaks at (p, rho) = (2, 1) with 17/48, the
    # same value as the reduced quartic.  The result and the Nelder-Mead
    # evaluation count are pinned to those of the np.all domain test.
    nfev = []

    def counting(*args, **kwargs):
        res = nelder_mead(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(objectives, "minimize", counting)
    argmax, value = maximize_box("g_h2")
    assert np.allclose(argmax, (2.0, 1.0), atol=1e-12)
    assert abs(value - 17 / 48) < 1e-15
    assert repr((argmax, value)) == "((2.0, 1.0), 0.3541666666666667)"
    assert sum(nfev) == 1526


def test_maximize_univariate_closed_forms():
    _, v1 = maximize_box("k1")
    assert abs(v1 - K1_MAX) < 1e-10
    x6, v6 = maximize_box("k6")
    assert abs(v6 - K6_MAX) < 1e-10
    assert abs(x6[0] - 1 / math.sqrt(3)) < 1e-5
    _, v3 = maximize_box("h3")
    assert abs(v3 - H3_FACE_MAX) < 1e-10


def test_maximize_other_edges_reach_one_ninth():
    for name in ("k2", "k4", "k5"):
        _, v = maximize_box(name)
        assert abs(v - 1 / 9) < 1e-9


def test_maximize_result_dominates_grid():
    fn, bounds = OBJECTIVES["h1"]
    _, value = maximize_box("h1", grid=101)
    xs = np.linspace(0, 1, 101)
    grid_best = max(fn(x, y) for x in xs for y in xs)
    assert value >= grid_best - 1e-15


def box_grid_values(monkeypatch, name, grid):
    """The blocks of grid values ``maximize_box`` ranks, as it computed them:
    (axis-0 index of the block's first slice, its flat values), in the order
    it evaluated them.

    Each evaluated block is one array call of the objective and one call of
    ``top_k``; a last ``top_k`` ranks the blocks' candidates.  A block that
    a bound rules out is never evaluated.
    """
    fn, bounds = OBJECTIVES[name]
    shape = objectives._default_grid(len(bounds)) if grid is None else (grid,) * len(bounds)
    axis0 = np.linspace(*bounds[0], shape[0])
    firsts, seen = [], []

    def recording_fn(*v):
        if isinstance(v[0], np.ndarray):
            firsts.append(int(np.flatnonzero(axis0 == np.ravel(v[0])[0])[0]))
        return fn(*v)

    def recording_top_k(values, k):
        seen.append(np.array(values))
        return top_k(values, k)

    monkeypatch.setitem(OBJECTIVES, name, (recording_fn, bounds))
    monkeypatch.setattr(objectives, "top_k", recording_top_k)
    maximize_box(name, grid=grid, refine_starts=1)
    assert len(firsts) == len(seen) - 1
    return list(zip(firsts, seen[:-1]))


def dense_grid(bounds, grid):
    """Dense ``indexing="ij"`` meshes of the grid ``maximize_box`` scans."""
    shape = objectives._default_grid(len(bounds)) if grid is None else (grid,) * len(bounds)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    return np.meshgrid(*axes, indexing="ij")


def assert_blocks_are_dense_slices(blocks, dense):
    """Each block is bit for bit its run of whole axis-0 slices of ``dense``."""
    stride = math.prod(dense.shape[1:])
    for lo, values in blocks:
        assert values.tobytes() == dense[lo:lo + values.size // stride].ravel().tobytes()


def printed_h3_majorant(p, x, y):
    """The cuboid majorant transcribed from the print, term by term."""
    t = 4.0 - p * p
    g1 = (5.0 * p**6 + 26.0 * p**4 * t * x + 144.0 * p * p * t * x * x
          + 56.0 * p**4 * t * x * x + 68.0 * p * p * t * t * x * x
          + 36.0 * p**4 * t * x**3 + 40.0 * p * p * t * t * x**3
          + 8.0 * p * p * t * t * x**4)
    g2 = t * (1.0 - x * x) * (40.0 * p**3 + 144.0 * p**3 * x
                              + 80.0 * p * t * x + 32.0 * p * t * x * x)
    g3 = t * (1.0 - x * x) * (256.0 * t + 32.0 * t * x * x + 144.0 * p * p * x)
    g4 = t * (1.0 - y * y) * (144.0 * p * p + 288.0 * t * x) * (1.0 - x * x)
    return (g1 + g2 * y + g3 * y * y + g4) / 36864.0


@pytest.mark.parametrize("grid", [None, 60])
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_sparse_grid_values_equal_dense_bit_for_bit(monkeypatch, name, grid):
    fn, bounds = OBJECTIVES[name]
    mesh = dense_grid(bounds, grid)
    dense = np.broadcast_to(fn(*mesh), mesh[0].shape)
    blocks = box_grid_values(monkeypatch, name, grid)
    assert_blocks_are_dense_slices(blocks, dense)
    if name not in objectives.GRID_BOUNDS:
        # Every block is evaluated, in node order.
        assert np.concatenate([v for _, v in blocks]).tobytes() == dense.ravel().tobytes()


@pytest.mark.parametrize("grid", [None, 60])
def test_g_h3_grid_values_are_the_printed_majorant(monkeypatch, grid):
    # Any regrouping of the terms moves last bits of the grid values.
    printed = printed_h3_majorant(*dense_grid(OBJECTIVES["g_h3"][1], grid))
    assert_blocks_are_dense_slices(box_grid_values(monkeypatch, "g_h3", grid), printed)


def test_g_h3_scalar_values_are_the_printed_majorant():
    # Nelder-Mead evaluates the surface on Python floats: the shared powers
    # of _g_terms must give the printed form's bits there too.
    rng = np.random.default_rng(29)
    points = np.column_stack([rng.uniform(0.0, 2.0, 5000), rng.uniform(0.0, 1.0, 5000),
                              rng.uniform(0.0, 1.0, 5000)]).tolist()
    points += [[0.0, 0.0, 0.0], [2.0, 1.0, 1.0], [-0.0, 1.0, -0.0], [2.0, -0.0, 0.5]]
    fn = OBJECTIVES["g_h3"][0]
    for p, x, y in points:
        assert repr(fn(p, x, y)) == repr(printed_h3_majorant(p, x, y)), (p, x, y)
        assert repr(h3_bound_surface((p, x, y))) == repr(printed_h3_majorant(p, x, y))


def test_grid_values_fill_axes_the_objective_ignores(monkeypatch):
    bounds = ((0.0, 2.0), (0.0, 1.0))
    monkeypatch.setitem(OBJECTIVES, "k4_of_y", (lambda p, y: edge_k4(y), bounds))
    dense = edge_k4(dense_grid(bounds, 60)[1])
    blocks = box_grid_values(monkeypatch, "k4_of_y", 60)
    assert np.concatenate([values for _, values in blocks]).tobytes() == dense.ravel().tobytes()


def test_h3_grid_bound_dominates_every_line_at_its_vertex_too():
    # Each (p, x) line peaks at an end or at the vertex of its quadratic in
    # y; the surface's computed values there, and one ulp either side of the
    # vertex, may round above the exact peak, which the slack covers.
    rng = np.random.default_rng(28)
    p = np.concatenate([rng.uniform(0.0, 2.0, 20_000), [0.0, 0.0, 2.0, 2.0]])
    x = np.concatenate([rng.uniform(0.0, 1.0, 20_000), [0.0, 1.0, 0.0, 1.0]])
    bound = objectives._h3_grid_bound([p[:, None, None], x[:, None, None]])
    t, g1, g2, g3 = objectives._g_terms(p, x)
    c = t * (144.0 * p * p + 288.0 * t * x) * (1.0 - x * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(np.nan_to_num(g2 / (2.0 * (c - g3))), 0.0, 1.0)
    assert np.count_nonzero((vertex > 0.0) & (vertex < 1.0)) > 500
    for y in (0.0, 1.0, vertex, np.nextafter(vertex, 0.0), np.nextafter(vertex, 1.0)):
        assert np.all(h3_bound_surface((p, x, y)) <= bound)


def grid_top_blocks(shape, k, bound=None):
    """(indices, values) of ``_grid_top`` for g_h3 on ``shape``, with the
    axis-0 index of each block's first slice, in the order evaluated."""
    fn, bounds = OBJECTIVES["g_h3"]
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    evaluated = []

    def recording_fn(*v):
        evaluated.append(int(np.flatnonzero(axes[0] == v[0].ravel()[0])[0]))
        return fn(*v)

    return objectives._grid_top(recording_fn, axes, shape, k, bound), evaluated


@pytest.mark.parametrize("shape,k", [
    ((201, 101, 101), 10),     # the default grid and start count
    ((51, 51, 51), 1),
    ((51, 51, 51), 2000),
    ((120, 77, 90), 50),
    ((73, 200, 200), 3000),
    ((400, 60, 333), 20000),
    ((73, 200, 200), 100_000),
])
def test_skipped_blocks_hold_no_node_of_the_top_k(shape, k):
    (_, values), evaluated = grid_top_blocks(shape, k, objectives.GRID_BOUNDS["g_h3"])
    rows = max(1, objectives.BLOCK_NODES // (shape[1] * shape[2]))
    skipped = sorted(set(range(0, shape[0], rows)) - set(evaluated))
    assert skipped
    if shape == objectives._GRID_3D:
        assert len(evaluated) == 1  # of 34
    p, x, y = (np.linspace(lo, hi, n) for (lo, hi), n in zip(OBJECTIVES["g_h3"][1], shape))
    for lo in skipped:
        block = printed_h3_majorant(*np.meshgrid(p[lo:lo + rows], x, y, indexing="ij"))
        assert block.max() < values[-1], lo


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(2, 70), st.integers(2, 60), st.integers(2, 60)),
       block_nodes=st.integers(1, 20_000), data=st.data())
def test_bounded_grid_scan_equals_the_full_scan(shape, block_nodes, data):
    k = data.draw(st.integers(1, math.prod(shape)))
    with mock.patch.object(objectives, "BLOCK_NODES", block_nodes):
        (idx, values), _ = grid_top_blocks(shape, k, objectives.GRID_BOUNDS["g_h3"])
        (want_idx, want_values), _ = grid_top_blocks(shape, k)
    assert idx.tobytes() == want_idx.tobytes()
    assert values.tobytes() == want_values.tobytes()


def whole_grid_maximize_box(name, grid=None, refine_starts=10):
    """maximize_box with its grid scanned in one piece: the reference for the
    block-wise scan."""
    fn, bounds = OBJECTIVES[name]
    dim = len(bounds)
    shape = (objectives._default_grid(dim) if grid is None
             else (grid,) * dim if isinstance(grid, int) else tuple(grid))
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    flat = np.broadcast_to(fn(*mesh), shape).ravel()
    best_point, best_val = None, -math.inf
    for k in top_k(flat, min(refine_starts, flat.size)):
        idx = np.unravel_index(int(k), shape)
        x0 = [float(axes[d][idx[d]]) for d in range(dim)]
        node_val = float(flat[k])
        if node_val > best_val:
            best_val, best_point = node_val, tuple(x0)
        res = objectives.minimize(lambda v: -fn(*objectives._clip(v, bounds)), x0,
                                  xatol=1e-12, fatol=1e-14, maxiter=2000)
        cand = objectives._clip(res.x.tolist(), bounds)
        val = float(fn(*cand))
        if val > best_val:
            best_val, best_point = val, tuple(cand)
    return best_point, best_val


@pytest.mark.parametrize("grid", [None, 60])
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_block_scan_equals_whole_grid(name, grid):
    # The default g_h3 grid is 34 blocks, the last of 3 of the 201 slices;
    # at 60 it is 4 blocks, the last of 6 slices.
    assert repr(maximize_box(name, grid)) == repr(whole_grid_maximize_box(name, grid))


@pytest.mark.parametrize("name,grid,block_nodes", [
    ("g_h3", (55, 52, 51), 3 * 52 * 51),     # 19 blocks, the last of 1 slice
    ("g_h3", (51, 51, 51), 1),               # a block is at least one slice
    ("g_h2", (80, 51), 7 * 51),              # two-dimensional grids split too
    ("h4", 60, 1000),
    ("k1", 2001, 300),                       # and one-dimensional ones
    ("k6", 51, 50),
])
def test_block_scan_equals_whole_grid_on_any_blocking(monkeypatch, name, grid, block_nodes):
    monkeypatch.setattr(objectives, "BLOCK_NODES", block_nodes)
    assert repr(maximize_box(name, grid)) == repr(whole_grid_maximize_box(name, grid))


def recorded_starts(monkeypatch, run):
    """The starting points ``run`` hands to Nelder-Mead, each refined to
    itself so that thousands of starts stay cheap."""
    starts = []

    def stay(fun, x0, **options):
        starts.append(list(x0))
        return NelderMeadResult(x=np.array(x0), fun=float(fun(x0)), nfev=1, nit=0)

    monkeypatch.setattr(objectives, "minimize", stay)
    result = run()
    return starts, result


@pytest.mark.parametrize("name,grid,refine_starts,block_nodes", [
    ("g_h3", 51, 1000, objectives.BLOCK_NODES),
    ("g_h3", 51, 3000, 51 * 51),      # more starts than a block has nodes
    ("k4_of_y", 60, 150, 60),         # the same values in every block: ties across blocks
])
def test_starts_larger_than_a_block_equal_whole_grid(monkeypatch, name, grid, refine_starts,
                                                     block_nodes):
    monkeypatch.setitem(OBJECTIVES, "k4_of_y", (lambda p, y: edge_k4(y),
                                                ((0.0, 2.0), (0.0, 1.0))))
    monkeypatch.setattr(objectives, "BLOCK_NODES", block_nodes)
    got = recorded_starts(monkeypatch, lambda: maximize_box(name, grid, refine_starts))
    want = recorded_starts(monkeypatch,
                           lambda: whole_grid_maximize_box(name, grid, refine_starts))
    assert len(got[0]) == refine_starts
    assert repr(got) == repr(want)


def test_block_scan_memory_is_bounded():
    # The whole 201 x 101 x 101 grid took about 63 MB of temporaries.
    tracemalloc.start()
    try:
        maximize_box("g_h3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_block_scan_memory_is_bounded_when_every_block_is_evaluated(monkeypatch):
    # Without its bound g_h3 evaluates all 34 blocks, as every objective
    # without a GRID_BOUNDS entry does.
    monkeypatch.setattr(objectives, "GRID_BOUNDS", {})
    calls = []
    fn, bounds = OBJECTIVES["g_h3"]
    monkeypatch.setitem(OBJECTIVES, "g_h3",
                        (lambda *v: calls.append(isinstance(v[0], np.ndarray)) or fn(*v), bounds))
    tracemalloc.start()
    try:
        maximize_box("g_h3", refine_starts=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert sum(calls) == 34
def test_maximize_rejects_unknown_or_coarse():
    with pytest.raises(ValueError):
        maximize_box("nope")
    with pytest.raises(ValueError):
        maximize_box("k1", grid=11)


@pytest.mark.parametrize("objective,grid", [("k1", (60, 60)), ("g_h3", (60, 60)),
                                            ("g_h2", (60,)), ("k1", ())])
def test_maximize_rejects_a_grid_tuple_of_the_wrong_length(objective, grid):
    with pytest.raises(ValueError, match="one node count per axis"):
        maximize_box(objective, grid=grid)


@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=300),
       data=st.data())
def test_top_k_equals_stable_full_sort(values, data):
    # Five distinct values force ties, at the k-th largest value too.
    flat = np.array(values, dtype=float)
    k = data.draw(st.integers(1, flat.size))
    assert top_k(flat, k).tolist() == np.argsort(-flat, kind="stable")[:k].tolist()


def test_top_k_ties_at_kth_value_keep_first_occurrence():
    flat = np.array([[3.0, 1.0, 3.0], [2.0, 3.0, 2.0]])
    assert top_k(flat, 2).tolist() == [0, 2]
    assert top_k(flat, 4).tolist() == [0, 2, 4, 3]
    for k in (0, 7):
        with pytest.raises(ValueError):
            top_k(flat, k)
    with pytest.raises(ValueError):
        maximize_box("k1", refine_starts=0)


def test_stationary_points_by_finite_differences():
    h = 1e-5
    p1 = 2 * math.sqrt(2 * (6 - math.sqrt(21)) / 5)
    d1 = (edge_k1(p1 + h) - edge_k1(p1 - h)) / (2 * h)
    assert abs(d1) < 1e-8
    x6 = 1 / math.sqrt(3)
    d6 = (edge_k6(x6 + h) - edge_k6(x6 - h)) / (2 * h)
    assert abs(d6) < 1e-8
    p3 = 2 * math.sqrt(2 * (25 - math.sqrt(587)) / 3)
    d3 = (face_x1(p3 + h) - face_x1(p3 - h)) / (2 * h)
    assert abs(d3) < 1e-8


def test_h3_surface_dominates_admissible_prefixes():
    rng = np.random.default_rng(2024)

    def disk():
        while True:
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(w) <= 1:
                return w

    for _ in range(10_000):
        pt = SchurPoint(p=float(2 * rng.random()), gamma=disk(), eta=disk(),
                        rho=disk())
        a2, a3, a4, a5 = coefficients_from_prefix(*caratheodory_from_schur(pt))
        h3 = abs(hankel_h31(a2, a3, a4, a5))
        assert h3 <= h3_bound_surface((pt.p, abs(pt.gamma), abs(pt.eta))) + 1e-9
