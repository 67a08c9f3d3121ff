"""Explicit bound surfaces from the Hankel-determinant estimates, maximized.

``h2_bound_surface`` and ``h3_bound_surface`` reproduce the displayed
majorants exactly as printed in the source material.  The cuboid's faces
y = 0 and y = 1 are the surface restricted there; its other face and edge
restrictions are registered as printed, so each stationary value reproduces.

The cuboid surface dominates |H3(1)| pointwise over the coefficient-prefix
parametrization (with its corrected rho factor, see the caratheodory
module); the reduced quartic from the second-order estimate does *not*
stay below 1/4 on [0, 2], which the report surfaces as printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Bound as ``minimize``: the name perfbench's tracer wraps in this module.
from .scan import nelder_mead as minimize, top_k

__all__ = [
    "BoxPoint",
    "h2_bound_surface",
    "h2_reduced_polynomial",
    "h3_bound_surface",
    "OBJECTIVES",
    "maximize_box",
]


@dataclass(frozen=True)
class BoxPoint:
    """Point of the closed cuboid [0,2] x [0,1] x [0,1]."""

    p: float
    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 2.0 and 0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError("point outside the cuboid [0,2]x[0,1]x[0,1]")


def h2_bound_surface(p: float, rho: float) -> float:
    """Printed majorant of 768 |H2(2)|, scaled back by 1/768.

    Accepts scalars or equal-shaped arrays (the maximizer passes its mesh).
    A NaN coordinate gives NaN, as in every other objective.
    """
    outside = (p < 0.0) | (2.0 < p) | (rho < 0.0) | (1.0 < rho)
    # A Python bool for scalar input (each Nelder-Mead step), where np.any
    # would cost five times the surface itself.
    if outside is not False and np.any(outside):
        raise ValueError("(p, rho) outside [0,2]x[0,1]")
    t = 4.0 - p * p
    return (p**4 + 12.0 * p * p * t * rho
            + (28.0 * p**4 + 32.0 * p**3 - 96.0 * p * p - 128.0 * p + 192.0) * rho * rho
            + 32.0 * p * t) / 768.0


def h2_reduced_polynomial(p: float) -> float:
    """The rho = 1 reduction (192 - 48 p^2 + 17 p^4)/768.

    The source claims its maximum on [0,2] sits at p = 0 (value 1/4); the
    polynomial actually peaks at p = 2 with value 17/48.  Reported as found.
    """
    return (192.0 - 48.0 * p * p + 17.0 * p**4) / 768.0


def _g_terms(p, x):
    # p**3 and p**4 are computed once each: the same operations on the same
    # operands, so the same bits.  Nothing of x's shape is shared: on a wide
    # two-axis block an array held across the terms changes how the
    # temporaries are allocated, and the scan slowed (notes/decisions.md,
    # section 29).
    t = 4.0 - p * p
    p3, p4 = p**3, p**4
    g1 = (5.0 * p**6 + 26.0 * p4 * t * x + 144.0 * p * p * t * x * x
          + 56.0 * p4 * t * x * x + 68.0 * p * p * t * t * x * x
          + 36.0 * p4 * t * x**3 + 40.0 * p * p * t * t * x**3
          + 8.0 * p * p * t * t * x**4)
    g2 = t * (1.0 - x * x) * (40.0 * p3 + 144.0 * p3 * x
                              + 80.0 * p * t * x + 32.0 * p * t * x * x)
    g3 = t * (1.0 - x * x) * (256.0 * t + 32.0 * t * x * x + 144.0 * p * p * x)
    return t, g1, g2, g3


def h3_bound_surface(pt: BoxPoint | tuple[float, float, float]) -> float:
    """The cuboid majorant of |H3(1)| with the four summands as printed."""
    return _h3_surface(*((pt.p, pt.x, pt.y) if isinstance(pt, BoxPoint) else pt))


def _h3_surface(p, x, y):
    """``h3_bound_surface`` at the coordinates, scalars or arrays: the
    ``g_h3`` objective."""
    t, g1, g2, g3 = _g_terms(p, x)
    g4 = t * (1.0 - y * y) * (144.0 * p * p + 288.0 * t * x) * (1.0 - x * x)
    return (g1 + g2 * y + g3 * y * y + g4) / 36864.0


# -- face and edge restrictions, as printed -------------------------------


def face_p0(x: float, y: float) -> float:
    return (1.0 - x * x) * (x * x * y * y - 9.0 * x * (y * y - 1.0) + 8.0 * y * y) / 72.0


def face_x0(p: float, y: float) -> float:
    t = 4.0 - p * p
    return (5.0 * p**6 + 144.0 * t * p * p * (1.0 - y * y)
            + 256.0 * t * t * y * y + 40.0 * t * p**3 * y) / 36864.0


def face_x1(p: float) -> float:
    t = 4.0 - p * p
    return (5.0 * p**6 + 144.0 * p * p * t + 118.0 * p**4 * t
            + 116.0 * p * p * t * t) / 36864.0


def face_y0(p: float, x: float) -> float:
    return _h3_surface(p, x, 0.0)


def face_y1(p: float, x: float) -> float:
    return _h3_surface(p, x, 1.0)


def edge_k1(p: float) -> float:
    return (5.0 * p**6 + 144.0 * (4.0 - p * p) * p * p) / 36864.0


def edge_k2(p: float) -> float:
    t = 4.0 - p * p
    return (5.0 * p**6 + 256.0 * t * t + 40.0 * t * p**3) / 36864.0


def edge_k4(y: float) -> float:
    return y * y / 9.0


def edge_k5(x: float) -> float:
    return (1.0 - x * x) * (x * x + 8.0) / 72.0


def edge_k6(x: float) -> float:
    return x * (1.0 - x * x) / 8.0


#: name -> (objective of one argument per coordinate, bounds per coordinate)
OBJECTIVES: dict[str, tuple[Callable[..., float], tuple[tuple[float, float], ...]]] = {
    "g_h3": (_h3_surface, ((0.0, 2.0), (0.0, 1.0), (0.0, 1.0))),
    "g_h2": (h2_bound_surface, ((0.0, 2.0), (0.0, 1.0))),
    "g_h2_reduced": (h2_reduced_polynomial, ((0.0, 2.0),)),
    "h1": (face_p0, ((0.0, 1.0), (0.0, 1.0))),
    "h2": (face_x0, ((0.0, 2.0), (0.0, 1.0))),
    "h3": (face_x1, ((0.0, 2.0),)),
    "h4": (face_y0, ((0.0, 2.0), (0.0, 1.0))),
    "h5": (face_y1, ((0.0, 2.0), (0.0, 1.0))),
    "k1": (edge_k1, ((0.0, 2.0),)),
    "k2": (edge_k2, ((0.0, 2.0),)),
    "k4": (edge_k4, ((0.0, 1.0),)),
    "k5": (edge_k5, ((0.0, 1.0),)),
    "k6": (edge_k6, ((0.0, 1.0),)),
}

_GRID_3D = (201, 101, 101)
_GRID_2D = (201, 201)
_GRID_1D = (2001,)


def _default_grid(dim: int) -> tuple[int, ...]:
    return {3: _GRID_3D, 2: _GRID_2D, 1: _GRID_1D}[dim]


def _clip(v, bounds) -> list[float]:
    """``np.clip(v, lo, hi)`` with array bounds, on Python floats.

    It is ``min(max(a, lo), hi)`` except at a signed zero: like numpy, a
    -0.0 clipped to a 0.0 bound becomes the bound.  NaN passes through.
    """
    return [lo if a <= lo else hi if a >= hi else a for a, (lo, hi) in zip(v, bounds)]


def _negated_clipped(fn, bounds):
    """``lambda v: -fn(*_clip(v, bounds))``, the function Nelder-Mead
    minimizes, built once per maximization: the clip is unrolled over the
    one to three coordinates with the bounds in locals, so an evaluation
    builds no list.  Each test is ``_clip``'s, in its order.
    """
    if len(bounds) == 1:
        ((lo0, hi0),) = bounds

        def fun(v):
            (a,) = v
            return -fn(lo0 if a <= lo0 else hi0 if a >= hi0 else a)
    elif len(bounds) == 2:
        (lo0, hi0), (lo1, hi1) = bounds

        def fun(v):
            a, b = v
            return -fn(lo0 if a <= lo0 else hi0 if a >= hi0 else a,
                       lo1 if b <= lo1 else hi1 if b >= hi1 else b)
    else:
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = bounds

        def fun(v):
            a, b, c = v
            return -fn(lo0 if a <= lo0 else hi0 if a >= hi0 else a,
                       lo1 if b <= lo1 else hi1 if b >= hi1 else b,
                       lo2 if c <= lo2 else hi2 if c >= hi2 else c)
    return fun


#: Nodes per block of the grid scan; a block is whole slices along axis 0,
#: at least one.
BLOCK_NODES = 1 << 16


def _h3_grid_bound(v) -> np.ndarray:
    """Upper bounds of ``h3_bound_surface`` on the p-slices of a sparse mesh.

    With c = t (144 p^2 + 288 t x)(1 - x^2) the surface is
    ((g1 + c) + g2 y + (g3 - c) y^2) / 36864, a quadratic in y on each
    (p, x) line; its maximum on [0, 1] lies at an end or at the vertex.  The
    slack of 1e-12 times the terms' magnitudes covers the rounding of both
    the node values and this bound (notes/decisions.md, section 28).
    """
    p, x = v[0][..., 0], v[1][..., 0]
    t, g1, g2, g3 = _g_terms(p, x)
    c = t * (144.0 * p * p + 288.0 * t * x) * (1.0 - x * x)
    a = g3 - c
    vertex = (a < 0.0) & (0.0 < g2) & (g2 < -2.0 * a)
    peak = np.where(vertex, g1 + c - g2 * g2 / (4.0 * np.where(vertex, a, -1.0)), -np.inf)
    top = np.maximum(np.maximum(g1 + c, g1 + g2 + g3), peak)
    slack = 1e-12 * (np.abs(g1) + np.abs(g2) + np.abs(g3) + np.abs(c))
    return np.max(top + slack, axis=1) / 36864.0


#: name -> upper bounds of the objective on the axis-0 slices of a piece of
#: its sparse mesh, computed on the lines along the last axis; the grid
#: scan skips the blocks they rule out.
GRID_BOUNDS: dict[str, Callable[[list[np.ndarray]], np.ndarray]] = {"g_h3": _h3_grid_bound}


def _grid_top(fn, axes, shape, k, bound=None) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the k best grid nodes, as ``top_k`` of the
    whole grid orders them, computed a block at a time.

    Each block's ``top_k`` holds every node of the whole grid's that falls
    in it, so ``top_k`` over the blocks' candidates picks the same nodes.
    Candidates are merged in node order and ``top_k`` keeps tied nodes in
    node order, so tied candidates stay in node order and the first
    occurrence wins.

    ``bound``, if given, maps a piece of the sparse mesh to upper bounds of
    ``fn`` on its axis-0 slices (see ``GRID_BOUNDS``).  Blocks are then
    visited from the highest bound down, and one whose bound is below the
    k-th best value found so far is skipped: none of its nodes can be among
    the k best, nor tie the k-th.
    """
    # Sparse axes: each term is computed on the axes it depends on, then
    # broadcast; every node still sees the same IEEE operations in order.
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    stride = math.prod(shape[1:])
    rows = max(1, BLOCK_NODES // stride)
    starts = range(0, shape[0], rows)
    order, limits = range(len(starts)), None
    if bound is not None:
        # Whole blocks of slices a call.  The bound holds about ten arrays
        # of its lines at once, a block's evaluation about four of its
        # nodes, so BLOCK_NODES / 4 lines a call keep its memory within a
        # block's.
        span = max(1, BLOCK_NODES // 4 // (stride // shape[-1]) // rows) * rows
        slice_max = np.concatenate([bound([mesh[0][lo:lo + span], *mesh[1:]])
                                    for lo in range(0, shape[0], span)])
        limits = np.maximum.reduceat(slice_max, starts).tolist()
        order = np.argsort(np.negative(limits), kind="stable").tolist()
    kept = {}
    kth = -math.inf
    for i in order:
        # Not ``break``: a NaN bound is never below kth.
        if limits is not None and limits[i] < kth:
            continue
        lo = starts[i]
        block = (min(rows, shape[0] - lo),) + shape[1:]
        flat = np.broadcast_to(fn(mesh[0][lo:lo + rows], *mesh[1:]), block).ravel()
        best = top_k(flat, min(k, flat.size))
        kept[i] = (best + lo * stride, flat[best])
        if limits is not None:
            values = np.concatenate([v for _, v in kept.values()])
            if values.size >= k:
                kth = np.partition(values, values.size - k)[values.size - k]
    found, values = (np.concatenate(part) for part in zip(*(kept[i] for i in sorted(kept))))
    best = top_k(values, k)
    return found[best], values[best]


def maximize_box(objective: str, grid: tuple[int, ...] | int | None = None,
                 refine_starts: int = 10) -> tuple[tuple[float, ...], float]:
    """Dense grid scan plus Nelder-Mead refinement, clipped to the box.

    Returns (argmax, value).  Deterministic: the grid argmax takes the
    lexicographically smallest point on ties (C-order first occurrence), and
    refinement starts from the ``refine_starts`` best cells.  The refinement
    is ``scan.nelder_mead``, a port of scipy's Nelder-Mead.  The grid is
    scanned in blocks of about ``BLOCK_NODES`` nodes, so its size bounds the
    time but not the memory; an objective with a ``GRID_BOUNDS`` entry skips
    the blocks its bound rules out.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    fn, bounds = OBJECTIVES[objective]
    dim = len(bounds)
    if grid is None:
        shape = _default_grid(dim)
    elif isinstance(grid, int):
        shape = (grid,) * dim
    else:
        shape = tuple(grid)
        if len(shape) != dim:
            raise ValueError(f"grid must give one node count per axis, {dim} for {objective!r}")
    if min(shape) < 51:
        raise ValueError("grid must have at least 51 nodes per axis")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    starts, start_vals = _grid_top(fn, axes, shape, min(refine_starts, math.prod(shape)),
                                   GRID_BOUNDS.get(objective))

    fun = _negated_clipped(fn, bounds)
    best_point = None
    best_val = -math.inf
    for k, node_val in zip(starts.tolist(), start_vals.tolist()):
        idx = np.unravel_index(k, shape)
        x0 = [float(axes[d][idx[d]]) for d in range(dim)]
        if node_val > best_val:
            best_val, best_point = node_val, tuple(x0)
        res = minimize(fun, x0, xatol=1e-12, fatol=1e-14, maxiter=2000)
        cand = _clip(res.x.tolist(), bounds)
        val = float(fn(*cand))
        if val > best_val:
            best_val, best_point = val, tuple(cand)
    return best_point, best_val
