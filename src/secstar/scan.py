"""Dense-scan helpers and the optimisers that refine their best samples.

Every boundary extremum in this package is located the same way: sample the
objective on a dense grid, then refine around the best sample with a
golden-section search (one variable) or Nelder-Mead (the box maximizer).
Every root is bracketed by the first sign change on a grid.
Deterministic by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Golden section stops once its bracket is TOL wide, or after MAX_ITER steps.
TOL = 1e-12
MAX_ITER = 200
#: An array estimate of a grid value decides a comparison only when it
#: clears the other side by more than SLACK * (1 + |v|); the scalar
#: objective settles closer calls (notes/decisions.md, section 25).
SLACK = 1e-9

__all__ = ["golden_max", "refine_max", "refine_min", "local_minima", "sign_change",
           "top_k", "NelderMeadResult", "nelder_mead"]


def golden_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if b - a <= TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def _sure(values: np.ndarray) -> np.ndarray:
    """Grid values that may decide a comparison: finite, and not -0.0."""
    return np.isfinite(values) & ~((values == 0.0) & np.signbit(values))


def _grid_values(f: Callable[[float], float], xs: np.ndarray,
                values: Sequence[float] | None):
    """(values, widths, exact) for a scan of ``f`` on the grid ``xs``.

    Without ``values`` the grid values are ``f`` at each node, node by node
    on ``xs.tolist()``, and every width is 0.  With them, they are estimates
    from an array pass, each with the width SLACK * (1 + |v|).  An estimate
    must lie within half its width of ``f`` at its node, and be NaN or inf
    where ``f`` is not finite.  ``exact(j)`` is ``f`` at node j, memoised.
    A scan lets a grid value decide a comparison only when it is sure
    (finite, not -0.0) and clears the other side by more than both widths;
    ``exact`` settles the close calls.
    """
    if values is None:
        exact_values = [f(x) for x in xs.tolist()]
        return (np.asarray(exact_values, dtype=float), np.zeros(xs.size),
                exact_values.__getitem__)
    known: dict[int, float] = {}

    def exact(j: int) -> float:
        if j not in known:
            known[j] = f(float(xs[j]))
        return known[j]

    values = np.asarray(values, dtype=float)
    return values, SLACK * (1.0 + np.abs(values)), exact


def _argmax(values: np.ndarray, widths: np.ndarray, exact) -> int:
    """The node ``np.argmax`` picks among the exact values: the first NaN,
    else the first largest.  Only the candidates within both widths of the
    top sure value, and the nodes that are not sure, are evaluated exactly.
    """
    sure = _sure(values)
    candidates = ~sure
    if sure.any():
        top = int(np.argmax(np.where(sure, values, -np.inf)))
        with np.errstate(invalid="ignore"):
            candidates |= values + widths >= values[top] - widths[top]
    nodes = np.flatnonzero(candidates).tolist()
    return nodes[int(np.argmax([exact(j) for j in nodes]))]


def refine_max(f: Callable[[float], float], xs: Sequence[float],
               values: Sequence[float] | None = None) -> tuple[float, float]:
    """Refine the best grid sample by golden section on its bracketing cell.

    ``values``, if given, are array estimates of ``f`` on ``xs`` (see
    ``_grid_values``); the best node and the returned numbers are those of
    the scan without them.
    """
    xs = np.asarray(xs, dtype=float)
    values, widths, exact = _grid_values(f, xs, values)
    i = _argmax(values, widths, exact)
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    x, v = golden_max(f, lo, hi)
    best = exact(i)
    if best > v:
        return float(xs[i]), float(best)
    return x, v


def refine_min(f: Callable[[float], float], xs: Sequence[float],
               values: Sequence[float] | None = None) -> tuple[float, float]:
    x, v = refine_max(lambda t: -f(t), xs,
                      None if values is None else -np.asarray(values))
    return x, -v


def local_minima(f: Callable[[float], float], xs: Sequence[float],
                 values: Sequence[float] | None = None) -> list[tuple[float, float]]:
    """All interior local minima of f sampled on the grid, refined.

    ``values`` as in ``refine_max``: a neighbour pair whose estimates are
    within both widths of each other is compared on its exact values.
    """
    xs = np.asarray(xs, dtype=float)
    values, widths, exact = _grid_values(f, xs, values)
    sure = _sure(values)
    with np.errstate(invalid="ignore"):
        clear = (sure[:-1] & sure[1:]
                 & (np.abs(np.diff(values)) > widths[:-1] + widths[1:]))
    falls = values[1:] < values[:-1]      # pair j: v[j+1] < v[j]
    rises = values[:-1] <= values[1:]     # pair j: v[j] <= v[j+1]
    for j in np.flatnonzero(~clear).tolist():
        a, b = exact(j), exact(j + 1)
        falls[j], rises[j] = b < a, a <= b
    out = []
    # <= on the right so a dip straddled by two equal samples still counts.
    for i in (np.flatnonzero(falls[:-1] & rises[1:]) + 1).tolist():
        x, v = golden_max(lambda t: -f(t), xs[i - 1], xs[i + 1])
        out.append((x, -v))
    return out


def sign_change(f: Callable[[float], float], xs: Sequence[float],
                values: Sequence[float] | None = None
                ) -> tuple[int | None, Callable[[int], float]]:
    """(i, exact): the first cell [xs[i], xs[i+1]] whose end values of ``f``
    differ in sign bit (i is None if none does), and ``exact`` of
    ``_grid_values``, the memo of ``f`` on the grid.

    A node's sign comes from its estimate in ``values`` when that is sure and
    clears 0 by more than its width, and from ``f`` otherwise; only the cells
    whose ends are not both decided alike are visited.  Without ``values``
    every sign comes from ``f``, and the scan stops at the first change.
    """
    if values is None:
        values = np.full(len(xs), math.nan)  # decides nothing
    values, widths, exact = _grid_values(f, xs, values)
    decided = _sure(values) & (np.abs(values) > widths)
    negative = values < 0.0
    # A cell can hold the first sign change only if an end is undecided or
    # its ends are decided apart.
    cells = np.flatnonzero(~(decided[:-1] & decided[1:])
                           | (negative[:-1] != negative[1:])).tolist()

    def sign_bit(j: int) -> bool:
        if decided[j]:
            return bool(negative[j])
        return math.copysign(1.0, exact(j)) < 0.0

    for i in cells:
        if sign_bit(i) != sign_bit(i + 1):
            return i, exact
    return None, exact


def top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest values, largest first.

    Ties keep the first occurrence first, exactly as the first k entries of
    ``np.argsort(-values, kind="stable")``, without sorting everything: only
    the values at or above the k-th largest are sorted.
    """
    flat = np.ravel(values)
    if not 1 <= k <= flat.size:
        raise ValueError(f"k must lie in [1, {flat.size}]")
    threshold = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= threshold)
    return candidates[np.argsort(-flat[candidates], kind="stable")][:k]


@functools.cache
def _weak_order_argsort(ranks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(np.argsort(np.array(ranks, dtype=float)).tolist())


def _argsort(values: list[float]) -> Sequence[int]:
    """``np.argsort(np.array(values))``, the vertex order scipy sorts by.

    numpy's argsort compares values and nothing else, so its permutation
    depends only on their weak order: each value's rank, ties sharing the
    lowest.  Ties are common in the simplex and numpy breaks them unlike a
    stable sort once there are four or more values, so the order is numpy's
    own, taken once per weak order on the ranks themselves.  A NaN, an inf
    or an overflowing sum goes to numpy directly (notes/decisions.md,
    section 28).
    """
    if not math.isfinite(sum(values)):
        return np.argsort(np.array(values)).tolist()
    ascending = sorted(values)
    return _weak_order_argsort(tuple(map(ascending.index, values)))


@dataclass(frozen=True)
class NelderMeadResult:
    """Best vertex, its value, objective evaluations and iterations."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def nelder_mead(fun: Callable[[list[float]], float], x0: Sequence[float],
                xatol: float, fatol: float, maxiter: int) -> NelderMeadResult:
    """Minimize ``fun`` from ``x0`` by the Nelder-Mead simplex method.

    A step-for-step port of scipy's unbounded, non-adaptive
    ``minimize(method="Nelder-Mead")`` with ``maxiter`` and no evaluation
    cap: the same initial simplex, coefficients, vertex ordering and
    stopping test, so it returns the same ``x``, ``fun``, ``nfev`` and
    ``nit`` bit for bit.  The simplex is held as Python floats and every
    step is written element by element in scipy's operation order; ``fun``
    receives a fresh list of floats.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(list(x)))

    def by_value(sim, fsim):
        order = _argsort(fsim)
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)
    sim, fsim = by_value(sim, [f(v) for v in sim])

    nit = 1
    while nit < maxiter:
        best, worst = sim[0], sim[-1]
        # The cheaper f-spread test first; both halves are pure.
        if (all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])
                and all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))):
            break
        # The centroid of all but the worst vertex, summed in row order.
        total = best
        for v in sim[1:-1]:
            total = [a + b for a, b in zip(total, v)]
        xbar = [a / n for a in total]
        xr = [(1 + rho) * a - rho * w for a, w in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [(1 + rho * chi) * a - rho * chi * w for a, w in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [(1 + psi * rho) * a - psi * rho * w for a, w in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [(1 - psi) * a + psi * w for a, w in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (a - b) for a, b in zip(sim[j], best)]
                    fsim[j] = f(sim[j])
        nit += 1
        sim, fsim = by_value(sim, fsim)
    return NelderMeadResult(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev,
                            nit=nit)
