"""Dense-scan helpers and the optimisers that refine their best samples.

Every boundary extremum in this package is located the same way: sample the
objective on a dense grid, then refine around the best sample with a
golden-section search (one variable) or Nelder-Mead (the box maximizer).
Deterministic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Golden section stops once its bracket is TOL wide, or after MAX_ITER steps.
TOL = 1e-12
MAX_ITER = 200
#: Steps of golden section that golden_max_lookahead evaluates in one call.
LOOKAHEAD = 5

__all__ = ["golden_max", "golden_max_lookahead", "golden_min", "refine_max", "refine_min",
           "local_minima", "top_k", "NelderMeadResult", "nelder_mead"]


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


def golden_max_lookahead(f: Callable[[list[float]], Sequence[float]], lo: float,
                         hi: float) -> tuple[float, float]:
    """``golden_max`` for an objective evaluated on a list of points at once.

    Each call of ``f`` takes every point that the next ``LOOKAHEAD`` steps
    of ``golden_max`` could reach, built with its own float operations, and
    the steps are then replayed on those values with its branch test,
    stopping test and ``MAX_ITER``.  So when ``f`` gives each point the
    value the scalar objective gives it, the result is ``golden_max``'s
    bit for bit, in about one call per ``LOOKAHEAD`` steps.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    points = [c, d]
    fc = fd = None
    steps = 0
    while True:
        # The reachable states, heap-indexed from the current one at 1: node
        # k steps to 2k when fc >= fd and to 2k+1 otherwise.  Each holds its
        # (a, b, c, d) and the index of its new point.  A state that stops
        # the search has no children.
        nodes = {1: (a, b, c, d, -1)}
        for k in range(2, 2 << min(LOOKAHEAD, MAX_ITER - steps)):
            parent = nodes.get(k >> 1)
            if parent is None or parent[1] - parent[0] <= TOL:
                continue
            pa, pb, pc, pd, _ = parent
            if k & 1:
                nd = pc + _INVPHI * (pb - pc)
                nodes[k] = (pc, pb, pd, nd, len(points))
                points.append(nd)
            else:
                nc = pd - _INVPHI * (pd - pa)
                nodes[k] = (pa, pd, nc, pc, len(points))
                points.append(nc)
        values = f(points)
        if fc is None:
            fc, fd = values[0], values[1]
        k = 1
        while True:
            k = 2 * k if fc >= fd else 2 * k + 1
            if k not in nodes:
                break
            a, b, c, d, i = nodes[k]
            if k & 1:
                fc, fd = fd, values[i]
            else:
                fc, fd = values[i], fc
            steps += 1
        if steps >= MAX_ITER or b - a <= TOL:
            break
        points = []
    if fc >= fd:
        return c, fc
    return d, fd


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    x, v = golden_max(lambda t: -f(t), lo, hi)
    return x, -v


def refine_max(f: Callable[[float], float], xs: Sequence[float],
               values: Sequence[float] | None = None) -> tuple[float, float]:
    """Refine the best grid sample by golden section on its bracketing cell."""
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray([f(x) for x in xs.tolist()] if values is None else values)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    x, v = golden_max(f, lo, hi)
    if vals[i] > v:
        return float(xs[i]), float(vals[i])
    return x, v


def refine_min(f: Callable[[float], float], xs: Sequence[float],
               values: Sequence[float] | None = None) -> tuple[float, float]:
    x, v = refine_max(lambda t: -f(t), xs,
                      None if values is None else -np.asarray(values))
    return x, -v


def local_minima(f: Callable[[float], float],
                 xs: Sequence[float]) -> list[tuple[float, float]]:
    """All interior local minima of f sampled on the grid, refined."""
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray([f(x) for x in xs.tolist()])
    out = []
    for i in range(1, xs.size - 1):
        # <= on the right so a dip straddled by two equal samples still counts.
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            x, v = golden_min(f, xs[i - 1], xs[i + 1])
            out.append((x, v))
    return out


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
        # numpy's argsort, as scipy sorts: it breaks ties unlike a stable
        # sort once there are four or more vertices.
        order = np.argsort(np.array(fsim))
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
        if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))
                and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
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
