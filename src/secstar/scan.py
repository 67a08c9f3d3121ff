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

__all__ = ["golden_max", "golden_min", "refine_max", "refine_min", "local_minima",
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


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    x, v = golden_max(lambda t: -f(t), lo, hi)
    return x, -v


def refine_max(f: Callable[[float], float], xs: Sequence[float],
               values: Sequence[float] | None = None) -> tuple[float, float]:
    """Refine the best grid sample by golden section on its bracketing cell."""
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray([f(x) for x in xs]) if values is None else np.asarray(values)
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
    vals = np.asarray([f(x) for x in xs])
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


def nelder_mead(fun: Callable[[np.ndarray], float], x0: Sequence[float],
                xatol: float, fatol: float, maxiter: int) -> NelderMeadResult:
    """Minimize ``fun`` from ``x0`` by the Nelder-Mead simplex method.

    A step-for-step port of scipy's unbounded, non-adaptive
    ``minimize(method="Nelder-Mead")`` with ``maxiter`` and no evaluation
    cap: the same initial simplex, coefficients, vertex ordering and
    stopping test, so it returns the same ``x``, ``fun``, ``nfev`` and
    ``nit`` bit for bit.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(x.copy())

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    nit = 1
    while nit < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return NelderMeadResult(x=sim[0], fun=float(np.min(fsim)), nfev=nfev, nit=nit)
