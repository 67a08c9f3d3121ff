"""Radius problems and inclusion constants.

Each radius is the smallest positive root in [0, 1] of a transcendental
equation; solving is bracketed bisection (sign-change scan first) followed
by a Newton polish with a finite-difference derivative.  Saturated cases
(the defining inequality holds on the whole disk) return radius 1 with a
degenerate bracket and zero iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scan import refine_max

__all__ = [
    "RootResult",
    "solve_radius",
    "InclusionConstants",
    "inclusion_constants",
    "ellipse_parameters",
    "stp_constant",
]

TWO_SEC_ONE = 2.0 / math.cos(1.0)
#: Cells of the sign-change scan that brackets each root in [0, 1].
SCAN_CELLS = 2048


@dataclass(frozen=True)
class RootResult:
    """Solved radius with residual, bracketing interval and iteration count."""

    r: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


def _bisect_newton(fn: Callable[[float], float]) -> RootResult:
    """Smallest root of fn in [0, 1]: scan for a sign change, bisect, polish.

    The scan stops at the first cell whose end values differ in sign bit.
    """
    xs = np.linspace(0.0, 1.0, SCAN_CELLS + 1).tolist()
    f0 = fn(xs[0])
    if abs(f0) < 1e-15:
        return RootResult(r=0.0, residual=abs(f0), bracket=(0.0, 0.0), iterations=0)
    a, fa = xs[0], f0
    for b in xs[1:]:
        fb = fn(b)
        if math.copysign(1.0, fa) != math.copysign(1.0, fb):
            break
        a, fa = b, fb
    else:
        if abs(fa) < 1e-15:
            return RootResult(r=1.0, residual=abs(fa), bracket=(1.0, 1.0), iterations=0)
        raise ValueError(f"no sign change in [0, 1]: f(0) = {f0:.6g}, f(1) = {fa:.6g}")
    bracket = (a, b)
    iters = 0
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = fn(m)
        iters += 1
        if fm == 0.0 or (b - a) < 1e-15:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    root = 0.5 * (a + b)
    # Newton polish with a central finite-difference slope.
    for _ in range(3):
        f0 = fn(root)
        h = 1e-7
        slope = (fn(min(root + h, 1.0)) - fn(max(root - h, 0.0))) / (
            min(root + h, 1.0) - max(root - h, 0.0))
        if slope == 0.0:
            break
        step = f0 / slope
        cand = min(max(root - step, bracket[0]), bracket[1])
        iters += 1
        if abs(fn(cand)) <= abs(f0):
            root = cand
        if abs(step) < 1e-16:
            break
    return RootResult(r=root, residual=abs(fn(root)), bracket=bracket,
                      iterations=iters)


def solve_radius(kind: str, param: float) -> RootResult:
    """Radius of the named subclass property.

    kinds: ``starlike_order`` (alpha in [0,1)), ``mu_beta`` (beta > 1),
    ``convexity`` (alpha in [0,1)), ``m_starlike`` (M > 0).
    """
    if not math.isfinite(param):
        raise ValueError("radius parameter must be finite")
    if kind == "m_starlike":
        M = param
        if M <= 0.0:
            raise ValueError("M must be positive")
        if M >= 0.5:
            # (1-r)/cos r < 2M already holds on (0, 1); the equation branch
            # would return r = 0 at M = 1/2 against the geometric condition.
            return RootResult(r=1.0, residual=0.0, bracket=(1.0, 1.0), iterations=0)
        # 1 - r - 2M cos r is the starlike_order equation at alpha = 2M
        # (notes/decisions.md, section 5).
        kind, param = "starlike_order", 2.0 * M
    if kind == "starlike_order":
        alpha = param
        if not 0.0 <= alpha < 1.0:
            raise ValueError("starlike order must lie in [0, 1)")
        return _bisect_newton(lambda r: (1.0 - r) - alpha * math.cos(r))
    if kind == "mu_beta":
        beta = param
        if beta <= 1.0:
            raise ValueError("beta must exceed 1")
        if beta >= TWO_SEC_ONE:
            # (1+r)/cos r stays below beta on the whole disk.
            return RootResult(r=1.0, residual=0.0, bracket=(1.0, 1.0), iterations=0)
        return _bisect_newton(lambda r: 1.0 + r - beta * math.cos(r))
    if kind == "convexity":
        alpha = param
        if not 0.0 <= alpha < 1.0:
            raise ValueError("convexity order must lie in [0, 1)")
        return _bisect_newton(
            lambda r: (1.0 - r) ** 2 - (r + alpha * (1.0 - r)) * math.cos(r)
            - r * (1.0 - r) * math.sin(r)
        )
    raise ValueError(f"unknown radius kind {kind!r}")


@dataclass(frozen=True)
class InclusionConstants:
    kst_threshold: float
    mu_beta_threshold: float


def inclusion_constants() -> InclusionConstants:
    """Thresholds for the elliptic-domain and bounded-real-part inclusions."""
    kst = 4.0 * math.cos(1.0) / (4.0 * math.cos(1.0) - math.cos(2.0) - 1.0)
    return InclusionConstants(kst_threshold=kst, mu_beta_threshold=TWO_SEC_ONE)


def ellipse_parameters(k: float) -> tuple[float, float, float]:
    """Center x0, semi-axes (u, v) of the k-level boundary ellipse (k > 1)."""
    if not 1.0 < k < math.inf:  # NaN fails too
        raise ValueError("the boundary curve is an ellipse only for finite k > 1")
    den = k * k - 1.0
    return k * k / den, k / den, 1.0 / math.sqrt(den)


def _stp_objective(theta: float) -> float:
    x = math.cos(theta)
    y = math.sin(theta)
    num = ((x + 1.0) * math.sinh(y) * math.sin(x)
           + y * math.cos(x) * math.cosh(y)) ** 2
    den = 2.0 * (math.cos(2.0 * x) + math.cosh(2.0 * y)) * (
        (x + 1.0) * math.cos(x) * math.cosh(y)
        - y * math.sinh(y) * math.sin(x))
    if den == 0.0:
        return 0.0
    return num / den


def stp_constant(samples: int = 4096) -> tuple[float, float]:
    """(theta0, a0): arg max and max of the parabolic-inclusion objective.

    The objective is even in theta and has a removable 0/0 point at theta =
    pi, so the scan covers (0, pi) open.
    """
    if samples < 1024:
        raise ValueError("need at least 1024 samples")
    thetas = np.linspace(0.0, math.pi, samples + 2)[1:-1]
    theta0, a0 = refine_max(_stp_objective, thetas)
    return theta0, a0
