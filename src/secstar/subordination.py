"""Subordination thresholds and related circle constants.

The first-order implication "1 + c z p'(z) subordinate to the generator
forces p subordinate to a target" yields lower bounds for c built from the
primitive g: its values at -1 and 1 (here gamma1, gamma2) and Im g(i).
Everything is computed from the order-80 series of g (``generator.g_eval``),
which agrees with 30-digit quadrature to two ulps at -1, 1 and i.  The
discrepancy report sets the computed values beside the published decimals,
several of which turn out to be degree-7 partial sums of that series rather
than values of g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .generator import g_eval
from .published import PUBLISHED
from .scan import local_minima, refine_max, refine_min

__all__ = [
    "ThresholdReport",
    "gamma_constants",
    "gudermannian",
    "subordination_threshold",
    "janowski_threshold",
    "ParabolaResult",
    "parabola_b0",
    "misc_constants",
]

#: Grid sizes of the circle scans behind parabola_b0 and misc_constants.
PARABOLA_SAMPLES = 8192
MISC_SAMPLES = 4096


@dataclass(frozen=True)
class ThresholdReport:
    """A computed constant; ``published.PUBLISHED[name]`` holds its decimal."""

    name: str
    computed: float


def gudermannian(x: float) -> float:
    """gd(x) = integral_0^x sech t dt = 2 atan(tanh(x/2))."""
    return 2.0 * math.atan(math.tanh(0.5 * x))


def gamma_constants() -> dict[str, ThresholdReport]:
    """gamma1 = g(-1), gamma2 = g(1) and Im g(i).

    Im g(i) has the closed form gd(1): along the segment [0, i] the
    integrand's imaginary part reduces to sech s.
    """
    g1 = g_eval(1.0).real
    gm1 = g_eval(-1.0).real
    im_gi = g_eval(1j).imag
    return {name: ThresholdReport(name, value)
            for name, value in (("gamma1", gm1), ("gamma2", g1), ("im_g_i", im_gi))}


def janowski_threshold(A: float, B: float) -> tuple[float, dict[str, float | None]]:
    """Lower bound for the Janowski target (1+Az)/(1+Bz), -1 <= B < A <= 1.

    Returns (threshold, candidates); the second candidate exists only when
    A - B - 1 - B^2 > 0 and is None otherwise.
    """
    if not (-1.0 <= B < A <= 1.0):
        raise ValueError("need -1 <= B < A <= 1")
    g = gamma_constants()
    first = g["gamma2"].computed * (1.0 - B) / (A - B)
    den = A - B - 1.0 - B * B
    second = (1.0 + B * B) / den * g["im_g_i"].computed if den > 0 else None
    value = first if second is None else max(first, second)
    return value, {"endpoint": first, "imaginary": second}


def subordination_threshold(target: str) -> float:
    """Threshold for p to be subordinate to the named target: ``exp``,
    ``cardioid`` or ``sine`` (the Janowski target is ``janowski_threshold``).
    """
    g = gamma_constants()
    gamma1 = g["gamma1"].computed
    gamma2 = g["gamma2"].computed
    if target == "exp":
        return math.e * gamma1 / (1.0 - math.e)
    if target == "cardioid":
        # The source labels this constant gamma2; the proof's quantity is
        # max(-e gamma1, gamma2/e) and only -e gamma1 is ~2.458.
        return max(-math.e * gamma1, gamma2 / math.e)
    if target == "sine":
        return gamma2 / math.sin(1.0)
    raise ValueError(f"unknown target {target!r}")


# -- parabolic containment constant ---------------------------------------


# The circle objectives below take xp=math as the scalar objectives of the
# scans and their refinements, and xp=np for the scans' estimates in one
# array pass (notes/decisions.md, section 25).


def _parabola_uv(theta, xp=math):
    x = xp.cos(theta)
    y = xp.sin(theta)
    D = xp.cos(2.0 * x) + xp.cosh(2.0 * y)
    u = (2.0 * ((x + 1.0) * xp.cos(x) * xp.cosh(y)
                - y * xp.sinh(y) * xp.sin(x)) / D
         + (0.5 + (x * xp.sin(2.0 * x) - y * xp.sinh(2.0 * y)) / D))
    v = (2.0 * ((x + 1.0) * xp.sinh(y) * xp.sin(x)
                + y * xp.cos(x) * xp.cosh(y)) / D
         + (y / ((x + 1.0) ** 2 + y * y)
            + (y * xp.sin(2.0 * x) + x * xp.sinh(2.0 * y)) / D))
    return u, v


def _parabola_objective(theta, xp=math):
    u, v = _parabola_uv(theta, xp=xp)
    return v * v - 2.0 * u


@dataclass(frozen=True)
class ParabolaResult:
    """Stationary minimum of v^2 - 2u on the boundary (m = 1), and b0.

    ``theta_min``/``min_value`` refer to the off-axis stationary local
    minimum the published threshold derives from (theta ~ -2.4773).  The
    objective is even in theta and has a far deeper dip at the symmetric
    point theta = 0 (~ -11.52), where the tested expression lies inside
    every admissible parabola and thus yields no contradiction; that global
    value is carried in ``global_theta``/``global_min_value`` and flagged by
    the discrepancy report.
    """

    theta_min: float
    min_value: float
    b0: float
    global_theta: float
    global_min_value: float


def parabola_b0() -> ParabolaResult:
    # Open grid: v has poles at theta = +-pi.
    thetas = np.linspace(-math.pi, math.pi, PARABOLA_SAMPLES + 2)[1:-1]
    minima = local_minima(_parabola_objective, thetas, _parabola_objective(thetas, np))
    if not minima:
        raise RuntimeError("no interior local minima found (bug)")
    global_theta, global_min = min(minima, key=lambda tv: tv[1])
    off_axis = [(t, v) for t, v in minima if abs(t) > 0.5]
    if not off_axis:
        raise RuntimeError("off-axis stationary minimum not found (bug)")
    theta_min, min_value = min(off_axis, key=lambda tv: tv[1])
    return ParabolaResult(theta_min=theta_min, min_value=min_value,
                          b0=-(min_value + 1.0) / 2.0,
                          global_theta=global_theta,
                          global_min_value=global_min)


# -- assorted circle constants ---------------------------------------------


def _log_derivative_re(theta, xp=math):
    # Re(z phi'/phi) on |z| = 1: 1/2 + (x sin 2x - y sinh 2y)/(cos 2x + cosh 2y).
    x = xp.cos(theta)
    y = xp.sin(theta)
    return 0.5 + (x * xp.sin(2.0 * x) - y * xp.sinh(2.0 * y)) / (
        xp.cos(2.0 * x) + xp.cosh(2.0 * y))


# |cos| and |sin| at e^{i theta}; their scans' estimates are the same
# expressions on arrays.
def _abs_cos(t: float) -> float:
    return abs(cmath.cos(cmath.exp(1j * t)))


def _abs_sin(t: float) -> float:
    return abs(cmath.sin(cmath.exp(1j * t)))


def misc_constants() -> dict[str, float]:
    """Assorted circle extrema used by the sufficiency and inclusion proofs.

    ``logderiv_min`` is the true circle minimum of Re(z phi'/phi); the
    claimed proof identity would force it to equal 1/2 + sech 2, which fails
    (the minimum is 1/2 - tanh 1 at theta = pi/2).  Both numbers are
    returned so reports can tabulate them side by side.
    """
    thetas = np.linspace(-math.pi, math.pi, MISC_SAMPLES, endpoint=False)
    w = np.exp(1j * thetas)
    _, cos_min = refine_min(_abs_cos, thetas, np.abs(np.cos(w)))
    _, sin_max = refine_max(_abs_sin, thetas, np.abs(np.sin(w)))
    _, logderiv_min = refine_min(_log_derivative_re, thetas, _log_derivative_re(thetas, np))
    return {
        "k2": 1.0 / math.cosh(2.0),
        "conv_sufficient": 0.5 + (2.0 + math.sinh(1.0)) / math.cos(1.0),
        "circle_cos_min": cos_min,
        "circle_sin_max": sin_max,
        "logderiv_min": logderiv_min,
        "logderiv_claimed": PUBLISHED["logderiv_circle_min"][0],
    }
