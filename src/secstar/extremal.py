"""Lacunary extremal members and the growth/rotation/distortion envelopes.

``build_extremal(n, order)`` constructs the member f_n whose logarithmic
derivative is phi(z^{n-1}); n = 2 gives the principal extremal whose image
data furnishes the sharp envelopes: for |z| = r,

    -f2(-r) <= |f(z)| <= f2(r)      (growth)
    f2'(-r) <= |f'(z)| <= f2'(r)    (distortion)
    |arg f(z)/z| <= max over the circle of |arg f2(z)/z|   (rotation)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .generator import phi_series
from .scan import refine_max
from .series import PowerSeries

__all__ = [
    "ClassMember",
    "build_extremal",
    "growth_envelope",
    "distortion_envelope",
    "rotation_bound",
]


@dataclass(frozen=True)
class ClassMember:
    """Normalized analytic function given by its coefficient series.

    The series must satisfy c0 = 0 and c1 = 1 exactly.
    """

    coeffs: PowerSeries
    provenance: str = "manual"

    def __post_init__(self):
        c = self.coeffs.coeffs
        if c.size < 2 or c[0] != 0 or c[1] != 1:
            raise ValueError("class member needs c0 = 0 and c1 = 1 exactly")

    @property
    def order(self) -> int:
        return self.coeffs.order

    def a(self, n: int) -> complex:
        return self.coeffs[n]


def _phi_of_power(order: int, m: int) -> PowerSeries:
    """Series of phi(z^m) at the given order (m >= 1)."""
    q = phi_series(order // m if m > 1 else order).coeffs
    c = np.zeros(order + 1, dtype=np.complex128)
    c[:: m] = q[: order // m + 1]
    return PowerSeries(c)


def build_extremal(n: int, order: int) -> ClassMember:
    """Member f_n with z f_n'/f_n = phi(z^{n-1}), by the coefficient
    recurrence (k-1) a_k = sum_{j<k} q_{k-j} a_j.

    The tests check it against the exponential-integral lift of phi(z^{n-1}).
    """
    if n < 2:
        raise ValueError("extremal index must be >= 2")
    if order < n:
        raise ValueError("order must be at least n")
    q = _phi_of_power(order, n - 1)
    qc = q.coeffs
    a = np.zeros(order + 1, dtype=np.complex128)
    a[1] = 1.0
    for k in range(2, order + 1):
        a[k] = np.dot(qc[1:k][::-1], a[1:k]) / (k - 1)
    return ClassMember(PowerSeries(a), provenance=f"extremal-{n}")


def _envelope_series(r: float, derivative: bool = False) -> PowerSeries:
    # Convergence radius is pi/2; pick the order so the tail is far below
    # the 1e-10 acceptance bar, then verify by comparing two orders.  The
    # derivative's coefficients carry an extra factor n, which keeps its
    # order-64 tail above the bar from r = 0.84 on.
    order = 64 if r <= (0.8 if derivative else 0.9) else 128
    series = build_extremal(2, order).coeffs
    return series.derivative() if derivative else series


def _checked_eval(series: PowerSeries, z: complex) -> complex:
    full = series.evaluate(z)
    probe = series.truncate(series.order - 16).evaluate(z)
    if abs(full - probe) >= 1e-10:
        raise RuntimeError("envelope series tail estimate exceeds 1e-10")
    return full


def growth_envelope(r: float) -> tuple[float, float]:
    """Sharp bounds for |f(z)| on |z| = r: (-f2(-r), f2(r))."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0, 0.0
    s = _envelope_series(r)
    return -_checked_eval(s, -r).real, _checked_eval(s, r).real


def distortion_envelope(r: float) -> tuple[float, float]:
    """Sharp bounds for |f'(z)| on |z| = r: (f2'(-r), f2'(r))."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if r == 0.0:
        return 1.0, 1.0
    d = _envelope_series(r, derivative=True)
    return _checked_eval(d, -r).real, _checked_eval(d, r).real


def rotation_bound(r: float, samples: int = 1024) -> float:
    """max over |z| = r of |arg( f2(z)/z )|, golden-refined."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if samples < 256:
        raise ValueError("need at least 256 samples")
    if r == 0.0:
        return 0.0
    s = _envelope_series(r)

    def obj(t: float) -> float:
        z = r * cmath.exp(1j * t)
        return abs(cmath.phase(s.evaluate(z) / z))

    theta = np.linspace(0.0, math.pi, samples)
    z = r * np.exp(1j * theta)
    _, best = refine_max(obj, theta, values=np.abs(np.angle(s.evaluate(z) / z)))
    return best
