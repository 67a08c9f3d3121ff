"""Lacunary extremal members and the growth/rotation/distortion envelopes.

``build_extremal(n, order)`` constructs the member f_n whose logarithmic
derivative is phi(z^{n-1}); n = 2 gives the principal extremal whose image
data furnishes the sharp envelopes: for |z| = r,

    -f2(-r) <= |f(z)| <= f2(r)      (growth)
    f2'(-r) <= |f'(z)| <= f2'(r)    (distortion)
    |arg f(z)/z| <= max over the circle of |arg f2(z)/z|   (rotation)

The envelopes come from the primitive g: f2(z) = z e^{g(z)}, so
f2'(z) = e^{g(z)} phi(z) and arg(f2(z)/z) = Im g(z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .generator import G_ORDER, g_eval, g_series, phi_series
from .scan import refine_max

__all__ = [
    "ClassMember",
    "build_extremal",
    "growth_envelope",
    "distortion_envelope",
    "rotation_bound",
]


@dataclass(frozen=True, eq=False)
class ClassMember:
    """Normalized analytic function given by its coefficient series.

    The series must satisfy c0 = 0 and c1 = 1 exactly, with every
    coefficient finite.  ``coeffs`` holds a read-only complex128 copy of it.
    Members compare and hash by identity.
    """

    coeffs: np.ndarray
    provenance: str = "manual"

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 2 or c[0] != 0 or c[1] != 1:
            raise ValueError("class member needs c0 = 0 and c1 = 1 exactly")
        if not np.isfinite(c).all():
            raise ValueError("class member needs finite coefficients")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def a(self, n: int) -> complex:
        return complex(self.coeffs[n])


def build_extremal(n: int, order: int) -> ClassMember:
    """Member f_n with z f_n'/f_n = phi(z^{n-1}), by the coefficient
    recurrence (k-1) a_k = sum_{j<k} q_{k-j} a_j.

    The tests check it against ``series.lift_rows`` of phi(z^{n-1}); the two
    differ in the last bit, neither more accurate (notes/decisions.md, section 27).
    """
    if n < 2:
        raise ValueError("extremal index must be >= 2")
    if order < n:
        raise ValueError("order must be at least n")
    q = np.zeros(order + 1, dtype=np.complex128)
    q[:: n - 1] = phi_series(order // (n - 1))  # phi(z^{n-1})
    a = np.zeros(order + 1, dtype=np.complex128)
    a[1] = 1.0
    for k in range(2, order + 1):
        a[k] = np.dot(q[1:k][::-1], a[1:k]) / (k - 1)
    return ClassMember(a, provenance=f"extremal-{n}")


def growth_envelope(r: float) -> tuple[float, float]:
    """Sharp bounds for |f(z)| on |z| = r: (-f2(-r), f2(r)) = (r e^{g(-r)}, r e^{g(r)})."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0, 0.0
    return r * math.exp(g_eval(-r).real), r * math.exp(g_eval(r).real)


def distortion_envelope(r: float) -> tuple[float, float]:
    """Sharp bounds for |f'(z)| on |z| = r: (f2'(-r), f2'(r)), where
    f2'(z) = e^{g(z)} (1+z)/cos z."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if r == 0.0:
        return 1.0, 1.0
    return (math.exp(g_eval(-r).real) * (1.0 - r) / math.cos(r),
            math.exp(g_eval(r).real) * (1.0 + r) / math.cos(r))


def rotation_bound(r: float, samples: int = 1024) -> float:
    """max over |z| = r of |arg( f2(z)/z )| = |Im g(z)|, golden-refined."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if samples < 256:
        raise ValueError("need at least 256 samples")
    if r == 0.0:
        return 0.0
    theta = np.linspace(0.0, math.pi, samples)
    values = np.abs(np.polyval(g_series(G_ORDER)[::-1], r * np.exp(1j * theta)).imag)
    return refine_max(lambda t: abs(g_eval(r * cmath.exp(1j * t)).imag), theta, values)[1]
