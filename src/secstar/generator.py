"""The generator phi(z) = (1+z)/cos z and its image-domain geometry.

Covers pointwise evaluation, the Maclaurin series, the real range on circles
|z| = r, global bounds of the image domain, point membership for the image
region (winding number over a sampled boundary polyline), and the primitive

    g(z) = integral_0^z (1 + t - cos t) / (t cos t) dt,

whose integrand extends continuously to t = 0 with value 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .scan import golden_max, refine_max
from .series import PowerSeries, elementary

__all__ = [
    "phi_eval",
    "phi_series",
    "radial_real_range",
    "PhiBounds",
    "phi_global_bounds",
    "CircleSample",
    "sample_circle",
    "ImageRegion",
    "g_eval",
    "g_series",
]

#: sup Re phi over the disk: 4 cos 1 / (1 + cos 2), equal to 2 sec 1.
RE_MAX = 4.0 * math.cos(1.0) / (1.0 + math.cos(2.0))


def phi_eval(z: complex) -> complex:
    """(1+z)/cos z; cos(x+iy) = cos x cosh y - i sin x sinh y via cmath."""
    z = complex(z)
    return (1.0 + z) / cmath.cos(z)


def _phi_values(z: np.ndarray) -> np.ndarray:
    return (1.0 + z) / np.cos(z)


@functools.lru_cache(maxsize=256)
def phi_series(order: int) -> PowerSeries:
    """Maclaurin series of (1+z)/cos z: (1+z) times the reciprocal cosine.

    Memoised by order; the returned series is immutable, so callers share it.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    one_plus_z = PowerSeries(np.concatenate([[1.0, 1.0], np.zeros(max(order - 1, 0))])
                             if order >= 1 else [1.0])
    sec = 1.0 / elementary("cos", order)
    return one_plus_z * sec


def radial_real_range(r: float, samples: int = 1024, verify: bool = True) -> tuple[float, float]:
    """(min, max) of Re phi on |z| = r: attained at z = -r and z = +r.

    With ``verify`` a dense theta sweep confirms no sampled real part leaves
    the interval by more than 1e-9 (it cannot, mathematically; a violation
    signals a broken build).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    lo = (1.0 - r) / math.cos(r)
    hi = (1.0 + r) / math.cos(r)
    if verify and r > 0:
        theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
        re = _phi_values(r * np.exp(1j * theta)).real
        if re.min() < lo - 1e-9 or re.max() > hi + 1e-9:
            raise RuntimeError("sampled Re phi escapes the radial range")
    return lo, hi


@dataclass(frozen=True)
class PhiBounds:
    """Global bounds of the image of the unit disk under phi."""

    re_min: float
    re_max: float
    im_abs_max: float
    arg_abs_max: float


def phi_global_bounds(samples: int = 4096) -> PhiBounds:
    """Bounds of Re, |Im| and |arg| of phi over the disk.

    Real bounds come from the radial range in the r -> 1 limit.  The
    imaginary and argument bounds are estimated on the boundary circle
    (where both maxima live) and sharpened by golden-section refinement.
    """
    if samples < 256:
        raise ValueError("need at least 256 boundary samples")
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    w = _phi_values(np.exp(1j * theta))

    def im_abs(t: float) -> float:
        return abs(phi_eval(cmath.exp(1j * t)).imag)

    _, im_max = refine_max(im_abs, theta, np.abs(w.imag))

    # |arg phi| is supremal toward theta = +-pi where the curve meets 0;
    # keep the refinement bracket away from the zero itself.
    def arg_abs(t: float) -> float:
        val = phi_eval(cmath.exp(1j * t))
        if val == 0:
            return 0.0
        return abs(cmath.phase(val))

    args = np.abs(np.angle(np.where(w == 0, 1.0, w)))
    i = int(np.argmax(args))
    lo = theta[max(i - 1, 0)]
    hi = min(theta[min(i + 1, samples - 1)], math.pi - 1e-13)
    _, arg_max = golden_max(arg_abs, lo, hi)
    arg_max = max(arg_max, float(args[i]))

    return PhiBounds(re_min=0.0, re_max=RE_MAX, im_abs_max=im_max, arg_abs_max=arg_max)


@dataclass(frozen=True)
class CircleSample:
    """phi sampled along |z| = radius, theta strictly increasing on [-pi, pi)."""

    radius: float
    thetas: np.ndarray
    values: np.ndarray

    @property
    def count(self) -> int:
        return self.thetas.size


def sample_circle(radius: float, count: int) -> CircleSample:
    if not 0.0 < radius <= 1.0:
        raise ValueError("radius must lie in (0, 1]")
    if count < 8:
        raise ValueError("need at least 8 samples")
    theta = np.linspace(-math.pi, math.pi, count, endpoint=False)
    return CircleSample(radius=radius, thetas=theta,
                        values=_phi_values(radius * np.exp(1j * theta)))


class ImageRegion:
    """Membership tests against the sampled boundary curve phi(e^{i theta}).

    The image domain is not convex, so membership is decided by the winding
    number of the boundary polyline about the query point.  The domain *is*
    starlike about w = 1 (verified at construction), which enables a radial
    screen: queries comfortably inside or outside the radial envelope about 1
    skip the winding computation.  ``contains_batch`` can count points near
    the polyline as inside.
    """

    def __init__(self, samples: int = 4096):
        if samples < 1024:
            raise ValueError("need at least 1024 boundary samples")
        theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
        self.boundary = _phi_values(np.exp(1j * theta))
        self.samples = samples
        rel = self.boundary - 1.0
        psi = np.unwrap(np.angle(rel))
        dpsi = np.diff(psi)
        # Starlikeness about 1 makes arg(boundary - 1) strictly monotone.
        self._starlike = bool((dpsi > 0).all()) and abs(psi[-1] + dpsi[-1] - psi[0] - 2 * math.pi) < 1e-6
        self._psi0 = psi[0]
        self._psi = psi
        self._rad = np.abs(rel)
        chord = np.abs(np.diff(np.concatenate([self.boundary, self.boundary[:1]])))
        self._screen_margin = 2.0 * float(chord.max())

    # -- exact winding test -------------------------------------------

    def winding_number(self, w: complex) -> int:
        rel = self.boundary - w
        ang = np.angle(rel)
        d = np.diff(np.concatenate([ang, ang[:1]]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        return int(round(d.sum() / (2.0 * math.pi)))

    def distance_to_boundary(self, w: complex) -> float:
        b = self.boundary
        e = np.concatenate([b[1:], b[:1]]) - b
        t = np.clip(((np.conj(e) * (w - b)).real) / np.abs(e) ** 2, 0.0, 1.0)
        return float(np.abs(b + t * e - w).min())

    # -- batched screen + fallback --------------------------------------

    def _screen(self, ws: np.ndarray) -> np.ndarray:
        """+1 certainly inside, -1 certainly outside, 0 undecided."""
        rel = ws - 1.0
        r = np.abs(rel)
        psi = np.mod(np.angle(rel) - self._psi0, 2.0 * math.pi) + self._psi0
        idx = np.searchsorted(self._psi, psi) - 1
        idx = np.clip(idx, 0, self.samples - 1)
        nxt = (idx + 1) % self.samples
        env_lo = np.minimum(self._rad[idx], self._rad[nxt]) - self._screen_margin
        env_hi = np.maximum(self._rad[idx], self._rad[nxt]) + self._screen_margin
        out = np.zeros(ws.size, dtype=int)
        out[r <= env_lo] = 1
        out[r >= env_hi] = -1
        return out

    def contains_batch(self, ws: np.ndarray, boundary_tol: float = 0.0) -> np.ndarray:
        """Vectorized membership; points within boundary_tol of the polyline count.

        Uses the radial screen when the starlikeness certificate holds and
        falls back to the exact winding test for undecided points.
        """
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        res = np.zeros(ws.size, dtype=bool)
        if self._starlike:
            s = self._screen(ws)
        else:
            s = np.zeros(ws.size, dtype=int)
        res[s == 1] = True
        for i in np.nonzero(s <= 0)[0]:
            w = complex(ws[i])
            if self.winding_number(w) == 1:
                res[i] = True
            elif boundary_tol > 0.0 and self.distance_to_boundary(w) <= boundary_tol:
                res[i] = True
        return res


# -- the primitive g -----------------------------------------------------


def _g_integrand(t: complex) -> complex:
    if t == 0:
        return 1.0 + 0j
    return (1.0 + t - cmath.cos(t)) / (t * cmath.cos(t))


#: Adaptive Simpson for g: absolute error target and recursion depth limit.
G_TOL = 1e-10
G_MAX_DEPTH = 40


def g_eval(z: complex) -> complex:
    """Adaptive-Simpson quadrature of the primitive along the segment [0, z].

    The integrand is analytic on the closed unit disk once the removable
    singularity at 0 is filled with its limit value 1, so the straight
    segment is a valid path for every |z| <= 1.
    """
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("g_eval is specified on the closed unit disk")
    if z == 0:
        return 0j

    def f(s: float) -> complex:
        return _g_integrand(z * s) * z

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = left + right - whole
        if abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        if depth >= G_MAX_DEPTH:
            raise RuntimeError("adaptive Simpson failed to converge (bug)")
        return (rec(a, m, fa, flm, fm, left, 0.5 * eps, depth + 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * eps, depth + 1))

    fa, fb = f(0.0), f(1.0)
    fm = f(0.5)
    return rec(0.0, 1.0, fa, fm, fb, simpson(fa, fm, fb, 1.0), G_TOL, 0)


def g_series(order: int) -> PowerSeries:
    """Termwise-integrated series of the primitive: coefficient k is q_k/k."""
    q = phi_series(order).coeffs
    c = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        c[1:] = q[1:] / np.arange(1, order + 1)
    return PowerSeries(c)
