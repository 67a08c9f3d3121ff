"""The generator phi(z) = (1+z)/cos z and its image-domain geometry.

Covers pointwise evaluation, the Maclaurin series, the real range on circles
|z| = r, global bounds of the image domain, point membership for the image
region (one exact test against the sampled boundary polygon, a star polygon
about w = 1), and the primitive

    g(z) = integral_0^z (1 + t - cos t) / (t cos t) dt,

whose integrand extends continuously to t = 0 with value 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .scan import refine_max
from .series import elementary, integral

__all__ = [
    "phi_eval",
    "phi_series",
    "radial_real_range",
    "PhiBounds",
    "phi_global_bounds",
    "CircleSample",
    "sample_circle",
    "ImageRegion",
    "image_region",
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
def phi_series(order: int) -> np.ndarray:
    """Maclaurin series of (1+z)/cos z: (1+z) times the reciprocal cosine.

    Memoised by order; the returned array is read-only, so callers share it.
    """
    sec = elementary("sec", order)
    one_plus_z = np.zeros(order + 1, dtype=np.complex128)
    one_plus_z[:2] = 1.0
    c = np.convolve(one_plus_z, sec)[: order + 1]
    c.flags.writeable = False
    return c


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


#: Fewest boundary samples phi_global_bounds and sample_circle take.
BOUNDS_MIN_SAMPLES = 256
CIRCLE_MIN_SAMPLES = 8


def phi_global_bounds(samples: int = 4096) -> PhiBounds:
    """Bounds of Re, |Im| and |arg| of phi over the disk.

    Real bounds come from the radial range in the r -> 1 limit.  The
    imaginary and argument bounds are taken on the boundary circle, where
    both maxima live: |Im| is refined from its grid by ``refine_max``, and
    |arg| is its largest grid value.
    """
    if samples < BOUNDS_MIN_SAMPLES:
        raise ValueError(f"need at least {BOUNDS_MIN_SAMPLES} boundary samples")
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    w = _phi_values(np.exp(1j * theta))

    def im_abs(t: float) -> float:
        return abs(phi_eval(cmath.exp(1j * t)).imag)

    _, im_max = refine_max(im_abs, theta, np.abs(w.imag))

    # |arg phi| climbs to pi/2 toward theta = +-pi, where the curve meets 0.
    # The node theta = -pi already gives pi/2 less one ulp, and refining the
    # best cell returned the node's value at every grid tried
    # (notes/decisions.md, section 26).
    arg_max = float(np.abs(np.angle(np.where(w == 0, 1.0, w))).max())

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
    if count < CIRCLE_MIN_SAMPLES:
        raise ValueError(f"need at least {CIRCLE_MIN_SAMPLES} samples")
    theta = np.linspace(-math.pi, math.pi, count, endpoint=False)
    return CircleSample(radius=radius, thetas=theta,
                        values=_phi_values(radius * np.exp(1j * theta)))


#: Vertices of the boundary polygon phi(e^{i theta}) behind ImageRegion.
REGION_SAMPLES = 16384


class ImageRegion:
    """Membership in phi(D), decided against the boundary polygon phi(e^{i theta}).

    The image domain is not convex, but it is starlike about w = 1: along the
    closed polygon, closing edge included, arg(b - 1) rises strictly and makes
    one turn.  Construction checks this certificate and raises RuntimeError if
    it fails.  A point w then lies in the polygon exactly when it is on the
    inner side of the edge of the sector that holds arg(w - 1).
    ``winding_number`` is the reference implementation the tests compare with.
    """

    def __init__(self):
        theta = np.linspace(-math.pi, math.pi, REGION_SAMPLES, endpoint=False)
        self.boundary = _phi_values(np.exp(1j * theta))
        self._edges = np.roll(self.boundary, -1) - self.boundary
        # Unwrapped arg(b - 1) at every vertex and again at the first one.
        rel = self.boundary - 1.0
        self._psi = np.unwrap(np.angle(np.append(rel, rel[0])))
        if not ((np.diff(self._psi) > 0).all()
                and abs(self._psi[-1] - self._psi[0] - 2 * math.pi) < 1e-6):
            raise RuntimeError("image boundary is not starlike about 1")
        # image_region() shares one instance, so no caller may change it.
        for a in (self.boundary, self._edges, self._psi):
            a.flags.writeable = False

    def winding_number(self, w: complex) -> int:
        """Winding number of the polygon about w: the reference for contains_batch."""
        rel = self.boundary - w
        ang = np.angle(rel)
        d = np.diff(np.concatenate([ang, ang[:1]]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        return int(round(d.sum() / (2.0 * math.pi)))

    def distance_to_boundary(self, w: complex) -> float:
        b = self.boundary
        e = self._edges
        t = np.clip(((np.conj(e) * (w - b)).real) / np.abs(e) ** 2, 0.0, 1.0)
        return float(np.abs(b + t * e - w).min())

    def contains_batch(self, ws: np.ndarray, boundary_tol: float = 0.0) -> np.ndarray:
        """Vectorized membership; outside points within boundary_tol of the
        polygon count as inside.  Non-finite points are outside."""
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        finite = np.isfinite(ws)
        if not finite.all():
            # Kept out of the edge test, where inf meets inf - inf or 0 * inf.
            inside = np.zeros(ws.size, dtype=bool)
            inside[finite] = self.contains_batch(ws[finite], boundary_tol)
            return inside
        # arg(w - 1) moved into [psi_0, psi_0 + 2 pi), the range the sectors cover.
        psi0 = self._psi[0]
        psi = psi0 + np.mod(np.angle(ws - 1.0) - psi0, 2.0 * math.pi)
        # searchsorted runs faster on sorted keys, and a key's index does
        # not depend on the order of the others.
        order = np.argsort(psi)
        i = np.empty(psi.size, dtype=np.intp)
        i[order] = np.searchsorted(self._psi, psi[order], side="right")
        i = np.clip(i - 1, 0, self.boundary.size - 1)
        inside = (np.conj(self._edges[i]) * (ws - self.boundary[i])).imag > 0.0
        if boundary_tol > 0.0:
            for k in np.flatnonzero(~inside):
                inside[k] = self.distance_to_boundary(complex(ws[k])) <= boundary_tol
        return inside


@functools.lru_cache(maxsize=1)
def image_region() -> ImageRegion:
    """The image region, built once: memoised like phi_series, and its
    arrays are read-only, so callers share it."""
    return ImageRegion()


# -- the primitive g -----------------------------------------------------

#: Order of the series behind g_eval.  g is analytic for |z| < pi/2, so on the
#: closed unit disk its terms fall like (2/pi)^n: the terms past order 80 sum
#: to below 1e-17, and the 16 below them to about 1e-14.
G_ORDER = 80


@functools.lru_cache(maxsize=256)
def g_series(order: int) -> np.ndarray:
    """Termwise-integrated series of the primitive: coefficient k is q_k/k.

    Memoised by order; the returned array is read-only, so callers share it.
    """
    c = integral(phi_series(order)[1:])
    c.flags.writeable = False
    return c


def _horner(coeffs: list[complex], z: complex) -> complex:
    y = 0j
    for c in reversed(coeffs):
        y = y * z + c
    return y


def g_eval(z: complex) -> complex:
    """The primitive g on the closed unit disk, by its order-G_ORDER series."""
    z = complex(z)
    if not abs(z) <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError("g_eval is specified on the closed unit disk")
    c = g_series(G_ORDER).tolist()
    full = _horner(c, z)
    # The tail guard: the 16 terms below G_ORDER weigh about 1e-14 on the disk.
    if abs(full - _horner(c[:G_ORDER - 15], z)) >= 1e-10:
        raise RuntimeError("series tail of g exceeds 1e-10")
    return full
