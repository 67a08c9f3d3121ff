"""Coefficient functionals, their sharp-bound flags, and convolution margins.

For a normalized member with coefficients a_n the quantities of interest are

    H2(2) = a2 a4 - a3^2
    H3(1) = a3 (a2 a4 - a3^2) - a4 (a4 - a2 a3) + a5 (a3 - a2^2)
    T2,1  = 1 - |a2|^2
    T3,1  = 1 - 2 |a2|^2 + 2 Re(a2^2 conj(a3)) - |a3|^2
    |a3 - mu a2^2|            (Fekete-Szego, for real mu)

plus the weighted coefficient-sum margin with k1 = cos^2 1 and the
convolution nonvanishing margin that characterizes class membership.

The functionals and their flags are written once, elementwise on arrays:
:func:`functional_columns` evaluates them for a ``(B, N+1)`` batch of
coefficient rows, and :func:`compute_report` is its view for one member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .extremal import ClassMember
from .generator import RE_MAX, _phi_values
from .series import derivative

__all__ = [
    "SHARP_BOUNDS",
    "FunctionalReport",
    "FunctionalColumns",
    "functional_columns",
    "modulus",
    "compute_report",
    "fs_bound",
    "coefficient_sum_margin",
    "an_bound",
    "convolution_margin",
    "sufficient_coefficient_check",
]

K1 = math.cos(1.0) ** 2

#: Sharp bounds reported in the source material.  |a5| <= 1/3 is quoted but
#: is exceeded by the principal extremal itself (a5 = 5/12); its flag,
#: REPORTED_ONLY, is reported, never enforced.
SHARP_BOUNDS = {
    "a2": 1.0,
    "a3": 0.75,
    "a4": 7.0 / 12.0,
    "a5": 1.0 / 3.0,
    "h22": 0.25,
    "h31": 1.0 / 9.0,
}
REPORTED_ONLY = "a5_le_third"

_BOUND_SLACK = 1e-9
#: The mu values of the Fekete-Szego functional |a3 - mu a2^2|.
FS_MUS = (0.0, 0.25, 0.5, 1.0, 1.25, 2.0)
#: Default theta grid of convolution_margin, and the fixed one of
#: sufficient_coefficient_check.
THETA_SAMPLES = 720
#: Outer radius of the z grid of convolution_margin.
MAX_RADIUS = 0.99
#: Consecutive theta rows per superblock of the grid search.
SUPERBLOCK_ROWS = 56
#: Cells per chunk of the grid search's row screen.
SCREEN_CELLS = 4096


@dataclass(frozen=True)
class FunctionalReport:
    a2: complex
    a3: complex
    a4: complex
    a5: complex
    h22: complex
    h31: complex
    t21: float
    t31: float
    fs: dict[float, float]
    coeff_sum_margin: float
    convolution_margin: float | None
    flags: dict[str, bool] = field(default_factory=dict)

    def enforced_flags_pass(self) -> bool:
        """All flags except the reported-only |a5| claim."""
        return all(ok for name, ok in self.flags.items() if name != REPORTED_ONLY)


def hankel_h22(a2, a3, a4) -> complex:
    return a2 * a4 - a3 * a3


def hankel_h31(a2, a3, a4, a5) -> complex:
    return a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2 * a2)


def modulus(z):
    """|z| elementwise through hypot, which matches ``abs`` on a Python
    complex; ``np.abs`` on complex arrays can be an ulp off (|e^{it}| may
    come out as 1 + 2^-52)."""
    return np.hypot(np.real(z), np.imag(z))


def toeplitz_t21(a2):
    return 1.0 - modulus(a2) ** 2


def toeplitz_t31(a2, a3):
    return (1.0 - 2.0 * modulus(a2) ** 2 + 2.0 * (a2 * a2 * np.conj(a3)).real
            - modulus(a3) ** 2)


def fs_bound(mu: float) -> float:
    """Sharp Fekete-Szego bound: piecewise linear with plateau 1/2 on [1/4, 5/4]."""
    if mu < 0.25:
        return -mu + 0.75
    if mu <= 1.25:
        return 0.5
    return mu - 0.75


@dataclass(frozen=True)
class FunctionalColumns:
    """Functionals and flags of a batch of members, one array entry per member."""

    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    a5: np.ndarray
    h22: np.ndarray
    h31: np.ndarray
    t21: np.ndarray
    t31: np.ndarray
    fs: dict[float, np.ndarray]
    coeff_sum_margin: np.ndarray
    flags: dict[str, np.ndarray]

    def report(self, i: int, convolution: float | None = None) -> FunctionalReport:
        """The report of member i, with the given convolution margin, in the
        Python numbers that ``.item()`` gives and ``serialize`` prints."""
        def at(col):
            if isinstance(col, dict):
                return {key: v[i].item() for key, v in col.items()}
            return col[i].item()
        return FunctionalReport(convolution_margin=convolution,
                                **{f.name: at(getattr(self, f.name)) for f in fields(self)})


def _sum_margin_rows(coeffs: np.ndarray) -> np.ndarray:
    n = np.arange(2, coeffs.shape[1])
    return (4.0 - K1) - ((n * n * K1 - 4.0) * modulus(coeffs[:, 2:]) ** 2).sum(axis=1)


def functional_columns(coeffs: np.ndarray) -> FunctionalColumns:
    """All coefficient functionals of a (B, N+1) batch of members, with flags."""
    if coeffs.shape[1] < 6:
        raise ValueError("need coefficients through a5 (order >= 5)")
    a2, a3, a4, a5 = (coeffs[:, n] for n in range(2, 6))
    h22 = hankel_h22(a2, a3, a4)
    h31 = hankel_h31(a2, a3, a4, a5)
    t21 = toeplitz_t21(a2)
    t31 = toeplitz_t31(a2, a3)
    tol = _BOUND_SLACK
    flags = {
        "a2_le_1": modulus(a2) <= SHARP_BOUNDS["a2"] + tol,
        "a3_le_3_4": modulus(a3) <= SHARP_BOUNDS["a3"] + tol,
        "a4_le_7_12": modulus(a4) <= SHARP_BOUNDS["a4"] + tol,
        REPORTED_ONLY: modulus(a5) <= SHARP_BOUNDS["a5"] + tol,
        "h22_le_quarter": modulus(h22) <= SHARP_BOUNDS["h22"] + tol,
        "h31_le_ninth": modulus(h31) <= SHARP_BOUNDS["h31"] + tol,
        "t21_in_unit": (-tol <= t21) & (t21 <= 1.0 + tol),
        "t31_in_range": (-1.0 / 15.0 - tol <= t31) & (t31 <= 1.0 + tol),
    }
    return FunctionalColumns(a2=a2, a3=a3, a4=a4, a5=a5, h22=h22, h31=h31,
                             t21=t21, t31=t31,
                             fs={mu: modulus(a3 - mu * a2 * a2) for mu in FS_MUS},
                             coeff_sum_margin=_sum_margin_rows(coeffs),
                             flags=flags)


def compute_report(member: ClassMember, convolution: bool = False) -> FunctionalReport:
    """All coefficient functionals of one member, with pass/fail flags.

    ``convolution`` switches on the (grid-based, comparatively expensive)
    convolution margin; when off the field is None.
    """
    cols = functional_columns(member.coeffs[None, :])
    return cols.report(0, convolution_margin(member) if convolution else None)


def coefficient_sum_margin(member: ClassMember) -> float:
    """(4 - k1) - sum_{n>=2} (n^2 k1 - 4) |a_n|^2 over available coefficients.

    The underlying inequality has an infinite sum of mixed signs; a finite
    prefix is indicative, not conclusive, and is labeled by the order used.
    """
    if member.order < 2:
        raise ValueError("need at least a2")
    return float(_sum_margin_rows(member.coeffs[None, :])[0])


def an_bound(n: int) -> float:
    """Corollary bound sqrt((4 - k1)/(n^2 k1 - 4)); defined for n^2 k1 > 4."""
    den = n * n * K1 - 4.0
    if den <= 0:
        raise ValueError(f"corollary inapplicable for n = {n}: n^2 cos^2(1) <= 4")
    return math.sqrt((4.0 - K1) / den)


def _series_on_grid(member: ClassMember,
                    zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(z)/z and f'(z) on the z grid, by Horner's rule on both series."""
    a = member.coeffs
    return np.polyval(a[:0:-1], zs), np.polyval(derivative(a)[::-1], zs)


def _row_values(pt, f_over_z: np.ndarray, df: np.ndarray, row: np.ndarray,
                dst: np.ndarray) -> None:
    """|f'(z) - pt f(z)/z| over the whole z grid into dst (row is scratch).

    Always called at the full grid length, so that every row runs the same
    numpy loops and has the same bits: numpy does not promise that its loops
    for other lengths or strides round alike, and its scalar ``abs`` rounds
    differently (notes/decisions.md, section 22).
    """
    np.multiply(pt, f_over_z, out=row)
    np.subtract(df, row, out=row)
    np.abs(row, out=dst)


def _grid_argmin(member: ClassMember, thetas: np.ndarray,
                 zs: np.ndarray) -> tuple[int, int, float]:
    """(i, j, value) of ``np.argmin`` over the (T, Z) array of the convolution
    expression |f'(z) - phi_t f(z)/z|, phi_t = phi(e^{i theta}), bit for bit,
    without the array; the value is its minimum, a NaN first included.

    Rows are evaluated one at a time into one buffer, and only rows a bound
    cannot rule out.  The thetas are split into superblocks of
    SUPERBLOCK_ROWS consecutive rows, and the phi values of each lie in a
    disk (C, R), so every value of the superblock at z_j is at least
    |df_j - C F_j| - R |F_j|.  One row seeds the least value U found; the
    superblocks are then visited in ascending order of their least bound.
    In each, only the columns whose bound may reach U are kept, each row is
    screened by its values at those columns, and only the rows the screen
    lets through are evaluated in full, lowering U.  Every test keeps a
    rounding slack and passes ties, so a row left out holds only values
    above the minimum (notes/decisions.md, sections 22 and 30).  The least
    row minimum wins, ties going to the lower row, and ``argmin`` takes the
    lowest j within a row: numpy's C-order first occurrence.
    """
    phi_t = _phi_values(np.exp(1j * thetas))
    f_over_z, df = _series_on_grid(member, zs)
    row = np.empty(zs.size, dtype=np.complex128)
    vals = np.empty(zs.size)
    mins = np.full(thetas.size, np.inf)
    args = np.zeros(thetas.size, dtype=np.intp)

    def evaluate(i):
        _row_values(phi_t[i], f_over_z, df, row, vals)
        args[i] = j = np.argmin(vals)
        mins[i] = vals[j]
        return mins[i]

    abs_f = np.abs(f_over_z)
    scale = (float(np.abs(df).max())
             + float(np.abs(phi_t).max()) * float(abs_f.max()))
    # Each product, difference and modulus of a row or bound is below 4.3
    # scale, so a finite 8 scale means every row value and every bound is
    # finite.  Python floats, unlike numpy's, overflow to inf without a
    # warning.
    if not math.isfinite(8.0 * scale):
        for i in range(thetas.size):
            evaluate(i)
    else:
        # The slack covers the rounding of the row values and of the bounds,
        # each a few ulps of scale.
        slack = 1e-12 * scale
        k = SUPERBLOCK_ROWS
        # The phi values of a superblock lie in their bounding box, so in
        # the disk about its centre through its corners.
        starts = np.arange(0, thetas.size, k)
        re_lo, re_hi, im_lo, im_hi = (ufunc.reduceat(part, starts)
                                      for part in (phi_t.real, phi_t.imag)
                                      for ufunc in (np.minimum, np.maximum))
        centers = 0.5 * (re_lo + re_hi) + 0.5j * (im_lo + im_hi)
        radii = 0.5 * np.hypot(re_hi - re_lo, im_hi - im_lo)
        bound = np.empty(zs.size)
        spread = np.empty(zs.size)

        def disk_bound(s):
            np.multiply(centers[s], f_over_z, out=row)
            np.subtract(df, row, out=row)
            np.abs(row, out=bound)
            np.multiply(abs_f, radii[s], out=spread)
            np.subtract(bound, spread, out=bound)

        lows = []
        for s in range(centers.size):
            disk_bound(s)
            lows.append(bound.min() - slack)
        order = sorted(range(centers.size), key=lows.__getitem__)
        # The seed: the row of the best superblock least at its best column.
        disk_bound(order[0])
        j = np.argmin(bound)
        start = order[0] * k
        seed = start + int(np.argmin(np.abs(df[j] - phi_t[start:start + k] * f_over_z[j])))
        least = evaluate(seed)
        for s in order:
            if lows[s] > least:
                break
            start = s * k
            block = phi_t[start:start + k]
            disk_bound(s)
            cols = np.flatnonzero(bound - slack <= least)
            d, f = df[cols], f_over_z[cols]
            step = max(1, SCREEN_CELLS // cols.size)
            screen = np.concatenate([np.abs(d - block[lo:lo + step, None] * f).min(axis=1)
                                     for lo in range(0, block.size, step)]) - slack
            # Least screen first, so that U falls as early as it can.
            for i in np.argsort(screen):
                if screen[i] > least:
                    break
                if start + i != seed:
                    least = min(least, evaluate(start + i))
    i = int(np.argmin(mins))
    return i, int(args[i]), float(mins[i])


def convolution_margin(member: ClassMember, theta_samples: int = THETA_SAMPLES,
                       z_radii: int = 24, z_angles: int = 96) -> float:
    """Infimum of the convolution nonvanishing expression over a theta x z grid.

    A positive margin is consistent with class membership; a near-zero or
    negative value flags a violation.  The grid minimum is found row by row
    (:func:`_grid_argmin`), evaluating only the theta rows that a bound
    cannot rule out, so memory does not grow with ``theta_samples``; it is
    the cell and value numpy's ``argmin`` gives over the whole grid.  One
    refinement pass, searched the same way, shrinks the grid around the
    minimizing cell.
    """
    if theta_samples < 360:
        raise ValueError("need at least 360 theta samples")
    if z_radii < 2 or z_angles < 2:
        raise ValueError("need at least 2 z radii and 2 z angles")
    thetas = np.linspace(-math.pi, math.pi, theta_samples, endpoint=False)
    radii = np.linspace(MAX_RADIUS / z_radii, MAX_RADIUS, z_radii)
    angles = np.linspace(-math.pi, math.pi, z_angles, endpoint=False)
    zs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    i, j, best = _grid_argmin(member, thetas, zs)

    # One local refinement around the minimizing (theta, z) cell.
    dt = 2.0 * math.pi / theta_samples
    t_ref = np.linspace(thetas[i] - dt, thetas[i] + dt, 17)
    z0 = zs[j]
    dr = MAX_RADIUS / z_radii
    da = 2.0 * math.pi / z_angles
    rr = np.linspace(max(abs(z0) - dr, 1e-6), min(abs(z0) + dr, MAX_RADIUS), 9)
    aa = np.angle(z0) + np.linspace(-da, da, 17)
    z_ref = (rr[:, None] * np.exp(1j * aa)[None, :]).ravel()
    return min(best, _grid_argmin(member, t_ref, z_ref)[2])


def sufficient_coefficient_check(member: ClassMember) -> tuple[bool, float]:
    """Coefficient-sum sufficient condition; returns (satisfied, worst value).

    The condition demands sum_n |n - phi(e^{i theta})| |a_n| + M < 1 with
    M = 4 cos 1 / (1 + cos 2) ~ 3.7, so it is unsatisfiable for every member;
    the worst (largest) grid value is reported alongside.
    """
    thetas = np.linspace(-math.pi, math.pi, THETA_SAMPLES, endpoint=False)
    phi_t = _phi_values(np.exp(1j * thetas))
    a = member.coeffs
    n = np.arange(2, member.order + 1)
    sums = (np.abs(n - phi_t[:, None]) * np.abs(a[2:])).sum(axis=1)
    worst = float(sums.max()) + RE_MAX
    return worst < 1.0, worst
