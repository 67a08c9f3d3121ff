"""Consolidated discrepancy report: computed values versus published values.

Each row compares one reconstructed constant to the decimal printed in the
source material, at a per-constant tolerance.  ``status`` is ``match`` when
the absolute difference is inside the tolerance, ``mismatch`` when it is
not, and ``paper-internal-conflict`` when the source material disagrees
with itself about the quantity (in which case no tolerance can save it).

Every row also carries the status the workbench *expects* from the
reconstruction; a report whose rows all carry their expected status is a
passing verification run even though some rows are expected mismatches.
The published values, tolerances, expected statuses and notes are the
entries of :data:`secstar.published.PUBLISHED`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caratheodory import (SchurPoint, caratheodory_from_schur,
                           caratheodory_from_schur_printed,
                           coefficients_from_prefix, toeplitz_min_eigenvalue)
from .extremal import build_extremal
from .functionals import hankel_h31, modulus
from .generator import phi_global_bounds
from .objectives import h3_bound_surface, maximize_box
from .published import CONFLICT, MATCH, MISMATCH, PUBLISHED
from .radii import inclusion_constants, solve_radius, stp_constant
from .subordination import (gamma_constants, misc_constants, parabola_b0,
                            subordination_threshold)
from .validation import DEFAULT_SEED, SearchConfig, run_search

__all__ = ["DiscrepancyEntry", "discrepancy_report", "report_ok",
           "MATCH", "MISMATCH", "CONFLICT"]


@dataclass(frozen=True)
class DiscrepancyEntry:
    constant_name: str
    paper_value: float
    computed_value: float
    abs_diff: float
    status: str
    tolerance: float
    expected_status: str
    note: str = ""


def _entry(name: str, computed: float) -> DiscrepancyEntry:
    paper, tol, expected, note = PUBLISHED[name]
    diff = abs(computed - paper)
    if expected == CONFLICT:
        status = CONFLICT
    else:
        status = MATCH if diff <= tol else MISMATCH
    return DiscrepancyEntry(constant_name=name, paper_value=paper,
                            computed_value=computed, abs_diff=diff,
                            status=status, tolerance=tol,
                            expected_status=expected, note=note)


def _schur_draw(count: int, seed: int) -> tuple[np.ndarray, ...]:
    """Arrays (p, gamma, eta, rho) of ``count`` random points: p uniform on
    [0, 2), and gamma, eta and rho uniform on the closed unit disk, drawn by
    rejection from the square."""
    rng = np.random.default_rng(seed)
    p = 2.0 * rng.random(count)
    disk = np.empty(0, dtype=np.complex128)
    while disk.size < 3 * count:
        x, y = rng.uniform(-1.0, 1.0, (2, 4 * count))  # pi/4 of them land
        disk = np.append(disk, (x + 1j * y)[np.hypot(x, y) <= 1.0])
    gamma, eta, rho = disk[:3 * count].reshape(3, count)
    return p, gamma, eta, rho


def _schur_margins(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """|H3(1)| and its cuboid majorant at the points of :func:`_schur_draw`,
    in one array pass."""
    p, gamma, eta, rho = _schur_draw(count, seed)
    a2, a3, a4, a5 = coefficients_from_prefix(
        *caratheodory_from_schur((p, gamma, eta, rho)))
    return (modulus(hankel_h31(a2, a3, a4, a5)),
            h3_bound_surface((p, modulus(gamma), modulus(eta))))


def _schur_domination_violation(count: int, seed: int) -> float:
    """max over random admissible points of (|H3(1)| - majorant)^+ ."""
    h3, bound = _schur_margins(count, seed)
    return float(np.max(h3 - bound, initial=0.0))


def discrepancy_report(search_count: int = 2000,
                       seed: int = DEFAULT_SEED) -> list[DiscrepancyEntry]:
    """One row per entry of :data:`PUBLISHED`, in its order."""
    bounds = phi_global_bounds(8192)
    gam = gamma_constants()
    t0, a0 = stp_constant(8192)
    par = parabola_b0()
    summary = run_search(SearchConfig(count=search_count, seed=seed,
                                      check_containment=False))
    misc = misc_constants()
    # The printed parametrization's canonical counterexample.
    printed = caratheodory_from_schur_printed(
        SchurPoint(p=0.0, gamma=0.0, eta=1.0, rho=1.0))
    computed = {
        "gamma0": bounds.im_abs_max,
        "gamma1": gam["gamma1"].computed,
        "gamma2": gam["gamma2"].computed,
        "im_g_i": gam["im_g_i"].computed,
        "stp_a0": a0,
        "stp_theta0": t0,
        "parabola_min_value": par.min_value,
        "parabola_theta": par.theta_min,
        "parabola_b0": par.b0,
        "parabola_global_min": par.global_min_value,
        "convexity_radius": solve_radius("convexity", 0.0).r,
        "kst_threshold": inclusion_constants().kst_threshold,
        "a5_extremal": build_extremal(2, 8).a(5).real,
        "a5_bound_empirical": summary.max_abs_a5,
        "h2_member_max": summary.max_abs_h22,
        "h3_member_max": summary.max_abs_h31,
        "h2_reduced_poly_max": maximize_box("g_h2_reduced")[1],
        "h3_majorant_domination_violation": _schur_domination_violation(2000, seed),
        "p4_printed_rho_factor_eig": toeplitz_min_eigenvalue(printed, 5),
        "exp_threshold": subordination_threshold("exp"),
        "cardioid_threshold": subordination_threshold("cardioid"),
        "cardioid_label_gamma2": gam["gamma2"].computed,
        "sine_threshold": subordination_threshold("sine"),
        "logderiv_circle_min": misc["logderiv_min"],
        "circle_cos_min": misc["circle_cos_min"],
        "circle_sin_max": misc["circle_sin_max"],
    }
    return [_entry(name, computed[name]) for name in PUBLISHED]


def report_ok(rows: list[DiscrepancyEntry]) -> bool:
    """True when every row carries its expected status."""
    return all(r.status == r.expected_status for r in rows)
