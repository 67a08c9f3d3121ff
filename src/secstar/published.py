"""The values the source material prints, one entry per report row.

``PUBLISHED`` maps each row name of the discrepancy report, in report
order, to ``(value, tolerance, expected status, note)``.  The report, the
``constants`` command and the gamma constants all read their published
values here, so each printed decimal is written exactly once.

This module imports nothing from the package: ``subordination`` needs the
gamma decimals, and ``report`` imports ``subordination``.
"""

from __future__ import annotations

import math

__all__ = ["MATCH", "MISMATCH", "CONFLICT", "PUBLISHED"]

#: The computed value lies within the row's tolerance of the published one.
MATCH = "match"
#: The computed value lies outside the tolerance.
MISMATCH = "mismatch"
#: The source material disagrees with itself; no tolerance applies.
CONFLICT = "paper-internal-conflict"

_PARTIAL_SUM = "published decimal is the degree-7 partial sum of the series of g"

PUBLISHED: dict[str, tuple[float, float, str, str]] = {
    # Image-domain bounds.
    "gamma0": (1.6471, 1e-3, MATCH, ""),
    # Constants of the primitive g.  The published gamma1/gamma2/Im g(i)
    # decimals all equal the degree-7 partial sum of the series of g, not
    # the integral; the honest quadrature values land well outside the
    # tight tolerances, so these rows are expected mismatches.
    "gamma1": (-0.904233, 1e-4, MISMATCH, _PARTIAL_SUM),
    "gamma2": (1.53664, 1e-4, MISMATCH, _PARTIAL_SUM),
    "im_g_i": (0.862897, 1e-4, MISMATCH, "closed form gd(1) = 0.8657694832..."),
    # Parabolic inclusion constant.
    "stp_a0": (0.402301, 1e-3, MATCH, ""),
    "stp_theta0": (0.665124, 1e-3, MATCH, ""),
    # Parabolic containment threshold (m = 1).
    "parabola_min_value": (-0.988408, 2e-3, MATCH, "off-axis stationary minimum"),
    "parabola_theta": (-2.47734, 1e-3, MATCH, ""),
    "parabola_b0": (-0.005796, 1e-4, MATCH, ""),
    "parabola_global_min": (
        -0.988408, 2e-3, CONFLICT,
        "objective dips to ~-11.52 at theta = 0, where the tested point lies "
        "inside every admissible parabola; the published minimum is only local"),
    # Radii.
    "convexity_radius": (0.454, 5e-3, MISMATCH,
                         "computed root of the displayed equation"),
    # Inclusion constants.
    "kst_threshold": (1.37016, 1e-4, MATCH, ""),
    # Extremal coefficient conflicts.
    "a5_extremal": (
        35.0 / 96.0, 1e-9, CONFLICT,
        "recurrence and integral lift give 5/12; the printed 35/96 disagrees, "
        "and both exceed the claimed bound 1/3"),
    # Random-search extremes.
    "a5_bound_empirical": (1.0 / 3.0, 1e-9, CONFLICT,
                           "sharp family maximum exceeds the claimed bound"),
    "h2_member_max": (0.25, 1e-9, MATCH, ""),
    "h3_member_max": (1.0 / 9.0, 1e-9, MATCH, ""),
    # Proof-surface anomalies.
    "h2_reduced_poly_max": (
        0.25, 1e-9, CONFLICT,
        "the displayed polynomial peaks at p = 2 with value 17/48, not at p = 0"),
    "h3_majorant_domination_violation": (
        0.0, 1e-9, MATCH,
        "(|H3| - majorant)^+ over admissible prefixes; zero means the cuboid "
        "surface dominates"),
    "p4_printed_rho_factor_eig": (
        0.0, 1e-9, CONFLICT,
        "the coefficient parametrization as printed carries (1-|gamma|^2) on "
        "the rho summand and then admits the prefix (0,0,2,2), whose moment "
        "matrix has a negative eigenvalue; the factor must be (1-|eta|^2), "
        "which is also what the determinant expansion downstream actually uses"),
    # Subordination thresholds (all inherit the gamma truncation error).
    "exp_threshold": (1.4308, 1e-4, MISMATCH, ""),
    "cardioid_threshold": (2.45796, 1e-4, MISMATCH, ""),
    "cardioid_label_gamma2": (
        2.45796, 1e-4, CONFLICT,
        "the threshold is labeled gamma2 in the source although gamma2 = g(1) "
        "~ 1.55; the proof's quantity is -e*gamma1"),
    "sine_threshold": (1.82614, 1e-4, MISMATCH, ""),
    # Circle constants behind the sufficiency proofs.
    "logderiv_circle_min": (
        0.5 + 1.0 / math.cosh(2.0), 1e-6, CONFLICT,
        "claimed proof identity forces 1/2 + sech 2; the true circle minimum "
        "is 1/2 - tanh 1"),
    "circle_cos_min": (math.cos(1.0), 1e-9, MATCH, ""),
    "circle_sin_max": (math.sinh(1.0), 1e-9, MATCH, ""),
}
