"""Numerical workbench for the starlike class generated by (1+z)/cos z.

Reconstructs every formula, extremal function, functional bound, radius and
constant attached to the class, and reports discrepancies between computed
values and the decimals quoted in the source material.
"""

from .series import PowerSeries, elementary, exp_integral_lift
from .generator import (CircleSample, ImageRegion, PhiBounds, g_eval, g_series,
                        phi_eval, phi_global_bounds, phi_series,
                        radial_real_range, sample_circle)
from .extremal import (ClassMember, build_extremal, distortion_envelope,
                       growth_envelope, rotation_bound)
from .caratheodory import (HerglotzMeasure, SchurPoint, caratheodory_from_schur,
                           caratheodory_from_schur_printed, coefficients_from_prefix,
                           member_from_measure,
                           measure_equal_atoms, measure_single_atom,
                           p_series_from_measure, sample_measure,
                           toeplitz_psd_check)
from .functionals import (FunctionalReport, an_bound, coefficient_sum_margin,
                          compute_report, convolution_margin, fs_bound,
                          sufficient_coefficient_check)
from .objectives import (BoxPoint, h2_bound_surface, h2_reduced_polynomial,
                         h3_bound_surface, maximize_box)
from .radii import (InclusionConstants, RootResult, ellipse_parameters,
                    inclusion_constants, solve_radius, stp_constant)
from .subordination import (ParabolaResult, ThresholdReport, gamma_constants,
                            gudermannian, janowski_threshold, misc_constants,
                            parabola_b0, subordination_threshold)
from .report import DiscrepancyEntry, discrepancy_report, report_ok
from .validation import SearchConfig, SearchSummary, run_search

__version__ = "0.1.0"
