"""Numerical workbench for the starlike class generated by (1+z)/cos z.

Reconstructs every formula, extremal function, functional bound, radius and
constant attached to the class, and reports discrepancies between computed
values and the decimals quoted in the source material.

The names below load their module on first use (PEP 562), so ``import
secstar`` loads no submodule and a command runs only the modules it needs.
Each access reads the name from its defining module, so a name replaced
there (by a test's monkeypatch or a tracer) is what ``secstar.<name>`` gives.
"""

import importlib

_EXPORTS = {
    "series": ("elementary",),
    "generator": ("CircleSample", "ImageRegion", "PhiBounds", "g_eval", "g_series",
                  "image_region", "phi_eval", "phi_global_bounds", "phi_series",
                  "radial_real_range", "sample_circle"),
    "extremal": ("ClassMember", "build_extremal", "distortion_envelope",
                 "growth_envelope", "rotation_bound"),
    "caratheodory": ("HerglotzMeasure", "SchurPoint", "caratheodory_from_schur",
                     "caratheodory_from_schur_printed", "coefficients_from_prefix",
                     "member_from_measure", "measure_equal_atoms",
                     "measure_single_atom", "sample_measure", "sample_rows",
                     "toeplitz_psd_check"),
    "functionals": ("FunctionalReport", "an_bound", "coefficient_sum_margin",
                    "compute_report", "convolution_margin", "fs_bound",
                    "sufficient_coefficient_check"),
    "objectives": ("BoxPoint", "h2_bound_surface", "h2_reduced_polynomial",
                   "h3_bound_surface", "maximize_box"),
    "radii": ("InclusionConstants", "RootResult", "ellipse_parameters",
              "inclusion_constants", "solve_radius", "stp_constant"),
    "subordination": ("ParabolaResult", "ThresholdReport", "gamma_constants",
                      "gudermannian", "janowski_threshold", "misc_constants",
                      "parabola_b0", "subordination_threshold"),
    "report": ("DiscrepancyEntry", "discrepancy_report", "report_ok"),
    "validation": ("SearchConfig", "SearchSummary", "run_search"),
}

#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "published", "scan", "serialize"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Deliberately not cached in this namespace: see the module docstring.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
