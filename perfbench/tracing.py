"""Span tracing of secstar's public functions, installed from outside the package.

Each wrapped call records a span ``[name, start, end, parent, tag]``: the
parent is the index of the innermost traced call that was running when it
started, and ``tag`` carries what the layer metrics need from the call's
arguments or result (the objective name, the number of points queried, the
iteration count, ...).  Spans stay in memory until the run ends.

secstar modules import each other's names directly (``validation`` imports
``member_from_measure``, ``objectives`` imports scipy's ``minimize``), so a
wrapper replaces the original in every ``secstar`` module that holds it, not
only in the module that defines it.  A target that no longer exists is
skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

OBJECTIVE_NAMES = ("g_h3", "g_h2", "g_h2_reduced", "h1", "h2", "h3", "h4",
                   "h5", "k1", "k2", "k4", "k5", "k6")
SUBCOMMANDS = ("coeffs", "phi", "extremal", "sample", "functionals",
               "optimize", "radius", "constants", "convolution-check",
               "report")


def _objective_tag(args, kwargs, result):
    return args[0] if args else kwargs.get("objective")


def _points_tag(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["ws"]))


def _iterations_tag(args, kwargs, result):
    return None if result is None else int(result.iterations)


def _bytes_tag(args, kwargs, result):
    return None if result is None else len(result.encode())


# (module, attribute, tag function); the span name is "module.attribute".
TARGETS = (
    ("caratheodory", "member_from_measure", None),
    ("caratheodory", "sample_measure", None),
    ("caratheodory", "log_derivative_on_circle", None),
    ("series", "PowerSeries.compose", None),
    ("series", "PowerSeries.__truediv__", None),
    ("series", "exp_integral_lift", None),
    ("generator", "phi_series", None),
    ("generator", "ImageRegion.__init__", None),
    ("generator", "ImageRegion.contains_batch", _points_tag),
    ("generator", "ImageRegion.winding_number", None),
    ("generator", "g_eval", None),
    ("generator", "phi_global_bounds", None),
    ("functionals", "compute_report", None),
    ("functionals", "convolution_margin", None),
    ("functionals", "sufficient_coefficient_check", None),
    ("objectives", "maximize_box", _objective_tag),
    ("objectives", "minimize", None),  # scipy's Nelder-Mead, as objectives sees it
    ("scan", "refine_max", None),
    ("scan", "refine_min", None),
    ("scan", "golden_max", None),
    ("scan", "local_minima", None),
    ("extremal", "build_extremal", None),
    ("extremal", "growth_envelope", None),
    ("extremal", "distortion_envelope", None),
    ("extremal", "rotation_bound", None),
    ("radii", "solve_radius", _iterations_tag),
    ("radii", "stp_constant", None),
    ("subordination", "gamma_constants", None),
    ("subordination", "parabola_b0", None),
    ("subordination", "misc_constants", None),
    ("validation", "run_search", None),
    ("report", "discrepancy_report", None),
    ("serialize", "canonical_json", _bytes_tag),
)


class Tracer:
    """Installs span-recording wrappers around :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # maximize_box span index -> value of the best grid node, read off
        # the first Nelder-Mead start (the starts are sorted best first).
        self.best_node: dict[int, float] = {}

    def _wrap(self, fn, name, tag_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nelder_mead = name == "objectives.minimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                # Tagged on failure too (result None), so that a call that
                # raises still counts towards its objective.
                if nelder_mead and result is not None:
                    if parent >= 0 and parent not in self.best_node:
                        self.best_node[parent] = -float(args[0](args[1]))
                    span[4] = (int(result.nfev), -float(result.fun))
                elif tag_fn is not None:
                    span[4] = tag_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names of missing ones."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "secstar" or n.startswith("secstar."))]
        missing = []
        for mod_name, attr, tag_fn in TARGETS:
            try:
                owner = importlib.import_module(f"secstar.{mod_name}")
            except ImportError:
                missing.append(f"{mod_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, f"{mod_name}.{attr}", tag_fn)
            holders = [owner] if path else [
                m for m in modules if vars(m).get(leaf) is original]
            for holder in holders:
                self._restore.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)
        return missing

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()

    def export(self) -> list[list]:
        """Spans with the Nelder-Mead start values folded into the tags."""
        out = []
        for name, t0, t1, parent, tag in self.spans:
            if name == "objectives.minimize" and tag is not None:
                tag = [tag[0], tag[1], self.best_node.get(parent, math.inf)]
            elif name == "objectives.maximize_box" and tag is not None:
                tag = str(tag)
            out.append([name, t0, t1, parent, tag])
        return out


def _grid_points(objective: str) -> int:
    """Nodes of maximize_box's default grid for the objective; 0 if unknown."""
    try:
        objectives = importlib.import_module("secstar.objectives")
        return math.prod(objectives._default_grid(len(objectives.OBJECTIVES[objective][1])))
    except (ImportError, AttributeError, KeyError):
        return 0


class LayerStats:
    """Aggregates exported spans of one or more processes into layer metrics."""

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.max_call: dict[str, float] = {}
        self.objective_busy: dict[str, float] = {}
        self.points = 0
        self.winding_in_batch = 0
        self.iterations = 0
        self.nm_nfev = 0
        self.nm_wins = 0
        self.grid_points = 0
        self.json_bytes = 0
        self.gamma_in_report = 0

    def add(self, spans: list[list]) -> None:
        names = [s[0] for s in spans]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, tag in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, tag) in enumerate(spans):
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.max_call[name] = max(self.max_call.get(name, 0.0), dur)
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(names[p])
                p = spans[p][3]
            if name not in ancestors:  # count recursion once
                self.busy[name] = self.busy.get(name, 0.0) + dur
            if name == "generator.ImageRegion.contains_batch":
                self.points += tag or 0
            elif name == "generator.ImageRegion.winding_number":
                if parent >= 0 and names[parent] == "generator.ImageRegion.contains_batch":
                    self.winding_in_batch += 1
            elif name == "radii.solve_radius" and tag is not None:
                self.iterations += tag
            elif name == "objectives.minimize" and tag is not None:
                nfev, refined, best_node = tag
                self.nm_nfev += nfev
                self.nm_wins += refined > best_node
            elif name == "objectives.maximize_box" and tag is not None:
                self.objective_busy[tag] = self.objective_busy.get(tag, 0.0) + dur
                self.grid_points += _grid_points(tag)
            elif name == "serialize.canonical_json" and tag is not None:
                self.json_bytes += tag
            elif name == "subordination.gamma_constants":
                if "report.discrepancy_report" in ancestors:
                    self.gamma_in_report += 1

    def metrics(self, rounds: int) -> dict[str, float]:
        """Layer metrics per round of the workload (ratios over the whole run)."""
        per = 1.0 / max(rounds, 1)
        busy = lambda n: self.busy.get(n, 0.0) * per
        calls = lambda n: self.calls.get(n, 0) * per
        ratio = lambda a, b: a / b if b else 0.0
        m: dict[str, float] = {}
        for name in ("caratheodory.member_from_measure",
                     "caratheodory.sample_measure",
                     "caratheodory.log_derivative_on_circle"):
            m[f"{name}.busy_s"] = busy(name)
        for name in ("series.PowerSeries.compose", "series.PowerSeries.__truediv__",
                     "series.exp_integral_lift"):
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.calls"] = calls(name)
        m["generator.phi_series.calls_per_member"] = ratio(
            self.calls.get("generator.phi_series", 0),
            self.calls.get("caratheodory.member_from_measure", 0))
        m["generator.phi_series.busy_s"] = busy("generator.phi_series")
        m["generator.ImageRegion.contains_batch.busy_s"] = busy(
            "generator.ImageRegion.contains_batch")
        m["generator.ImageRegion.points"] = self.points * per
        fallbacks = ratio(self.winding_in_batch, self.points)
        m["generator.ImageRegion.screen_hit_ratio"] = 1.0 - fallbacks if self.points else 0.0
        m["generator.ImageRegion.winding_fallbacks_per_point"] = fallbacks
        m["generator.ImageRegion.init_s"] = busy("generator.ImageRegion.__init__")
        m["generator.g_eval.calls"] = calls("generator.g_eval")
        m["generator.g_eval.busy_s"] = busy("generator.g_eval")
        m["generator.phi_global_bounds.busy_s"] = busy("generator.phi_global_bounds")
        m["functionals.compute_report.busy_s"] = busy("functionals.compute_report")
        m["functionals.convolution_margin.busy_s"] = busy("functionals.convolution_margin")
        m["functionals.convolution_margin.calls"] = calls("functionals.convolution_margin")
        m["functionals.convolution_margin.max_call_s"] = self.max_call.get(
            "functionals.convolution_margin", 0.0)
        m["functionals.sufficient_coefficient_check.busy_s"] = busy(
            "functionals.sufficient_coefficient_check")
        m["objectives.maximize_box.busy_s"] = busy("objectives.maximize_box")
        for obj in OBJECTIVE_NAMES:
            m[f"objectives.maximize_box.{obj}.busy_s"] = self.objective_busy.get(obj, 0.0) * per
        m["objectives.grid_points"] = self.grid_points * per
        nm = self.calls.get("objectives.minimize", 0)
        m["objectives.nelder_mead.calls"] = nm * per
        m["objectives.nelder_mead.nfev"] = self.nm_nfev * per
        m["objectives.nelder_mead.busy_s"] = busy("objectives.minimize")
        m["objectives.nelder_mead.nfev_per_maximize"] = ratio(
            self.nm_nfev, self.calls.get("objectives.maximize_box", 0))
        m["objectives.refine_win_ratio"] = ratio(self.nm_wins, nm)
        m["scan.refine_max.calls"] = calls("scan.refine_max")
        m["scan.refine_max.busy_s"] = busy("scan.refine_max")
        m["scan.refine_min.busy_s"] = busy("scan.refine_min")
        m["scan.golden_max.calls"] = calls("scan.golden_max")
        m["scan.local_minima.busy_s"] = busy("scan.local_minima")
        for name in ("build_extremal", "growth_envelope", "distortion_envelope",
                     "rotation_bound"):
            m[f"extremal.{name}.busy_s"] = busy(f"extremal.{name}")
        m["radii.solve_radius.busy_s"] = busy("radii.solve_radius")
        m["radii.solve_radius.iterations"] = self.iterations * per
        m["radii.stp_constant.busy_s"] = busy("radii.stp_constant")
        m["subordination.gamma_constants.calls_per_report"] = ratio(
            self.gamma_in_report, self.calls.get("report.discrepancy_report", 0))
        for name in ("gamma_constants", "parabola_b0", "misc_constants"):
            m[f"subordination.{name}.busy_s"] = busy(f"subordination.{name}")
        for name in ("validation.run_search", "report.discrepancy_report"):
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.self_s"] = self.self_time.get(name, 0.0) * per
        m["serialize.canonical_json.busy_s"] = busy("serialize.canonical_json")
        m["serialize.canonical_json.bytes"] = self.json_bytes * per
        return m
