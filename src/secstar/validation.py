"""Seeded random-search validation over measure-synthesized members.

Draws deterministic batches of Herglotz measures, synthesizes members,
computes every coefficient functional, and aggregates extremes and flag
failures.  Per-sample seeds are base_seed + index, so any single sample can
be reproduced in isolation and the batch result is independent of execution
order.

Members are synthesized, measured and checked for containment in blocks of
``BLOCK`` (128) members on the batched engine; the block size bounds the
memory a search holds and does not change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .caratheodory import (BLOCK, HerglotzMeasure, log_derivative_rows,
                           measure_equal_atoms, measure_single_atom,
                           member_rows, pack_measures, sample_measure)
from .functionals import FunctionalColumns, functional_columns, modulus
from .generator import ImageRegion

__all__ = ["SearchConfig", "SearchSummary", "designated_measures", "run_search"]

DEFAULT_SEED = 0xC0FFEE

# The containment check: w = z f'/f at CONTAINMENT_POINTS points of the
# circle |z| = CONTAINMENT_RADIUS, each tested against the image region's
# boundary polygon, with BOUNDARY_TOL slack for points outside it.
CONTAINMENT_RADIUS = 0.95
CONTAINMENT_POINTS = 64
BOUNDARY_TOL = 1e-4


@dataclass(frozen=True)
class SearchConfig:
    count: int = 10_000
    seed: int = DEFAULT_SEED
    order: int = 16
    check_containment: bool = True


@dataclass
class SearchSummary:
    config: SearchConfig
    samples: int = 0
    max_abs_a2: float = 0.0
    max_abs_a3: float = 0.0
    max_abs_a4: float = 0.0
    max_abs_a5: float = 0.0
    max_abs_h22: float = 0.0
    max_abs_h31: float = 0.0
    t21_min: float = math.inf
    t21_max: float = -math.inf
    t31_min: float = math.inf
    flag_failures: dict[str, int] = field(default_factory=dict)
    containment_failures: int = 0

    def record(self, cols: FunctionalColumns) -> None:
        """Fold a block of members into the extremes and failure counts."""
        self.samples += cols.a2.size
        self.max_abs_a2 = max(self.max_abs_a2, float(modulus(cols.a2).max()))
        self.max_abs_a3 = max(self.max_abs_a3, float(modulus(cols.a3).max()))
        self.max_abs_a4 = max(self.max_abs_a4, float(modulus(cols.a4).max()))
        self.max_abs_a5 = max(self.max_abs_a5, float(modulus(cols.a5).max()))
        self.max_abs_h22 = max(self.max_abs_h22, float(modulus(cols.h22).max()))
        self.max_abs_h31 = max(self.max_abs_h31, float(modulus(cols.h31).max()))
        self.t21_min = min(self.t21_min, float(cols.t21.min()))
        self.t21_max = max(self.t21_max, float(cols.t21.max()))
        self.t31_min = min(self.t31_min, float(cols.t31.min()))
        for name, ok in cols.flags.items():
            failed = int(ok.size - np.count_nonzero(ok))
            if failed:
                self.flag_failures[name] = self.flag_failures.get(name, 0) + failed

    def enforced_failures(self) -> dict[str, int]:
        return {k: v for k, v in self.flag_failures.items() if k != "a5_le_third"}


def designated_measures() -> list[HerglotzMeasure]:
    """The measures behind the sharp cases: the principal extremal, its
    rotation, and the two- and three-fold lacunary extremals."""
    return [
        measure_single_atom(0.0),
        measure_single_atom(math.pi),
        measure_equal_atoms(2),
        measure_equal_atoms(3),
    ]


def run_search(config: SearchConfig = SearchConfig()) -> SearchSummary:
    summary = SearchSummary(config=config)
    measures = designated_measures()
    measures.extend(sample_measure(config.seed + i) for i in range(config.count))

    region = ImageRegion() if config.check_containment else None
    for start in range(0, len(measures), BLOCK):
        weights, atoms = pack_measures(measures[start:start + BLOCK])
        summary.record(functional_columns(member_rows(weights, atoms, config.order)))
        if region is not None:
            w = log_derivative_rows(weights, atoms, CONTAINMENT_RADIUS,
                                    CONTAINMENT_POINTS)
            inside = region.contains_batch(w, boundary_tol=BOUNDARY_TOL)
            summary.containment_failures += int(
                (~inside.reshape(w.shape).all(axis=1)).sum())
    return summary
