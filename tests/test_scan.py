"""scan.golden_max's stop rules: a bracket TOL wide, and MAX_ITER steps."""

import math

import pytest

from secstar import scan
from secstar.scan import golden_max


def search(f, lo, hi):
    """golden_max(f, lo, hi) and the points at which it evaluated f."""
    points = []

    def counted(x):
        points.append(x)
        return f(x)
    return golden_max(counted, lo, hi), points


@pytest.mark.parametrize("lo,hi", [(0.3, 0.3), (0.3, 0.3 + 5e-13),
                                   (1.0, math.nextafter(1.0, 2.0)), (-2.0, -2.0 - 1e-3)])
def test_bracket_narrower_than_tol_makes_two_evaluations(lo, hi):
    (x, v), points = search(math.sin, lo, hi)
    assert len(points) == 2
    # The better of the two interior points, the first on a tie.
    c, d = points
    assert (x, v) == ((c, math.sin(c)) if math.sin(c) >= math.sin(d) else (d, math.sin(d)))


@pytest.mark.parametrize("lo,hi", [(-1e40, 1e40), (math.nan, 1.0), (0.0, math.inf)])
def test_bracket_that_runs_to_max_iter(lo, hi):
    _, points = search(lambda x: -x * x, lo, hi)
    assert len(points) == 2 + scan.MAX_ITER


@pytest.mark.parametrize("max_iter", [0, 1, 4, 5, 13])
def test_max_iter_caps_the_steps(monkeypatch, max_iter):
    monkeypatch.setattr(scan, "MAX_ITER", max_iter)
    (x, v), points = search(lambda x: math.cos(3 * x), 0.0, 2.0)
    assert len(points) == 2 + max_iter
    assert x in points and v == math.cos(3 * x)
