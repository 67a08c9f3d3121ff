"""The close-call rule of the dense scans (notes/decisions.md, section 25).

A scan given array ``values`` lets an estimate decide a comparison only when
it clears the other side by more than ``scan.SLACK * (1 + |v|)``, and asks the
scalar objective otherwise.  So estimates within half that slack of the
scalar values, with NaN, ±inf or ±0.0 anywhere, must give the result of the
scan without them, bit for bit.  Each production array form must lie well
inside the slack of its scalar form, and the scalar objective must run on
only a few grid nodes.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secstar import radii, scan, subordination
from secstar.extremal import rotation_bound
from secstar.generator import _phi_values, g_eval, phi_eval, phi_global_bounds
from secstar.scan import SLACK, golden_max, local_minima, refine_max, refine_min

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]


def outcome(call):
    """repr of a call's result, or of the exception it raises."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return f"{type(exc).__name__}: {exc}"


@st.composite
def estimates(draw, exact):
    """Array values for ``exact``: each finite value moved by at most
    SLACK/2 * (1 + |v|), and NaN or ±inf written over random nodes."""
    exact = np.array(exact)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A third of the nodes keep their exact value: ties stay ties.
    shift = rng.uniform(-0.5, 0.5, exact.size) * (rng.random(exact.size) < 2 / 3)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isfinite(exact), exact + shift * SLACK * (1.0 + np.abs(exact)),
                       exact)
    for j in draw(st.lists(st.integers(0, exact.size - 1), max_size=4)):
        out[j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return out


# Grid values with ties and plateaus (a few levels), values within the
# slack of each other, and NaN, ±inf and ±0.0.
LEVELS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, 1.0 + 3e-10, 1.0 - 3e-10]),
                   st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))


@st.composite
def scan_case(draw):
    exact = draw(st.lists(LEVELS, min_size=3, max_size=40))
    xs = np.linspace(-1.0, 2.0, len(exact))
    table = dict(zip(xs.tolist(), exact))

    def f(x):
        # Off the grid (golden section) a smooth function of x.
        return table.get(x, math.sin(5.0 * x))
    return f, xs, draw(estimates(exact))


@settings(max_examples=300, deadline=None)
@given(case=scan_case())
def test_refine_max_and_min_with_values_equal_the_scalar_scan(case):
    f, xs, values = case
    for refine in (refine_max, refine_min):
        assert outcome(lambda: refine(f, xs, values)) == outcome(lambda: refine(f, xs))


@settings(max_examples=300, deadline=None)
@given(case=scan_case())
def test_local_minima_with_values_equal_the_scalar_scan(case):
    f, xs, values = case
    assert outcome(lambda: local_minima(f, xs, values)) == outcome(lambda: local_minima(f, xs))


@st.composite
def root_case(draw):
    """A line through [0, 1] (steep, or so flat every node is a close call)
    with special values written over a few of the scan's nodes."""
    slope = draw(st.sampled_from([1.0, -1.0, 1e-12, -3.0]))
    root = draw(st.floats(-0.1, 1.1))
    exact = [slope * (root - x) for x in radii._SCAN_XS]
    for j in draw(st.lists(st.integers(0, radii.SCAN_CELLS), max_size=8)):
        exact[j] = draw(st.sampled_from(SPECIAL + [1e-300, -1e-300, 4e-10, -4e-10]))
    table = dict(zip(radii._SCAN_XS, exact))

    def fn(r):
        return table.get(r, slope * (root - r))
    return fn, draw(estimates(exact))


@settings(max_examples=200, deadline=None)
@given(case=root_case())
def test_bisect_newton_with_values_equals_the_scalar_scan(case):
    fn, values = case
    assert (outcome(lambda: radii._bisect_newton(fn, values))
            == outcome(lambda: radii._bisect_newton(fn)))


# Each array form on its production grid against its scalar form.
MISC = np.linspace(-math.pi, math.pi, subordination.MISC_SAMPLES, endpoint=False)
ARRAY_FORMS = {
    "stp": (radii._stp_objective, np.linspace(0.0, math.pi, 4096 + 2)[1:-1],
            lambda t: np.divide(*radii._stp_terms(t, np))),
    "parabola": (subordination._parabola_objective,
                 np.linspace(-math.pi, math.pi, subordination.PARABOLA_SAMPLES + 2)[1:-1],
                 lambda t: subordination._parabola_objective(t, np)),
    "logderiv": (subordination._log_derivative_re, MISC,
                 lambda t: subordination._log_derivative_re(t, np)),
    "abs_cos": (subordination._abs_cos, MISC, lambda t: np.abs(np.cos(np.exp(1j * t)))),
    "abs_sin": (subordination._abs_sin, MISC, lambda t: np.abs(np.sin(np.exp(1j * t)))),
}
for _name, _eq, _params in (("starlike_order", radii._starlike_order, (0.0, 0.3, 0.99)),
                            ("mu_beta", radii._mu_beta, (1.01, 1.5, 3.6)),
                            ("convexity", radii._convexity, (0.0, 0.5, 0.99))):
    for _p in _params:
        ARRAY_FORMS[f"{_name}({_p})"] = (lambda r, eq=_eq, p=_p: eq(r, p), radii._SCAN_NODES,
                                        lambda r, eq=_eq, p=_p: eq(r, p, np))


@pytest.mark.parametrize("name", sorted(ARRAY_FORMS))
def test_array_form_agrees_with_its_scalar_form(name):
    scalar, grid, array = ARRAY_FORMS[name]
    want = np.array([scalar(t) for t in grid.tolist()])
    got = array(grid)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


class Recorder:
    """Wraps an objective; records each scalar argument, passes arrays through."""

    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, t, *args, **kwargs):
        if not isinstance(t, np.ndarray):
            self.points.append(t)
        return self.f(t, *args, **kwargs)


def scalar_calls(monkeypatch, module, names, run, drop_values):
    """Run ``run()`` with the named objectives recorded; with ``drop_values``
    every scan in ``module`` runs without its array values."""
    with monkeypatch.context() as m:
        recorders = {name: Recorder(getattr(module, name)) for name in names}
        for name, rec in recorders.items():
            m.setattr(module, name, rec)
        if drop_values:
            for name in ("refine_max", "refine_min", "local_minima"):
                if hasattr(module, name):
                    scanner = getattr(scan, name)
                    m.setattr(module, name, lambda f, xs, values=None, s=scanner: s(f, xs))
            bisect = radii._bisect_newton
            m.setattr(radii, "_bisect_newton", lambda fn, values=None: bisect(fn))
        result = run()
    return result, {name: rec.points for name, rec in recorders.items()}


@pytest.mark.parametrize("module,names,run,grid", [
    (radii, ["_stp_objective"], radii.stp_constant,
     np.linspace(0.0, math.pi, 4096 + 2)[1:-1]),
    (subordination, ["_parabola_objective"], subordination.parabola_b0,
     np.linspace(-math.pi, math.pi, subordination.PARABOLA_SAMPLES + 2)[1:-1]),
    (subordination, ["_abs_cos", "_abs_sin", "_log_derivative_re"],
     subordination.misc_constants, MISC),
    (radii, ["_convexity"], lambda: radii.solve_radius("convexity", 0.0), radii._SCAN_NODES),
])
def test_scalar_objective_runs_on_few_grid_nodes(monkeypatch, module, names, run, grid):
    got, calls = scalar_calls(monkeypatch, module, names, run, drop_values=False)
    want, scalar_scan = scalar_calls(monkeypatch, module, names, run, drop_values=True)
    assert repr(got) == repr(want)
    nodes = set(grid.tolist())
    for name in names:
        on_grid = [t for t in calls[name] if t in nodes]
        # Golden section, bisection and Newton run off the grid, and make
        # the same calls as in the scan without values.
        refinement = [t for t in calls[name] if t not in nodes]
        assert len(on_grid) <= 16, (name, len(on_grid))
        assert refinement == [t for t in scalar_scan[name] if t not in nodes]
        assert refinement and len([t for t in scalar_scan[name] if t in nodes]) > 16


@pytest.mark.parametrize("samples", [256, 1024])
@pytest.mark.parametrize("r", [0.05, 0.17, 0.33, 0.5, 0.62, 0.78, 0.9, 0.97])
def test_rotation_bound_is_the_scan_of_its_scalar_objective(r, samples):
    theta = np.linspace(0.0, math.pi, samples)
    scalar = refine_max(lambda t: abs(g_eval(r * cmath.exp(1j * t)).imag), theta)[1]
    assert repr(rotation_bound(r, samples)) == repr(scalar)


@pytest.mark.parametrize("samples", [256, 300, 1000, 4096, 8192])
def test_phi_bounds_im_max_is_the_scan_of_its_scalar_objective(samples):
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    scalar = refine_max(lambda t: abs(phi_eval(cmath.exp(1j * t)).imag), theta)[1]
    assert repr(phi_global_bounds(samples).im_abs_max) == repr(scalar)


def hand_rolled_arg_max(samples):
    """sup |arg phi| as phi_global_bounds found it before it called refine_max:
    golden section on the cell around the largest estimate, kept off the
    zero at pi, and never below that estimate."""
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    w = _phi_values(np.exp(1j * theta))

    def arg_abs(t):
        val = phi_eval(cmath.exp(1j * t))
        return 0.0 if val == 0 else abs(cmath.phase(val))

    args = np.abs(np.angle(np.where(w == 0, 1.0, w)))
    i = int(np.argmax(args))
    lo = theta[max(i - 1, 0)]
    hi = min(theta[min(i + 1, samples - 1)], math.pi - 1e-13)
    _, arg_max = golden_max(arg_abs, lo, hi)
    return max(arg_max, float(args[i]))


@pytest.mark.parametrize("samples", list(range(256, 9000, 131)) + [16384, 100000])
def test_phi_bounds_arg_max_equals_the_hand_rolled_refinement(samples):
    assert repr(phi_global_bounds(samples).arg_abs_max) == repr(hand_rolled_arg_max(samples))
