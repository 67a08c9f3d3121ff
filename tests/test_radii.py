import math

import numpy as np
import pytest

from secstar import radii
from secstar.generator import radial_real_range
from secstar.radii import (RootResult, ellipse_parameters, inclusion_constants,
                           solve_radius, stp_constant)

TWO_SEC_ONE = 2 / math.cos(1)


def bisection_oracle(fn, cells=10**6):
    """Independent oracle: dense sign-change scan, then pure bisection."""
    xs = np.linspace(0.0, 1.0, cells + 1)
    vals = fn(xs)
    idx = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    assert idx.size > 0
    a, b = xs[idx[0]], xs[idx[0] + 1]
    fa = fn(np.array([a]))[0]
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = fn(np.array([m]))[0]
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def test_starlike_order_zero_saturates():
    res = solve_radius("starlike_order", 0.0)
    assert res.r == 1.0 and res.residual == 0.0


def test_starlike_order_half_matches_oracle():
    res = solve_radius("starlike_order", 0.5)
    oracle = bisection_oracle(lambda r: (1 - r) - 0.5 * np.cos(r))
    assert abs(res.r - oracle) < 1e-10
    assert res.residual < 1e-12


def test_convexity_radius():
    res = solve_radius("convexity", 0.0)
    assert abs(res.r - 0.3564772402965003) < 1e-10
    assert res.residual < 1e-12
    # The reported value 0.454 does not solve the displayed equation.
    f = lambda r: (1 - r) ** 2 - r * math.cos(r) - r * (1 - r) * math.sin(r)
    assert abs(f(0.454)) > 1e-2


def test_mu_beta_branches():
    res = solve_radius("mu_beta", 2.0)
    assert abs(res.r - 0.62358289658327282) < 1e-10
    assert solve_radius("mu_beta", TWO_SEC_ONE + 0.1).r == 1.0
    assert solve_radius("mu_beta", TWO_SEC_ONE).r == 1.0


def test_m_starlike_branches():
    res = solve_radius("m_starlike", 0.4)
    assert abs(res.r - 0.2191305425520052) < 1e-10
    # At and above M = 1/2 the defining inequality holds on the whole disk.
    assert solve_radius("m_starlike", 0.5).r == 1.0
    assert solve_radius("m_starlike", 2.0).r == 1.0


def test_m_starlike_is_starlike_order_at_twice_m():
    # 1 - r - 2M cos r is (1 - r) - alpha cos r at alpha = 2M, and doubling
    # is exact, so the radius is the same RootResult as the equation's own.
    for M in np.linspace(0.0, 0.5, 181)[1:-1].tolist() + [1e-9, 0.5 - 1e-12]:
        res = solve_radius("m_starlike", M)
        assert repr(res) == repr(solve_radius("starlike_order", 2.0 * M))
        assert repr(res) == repr(radii._bisect_newton(
            lambda r: 1.0 - r - 2.0 * M * math.cos(r)))
        assert 0.0 < res.r < 1.0 and res.iterations > 0


def test_param_validation():
    for kind, bad in (("starlike_order", 1.0), ("mu_beta", 1.0),
                      ("convexity", -0.1), ("m_starlike", 0.0)):
        with pytest.raises(ValueError):
            solve_radius(kind, bad)
    with pytest.raises(ValueError):
        solve_radius("nope", 0.5)


def test_all_roots_satisfy_equations():
    cases = [("starlike_order", a) for a in np.linspace(0.05, 0.95, 10)]
    cases += [("mu_beta", b) for b in (1.2, 1.8, 2.5, 3.4)]
    cases += [("convexity", a) for a in np.linspace(0.0, 0.9, 7)]
    cases += [("m_starlike", m) for m in (0.05, 0.2, 0.35, 0.49)]
    for kind, param in cases:
        res = solve_radius(kind, float(param))
        assert 0.0 <= res.r <= 1.0
        assert res.residual < 1e-12
        if res.iterations > 0:
            assert res.bracket[0] < res.bracket[1]


@pytest.mark.parametrize("kind", ["starlike_order", "mu_beta", "convexity", "m_starlike"])
@pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
def test_non_finite_param_rejected(kind, param):
    with pytest.raises(ValueError, match="radius parameter must be finite"):
        solve_radius(kind, param)


def float64_node_bisect_newton(fn, values=None):
    """The root solve with its sign-change scan on ``np.float64`` nodes.

    It ignores the array ``values`` that ``solve_radius`` passes, so it scans
    fn's own values at every node.
    """
    xs = np.linspace(0.0, 1.0, radii.SCAN_CELLS + 1)
    vals = np.array([fn(x) for x in xs])
    if abs(vals[0]) < 1e-15:
        return RootResult(r=0.0, residual=abs(float(vals[0])), bracket=(0.0, 0.0),
                          iterations=0)
    sign_change = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if sign_change.size == 0:
        if abs(vals[-1]) < 1e-15:
            return RootResult(r=1.0, residual=abs(float(vals[-1])),
                              bracket=(1.0, 1.0), iterations=0)
        raise ValueError("no sign change")
    i = int(sign_change[0])
    a, b = float(xs[i]), float(xs[i + 1])
    fa = float(vals[i])
    bracket = (a, b)
    iters = 0
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = fn(m)
        iters += 1
        if fm == 0.0 or (b - a) < 1e-15:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    root = 0.5 * (a + b)
    for _ in range(3):
        f0 = fn(root)
        h = 1e-7
        slope = (fn(min(root + h, 1.0)) - fn(max(root - h, 0.0))) / (
            min(root + h, 1.0) - max(root - h, 0.0))
        if slope == 0.0:
            break
        step = f0 / slope
        cand = min(max(root - step, bracket[0]), bracket[1])
        iters += 1
        if abs(fn(cand)) <= abs(f0):
            root = cand
        if abs(step) < 1e-16:
            break
    return RootResult(r=root, residual=abs(fn(root)), bracket=bracket,
                      iterations=iters)


def test_scan_on_floats_matches_float64_node_oracle(monkeypatch):
    # 25 seeded in-domain parameters per kind, and the convexity radius at 0.
    rng = np.random.default_rng(20261018)
    domains = {"starlike_order": (0.0, 1.0), "mu_beta": (1.0, TWO_SEC_ONE),
               "convexity": (0.0, 1.0), "m_starlike": (0.0, 0.5)}
    cases = [("convexity", 0.0)]
    for kind, (lo, hi) in domains.items():
        cases += [(kind, float(p)) for p in rng.uniform(lo, hi, 25)]
    got = [solve_radius(kind, param) for kind, param in cases]
    monkeypatch.setattr(radii, "_bisect_newton", float64_node_bisect_newton)
    want = [solve_radius(kind, param) for kind, param in cases]
    assert all(res.iterations > 0 for res in want)
    # repr tells the bits apart, signed zeros included.
    assert [repr(res) for res in got] == [repr(res) for res in want]


@pytest.mark.parametrize("fn", [
    lambda r: r,                                    # f(0) = 0: radius 0
    lambda r: 5e-16 - r,                            # |f(0)| below 1e-15
    lambda r: (1.0 - r) ** 2,                       # no sign change, f(1) = 0
    lambda r: r - 1.0,                              # root at the last node
    lambda r: 0.375 - r,                            # root at a node
    lambda r: 1e-4 - r,                             # root in the first cell
    lambda r: -0.0 if r > 0.5 else 1.0,             # -0.0 has the sign bit
    lambda r: math.cos(7.0 * r) - 0.2,              # several sign changes
])
def test_bisect_newton_equals_float64_node_oracle(fn):
    assert repr(radii._bisect_newton(fn)) == repr(float64_node_bisect_newton(fn))


@pytest.mark.parametrize("fn", [lambda r: 1.0 + r, lambda r: -0.5, lambda r: r - 2.0])
def test_bisect_newton_without_sign_change_raises_like_the_oracle(fn):
    with pytest.raises(ValueError, match="no sign change"):
        float64_node_bisect_newton(fn)
    with pytest.raises(ValueError, match=r"no sign change in \[0, 1\]: f\(0\) = "):
        radii._bisect_newton(fn)


def test_scan_stops_at_the_first_sign_change():
    # Nodes past the bracketing cell are never evaluated.
    def fn(r):
        if r > 0.3 + 1.0 / radii.SCAN_CELLS:
            raise AssertionError(f"scanned past the root to {r}")
        return 0.3 - r
    assert repr(radii._bisect_newton(fn)) == repr(float64_node_bisect_newton(lambda r: 0.3 - r))


def test_scan_trig_taken_once_keeps_every_result(monkeypatch):
    # The scan nodes' cos and sin are computed once at import; each array
    # pass, and so each solve, is the one that called np.cos and np.sin.
    for eq, params in ((radii._starlike_order, (0.0, 0.5)), (radii._mu_beta, (1.5,)),
                       (radii._convexity, (0.0, 0.5))):
        for p in params:
            assert (eq(radii._SCAN_NODES, p, radii._AT_SCAN_NODES).tobytes()
                    == eq(radii._SCAN_NODES, p, np).tobytes())
    rng = np.random.default_rng(2025)
    domains = {"starlike_order": (0.0, 1.0), "mu_beta": (1.0, 2.0 * TWO_SEC_ONE),
               "convexity": (0.0, 1.0), "m_starlike": (0.0, 1.0)}
    cases = [(kind, float(p)) for kind, (lo, hi) in domains.items()
             for p in [*np.linspace(lo, hi, 41)[1:-1], *rng.uniform(lo, hi, 40)]]
    cases += [("starlike_order", 0.0), ("convexity", 0.0)]
    got = [repr(solve_radius(kind, param)) for kind, param in cases]
    monkeypatch.setattr(radii, "_AT_SCAN_NODES", np)
    assert got == [repr(solve_radius(kind, param)) for kind, param in cases]


def test_starlike_radius_decreasing_in_alpha():
    rs = [solve_radius("starlike_order", a).r for a in np.linspace(0, 0.95, 11)]
    assert all(b < a for a, b in zip(rs, rs[1:]))


def test_m_starlike_radius_decreasing_in_m():
    # (1-r)/cos r falls from 1 to 0 on [0,1], so the root of
    # (1-r) = 2M cos r moves *down* as M grows, then jumps to 1 at M = 1/2
    # where the geometric condition holds on the whole disk.
    rs = [solve_radius("m_starlike", m).r for m in np.linspace(0.05, 0.45, 9)]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    assert solve_radius("m_starlike", 0.5).r == 1.0


def test_radius_consistent_with_radial_range():
    for alpha in (0.2, 0.5, 0.8):
        r_alpha = solve_radius("starlike_order", alpha).r
        for r in (0.5 * r_alpha, 0.9 * r_alpha, 0.99 * r_alpha):
            lo, _ = radial_real_range(r, verify=False)
            assert lo > alpha


def test_inclusion_constants():
    inc = inclusion_constants()
    assert abs(inc.kst_threshold - 1.37014671465209) < 1e-12
    assert abs(inc.kst_threshold - 1.37016) < 1e-4
    assert abs(inc.mu_beta_threshold - TWO_SEC_ONE) < 1e-15


def test_ellipse_parameter_identity_at_threshold():
    k = inclusion_constants().kst_threshold
    x0, u, v = ellipse_parameters(k)
    assert u > v
    assert abs((x0 + u) - TWO_SEC_ONE) < 1e-9
    # algebraic identity x0 + u = k/(k-1)
    assert abs((x0 + u) - k / (k - 1)) < 1e-12


def test_ellipse_needs_k_above_one():
    with pytest.raises(ValueError):
        ellipse_parameters(1.0)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_ellipse_rejects_non_finite_k(k):
    # inf used to give (nan, nan, 0.0), and NaN three NaNs.
    with pytest.raises(ValueError, match="finite k > 1"):
        ellipse_parameters(k)


def test_stp_constant_values():
    theta0, a0 = stp_constant(4096)
    assert abs(a0 - 0.402301) < 1e-3
    assert abs(theta0 - 0.665124) < 1e-3
    # tight frozen values from an independent dense scan + refine
    assert abs(a0 - 0.40230117871953436) < 1e-9
    assert abs(theta0 - 0.66512447876829073) < 1e-6


def test_stp_even_symmetry():
    from secstar.radii import _stp_objective
    from secstar.scan import refine_max
    thetas = np.linspace(0.0, math.pi, 2048 + 2)[1:-1]
    _, pos = refine_max(_stp_objective, thetas)
    _, neg = refine_max(lambda t: _stp_objective(-t), thetas)
    assert abs(pos - neg) < 1e-9


def test_stp_origin_value_below_max():
    from secstar.radii import _stp_objective
    _, a0 = stp_constant(2048)
    assert 0.0 <= _stp_objective(1e-12) < a0
