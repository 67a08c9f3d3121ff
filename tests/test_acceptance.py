"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

import math

import numpy as np
import pytest

import secstar as ss
from secstar.report import CONFLICT, MISMATCH
from secstar.series import derivative, exp_rows, integral, log_rows

TOL_EXACT = 1e-12


def _g_gauss_legendre(z: float) -> float:
    """g(z) = integral_0^z (1 + t - cos t) / (t cos t) dt, by Gauss-Legendre.

    32 nodes, independent of the package's series of g; the
    nodes never touch the removable singularity at t = 0.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    t = z * (x + 1) / 2
    return z / 2 * float(np.sum(w * (1 + t - np.cos(t)) / (t * np.cos(t))))


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {n}: {detail}")


def test_criterion_01_extremal_coefficients(report_rows):
    f = ss.build_extremal(2, 8)
    checks = {
        "a2": abs(f.a(2) - 1.0) <= TOL_EXACT,
        "a3": abs(f.a(3) - 0.75) <= TOL_EXACT,
        "a4": abs(f.a(4) - 7 / 12) <= TOL_EXACT,
        "a5": abs(f.a(5) - 5 / 12) <= TOL_EXACT,
    }
    row = {r.constant_name: r for r in report_rows}["a5_extremal"]
    checks["report-flags-35/96"] = (row.status == CONFLICT
                                    and abs(row.paper_value - 35 / 96) < 1e-15)
    ok = all(checks.values())
    _criterion(1, ok, f"extremal coefficients {checks}")
    assert ok


def test_criterion_02_g_series():
    got = ss.g_series(5)
    want = np.array([0, 1, 0.25, 1 / 6, 5 / 96, 1 / 24])
    ok = np.abs(got - want).max() <= TOL_EXACT
    _criterion(2, ok, "primitive series [0, 1, 1/4, 1/6, 5/96, 1/24]")
    assert ok


def test_criterion_03_constants(report_rows):
    gam = ss.gamma_constants()
    t0, a0 = ss.stp_constant(8192)
    par = ss.parabola_b0()
    bounds = ss.phi_global_bounds(8192)
    gd1 = ss.gudermannian(1.0)
    rows = {r.constant_name: r for r in report_rows}
    g7 = ss.g_series(7).real
    checks = {}
    for name, z, published in (("gamma1", -1.0, -0.904233),
                               ("gamma2", 1.0, 1.53664)):
        row = rows[name]
        partial_sum = float(np.polynomial.polynomial.polyval(z, g7))
        checks[f"{name}=g({z:g})@1e-10"] = (
            abs(gam[name].computed - _g_gauss_legendre(z)) <= 1e-10)
        checks[f"{name}-row-mismatch"] = (
            row.status == row.expected_status == MISMATCH
            and row.paper_value == published)
        checks[f"{name}-published=partial-sum-7"] = (
            abs(published - partial_sum) <= 1e-6)
    checks.update({
        "a0~0.402301@1e-3": abs(a0 - 0.402301) <= 1e-3,
        "theta0~0.665124@1e-3": abs(t0 - 0.665124) <= 1e-3,
        "min_value~-0.988408@2e-3": abs(par.min_value - -0.988408) <= 2e-3,
        "b0~-0.005796@1e-4": abs(par.b0 - -0.005796) <= 1e-4,
        "gamma0~1.6471@1e-3": abs(bounds.im_abs_max - 1.6471) <= 1e-3,
        "im_g_i=gd(1)@1e-6": abs(gam["im_g_i"].computed - gd1) <= 1e-6,
        "im_g_i-row-mismatch": rows["im_g_i"].status == MISMATCH,
    })
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _criterion(3, ok, f"constants; failing sub-checks: {failed or 'none'}")
    if not ok:
        pytest.fail(f"criterion 3 sub-checks failed: {failed}")


def test_criterion_04_hankel_maxima():
    argmax, value = ss.maximize_box("g_h3")
    f3 = ss.member_from_measure(ss.measure_equal_atoms(2), 8)
    f4 = ss.member_from_measure(ss.measure_equal_atoms(3), 8)
    rep3 = ss.compute_report(f3)
    rep4 = ss.compute_report(f4)
    checks = {
        "surface-max-1/9": abs(value - 1 / 9) <= 1e-6,
        "surface-argmax-(0,0,1)": np.allclose(argmax, (0, 0, 1), atol=1e-9),
        "f3-h22-sharp": abs(abs(rep3.h22) - 0.25) <= TOL_EXACT,
        "f4-h31-sharp": abs(abs(rep4.h31) - 1 / 9) <= TOL_EXACT,
    }
    ok = all(checks.values())
    _criterion(4, ok, f"hankel maxima {checks}")
    assert ok


def test_criterion_05_stationary_values():
    _, v1 = ss.maximize_box("k1")
    x6, v6 = ss.maximize_box("k6")
    _, v3 = ss.maximize_box("h3")
    checks = {
        "k1": abs(v1 - (7 * math.sqrt(21) - 27) / 300) <= 1e-10,
        "k6-value": abs(v6 - 1 / (12 * math.sqrt(3))) <= 1e-10,
        "k6-argmax": abs(x6[0] - 1 / math.sqrt(3)) <= 1e-4,
        "h3": abs(v3 - (587 * math.sqrt(587) - 14200) / 324) <= 1e-10,
    }
    ok = all(checks.values())
    _criterion(5, ok, f"closed-form stationary values {checks}")
    assert ok


def test_criterion_06_identities():
    lhs = 4 * math.cos(1) / (1 + math.cos(2))
    rhs = 2 / math.cos(1)
    inc = ss.inclusion_constants()
    x0, u, _ = ss.ellipse_parameters(inc.kst_threshold)
    checks = {
        "sec-identity@1e-14": abs(lhs - rhs) <= 1e-14,
        "kst~1.37016": abs(inc.kst_threshold - 1.37016) <= 1e-4,
        "ellipse-x0+u=2sec1@1e-9": abs((x0 + u) - rhs) <= 1e-9,
    }
    ok = all(checks.values())
    _criterion(6, ok, f"trig/ellipse identities {checks}")
    assert ok


def test_criterion_07_random_search_invariants():
    cfg = ss.SearchConfig(count=10_000, seed=0xC0FFEE, order=16,
                          check_containment=True)
    s = ss.run_search(cfg)
    checks = {
        "t21-range": -1e-9 <= s.t21_min and s.t21_max <= 1 + 1e-9,
        "t31-floor": s.t31_min >= -1 / 15 - 1e-9,
        "h22<=1/4": s.max_abs_h22 <= 0.25 + 1e-9,
        "h31<=1/9": s.max_abs_h31 <= 1 / 9 + 1e-9,
        "a2<=1": s.max_abs_a2 <= 1 + 1e-9,
        "a3<=3/4": s.max_abs_a3 <= 0.75 + 1e-9,
        "a4<=7/12": s.max_abs_a4 <= 7 / 12 + 1e-9,
        "containment": s.containment_failures == 0,
        "no-enforced-flag-failures": not s.enforced_failures(),
    }
    ok = all(checks.values())
    _criterion(7, ok, f"{s.samples} seeded samples: {checks}")
    assert ok


def test_criterion_08_radius_solvers(report_rows):
    res = ss.solve_radius("starlike_order", 0.5)
    xs = np.linspace(0.0, 1.0, 10**6 + 1)
    vals = (1 - xs) - 0.5 * np.cos(xs)
    i = int(np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0][0])
    a, b = xs[i], xs[i + 1]
    fa = vals[i]
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = (1 - m) - 0.5 * math.cos(m)
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    oracle = 0.5 * (a + b)

    rc = ss.solve_radius("convexity", 0.0)
    eq16 = lambda r: (1 - r) ** 2 - r * math.cos(r) - r * (1 - r) * math.sin(r)
    rc_row = {r.constant_name: r for r in report_rows}["convexity_radius"]
    residuals = [ss.solve_radius(k, p).residual
                 for k, p in (("starlike_order", 0.3), ("mu_beta", 1.5),
                              ("convexity", 0.2), ("m_starlike", 0.3))]
    checks = {
        "all-residuals<1e-12": max(residuals) < 1e-12,
        "oracle-agreement@1e-10": bool(abs(res.r - oracle) <= 1e-10),
        "convexity-solves-eq16@1e-12": abs(eq16(rc.r)) <= 1e-12,
        "rc-row-mismatch": (rc_row.status == MISMATCH
                            if abs(rc.r - 0.454) > 5e-3 else True),
    }
    ok = all(checks.values())
    _criterion(8, ok, f"radius solvers {checks}")
    assert ok


def test_criterion_09_series_engine_properties():
    rng = np.random.default_rng(0xC0FFEE)
    worst_roundtrip = 0.0
    worst_deriv = 0.0
    worst_assoc = 0.0
    for _ in range(1000):
        order = int(rng.integers(1, 25))

        def draw(const=None):
            c = 0.5 * (rng.uniform(-1, 1, order + 1)
                       + 1j * rng.uniform(-1, 1, order + 1))
            if const is not None:
                c[0] = const
            return c

        def mul(a, b):
            return np.convolve(a, b)[: order + 1]

        f = draw(const=1.0)
        back = exp_rows(log_rows(f[None]))[0]
        worst_roundtrip = max(worst_roundtrip, float(np.abs(back - f).max()))
        g = draw(const=0.0)
        gi = derivative(integral(g))
        scale = max(float(np.abs(g).max()), 1e-30)
        worst_deriv = max(worst_deriv, float(np.abs(gi - g).max()) / scale)
        a, b, c = draw(), draw(), draw()
        worst_assoc = max(worst_assoc, float(
            np.abs(mul(mul(a, b), c) - mul(a, mul(b, c))).max()))
    checks = {
        "exp-log-roundtrip@1e-12": worst_roundtrip < 1e-12,
        "derivative-of-integral@2ulp": worst_deriv <= 4e-16,
        "mul-associativity@1e-13": worst_assoc < 1e-13,
    }
    ok = all(checks.values())
    _criterion(9, ok, f"series engine: roundtrip {worst_roundtrip:.2e}, "
                      f"deriv {worst_deriv:.2e}, assoc {worst_assoc:.2e}")
    assert ok


def test_criterion_10_prefix_parametrization_validity():
    rng = np.random.default_rng(0xC0FFEE)

    def disk():
        while True:
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(w) <= 1:
                return w

    bad = 0
    for _ in range(10_000):
        pt = ss.SchurPoint(p=float(2 * rng.random()), gamma=disk(),
                           eta=disk(), rho=disk())
        prefix = ss.caratheodory_from_schur(pt)
        if not ss.toeplitz_psd_check(list(prefix), 5, floor=-1e-9):
            bad += 1
    ok = bad == 0
    _criterion(10, ok, f"coefficient prefixes: {bad} PSD failures out of 10000")
    assert ok
