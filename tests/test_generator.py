import cmath
import math

import numpy as np
import pytest

from secstar import cli
from secstar.generator import (CircleSample, ImageRegion, g_eval, g_series,
                               phi_eval, phi_global_bounds, phi_series,
                               radial_real_range, sample_circle)
from secstar.series import PowerSeries, elementary

TWO_SEC_ONE = 2.0 / math.cos(1.0)


def shift_up(s):
    """z * s: the order rises by one."""
    return PowerSeries(np.concatenate(([0.0], s.coeffs)))


def test_phi_at_origin_is_one():
    assert phi_eval(0) == 1


def test_phi_at_one_matches_real_part_cap():
    assert abs(phi_eval(1.0) - TWO_SEC_ONE) < 1e-14
    assert abs(phi_eval(1.0) - 4 * math.cos(1) / (1 + math.cos(2))) < 1e-14


def test_phi_at_i():
    # cos(i) = cosh(1), so phi(i) = (1+i)/cosh 1.
    expect = (1 + 1j) / math.cosh(1.0)
    assert abs(phi_eval(1j) - expect) < 1e-15


def test_phi_series_long_division_oracle():
    assert np.allclose(phi_series(5).coeffs,
                       [1, 1, 0.5, 0.5, 5 / 24, 5 / 24], atol=1e-15)
    assert np.array_equal(phi_series(0).coeffs, [1.0])


def test_phi_series_cross_checks_pointwise():
    s = phi_series(40)
    assert abs(s.evaluate(0.3) - phi_eval(0.3)) < 1e-10


def test_conjugate_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(z) >= 1:
            continue
        assert abs(phi_eval(np.conj(z)) - np.conj(phi_eval(z))) < 1e-13


def test_real_part_cap_identity():
    # 1 + cos 2 = 2 cos^2 1 forces 4cos1/(1+cos2) = 2/cos1.
    assert abs(4 * math.cos(1) / (1 + math.cos(2)) - 2 / math.cos(1)) < 1e-14


def test_log_derivative_series_identity():
    # z phi'/phi = z/(1+z) + z tan z at order 12.
    phi13 = phi_series(13)
    lhs = shift_up(phi13.derivative()) / phi13
    lhs = lhs.truncate(12)
    one_plus_z = PowerSeries([1, 1] + [0] * 11)
    term1 = elementary("identity", 12) / one_plus_z
    tan = elementary("sin", 11) / elementary("cos", 11)
    term2 = shift_up(tan)
    assert np.abs(lhs.coeffs - (term1 + term2).coeffs).max() < 1e-12


def test_radial_real_range_values():
    assert radial_real_range(0.0) == (1.0, 1.0)
    lo, hi = radial_real_range(0.5)
    assert abs(lo - 0.5 / math.cos(0.5)) < 1e-15
    assert abs(hi - 1.5 / math.cos(0.5)) < 1e-15
    assert abs(lo - 0.569746) < 1e-5 and abs(hi - 1.709236) < 1e-5


def test_radial_range_endpoints_attained():
    for r in (0.3, 0.7, 0.95):
        lo, hi = radial_real_range(r, verify=True)
        assert abs(phi_eval(-r).real - lo) < 1e-9
        assert abs(phi_eval(r).real - hi) < 1e-9


def test_radial_range_cap_toward_boundary():
    _, hi = radial_real_range(1 - 1e-9)
    assert abs(hi - TWO_SEC_ONE) < 1e-6


def test_radial_range_rejects_bad_radius():
    with pytest.raises(ValueError):
        radial_real_range(1.0)


def test_global_bounds():
    b = phi_global_bounds(4096)
    assert b.re_min == 0.0
    assert abs(b.re_max - TWO_SEC_ONE) < 1e-14
    assert abs(b.im_abs_max - 1.6471) < 1e-3
    assert b.arg_abs_max <= math.pi / 2 + 1e-9
    # sup |arg| is approached at the tip where the curve meets the origin
    assert b.arg_abs_max > math.pi / 2 - 1e-3


def test_global_bounds_rejects_small_sample():
    with pytest.raises(ValueError):
        phi_global_bounds(100)


def test_gamma0_refined_value():
    # Frozen from an independent dense-scan + refine run.
    b = phi_global_bounds(8192)
    assert abs(b.im_abs_max - 1.6471005963788372) < 1e-9


def test_region_membership(image_region):
    assert image_region.winding_number(1.0) == 1
    assert image_region.winding_number(4.0) != 1
    assert image_region.winding_number(0.01) == 1


def test_region_contains_function():
    assert ImageRegion(2048).winding_number(1.0) == 1
    assert ImageRegion(2048).winding_number(4.0) != 1


def test_region_boundary_classification(image_region):
    w = phi_eval(cmath.exp(0.7j))
    assert image_region.distance_to_boundary(w) <= 1e-6
    for inside, w in ((True, 1.0), (False, 4.0)):
        assert image_region.distance_to_boundary(w) > 1e-6
        assert (image_region.winding_number(w) == 1) == inside


def test_region_screen_agrees_with_winding(image_region):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 4.2, 300) + 1j * rng.uniform(-2.0, 2.0, 300)
    fast = image_region.contains_batch(pts)
    slow = np.array([image_region.winding_number(complex(p)) == 1 for p in pts])
    assert np.array_equal(fast, slow)


def test_circle_sample_csv(capsys):
    s = sample_circle(1.0, 16)
    assert isinstance(s, CircleSample)
    assert s.count == 16
    assert np.all(np.diff(s.thetas) > 0)
    assert cli.main(["phi", "--circle", "1", "--samples", "16", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 17
    # samples are evaluations of phi
    for line in lines[1:]:
        theta, re, im = map(float, line.split(","))
        assert abs(phi_eval(cmath.exp(1j * theta)) - complex(re, im)) < 1e-12


# -- the primitive g --------------------------------------------------------


def test_g_at_zero():
    assert g_eval(0) == 0


def test_g_at_plus_minus_one_quadrature_oracle():
    # Frozen from an independent adaptive quadrature (scipy.integrate.quad).
    assert abs(g_eval(1.0).real - 1.5488053029155977) < 1e-9
    assert abs(g_eval(-1.0).real - -0.9035770388514365) < 1e-9
    assert abs(g_eval(1.0).imag) < 1e-12
    assert abs(g_eval(-1.0).imag) < 1e-12


def test_im_g_at_i_closed_form():
    # Along [0, i] the imaginary part of the integrand is sech s, so
    # Im g(i) = gd(1) = 2 atan(tanh 1/2).
    gd1 = 2.0 * math.atan(math.tanh(0.5))
    assert abs(g_eval(1j).imag - gd1) < 1e-10


def test_g_series_first_coefficients():
    assert np.allclose(g_series(5).coeffs,
                       [0, 1, 0.25, 1 / 6, 5 / 96, 1 / 24], atol=1e-15)


def test_g_series_derivative_identity():
    # z g'(z) = phi(z) - 1 at order 12.
    g = g_series(12)
    lhs = shift_up(g.derivative())
    rhs = phi_series(12) - 1.0
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12


def test_g_series_matches_quadrature_inside_disk():
    s = g_series(40)
    for z in (0.5, -0.5, 0.3 + 0.4j):
        assert abs(s.evaluate(z) - g_eval(z)) < 1e-9


def test_g_eval_rejects_outside_disk():
    with pytest.raises(ValueError):
        g_eval(2.0)
