import math

import numpy as np
import pytest

from secstar.generator import g_series
from secstar.published import PUBLISHED
from secstar.subordination import (MISC_SAMPLES, gamma_constants, gudermannian,
                                   janowski_threshold, misc_constants, parabola_b0,
                                   subordination_threshold, _abs_cos, _abs_sin,
                                   _parabola_uv, _log_derivative_re)


def test_gamma_constants_quadrature_frozen():
    g = gamma_constants()
    assert abs(g["gamma1"].computed - -0.9035770388514365) < 1e-9
    assert abs(g["gamma2"].computed - 1.5488053029155977) < 1e-9
    assert abs(g["im_g_i"].computed - gudermannian(1.0)) < 1e-10


def test_gamma_constants_differ_from_published_decimals():
    # The published -0.904233 / 1.53664 / 0.862897 are the degree-7 partial
    # sums of the series of g; the integral values sit measurably away.
    g = gamma_constants()

    def abs_diff(name):
        return abs(g[name].computed - PUBLISHED[name][0])

    assert abs_diff("gamma1") > 1e-4
    assert abs_diff("gamma2") > 1e-2
    assert abs_diff("im_g_i") > 2e-3


def test_published_decimals_do_equal_degree7_partial_sums():
    s7 = g_series(7)
    assert abs(s7.evaluate(1.0).real - 1.53664) < 1e-5
    assert abs(s7.evaluate(-1.0).real - -0.904233) < 1e-6
    assert abs(s7.evaluate(1j).imag - 0.862897) < 1e-6


def test_gamma_series_cross_check():
    g = gamma_constants()
    s = g_series(40)
    assert abs(s.evaluate(-1.0).real - g["gamma1"].computed) < 1e-6
    assert abs(s.evaluate(1.0).real - g["gamma2"].computed) < 1e-6


def test_gudermannian_value():
    assert abs(gudermannian(1.0) - 0.8657694832396586) < 1e-15


def test_threshold_values():
    g = gamma_constants()
    e = math.e
    expect_exp = e * g["gamma1"].computed / (1 - e)
    assert abs(subordination_threshold("exp") - expect_exp) < 1e-12
    expect_card = max(-e * g["gamma1"].computed, g["gamma2"].computed / e)
    assert abs(subordination_threshold("cardioid") - expect_card) < 1e-12
    expect_sine = g["gamma2"].computed / math.sin(1)
    assert abs(subordination_threshold("sine") - expect_sine) < 1e-12


def test_thresholds_positive():
    vals = [subordination_threshold(t) for t in ("exp", "cardioid", "sine")]
    vals.append(subordination_threshold("janowski", A=0.5, B=-0.5))
    assert all(v > 0 for v in vals)


def test_threshold_unknown_target():
    with pytest.raises(ValueError):
        subordination_threshold("bessel")


def test_janowski_second_candidate_defined():
    # A - B - 1 - B^2 > 0, e.g. A = 1, B = -0.5.
    value, cands = janowski_threshold(1.0, -0.5)
    assert cands["imaginary"] is not None
    assert value == max(cands["endpoint"], cands["imaginary"])


def test_janowski_second_candidate_undefined_at_corner():
    # A = 1, B = -1 gives A - B - 1 - B^2 = 0.
    value, cands = janowski_threshold(1.0, -1.0)
    assert cands["imaginary"] is None
    assert value == cands["endpoint"]


def test_janowski_validates_parameters():
    with pytest.raises(ValueError):
        janowski_threshold(-0.5, 0.5)


# -- parabolic containment ---------------------------------------------------


def test_parabola_branch_values():
    par = parabola_b0()
    assert abs(par.min_value - -0.988408) < 2e-3
    assert abs(par.theta_min - -2.47734) < 1e-3
    assert abs(par.b0 - -0.005796) < 1e-4
    # tight frozen values
    assert abs(par.min_value - -0.9884084078703474) < 1e-9
    assert abs(par.theta_min - -2.477342691247193) < 1e-6


def test_parabola_b0_reconstruction_identity():
    par = parabola_b0()
    assert par.min_value + 2 * par.b0 + 1.0 == 0.0


def test_parabola_global_dip_at_origin():
    # The full-range objective dips far below the published minimum at
    # theta = 0; the report carries this as a conflict row.
    par = parabola_b0()
    assert abs(par.global_theta) < 1e-6
    assert abs(par.global_min_value - -11.518078320033506) < 1e-9
    assert par.global_min_value < par.min_value - 10.0


def test_parabola_objective_even():
    for t in (0.3, 1.1, 2.4):
        u1, v1 = _parabola_uv(t)
        u2, v2 = _parabola_uv(-t)
        assert abs(u1 - u2) < 1e-15
        assert abs(v1 + v2) < 1e-15


def test_abs_cos_and_sin_equal_their_expanded_forms():
    # cos(x+iy) = cos x cosh y - i sin x sinh y, sin(x+iy) = sin x cosh y +
    # i cos x sinh y, at x + iy = e^{i theta}: the forms the circle scans
    # used before they called cmath.
    def expanded_abs_cos(t):
        return abs(complex(math.cos(math.cos(t)) * math.cosh(math.sin(t)),
                           -math.sin(math.cos(t)) * math.sinh(math.sin(t))))

    def expanded_abs_sin(t):
        return abs(complex(math.sin(math.cos(t)) * math.cosh(math.sin(t)),
                           math.cos(math.cos(t)) * math.sinh(math.sin(t))))

    edges = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]
    thetas = (np.linspace(-math.pi, math.pi, 200001).tolist()
              + np.linspace(-math.pi, math.pi, MISC_SAMPLES, endpoint=False).tolist()
              + edges + [math.nextafter(t, 0.0) for t in edges])
    assert [repr(_abs_cos(t)) for t in thetas] == [repr(expanded_abs_cos(t)) for t in thetas]
    assert [repr(_abs_sin(t)) for t in thetas] == [repr(expanded_abs_sin(t)) for t in thetas]


def test_half_real_part_of_moebius_term():
    # Re(z/(1+z)) = 1/2 on the unit circle away from z = -1.
    thetas = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
    thetas = thetas[np.abs(thetas + math.pi) > 1e-9]
    z = np.exp(1j * thetas)
    assert np.abs((z / (1 + z)).real - 0.5).max() < 1e-12


def test_misc_constants():
    m = misc_constants()
    assert abs(m["k2"] - 1 / math.cosh(2)) < 1e-15
    assert abs(m["k2"] - 0.26580) < 1e-5
    assert abs(m["conv_sufficient"] - (0.5 + (2 + math.sinh(1)) / math.cos(1))) < 1e-15
    assert abs(m["circle_cos_min"] - math.cos(1)) < 1e-9
    assert abs(m["circle_sin_max"] - math.sinh(1)) < 1e-9
    assert abs(m["logderiv_min"] - (0.5 - math.tanh(1))) < 1e-9
    # the claimed identity value is far from the true minimum
    assert m["logderiv_claimed"] - m["logderiv_min"] > 1.0


def test_log_derivative_at_quarter_turn():
    assert abs(_log_derivative_re(math.pi / 2) - (0.5 - math.tanh(1))) < 1e-12
