import cmath
import math

import numpy as np
import pytest

from secstar.extremal import (ClassMember, build_extremal, distortion_envelope,
                              growth_envelope, rotation_bound)
from secstar.generator import G_ORDER, g_series, phi_series
from secstar.scan import refine_max
from secstar.series import PowerSeries, exp_integral_lift


def shift_down(s):
    """s / z for a series with zero constant term: the order drops by one."""
    assert s.coeffs[0] == 0
    return PowerSeries(s.coeffs[1:])


def recurrence_oracle(n, order):
    """Independent construction: q = phi(z^{n-1}) assembled from hand-checked
    generator coefficients, then (k-1) a_k = sum q_{k-j} a_j."""
    sec = [0.0] * (order + 1)
    sec[0] = 1.0
    cosc = [0.0] * (order + 1)
    for k in range(0, order + 1, 4):
        cosc[k] = 1 / math.factorial(k)
    for k in range(2, order + 1, 4):
        cosc[k] = -1 / math.factorial(k)
    for m in range(1, order + 1):
        sec[m] = -sum(cosc[j] * sec[m - j] for j in range(1, m + 1))
    phi = [sec[k] + (sec[k - 1] if k else 0.0) for k in range(order + 1)]
    q = [0.0] * (order + 1)
    step = n - 1
    for k in range(0, order + 1, step):
        q[k] = phi[k // step]
    a = [0.0] * (order + 1)
    a[1] = 1.0
    for k in range(2, order + 1):
        a[k] = sum(q[k - j] * a[j] for j in range(1, k)) / (k - 1)
    return a


def test_principal_extremal_first_coefficients():
    f = build_extremal(2, 8)
    c = f.coeffs.coeffs.real
    assert abs(c[2] - 1.0) < 1e-15
    assert abs(c[3] - 0.75) < 1e-15
    assert abs(c[4] - 7 / 12) < 1e-15
    # The recurrence forces a5 = 5/12 (the printed 35/96 is inconsistent).
    assert abs(c[5] - 5 / 12) < 1e-15


@pytest.mark.parametrize("n,expected", [
    (3, {2: 0.0, 3: 0.5, 4: 0.0, 5: 0.25}),
    (4, {2: 0.0, 3: 0.0, 4: 1 / 3, 5: 0.0}),
])
def test_lacunary_extremals(n, expected):
    f = build_extremal(n, 8)
    for k, v in expected.items():
        assert abs(f.a(k) - v) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_recurrence_matches_oracle(n):
    f = build_extremal(n, 16)
    oracle = recurrence_oracle(n, 16)
    assert np.abs(f.coeffs.coeffs - np.array(oracle)).max() < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recurrence_agrees_with_integral_lift(n):
    a = build_extremal(n, 32).coeffs.coeffs
    q = np.zeros(33, dtype=np.complex128)
    q[:: n - 1] = phi_series(32 // (n - 1)).coeffs  # phi(z^{n-1})
    b = exp_integral_lift(PowerSeries(q)).coeffs
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lacunarity_pattern(n):
    f = build_extremal(n, 24)
    for k in range(2, 25):
        if (k - 1) % (n - 1) != 0:
            assert f.a(k) == 0


def test_log_derivative_reproduces_generator(extremal_16):
    f = build_extremal(2, 17)
    ratio = (f.coeffs.derivative() / shift_down(f.coeffs)).truncate(16)
    assert np.abs(ratio.coeffs - phi_series(16).coeffs).max() < 1e-12


def test_build_extremal_rejects_bad_args():
    with pytest.raises(ValueError):
        build_extremal(1, 8)
    with pytest.raises(ValueError):
        build_extremal(4, 2)


def test_class_member_validation():
    with pytest.raises(ValueError):
        ClassMember(PowerSeries([0.1, 1, 0]))
    with pytest.raises(ValueError):
        ClassMember(PowerSeries([0, 0.999, 0]))
    # A non-finite coefficient used to give a NaN convolution margin and a
    # (False, nan) sufficient check without any error.
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ClassMember(PowerSeries([0, 1, 0.1, 0.2, bad, 0.0]))


# -- envelopes ---------------------------------------------------------------

# Frozen from the order-96 recurrence oracle evaluated by plain Horner.
GROWTH_05 = (0.3168296007078456, 0.90040107118620838)
DISTORTION_05 = (0.36102540600325184, 3.0780046583196108)


def test_growth_envelope_origin():
    assert growth_envelope(0.0) == (0.0, 0.0)


def test_growth_envelope_at_half():
    lo, hi = growth_envelope(0.5)
    assert abs(lo - GROWTH_05[0]) < 1e-9
    assert abs(hi - GROWTH_05[1]) < 1e-9


def test_growth_envelope_oracle_recomputed():
    a = recurrence_oracle(2, 96)
    up = sum(c * 0.5**k for k, c in enumerate(a))
    lo = -sum(c * (-0.5)**k for k, c in enumerate(a))
    assert abs(up - GROWTH_05[1]) < 1e-12
    assert abs(lo - GROWTH_05[0]) < 1e-12


def test_growth_envelope_monotone_nesting():
    lo5, hi5 = growth_envelope(0.5)
    lo6, hi6 = growth_envelope(0.6)
    assert lo6 > lo5 and hi6 > hi5


def test_distortion_envelope_at_half():
    lo, hi = distortion_envelope(0.5)
    assert abs(lo - DISTORTION_05[0]) < 1e-9
    assert abs(hi - DISTORTION_05[1]) < 1e-9


@pytest.mark.parametrize("r", [k / 20 for k in range(1, 20)])
def test_envelopes_match_closed_forms(r):
    # The envelopes come from g in closed form; the reference is f2's own
    # order-128 series and its derivative, whose tails at r = 0.95 are far
    # below the tolerance (convergence radius pi/2).
    f = build_extremal(2, 128).coeffs
    d = f.derivative()
    lo, hi = growth_envelope(r)
    assert abs(lo - -f.evaluate(-r).real) < 1e-9
    assert abs(hi - f.evaluate(r).real) < 1e-9
    lo, hi = distortion_envelope(r)
    assert abs(lo - d.evaluate(-r).real) < 1e-9
    assert abs(hi - d.evaluate(r).real) < 1e-9


def test_envelopes_reject_radius_one():
    with pytest.raises(ValueError):
        growth_envelope(1.0)
    with pytest.raises(ValueError):
        distortion_envelope(1.0)


def test_rotation_bound_zero_at_origin():
    assert rotation_bound(0.0) == 0.0


def test_rotation_bound_at_half():
    val = rotation_bound(0.5)
    assert 0.0 < val < math.pi / 2
    # Recorded from a 20001-point scan with refinement.
    assert abs(val - 0.4973575893733303) < 1e-5


@pytest.mark.parametrize("samples", [256, 1024])
@pytest.mark.parametrize("r", [0.05, 0.17, 0.33, 0.5, 0.62, 0.78, 0.9, 0.97])
def test_rotation_bound_equals_scalar_grid_oracle(r, samples):
    # The scan and golden section over np.polyval at every point.  The
    # golden section runs through g_eval, whose Horner rule on Python
    # complexes may round an ulp apart from np.polyval off the axes.
    s = g_series(G_ORDER)

    def obj(t):
        return abs(s.evaluate(r * cmath.exp(1j * t)).imag)

    theta = np.linspace(0.0, math.pi, samples)
    assert abs(rotation_bound(r, samples) - refine_max(obj, theta)[1]) <= 1e-15


@pytest.mark.parametrize("r", [0.05, 0.5, 0.9, 0.97])
def test_rotation_bound_matches_extremal_argument(r):
    # max |arg(f2(z)/z)| from f2's own order-128 series, not from g.
    f = build_extremal(2, 128).coeffs

    def obj(t):
        z = r * cmath.exp(1j * t)
        return abs(cmath.phase(f.evaluate(z) / z))

    expected = refine_max(obj, np.linspace(0.0, math.pi, 2048))[1]
    assert abs(rotation_bound(r) - expected) < 1e-12


def test_rotation_bound_monotone():
    vals = [rotation_bound(r, samples=512) for r in (0.1, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
