import math

import numpy as np
import pytest

from secstar.extremal import (ClassMember, build_extremal, distortion_envelope,
                              growth_envelope, rotation_bound)
from secstar.generator import g_eval, phi_series
from secstar.series import PowerSeries


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
    a = build_extremal(n, 32, method="recurrence").coeffs.coeffs
    b = build_extremal(n, 32, method="lift").coeffs.coeffs
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lacunarity_pattern(n):
    f = build_extremal(n, 24)
    for k in range(2, 25):
        if (k - 1) % (n - 1) != 0:
            assert f.a(k) == 0


def test_log_derivative_reproduces_generator(extremal_16):
    f = build_extremal(2, 17)
    ratio = (f.coeffs.derivative() / f.coeffs.shift_down()).truncate(16)
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
    # f2(z) = z exp(g(z)) and f2'(z) = exp(g(z)) (1 + z)/cos z, with g by
    # quadrature; the distortion sweep covers r = 0.85 and 0.90, where an
    # order-64 derivative series fails its own tail check.
    g_minus, g_plus = g_eval(-r).real, g_eval(r).real
    lo, hi = growth_envelope(r)
    assert abs(lo - r * math.exp(g_minus)) < 1e-9
    assert abs(hi - r * math.exp(g_plus)) < 1e-9
    lo, hi = distortion_envelope(r)
    assert abs(lo - math.exp(g_minus) * (1 - r) / math.cos(r)) < 1e-9
    assert abs(hi - math.exp(g_plus) * (1 + r) / math.cos(r)) < 1e-9


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


def test_rotation_bound_monotone():
    vals = [rotation_bound(r, samples=512) for r in (0.1, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
