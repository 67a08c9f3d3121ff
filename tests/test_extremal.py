import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from exact import phi_fractions
from secstar import cli
from secstar.extremal import (ClassMember, build_extremal, distortion_envelope,
                              growth_envelope, rotation_bound)
from secstar.generator import G_ORDER, g_series, phi_series
from secstar.scan import refine_max
from secstar.series import derivative, div_rows, lift_rows


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
    c = f.coeffs.real
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
    assert np.abs(f.coeffs - np.array(oracle)).max() < 1e-13


def test_recurrence_gives_the_double_nearest_five_twelfths():
    # The lift gives 0.41666666666666663 here (notes/decisions.md, section 27).
    assert build_extremal(2, 8).a(5).real == 5 / 12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recurrence_agrees_with_integral_lift(n):
    a = build_extremal(n, 32).coeffs
    q = np.zeros(33, dtype=np.complex128)
    q[:: n - 1] = phi_series(32 // (n - 1))  # phi(z^{n-1})
    b = lift_rows(q[None])[0]
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lacunarity_pattern(n):
    f = build_extremal(n, 24)
    for k in range(2, 25):
        if (k - 1) % (n - 1) != 0:
            assert f.a(k) == 0


def test_log_derivative_reproduces_generator(extremal_16):
    f = build_extremal(2, 17).coeffs
    assert f[0] == 0
    ratio = div_rows(derivative(f)[None], f[None, 1:])[0]  # f' / (f/z)
    assert np.abs(ratio - phi_series(16)).max() < 1e-12


def test_build_extremal_rejects_bad_args():
    with pytest.raises(ValueError):
        build_extremal(1, 8)
    with pytest.raises(ValueError):
        build_extremal(4, 2)


def test_class_member_validation():
    with pytest.raises(ValueError):
        ClassMember([0.1, 1, 0])
    with pytest.raises(ValueError):
        ClassMember([0, 0.999, 0])
    # A non-finite coefficient used to give a NaN convolution margin and a
    # (False, nan) sufficient check without any error.
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ClassMember([0, 1, 0.1, 0.2, bad, 0.0])


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
    a = build_extremal(2, 128).coeffs
    f, d = a[::-1], derivative(a)[::-1]
    lo, hi = growth_envelope(r)
    assert abs(lo - -np.polyval(f, -r).real) < 1e-9
    assert abs(hi - np.polyval(f, r).real) < 1e-9
    lo, hi = distortion_envelope(r)
    assert abs(lo - np.polyval(d, -r).real) < 1e-9
    assert abs(hi - np.polyval(d, r).real) < 1e-9


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
    s = g_series(G_ORDER)[::-1]

    def obj(t):
        return abs(complex(np.polyval(s, r * cmath.exp(1j * t))).imag)

    theta = np.linspace(0.0, math.pi, samples)
    assert abs(rotation_bound(r, samples) - refine_max(obj, theta)[1]) <= 1e-15


@pytest.mark.parametrize("r", [0.05, 0.5, 0.9, 0.97])
def test_rotation_bound_matches_extremal_argument(r):
    # max |arg(f2(z)/z)| from f2's own order-128 series, not from g.
    f = build_extremal(2, 128).coeffs[::-1]

    def obj(t):
        z = r * cmath.exp(1j * t)
        return abs(cmath.phase(complex(np.polyval(f, z)) / z))

    expected = refine_max(obj, np.linspace(0.0, math.pi, 2048))[1]
    assert abs(rotation_bound(r) - expected) < 1e-12


def test_rotation_bound_monotone():
    vals = [rotation_bound(r, samples=512) for r in (0.1, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def exact_extremal(n, order):
    """f_n's coefficients as exact rationals: (k-1) a_k = sum_{j<k} q_{k-j} a_j
    with q = phi(z^{n-1})."""
    phi = phi_fractions(order)
    q = [Fraction(0)] * (order + 1)
    q[::n - 1] = phi[:order // (n - 1) + 1]
    a = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for k in range(2, order + 1):
        a[k] = sum(q[k - j] * a[j] for j in range(1, k)) / (k - 1)
    return a


@pytest.mark.parametrize("n,first_wrong", [(2, 12), (3, 17)])
def test_rational_guesses_are_exact_up_to_where_readme_says(capsys, n, first_wrong):
    # The guesses are limit_denominator(10**6) of the floats: exact while the
    # denominators stay small, wrong from a12 on for f2 and a17 on for f3.
    assert cli.main(["extremal", "--n", str(n), "--order", "32"]) == 0
    guesses = json.loads(capsys.readouterr().out)["rational_guesses"]
    exact = [f"{a.numerator}/{a.denominator}" for a in exact_extremal(n, 32)]
    assert exact_extremal(2, 7)[5::2] == [Fraction(5, 12), Fraction(1799, 8640)]
    assert guesses[:first_wrong] == exact[:first_wrong]
    assert guesses[first_wrong] != exact[first_wrong]
