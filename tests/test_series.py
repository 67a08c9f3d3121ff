import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secstar.series import PowerSeries, compose_rows, elementary, lift_rows


def random_series(rng, order, const=None, scale=0.5):
    c = scale * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    if const is not None:
        c[0] = const
    return PowerSeries(c)


def test_elementary_cos():
    c = elementary("cos", 4).coeffs
    assert np.allclose(c, [1, 0, -0.5, 0, 1 / 24], atol=0, rtol=1e-15)


def test_elementary_identity_and_geometric():
    assert np.array_equal(elementary("identity", 2).coeffs, [0, 1, 0])
    assert np.array_equal(elementary("geometric", 3).coeffs, [1, 1, 1, 1])


def test_elementary_rejects_unknown():
    with pytest.raises(ValueError):
        elementary("tan", 4)


def test_mul_square_of_one_plus_z():
    s = PowerSeries([1, 1, 0])
    assert np.allclose((s * s).coeffs, [1, 2, 1], atol=0)


def test_mul_order_mismatch_raises():
    with pytest.raises(ValueError, match="order mismatch"):
        PowerSeries([1, 1]) * PowerSeries([1, 1, 1])


def test_div_long_division_sec():
    # Long-division oracle for (1+z)/cos z done by hand:
    # sec z = 1 + z^2/2 + 5 z^4/24, so (1+z) sec z = 1 + z + z^2/2 + z^3/2
    # + 5z^4/24 + 5z^5/24.
    one_plus_z = PowerSeries([1, 1, 0, 0, 0, 0])
    ratio = one_plus_z / elementary("cos", 5)
    assert np.allclose(ratio.coeffs,
                       [1, 1, 0.5, 0.5, 5 / 24, 5 / 24], atol=1e-15)


def test_div_by_near_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        PowerSeries([1, 1]) / PowerSeries([0, 1])


def test_geometric_inverse_pair():
    rng = np.random.default_rng(1)
    f = random_series(rng, 8)
    geo = elementary("geometric", 8)
    one_minus_z = PowerSeries([1, -1] + [0] * 7)
    back = f * geo * one_minus_z
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-14)


def test_compose_constant_inner():
    outer = PowerSeries([3, 1, 2, 5])
    inner = PowerSeries([0, 0, 0, 0])
    out = compose_rows(outer.coeffs, inner.coeffs[None])[0]
    assert np.array_equal(out, [3, 0, 0, 0])


def test_compose_identity_inner_is_exact():
    rng = np.random.default_rng(2)
    outer = random_series(rng, 10)
    out = compose_rows(outer.coeffs, elementary("identity", 10).coeffs[None])[0]
    assert np.array_equal(out, outer.coeffs)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        compose_rows(PowerSeries([1, 1]).coeffs, PowerSeries([0.5, 1]).coeffs[None])


def test_compose_square_substitution():
    # phi(z^2) oracle: substitute z^2 into [1, 1, 1/2, ...] symbolically.
    phi = PowerSeries([1, 1, 0.5, 0.5, 5 / 24])
    z2 = PowerSeries([0, 0, 1, 0, 0])
    out = compose_rows(phi.coeffs, z2.coeffs[None])[0]
    assert np.allclose(out, [1, 0, 1, 0, 0.5], atol=1e-15)


def test_exp_log_inverse_on_exp_series():
    e = elementary("exp", 10)
    assert np.allclose(e.log().coeffs, [0, 1] + [0] * 9, atol=1e-14)


def test_exp_integral_lift_of_constant_one():
    q = PowerSeries([1, 0, 0, 0])
    f = lift_rows(q.coeffs[None])[0]
    assert np.array_equal(f, [0, 1, 0, 0])


def test_exp_integral_lift_requires_unit_constant():
    with pytest.raises(ValueError):
        lift_rows(PowerSeries([2.0, 0, 0]).coeffs[None])


def test_exp_integral_lift_recurrence_oracle():
    # Independent oracle: (k-1) a_k = sum_{j<k} q_{k-j} a_j, here for the
    # square-substituted generator [1, 0, 1, 0, 1/2, 0].
    q = [1, 0, 1, 0, 0.5, 0]
    a = [0.0] * 6
    a[1] = 1.0
    for k in range(2, 6):
        a[k] = sum(q[k - j] * a[j] for j in range(1, k)) / (k - 1)
    f = lift_rows(PowerSeries(q).coeffs[None])[0]
    assert np.allclose(f, a, atol=1e-15)
    assert np.allclose(f, [0, 1, 0, 0.5, 0, 0.25], atol=1e-15)


def test_evaluate_constants_and_identity():
    assert PowerSeries([1, 1, 0.5]).evaluate(0) == 1
    assert PowerSeries([0, 1]).evaluate(1j) == 1j


def test_evaluate_against_closed_form():
    one_plus_z = PowerSeries(np.concatenate([[1.0, 1.0], np.zeros(29)]))
    phi = one_plus_z / elementary("cos", 30)
    assert abs(phi.evaluate(0.5) - 1.5 / math.cos(0.5)) < 1e-9


# -- properties -------------------------------------------------------------


def recurrence_log(c):
    """Series log by the recurrence k c0 l_k = k c_k - sum_{j<k} j l_j c_{k-j}:
    the reference for PowerSeries.log, which integrates f'/f."""
    out = np.empty(c.size, dtype=np.complex128)
    out[0] = cmath.log(c[0])
    for k in range(c.size - 1):
        acc = (k + 1) * c[k + 1]
        if k:
            acc = acc - np.dot(out[1:k + 1] * np.arange(1, k + 1), c[k:0:-1])
        out[k + 1] = acc / ((k + 1) * c[0])
    return out


def test_exp_log_roundtrip_batch():
    rng = np.random.default_rng(3)
    for _ in range(200):
        order = int(rng.integers(1, 25))
        f = random_series(rng, order, const=1.0)
        log = f.log()
        assert np.abs(log.coeffs - recurrence_log(f.coeffs)).max() < 1e-14
        back = log.exp()
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_log_of_constant_and_of_zero_constant():
    assert PowerSeries([2.0]).log().coeffs.tolist() == [cmath.log(2.0)]
    assert PowerSeries([-1.0, 0.5]).log().coeffs.tolist() == [cmath.log(-1.0), -0.5]
    for c in ([0.0], [0.0, 1.0], [1e-301, 1.0]):
        with pytest.raises(ZeroDivisionError, match="series log"):
            PowerSeries(c).log()


def test_derivative_of_integral_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        order = int(rng.integers(0, 30))
        f = random_series(rng, order, const=0.0)
        back = f.integral().derivative()
        # (c/(k+1))*(k+1) is not bitwise exact in IEEE; allow 2 ulp.
        assert np.abs(back.coeffs - f.coeffs).max() <= 4e-16 * np.abs(f.coeffs).max()


@given(st.integers(0, 2**32 - 1))
def test_mul_commutative_and_associative(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(0, 17))
    a, b, c = (random_series(rng, order) for _ in range(3))
    assert np.abs((a * b).coeffs - (b * a).coeffs).max() < 1e-13
    assert np.abs(((a * b) * c).coeffs - (a * (b * c)).coeffs).max() < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_evaluate_is_multiplicative_up_to_truncation(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 13))
    a, b = random_series(rng, order), random_series(rng, order)
    z = 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
    lhs = (a * b).evaluate(z)
    rhs = a.evaluate(z) * b.evaluate(z)
    assert abs(lhs - rhs) <= 10 * 0.3 ** (order + 1)


def test_immutability():
    s = PowerSeries([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5
