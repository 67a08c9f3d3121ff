import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secstar.extremal import ClassMember, build_extremal
from secstar.generator import g_series, phi_series
from secstar.series import (_toeplitz_rows, compose_rows, derivative, div_rows, elementary,
                            exp_rows, integral, lift_rows, log_rows)


def random_series(rng, order, const=None, scale=0.5):
    c = scale * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    if const is not None:
        c[0] = const
    return c


def mul(a, b):
    """The truncated product, as the module docstring gives it."""
    return np.convolve(a, b)[: len(a)]


def evaluate(c, z):
    """The value at z, as the module docstring gives it."""
    return np.polyval(np.asarray(c)[::-1], z)


def test_elementary_cos():
    c = elementary("cos", 4)
    assert np.allclose(c, [1, 0, -0.5, 0, 1 / 24], atol=0, rtol=1e-15)


def test_elementary_identity_and_geometric():
    assert np.array_equal(elementary("identity", 2), [0, 1, 0])
    assert np.array_equal(elementary("geometric", 3), [1, 1, 1, 1])


def test_elementary_rejects_unknown():
    with pytest.raises(ValueError):
        elementary("tan", 4)


def test_mul_square_of_one_plus_z():
    s = np.array([1, 1, 0], dtype=np.complex128)
    assert np.allclose(mul(s, s), [1, 2, 1], atol=0)


def test_div_rows_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="got 5 and 3"):
        div_rows(np.ones((1, 5)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="got 3 and 5"):
        div_rows(np.ones((1, 3)), np.ones((1, 5)))


def test_compose_rows_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="got 5 and 3"):
        compose_rows(np.ones(5), np.array([[0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="got 2 and 3"):
        compose_rows(np.ones(2), np.array([[0.0, 1.0, 0.0]]))


def test_div_long_division_sec():
    # Long-division oracle for (1+z)/cos z done by hand:
    # sec z = 1 + z^2/2 + 5 z^4/24, so (1+z) sec z = 1 + z + z^2/2 + z^3/2
    # + 5z^4/24 + 5z^5/24.
    one_plus_z = np.array([[1, 1, 0, 0, 0, 0]], dtype=np.complex128)
    ratio = div_rows(one_plus_z, elementary("cos", 5)[None])[0]
    assert np.allclose(ratio, [1, 1, 0.5, 0.5, 5 / 24, 5 / 24], atol=1e-15)
    assert np.allclose(elementary("sec", 5), [1, 0, 0.5, 0, 5 / 24, 0], atol=1e-15)


def test_div_by_near_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        div_rows(np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]))


def test_geometric_inverse_pair():
    # f / (1 - z) is f times the geometric series.
    rng = np.random.default_rng(1)
    f = random_series(rng, 8)
    one_minus_z = np.array([1, -1] + [0] * 7, dtype=np.complex128)
    quotient = div_rows(f[None], one_minus_z[None])[0]
    assert np.allclose(quotient, mul(f, elementary("geometric", 8)), atol=1e-14)


def test_compose_constant_inner():
    outer = np.array([3, 1, 2, 5], dtype=np.complex128)
    inner = np.zeros((1, 4), dtype=np.complex128)
    out = compose_rows(outer, inner)[0]
    assert np.array_equal(out, [3, 0, 0, 0])


def test_compose_identity_inner_is_exact():
    rng = np.random.default_rng(2)
    outer = random_series(rng, 10)
    out = compose_rows(outer, elementary("identity", 10)[None])[0]
    assert np.array_equal(out, outer)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        compose_rows(np.array([1.0, 1.0]), np.array([[0.5, 1.0]]))


def gathered_toeplitz_rows(inner):
    """The Toeplitz stack as compose_rows built it before the strided copy:
    the reference for its bits."""
    n = inner.shape[1]
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.ascontiguousarray(np.where(lag >= 0, inner[:, np.maximum(lag, 0)], 0.0))


def gathered_compose_rows(outer, inner):
    toeplitz = gathered_toeplitz_rows(inner)
    acc = np.zeros(inner.shape, dtype=np.complex128)
    acc[:, 0] = outer[-1]
    for k in range(outer.size - 2, -1, -1):
        acc = np.matmul(toeplitz, acc[:, :, None])[:, :, 0]
        acc[:, 0] += outer[k]
    return acc


@pytest.mark.parametrize("rows", [1, 5, 128])
def test_toeplitz_stack_is_the_gathered_one_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for width in range(1, 34):
        inner = random_series(rng, rows * width - 1).reshape(rows, width)
        # Zeros of both signs, the constant term's among them, must keep
        # their sign bits; above the diagonal both stacks hold +0.
        inner[:, 0] = complex(-0.0, -0.0)
        inner[rng.uniform(size=inner.shape) < 0.2] = complex(-0.0, 0.0)
        inner[rng.uniform(size=inner.shape) < 0.2] = 0.0
        outer = random_series(rng, width - 1)
        got, want = _toeplitz_rows(inner), gathered_toeplitz_rows(inner)
        assert got.flags.c_contiguous and got.shape == want.shape == (rows, width, width)
        assert got.tobytes() == want.tobytes(), width
        assert (compose_rows(outer, inner).tobytes()
                == gathered_compose_rows(outer, inner).tobytes()), width


def test_compose_rows_holds_little_more_than_one_stack():
    # The gathered stack peaked near two stacks: an index gather, np.where's
    # result and the C-order copy.  One stack of 128 x 17 x 17 is 578 KiB.
    rng = np.random.default_rng(8)
    inner = random_series(rng, 128 * 17 - 1).reshape(128, 17)
    inner[:, 0] = 0.0
    outer = random_series(rng, 16)
    compose_rows(outer, inner)
    tracemalloc.start()
    try:
        compose_rows(outer, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * inner.shape[0] * 17 * 17 * 16


def test_compose_square_substitution():
    # phi(z^2) oracle: substitute z^2 into [1, 1, 1/2, ...] symbolically.
    phi = np.array([1, 1, 0.5, 0.5, 5 / 24], dtype=np.complex128)
    z2 = np.array([[0, 0, 1, 0, 0]], dtype=np.complex128)
    out = compose_rows(phi, z2)[0]
    assert np.allclose(out, [1, 0, 1, 0, 0.5], atol=1e-15)


def test_exp_log_inverse_on_exp_series():
    e = elementary("exp", 10)
    assert np.allclose(log_rows(e[None])[0], [0, 1] + [0] * 9, atol=1e-14)


def test_exp_integral_lift_of_constant_one():
    q = np.array([[1, 0, 0, 0]], dtype=np.complex128)
    f = lift_rows(q)[0]
    assert np.array_equal(f, [0, 1, 0, 0])


def test_exp_integral_lift_requires_unit_constant():
    with pytest.raises(ValueError):
        lift_rows(np.array([[2.0, 0, 0]], dtype=np.complex128))


def test_exp_integral_lift_recurrence_oracle():
    # Independent oracle: (k-1) a_k = sum_{j<k} q_{k-j} a_j, here for the
    # square-substituted generator [1, 0, 1, 0, 1/2, 0].
    q = [1, 0, 1, 0, 0.5, 0]
    a = [0.0] * 6
    a[1] = 1.0
    for k in range(2, 6):
        a[k] = sum(q[k - j] * a[j] for j in range(1, k)) / (k - 1)
    f = lift_rows(np.array([q], dtype=np.complex128))[0]
    assert np.allclose(f, a, atol=1e-15)
    assert np.allclose(f, [0, 1, 0, 0.5, 0, 0.25], atol=1e-15)


def test_evaluate_constants_and_identity():
    assert evaluate([1, 1, 0.5], 0) == 1
    assert evaluate([0, 1], 1j) == 1j


def test_evaluate_against_closed_form():
    one_plus_z = np.concatenate([[1.0, 1.0], np.zeros(29)])
    phi = div_rows(one_plus_z[None], elementary("cos", 30)[None])[0]
    assert abs(evaluate(phi, 0.5) - 1.5 / math.cos(0.5)) < 1e-9


# -- properties -------------------------------------------------------------


def recurrence_log(c):
    """Series log by the recurrence k c0 l_k = k c_k - sum_{j<k} j l_j c_{k-j}:
    the reference for log_rows, which integrates f'/f."""
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
        log = log_rows(f[None])
        assert np.abs(log[0] - recurrence_log(f)).max() < 1e-14
        back = exp_rows(log)[0]
        assert np.abs(back - f).max() < 1e-12


def test_log_of_constant_and_of_zero_constant():
    assert log_rows(np.array([[2.0 + 0j]]))[0].tolist() == [cmath.log(2.0)]
    assert log_rows(np.array([[-1.0 + 0j, 0.5]]))[0].tolist() == [cmath.log(-1.0), -0.5]
    for c in ([0.0], [0.0, 1.0], [1e-301, 1.0]):
        with pytest.raises(ZeroDivisionError, match="series log"):
            log_rows(np.array([c], dtype=np.complex128))


def test_derivative_of_integral_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        order = int(rng.integers(0, 30))
        f = random_series(rng, order, const=0.0)
        back = derivative(integral(f))
        # (c/(k+1))*(k+1) is not bitwise exact in IEEE; allow 2 ulp.
        assert np.abs(back - f).max() <= 4e-16 * np.abs(f).max()


@given(st.integers(0, 2**32 - 1))
def test_mul_commutative_and_associative(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(0, 17))
    a, b, c = (random_series(rng, order) for _ in range(3))
    assert np.abs(mul(a, b) - mul(b, a)).max() < 1e-13
    assert np.abs(mul(mul(a, b), c) - mul(a, mul(b, c))).max() < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_evaluate_is_multiplicative_up_to_truncation(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 13))
    a, b = random_series(rng, order), random_series(rng, order)
    z = 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
    lhs = evaluate(mul(a, b), z)
    rhs = evaluate(a, z) * evaluate(b, z)
    assert abs(lhs - rhs) <= 10 * 0.3 ** (order + 1)


def test_immutability():
    # The memoised series and a member's coefficients are shared, so read-only;
    # a member keeps its own copy of the array it was built from.
    c = np.array([0, 1, 3], dtype=np.complex128)
    member = ClassMember(c)
    c[2] = 5
    assert member.a(2) == 3
    for shared in (phi_series(4), g_series(4), member.coeffs, build_extremal(2, 4).coeffs):
        with pytest.raises(ValueError):
            shared[0] = 5
