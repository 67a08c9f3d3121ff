"""The batched coefficient engine against the serial per-member code it replaced.

The oracle below is the one-member-at-a-time synthesis the package used
before member synthesis was batched: long division, Horner composition with
``np.convolve``, the exponential recurrence with ``np.dot``, the functionals
in Python complex arithmetic, and the search as a loop over members.  The
batched engine reorders sums, so agreement is asserted to 1e-14; flag and
containment counts must be identical.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secstar.caratheodory import (HerglotzMeasure, log_derivative_on_circle,
                                  log_derivative_rows, member_from_measure,
                                  member_rows, members_from_measures,
                                  pack_measures, sample_measure)
from secstar.functionals import (FS_MUS, SHARP_BOUNDS, compute_report,
                                 functional_columns)
from secstar.generator import ImageRegion, phi_series
from secstar.series import (PowerSeries, compose_rows, div_rows, exp_rows,
                            lift_rows)
from secstar.validation import (BLOCK, BOUNDARY_TOL, CONTAINMENT_POINTS,
                                CONTAINMENT_RADIUS, REGION_SAMPLES, SearchConfig,
                                designated_measures, run_search)

TOL = 1e-14
ORDERS = (5, 16, 32)

# -- serial oracle -------------------------------------------------------------


def oracle_div(a, b):
    n = a.size
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        acc = a[k]
        if k:
            acc = acc - np.dot(out[:k], b[k:0:-1])
        out[k] = acc / b[0]
    return out


def oracle_compose(outer, inner):
    n = outer.size
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = outer[-1]
    for k in range(n - 2, -1, -1):
        acc = np.convolve(acc, inner)[:n]
        acc[0] += outer[k]
    return acc


def oracle_exp(f):
    n = f.size
    fd = f[1:] * np.arange(1, n)
    out = np.empty(n, dtype=np.complex128)
    out[0] = cmath.exp(f[0])
    for k in range(n - 1):
        out[k + 1] = np.dot(fd[: k + 1], out[k::-1]) / (k + 1)
    return out


def oracle_lift(q):
    n = q.size - 1
    h = np.zeros(n + 1, dtype=np.complex128)
    if n >= 1:
        h[1:] = q[1:] / np.arange(1, n + 1)
    inner = oracle_exp(h)
    out = np.empty(n + 1, dtype=np.complex128)
    out[0] = 0.0
    out[1:] = inner[:-1] if n >= 1 else []
    if n >= 1:
        out[1] = 1.0
    return out


def oracle_phi(order):
    n = order + 1
    cos = np.zeros(n, dtype=np.complex128)
    cos[::2] = [(-1) ** (k // 2) / math.factorial(k) for k in range(0, n, 2)]
    unit = np.zeros(n, dtype=np.complex128)
    unit[0] = 1.0
    one_plus_z = unit.copy()
    if order >= 1:
        one_plus_z[1] = 1.0
    return np.convolve(one_plus_z, oracle_div(unit, cos))[:n]


def oracle_p(m, order):
    lam = m.weights
    x = np.exp(-1j * m.angles)
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = 1.0
    xn = np.ones_like(x)
    for n in range(1, order + 1):
        xn = xn * x
        c[n] = 2.0 * np.dot(lam, xn)
    return c


def oracle_member(m, order):
    p = oracle_p(m, order)
    num, den = p.copy(), p.copy()
    num[0] -= 1.0
    den[0] += 1.0
    return oracle_lift(oracle_compose(oracle_phi(order), oracle_div(num, den)))


def oracle_log_derivative(m, radius, count):
    z = radius * np.exp(1j * np.linspace(-math.pi, math.pi, count, endpoint=False))
    x = np.exp(-1j * m.angles)
    xz = np.multiply.outer(z, x)
    p = (1.0 + xz) / (1.0 - xz) @ m.weights
    omega = (p - 1.0) / (p + 1.0)
    return (1.0 + omega) / np.cos(omega)


def oracle_functionals(c):
    a2, a3, a4, a5 = (complex(c[n]) for n in range(2, 6))
    h22 = a2 * a4 - a3 * a3
    h31 = a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2 * a2)
    t21 = 1.0 - abs(a2) ** 2
    t31 = float(1.0 - 2.0 * abs(a2) ** 2 + 2.0 * (a2 * a2 * np.conj(a3)).real
                - abs(a3) ** 2)
    flags = {
        "a2_le_1": abs(a2) <= SHARP_BOUNDS["a2"] + 1e-9,
        "a3_le_3_4": abs(a3) <= SHARP_BOUNDS["a3"] + 1e-9,
        "a4_le_7_12": abs(a4) <= SHARP_BOUNDS["a4"] + 1e-9,
        "a5_le_third": abs(a5) <= SHARP_BOUNDS["a5"] + 1e-9,
        "h22_le_quarter": abs(h22) <= SHARP_BOUNDS["h22"] + 1e-9,
        "h31_le_ninth": abs(h31) <= SHARP_BOUNDS["h31"] + 1e-9,
        "t21_in_unit": -1e-9 <= t21 <= 1.0 + 1e-9,
        "t31_in_range": -1.0 / 15.0 - 1e-9 <= t31 <= 1.0 + 1e-9,
    }
    k1 = math.cos(1.0) ** 2
    n = np.arange(2, c.size)
    margin = float((4.0 - k1) - np.sum((n * n * k1 - 4.0) * np.abs(c[2:]) ** 2))
    return dict(a2=a2, a3=a3, a4=a4, a5=a5, h22=h22, h31=h31, t21=t21, t31=t31,
                fs={mu: abs(a3 - mu * a2 * a2) for mu in FS_MUS},
                coeff_sum_margin=margin, flags=flags)


def oracle_search(config):
    measures = designated_measures()
    measures += [sample_measure(config.seed + i) for i in range(config.count)]
    region = ImageRegion(REGION_SAMPLES) if config.check_containment else None
    out = dict(samples=0, max_abs_a2=0.0, max_abs_a3=0.0, max_abs_a4=0.0,
               max_abs_a5=0.0, max_abs_h22=0.0, max_abs_h31=0.0,
               t21_min=math.inf, t21_max=-math.inf, t31_min=math.inf,
               flag_failures={}, containment_failures=0)
    for m in measures:
        rep = oracle_functionals(oracle_member(m, config.order))
        out["samples"] += 1
        for name in ("a2", "a3", "a4", "a5", "h22", "h31"):
            out[f"max_abs_{name}"] = max(out[f"max_abs_{name}"], abs(rep[name]))
        out["t21_min"] = min(out["t21_min"], rep["t21"])
        out["t21_max"] = max(out["t21_max"], rep["t21"])
        out["t31_min"] = min(out["t31_min"], rep["t31"])
        for name, ok in rep["flags"].items():
            if not ok:
                out["flag_failures"][name] = out["flag_failures"].get(name, 0) + 1
        if region is not None:
            w = oracle_log_derivative(m, CONTAINMENT_RADIUS, CONTAINMENT_POINTS)
            if not region.contains_batch(w, boundary_tol=BOUNDARY_TOL).all():
                out["containment_failures"] += 1
    return out


# -- strategies ----------------------------------------------------------------


def measure_with_atoms(seed, count):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, count)
    weights = rng.dirichlet(np.ones(count))
    weights = weights / weights.sum()
    return HerglotzMeasure(atoms=tuple(zip(weights.tolist(), angles.tolist())),
                           seed=seed)


measure_batches = st.lists(
    st.builds(measure_with_atoms, st.integers(0, 2**32 - 1), st.integers(1, 8)),
    min_size=1, max_size=12)


def random_rows(rng, rows, order, const=None):
    c = 0.5 * (rng.uniform(-1, 1, (rows, order + 1))
               + 1j * rng.uniform(-1, 1, (rows, order + 1)))
    if const is not None:
        c[:, 0] = const
    return c


# -- kernels -------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.sampled_from(ORDERS))
def test_row_kernels_match_serial_oracle(seed, order):
    rng = np.random.default_rng(seed)
    a = random_rows(rng, 6, order)
    b = random_rows(rng, 6, order, const=2.0)
    inner = random_rows(rng, 6, order, const=0.0)
    outer = phi_series(order).coeffs
    q = random_rows(rng, 6, order, const=1.0)
    div, comp, ex, lift = (div_rows(a, b), compose_rows(outer, inner),
                           exp_rows(0.5 * a), lift_rows(q))
    for i in range(6):
        for got, want in ((div[i], oracle_div(a[i], b[i])),
                          (comp[i], oracle_compose(outer, inner[i])),
                          (ex[i], oracle_exp(0.5 * a[i])),
                          (lift[i], oracle_lift(q[i]))):
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= TOL * scale
    # PowerSeries is the one-row view of the same kernels.
    assert np.array_equal((PowerSeries(a[0]) / PowerSeries(b[0])).coeffs, div[0])
    assert np.array_equal(PowerSeries(outer).compose(PowerSeries(inner[0])).coeffs,
                          comp[0])


def test_phi_series_matches_serial_oracle():
    for order in ORDERS + (64,):
        assert np.abs(phi_series(order).coeffs - oracle_phi(order)).max() <= TOL


def test_phi_series_is_memoised():
    assert phi_series(16) is phi_series(16)


# -- member synthesis ----------------------------------------------------------


@given(measure_batches, st.sampled_from(ORDERS))
@settings(max_examples=60)
def test_batched_members_match_serial_oracle(measures, order):
    rows = member_rows(*pack_measures(measures), order)
    assert rows.shape == (len(measures), order + 1)
    for m, row in zip(measures, rows):
        assert np.abs(row - oracle_member(m, order)).max() <= TOL
        # A batch of one is the same computation as a row of a larger batch.
        assert np.array_equal(member_from_measure(m, order).coeffs.coeffs, row)


@given(measure_batches)
@settings(max_examples=30)
def test_batched_log_derivative_matches_serial_oracle(measures):
    w = log_derivative_rows(*pack_measures(measures), 0.95, 64)
    for m, row in zip(measures, w):
        want = oracle_log_derivative(m, 0.95, 64)
        assert np.abs(row - want).max() <= TOL * np.abs(want).max()
        assert np.array_equal(log_derivative_on_circle(m, 0.95, 64), row)


@given(measure_batches, st.sampled_from(ORDERS))
@settings(max_examples=30)
def test_batched_functionals_match_serial_oracle(measures, order):
    members = members_from_measures(measures, order)
    coeffs = np.array([f.coeffs.coeffs for f in members])
    cols = functional_columns(coeffs)
    for i, f in enumerate(members):
        want = oracle_functionals(oracle_member(measures[i], order))
        rep = compute_report(f)
        assert rep == cols.report(i)
        for name in ("a2", "a3", "a4", "a5", "h22", "h31", "t21", "t31",
                     "coeff_sum_margin"):
            assert abs(getattr(rep, name) - want[name]) <= TOL * 10
        assert all(abs(rep.fs[mu] - want["fs"][mu]) <= TOL for mu in FS_MUS)
        assert rep.flags == want["flags"]


def test_members_keep_seed_provenance():
    ms = [sample_measure(7), HerglotzMeasure(atoms=((1.0, 0.5),))]
    tags = [f.provenance for f in members_from_measures(ms, 8)]
    assert tags == ["herglotz-sample:seed=7", "herglotz-manual"]


def test_batched_functionals_require_order_five():
    with pytest.raises(ValueError, match="order >= 5"):
        functional_columns(np.zeros((3, 5), dtype=complex))


# -- the search ----------------------------------------------------------------


@pytest.mark.parametrize("count", [BLOCK - 4, BLOCK - 3, 1000])
def test_run_search_matches_serial_loop(count):
    # BLOCK - 4 fills exactly one block together with the designated measures;
    # BLOCK - 3 spills one member into a second block.
    cfg = SearchConfig(count=count, seed=count, order=16, check_containment=True)
    got, want = run_search(cfg), oracle_search(cfg)
    assert got.samples == want["samples"] == count + 4
    for name in ("max_abs_a2", "max_abs_a3", "max_abs_a4", "max_abs_a5",
                 "max_abs_h22", "max_abs_h31", "t21_min", "t21_max", "t31_min"):
        assert abs(getattr(got, name) - want[name]) <= TOL, name
    assert got.flag_failures == want["flag_failures"]
    assert got.containment_failures == want["containment_failures"]
