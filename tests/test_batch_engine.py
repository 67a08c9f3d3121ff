"""The batched coefficient engine against the serial per-member code it replaced.

The oracle below is the one-member-at-a-time synthesis the package used
before member synthesis was batched: long division, Horner composition with
``np.convolve``, the exponential recurrence with ``np.dot``, the functionals
in Python complex arithmetic, and the search as a loop over members.  The
batched engine reorders sums, so agreement is asserted to 1e-14; flag and
containment counts must be identical.  The exact kernels, which sum over
real atoms only, are compared bit for bit with the padded sum they replaced.
"""

import cmath
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secstar.caratheodory import (HerglotzMeasure, log_derivative_rows,
                                  member_from_measure, member_rows,
                                  p_eval_from_measure, pack_measures,
                                  sample_measure)
from secstar.functionals import (FS_MUS, SHARP_BOUNDS, compute_report,
                                 functional_columns)
from secstar.generator import ImageRegion, image_region, phi_series
from secstar.series import (PowerSeries, compose_rows, div_rows, exp_rows,
                            lift_rows)
from secstar.validation import (BLOCK, BOUNDARY_TOL, CHUNK, CONTAINMENT_POINTS,
                                CONTAINMENT_RADIUS, SearchConfig, SearchSummary,
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
    lam, angles = map(np.array, zip(*m.atoms))
    x = np.exp(-1j * angles)
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
    lam, angles = map(np.array, zip(*m.atoms))
    xz = np.multiply.outer(z, np.exp(-1j * angles))
    p = (1.0 + xz) / (1.0 - xz) @ lam
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
    region = ImageRegion() if config.check_containment else None
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


def padded_kernel_rows(weights, x, z):
    """The exact kernels summed over all MAX_ATOMS columns, padding atoms
    included: the reference for the sum over real atoms only."""
    xz = x[:, :, None] * z[None, None, :]
    kernel = 1.0 + xz
    kernel /= 1.0 - xz
    kernel *= weights[:, :, None]
    return kernel.sum(axis=1)


def padded_log_derivative_rows(weights, x, radius, count):
    z = radius * np.exp(1j * np.linspace(-math.pi, math.pi, count, endpoint=False))
    p = padded_kernel_rows(weights, x, z)
    omega = (p - 1.0) / (p + 1.0)
    return (1.0 + omega) / np.cos(omega)


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


def assert_log_derivative_is_padded_sum(measures, radius, count):
    weights, x = pack_measures(measures)
    w = log_derivative_rows(weights, x, radius, count)
    assert w.tobytes() == padded_log_derivative_rows(weights, x, radius, count).tobytes()
    # A batch of one is the same computation as a row of a larger batch.
    for m, row in zip(measures, w):
        one = log_derivative_rows(*pack_measures([m]), radius, count)[0]
        assert one.tobytes() == row.tobytes()


@given(measure_batches, st.sampled_from([(0.95, 64), (0.5, 7), (0.999, 2), (0.9, 1)]))
@settings(max_examples=60)
def test_log_derivative_over_real_atoms_is_the_padded_sum(measures, circle):
    assert_log_derivative_is_padded_sum(measures, *circle)


@pytest.mark.parametrize("atoms", range(1, 9))
def test_log_derivative_of_one_atom_count_is_the_padded_sum(atoms):
    measures = [measure_with_atoms(seed, atoms) for seed in range(40)]
    for circle in ((0.95, 64), (0.3, 3), (0.9, 1)):
        assert_log_derivative_is_padded_sum(measures, *circle)


def test_designated_log_derivative_is_the_padded_sum():
    measures = designated_measures()
    assert_log_derivative_is_padded_sum(measures, CONTAINMENT_RADIUS, CONTAINMENT_POINTS)
    # A search block: the designated measures ahead of sampled ones.
    measures += [sample_measure(i) for i in range(BLOCK - 4)]
    assert_log_derivative_is_padded_sum(measures, CONTAINMENT_RADIUS, CONTAINMENT_POINTS)


def test_kernel_evaluation_is_the_padded_sum():
    rng = np.random.default_rng(5)
    grid = 0.99 * np.sqrt(rng.uniform(0, 1, (9, 11))) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, (9, 11)))
    zs = [0.3 + 0.2j, np.array([-0.7j]), np.array([0.5, -0.25 + 0.5j]), grid]
    measures = designated_measures() + [measure_with_atoms(seed, seed % 8 + 1)
                                        for seed in range(40)]
    for m in measures:
        packed = pack_measures([m])
        for z in zs:
            want = padded_kernel_rows(*packed, np.ravel(z))[0].reshape(np.shape(z))
            got = p_eval_from_measure(m, z)
            assert got.shape == np.shape(z)
            assert got.tobytes() == want.tobytes()


@given(measure_batches, st.sampled_from(ORDERS))
@settings(max_examples=30)
def test_batched_functionals_match_serial_oracle(measures, order):
    cols = functional_columns(member_rows(*pack_measures(measures), order))
    for i, m in enumerate(measures):
        want = oracle_functionals(oracle_member(m, order))
        rep = compute_report(member_from_measure(m, order))
        assert rep == cols.report(i)
        for name in ("a2", "a3", "a4", "a5", "h22", "h31", "t21", "t31",
                     "coeff_sum_margin"):
            assert abs(getattr(rep, name) - want[name]) <= TOL * 10
        assert all(abs(rep.fs[mu] - want["fs"][mu]) <= TOL for mu in FS_MUS)
        assert rep.flags == want["flags"]


def test_members_keep_seed_provenance():
    ms = [sample_measure(7), HerglotzMeasure(atoms=((1.0, 0.5),))]
    tags = [member_from_measure(m, 8).provenance for m in ms]
    assert tags == ["herglotz-sample:seed=7", "herglotz-manual"]


def test_batched_functionals_require_order_five():
    with pytest.raises(ValueError, match="order >= 5"):
        functional_columns(np.zeros((3, 5), dtype=complex))


# -- the search ----------------------------------------------------------------


@pytest.mark.parametrize("count", [BLOCK - 4, BLOCK - 3, 1000])
def test_run_search_matches_serial_loop(count):
    # BLOCK - 4 members make one block with the designated measures, and
    # BLOCK - 3 one member more; the serial loop takes them one at a time.
    assert_search_matches_oracle(
        SearchConfig(count=count, seed=count, order=16, check_containment=True))


def test_run_search_matches_serial_loop_across_two_to_the_64():
    # Seeds of two words, then of three; the last member opens a second chunk.
    assert_search_matches_oracle(SearchConfig(count=CHUNK + 1, seed=2**64 - 600))


def assert_search_matches_oracle(cfg):
    got, want = run_search(cfg), oracle_search(cfg)
    assert got.samples == want["samples"] == cfg.count + 4
    for name in ("max_abs_a2", "max_abs_a3", "max_abs_a4", "max_abs_a5",
                 "max_abs_h22", "max_abs_h31", "t21_min", "t21_max", "t31_min"):
        assert abs(getattr(got, name) - want[name]) <= TOL, name
    assert got.flag_failures == want["flag_failures"]
    assert got.containment_failures == want["containment_failures"]


def per_measure_search(config):
    """run_search with every random measure drawn by sample_measure and
    packed BLOCK at a time: the reference for the drawn rows."""
    summary = SearchSummary(config=config)
    measures = designated_measures()
    measures += [sample_measure(config.seed + i) for i in range(config.count)]
    for start in range(0, len(measures), BLOCK):
        weights, atoms = pack_measures(measures[start:start + BLOCK])
        summary.record(functional_columns(member_rows(weights, atoms, config.order)))
        w = log_derivative_rows(weights, atoms, CONTAINMENT_RADIUS, CONTAINMENT_POINTS)
        inside = image_region().contains_batch(w, boundary_tol=BOUNDARY_TOL)
        summary.containment_failures += int((~inside.reshape(w.shape).all(axis=1)).sum())
    return summary


@pytest.mark.parametrize("count,seed", [
    (0, 5), (1, 2**128), (CHUNK - 4, 11), (CHUNK - 3, 2**32 - 500),
    (2 * CHUNK + 5, 2**64 - 1000), (300, 2**128 - 150), (CHUNK, 2**64 - 3),
    (CHUNK + 1, 7)])
def test_run_search_keeps_every_bit_of_the_per_measure_draw(count, seed):
    # Chunk edges: CHUNK random members fill the first chunk, and one more
    # opens the second.  The reference blocks the designated measures with
    # the first random ones, and the search blocks them apart.
    cfg = SearchConfig(count=count, seed=seed)
    assert repr(asdict(run_search(cfg))) == repr(asdict(per_measure_search(cfg)))


def test_run_search_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_search(SearchConfig(count=3, seed=-1))


def search_peak(count):
    # A first search fills the process's memos (the region among them).
    run_search(SearchConfig(count=8))
    tracemalloc.start()
    try:
        run_search(SearchConfig(count=count, seed=3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_does_not_grow_with_count():
    # Drawing every measure first held about 0.65 kB a member: 6 140 members
    # peaked near 5.9 MiB, against 2.7 MiB for 1 020.  Six chunks now peak
    # where one does.
    one, six = search_peak(CHUNK - 4), search_peak(6 * CHUNK - 4)
    assert six < 3 * 2**20
    assert six <= one + 2**18
