import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secstar.caratheodory import (DRAWS, MAX_ATOMS, HerglotzMeasure, SchurPoint,
                                  caratheodory_from_schur,
                                  log_derivative_rows, measure_equal_atoms,
                                  measure_single_atom, member_from_measure,
                                  p_eval_from_measure, p_rows, pack_measures,
                                  sample_measure, sample_rows,
                                  toeplitz_psd_check)


def test_p_series_single_atom_zero():
    p = p_rows(*pack_measures([measure_single_atom(0.0)]), 5)[0]
    assert np.allclose(p, [1, 2, 2, 2, 2, 2], atol=1e-15)


def test_p_series_single_atom_pi():
    p = p_rows(*pack_measures([measure_single_atom(math.pi)]), 5)[0]
    assert np.allclose(p, [1, -2, 2, -2, 2, -2], atol=1e-13)


def test_p_series_two_atoms_is_even_kernel():
    p = p_rows(*pack_measures([measure_equal_atoms(2)]), 6)[0]
    assert np.allclose(p, [1, 0, 2, 0, 2, 0, 2], atol=1e-13)


def test_member_single_atom_is_principal_extremal():
    f = member_from_measure(measure_single_atom(0.0), 8)
    assert np.allclose(f.coeffs.real,
                       [0, 1, 1, 0.75, 7 / 12, 5 / 12, 0.3,
                        0.20821759259259257, 0.14482473544973545],
                       atol=1e-12)


def test_member_two_atoms_matches_square_extremal():
    f = member_from_measure(measure_equal_atoms(2), 8)
    assert np.allclose(f.coeffs.real,
                       [0, 1, 0, 0.5, 0, 0.25, 0, 1 / 6, 0], atol=1e-13)


def test_member_atom_at_pi_is_rotation():
    f = member_from_measure(measure_single_atom(math.pi), 8)
    assert abs(f.a(2) - (-1.0)) < 1e-13


def test_measure_validation():
    with pytest.raises(ValueError):
        HerglotzMeasure(atoms=())
    with pytest.raises(ValueError):
        HerglotzMeasure(atoms=((0.5, 0.0),))
    with pytest.raises(ValueError):
        HerglotzMeasure(atoms=tuple((1 / 9, 0.1 * i) for i in range(9)))


def test_measure_rejects_a_negative_or_nan_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        HerglotzMeasure(atoms=((1.25, 0.0), (-0.25, 1.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        HerglotzMeasure(atoms=((1.0, 0.0), (-1e-300, 1.0)))
    for atoms in (((math.nan, 0.0),), ((1.0, 0.0), (math.nan, 1.0))):
        with pytest.raises(ValueError):
            HerglotzMeasure(atoms=atoms)


def test_measure_rejects_a_non_finite_angle():
    for bad in (math.nan, math.inf, -math.inf):
        for atoms in (((1.0, bad),), ((0.5, 0.0), (0.5, bad))):
            with pytest.raises(ValueError, match="angles must be finite"):
                HerglotzMeasure(atoms=atoms)


@pytest.mark.parametrize("z", [1.0, 2.0, -1.0, 1j, complex(0.6, 0.8), math.nan,
                               complex(math.inf, 0.0), complex(0.0, math.nan),
                               np.array([0.1, 1.0]), np.array([[0.5j], [math.inf]])])
def test_kernel_evaluation_rejects_z_off_the_open_disk(z):
    # At z = 1 a single atom at 0 used to give NaN, and at z = 2 the value -3.
    with pytest.raises(ValueError, match=r"\|z\| < 1"):
        p_eval_from_measure(measure_single_atom(0.0), z)


def test_kernel_evaluation_inside_the_disk():
    m = measure_single_atom(0.0)
    assert p_eval_from_measure(m, 0.5) == 3.0
    assert p_eval_from_measure(m, np.array([0.0, -0.5])).tolist() == [1.0, 1.0 / 3.0]
    assert p_eval_from_measure(m, np.zeros((0,))).shape == (0,)


def test_measure_weight_sum_tolerance_is_1e_12():
    HerglotzMeasure(atoms=((0.5 + 0.9e-12, 0.0), (0.5, 1.0)))
    HerglotzMeasure(atoms=((0.5 - 0.9e-12, 0.0), (0.5, 1.0)))
    for off in (1.1e-12, -1.1e-12):
        with pytest.raises(ValueError, match="sum to 1"):
            HerglotzMeasure(atoms=((0.5 + off, 0.0), (0.5, 1.0)))


def test_sample_measure_deterministic():
    a = sample_measure(1234)
    b = sample_measure(1234)
    assert a == b
    assert a.seed == 1234


def test_sample_measure_forced_single_atom():
    m = sample_measure(0, max_atoms=1)
    assert len(m.atoms) == 1
    assert abs(m.atoms[0][0] - 1.0) < 1e-15


def dirichlet_measure(rng_seed, max_atoms=8):
    """numpy's own draw from default_rng(rng_seed), written out: the
    reference sample_measure must equal."""
    rng = np.random.default_rng(rng_seed)
    count = int(rng.integers(1, max_atoms + 1))
    angles = rng.uniform(-math.pi, math.pi, count)
    weights = rng.dirichlet(np.ones(count))
    weights = weights / weights.sum()
    return HerglotzMeasure(atoms=tuple(zip(weights.tolist(), angles.tolist())),
                           seed=rng_seed)


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=300)
def test_sample_measure_is_the_dirichlet_draw(seed):
    # Every max_atoms: one draw in eight at max_atoms = 8 has 8 atoms, where
    # np.sum adds pairwise rather than in the running order of rng.dirichlet.
    for max_atoms in range(1, 9):
        assert (repr(sample_measure(seed, max_atoms))
                == repr(dirichlet_measure(seed, max_atoms))), max_atoms


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=200)
def test_sample_measure_invariants(seed):
    m = sample_measure(seed)
    w, angles = map(np.array, zip(*m.atoms))
    assert 1 <= len(m.atoms) <= 8
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert ((angles >= -math.pi) & (angles < math.pi)).all()


# -- sample_rows: the search's stream -------------------------------------------


def stream_measures(seed, start, stop):
    """Members start..stop-1 read off default_rng(seed) one double at a time:
    DRAWS doubles a member, and per member its count, angles and weights."""
    rng = np.random.default_rng(seed)
    rng.random(DRAWS * start)
    out = []
    for _ in range(start, stop):
        u = [float(rng.random()) for _ in range(DRAWS)]
        count = 1 + int(u[0] * MAX_ATOMS)
        angles = [-math.pi + 2.0 * math.pi * v for v in u[1:1 + count]]
        e = [-math.log1p(-v) for v in u[1 + MAX_ATOMS:1 + MAX_ATOMS + count]]
        out.append((count, [v / math.fsum(e) for v in e], angles))
    return out


def assert_rows_are_the_stream(seed, start, stop):
    counts, weights, angles, x = sample_rows(seed, start, stop)
    for i, (count, want_w, want_angles) in enumerate(stream_measures(seed, start, stop)):
        assert counts[i] == count
        assert angles[i, :count].tolist() == want_angles
        # The rows add the exponentials pairwise, the reference exactly.
        assert np.allclose(weights[i, :count], want_w, rtol=2e-15, atol=0)
        assert x[i, :count].tolist() == np.exp(-1j * angles[i, :count]).tolist()


@given(st.integers(0, 2**200), st.integers(0, 200), st.integers(0, 12))
@settings(max_examples=60)
def test_sample_rows_are_the_sampled_measures(seed, start, length):
    # Seeds of one to seven 32-bit words, all seeded by numpy itself.
    assert_rows_are_the_stream(seed, start, start + length)


def test_sample_rows_at_word_boundaries():
    # Each side of 2**32, 2**64 and 2**128: one more seed word.
    for seed in [0, 1] + [2**b + d for b in (32, 64, 128) for d in range(-2, 3)]:
        assert_rows_are_the_stream(seed, 0, 40)
        assert_rows_are_the_stream(seed, 1000, 1003)


def test_sample_rows_of_no_seed():
    # An empty range of members.
    for start in (0, 7):
        counts, weights, angles, x = sample_rows(3, start, start)
        assert counts.shape == (0,)
        assert weights.shape == angles.shape == x.shape == (0, MAX_ATOMS)


@given(st.integers(0, 2**130), st.lists(st.integers(0, 3000), min_size=3, max_size=3))
@settings(max_examples=80)
def test_sample_rows_join_across_any_split(seed, cuts):
    # Members i..k-1 and k..j-1 drawn apart are members i..j-1 drawn at once.
    i, k, j = sorted(cuts)
    apart = zip(sample_rows(seed, i, k), sample_rows(seed, k, j))
    for (left, right), whole in zip(apart, sample_rows(seed, i, j)):
        assert np.concatenate([left, right]).tobytes() == whole.tobytes()


@given(st.integers(0, 2**64), st.integers(0, 10**12))
@settings(max_examples=100)
def test_sample_rows_invariants(seed, start):
    counts, weights, angles, x = sample_rows(seed, start, start + 64)
    assert ((counts >= 1) & (counts <= MAX_ATOMS)).all()
    assert (weights >= 0).all()
    assert (np.abs(weights.sum(axis=1) - 1.0) <= 1e-12).all()
    present = np.arange(MAX_ATOMS) < counts[:, None]
    assert ((angles[present] >= -math.pi) & (angles[present] < math.pi)).all()
    assert (weights[present] > 0).all()
    assert not weights[~present].any() and not angles[~present].any()
    assert not x[~present].any()
    assert np.allclose(np.abs(x[present]), 1.0, rtol=0, atol=1e-15)


def test_sample_rows_atom_counts_are_uniform():
    # 80 000 members: each count's tally within 5 sigma of n / MAX_ATOMS.
    n = 80_000
    tally = np.bincount(sample_rows(0xC0FFEE, 0, n)[0], minlength=MAX_ATOMS + 1)
    assert tally[0] == 0 and tally.sum() == n
    p = 1.0 / MAX_ATOMS
    assert (np.abs(tally[1:] - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))).all()


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 1.0, np.True_, "3"])
def test_sample_rows_rejects_seeds_as_numpy_does(seed):
    with pytest.raises(Exception) as want:
        np.random.default_rng(seed)
    with pytest.raises(type(want.value)) as got:
        sample_rows(seed, 0, 3)
    assert str(got.value) == str(want.value)


def test_sample_rows_takes_the_seeds_numpy_takes():
    # A Python bool or a numpy integer seeds the stream like the int it equals.
    for seed, equal in [(True, 1), (False, 0), (np.int64(7), 7),
                        (np.uint64(2**63 + 5), 2**63 + 5)]:
        for got, want in zip(sample_rows(seed, 3, 40), sample_rows(equal, 3, 40)):
            assert got.tobytes() == want.tobytes()


def test_exact_kernel_positive_real_part():
    # Re p > 0 holds for the exact kernel evaluation on the whole grid;
    # the truncated series cannot promise this near |z| = 0.95 (tails of a
    # single-atom kernel reach O(1) there), so positivity is asserted on
    # the exact form and, at a safe radius, on the series.
    radii = 0.95 * np.arange(1, 33) / 32
    angles = np.linspace(-math.pi, math.pi, 32, endpoint=False)
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    for seed in range(200):
        m = sample_measure(seed)
        assert p_eval_from_measure(m, grid).real.min() > 0
    inner = (0.7 * np.arange(1, 17) / 16)[:, None] * np.exp(1j * angles)[None, :]
    for seed in range(50):
        m = sample_measure(seed)
        p = p_rows(*pack_measures([m]), 16)[0]
        assert p[0] == 1.0
        assert np.polyval(p[::-1], inner.ravel()).real.min() > 0


def test_subordination_containment_sampled(image_region):
    for seed in range(150):
        m = sample_measure(seed)
        w = log_derivative_rows(*pack_measures([m]), 0.95, 64)[0]
        assert image_region.contains_batch(w, boundary_tol=1e-4).all()


# -- coefficient-prefix parametrization --------------------------------------


def test_schur_koebe_like_point():
    out = caratheodory_from_schur(SchurPoint(p=2.0, gamma=0.3, eta=0.1, rho=0.5))
    assert np.allclose(out, [2, 2, 2, 2], atol=1e-15)


def test_schur_even_kernel_point():
    out = caratheodory_from_schur(SchurPoint(p=0.0, gamma=1.0, eta=0.0, rho=0.0))
    assert np.allclose(out, [0, 2, 0, 2], atol=1e-15)


def test_schur_cubed_kernel_point():
    out = caratheodory_from_schur(SchurPoint(p=0.0, gamma=0.0, eta=1.0, rho=0.0))
    assert np.allclose(out, [0, 0, 2, 0], atol=1e-15)


def test_schur_gamma_zero_specialization():
    pt = SchurPoint(p=1.3, gamma=0.0, eta=0.2 + 0.1j, rho=-0.4)
    _, p2, _, _ = caratheodory_from_schur(pt)
    assert abs(2 * p2 - 1.3**2) < 1e-15


def test_schur_point_validation():
    with pytest.raises(ValueError):
        SchurPoint(p=2.5, gamma=0, eta=0, rho=0)
    with pytest.raises(ValueError):
        SchurPoint(p=1.0, gamma=1.5, eta=0, rho=0)


@pytest.mark.parametrize("value", [complex("nan"), complex("nanj"), math.inf,
                                   complex(0.5, -math.inf), float("nan")])
@pytest.mark.parametrize("name", ["gamma", "eta", "rho"])
def test_schur_point_rejects_non_finite_parameters(name, value):
    # abs(nan) > 1 is False, so a check written that way admitted NaN and
    # caratheodory_from_schur returned NaN p2..p4.
    params = dict(p=1.0, gamma=0.5, eta=0.5, rho=0.0)
    params[name] = value
    with pytest.raises(ValueError, match=f"\\|{name}\\| must be <= 1"):
        SchurPoint(**params)


def test_toeplitz_psd_on_genuine_kernel():
    assert toeplitz_psd_check([2, 2, 2, 2], 5)


def test_toeplitz_psd_rejects_oversized_p1():
    assert not toeplitz_psd_check([3, 0, 0, 0], 3)


def test_toeplitz_psd_size_validation():
    with pytest.raises(ValueError):
        toeplitz_psd_check([2, 2], 4)


@given(st.floats(0, 2), st.floats(0, 1), st.floats(0, 2 * math.pi),
       st.floats(0, 1), st.floats(0, 2 * math.pi),
       st.floats(0, 1), st.floats(0, 2 * math.pi))
@settings(max_examples=300)
def test_schur_points_give_psd_prefixes(p, rg, ag, re, ae, rr, ar):
    pt = SchurPoint(p=p, gamma=rg * np.exp(1j * ag), eta=re * np.exp(1j * ae),
                    rho=rr * np.exp(1j * ar))
    p1, p2, p3, p4 = caratheodory_from_schur(pt)
    assert toeplitz_psd_check([p1, p2, p3, p4], 5)


def test_measures_give_psd_prefixes():
    for seed in range(100):
        m = sample_measure(seed)
        p = p_rows(*pack_measures([m]), 8)[0]
        assert toeplitz_psd_check(p[1:].tolist(), 5)
