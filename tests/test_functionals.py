import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secstar import functionals
from secstar.caratheodory import (measure_equal_atoms, member_from_measure,
                                  sample_measure)
from secstar.extremal import ClassMember, build_extremal
from secstar.functionals import (K1, MAX_RADIUS, SUPERBLOCK_ROWS, THETA_SAMPLES,
                                 an_bound, coefficient_sum_margin, compute_report,
                                 convolution_margin, fs_bound,
                                 sufficient_coefficient_check)
from secstar.generator import RE_MAX, _phi_values
from secstar.series import PowerSeries


def identity_member(order=8):
    c = np.zeros(order + 1)
    c[1] = 1.0
    return ClassMember(PowerSeries(c), provenance="manual")


def test_identity_member_report():
    rep = compute_report(identity_member())
    assert rep.h22 == 0 and rep.h31 == 0
    assert rep.t21 == 1.0 and rep.t31 == 1.0
    assert all(rep.flags.values())


def test_principal_extremal_report():
    rep = compute_report(build_extremal(2, 8))
    assert abs(rep.h22 - 1 / 48) < 1e-15
    assert abs(rep.t21) < 1e-15
    assert abs(rep.t31 - (-1 / 16)) < 1e-15
    assert abs(rep.fs[0.0] - 0.75) < 1e-15
    # a5 = 5/12 exceeds the claimed 1/3: reported, not enforced.
    assert not rep.flags["a5_le_third"]
    assert rep.enforced_flags_pass()


def test_sharp_hankel_values_through_members():
    f3 = member_from_measure(measure_equal_atoms(2), 8)
    assert abs(abs(compute_report(f3).h22) - 0.25) < 1e-12
    f4 = member_from_measure(measure_equal_atoms(3), 8)
    assert abs(abs(compute_report(f4).h31) - 1 / 9) < 1e-12


def test_report_requires_order_five():
    with pytest.raises(ValueError):
        compute_report(identity_member(order=4))


def test_fs_bound_branches():
    assert fs_bound(0.0) == 0.75
    assert fs_bound(1.0) == 0.5
    assert fs_bound(2.0) == 1.25
    assert fs_bound(0.25) == 0.5 and fs_bound(1.25) == 0.5


def test_fs_inequality_on_extremal_grid():
    f = build_extremal(2, 8)
    a2, a3 = f.a(2), f.a(3)
    for mu in np.linspace(-1.0, 3.0, 101):
        assert abs(a3 - mu * a2 * a2) <= fs_bound(float(mu)) + 1e-9


def test_coefficient_sum_margin_identity_member():
    margin = coefficient_sum_margin(identity_member())
    assert abs(margin - (4 - math.cos(1.0) ** 2)) < 1e-15
    assert abs(margin - 3.7080734182735711) < 1e-12


def test_coefficient_sum_margin_extremal_frozen():
    # Frozen from a direct sum over the order-8 coefficients.
    margin = coefficient_sum_margin(build_extremal(2, 8))
    assert abs(margin - 5.1710682382046009) < 1e-12


def test_an_bound_values_and_domain():
    expect4 = math.sqrt((4 - K1) / (16 * K1 - 4))
    assert abs(an_bound(4) - expect4) < 1e-15
    assert abs(an_bound(4) - 2.351091021407249) < 1e-12
    for n in (2, 3):
        with pytest.raises(ValueError, match="corollary inapplicable"):
            an_bound(n)


def test_convolution_margin_identity_member():
    # For the identity the expression is 1 - phi(e^{i theta}) for every z,
    # so the margin is the distance of the boundary curve from w = 1.
    margin = convolution_margin(identity_member(), theta_samples=720,
                                z_radii=8, z_angles=32)
    assert abs(margin - 0.62933413153623885) < 1e-6


def test_convolution_margin_extremal_positive():
    f = build_extremal(2, 32)
    margin = convolution_margin(f, theta_samples=360, z_radii=12, z_angles=48)
    assert margin > 0


def test_sufficient_coefficient_check_unsatisfiable():
    ok, worst = sufficient_coefficient_check(identity_member())
    assert not ok
    assert abs(worst - 4 * math.cos(1) / (1 + math.cos(2))) < 1e-12


def test_t21_unit_iff_a2_zero():
    f3 = member_from_measure(measure_equal_atoms(2), 8)
    rep = compute_report(f3)
    assert abs(rep.a2) < 1e-15 and abs(rep.t21 - 1.0) < 1e-15
    rep2 = compute_report(build_extremal(2, 8))
    assert rep2.t21 < 1.0


# -- the per-theta oracles ----------------------------------------------------
#
# The convolution expression used to be summed term by term for each theta:
# one (N-1)-vector of (n - phi_t) a_n and one matrix-vector product with the
# powers z^{n-1}.  The library now evaluates it as f'(z) - phi_t f(z)/z.


def per_theta_convolution_values(member, thetas, zs):
    phi_t = _phi_values(np.exp(1j * thetas))
    a = member.coeffs.coeffs
    order = member.order
    zpow = zs[None, :] ** np.arange(1, order)[:, None] if order >= 2 else None
    out = np.empty((thetas.size, zs.size), dtype=np.complex128)
    for i, pt in enumerate(phi_t):
        acc = np.full(zs.size, 1.0 - pt, dtype=np.complex128)
        if order >= 2:
            coef = (np.arange(2, order + 1) - pt) * a[2:]
            acc = acc + coef @ zpow
        out[i] = acc
    return np.abs(out)


def hand_horner(member, zs):
    """f(z)/z and f'(z) by one hand-written Horner pass over both series:
    the reference for _series_on_grid, which evaluates PowerSeries."""
    a = member.coeffs.coeffs
    f_over_z = np.full(zs.shape, a[-1], dtype=np.complex128)
    df = member.order * f_over_z
    for n in range(member.order - 1, 0, -1):
        f_over_z = f_over_z * zs + a[n]
        df = df * zs + n * a[n]
    return f_over_z, df


def scaled_member(order, scale, seed):
    """A member whose a_2..a_N have modulus up to about ``scale``."""
    rng = np.random.default_rng(seed)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    c[2:] = scale * np.exp(1j * rng.uniform(-math.pi, math.pi, order - 1)) * rng.uniform(
        0.0, 1.0, order - 1)
    return ClassMember(PowerSeries(c))


def test_series_on_grid_is_the_hand_horner_bit_for_bit():
    thetas, zs = margin_grid(360, 24, 96)
    members = [build_extremal(n, order) for n in range(2, 9) for order in (8, 16, 32, 64)
               if order >= n]
    members += [member_from_measure(sample_measure(seed), order)
                for seed in range(20) for order in (1, 2, 5, 16, 64)]
    # Near the float limit some products overflow to inf or NaN, alike in both.
    members += [scaled_member(order, scale, seed) for seed, scale in enumerate(
        (1e300, 1e305, 1e307, 1e308, 1.7e308)) for order in (2, 3, 9)]
    with np.errstate(all="ignore"):
        for member in members:
            got = functionals._series_on_grid(member, zs)
            want = hand_horner(member, zs)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def per_theta_sufficient_check(member):
    thetas = np.linspace(-math.pi, math.pi, THETA_SAMPLES, endpoint=False)
    phi_t = _phi_values(np.exp(1j * thetas))
    a = member.coeffs.coeffs
    n = np.arange(2, member.order + 1)
    worst = 0.0
    for pt in phi_t:
        val = float(np.dot(np.abs(n - pt), np.abs(a[2:]))) + RE_MAX
        worst = max(worst, val)
    return worst < 1.0, worst


def term_scale(member, thetas, zs):
    """sum_n n |a_n| |z|^{n-1} + |phi_t| sum_n |a_n| |z|^{n-1} on the grid:
    the size of the terms whose sum is the convolution expression."""
    absa = np.abs(member.coeffs.coeffs[1:])
    n = np.arange(1, member.order + 1)
    powers = np.abs(zs)[None, :] ** (n - 1)[:, None]
    df = (n * absa) @ powers
    f_over_z = absa @ powers
    return df[None, :] + np.abs(_phi_values(np.exp(1j * thetas)))[:, None] * f_over_z


ORACLE_MEMBERS = ([f"f{n}" for n in range(2, 9)]
                  + [f"sampled-order{order}" for order in (5, 16, 32)])


def oracle_member(name):
    """f2..f8 at order 32, or the member of the measure seeded by its order."""
    if name.startswith("f"):
        return build_extremal(int(name[1:]), 32)
    order = int(name.removeprefix("sampled-order"))
    return member_from_measure(sample_measure(order), order)


def convolution_values(member, thetas, zs):
    """The (T, Z) value array whose argmin the row search finds: one
    full-length ``_row_values`` row per theta."""
    phi_t = _phi_values(np.exp(1j * thetas))
    f_over_z, df = functionals._series_on_grid(member, zs)
    out = np.empty((thetas.size, zs.size))
    row = np.empty(zs.size, dtype=np.complex128)
    for pt, dst in zip(phi_t, out):
        functionals._row_values(pt, f_over_z, df, row, dst)
    return out


def full_argmin(values):
    """(i, j, value) of numpy's C-order argmin over a (T, Z) value array."""
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return int(i), int(j), values[i, j]


def assert_same_argmin(got, want):
    assert (got[0], got[1], float(got[2]).hex()) == (want[0], want[1],
                                                     float(want[2]).hex())


@pytest.mark.parametrize("grid", [(THETA_SAMPLES, 24, 96), (360, 8, 32)],
                         ids=["default", "360x8x32"])
@pytest.mark.parametrize("name", ORACLE_MEMBERS)
def test_convolution_margin_matches_per_theta_oracle(name, grid, monkeypatch):
    member = oracle_member(name)
    row_search = functionals._grid_argmin
    searches = []

    def checked(m, thetas, zs):
        vals = convolution_values(m, thetas, zs)
        ref = per_theta_convolution_values(m, thetas, zs)
        # Near the minimum the terms cancel to 1e-3 of their size or less, so
        # both sums carry rounding error relative to the terms, not to the
        # value: the bound is scaled by the terms.
        assert np.all(np.abs(vals - ref) <= 1e-13 * term_scale(m, thetas, zs))
        return vals

    def checked_search(m, thetas, zs):
        # The row search finds the cell, and the bits, of the full array's
        # argmin.
        found = row_search(m, thetas, zs)
        assert_same_argmin(found, full_argmin(checked(m, thetas, zs)))
        searches.append((thetas.size, zs.size))
        return found

    monkeypatch.setattr(functionals, "_grid_argmin", checked_search)
    margin = convolution_margin(member, *grid)
    # The coarse grid, then the 17 x (9 x 17) refinement around its argmin.
    assert searches == [(grid[0], grid[1] * grid[2]), (17, 153)]
    monkeypatch.setattr(functionals, "_grid_argmin",
                        lambda m, thetas, zs: full_argmin(
                            per_theta_convolution_values(m, thetas, zs)))
    assert abs(margin - convolution_margin(member, *grid)) <= 1e-15
    assert margin > 0


def margin_grid(theta_samples, z_radii, z_angles):
    """The coarse theta and z grids of convolution_margin."""
    thetas = np.linspace(-math.pi, math.pi, theta_samples, endpoint=False)
    radii = np.linspace(MAX_RADIUS / z_radii, MAX_RADIUS, z_radii)
    angles = np.linspace(-math.pi, math.pi, z_angles, endpoint=False)
    return thetas, (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


@functools.lru_cache(maxsize=None)
def grid_member(name):
    return identity_member() if name == "identity" else oracle_member(name)


def search_recording_rows(member, thetas, zs):
    """_grid_argmin's (i, j, value), and the rows it evaluated, in order.  A
    row whose phi repeats is taken as the first copy not yet evaluated: the
    copies have the same values."""
    phi_t = _phi_values(np.exp(1j * thetas))
    evaluate = functionals._row_values
    seen = []

    def recorded(pt, *args):
        rows = [int(i) for i in np.flatnonzero(phi_t == pt) if i not in seen]
        assert rows, "a row evaluated twice"
        seen.append(rows[0])
        return evaluate(pt, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "_row_values", recorded)
        found = functionals._grid_argmin(member, thetas, zs)
    return found, seen


def assert_rows_left_out_lie_above(member, thetas, zs):
    """The search finds the full array's argmin, and every row it did not
    evaluate has all its values strictly above the value it returned."""
    found, rows = search_recording_rows(member, thetas, zs)
    values = convolution_values(member, thetas, zs)
    assert_same_argmin(found, full_argmin(values))
    left_out = np.ones(thetas.size, dtype=bool)
    left_out[rows] = False
    assert np.all(values[left_out].min(axis=1) > found[2])


@settings(max_examples=60)
@given(name=st.sampled_from(["identity", *ORACLE_MEMBERS]),
       blocks=st.integers(0, 20), extra=st.integers(1, SUPERBLOCK_ROWS - 1),
       z_radii=st.integers(2, 12), z_angles=st.integers(2, 40))
def test_row_search_matches_full_argmin(name, blocks, extra, z_radii, z_angles):
    # T is never a multiple of the superblock size, so the last superblock is
    # short, and with no whole superblock there is only the short one; the
    # identity member's rows are constant in z, so every z of a row ties.
    assert_rows_left_out_lie_above(grid_member(name),
                                   *margin_grid(blocks * SUPERBLOCK_ROWS + extra,
                                                z_radii, z_angles))


@pytest.mark.parametrize("grid", [(THETA_SAMPLES, 24, 96), (360, 8, 32)],
                         ids=["default", "360x8x32"])
@pytest.mark.parametrize("name", ORACLE_MEMBERS)
def test_rows_left_out_hold_only_values_above_the_minimum(name, grid):
    assert_rows_left_out_lie_above(grid_member(name), *margin_grid(*grid))


@settings(max_examples=40)
@given(theta=st.floats(-3.0, 3.0), gap=st.floats(1e-3, 0.3), beyond=st.floats(0.1, 3.0))
def test_rows_tied_across_superblocks_go_to_the_lowest(theta, gap, beyond):
    # The first superblock holds only phi_a and phi_b, so its disk has them
    # at the ends of a diameter.  A quadratic member puts f'(z) z / f(z) at
    # z = 1/2 on their line, beyond phi_b, where that disk's bound equals row
    # b's value in exact arithmetic; rounded, it is above it in about half
    # of these grids.  The second superblock repeats row b with a disk of
    # radius 0, so its bound is exact and the seed row is one of its copies
    # of row b.  Row 1 ties with that seed and is the lowest minimum: only
    # the slack lets the first superblock in.
    thetas = np.array([theta, theta + gap] + [theta] * (SUPERBLOCK_ROWS - 2)
                      + [theta + gap] * 2)
    phi_a, phi_b = _phi_values(np.exp(1j * thetas[:2]))
    w = phi_b + beyond * (phi_b - phi_a)
    member = ClassMember(PowerSeries(np.array([0, 1, 2 * (w - 1) / (2 - w)])))
    assert_rows_left_out_lie_above(member, thetas, np.array([0.5 + 0j]))


@pytest.mark.parametrize("a2", [1e307, 1e308])
def test_row_search_evaluates_every_row_where_values_may_overflow(a2):
    # 8 (max|f'| + max|phi| max|f/z|) is past the float range, so no bound is
    # trusted.  At a2 = 1e308, 55 of the 360 rows hold NaNs, and the first
    # NaN in C order wins, as in numpy's argmin.
    member = ClassMember(PowerSeries([0, 1, a2, 0, 0, 0]))
    thetas, zs = margin_grid(360, 4, 6)
    with np.errstate(all="ignore"):
        assert_same_argmin(functionals._grid_argmin(member, thetas, zs),
                           full_argmin(convolution_values(
                               member, thetas, zs)))


def test_row_search_skips_blocks_for_the_extremals():
    # Each of f2..f8 evaluates fewer than a tenth of the coarse rows, none
    # twice.
    thetas, zs = margin_grid(THETA_SAMPLES, 24, 96)
    for n in range(2, 9):
        rows = search_recording_rows(build_extremal(n, 32), thetas, zs)[1]
        assert len(rows) < THETA_SAMPLES // 10, n


def test_convolution_margin_memory_does_not_grow_with_theta_samples():
    # The (T, Z) value array of the coarse grid took 127 MiB at T = 7200.
    f2 = build_extremal(2, 32)
    tracemalloc.start()
    try:
        convolution_margin(f2, theta_samples=7200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("name", ORACLE_MEMBERS)
def test_sufficient_coefficient_check_matches_per_theta_oracle(name):
    member = oracle_member(name)
    ok, worst = sufficient_coefficient_check(member)
    ref_ok, ref_worst = per_theta_sufficient_check(member)
    assert ok is ref_ok is False
    assert abs(worst - ref_worst) <= 1e-14
