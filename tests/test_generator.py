import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secstar import cli, generator
from secstar.generator import (G_ORDER, CircleSample, ImageRegion, g_eval, g_series,
                               phi_eval, phi_global_bounds, phi_series,
                               radial_real_range, sample_circle)
from secstar.series import PowerSeries, elementary

TWO_SEC_ONE = 2.0 / math.cos(1.0)


def shift_up(s):
    """z * s: the order rises by one."""
    return PowerSeries(np.concatenate(([0.0], s.coeffs)))


def test_phi_at_origin_is_one():
    assert phi_eval(0) == 1


def test_phi_at_one_matches_real_part_cap():
    assert abs(phi_eval(1.0) - TWO_SEC_ONE) < 1e-14
    assert abs(phi_eval(1.0) - 4 * math.cos(1) / (1 + math.cos(2))) < 1e-14


def test_phi_at_i():
    # cos(i) = cosh(1), so phi(i) = (1+i)/cosh 1.
    expect = (1 + 1j) / math.cosh(1.0)
    assert abs(phi_eval(1j) - expect) < 1e-15


def test_phi_series_long_division_oracle():
    assert np.allclose(phi_series(5).coeffs,
                       [1, 1, 0.5, 0.5, 5 / 24, 5 / 24], atol=1e-15)
    assert np.array_equal(phi_series(0).coeffs, [1.0])


def test_phi_series_cross_checks_pointwise():
    s = phi_series(40)
    assert abs(s.evaluate(0.3) - phi_eval(0.3)) < 1e-10


def test_conjugate_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(z) >= 1:
            continue
        assert abs(phi_eval(np.conj(z)) - np.conj(phi_eval(z))) < 1e-13


def test_real_part_cap_identity():
    # 1 + cos 2 = 2 cos^2 1 forces 4cos1/(1+cos2) = 2/cos1.
    assert abs(4 * math.cos(1) / (1 + math.cos(2)) - 2 / math.cos(1)) < 1e-14


def test_log_derivative_series_identity():
    # z phi'/phi = z/(1+z) + z tan z at order 12.
    phi13 = phi_series(13)
    lhs = shift_up(phi13.derivative()) / phi13
    lhs = lhs.truncate(12)
    one_plus_z = PowerSeries([1, 1] + [0] * 11)
    term1 = elementary("identity", 12) / one_plus_z
    tan = elementary("sin", 11) / elementary("cos", 11)
    term2 = shift_up(tan)
    assert np.abs(lhs.coeffs - (term1 + term2).coeffs).max() < 1e-12


def test_radial_real_range_values():
    assert radial_real_range(0.0) == (1.0, 1.0)
    lo, hi = radial_real_range(0.5)
    assert abs(lo - 0.5 / math.cos(0.5)) < 1e-15
    assert abs(hi - 1.5 / math.cos(0.5)) < 1e-15
    assert abs(lo - 0.569746) < 1e-5 and abs(hi - 1.709236) < 1e-5


def test_radial_range_endpoints_attained():
    for r in (0.3, 0.7, 0.95):
        lo, hi = radial_real_range(r, verify=True)
        assert abs(phi_eval(-r).real - lo) < 1e-9
        assert abs(phi_eval(r).real - hi) < 1e-9


def test_radial_range_cap_toward_boundary():
    _, hi = radial_real_range(1 - 1e-9)
    assert abs(hi - TWO_SEC_ONE) < 1e-6


def test_radial_range_rejects_bad_radius():
    with pytest.raises(ValueError):
        radial_real_range(1.0)


def test_global_bounds():
    for samples in (256, 1024, 4096, 65536):
        b = phi_global_bounds(samples)
        assert b.re_min == 0.0
        assert abs(b.re_max - TWO_SEC_ONE) < 1e-14
        assert abs(b.im_abs_max - 1.6471) < 1e-3
        # sup |arg| = pi/2 is approached at the tip where the curve meets the origin
        assert abs(b.arg_abs_max - math.pi / 2) <= 2 * math.ulp(math.pi / 2), samples


def test_global_bounds_rejects_small_sample():
    with pytest.raises(ValueError):
        phi_global_bounds(100)


def test_gamma0_refined_value():
    # Frozen from an independent dense-scan + refine run.
    b = phi_global_bounds(8192)
    assert abs(b.im_abs_max - 1.6471005963788372) < 1e-9


def test_region_membership(image_region):
    assert image_region.winding_number(1.0) == 1
    assert image_region.winding_number(4.0) != 1
    assert image_region.winding_number(0.01) == 1


def test_region_contains_function():
    assert ImageRegion().winding_number(1.0) == 1
    assert ImageRegion().winding_number(4.0) != 1


def test_default_region_is_built_once_and_read_only():
    region = generator.image_region()
    assert generator.image_region() is region
    for a in (region.boundary, region._edges, region._psi):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_region_boundary_classification(image_region):
    w = phi_eval(cmath.exp(0.7j))
    assert image_region.distance_to_boundary(w) <= 1e-6
    for inside, w in ((True, 1.0), (False, 4.0)):
        assert image_region.distance_to_boundary(w) > 1e-6
        assert (image_region.winding_number(w) == 1) == inside


def boundary_pushes(rng, count):
    """Boundary points phi(e^{i theta}) pushed in and out by 1e-3, 1e-6 and
    1e-9 along the normal z phi'(z) of the curve, which runs counterclockwise."""
    z = np.exp(1j * rng.uniform(-math.pi, math.pi, count))
    normal = z * (np.cos(z) + (1 + z) * np.sin(z)) / np.cos(z) ** 2
    normal /= np.abs(normal)
    b = (1 + z) / np.cos(z)
    return np.concatenate([b + sign * eps * normal
                           for eps in (1e-3, 1e-6, 1e-9) for sign in (1, -1)])


def test_region_membership_agrees_with_winding(image_region):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 4.2, 300) + 1j * rng.uniform(-2.0, 2.0, 300)
    pts = np.concatenate([pts, boundary_pushes(rng, 100)])
    fast = image_region.contains_batch(pts)
    slow = np.array([image_region.winding_number(complex(p)) == 1 for p in pts])
    assert np.array_equal(fast, slow)


def test_region_membership_does_not_depend_on_the_first_vertex(monkeypatch):
    # Start the polygon at theta = 2 - pi instead of -pi, so arg(b - 1) no
    # longer starts at -pi: every sector must still be found.
    monkeypatch.setattr(generator, "_phi_values",
                        lambda z: (1 + z * cmath.exp(2j)) / np.cos(z * cmath.exp(2j)))
    region = ImageRegion()
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 4.2, 300) + 1j * rng.uniform(-2.0, 2.0, 300)
    slow = np.array([region.winding_number(complex(p)) == 1 for p in pts])
    assert np.array_equal(region.contains_batch(pts), slow)


def plain_lookup_contains(region, ws, boundary_tol=0.0):
    """contains_batch with searchsorted on the queries in their given order:
    the reference for the sorted lookup."""
    ws = np.asarray(ws, dtype=np.complex128).ravel()
    psi0 = region._psi[0]
    psi = psi0 + np.mod(np.angle(ws - 1.0) - psi0, 2.0 * math.pi)
    i = np.clip(np.searchsorted(region._psi, psi, side="right") - 1,
                0, region.boundary.size - 1)
    inside = (np.conj(region._edges[i]) * (ws - region.boundary[i])).imag > 0.0
    if boundary_tol > 0.0:
        for k in np.flatnonzero(~inside):
            inside[k] = region.distance_to_boundary(complex(ws[k])) <= boundary_tol
    return inside


def test_sorted_sector_lookup_matches_plain_lookup(image_region):
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 4.2, 50_000) + 1j * rng.uniform(-2.0, 2.0, 50_000)
    got = image_region.contains_batch(pts)
    assert got.tobytes() == plain_lookup_contains(image_region, pts).tobytes()
    # Both verdicts occur, so an index left in sorted order would show.
    assert 0 < got.sum() < got.size
    # The polygon's own vertices, where each key is one of the sorted angles,
    # and boundary points pushed in and out.
    cases = [(image_region.boundary, 0.0)]
    cases += [(boundary_pushes(rng, 200), tol) for tol in (0.0, 1e-4)]
    for pts, tol in cases:
        assert (image_region.contains_batch(pts, boundary_tol=tol).tobytes()
                == plain_lookup_contains(image_region, pts, tol).tobytes())


def test_non_finite_points_are_outside(image_region):
    bad = [math.inf, -math.inf, math.nan]
    pts = np.array([complex(a, b) for a in bad + [0.5, 2.0] for b in bad + [0.0]]
                   + [1.0, 2.0 + 0.5j])
    finite = np.isfinite(pts)
    # They never reach the edge test, so no RuntimeWarning is raised (the
    # suite turns one into an error).  The plain lookup does reach it.
    for tol in (0.0, 1e-4):
        got = image_region.contains_batch(pts, boundary_tol=tol)
        with np.errstate(invalid="ignore"):
            want = plain_lookup_contains(image_region, pts, tol)
        assert got.tobytes() == want.tobytes()
        assert not got[~finite].any()
        assert got[-2:].all()


def test_circle_sample_csv(capsys):
    s = sample_circle(1.0, 16)
    assert isinstance(s, CircleSample)
    assert s.count == 16
    assert np.all(np.diff(s.thetas) > 0)
    assert cli.main(["phi", "--circle", "1", "--samples", "16", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 17
    # samples are evaluations of phi
    for line in lines[1:]:
        theta, re, im = map(float, line.split(","))
        assert abs(phi_eval(cmath.exp(1j * theta)) - complex(re, im)) < 1e-12


# -- the primitive g --------------------------------------------------------


def test_g_at_zero():
    assert g_eval(0) == 0


def test_g_at_plus_minus_one_quadrature_oracle():
    # Frozen from an independent adaptive quadrature (scipy.integrate.quad).
    assert abs(g_eval(1.0).real - 1.5488053029155977) < 1e-9
    assert abs(g_eval(-1.0).real - -0.9035770388514365) < 1e-9
    assert abs(g_eval(1.0).imag) < 1e-12
    assert abs(g_eval(-1.0).imag) < 1e-12


def test_im_g_at_i_closed_form():
    # Along [0, i] the imaginary part of the integrand is sech s, so
    # Im g(i) = gd(1) = 2 atan(tanh 1/2).
    gd1 = 2.0 * math.atan(math.tanh(0.5))
    assert abs(g_eval(1j).imag - gd1) < 1e-10


@pytest.mark.parametrize("z,part,reference", [
    # 30-digit mpmath.quad values (notes/decisions.md section 1) and gd(1).
    (1.0, "real", 1.548805302915597586377),
    (-1.0, "real", -0.903577038851436555249),
    (1j, "imag", 0.8657694832396586242896),
])
def test_g_eval_within_two_ulp(z, part, reference):
    assert abs(getattr(g_eval(z), part) - reference) <= 2 * math.ulp(reference)


def two_evaluations_g(z):
    """g_eval as two PowerSeries.evaluate calls (np.polyval), the series and
    its truncation: the reference for g_eval's Horner rule on Python complexes."""
    s = generator.g_series(G_ORDER)
    full = s.evaluate(complex(z))
    if abs(full - s.truncate(G_ORDER - 16).evaluate(complex(z))) >= 1e-10:
        raise RuntimeError("series tail of g exceeds 1e-10")
    return full


def axis_points(t):
    """The points t and i t, with both signs of the zero part."""
    return [complex(t, 0.0), complex(t, -0.0), complex(0.0, t), complex(-0.0, t)]


def test_g_eval_is_two_series_evaluations():
    # On the axes every product in Horner's rule has a zero factor, so
    # Python's complex multiply and numpy's round alike (notes/decisions.md,
    # section 20): the bits are np.polyval's.
    rng = np.random.default_rng(14)
    ts = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, 5e-324, -1e-300]
    ts += [k / 100 for k in range(-100, 101)] + rng.uniform(-1, 1, 200).tolist()
    for t in ts:
        for z in axis_points(t):
            assert repr(g_eval(z)) == repr(two_evaluations_g(z))


@given(t=st.floats(-1.0, 1.0))
def test_g_eval_is_two_series_evaluations_on_the_axes(t):
    for z in axis_points(t):
        assert repr(g_eval(z)) == repr(two_evaluations_g(z))


@given(z=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_g_eval_is_two_series_evaluations_anywhere_in_the_disk(z):
    # Off the axes the two multiplies may round apart: 4.6e-16 at most seen.
    assert abs(g_eval(z) - two_evaluations_g(z)) <= 1e-15


@given(scale=st.floats(1e3, 1e5), radius=st.floats(0.9, 1.0),
       axis=st.sampled_from(range(4)))
def test_g_eval_tail_guard_decides_like_two_evaluations(scale, radius, axis):
    # The tail and the truncation's top coefficient, scaled up by 1e3-1e5,
    # put |full - truncation| on both sides of 1e-10: the guard's verdict
    # rests on the bits of both sums and on where the truncation ends.
    c = g_series(G_ORDER).coeffs.copy()
    c[G_ORDER - 16:] *= scale
    z = (radius, 1j * radius, -radius, -1j * radius)[axis]
    outcomes = []
    original = generator.g_series
    try:
        generator.g_series = lambda order: PowerSeries(c)
        for evaluate in (g_eval, two_evaluations_g):
            try:
                outcomes.append(repr(evaluate(z)))
            except RuntimeError as exc:
                outcomes.append(str(exc))
    finally:
        generator.g_series = original
    assert outcomes[0] == outcomes[1]


def test_g_series_first_coefficients():
    assert np.allclose(g_series(5).coeffs,
                       [0, 1, 0.25, 1 / 6, 5 / 96, 1 / 24], atol=1e-15)


def termwise_phi_series(order):
    """(1+z) built by hand, times 1/cos z: phi_series's former construction."""
    one_plus_z = PowerSeries(np.concatenate([[1.0, 1.0], np.zeros(max(order - 1, 0))])
                             if order >= 1 else [1.0])
    return one_plus_z * (1.0 / elementary("cos", order))


def termwise_g_series(order):
    """Coefficient k of g is q_k/k: g_series's former hand-written integral."""
    q = termwise_phi_series(order).coeffs
    c = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        c[1:] = q[1:] / np.arange(1, order + 1)
    return c


def test_series_engine_gives_the_termwise_bits():
    # phi_series and g_series run on PowerSeries arithmetic and integral();
    # both keep the bits of the hand-written formulas.
    for order in range(129):
        assert (phi_series(order).coeffs.tobytes()
                == termwise_phi_series(order).coeffs.tobytes()), order
        assert g_series(order).coeffs.tobytes() == termwise_g_series(order).tobytes(), order


def test_series_orders_below_zero_are_refused():
    for build in (phi_series, g_series):
        with pytest.raises(ValueError, match="order must be >= 0"):
            build(-1)


def test_g_series_derivative_identity():
    # z g'(z) = phi(z) - 1 at order 12.
    g = g_series(12)
    lhs = shift_up(g.derivative())
    rhs = phi_series(12) - 1.0
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12


def test_g_series_matches_gauss_legendre_inside_disk():
    # 32-node Gauss-Legendre rule for the integral along [0, z]; the nodes
    # never touch the removable singularity at t = 0.
    x, w = np.polynomial.legendre.leggauss(32)
    s = g_series(40)
    for z in (0.5, -0.5, 0.3 + 0.4j):
        t = z * (x + 1) / 2
        quad = z / 2 * np.sum(w * (1 + t - np.cos(t)) / (t * np.cos(t)))
        assert abs(s.evaluate(z) - quad) < 1e-9


def test_g_eval_rejects_outside_disk():
    with pytest.raises(ValueError):
        g_eval(2.0)


@pytest.mark.parametrize("z", [math.nan, complex(0.0, math.nan), complex(math.nan, 0.5),
                               complex(math.inf, math.nan)])
def test_g_eval_rejects_nan(z):
    with pytest.raises(ValueError, match="closed unit disk"):
        g_eval(z)
