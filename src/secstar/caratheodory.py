"""Positive-real-part functions: sampling, member synthesis, coefficient tools.

Finite atomic probability measures on the unit circle realize Caratheodory
functions p(z) = sum_k lambda_k (1 + x_k z)/(1 - x_k z), x_k = e^{-i theta_k},
with coefficients p_n = 2 sum_k lambda_k e^{-i n theta_k}.  Members of the
starlike class are synthesized from p through the Schwarz function
omega = (p-1)/(p+1), the substitution q = phi(omega), and the
exponential-integral lift.

Synthesis runs on batches: :func:`pack_measures` turns B measures into
zero-padded ``(B, MAX_ATOMS)`` arrays of weights lambda_k and atoms x_k (a
padding atom has weight 0 and x = 0, and trails the real ones), and the
``*_rows`` functions map those to ``(B, ...)`` arrays.  The coefficient
rows carry the padding atoms, whose terms are zero; the exact kernels skip
them and evaluate each member over its real atoms only, with the same bits.
The single-measure functions are batches of one.

Random measures are drawn per seed by :func:`sample_measure`, one numpy
Generator each, whose own ``rng.dirichlet`` draws the weights.
:func:`sample_rows` draws the same measures for a batch of seeds and returns
them packed: it reproduces numpy's seeding, PCG64 stream, atom count (with
Lemire's retries) and angles on arrays, leaves only the unit exponentials to
numpy, and scales them onto the simplex on arrays in the order numpy sums
them, so every bit is the same (``notes/decisions.md``, sections 21, 32
and 33).

Also here: the classical parametrization of an admissible coefficient prefix
(p1, p2, p3, p4) by a point (p, gamma, eta, rho), and the Hermitian-Toeplitz
positivity oracle that certifies such prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extremal import ClassMember
from .generator import _phi_values, phi_series
from .series import compose_rows, div_rows, lift_rows

__all__ = [
    "HerglotzMeasure",
    "sample_measure",
    "sample_rows",
    "measure_single_atom",
    "measure_equal_atoms",
    "BLOCK",
    "pack_measures",
    "p_rows",
    "member_rows",
    "log_derivative_rows",
    "p_eval_from_measure",
    "member_from_measure",
    "SchurPoint",
    "caratheodory_from_schur",
    "caratheodory_from_schur_printed",
    "coefficients_from_prefix",
    "toeplitz_min_eigenvalue",
    "toeplitz_psd_check",
]

MAX_ATOMS = 8

#: Members per synthesis block.  Composition holds a (B, N+1, N+1) matrix
#: stack, so blocks bound the memory of a large batch; results do not
#: depend on the block size.
BLOCK = 128


@dataclass(frozen=True)
class HerglotzMeasure:
    """Finite atomic probability measure on the circle: ((weight, angle), ...)."""

    atoms: tuple[tuple[float, float], ...]
    seed: int | None = None

    def __post_init__(self):
        if not 1 <= len(self.atoms) <= MAX_ATOMS:
            raise ValueError(f"atom count must lie in [1, {MAX_ATOMS}]")
        # Written so that a NaN weight fails too.
        w = [a[0] for a in self.atoms]
        if not (min(w) >= 0.0 and abs(sum(w) - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
        # A finite angle puts its atom x = e^{-i theta} on the circle, so
        # x != 0 marks exactly the real atoms of a packed measure.
        if not all(math.isfinite(a[1]) for a in self.atoms):
            raise ValueError("angles must be finite")


def sample_measure(rng_seed: int, max_atoms: int = MAX_ATOMS) -> HerglotzMeasure:
    """Seed-deterministic random measure: uniform atom count, uniform angles,
    flat simplex weights, each drawn by ``np.random.default_rng(rng_seed)``.

    :func:`sample_rows` draws the same measures for a batch of seeds.
    """
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must lie in [1, {MAX_ATOMS}]")
    rng = np.random.default_rng(rng_seed)
    count = int(rng.integers(1, max_atoms + 1))
    angles = rng.uniform(-math.pi, math.pi, count)
    weights = rng.dirichlet(np.ones(count))
    # Dirichlet can produce a weight a few ulp away from summing to 1.
    weights = weights / weights.sum()
    return HerglotzMeasure(atoms=tuple(zip(weights.tolist(), angles.tolist())),
                           seed=rng_seed)


# -- the same draws for a batch of seeds, on arrays -------------------------
#
# numpy's default_rng(seed) hashes the seed's 32-bit words with SeedSequence,
# seeds PCG64 from the hash, and sample_measure then takes one 64-bit output
# for the atom count (none when max_atoms = 1, more only when Lemire's
# method rejects both of its 32-bit halves) and one per angle.  All of that
# is integer arithmetic, reproduced here on arrays: uint32 for the hash, and
# the 128-bit LCG state as (high, low) uint64 limbs.  Only the
# exponentials stay numpy's: its ziggurat tables are not exposed, so each
# row's exponentials come from one Generator set to that row's state.

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants; its pool holds four 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as (high, low) limbs.
_PCG_MULT = (2549297995355413924, 4865540595714422341)


def _seed_pools(seeds: Sequence) -> list[np.ndarray]:
    """SeedSequence(seed).pool of every seed, as four (B,) uint32 words.

    A seed that is not an int in [0, 2**128) is hashed by numpy's own
    SeedSequence, which also raises numpy's error for a bad seed.
    """
    small = np.array([type(s) is int and 0 <= s < 1 << 128 for s in seeds],
                     dtype=bool)
    pool = np.empty((4, small.size), dtype=np.uint32)
    rest = np.flatnonzero(~small)
    if rest.size:
        pool[:, rest] = np.array(
            [np.random.SeedSequence(seeds[i]).pool for i in rest.tolist()]).T
    rows = np.flatnonzero(small)
    a = np.array([seeds[i] for i in rows.tolist()], dtype=object)
    # A seed's words, low first; the words past its highest nonzero one are
    # zero, which SeedSequence hashes as it hashes the pool's empty slots.
    words = [((a >> 32 * k) & _M32).astype(np.uint32) for k in range(4)]
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    mixer = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    pool[:, rows] = mixer
    return list(pool)


def _mul128(hi, lo, m_hi: int, m_lo: int):
    """(hi, lo) * (m_hi, m_lo) mod 2**128."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = m_lo & _M32, m_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + lo * m_hi + hi * m_lo, lo * m_lo


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _step(state, inc):
    """One step of PCG64's LCG: state * multiplier + inc."""
    return _add128(_mul128(*state, *_PCG_MULT), inc)


def _output(state) -> np.ndarray:
    """PCG64's XSL-RR output of a state: the 64-bit draw it yields."""
    hi, lo = state
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_seeded(pool: list[np.ndarray]):
    """PCG64's (state, inc) after seeding from SeedSequence pools."""
    h = _INIT_B
    words = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h
        words.append((v ^ (v >> 16)).astype(np.uint64))
    # generate_state(4, np.uint64): pairs of words, low word first.
    val = [words[2 * k] | (words[2 * k + 1] << 32) for k in range(4)]
    inc = ((val[2] << 1) | (val[3] >> 63), (val[3] << 1) | 1)
    state = _add128(inc, (val[0], val[1]))
    return _step(state, inc), inc


def _circle_points(angles: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Atoms x_k = e^{-i theta_k} of padded angle rows; padding atoms are 0."""
    present = np.arange(MAX_ATOMS) < counts[:, None]
    return np.where(present, np.exp(-1j * angles), 0.0)


def sample_rows(seeds: Sequence[int], max_atoms: int = MAX_ATOMS
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The measures ``sample_measure(seed, max_atoms)`` draws, for a batch of
    seeds: atom counts (B,), and weights, angles and atoms x = e^{-i theta}
    as (B, MAX_ATOMS) arrays padded with zeros.

    The bits are those of ``pack_measures`` on the sampled measures.  A
    bad seed raises the error ``np.random.default_rng`` raises for it.
    """
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must lie in [1, {MAX_ATOMS}]")
    return _draw_rows(*_pcg64_seeded(_seed_pools(seeds)), max_atoms)


def _draw_rows(state, inc, max_atoms: int):
    """sample_rows from each row's PCG64 (state, inc) as uint64 limbs."""
    n = state[0].size
    counts = np.ones(n, dtype=int)
    if max_atoms > 1:
        # Generator.integers: Lemire's method on 32-bit draws, rejecting a
        # leftover below 2**32 mod max_atoms (0 for 2, 4 and 8).  The draws
        # are the low half of a 64-bit output, then its high half, then the
        # next output's low half, and so on.
        threshold = (1 << 32) % max_atoms
        state = _step(state, inc)
        out = _output(state)
        high = np.zeros(n, dtype=bool)
        m = (out & _M32) * max_atoms
        while (again := (m & _M32) < threshold).any():
            step = again & high
            nxt = _step(state, inc)
            state = (np.where(step, nxt[0], state[0]), np.where(step, nxt[1], state[1]))
            out = np.where(step, _output(state), out)
            high ^= again
            m = np.where(again, np.where(high, out >> 32, out & _M32) * max_atoms, m)
        counts += (m >> 32).astype(int)
    angles = np.zeros((n, MAX_ATOMS))
    end = state
    for k in range(max_atoms):
        state = _step(state, inc)
        # Generator.uniform: low + range * next_double.
        u = (_output(state) >> 11) * 2.0**-53
        angles[:, k] = np.where(k < counts, -math.pi + 2.0 * math.pi * u, 0.0)
        # Each row's exponentials start from the state after its last angle.
        last = counts == k + 1
        end = (np.where(last, state[0], end[0]), np.where(last, state[1], end[1]))

    # The exponentials stay numpy's: one Generator, set to each row's state,
    # fills the row's first count entries of a zero-padded buffer.
    rng = np.random.default_rng(0)
    bits = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    e = np.zeros((n, MAX_ATOMS))
    for i, (c, hi, lo, inc_hi, inc_lo) in enumerate(zip(
            counts.tolist(), end[0].tolist(), end[1].tolist(),
            inc[0].tolist(), inc[1].tolist())):
        pcg["inc"] = (inc_hi << 64) | inc_lo
        pcg["state"] = (hi << 64) | lo
        bits.state = full
        rng.standard_exponential(out=e[i, :c])
    weights = _simplex_rows(e, counts == MAX_ATOMS)
    return counts, weights, angles, _circle_points(angles, counts)


def _simplex_rows(e: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Zero-padded (B, MAX_ATOMS) unit exponentials scaled onto the simplex
    as ``sample_measure`` scales them; ``full`` marks the rows with MAX_ATOMS
    of them.

    ``rng.dirichlet`` multiplies the exponentials by the reciprocal of their
    left-to-right sum, and ``sample_measure`` divides the result by its
    ``sum()``.  Both sums run over every column: a padding +0 added to a
    positive sum leaves its bits, so each is the sum of the row's real
    entries.
    """
    # rng.dirichlet's running sum, one column at a time.
    total = e[:, 0].copy()
    for k in range(1, MAX_ATOMS):
        total += e[:, k]
    weights = e * (1.0 / total)[:, None]
    # ndarray.sum adds fewer than eight terms left to right, and eight as
    # ((w0 + w1) + (w2 + w3)) + ((w4 + w5) + (w6 + w7)).
    w = weights.T
    total = w[0].copy()
    for k in range(1, MAX_ATOMS - 1):
        total += w[k]
    pairs = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
    weights /= np.where(full, pairs, total)[:, None]
    return weights


def measure_single_atom(angle: float) -> HerglotzMeasure:
    return HerglotzMeasure(atoms=((1.0, float(angle)),))


def measure_equal_atoms(k: int) -> HerglotzMeasure:
    """k equal atoms at the k-th roots of unity; the Schwarz function is z^k."""
    if not 1 <= k <= MAX_ATOMS:
        raise ValueError(f"k must lie in [1, {MAX_ATOMS}]")
    angles = [2.0 * math.pi * j / k for j in range(k)]
    angles = [math.remainder(a, 2.0 * math.pi) for a in angles]
    return HerglotzMeasure(atoms=tuple((1.0 / k, a) for a in angles))


def pack_measures(measures: Sequence[HerglotzMeasure]) -> tuple[np.ndarray, np.ndarray]:
    """Weights lambda_k (float) and atoms x_k = e^{-i theta_k} (complex) of B
    measures, as (B, MAX_ATOMS) arrays padded with zeros."""
    weights = np.zeros((len(measures), MAX_ATOMS))
    angles = np.zeros((len(measures), MAX_ATOMS))
    counts = np.empty(len(measures), dtype=int)
    for i, m in enumerate(measures):
        counts[i] = len(m.atoms)
        weights[i, : counts[i]], angles[i, : counts[i]] = zip(*m.atoms)
    return weights, _circle_points(angles, counts)


def p_rows(weights: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """(B, order+1) coefficients p_n = 2 sum_k lambda_k x_k^n; p_0 = 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    powers = np.cumprod(np.broadcast_to(x[:, :, None], x.shape + (order,)), axis=2)
    out = np.empty((x.shape[0], order + 1), dtype=np.complex128)
    out[:, 0] = 1.0
    out[:, 1:] = 2.0 * (weights[:, :, None] * powers).sum(axis=1)
    return out


def member_rows(weights: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """(B, order+1) member coefficients: omega = (p-1)/(p+1), q = phi(omega), lift."""
    p = p_rows(weights, x, order)
    num, den = p.copy(), p.copy()
    num[:, 0] -= 1.0
    den[:, 0] += 1.0
    omega = div_rows(num, den)
    return lift_rows(compose_rows(phi_series(order), omega))


def _kernel_rows(weights: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(B, Z) exact kernel values sum_k lambda_k (1 + x_k z)/(1 - x_k z).

    Rows with the same atom count are evaluated together over their real
    atoms only.  A padding atom's term is +0, and numpy adds a middle axis
    in order, so the values are the padded sum's bits.  At a single point z
    the atom axis is the contiguous one, which numpy adds pairwise; there
    the padding changes the grouping, so every row keeps all its columns.
    """
    counts = (np.count_nonzero(x, axis=1) if z.size > 1
              else np.full(x.shape[0], x.shape[1]))
    out = np.empty((x.shape[0], z.size), dtype=np.complex128)
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        xz = x[rows, :k, None] * z
        kernel = 1.0 + xz
        kernel /= 1.0 - xz
        kernel *= weights[rows, :k, None]
        out[rows] = kernel.sum(axis=1)
    return out


def log_derivative_rows(weights: np.ndarray, x: np.ndarray, radius: float,
                        count: int) -> np.ndarray:
    """(B, count) values of z f'/f for each member on |z| = radius.

    By construction z f'/f = phi(omega(z)) identically, so the values are
    computed from the exact kernel representation of p; this avoids the
    truncation drift a finite series ratio would show near the boundary.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    z = radius * np.exp(1j * np.linspace(-math.pi, math.pi, count, endpoint=False))
    p = _kernel_rows(weights, x, z)
    return _phi_values((p - 1.0) / (p + 1.0))


def p_eval_from_measure(m: HerglotzMeasure, z) -> np.ndarray:
    """Exact kernel evaluation sum_k lambda_k (1 + x_k z)/(1 - x_k z).

    Unlike the truncated series this is positive-real-part for every |z| < 1,
    which matters near the boundary where truncation tails dominate.
    Raises ValueError unless every z is finite with |z| < 1.
    """
    z = np.asarray(z, dtype=np.complex128)
    # NaN fails the comparison, and an infinite z has |z| = inf.
    if not (np.abs(z) < 1.0).all():
        raise ValueError("p_eval_from_measure needs finite z with |z| < 1")
    return _kernel_rows(*pack_measures([m]), z.ravel())[0].reshape(z.shape)


def member_from_measure(m: HerglotzMeasure, order: int) -> ClassMember:
    """Synthesize a class member: omega = (p-1)/(p+1), q = phi(omega), lift."""
    return ClassMember(member_rows(*pack_measures([m]), order)[0],
                       provenance=(f"herglotz-sample:seed={m.seed}"
                                   if m.seed is not None else "herglotz-manual"))


@dataclass(frozen=True)
class SchurPoint:
    """Parameter point (p, gamma, eta, rho) for an admissible coefficient prefix."""

    p: float
    gamma: complex
    eta: complex
    rho: complex

    def __post_init__(self):
        if not 0.0 <= self.p <= 2.0:
            raise ValueError("p must lie in [0, 2]")
        for name in ("gamma", "eta", "rho"):
            if not abs(getattr(self, name)) <= 1.0 + 1e-12:  # NaN fails too
                raise ValueError(f"|{name}| must be <= 1")


def caratheodory_from_schur(pt: SchurPoint | tuple) -> tuple[complex, complex, complex, complex]:
    """First four coefficients (p1, p2, p3, p4) parametrized by a SchurPoint.

    Also takes a tuple (p, gamma, eta, rho) of equal-shaped arrays and
    returns arrays; a SchurPoint gives Python complex values.

    The rho summand of p4 carries the factor (1 - |eta|^2).  The source
    material prints (1 - |gamma|^2) there, which admits inadmissible
    prefixes (e.g. (0, 0, 2, 2), whose moment matrix has eigenvalue
    -1.236): the degenerate case |p3| = 2 with p1 = p2 = 0 forces the
    three-fold symmetric kernel and hence p4 = 0.  The corrected factor is
    also the one the downstream determinant expansion is consistent with.
    """
    one_point = isinstance(pt, SchurPoint)
    p, g, e, r = (pt.p, pt.gamma, pt.eta, pt.rho) if one_point else pt
    # |z| through hypot, as abs(complex) computes it; np.abs can be an ulp off.
    g_sq = np.hypot(np.real(g), np.imag(g)) ** 2
    e_sq = np.hypot(np.real(e), np.imag(e)) ** 2
    t = 4.0 - p * p
    p1 = p + 0j
    p2 = 0.5 * (p * p + g * t)
    p3 = 0.25 * (p**3 + 2.0 * t * p * g - t * p * g * g
                 + 2.0 * t * (1.0 - g_sq) * e)
    p4 = 0.125 * (p**4 + t * g * (p * p * (g * g - 3.0 * g + 3.0) + 4.0 * g)
                  - 4.0 * t * (1.0 - g_sq)
                  * (p * (g - 1.0) * e + np.conj(g) * e * e - (1.0 - e_sq) * r))
    if one_point:
        return p1, p2, complex(p3), complex(p4)
    return p1, p2, p3, p4


def caratheodory_from_schur_printed(pt: SchurPoint) -> tuple[complex, complex, complex, complex]:
    """The parametrization with the rho factor exactly as printed.

    Kept so reports can demonstrate that the printed form breaks moment
    positivity; see :func:`caratheodory_from_schur`.
    """
    p, g, e, r = pt.p, pt.gamma, pt.eta, pt.rho
    t = 4.0 - p * p
    p1, p2, p3, _ = caratheodory_from_schur(pt)
    p4 = 0.125 * (p**4 + t * g * (p * p * (g * g - 3.0 * g + 3.0) + 4.0 * g)
                  - 4.0 * t * (1.0 - abs(g) ** 2)
                  * (p * (g - 1.0) * e + np.conj(g) * e * e
                     - (1.0 - abs(g) ** 2) * r))
    return p1, p2, p3, complex(p4)


def coefficients_from_prefix(p1, p2, p3, p4):
    """Member coefficients (a2, a3, a4, a5) from a Caratheodory prefix.

    The coefficient comparison of z f' = f q under q = phi(omega) with
    omega = (p-1)/(p+1).
    """
    a2 = p1 / 2.0
    a3 = (p1 * p1 + 4.0 * p2) / 16.0
    a4 = (p1**3 + 4.0 * p1 * p2 + 16.0 * p3) / 96.0
    a5 = (-p1**4 + 4.0 * p1 * p1 * p2 + 4.0 * p1 * p3 + 24.0 * p4) / 192.0
    return a2, a3, a4, a5


def toeplitz_min_eigenvalue(p_coeffs: Sequence[complex], size: int) -> float:
    """Smallest eigenvalue of the Hermitian Toeplitz moment matrix.

    The matrix has 2 on the diagonal and p_1 .. p_{size-1} on the
    superdiagonals.
    """
    p = [complex(v) for v in p_coeffs]
    if size < 1 or size > len(p) + 1:
        raise ValueError("size must lie in [1, len(p_coeffs) + 1]")
    T = np.empty((size, size), dtype=np.complex128)
    for i in range(size):
        T[i, i] = 2.0
        for j in range(i + 1, size):
            T[i, j] = p[j - i - 1]
            T[j, i] = np.conj(p[j - i - 1])
    return float(np.linalg.eigvalsh(T).min())


def toeplitz_psd_check(p_coeffs: Sequence[complex], size: int,
                       floor: float = -1e-9) -> bool:
    """Positive-semidefiniteness of the Hermitian Toeplitz moment matrix.

    Eigenvalues are allowed to dip to ``floor`` to absorb double-precision
    eigensolver noise.
    """
    return toeplitz_min_eigenvalue(p_coeffs, size) >= floor
