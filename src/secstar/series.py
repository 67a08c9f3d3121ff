"""Truncated complex power-series arithmetic.

A :class:`PowerSeries` holds the coefficients ``c0..cN`` of a Maclaurin
expansion truncated at a fixed order ``N``.  All binary operations between
two series require *equal* orders; there is no silent padding or
broadcasting, because mismatched truncation orders are the classic silent
failure mode in series code.  Operations that genuinely change the degree
(``integral`` raises it by one, ``derivative`` lowers it by one) do so
explicitly, and :meth:`PowerSeries.truncate` lines orders up again.

Coefficients are stored as an immutable ``numpy`` array of ``complex128``.
Exactness claims elsewhere in the package mean "double precision", not
rational arithmetic.

Division, composition and the exponential run on batches: the ``*_rows``
kernels take ``(B, N+1)`` arrays whose rows are B series of one order and
transform every row at once.  :class:`PowerSeries` calls them with B = 1, so
a series built one at a time and row i of a batch agree to the last bit.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import numpy as np

__all__ = ["PowerSeries", "elementary", "exp_integral_lift", "div_rows",
           "compose_rows", "exp_rows", "lift_rows"]

#: Division refuses constant terms at or below this magnitude.
_DIV_FLOOR = 1e-300

_ELEMENTARY_KINDS = ("cos", "sin", "exp", "geometric", "identity")


class PowerSeries:
    """Immutable truncated power series with complex coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[complex]):
        c = np.array(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                     dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        c.flags.writeable = False
        object.__setattr__(self, "_c", c)

    # -- basic views ---------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array ``[c0, ..., cN]``."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __len__(self) -> int:
        return self._c.size

    def __getitem__(self, k: int) -> complex:
        return complex(self._c[k])

    def __repr__(self) -> str:
        return f"PowerSeries({self._c.tolist()!r})"

    def _require_same_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            return PowerSeries(self._c + other._c)
        c = self._c.copy()
        c[0] += other
        return PowerSeries(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            return PowerSeries(self._c - other._c)
        c = self._c.copy()
        c[0] -= other
        return PowerSeries(c)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return PowerSeries(-self._c)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            return PowerSeries(np.convolve(self._c, other._c)[: self._c.size])
        return PowerSeries(self._c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            return PowerSeries(div_rows(self._c[None], other._c[None])[0])
        return PowerSeries(self._c / other)

    def __rtruediv__(self, other):
        num = np.zeros(self._c.size, dtype=np.complex128)
        num[0] = other
        return PowerSeries(num) / self

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "PowerSeries":
        """Termwise derivative; the order drops by one."""
        if self.order == 0:
            return PowerSeries([0.0])
        return PowerSeries(self._c[1:] * np.arange(1, self._c.size))

    def integral(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant; order rises by one."""
        return PowerSeries(_integral_rows(self._c[None])[0])

    # -- composition and transcendental lifts ---------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Coefficients of self(inner(z)), truncated at the common order.

        ``inner`` must have constant term exactly zero, otherwise the
        composition of truncations is ill-defined.
        """
        self._require_same_order(inner)
        return PowerSeries(compose_rows(self._c, inner._c[None])[0])

    def exp(self) -> "PowerSeries":
        """Series exponential via the ODE recurrence g' = f'·g."""
        return PowerSeries(exp_rows(self._c[None])[0])

    def log(self) -> "PowerSeries":
        """Series logarithm (principal branch at the constant term): the
        integral of f'/f."""
        c0 = self._c[0]
        if abs(c0) <= _DIV_FLOOR:
            raise ZeroDivisionError("series log needs a nonzero constant term")
        if self.order == 0:
            return PowerSeries([cmath.log(c0)])
        return (self.derivative() / self.truncate(self.order - 1)).integral() + cmath.log(c0)

    # -- degree bookkeeping ----------------------------------------------

    def truncate(self, order: int) -> "PowerSeries":
        if not 0 <= order <= self.order:
            raise ValueError("truncate target outside [0, order]")
        return PowerSeries(self._c[: order + 1])

    # -- evaluation ------------------------------------------------------

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at ``z``.

        Accepts a scalar or a numpy array of points.
        """
        val = np.polyval(self._c[::-1], z)
        if np.ndim(val) == 0:
            return complex(val)
        return val

    __call__ = evaluate


def elementary(kind: str, order: int) -> PowerSeries:
    """Maclaurin expansion of a named elementary function.

    ``geometric`` is 1/(1-z); ``identity`` is z itself.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if kind not in _ELEMENTARY_KINDS:
        raise ValueError(f"unknown elementary kind {kind!r}")
    c = np.zeros(order + 1, dtype=np.complex128)
    if kind == "cos":
        for k in range(0, order + 1, 2):
            c[k] = (-1) ** (k // 2) / math.factorial(k)
    elif kind == "sin":
        for k in range(1, order + 1, 2):
            c[k] = (-1) ** ((k - 1) // 2) / math.factorial(k)
    elif kind == "exp":
        for k in range(order + 1):
            c[k] = 1.0 / math.factorial(k)
    elif kind == "geometric":
        c[:] = 1.0
    else:  # identity
        if order >= 1:
            c[1] = 1.0
    return PowerSeries(c)


def exp_integral_lift(q: PowerSeries) -> PowerSeries:
    """Normalized member with logarithmic derivative ``q``.

    Returns the series of ``f(z) = z * exp( integral_0^z (q(t)-1)/t dt )``,
    so that ``z f'(z)/f(z) = q(z)`` through the truncation order.  Requires
    ``q(0) = 1``; the result has ``f0 = 0`` and ``f1 = 1`` exactly.
    """
    return PowerSeries(lift_rows(q.coeffs[None])[0])


# -- row kernels -----------------------------------------------------------
#
# Each kernel maps (B, N+1) complex arrays to a (B, N+1) array, except
# _integral_rows, whose rows gain a term, and treats every row on its own:
# no row's result depends on B or on the other rows.


def div_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise quotients a / b by long division."""
    b0 = b[:, 0]
    if (np.abs(b0) <= _DIV_FLOOR).any():
        raise ZeroDivisionError("series division needs a nonzero constant term")
    out = np.empty(a.shape, dtype=np.complex128)
    out[:, 0] = a[:, 0] / b0
    for k in range(1, out.shape[1]):
        out[:, k] = (a[:, k] - (out[:, :k] * b[:, k:0:-1]).sum(axis=1)) / b0
    return out


def compose_rows(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Rows of outer(inner_i(z)) for one outer series and a batch of inners.

    Horner's scheme: each step is a truncated product with inner, done as
    one batched lower-triangular Toeplitz matrix-vector product.  Every
    inner constant term must be exactly zero, otherwise the composition of
    truncations is ill-defined.
    """
    if (inner[:, 0] != 0).any():
        raise ValueError("compose requires inner constant term exactly 0")
    n = outer.size
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    # C order: the matrix product then takes the same path for every B.
    toeplitz = np.ascontiguousarray(
        np.where(lag >= 0, inner[:, np.maximum(lag, 0)], 0.0))
    acc = np.zeros(inner.shape, dtype=np.complex128)
    acc[:, 0] = outer[-1]
    for k in range(n - 2, -1, -1):
        acc = np.matmul(toeplitz, acc[:, :, None])[:, :, 0]
        acc[:, 0] += outer[k]
    return acc


def exp_rows(f: np.ndarray) -> np.ndarray:
    """Row-wise series exponentials via the ODE recurrence g' = f'·g."""
    n = f.shape[1]
    fd = f[:, 1:] * np.arange(1, n)
    out = np.empty(f.shape, dtype=np.complex128)
    out[:, 0] = np.exp(f[:, 0])
    for k in range(n - 1):
        out[:, k + 1] = (fd[:, : k + 1] * out[:, k::-1]).sum(axis=1) / (k + 1)
    return out


def _integral_rows(c: np.ndarray) -> np.ndarray:
    """Row-wise termwise antiderivatives with zero constant: (B, N+2) rows."""
    out = np.zeros((c.shape[0], c.shape[1] + 1), dtype=np.complex128)
    out[:, 1:] = c / np.arange(1, c.shape[1] + 1)
    return out


def lift_rows(q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`exp_integral_lift`: rows of z exp(integral (q-1)/t)."""
    if (np.abs(q[:, 0] - 1.0) > 1e-9).any():
        raise ValueError("exp_integral_lift requires q(0) = 1")
    n = q.shape[1] - 1
    # (q(t)-1)/t integrated termwise: coefficient k is q_k / k.
    h = _integral_rows(q[:, 1:])
    out = np.zeros(q.shape, dtype=np.complex128)
    if n >= 1:
        out[:, 1:] = exp_rows(h)[:, :-1]
        out[:, 1] = 1.0
    return out
