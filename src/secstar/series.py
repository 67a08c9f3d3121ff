"""Truncated complex power series as coefficient arrays.

A series truncated at order N is the ``complex128`` array ``[c0, ..., cN]``
of its Maclaurin coefficients.  The series the package memoises and shares
(``generator.phi_series``, ``g_series``, ``ClassMember.coeffs``) are
read-only arrays.  Exactness claims elsewhere in the package mean "double
precision", not rational arithmetic.

The ``*_rows`` kernels take ``(B, N+1)`` arrays whose rows are B series of
one order and transform every row at once: a series computed alone (B = 1)
and row i of a batch agree to the last bit.  A kernel given two series
requires both of one width.  Mismatched truncation orders are the classic
silent failure mode in series code, so it neither pads nor broadcasts them.
``integral`` and ``derivative`` act along the last axis of any array.  The
truncated product of two series is ``np.convolve(a, b)[:N+1]`` and the
value at z is ``np.polyval(c[::-1], z)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["elementary", "div_rows", "compose_rows", "exp_rows", "log_rows",
           "lift_rows", "integral", "derivative"]

#: Division refuses constant terms at or below this magnitude.
_DIV_FLOOR = 1e-300

_ELEMENTARY_KINDS = ("cos", "sec", "sin", "exp", "geometric", "identity")


def elementary(kind: str, order: int) -> np.ndarray:
    """Maclaurin expansion of a named elementary function.

    ``sec`` is 1/cos z, by long division; ``geometric`` is 1/(1-z);
    ``identity`` is z itself.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if kind not in _ELEMENTARY_KINDS:
        raise ValueError(f"unknown elementary kind {kind!r}")
    c = np.zeros(order + 1, dtype=np.complex128)
    if kind == "sec":
        c[0] = 1.0
        return div_rows(c[None], elementary("cos", order)[None])[0]
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
    elif order >= 1:  # identity
        c[1] = 1.0
    return c


def integral(c: np.ndarray) -> np.ndarray:
    """Termwise antiderivatives with zero constant along the last axis,
    which gains a term."""
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=np.complex128)
    out[..., 1:] = c / np.arange(1, c.shape[-1] + 1)
    return out


def derivative(c: np.ndarray) -> np.ndarray:
    """Termwise derivatives along the last axis, which loses a term."""
    return c[..., 1:] * np.arange(1, c.shape[-1])


# -- row kernels -----------------------------------------------------------
#
# Each kernel maps (B, N+1) complex arrays to a (B, N+1) array and treats
# every row on its own: no row's result depends on B or on the other rows.


def _require_same_width(what: str, a_width: int, b_width: int) -> None:
    if a_width != b_width:
        raise ValueError(f"{what} needs series of one width: got {a_width} and {b_width}")


def div_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise quotients a / b by long division."""
    _require_same_width("series division", np.shape(a)[-1], np.shape(b)[-1])
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
    _require_same_width("compose", np.shape(outer)[-1], np.shape(inner)[-1])
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
    fd = derivative(f)
    out = np.empty(f.shape, dtype=np.complex128)
    out[:, 0] = np.exp(f[:, 0])
    for k in range(f.shape[1] - 1):
        out[:, k + 1] = (fd[:, : k + 1] * out[:, k::-1]).sum(axis=1) / (k + 1)
    return out


def log_rows(f: np.ndarray) -> np.ndarray:
    """Row-wise series logarithms, principal branch at the constant term:
    the integral of f'/f."""
    c0 = f[:, 0]
    if (np.abs(c0) <= _DIV_FLOOR).any():
        raise ZeroDivisionError("series log needs a nonzero constant term")
    out = (integral(div_rows(derivative(f), f[:, :-1])) if f.shape[1] > 1
           else np.empty(f.shape, dtype=np.complex128))
    out[:, 0] = np.log(c0)
    return out


def lift_rows(q: np.ndarray) -> np.ndarray:
    """The lift: rows of z exp(integral_0^z (q(t)-1)/t dt), the members with
    z f'/f = q, f0 = 0 and f1 = 1 exactly.  Requires q(0) = 1."""
    if (np.abs(q[:, 0] - 1.0) > 1e-9).any():
        raise ValueError("the lift requires q(0) = 1")
    n = q.shape[1] - 1
    # (q(t)-1)/t integrated termwise: coefficient k is q_k / k.
    h = integral(q[:, 1:])
    out = np.zeros(q.shape, dtype=np.complex128)
    if n >= 1:
        out[:, 1:] = exp_rows(h)[:, :-1]
        out[:, 1] = 1.0
    return out
