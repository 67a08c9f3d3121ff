"""Exact rational Maclaurin coefficients: the oracle for the float series."""

import math
from fractions import Fraction


def sec_fractions(order):
    """sec z to the given order, from sec * cos = 1 (the Euler numbers:
    s_2k = |E_2k| / (2k)!, and the odd terms vanish)."""
    sec = [Fraction(1)] + [Fraction(0)] * order
    for m in range(2, order + 1, 2):
        sec[m] = -sum(Fraction((-1) ** (k // 2), math.factorial(k)) * sec[m - k]
                      for k in range(2, m + 1, 2))
    return sec


def phi_fractions(order):
    """(1 + z) sec z to the given order: phi_m = s_m + s_{m-1}."""
    sec = sec_fractions(order)
    return [sec[0]] + [sec[m] + sec[m - 1] for m in range(1, order + 1)]


def g_fractions(order):
    """The primitive g to the given order: g_0 = 0 and g_k = phi_k / k."""
    return [Fraction(0)] + [q / k for k, q in enumerate(phi_fractions(order)[1:], 1)]
