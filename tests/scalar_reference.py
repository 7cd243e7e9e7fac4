"""Scalar reference for the closed forms of pairflux.kernel.

The kernel's formulas written one omega at a time with the math module,
as the package evaluated them before its kernel took arrays.  Branch
points give nan instead of raising.  Tests compare the package against
these numbers within a rounding tolerance, since numpy's log and complex
arithmetic may round the last digit differently from libm's.
"""

import cmath
import math

import numpy as np

NAN = complex(math.nan, math.nan)
EPS = np.finfo(float).eps


def green_function(w):
    a = abs(1.0 - w)
    if a == 0.0 or abs(1.0 + w) == 0.0:
        return NAN
    re = (1.0 + 0.5 * w * math.log(a / abs(1.0 + w))) / math.pi
    return complex(re, 0.5 * w if abs(w) < 1.0 else 0.0)


def shifted_green_function(w, mass):
    a = abs(2.0 * mass - w)
    if a == 0.0:
        return NAN
    re = (1.0 + 0.5 * w * math.log(a / abs(1.0 + w))) / math.pi
    return complex(re, 0.5 * w if w < 2.0 * mass else 0.0)


def effective_green_function(w, mass=None):
    g = green_function(w)
    return g if mass is None else g - shifted_green_function(w, mass)


def emission_rate(w, v, mass=None, floor=1e-12):
    """(rate, condition): the pair rate and 1 + |v^2 G*G| / |1 - v^2 G*G|,
    the factor by which the resolvent amplifies rounding errors."""
    if w == 0.0 or w == 1.0:
        return 0.0, 1.0
    g_w = effective_green_function(w, mass)
    g_p = effective_green_function(1.0 - w, mass)
    if cmath.isnan(g_w) or cmath.isnan(g_p):
        return math.nan, 1.0
    numerator = (v / (2.0 * math.pi)) ** 2 * 4.0 * g_w.imag * g_p.imag
    if numerator == 0.0:
        return 0.0, 1.0
    product = v * v * g_w.conjugate() * g_p
    factor = abs(1.0 - product)
    if factor < floor:
        return math.inf, math.inf
    try:
        square = factor**2
    except OverflowError:  # a square past the float range: the rate is 0
        square = math.inf
    return numerator / square, 1.0 + abs(product) / factor


def rates(omega, v, mass=None):
    """emission_rate over an iterable of omega, as two arrays."""
    rate, condition = zip(*(emission_rate(float(w), v, mass) for w in omega))
    return np.array(rate), np.array(condition)


def assert_close(got, want, condition, scale=8.0):
    """got equals want to scale * eps * condition, relative; zero, inf and
    nan cells must match exactly."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    exact = ~np.isfinite(want) | (want == 0.0)
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    err = np.abs(got[~exact] - want[~exact])
    condition = np.broadcast_to(np.asarray(condition, dtype=float), want.shape)
    bound = scale * EPS * condition[~exact] * np.abs(want[~exact])
    assert (err <= bound).all(), float((err / bound).max())
