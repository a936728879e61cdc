"""Special functions and sphere geometry used by the kernel reductions.

The gamma function comes from the Python standard library (``math.gamma``)
and the normal CDF from ``scipy.special.ndtr``, which evaluates it to full
double precision, also in the lower tail, without a Python call per
element.  The regularized lower incomplete
gamma function is implemented here with the classic series / continued
fraction pair (series for y < a+1, modified Lentz continued fraction
otherwise), accurate to ~1e-14 relative over the parameter range we use
(a = k/2 for small integer k).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = [
    "gammainc_lower_reg",
    "chi2_cdf",
    "sphere_area",
    "ball_volume",
    "sin_power_antideriv",
    "norm_cdf",
]

_MAX_ITER = 400
_TINY = 1e-300


def _gamma_series(a: float, y: float) -> float:
    # P(a, y) = y^a e^-y / Gamma(a) * sum_{n>=0} y^n / (a (a+1) ... (a+n))
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= y / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-y + a * math.log(y) - math.lgamma(a))


def _gamma_contfrac(a: float, y: float) -> float:
    # Q(a, y) via Lentz's method on the standard continued fraction.
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / max(b, _TINY)
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-y + a * math.log(y) - math.lgamma(a))


def gammainc_lower_reg(a: float, y: float) -> float:
    """Regularized lower incomplete gamma P(a, y) = gamma(a, y) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    if y < a + 1.0:
        return _gamma_series(a, y)
    return 1.0 - _gamma_contfrac(a, y)


def chi2_cdf(k: int, x) -> np.ndarray:
    """CDF of the chi-squared distribution with k degrees of freedom.

    Vectorized in x.  Used for the cross-sectional mass of an isotropic
    Gaussian inside a ball (slice decomposition).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    if np.any(pos):
        a = 0.5 * k
        out[pos] = np.array([gammainc_lower_reg(a, 0.5 * xi) for xi in np.atleast_1d(x[pos])])
    return out


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF, vectorized."""
    return ndtr(np.asarray(x, dtype=float))


def sphere_area(m: int) -> float:
    """Surface area of the unit sphere S^m embedded in R^{m+1}.

    sphere_area(0) = 2 (two points), sphere_area(1) = 2*pi,
    sphere_area(2) = 4*pi, ...
    """
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def ball_volume(d: int, r: float = 1.0) -> float:
    """Volume of the d-dimensional ball of radius r."""
    if d < 1:
        raise ValueError("ball dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d


def sin_power_antideriv(m: int, psi) -> np.ndarray:
    """Antiderivative of sin^m on [0, pi] for m in {0, ..., 4}.

    These cover the angular weights sin^{d-3} and sin^{d-2} for d = 3..6;
    larger powers are integrated numerically where needed.
    """
    psi = np.asarray(psi, dtype=float)
    if m == 0:
        return psi
    if m == 1:
        return -np.cos(psi)
    if m == 2:
        return 0.5 * (psi - np.sin(psi) * np.cos(psi))
    if m == 3:
        c = np.cos(psi)
        return c**3 / 3.0 - c
    if m == 4:
        return 0.375 * psi - 0.25 * np.sin(2.0 * psi) + np.sin(4.0 * psi) / 32.0
    raise ValueError(f"sin_power_antideriv supports m in 0..4, got {m}")
