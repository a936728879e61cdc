"""Special functions and sphere geometry used by the kernel reductions.

This is the package's one scipy touchpoint.  The gamma function comes from
the Python standard library (``math.gamma``); the two CDFs come from
``scipy.special``: ``ndtr`` for the normal CDF, which evaluates it to full
double precision, also in the lower tail, without a Python call per
element, and ``chndtr`` for the noncentral chi-squared CDF of the Gaussian
ball overlaps (``functionals._ball_overlap``).  ``scipy.special`` is loaded
on the first CDF call, not at import: it is most of the package's import
time and memory, and the kernel transforms, the Newton potential, the
divergence ladders and the bridge Monte Carlo never need it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "sphere_area",
    "ball_volume",
    "sin_power_antideriv",
    "norm_cdf",
    "noncentral_chi2_cdf",
]


@functools.cache
def _scipy_special():
    """``scipy.special``, imported once, on the first CDF call."""
    import scipy.special

    return scipy.special


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF, vectorized."""
    return _scipy_special().ndtr(np.asarray(x, dtype=float))


def noncentral_chi2_cdf(x, df, nc) -> np.ndarray:
    """P(chi'^2_df(nc) <= x), the noncentral chi-squared CDF, vectorized."""
    return _scipy_special().chndtr(x, df, nc)


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
