"""Divergence diagnosis for improper integrals from truncated evaluations.

An adaptive integrator cannot tell a slowly convergent integral from a
slowly divergent one, so norms suspected of being infinite are never judged
from a single quadrature.  Instead the truncated value V(R) is computed on
an increasing radius ladder and its growth is classified:

    log model:   V(R) ~ slope * ln R + const
    power model: V(R) ~ const + B * R^slope

The log model is fitted on the values directly (affine in ln R, so any
constant offset is absorbed).  The power model is fitted on consecutive
increments, ln dV ~ slope * ln R + const, which likewise cancels the
offset; for a geometric radius ladder a clean power tail gives an exactly
geometric increment sequence.

A positive slope with r^2 >= 0.99 under either model (and non-vanishing
increments) is ruled divergent; tail increments settling below tolerance
are ruled convergent; anything else is inconclusive.

Where the truncation is an integration range, ``shell_sum`` makes each rung
integrate only its new shell and add it to a running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .quadrature import Estimate, Status

__all__ = [
    "Verdict", "GrowthModel", "GrowthDiagnosis", "growth_diagnosis", "shell_sum", "verdict_estimate"
]

_R2_THRESHOLD = 0.99


class Verdict(str, Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


class GrowthModel(str, Enum):
    LOG_FIT = "log-fit"
    POWER_FIT = "power-fit"


@dataclass(frozen=True)
class GrowthDiagnosis:
    radii: tuple[float, ...]
    values: tuple[float, ...]
    model: GrowthModel
    slope: float
    r_squared: float
    verdict: Verdict


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2; a perfect constant fit reports r^2 = 1."""
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(np.dot(xm, xm))
    syy = float(np.dot(ym, ym))
    if sxx == 0.0:
        return 0.0, 1.0
    slope = float(np.dot(xm, ym)) / sxx
    if syy == 0.0:
        return slope, 1.0
    resid = ym - slope * xm
    r2 = 1.0 - float(np.dot(resid, resid)) / syy
    return slope, r2


def growth_diagnosis(
    truncated: Callable[[float], object],
    radii: Sequence[float],
    abs_tol: float = 0.0,
    rel_tol: float = 0.02,
) -> GrowthDiagnosis:
    """Diagnose convergence of radius -> truncated-integral values.

    ``truncated`` maps a radius to either an Estimate or a plain float.
    Radii must be strictly increasing with at least 4 entries.  Convergence
    requires the last two increments to shrink below
    max(abs_tol, rel_tol * |last value|).
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError("growth diagnosis needs at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")

    raw = [truncated(r) for r in radii]
    values = tuple(float(getattr(v, "value", v)) for v in raw)
    if any(math.isinf(v) for v in values):
        return GrowthDiagnosis(
            radii, values, GrowthModel.POWER_FIT, math.inf, 1.0, Verdict.DIVERGENT
        )

    v = np.asarray(values, dtype=float)
    lnr = np.log(np.asarray(radii))
    slope_log, r2_log = _linfit(lnr, v)

    deltas = np.diff(v)
    mid_lnr = 0.5 * (lnr[1:] + lnr[:-1])
    if np.all(deltas > 0.0):
        slope_pow, r2_pow = _linfit(mid_lnr, np.log(deltas))
    else:
        slope_pow, r2_pow = 0.0, -math.inf

    # report the better-fitting model, preferring one that indicates growth
    candidates = [(GrowthModel.LOG_FIT, slope_log, r2_log), (GrowthModel.POWER_FIT, slope_pow, r2_pow)]
    growing = [cand for cand in candidates if cand[1] > 0.0 and cand[2] >= _R2_THRESHOLD]
    model, slope, r2 = max(growing or candidates, key=lambda cand: cand[2])

    increments = np.abs(deltas)
    tol = max(abs_tol, rel_tol * abs(v[-1]))
    tail_settled = increments.size >= 2 and increments[-1] <= tol and increments[-2] <= tol

    if tail_settled:
        verdict = Verdict.CONVERGENT
    elif growing and increments[-1] > tol:
        verdict = Verdict.DIVERGENT
    else:
        verdict = Verdict.INCONCLUSIVE
    return GrowthDiagnosis(radii, values, model, slope, r2, verdict)


def verdict_estimate(diag: GrowthDiagnosis) -> Estimate:
    """The Estimate a growth verdict stands for.

    DIVERGENT gives the +inf sentinel with DIVERGED status.  Otherwise the
    last truncation is the value and the last increment its error bound;
    the status is CONVERGED only for a CONVERGENT verdict.
    """
    if diag.verdict is Verdict.DIVERGENT:
        return Estimate(math.inf, math.inf, Status.DIVERGED)
    status = Status.CONVERGED if diag.verdict is Verdict.CONVERGENT else Status.MAX_SUBDIVISIONS_REACHED
    return Estimate(diag.values[-1], abs(diag.values[-1] - diag.values[-2]), status)


def shell_sum(
    shell: Callable[[float, float], Estimate], start: float
) -> Callable[[float], Estimate]:
    """The truncation R -> integral over [start, R], one new shell per call.

    Each call adds ``shell(previous radius, R)`` to the running total and
    returns it; for a nonnegative integrand the sum meets the relative
    tolerance each shell meets.  Radii not above the previous raise ValueError.
    """
    last = start
    total = Estimate(0.0, 0.0, Status.CONVERGED)

    def truncated(radius: float) -> Estimate:
        nonlocal last, total
        if not radius > last:
            raise ValueError(f"shell radius {radius} is not above the previous {last}")
        total = total + shell(last, radius)
        last = radius
        return total

    return truncated
