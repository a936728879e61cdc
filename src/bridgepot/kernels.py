"""Scalar kernels and the one-dimensional semi-infinite comparison integrals.

The objects here are the heat kernel g, the pinned-bridge density, the
anisotropic comparison kernel

    k0(x, y) = exp(-(|x||y| - x.y)/2) |x|^{2-d} (1 + |x||y|)^{(d-3)/2},

the drifted time-integrated kernel

    J(x, y) = int_0^inf  t^{-d/2} exp(-|x - t y|^2 / (4 t)) dt,

and the inverse-Gaussian-type integral family

    f(a, b) = int_0^inf  u^{-beta} exp(-c [sqrt(u) b - a/sqrt(u)]^2) du

together with its closed-form comparison estimate, the sandwich integral
i_app, and the explicit upper constant valid for beta >= 3/2.  Completing
the square in the exponent of J gives

    J(x, y) = exp(-(|x||y| - x.y)/2) * f(|x|/2, |y|/2)   (beta = d/2, c = 1)

which is how j_kernel is evaluated; j_kernel_direct integrates the
unfactored integrand as an internal cross-check.

All quadrature-backed operations take a QuadratureSpec and return an
Estimate; closed-form operations return plain floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError
from .growth import growth_diagnosis, shell_sum, verdict_estimate
from .quadrature import (
    DEFAULT_SPEC_1D,
    Estimate,
    QuadratureSpec,
    Status,
    integrate_finite,
    integrate_half_line,
)
from .special import sphere_area

__all__ = [
    "as_dimension",
    "heat_kernel",
    "bridge_density",
    "k0",
    "j_kernel",
    "j_kernel_direct",
    "f_integral",
    "f_estimate",
    "i_app",
    "explicit_constant",
    "newton_constant",
    "kappa",
    "directional_shell_integral",
    "gaussian_tail_power_integral",
]


def as_dimension(d) -> int:
    """Check a spatial dimension, an integer d >= 3, and return it as an int.

    In dimensions 1 and 2 the bridge potential of every nontrivial V is
    infinite, so none of the comparison machinery applies there.
    """
    if not float(d).is_integer():
        raise DimensionError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d in (1, 2):
        raise DimensionError(
            "d=1 and d=2 are not supported: the bridge potential is infinite "
            "for every nontrivial potential there, so no comparability holds"
        )
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    return d


def _vec(x, d: int, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (d,):
        raise DimensionError(f"{name} must have {d} coordinates, got shape {v.shape}")
    return v


def _angle_gap(x: np.ndarray, y: np.ndarray) -> float:
    """|x||y| - x.y computed without cancellation as |x||y| |x^ - y^|^2 / 2."""
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    uhat = x / nx
    vhat = y / ny
    return 0.5 * nx * ny * float(np.sum((uhat - vhat) ** 2))


# --------------------------------------------------------------------------
# Gaussian kernel and bridge density
# --------------------------------------------------------------------------


def heat_kernel(t: float, x, y, d) -> float:
    """Gaussian kernel (4 pi t)^{-d/2} exp(-|y-x|^2 / (4t))."""
    d = as_dimension(d)
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    xv = _vec(x, d, "x")
    yv = _vec(y, d, "y")
    r2 = float(np.sum((yv - xv) ** 2))
    return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-r2 / (4.0 * t))


def bridge_density(t: float, s: float, x, y, z, d) -> float:
    """Density of the bridge marginal, equal to g(s,x,z) g(t-s,z,y) / g(t,x,y).

    The bridge from x (time 0) to y (time t) has marginal N(x + (s/t)(y-x), 2 s (t-s)/t I).
    """
    d = as_dimension(d)
    if not (0.0 < s < t):
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    xv = _vec(x, d, "x")
    yv = _vec(y, d, "y")
    zv = _vec(z, d, "z")
    mean = xv + (s / t) * (yv - xv)
    var = 2.0 * s * (t - s) / t
    r2 = float(np.sum((zv - mean) ** 2))
    return (2.0 * math.pi * var) ** (-d / 2.0) * math.exp(-r2 / (2.0 * var))


# --------------------------------------------------------------------------
# The anisotropic comparison kernel
# --------------------------------------------------------------------------


def k0(x, y, d) -> float:
    """Comparison kernel; +inf at x = 0 (integrable singularity sentinel)."""
    d = as_dimension(d)
    xv = _vec(x, d, "x")
    yv = _vec(y, d, "y")
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        return math.inf
    ny = float(np.linalg.norm(yv))
    gap = _angle_gap(xv, yv)
    logval = -0.5 * gap + (2 - d) * math.log(nx) + 0.5 * (d - 3) * math.log1p(nx * ny)
    return math.exp(logval)


# --------------------------------------------------------------------------
# f, its estimate, i_app, h, and the explicit constant
# --------------------------------------------------------------------------


def _check_fparams(a: float, b: float, beta: float, c: float):
    if not (a > 0.0):
        raise ValueError(f"a must be > 0, got {a}")
    if not (b > 0.0):
        raise ValueError(f"b must be > 0, got {b}")
    if not (beta > 1.0):
        raise ValueError(f"beta must be > 1, got {beta}")
    if not (c > 0.0):
        raise ValueError(f"c must be > 0, got {c}")


def _f_stationary_point(a: float, b: float, beta: float, c: float) -> float:
    # maximizer of u -> u^{1-beta} exp(-c(sqrt(u) b - a/sqrt(u))^2) in log scale,
    # root of c a^2 - (beta-1) u - c b^2 u^2 = 0, written cancellation-free
    g = beta - 1.0
    disc = math.sqrt(g * g + 4.0 * (c * a * b) ** 2)
    return 2.0 * c * a * a / (g + disc)


def f_integral(
    a: float, b: float, beta: float, c: float, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Semi-infinite integral f(a, b) = int u^-beta exp(-c[sqrt(u)b - a/sqrt(u)]^2) du.

    The integrand is a single bump whose location a/b can sit anywhere on
    (0, inf); the substitution u = u* e^v centres it, and for a*b > 1e3 the
    symmetrized average of the substitutions u -> (a/b) r and r -> 1/r is
    used instead, which removes the cancellation in the squared bracket.
    """
    _check_fparams(a, b, beta, c)
    if a * b > 1e3:
        return _f_symmetrized(a, b, beta, c, q)

    log_norm = [0.0]

    def integrand(u: np.ndarray) -> np.ndarray:
        su = np.sqrt(u)
        bracket = su * b - a / su
        logf = -beta * np.log(u) - c * bracket * bracket - log_norm[0]
        return np.exp(np.maximum(logf, -745.0)) * (logf > -745.0)

    center = _f_stationary_point(a, b, beta, c)
    # normalize so the peak value is O(1); keeps tiny/huge integrals in range
    peak_log = -beta * math.log(center) - c * (math.sqrt(center) * b - a / math.sqrt(center)) ** 2
    if peak_log > 690.0:
        # true value exceeds double range; report the infinity sentinel
        return Estimate(math.inf, math.inf, Status.DIVERGED)
    log_norm[0] = peak_log
    est = integrate_half_line(integrand, q, center=center)
    return est.scaled(math.exp(peak_log))


def _f_symmetrized(a, b, beta, c, q: QuadratureSpec) -> Estimate:
    # f = (a/b)^{1-beta} * int_R cosh((beta-1)v) exp(-4 c a b sinh^2(v/2)) dv
    kk = 4.0 * c * a * b

    def integrand(v: np.ndarray) -> np.ndarray:
        sh = np.sinh(0.5 * v)
        logf = -kk * sh * sh
        return np.cosh((beta - 1.0) * v) * np.exp(np.maximum(logf, -745.0)) * (logf > -745.0)

    # find where the integrand has died
    v_hi = 1.0 / math.sqrt(kk)
    while kk * math.sinh(0.5 * v_hi) ** 2 - abs(beta - 1.0) * v_hi < 760.0 and v_hi < 700.0:
        v_hi *= 1.5
    interior = (beta - 1.0) / max(kk, 1e-300)
    est = integrate_finite(
        integrand, 0.0, v_hi, q, breakpoints=[min(v, 0.9 * v_hi) for v in (interior, 4 * interior)]
    )
    prefactor = 2.0 * (a / b) ** (1.0 - beta)
    return est.scaled(prefactor)


def f_estimate(a: float, b: float, beta: float) -> float:
    """Closed-form comparison value (1 + 4ab)^{beta - 3/2} / a^{2(beta-1)}."""
    if not (a > 0.0):
        raise ValueError(f"a must be > 0, got {a}")
    if b < 0.0:
        raise ValueError(f"b must be >= 0, got {b}")
    if not (beta > 1.0):
        raise ValueError(f"beta must be > 1, got {beta}")
    return math.exp((beta - 1.5) * math.log1p(4.0 * a * b) - 2.0 * (beta - 1.0) * math.log(a))


def i_app(
    a: float, b: float, beta: float, c: float, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Sandwich integral with a Gaussian weight:

    i_app(a,b) = int_0^inf ((s + sqrt(4ab+s^2))/(2a))^{2(beta-1)}
                 exp(-c s^2) / sqrt(4ab+s^2) ds.

    Satisfies 2 i_app <= f <= 4 i_app.
    """
    _check_fparams(a, b, beta, c)
    fourab = 4.0 * a * b
    log2a = math.log(2.0 * a)

    def integrand(s: np.ndarray) -> np.ndarray:
        root = np.sqrt(fourab + s * s)
        logf = (
            2.0 * (beta - 1.0) * (np.log(s + root) - log2a)
            - c * s * s
            - 0.5 * np.log(fourab + s * s)
        )
        return np.exp(np.maximum(logf, -745.0)) * (logf > -745.0)

    grow_scale = math.sqrt((abs(beta) + 3.0) / c)
    cover = (1e-6 / math.sqrt(c), 3.0 * grow_scale)
    return integrate_half_line(integrand, q, center=1.0 / math.sqrt(2.0 * c), must_cover=cover)


def explicit_constant(
    beta: float, c: float, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Explicit upper constant C = 2 int_0^inf (1 v r)^{beta-3/2} r^{-1/2} e^{-cr} dr.

    Valid for beta >= 3/2; at beta = 3/2 it equals sqrt(4 pi / c).
    """
    if beta < 1.5:
        raise ValueError(f"beta must be >= 3/2, got {beta}")
    if not (c > 0.0):
        raise ValueError(f"c must be > 0, got {c}")
    g = beta - 1.5

    # piece on (0, 1): (1 v r) = 1; substitute r = w^2 to remove r^{-1/2}
    def head(w: np.ndarray) -> np.ndarray:
        return 2.0 * np.exp(-c * w * w)

    # piece on (1, inf): r^{g - 1/2} e^{-cr}; substitute r = e^v
    def tail(v: np.ndarray) -> np.ndarray:
        logf = (g + 0.5) * v - c * np.exp(v)
        return np.exp(np.maximum(logf, -745.0)) * (logf > -745.0)

    v_hi = max(1.0, math.log(800.0 / c))
    while c * math.exp(v_hi) - (g + 0.5) * v_hi < 760.0:
        v_hi += 1.0
    est_head = integrate_finite(head, 0.0, 1.0, q)
    est_tail = integrate_finite(tail, 0.0, v_hi, q, breakpoints=[0.5 * v_hi])
    return (est_head + est_tail).scaled(2.0)


def gaussian_tail_power_integral(a: float, beta: float, c: float) -> float:
    """Closed form of the b -> 0 limit of f:  int u^-beta e^{-c a^2/u} du
    = Gamma(beta-1) (c a^2)^{1-beta}."""
    if not (a > 0.0 and beta > 1.0 and c > 0.0):
        raise ValueError("need a > 0, beta > 1, c > 0")
    return math.gamma(beta - 1.0) * (c * a * a) ** (1.0 - beta)


# --------------------------------------------------------------------------
# J kernel
# --------------------------------------------------------------------------


def _j_args(x, y, d) -> tuple:
    """(d, x, y, |x|, |y|, closed form) of J, checked; x must be nonzero.

    The closed form is J at y = 0, where the time integral is a gamma
    function, and None for y != 0.
    """
    d = as_dimension(d)
    xv = _vec(x, d, "x")
    yv = _vec(y, d, "y")
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    if nx == 0.0:
        raise ValueError("x must be nonzero (kernel is singular at 0)")
    if ny != 0.0:
        return d, xv, yv, nx, ny, None
    val = gaussian_tail_power_integral(nx / 2.0, d / 2.0, 1.0)
    return d, xv, yv, nx, ny, Estimate(val, abs(val) * 1e-14, Status.CONVERGED)


def j_kernel(x, y, d, q: QuadratureSpec = DEFAULT_SPEC_1D) -> Estimate:
    """Time-integrated drifted kernel via the completed-square factorization.

    J(x, y) = exp(-(|x||y| - x.y)/2) f(|x|/2, |y|/2) with beta = d/2, c = 1.
    For y = 0 the integral collapses to the closed gamma form.
    """
    d, xv, yv, nx, ny, closed = _j_args(x, y, d)
    if closed is not None:
        return closed
    pref = math.exp(-0.5 * _angle_gap(xv, yv))
    return f_integral(nx / 2.0, ny / 2.0, d / 2.0, 1.0, q).scaled(pref)


def j_kernel_direct(x, y, d, q: QuadratureSpec = DEFAULT_SPEC_1D) -> Estimate:
    """J by quadrature of the unfactored integrand t^{-d/2} e^{-|x-ty|^2/(4t)}.

    Cross-check path for j_kernel; the exponent is expanded as
    |x|^2/(4t) + t|y|^2/4 - x.y/2, which is exact and free of cancellation.
    """
    d, xv, yv, nx, ny, closed = _j_args(x, y, d)
    if closed is not None:
        return closed

    # exponent split: |x - t y|^2/(4t) = |x|^2/(4t) + t|y|^2/4 - x.y/2; the
    # |x||y|/2 part of x.y/2 is kept inside the integrand so its peak value
    # is O(1), the remaining -(|x||y| - x.y)/2 factor is applied at the end
    def integrand(t: np.ndarray) -> np.ndarray:
        logf = -0.5 * d * np.log(t) - nx * nx / (4.0 * t) - t * ny * ny / 4.0 + nx * ny / 2.0
        return np.exp(np.maximum(logf, -745.0)) * (logf > -745.0)

    center = _f_stationary_point(nx / 2.0, ny / 2.0, d / 2.0, 1.0)
    est = integrate_half_line(integrand, q, center=center)
    return est.scaled(math.exp(-0.5 * _angle_gap(xv, yv)))


# --------------------------------------------------------------------------
# Newton constant and the directional shell integral behind kappa
# --------------------------------------------------------------------------


def newton_constant(d) -> float:
    """Riesz kernel normalization Gamma(d/2 - 1) / (4 pi^{d/2})."""
    d = as_dimension(d)
    return math.gamma(d / 2.0 - 1.0) / (4.0 * math.pi ** (d / 2.0))


def _cone_profile(r: np.ndarray, c_exp: float, d: int) -> np.ndarray:
    """inner(r) = int_0^pi exp(-c r (1 - cos phi)) sin^{d-2} phi dphi.

    1 - cos phi = 2 sin^2(phi/2); the integrand concentrates in a cone of
    width ~ 1/sqrt(c r), so each piece is handled with Gauss-Legendre after
    splitting at that scale.  Vectorized over r.
    """
    out = np.zeros_like(r)
    width = np.minimum(math.pi, 6.0 / np.sqrt(2.0 * c_exp * r + 1.0))
    xg, wg = np.polynomial.legendre.leggauss(32)
    for lo_frac, hi_frac in ((0.0, 1.0), (1.0, None)):
        lo = width * lo_frac
        hi = np.full_like(r, math.pi) if hi_frac is None else width * hi_frac
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        phi = mid[:, None] + half[:, None] * xg[None, :]
        s2 = np.sin(0.5 * phi) ** 2
        vals = np.exp(-2.0 * c_exp * r[:, None] * s2) * np.sin(phi) ** (d - 2)
        out += half * (vals * wg[None, :]).sum(axis=1)
    return out


def _shell_integrand(v: np.ndarray, d: int, pw: float, c_exp: float) -> np.ndarray:
    """``directional_shell_integral``'s integrand in v = log |w|, pw = d - 1 - beta,
    less the (d-2)-sphere area: a log-space product of the radial power and
    the cone profile.  Values beyond v ~ 690 are out of double range and
    only occur where the integrand has decayed to zero anyway."""
    out = np.zeros_like(v)
    ok = v < 690.0
    if np.any(ok):
        vv = v[ok]
        with np.errstate(divide="ignore"):
            logp = np.log(_cone_profile(np.exp(vv), c_exp, d))
        logf = (pw + 1.0) * vv + logp
        out[ok] = np.where(logf > -745.0, np.exp(np.maximum(logf, -745.0)), 0.0)
    return out


def directional_shell_integral(
    d,
    beta: float,
    r_max: float = math.inf,
    c_exp: float = 1.0,
    q: QuadratureSpec = DEFAULT_SPEC_1D,
    r_min: float = 1.0,
) -> Estimate:
    """int_{r_min < |w| < r_max} exp(-c (|w| - w.e)) |w|^{-beta} dw  (e a unit vector).

    Reduced to (r, phi) with the spherical Jacobian r^{d-1} sin^{d-2} phi.
    Finite iff beta > (d+1)/2 when r_max = inf; the caller decides how to
    diagnose divergence (see the growth ladder in kappa's override mode).
    """
    d = as_dimension(d)
    pw = d - 1.0 - beta
    area = sphere_area(d - 2)
    integrand = functools.partial(_shell_integrand, d=d, pw=pw, c_exp=c_exp)
    if math.isinf(r_max):
        if r_min != 1.0:
            raise ValueError("an unbounded shell integral starts at radius 1")
        # mapped integrand behaves like e^{(pw + 1 - (d-1)/2) v} at large v;
        # a nonnegative rate means the full integral is infinite
        if pw + 1.0 - 0.5 * (d - 1.0) >= 0.0:
            return Estimate(math.inf, math.inf, Status.DIVERGED)
        est = integrate_half_line(integrand, q, center=2.0, must_cover=(0.5, 100.0))
        return est.scaled(area)
    if r_max <= r_min:
        return Estimate(0.0, 0.0, Status.CONVERGED)
    est = integrate_finite(integrand, math.log(r_min), math.log(r_max), q, breakpoints=[1.0, 3.0])
    return est.scaled(area)


_KAPPA_LADDER = tuple(float(r) for r in np.logspace(2, 20, 10))


def kappa(
    d,
    q: QuadratureSpec = DEFAULT_SPEC_1D,
    exponent_override: float | None = None,
) -> Estimate:
    """Angular-concentration constant entering the d >= 4 upper comparison bound:

    kappa_d = ( int_{|w|>1} (e^{-(|w| - w.e)/2} |w|^{-(d-1)/2})^{d/(d-2)} dw )^{(d-2)/d}.

    With ``exponent_override`` set, the raw shell integral
    int_{|w|>1} e^{-(|w|-w.e)} |w|^{-beta} dw is evaluated on a growing
    radius ladder instead and its convergence is diagnosed; a divergent
    verdict yields the +inf sentinel with DIVERGED status.  The finiteness
    threshold is beta > (d+1)/2.
    """
    d = as_dimension(d)
    if exponent_override is None:
        if d < 4:
            raise DimensionError("kappa is defined for d >= 4")
        p = d / (d - 2.0)
        beta_eff = p * (d - 1.0) / 2.0
        inner = directional_shell_integral(d, beta_eff, c_exp=p / 2.0, q=q)
        if not math.isfinite(inner.value) or inner.value <= 0.0:
            return Estimate(math.inf, math.inf, Status.DIVERGED)
        expo = (d - 2.0) / d
        val = inner.value**expo
        err = expo * val / inner.value * inner.error_bound
        return Estimate(val, err, inner.status)

    # the ladder's shells of directional_shell_integral, as rows of one lockstep call
    pw = d - 1.0 - float(exponent_override)
    ests = integrate_finite(
        lambda owner, v: _shell_integrand(v, d, pw, 1.0),
        [math.log(r) for r in (1.0, *_KAPPA_LADDER[:-1])],
        [math.log(r) for r in _KAPPA_LADDER],
        q,
        [[1.0, 3.0]] * len(_KAPPA_LADDER),
    )
    shells = [est.scaled(sphere_area(d - 2)) for est in ests]
    diag = growth_diagnosis(shell_sum(shells, _KAPPA_LADDER), _KAPPA_LADDER, rel_tol=0.02)
    return verdict_estimate(diag)
