"""Integral transforms of potentials, supremum search, and norm diagnostics.

The transforms all integrate |V| against a kernel and are evaluated with
symmetry-aware dimension reduction:

  * radially symmetric V, any probe pair (x, y): spherical coordinates
    about the kernel axis reduce the d-dimensional integral to an adaptive
    2D (s, alpha) cubature whose innermost azimuthal factor is closed-form
    (indicator cells) or a short Gauss-Legendre rule (power cells);
  * axially symmetric V with probes on the symmetry axis: cylindrical
    coordinates (z1, rho) with the (d-2)-sphere surface factor;
  * the |z - x|^{2-d} singularity sits at s = 0 in the polar variables,
    where the Jacobian cancels it.

Every transform checks its probes and V's pinned dimension in one place
(``_probe_args``) and integrates a sign-uniform Sum term by term.  The
radial routes take |V| as power cells from ``RadialProfile.kernel_cells``
(which rejects overlapping cells of both signs) and share one integral over
the polar radius s (``_s_integral``); pointwise |V| comes from the
potential's own values (``RadialProfile.abs_value``).

The bridge functionals integrate Gaussian averages of |V| in time; for
d = 3 the radial Gaussian mean of a smooth profile integrates |V| against
the elementary density of |Z|, all probes in one lockstep call.  For
piecewise-constant radial profiles it is a sum of ball overlaps, which at
d = 3 are elementary and at other d are the noncentral chi-squared CDF,
conditioned exactly on the transverse chi-squared law at small variance.

Suprema over unbounded domains are explored with log-spaced coarse grids
plus multistart Nelder-Mead refinement (an in-repo simplex that follows
scipy's Nelder-Mead step for step) and are reported as certified lower
bounds; divergence of a norm is only ever asserted through a growth
diagnosis of truncations, never from a single quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BridgepotError, DimensionError, GeometryError
from .growth import GrowthDiagnosis, growth_diagnosis, shell_sum, verdict_estimate
from .kernels import as_dimension, newton_constant
from .potentials import (
    BallIndicator,
    Constant,
    CounterexampleA,
    Dilate,
    Potential,
    RadialPower,
    RadialProfile,
    Scale,
    SignClass,
    Sum,
    Symmetry,
    _sq_norm,
    axial_profile,
    cell_edges,
    radial_profile,
)
from .quadrature import (
    DEFAULT_SPEC_1D,
    DEFAULT_SPEC_2D,
    Estimate,
    QuadratureSpec,
    Status,
    integrate_2d,
    integrate_finite,
    integrate_half_line,
    worst_status,
)
from .special import noncentral_chi2_cdf, norm_cdf, sin_power_antideriv, sphere_area

__all__ = [
    "BridgeSpec",
    "SupResult",
    "AxisSpec",
    "SearchStrategy",
    "NormReport",
    "k_transform",
    "newton_potential",
    "j_transform",
    "n_functional",
    "s_functional",
    "sup_search",
    "k_norm",
    "newton_norm",
    "s_norm",
    "truncate_potential",
    "build_compact_counterexample",
    "gaussian_convolution",
]

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class BridgeSpec:
    """Argument triple (t, x, y) of the bridge functionals; t > 0."""

    t: float
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.t > 0.0):
            raise ValueError(f"t must be positive, got {self.t}")
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        object.__setattr__(self, "y", tuple(float(v) for v in np.atleast_1d(self.y)))
        if len(self.x) != len(self.y):
            raise DimensionError("x and y must share a dimension")

    @property
    def d(self) -> int:
        return len(self.x)


# ===========================================================================
# geometry helpers
# ===========================================================================


_ZERO = Estimate(0.0, 0.0, Status.CONVERGED)


def _fold(est: Estimate, inner: set[Status]) -> Estimate:
    """est with the worst of its own status and those of its inner integrals."""
    return Estimate(est.value, est.error_bound, worst_status(est.status, *inner))


def _probe_args(V: Potential, d, *points) -> tuple:
    """(d, *points as flat float vectors) of a transform of V, checked.

    d defaults to the first point's length.  Every point must have d
    coordinates and a dimension pinned by V (ball centres) must be d.
    """
    vecs = [np.asarray(p, dtype=float).reshape(-1) for p in points]
    d = as_dimension(d if d is not None else vecs[0].size)
    if any(v.size != d for v in vecs):
        raise DimensionError(f"probe points must have {d} coordinates")
    hint = V.dimension_hint()
    if hint is not None and hint != d:
        raise DimensionError(f"potential pins dimension {hint}, transform asked for {d}")
    return (d, *vecs)


def _probe_pair(d: int, rx: float, ry: float, ct: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """x, y in R^d with |x| = rx, y = ry e1 and cos angle(x, y) = ct (clipped)."""
    ct = min(1.0, max(-1.0, ct))
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = ry
    x[0] = rx * ct
    x[1] = rx * math.sqrt(max(0.0, 1.0 - ct * ct))
    return x, y


def _on_axis(v: np.ndarray) -> bool:
    return bool(np.all(v[1:] == 0.0))


# ===========================================================================
# radial transforms: the (s, alpha, psi) reduction
# ===========================================================================

_GL24 = np.polynomial.legendre.leggauss(24)


def _azimuthal_cell_mass(
    A: np.ndarray,
    B: np.ndarray,
    lo: float,
    hi: float,
    amp: float,
    expo: float,
    m: int,
) -> np.ndarray:
    """int over psi of |V|(R(psi)) sin^m psi dpsi for one radial cell.

    R(psi)^2 = A + B cos psi with B >= 0; the cell occupies radii
    [lo, hi], which pulls back to one psi interval.  Constant cells use the
    closed sin-power antiderivative, power cells a 24-point Gauss rule.
    """
    lo2, hi2 = lo * lo, hi * hi if math.isfinite(hi) else math.inf
    small = B <= 1e-14 * np.maximum(A, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hi = np.where(small, 1.0, (np.minimum(hi2, A + B + 1.0) - A) / np.where(small, 1.0, B))
        c_lo = np.where(small, -1.0, (lo2 - A) / np.where(small, 1.0, B))
    # degenerate axis: R is constant sqrt(A); the cell is all or nothing
    inside = (A >= lo2) & (A <= hi2)
    c_hi = np.where(small, np.where(inside, 1.0, -2.0), c_hi)
    c_lo = np.where(small, np.where(inside, -1.0, 2.0), c_lo)
    c_hi = np.clip(c_hi, -1.0, 1.0)
    c_lo = np.clip(c_lo, -1.0, 1.0)
    # cos psi in [c_lo, c_hi]  <=>  psi in [arccos(c_hi), arccos(c_lo)]
    psi_a = np.arccos(c_hi)
    psi_b = np.arccos(np.maximum(c_lo, -1.0))
    width = np.maximum(psi_b - psi_a, 0.0)
    if expo == 0.0 and m <= 4:
        anti = sin_power_antideriv(m, psi_b) - sin_power_antideriv(m, psi_a)
        return abs(amp) * np.maximum(anti, 0.0)
    nodes, weights = _GL24
    psi = psi_a[:, None] + 0.5 * (nodes[None, :] + 1.0) * width[:, None]
    w = 0.5 * width[:, None] * weights[None, :]
    R2 = A[:, None] + B[:, None] * np.cos(psi)
    R = np.sqrt(np.maximum(R2, 0.0))
    cell = (R >= lo) & (R <= hi)
    vals = np.where(cell & (R > 0), R, 1.0) ** expo
    vals = np.where(cell, vals, 0.0)
    if m:
        vals = vals * np.sin(psi) ** m
    return abs(amp) * (vals * w).sum(axis=1)


def _radial_isotropic_transform(
    V: Potential,
    nx: float,
    d: int,
    q: QuadratureSpec,
) -> Estimate:
    """integral of |V|(z) |z - x|^{2-d} dz for radial V: K at y = 0.

    The angular integral is the exact shell-cap mass of each radial cell,
    so only a 1D adaptive integral over the polar radius s remains.  This
    is the high-accuracy route for k0(., 0)-type kernels (y = 0).
    """
    prof = radial_profile(V)
    cells = prof.kernel_cells()
    if not cells:
        return _ZERO
    m = d - 2
    area = sphere_area(d - 2)

    def integrand(s: np.ndarray) -> np.ndarray:
        A = s * s + nx * nx
        B = 2.0 * s * nx
        mass = np.zeros_like(s)
        for lo, hi, amp, expo in cells:
            mass += _azimuthal_cell_mass(A, B, lo, hi, amp, expo, m)
        with np.errstate(divide="ignore"):
            logk = (2.0 - d) * np.log(s) + (d - 1.0) * np.log(s)
        out = np.zeros_like(s)
        good = mass > 0.0
        out[good] = mass[good] * np.exp(np.maximum(logk[good], -745.0))
        return out

    return _s_integral(integrand, nx, cell_edges(cells), prof.support, q).scaled(area)


def _s_integral(
    integrand: Callable[[np.ndarray], np.ndarray],
    nx: float,
    radii: Sequence[float],
    support: float,
    q: QuadratureSpec,
) -> Estimate:
    """int of integrand over the polar radius s = |z - x|, |x| = nx.

    The range is [0, nx + support], or the half-line for an unbounded
    support; s = |nx - r| and nx + r, where the sphere about x meets a cell
    edge r, are breakpoints.
    """
    sbreaks = sorted({b for r in radii for b in (abs(nx - r), nx + r) if b > 0.0})
    if math.isfinite(support):
        s_max = nx + support
        if s_max <= 0.0:
            return _ZERO
        return integrate_finite(
            integrand, 0.0, s_max, q, breakpoints=[b for b in sbreaks if b < s_max]
        )
    center = max(sbreaks[0] if sbreaks else 1.0, 1e-6)
    upper = max(sbreaks[-1] if sbreaks else 1.0, nx + 1.0) * 10.0
    return integrate_half_line(integrand, q, center=center, must_cover=(center * 1e-3, upper))


def _k_like_radial_transform(
    V: Potential,
    xv: np.ndarray,
    yv: np.ndarray,
    d: int,
    q: QuadratureSpec,
) -> Estimate:
    """integral of |V|(z) k0(z - x, y) dz for radial V and y != 0.

    The log of the kernel is a function of the polar radius s = |z - x| and
    the angle alpha to the kernel axis y^.
    The alpha integral (with the azimuthal cell mass folded in) is done
    adaptively per s node with the cell-window transition angles, which
    satisfy cos(alpha +- theta) = (r^2 - s^2 - |x|^2) / (2 s |x|), seeded
    as breakpoints; an adaptive s integral runs outside.  The alpha
    integrals of one outer call advance together (``integrate_finite`` over
    a sequence of intervals), and the worst of their statuses reaches the
    result.
    """
    prof = radial_profile(V)
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    axis = yv / ny
    if nx > 0.0:
        ct = min(1.0, max(-1.0, float(np.dot(xv, axis) / nx)))
    else:
        ct = 1.0
    st = math.sqrt(max(0.0, 1.0 - ct * ct))
    theta = math.atan2(st, ct)

    cells = prof.kernel_cells()
    if not cells:
        return _ZERO

    m = d - 3  # azimuthal sin power
    area = sphere_area(max(d - 3, 0))
    radii = cell_edges(cells)
    inner_spec = QuadratureSpec(
        rel_tol=max(q.rel_tol * 0.1, 1e-13), abs_tol=0.0, max_subdivisions=200
    )

    def alpha_integrand(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        omc = 2.0 * np.sin(0.5 * alpha) ** 2
        A = s * s + nx * nx + 2.0 * s * nx * np.cos(alpha) * ct
        B = 2.0 * s * nx * np.sin(alpha) * st
        mass = np.zeros_like(alpha)
        for lo, hi, amp, expo in cells:
            mass += _azimuthal_cell_mass(A, B, lo, hi, amp, expo, m)
        logk = -0.5 * s * ny * omc + (2.0 - d) * np.log(s) + 0.5 * (d - 3.0) * np.log1p(s * ny)
        out = np.zeros_like(alpha)
        good = mass > 0.0
        out[good] = (
            mass[good]
            * np.exp(np.maximum(logk[good], -745.0))
            * np.sin(alpha[good]) ** (d - 2)
        )
        return out

    def alpha_kinks(s: float) -> list[float]:
        out = []
        if s > 0 and nx > 0:
            for r in radii:
                c = (r * r - s * s - nx * nx) / (2.0 * s * nx)
                if -1.0 <= c <= 1.0:
                    g = math.acos(c)
                    for a in (g - theta, theta - g, theta + g, 2.0 * math.pi - theta - g):
                        if 0.0 < a < math.pi:
                            out.append(a)
        peak = 6.0 / math.sqrt(0.5 * s * ny + 1.0)
        for a in (peak, 4.0 * peak):
            if a < math.pi:
                out.append(a)
        return out

    inner: set[Status] = set()

    def s_integrand(s_vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s_vec)
        live = np.flatnonzero(s_vec > 0.0)
        s_live = s_vec[live]
        ests = integrate_finite(
            lambda owner, a: alpha_integrand(s_live[owner], a),
            [0.0] * live.size,
            [math.pi] * live.size,
            inner_spec,
            [alpha_kinks(s) for s in s_live],
        )
        for i, s, est in zip(live, s_live, ests):
            inner.add(est.status)
            out[i] = est.value * math.exp(min((d - 1.0) * math.log(s), 700.0))
        return out

    return _fold(_s_integral(s_integrand, nx, radii, prof.support, q), inner).scaled(area)


# ===========================================================================
# axial transforms: the (z1, rho) reduction
# ===========================================================================


def _axial_transform(
    V: Potential,
    x1: float,
    y1: float,
    d: int,
    q: QuadratureSpec,
    z1_window: tuple[float, float] = (-math.inf, math.inf),
) -> Estimate:
    """integral of |V|(z) k0(z - x, y) dz for axial V with x = x1 e1, y = y1 e1.

    At y1 = 0 the kernel k0 is the Newton kernel |z - x|^{2-d}, which this
    evaluates directly.  Only z1 in ``z1_window`` (intersected with the
    profile) is integrated.  The rho variable is normalized to the profile
    cap (eta = rho / cap(z1)) so the domain is a rectangle; a wide positive
    z1 range is integrated in w = log z1.
    """
    prof = axial_profile(V)
    z_lo = max(prof.z1_lo, z1_window[0])
    z_hi = min(prof.z1_hi, z1_window[1])
    if not (z_hi > z_lo):
        return _ZERO
    if math.isinf(z_hi):
        raise BridgepotError(
            "unbounded axial integrals must be truncated; diagnose growth instead"
        )
    area = sphere_area(d - 2)

    def physical(z1: np.ndarray, rho: np.ndarray) -> np.ndarray:
        vals = prof.abs_value(z1, rho)
        good = vals > 0.0
        out = np.zeros_like(z1)
        if not np.any(good):
            return out
        vals, rho = vals[good], rho[good]
        rho2 = rho * rho
        dz = z1[good] - x1
        u = np.sqrt(dz * dz + rho2)
        with np.errstate(divide="ignore"):
            if y1 == 0.0:
                logk = (2.0 - d) * np.log(u)
            else:
                w = math.copysign(1.0, y1) * dz
                gap = np.where(w > 0.0, rho2 / (u + w), u - w)
                logk = (
                    -0.5 * abs(y1) * gap
                    + (2.0 - d) * np.log(u)
                    + 0.5 * (d - 3.0) * np.log1p(u * abs(y1))
                )
        out[good] = vals * np.exp(np.maximum(logk, -745.0)) * rho ** (d - 2)
        return out

    z_breaks = [b for b in prof.breakpoints_z1 if z_lo < b < z_hi]
    if z_lo < x1 < z_hi:
        half = math.sqrt(max(abs(x1), 1.0))
        z_breaks.extend([x1, max(z_lo, x1 - half), min(z_hi, x1 + half)])

    use_log = z_lo > 0.0 and z_hi / max(z_lo, 1e-300) > 50.0
    xspan, xbreaks = (z_lo, z_hi), z_breaks
    if use_log:
        xspan, xbreaks = (math.log(z_lo), math.log(z_hi)), [math.log(b) for b in z_breaks if b > 0]

    def f2(w: np.ndarray, eta: np.ndarray) -> np.ndarray:
        z1 = np.exp(w) if use_log else w
        cap = prof.rho_cap(z1)
        out = physical(z1, eta * cap) * cap
        return out * z1 if use_log else out

    est = integrate_2d(f2, xspan, (0.0, 1.0), q, xbreaks=xbreaks, ybreaks=[0.5])
    return est.scaled(area)


# ===========================================================================
# public transforms
# ===========================================================================


def _split_same_sign_sum(V: Potential) -> list[Potential]:
    """Decompose a sign-uniform Sum so each term integrates at its own scale."""
    if isinstance(V, Sum) and V.sign is not SignClass.MIXED:
        out: list[Potential] = []
        for t in V.terms:
            out.extend(_split_same_sign_sum(t))
        return out
    if isinstance(V, Scale) and V.factor != 0.0:
        inner = _split_same_sign_sum(V.inner)
        if len(inner) > 1:
            return [Scale(V.factor, t) for t in inner]
    return [V]


def k_transform(
    V: Potential, x, y, d=None, q: QuadratureSpec | None = None
) -> Estimate:
    """K(V, x, y) = int |V(z)| k0(z - x, y) dz with symmetry-aware reduction.

    A given spec q is used on every route.  Without one, the radial route
    at y = 0 (a 1D integral) uses DEFAULT_SPEC_1D and the others
    DEFAULT_SPEC_2D.
    """
    d, xv, yv = _probe_args(V, d, x, y)
    parts = _split_same_sign_sum(V)
    if len(parts) > 1:
        return sum((k_transform(part, xv, yv, d, q) for part in parts), _ZERO)

    ny = float(np.linalg.norm(yv))

    if V.symmetry is Symmetry.RADIAL:
        if ny == 0.0:
            # the kernel degenerates to |z - x|^{2-d}: exact angular reduction
            nx = float(np.linalg.norm(xv))
            return _radial_isotropic_transform(V, nx, d, q or DEFAULT_SPEC_1D)
        return _k_like_radial_transform(V, xv, yv, d, q or DEFAULT_SPEC_2D)

    if V.symmetry is Symmetry.AXIAL and _on_axis(xv) and _on_axis(yv):
        return _axial_transform(V, float(xv[0]), float(yv[0]), d, q or DEFAULT_SPEC_2D)

    raise GeometryError(
        "k_transform supports radial potentials at any probes and axial "
        "potentials probed on the symmetry axis"
    )


def newton_potential(
    V: Potential, x, d=None, q: QuadratureSpec | None = None
) -> Estimate:
    """C_d int |V(z)| |z - x|^{2-d} dz.

    Radial potentials reduce to one dimension through the spherical mean of
    the Riesz kernel, max(r, |x|)^{2-d}; axial potentials probed on the
    axis use the cylindrical reduction.  A given spec q is used on every
    route; without one the radial route uses DEFAULT_SPEC_1D and the axial
    route DEFAULT_SPEC_2D.
    """
    d, xv = _probe_args(V, d, x)
    cd = newton_constant(d)
    parts = _split_same_sign_sum(V)
    if len(parts) > 1:
        return sum((newton_potential(part, xv, d, q) for part in parts), _ZERO)

    if V.symmetry is Symmetry.RADIAL:
        q = q or DEFAULT_SPEC_1D
        prof = radial_profile(V)
        R = float(np.linalg.norm(xv))
        area = sphere_area(d - 1)

        def integrand(r: np.ndarray) -> np.ndarray:
            shell = np.where(r >= R, r, np.maximum(R, 1e-300))
            return prof.abs_value(r) * r ** (d - 1) * shell ** (2.0 - d)

        breaks = sorted({R, *prof.breakpoints})

        def shell(lo: float, hi: float) -> Estimate:
            return integrate_finite(integrand, lo, hi, q, breakpoints=breaks)

        if math.isfinite(prof.support):
            return shell(0.0, prof.support).scaled(cd * area)
        base = max([b for b in breaks if math.isfinite(b) and b > 0], default=1.0)
        ladder = [base * 10.0**k for k in range(1, 9)]
        diag = growth_diagnosis(shell_sum(shell, 0.0), ladder, rel_tol=1e-6)
        return verdict_estimate(diag).scaled(cd * area)

    if V.symmetry is Symmetry.AXIAL and _on_axis(xv):
        q = q or DEFAULT_SPEC_2D
        prof = axial_profile(V)
        if math.isinf(prof.z1_hi):
            # bounded verdict comes from the growth ladder over truncations
            def shell(lo: float, hi: float) -> Estimate:
                return _axial_transform(V, float(xv[0]), 0.0, d, q, z1_window=(lo, hi))

            base = max(abs(prof.z1_lo), abs(xv[0]), 4.0)
            ladder = [base * 4.0**k for k in range(1, 13)]
            diag = growth_diagnosis(shell_sum(shell, prof.z1_lo), ladder, rel_tol=2e-3)
            return verdict_estimate(diag).scaled(cd)
        est = _axial_transform(V, float(xv[0]), 0.0, d, q)
        return est.scaled(cd)

    raise GeometryError(
        "newton_potential supports radial potentials and axial potentials "
        "probed on the symmetry axis"
    )


def j_transform(
    V: Potential, x, y, d=None, q: QuadratureSpec | None = None
) -> Estimate:
    """int J(z - x, y) |V(z)| dz.

    d = 3: the factored kernel is exactly 2 sqrt(pi) k0, so the transform is
    that multiple of k_transform.  y = 0: the time integral collapses to the
    Riesz kernel with an explicit gamma constant.  d >= 4 with y != 0: the
    time integration order is swapped and the inner Gaussian means of |V|
    are integrated over the drift time (piecewise-constant radial profiles).

    A given spec q is used on every route.  Without one, the 1D routes (the
    radial Newton potential, the drift-time integral) use DEFAULT_SPEC_1D
    and the others DEFAULT_SPEC_2D.
    """
    d, xv, yv = _probe_args(V, d, x, y)
    ny = float(np.linalg.norm(yv))
    if ny == 0.0:
        const = math.gamma(d / 2.0 - 1.0) * 4.0 ** (d / 2.0 - 1.0) / newton_constant(d)
        return newton_potential(V, xv, d, q).scaled(const)
    if d == 3:
        return k_transform(V, xv, yv, d, q).scaled(_TWO_SQRT_PI)
    if V.symmetry is not Symmetry.RADIAL:
        raise GeometryError("j_transform at d >= 4 supports radial potentials")
    prof = radial_profile(V)
    if prof.constant_cells is None:
        raise GeometryError(
            "j_transform at d >= 4 needs a piecewise-constant radial profile"
        )
    sup = prof.support
    nx = float(np.linalg.norm(xv))
    dir_dot = float(np.dot(xv, yv))
    q = q or DEFAULT_SPEC_1D

    def inner(tau: np.ndarray) -> np.ndarray:
        mu = np.sqrt(np.maximum(nx * nx + 2.0 * tau * dir_dot + tau * tau * ny * ny, 0.0))
        # constant cells: the means are closed-form, no inner status to fold
        return _radial_gaussian_mean(prof, mu, np.sqrt(2.0 * tau), d, q, set())

    tau_far = (nx + sup + 10.0) / ny + (nx + sup + 10.0) ** 2
    est = integrate_half_line(
        inner, q, center=max(sup, 1.0) / ny, must_cover=(1e-9, tau_far)
    )
    return est.scaled((4.0 * math.pi) ** (d / 2.0))


# ===========================================================================
# Gaussian means of radial profiles
# ===========================================================================


# sigma / R at or below which _ball_overlap conditions on the transverse
# chi-squared law in place of calling chndtr
_CONDITION_BELOW = 0.1


def _ball_overlap(R: float, mu, sigma, d: int) -> np.ndarray:
    """P(|Z| <= R) for Z ~ N(m, sigma^2 I_d), |m| = mu, vectorized in (mu, sigma).

    d = 3 has the elementary closed form.  Other dimensions take one of two
    exact forms (Johnson, Kotz & Balakrishnan, vol. 2, ch. 29):

      * sigma > R/10: the noncentral chi-squared CDF
        P(chi'^2_d(mu^2/sigma^2) <= R^2/sigma^2), ``scipy.special.chndtr``
        through ``special.noncentral_chi2_cdf`` (the first call loads
        ``scipy.special``);
      * sigma <= R/10, where chndtr is slow near mu = R and returns NaN there
        once sigma is tiny: with m on the first axis, condition on
        C = xi_2^2 + ... + xi_d^2 ~ chi^2_{d-1}.  The event is then
        |mu + sigma xi_1| <= rho = sqrt(R^2 - sigma^2 C), so the overlap is
        E_C[Phi((rho - mu)/sigma) - Phi((-rho - mu)/sigma)].  rho - mu is
        formed as ((R - mu)(R + mu) - sigma^2 C)/(rho + mu), free of
        cancellation at mu ~ R, and the integrand is smooth enough in C for
        the 16-node rule of ``_transverse_rule`` to be exact to rounding.

    Both are within 1e-15 absolute of a 30-digit mpmath oracle at d = 4, 5,
    6 and 8.
    """
    shape = np.broadcast(np.asarray(mu), np.asarray(sigma)).shape
    mu = np.broadcast_to(np.asarray(mu, dtype=float), shape).copy()
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), shape).copy()
    if R <= 0.0:
        return np.zeros(shape)
    if math.isinf(R):
        return np.ones(shape)
    # sigma can round to zero at bridge endpoints; the limit is a step
    degenerate = sigma <= 1e-150 * (mu + R + 1.0)
    if np.any(degenerate):
        out = np.where(mu <= R, 1.0, 0.0)
        live = ~degenerate
        if np.any(live):
            out[live] = _ball_overlap(R, mu[live], sigma[live], d)
        return out
    if d == 3:
        a = (R - mu) / sigma
        b = (R + mu) / sigma
        base = norm_cdf(a) - norm_cdf(-b)
        scale = np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b)
        small = mu < 1e-10 * sigma
        safe_mu = np.where(small, 1.0, mu)
        corr = sigma / (safe_mu * math.sqrt(2.0 * math.pi)) * scale
        # mu -> 0 limit: chi distribution with 3 dof
        x = R / sigma
        limit = norm_cdf(x) - norm_cdf(-x) - 2.0 * x * np.exp(-0.5 * x * x) / math.sqrt(
            2.0 * math.pi
        )
        return np.where(small, limit, np.clip(base - corr, 0.0, 1.0))
    wide = sigma > _CONDITION_BELOW * R
    out = np.empty(shape)
    out[wide] = noncentral_chi2_cdf((R / sigma[wide]) ** 2, d, (mu[wide] / sigma[wide]) ** 2)
    m, s = mu[~wide][:, None], sigma[~wide][:, None]
    c, w = _transverse_rule(d)
    s2c = s * s * c
    top = np.sqrt(np.maximum(R * R - s2c, 0.0)) + m  # rho + mu
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = norm_cdf(((R - m) * (R + m) - s2c) / (top * s)) - norm_cdf(-top / s)
    out[~wide] = np.where(s2c < R * R, hit, 0.0) @ w
    return out


@functools.lru_cache(maxsize=None)
def _transverse_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """16-node rule for E f(C), C ~ chi^2_{d-1}: nodes and weights summing to 1.

    Generalized Gauss-Laguerre with weight y^((d-3)/2) e^-y (C = 2y), built
    by Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the Laguerre recurrence, and each weight is the
    squared first component of its eigenvector.
    """
    alpha = 0.5 * (d - 3)
    i = np.arange(16.0)
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    y, vecs = np.linalg.eigh(np.diag(2.0 * i + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = 2.0 * y, vecs[0] ** 2 / np.sum(vecs[0] ** 2)
    nodes.setflags(write=False)  # shared by every caller through the cache
    weights.setflags(write=False)
    return nodes, weights


def _q3_density(s: np.ndarray, mu, sigma, sigma2, sigma3) -> np.ndarray:
    """Radial density of |Z|, Z ~ N(m, sigma^2 I_3), |m| = mu (stable sinh form).

    Elementwise in (s, mu, sigma); sigma2 and sigma3 are sigma**2 and
    sigma**3.  mu below 1e-12 sigma takes the centred (chi, 3 dof) density.
    """
    centred = mu < 1e-12 * sigma
    mu = np.where(centred, 1.0, mu)
    arg = s * mu / sigma2
    with np.errstate(over="ignore"):
        core = np.exp(-0.5 * (s * s + mu * mu) / sigma2 + np.abs(arg))
        sinh_scaled = 0.5 * (1.0 - np.exp(-2.0 * np.abs(arg)))
    off = s / (mu * sigma * math.sqrt(2.0 * math.pi)) * 2.0 * core * sinh_scaled
    on = math.sqrt(2.0 / math.pi) * s * s / sigma3 * np.exp(-0.5 * (s / sigma) ** 2)
    return np.where(centred, on, off)


def _radial_gaussian_mean(
    prof: RadialProfile,
    mu: np.ndarray,
    sigma: np.ndarray,
    d: int,
    q: QuadratureSpec,
    inner: set[Status],
) -> np.ndarray:
    """E |V|(|Z|) with Z ~ N(m, sigma^2 I_d), |m| = mu, vectorized over probes.

    The statuses of the means integrated by quadrature (smooth profiles)
    are added to ``inner``, for the caller to ``_fold`` into its result.
    """
    if prof.constant_cells is not None:
        out = np.zeros(np.broadcast(mu, sigma).shape)
        for lo, hi, val in prof.constant_cells:
            if val == 0.0:
                continue
            out += val * (_ball_overlap(hi, mu, sigma, d) - _ball_overlap(lo, mu, sigma, d))
        return out
    if d != 3:
        raise GeometryError(
            "smooth radial profiles in the bridge functionals require d = 3 "
            "(other dimensions support piecewise-constant profiles)"
        )
    mu_flat = np.atleast_1d(mu).ravel()
    sg_flat = np.atleast_1d(np.broadcast_to(sigma, np.shape(mu))).ravel()
    out = np.zeros_like(mu_flat)
    probes = []  # (index into out, lo, hi) of the means left to integrate
    for i, (m, sg) in enumerate(zip(mu_flat, sg_flat)):
        if sg <= 1e-150 * (m + 1.0):
            # deterministic limit: the Gaussian mean collapses to a point value
            out[i] = prof.abs_value(m)
            continue
        hi = min(prof.support, m + 10.0 * sg)
        lo = max(0.0, m - 10.0 * sg)
        if hi > lo:
            probes.append((i, lo, hi))

    idx = [i for i, _, _ in probes]
    mus, sgs = mu_flat[idx], sg_flat[idx]
    # sigma**2 and sigma**3 once per probe: a scalar ** is libm's pow, which
    # numpy's array power may round apart
    sg2s = np.array([v**2 for v in sgs])
    sg3s = np.array([v**3 for v in sgs])

    def integrand(i: np.ndarray, s: np.ndarray) -> np.ndarray:
        return prof.abs_value(s) * _q3_density(s, mus[i], sgs[i], sg2s[i], sg3s[i])

    ests = integrate_finite(
        integrand,
        [lo for _, lo, _ in probes],
        [hi for _, _, hi in probes],
        q,
        [[b for b in prof.breakpoints if lo < b < hi] for _, lo, hi in probes],
    )
    for (i, _, _), est in zip(probes, ests):
        out[i] = est.value
        inner.add(est.status)
    return out.reshape(np.shape(mu))


# ===========================================================================
# bridge functionals
# ===========================================================================


def _crossing_times(x: np.ndarray, y: np.ndarray, t: float, radii) -> list[float]:
    """Times where |x + (s/t)(y - x)| crosses the given radii (quadratics)."""
    dxy = y - x
    a = float(np.dot(dxy, dxy)) / (t * t)
    b = 2.0 * float(np.dot(x, dxy)) / t
    c0 = float(np.dot(x, x))
    out = []
    for r in radii:
        if not math.isfinite(r):
            continue
        c = c0 - r * r
        if a == 0.0:
            if b != 0.0:
                out.append(-c / b)
            continue
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            rt = math.sqrt(disc)
            out.extend([(-b - rt) / (2.0 * a), (-b + rt) / (2.0 * a)])
    return [s for s in out if 0.0 < s < t]


def _bridge_inputs(V: Potential, spec: BridgeSpec) -> tuple:
    """(d, radial profile of V, x, y) of a bridge functional, checked."""
    d, x, y = _probe_args(V, spec.d, spec.x, spec.y)
    if V.symmetry is not Symmetry.RADIAL:
        raise GeometryError("bridge functionals support radial potentials in v1")
    return d, radial_profile(V), x, y


def s_functional(
    V: Potential, spec: BridgeSpec, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Bridge potential S(V, t, x, y): the expected integral of |V| along the
    pinned bridge, evaluated as a time integral of Gaussian means of |V|."""
    d, prof, x, y = _bridge_inputs(V, spec)
    t = spec.t
    inner: set[Status] = set()

    def integrand(s: np.ndarray) -> np.ndarray:
        frac = s / t
        m = x[None, :] + frac[:, None] * (y - x)[None, :]
        mu = np.sqrt(_sq_norm(m))
        var = 2.0 * s * (t - s) / t
        return _radial_gaussian_mean(prof, mu, np.sqrt(var), d, q, inner)

    breaks = _crossing_times(x, y, t, prof.breakpoints) + [t / 2.0]
    return _fold(integrate_finite(integrand, 0.0, t, q, breakpoints=breaks), inner)


def _n_halves(
    V: Potential, spec: BridgeSpec, q: QuadratureSpec
) -> tuple[Estimate, Estimate]:
    """The two half-integrals of N over [0, t/2] and [t/2, t], unnormalized.

    Both integrate Gaussian means of |V| along the straight path from y to
    x, with per-coordinate variance 2 tau (first half) and 2 (t - tau)
    (second half); each folds in the statuses of its own means.
    """
    d, prof, x, y = _bridge_inputs(V, spec)
    t = spec.t
    crossings = _crossing_times(y, x, t, prof.breakpoints)

    def half(elapsed: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> Estimate:
        inner: set[Status] = set()

        def integrand(tau: np.ndarray) -> np.ndarray:
            c = y[None, :] - (tau / t)[:, None] * (y - x)[None, :]
            mu = np.sqrt(_sq_norm(c))
            return _radial_gaussian_mean(prof, mu, np.sqrt(2.0 * elapsed(tau)), d, q, inner)

        breaks = [s for s in crossings if lo < s < hi]
        return _fold(integrate_finite(integrand, lo, hi, q, breakpoints=breaks), inner)

    return half(lambda tau: tau, 0.0, t / 2.0), half(lambda tau: t - tau, t / 2.0, t)


def n_functional(
    V: Potential, spec: BridgeSpec, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Two-sided approximation functional N(V, t, x, y): the sum of the two
    half-integrals of ``_n_halves``; no (4 pi)^{-d/2} normalization is applied.
    """
    est1, est2 = _n_halves(V, spec, q)
    return (est1 + est2).scaled((4.0 * math.pi) ** (as_dimension(spec.d) / 2.0))


# ===========================================================================
# Gaussian convolution (semigroup identity cross-check)
# ===========================================================================


def gaussian_convolution(
    t: float, s: float, x, y, d, q: QuadratureSpec = DEFAULT_SPEC_2D
) -> Estimate:
    """Quadrature of int g(s, x, z) g(t-s, z, y) dz via cylindrical reduction.

    Independent of the Gaussian product identity it is used to verify: only
    rotational symmetry about the x-y axis is assumed.
    """
    d = as_dimension(d)
    if not (0.0 < s < t):
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    L = float(np.linalg.norm(yv - xv))
    su = t - s
    lg = -0.5 * d * (math.log(4.0 * math.pi * s) + math.log(4.0 * math.pi * su))
    sig = math.sqrt(2.0 * max(s, su))
    area = sphere_area(d - 2)

    def f2(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
        e = -(z * z + rho * rho) / (4.0 * s) - ((z - L) ** 2 + rho * rho) / (4.0 * su) + lg
        return np.exp(np.maximum(e, -745.0)) * rho ** (d - 2)

    span = 9.0 * sig
    est = integrate_2d(
        f2,
        (-span, L + span),
        (0.0, span),
        q,
        xbreaks=[0.0, L],
        ybreaks=[0.25 * span],
    )
    return est.scaled(area)


# ===========================================================================
# supremum search
# ===========================================================================


@dataclass(frozen=True)
class AxisSpec:
    """One search coordinate; log axes may include an exact zero probe.

    [lo, hi] bounds the coarse grid.  The simplex refinement of a log axis
    may walk on to [lo * 1e-3, hi * 1e3]: the suprema searched here are
    often approached at an end of the axis (S grows as t -> inf), and every
    probe, inside the bounds or not, gives a valid lower bound.
    """

    name: str
    lo: float
    hi: float
    scale: str = "log"  # or "linear"
    include_zero: bool = False

    def grid(self, n: int) -> np.ndarray:
        if self.scale == "log":
            pts = np.exp(np.linspace(math.log(self.lo), math.log(self.hi), n))
            if self.include_zero:
                pts = np.concatenate([[0.0], pts])
            return pts
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class SearchStrategy:
    """Grid points per axis, simplex runs, and each run's iteration cap.

    nm_max_iter counts as scipy's Nelder-Mead ``maxiter`` does: the loop
    counter starts at 1, so a run takes at most nm_max_iter - 1 simplex
    steps (``--nm-iters 5`` runs 4).  The count is kept because changing
    it changes every search result.
    """

    grid_density: int = 7
    multistarts: int = 3
    nm_max_iter: int = 160

    def __post_init__(self) -> None:
        if self.grid_density < 1:
            raise ValueError(f"grid_density must be >= 1, got {self.grid_density}")
        if self.multistarts < 0:
            raise ValueError(f"multistarts must be >= 0, got {self.multistarts}")


@dataclass(frozen=True)
class SupResult:
    """Best probed value (a certified lower bound on the supremum).

    estimate is the objective's own Estimate at the argmax probe arg;
    evaluations counts the probes requested, repeats included.
    """

    value: float
    estimate: Estimate
    arg: dict
    evaluations: int
    strategy_trace: tuple[str, ...]
    boundary_hit: bool


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray, max_iter: int) -> np.ndarray:
    """Downhill simplex (Nelder & Mead, Comput. J. 7, 1965) minimising f from x0.

    Step for step scipy's Nelder-Mead (``scipy.optimize.minimize`` with
    ``method="Nelder-Mead"`` and options ``maxiter=max_iter``, ``xatol=1e-6``,
    ``fatol=1e-12``): no bounds, fixed coefficients, the default initial
    simplex (each coordinate in turn times 1.05, or 0.00025 where it is
    zero), and the loop counter starting at 1, so at most max_iter - 1
    steps are taken.  The same points are requested in the same order and
    the same best vertex is returned.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.array([f(v) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort is not stable, so the second
    # pass may reorder ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < max_iter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-6
            and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0]


def sup_search(
    objective: Callable[[np.ndarray], Estimate],
    domain: Sequence[AxisSpec],
    strategy: SearchStrategy = SearchStrategy(),
) -> SupResult:
    """Coarse product grid plus multistart downhill-simplex refinement.

    Each of the best ``multistarts`` grid points seeds one ``_nelder_mead``
    run (scipy's Nelder-Mead, step for step) in internal coordinates: the
    log of a log axis, a linear axis as is.  The reported value is the
    maximum over every probed point, a lower bound on the supremum; no
    claim of global optimality is made.  A probe whose value is not finite
    counts as -inf.  The grid spans each axis's [lo, hi]; the simplex may
    leave it, up to lo * 1e-3 and hi * 1e3 on a log axis (see AxisSpec).
    boundary_hit flags a coarse-grid argmax on the outer edge of a log
    axis, the cue for a growth diagnosis.

    The objective returns an Estimate and must be a pure function of the
    point: the grid, every simplex run and each run's closing re-evaluation
    share one memo, keyed by the point's float64 bytes, that lives for this
    call only, so each distinct point is computed once.  ``evaluations``
    still counts every probe requested.
    """
    axes = list(domain)
    grids = [ax.grid(strategy.grid_density) for ax in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    memo: dict[bytes, Estimate] = {}
    evals = 0

    def probe(pt: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        key = pt.tobytes()
        if key not in memo:
            memo[key] = objective(pt)
        value = memo[key].value
        return value if math.isfinite(value) else -math.inf

    values = np.array([probe(pt) for pt in points], dtype=float)
    order = np.argsort(values)[::-1]
    best_idx = int(order[0])
    best_val = float(values[best_idx])
    best_pt = points[best_idx]
    trace = [f"grid: {points.shape[0]} points, best {best_val:.6g}"]

    boundary = False
    for j, ax in enumerate(axes):
        if ax.scale == "log" and best_pt[j] > 0 and (
            best_pt[j] >= ax.hi * 0.999 or best_pt[j] <= ax.lo * 1.001
        ):
            boundary = True

    def to_internal(pt: np.ndarray) -> np.ndarray:
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(math.log(max(pt[j], ax.lo * 1e-3)))
            else:
                out.append(pt[j])
        return np.asarray(out)

    def to_external(u: np.ndarray) -> np.ndarray:
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(min(max(math.exp(u[j]), ax.lo * 1e-3), ax.hi * 1e3))
            else:
                out.append(min(max(u[j], ax.lo), ax.hi))
        return np.asarray(out, dtype=float)

    # the grid's points are distinct: each axis grid increases
    for start in points[order[: strategy.multistarts]]:
        u = _nelder_mead(lambda v: -probe(to_external(v)), to_internal(start), strategy.nm_max_iter)
        cand_pt = to_external(u)
        cand_val = probe(cand_pt)
        if cand_val > best_val:
            best_val = cand_val
            best_pt = cand_pt
        trace.append(f"simplex from {np.round(start, 6).tolist()}: {cand_val:.6g}")

    arg = {ax.name: float(v) for ax, v in zip(axes, best_pt)}
    return SupResult(best_val, memo[best_pt.tobytes()], arg, evals, tuple(trace), boundary)


# ===========================================================================
# norms: sup search + divergence diagnosis
# ===========================================================================


@dataclass(frozen=True)
class NormReport:
    """A probed norm: estimate.value is a lower bound on the supremum.

    The error bound and status are those of the argmax probe (sup.estimate),
    or of the growth verdict when the ladder decides: its last truncation
    is larger than the probed sup (+inf when divergent).  A ladder's status
    counts either way: the worse of the two is reported.
    """

    estimate: Estimate
    sup: SupResult
    diagnosis: GrowthDiagnosis | None


def _norm_report(sup: SupResult, diagnosis: GrowthDiagnosis | None = None) -> NormReport:
    probe = sup.estimate
    est = Estimate(sup.value, probe.error_bound, probe.status)
    if diagnosis is not None:
        verdict = verdict_estimate(diagnosis)
        if verdict.value > est.value:
            est = verdict
        est = Estimate(est.value, est.error_bound, worst_status(verdict.status, probe.status))
    return NormReport(est, sup, diagnosis)


def truncate_potential(V: Potential, R: float) -> Potential:
    """Restrict V to (roughly) the centered ball of radius R, form by form."""
    if isinstance(V, Constant):
        if V.value == 0.0:
            return V
        return BallIndicator(None, R, V.value)
    if isinstance(V, BallIndicator):
        return V  # compact already; finer intersection unneeded for ladders
    if isinstance(V, RadialPower):
        if V.outer_radius <= R:
            return V
        if V.inner_radius >= R:
            return Scale(0.0, V)
        return RadialPower(V.exponent, V.inner_radius, R, V.amplitude)
    if isinstance(V, CounterexampleA):
        cap = R if V.z1_max is None else min(R, V.z1_max)
        if cap <= 4.0:
            return Scale(0.0, V)
        return CounterexampleA(z1_max=cap)
    if isinstance(V, Dilate):
        return Dilate(V.s, truncate_potential(V.inner, R * math.sqrt(V.s)))
    if isinstance(V, Scale):
        return Scale(V.factor, truncate_potential(V.inner, R))
    if isinstance(V, Sum):
        return Sum(tuple(truncate_potential(t, R) for t in V.terms))
    raise BridgepotError(f"cannot truncate {type(V).__name__}")


def k_norm(
    V: Potential,
    d,
    q: QuadratureSpec | None = None,
    strategy: SearchStrategy = SearchStrategy(grid_density=5),
    ladder: Sequence[float] | None = None,
) -> NormReport:
    """Probed sup of K(V, x, y), with a growth diagnosis when warranted.

    For radial V the sup is searched over (|x|, |y|, angle); for axial V
    over axis probes (angle 0).  When the coarse max lands on the search
    boundary or the support of V is unbounded, truncations of V are
    growth-diagnosed at the certificate probe (x = 0, y = e1).  Unbounded
    supports are searched through a truncation (pointwise kernel integrals
    need not even be finite there); the probed sup stays a valid lower bound
    because truncation only removes nonnegative mass.  Every probe passes q
    to k_transform as given, so None keeps the default spec of each route.
    """
    d = as_dimension(d)
    if ladder is None:
        ladder = [10.0**k for k in range(2, 6)]
    V_search = V if V.is_compact else truncate_potential(V, max(ladder))
    if V.symmetry is Symmetry.RADIAL:
        domain = [
            AxisSpec("r_x", 1e-3, 1e3, "log", include_zero=True),
            AxisSpec("r_y", 1e-3, 1e3, "log", include_zero=True),
            AxisSpec("cos_angle", -1.0, 1.0, "linear"),
        ]
    else:
        domain = [
            AxisSpec("x1", 1e-2, 1e4, "log", include_zero=True),
            AxisSpec("y1", 1e-2, 1e4, "log", include_zero=True),
        ]
    sup = sup_search(lambda p: k_transform(V_search, *_probe_pair(d, *p), d, q), domain, strategy)

    diagnosis = None
    if sup.boundary_hit or not V.is_compact:
        px, py = _probe_pair(d, 0.0, 1.0)
        diagnosis = growth_diagnosis(
            lambda R: k_transform(truncate_potential(V, R), px, py, d, q), ladder
        )
    return _norm_report(sup, diagnosis)


def newton_norm(
    V: Potential,
    d,
    q: QuadratureSpec | None = None,
    strategy: SearchStrategy = SearchStrategy(),
) -> NormReport:
    """Probed sup over x of the Newton potential of |V| (q as in newton_potential)."""
    d = as_dimension(d)

    def objective(p: np.ndarray) -> Estimate:
        x = np.zeros(d)
        x[0] = p[0]
        return newton_potential(V, x, d, q)

    if V.symmetry is Symmetry.RADIAL:
        domain = [AxisSpec("r_x", 1e-3, 1e4, "log", include_zero=True)]
    else:
        domain = [AxisSpec("x1", 4.0, 1e6, "log")]
    return _norm_report(sup_search(objective, domain, strategy))


def s_norm(
    V: Potential,
    d,
    q: QuadratureSpec = DEFAULT_SPEC_1D,
    strategy: SearchStrategy = SearchStrategy(grid_density=5),
) -> NormReport:
    """Probed sup of the bridge potential over (t, x, y) for radial V."""
    d = as_dimension(d)

    def objective(p: np.ndarray) -> Estimate:
        x, y = _probe_pair(d, *p[1:])
        return s_functional(V, BridgeSpec(p[0], tuple(x), tuple(y)), q)

    domain = [
        AxisSpec("t", 1e-2, 1e4, "log"),
        AxisSpec("r_x", 1e-2, 1e2, "log", include_zero=True),
        AxisSpec("r_y", 1e-2, 1e2, "log", include_zero=True),
        AxisSpec("cos_angle", -1.0, 1.0, "linear"),
    ]
    return _norm_report(sup_search(objective, domain, strategy))


# ===========================================================================
# the compact-support construction
# ===========================================================================


def build_compact_counterexample(
    n_terms: int = 3,
    d: int = 4,
    q: QuadratureSpec = DEFAULT_SPEC_2D,
) -> tuple[Potential, list[float]]:
    """Sum of dilated truncations with supports in the unit ball.

    Term n truncates the paraboloidal potential at z1 <= R_n, chosen so the
    truncated kernel norm at the probe (x = 0, y = e1) is at least 4^n, and
    dilates it into the unit ball; the weights 2^{-n} keep the Newton
    potential bounded while kernel-norm probes grow like 2^n.

    Returns the summed potential and the probe radii (one per term) at
    which the kernel transform of the sum exhibits the 2^n growth.
    """
    d = as_dimension(d)
    if n_terms < 1 or n_terms > 5:
        raise BridgepotError("n_terms must be between 1 and 5 (float range)")
    x0, y0 = _probe_pair(d, 0.0, 1.0)

    norms: dict[float, float] = {}  # each term restarts from a radius already probed

    def probe_norm(R: float) -> float:
        if R not in norms:
            norms[R] = k_transform(CounterexampleA(z1_max=R), x0, y0, d, q).value
        return norms[R]

    terms = []
    probe_radii = []
    R = 8.0
    for n in range(1, n_terms + 1):
        target = 4.0**n
        while probe_norm(R) < target:
            R *= 4.0
        lo, hi = R / 4.0, R
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if probe_norm(mid) >= target:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.01:
                break
        Rn = hi
        rho = math.sqrt(Rn * Rn + Rn)  # truncated support radius
        terms.append(Scale(2.0**-n, Dilate(rho * rho, CounterexampleA(z1_max=Rn))))
        probe_radii.append(rho)
        R = max(Rn, 8.0)
    return Sum(tuple(terms)), probe_radii
