"""Integral transforms of potentials, supremum search, and norm diagnostics.

The transforms all integrate |V| against a kernel and are evaluated with
symmetry-aware dimension reduction:

  * radially symmetric V, probe pairs with y != 0: spherical coordinates
    about the kernel axis reduce the d-dimensional integral to an adaptive
    2D (s, alpha) cubature whose innermost azimuthal factor is closed-form
    (indicator cells) or a short Gauss-Legendre rule (power cells);
  * radially symmetric V at y = 0, where k0 is the Riesz kernel
    |z - x|^{2-d}: the Newton potential's 1D integral over r of the
    kernel's spherical mean max(r, |x|)^{2-d}, without C_d;
  * axially symmetric V with probes on the symmetry axis: cylindrical
    coordinates (z1, rho) with the (d-2)-sphere surface factor;
  * the |z - x|^{2-d} singularity sits at s = 0 in the polar variables,
    where the Jacobian cancels it.

Every transform checks its probes and V's pinned dimension in one place
(``_probe_args``) and integrates a sign-uniform Sum term by term.  The
(s, alpha) route takes |V| as power cells from ``RadialProfile.kernel_cells``
(which rejects overlapping cells of both signs); pointwise |V| comes from
the potential's own values (``RadialProfile.abs_value``).

The bridge functionals integrate Gaussian averages of |V| in time, each
time integral a row of one owner-indexed lockstep call
(``_path_integrals``): S is one row, N's two halves are two, and the
bridge norm's search passes each batch of probes as the rows of one call.
For d = 3 the radial Gaussian mean of a smooth profile integrates |V|
against the elementary density of |Z|, all probes in one lockstep call.
For piecewise-constant radial profiles it is a sum of ball overlaps, one
per distinct cell edge, in every dimension the noncentral chi-squared CDF,
conditioned exactly on the transverse chi-squared law at small variance.

Norms are probed suprema (``search.sup_search``), reported as certified
lower bounds; divergence of a norm is only ever asserted through a growth
diagnosis of truncations, never from a single quadrature.  Axial probes
share their 2D integrand calls: the kernel norm's search computes each
round's new probes in one lockstep ``integrate_2d`` call, and the Newton
potential's axial growth ladder integrates its shells in one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    fold_status,
    integrate_2d,
    integrate_finite,
    integrate_half_line,
)
from .search import AxisSpec, SearchStrategy, SupResult, sup_search
from .special import noncentral_chi2_cdf, norm_cdf, sin_power_antideriv, sphere_area

__all__ = [
    "BridgeSpec",
    "NormReport",
    "k_transform",
    "newton_potential",
    "j_transform",
    "n_functional",
    "s_functional",
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
_GL24_AT = 0.5 * (_GL24[0] + 1.0)  # the nodes mapped to [0, 1]
# rows of a power cell, or of a ball overlap's transverse rule, evaluated at
# once: a (480, 24) float64 block is 90 KiB, a (480, 16) one 60 KiB, under
# malloc's 128 KiB mmap threshold however many rows a call has
_ROW_BLOCK = 480


@functools.cache
def _whole_window(m: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """cos psi, sin^m psi (None for m = 0) and the weights of the 24-point
    rule on the whole psi window [0, pi], formed with the operations that
    ``_power_cell_sums`` applies to a window with psi_a = 0 and width = pi,
    so a row that reads them gets the bits it would compute."""
    psi = _GL24_AT * math.pi
    sin_m = None if m == 0 else np.sin(psi) if m == 1 else np.sin(psi) ** m
    return np.cos(psi), sin_m, (0.5 * math.pi) * _GL24[1]


def _azimuthal_mass(
    A: np.ndarray,
    B: np.ndarray,
    cells: Sequence[tuple[float, float, float, float]],
    m: int,
) -> np.ndarray:
    """Sum over cells of the int over psi of |V|(R(psi)) sin^m psi dpsi.

    R(psi)^2 = A + B cos psi with B >= 0; a cell (lo, hi, amp, expo)
    occupies radii [lo, hi], which pulls back to one psi interval.  Constant
    cells use the closed sin-power antiderivative, power cells a 24-point
    Gauss rule (``_power_cell_sums``), evaluated only on the rows whose psi
    window is not empty and in blocks of at most ``_ROW_BLOCK`` rows, so
    the integrand's wide temporaries are bounded by the block, not by the
    number of nodes in the call.  What no cell changes (the degenerate-axis
    mask, the divisor, A + B + 1) is computed once for all cells.  Rows
    whose window is all of [0, pi] share one table of the rule's nodes
    (``_whole_window``).  A call with no degenerate row (B <= 1e-14
    max(A, 1)) skips the degenerate-axis selection: its divisor is B > 0
    and every A is finite, so no division can fail.  Each row's value is
    computed from its own A and B by the same operations in the same order
    whichever branch its batch takes, so it does not depend on the batch.
    """
    small = B <= 1e-14 * np.maximum(A, 1.0)
    degenerate = bool(small.any())
    divisor = np.where(small, 1.0, B) if degenerate else B
    top = A + B + 1.0
    mass = np.zeros_like(A)
    for lo, hi, amp, expo in cells:
        lo2, hi2 = lo * lo, hi * hi if math.isfinite(hi) else math.inf
        if degenerate:
            # degenerate axis: R is constant sqrt(A); the cell is all or nothing
            inside = (A >= lo2) & (A <= hi2)
            with np.errstate(divide="ignore", invalid="ignore"):
                c_hi = np.where(small, np.where(inside, 1.0, -2.0), (np.minimum(hi2, top) - A) / divisor)
                c_lo = np.where(small, np.where(inside, -1.0, 2.0), (lo2 - A) / divisor)
        else:
            c_hi = (np.minimum(hi2, top) - A) / divisor
            c_lo = (lo2 - A) / divisor
        # cos psi in [c_lo, c_hi]  <=>  psi in [arccos(c_hi), arccos(c_lo)],
        # each clipped to [-1, 1] in place
        for c in (c_hi, c_lo):
            np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)
        psi_a = np.arccos(c_hi, out=c_hi)
        psi_b = np.arccos(c_lo, out=c_lo)
        if expo == 0.0 and m <= 4:
            anti = sin_power_antideriv(m, psi_b) - sin_power_antideriv(m, psi_a)
            mass += abs(amp) * np.maximum(anti, 0.0)
            continue
        width = np.maximum(psi_b - psi_a, 0.0)
        whole = (width == math.pi) & (psi_a == 0.0)
        rows = np.flatnonzero(whole)
        if rows.size:
            mass[rows] += abs(amp) * _power_cell_sums(A[rows], B[rows], None, None, lo, hi, expo, m)
        rows = np.flatnonzero((width != 0.0) & ~whole)  # an empty window adds nothing
        if rows.size:
            sums = _power_cell_sums(A[rows], B[rows], psi_a[rows], width[rows], lo, hi, expo, m)
            mass[rows] += abs(amp) * sums
    return mass


def _power_cell_sums(A, B, psi_a, width, lo, hi, expo, m) -> np.ndarray:
    """Per row, the 24-point Gauss sum of R^expo sin^m psi over the cell's
    psi window [psi_a, psi_a + width], nodes with R outside [lo, hi] left out.

    psi_a = width = None is the whole window [0, pi]: its nodes' cos psi,
    sin^m psi and weights come from ``_whole_window(m)``, not from 24 cos
    and 24 sin calls per row.  A cell with lo > 0 has R > 0 wherever it is
    nonzero, so its R = 0 mask is its own complement.  The rows go in blocks
    of ``_ROW_BLOCK`` through two reused node buffers.
    """
    n = A.size
    sums = np.empty(n)
    k = min(n, _ROW_BLOCK)
    psi, R = np.empty((k, 24)), np.empty((k, 24))
    cell, flag = np.empty((k, 24), dtype=bool), np.empty((k, 24), dtype=bool)
    whole = psi_a is None
    if whole:
        cos_psi, sin_m, weights = _whole_window(m)
    else:
        half_width = 0.5 * width
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        j = min(n - start, _ROW_BLOCK)
        p, r, c, f = psi[:j], R[:j], cell[:j], flag[:j]
        if whole:
            np.multiply(cos_psi, B[block, None], out=r)
        else:
            np.multiply(_GL24_AT, width[block, None], out=p)
            p += psi_a[block, None]
            np.cos(p, out=r)
            r *= B[block, None]
        r += A[block, None]
        np.maximum(r, 0.0, out=r)
        np.sqrt(r, out=r)
        np.greater_equal(r, lo, out=c)
        c &= np.less_equal(r, hi, out=f)
        # R^expo on the cell, with R = 0 read as 1, and 0 off it
        if lo > 0.0:
            np.logical_not(c, out=c)
            np.copyto(r, 1.0, where=c)
        else:
            np.greater(r, 0.0, out=f)
            f &= c
            np.logical_not(f, out=f)
            np.copyto(r, 1.0, where=f)
            np.logical_not(c, out=c)
        r **= expo
        np.copyto(r, 0.0, where=c)
        if whole:
            if m:
                r *= sin_m
            r *= weights
        else:
            if m:
                np.sin(p, out=p)
                if m > 1:
                    p **= m
                r *= p
            np.multiply(half_width[block, None], _GL24[1], out=p)
            r *= p
        r.sum(axis=1, out=sums[block])
    return sums


def _radial_riesz(
    V: Potential, xs: list[np.ndarray], d: int, q: QuadratureSpec, scale: float
) -> list[Estimate]:
    """scale * int |V(z)| |z - x|^{2-d} dz / |S^{d-1}| for radial V, at each probe xs[i].

    The spherical mean of the Riesz kernel over |z| = r is max(r, |x|)^{2-d},
    so one integral over r remains.  A bounded support integrates every
    probe in one lockstep call; an unbounded one integrates every probe's
    growth ladder of shells in one lockstep call, and each probe's verdict
    reads its own slice of them.
    """
    prof = radial_profile(V)
    R = np.array([float(np.linalg.norm(xv)) for xv in xs])

    def integrand(i: np.ndarray, r: np.ndarray) -> np.ndarray:
        shell = np.where(r >= R[i], r, np.maximum(R[i], 1e-300))
        return prof.abs_value(r) * r ** (d - 1) * shell ** (2.0 - d)

    breaks = [sorted({radius, *prof.breakpoints}) for radius in R.tolist()]
    if math.isfinite(prof.support):
        ests = integrate_finite(integrand, [0.0] * len(xs), [prof.support] * len(xs), q, breaks)
        return [est.scaled(scale) for est in ests]
    bases = [max([b for b in bs if math.isfinite(b) and b > 0], default=1.0) for bs in breaks]
    ladders = [[base * 10.0**k for k in range(1, 9)] for base in bases]
    probe = np.repeat(np.arange(len(xs)), 8)
    ests = integrate_finite(
        lambda owner, r: integrand(probe[owner], r),
        [lo for ladder in ladders for lo in [0.0, *ladder[:-1]]],
        [hi for ladder in ladders for hi in ladder],
        q,
        [breaks[i] for i in probe],
    )
    out = []
    for i, ladder in enumerate(ladders):
        shells = ests[8 * i : 8 * i + 8]
        diag = growth_diagnosis(shell_sum(shells, ladder), ladder, rel_tol=1e-6)
        out.append(verdict_estimate(diag).scaled(scale))
    return out


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

    The terms of the alpha integrand that depend on s alone (s^2 + |x|^2,
    2 s |x|, -s |y| / 2, (2 - d) log s and (d - 3) / 2 log1p(s |y|)) are
    computed once per outer s node and gathered to the alpha nodes by
    owner.  Each is the product or sum that the per-node expression formed
    first, left to right, so every later operation sees the same operands
    in the same order and no bit of the result depends on where a term is
    computed.
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

    def alpha_integrand(terms: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        # terms: s_integrand's per-s rows, gathered to the alpha nodes
        sq, lin, half, log_s, log1p_s = terms
        sin_alpha = np.sin(alpha)
        omc = 2.0 * np.sin(0.5 * alpha) ** 2
        A = sq + lin * np.cos(alpha) * ct
        mass = _azimuthal_mass(A, lin * sin_alpha * st, cells, m)
        logk = half * omc + log_s + log1p_s
        return np.where(mass > 0.0, mass * np.exp(np.maximum(logk, -745.0)) * sin_alpha ** (d - 2), 0.0)

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
        # the alpha integrand's terms that depend on s alone, one column per
        # s node, each formed by the operations that formed it per alpha node
        terms = np.stack((
            s_live * s_live + nx * nx,
            2.0 * s_live * nx,
            -0.5 * s_live * ny,
            (2.0 - d) * np.log(s_live),
            0.5 * (d - 3.0) * np.log1p(s_live * ny),
        ))
        ests = integrate_finite(
            lambda owner, a: alpha_integrand(terms.take(owner, axis=1), a),
            [0.0] * live.size,
            [math.pi] * live.size,
            inner_spec,
            [alpha_kinks(s) for s in s_live],
        )
        inner.update(est.status for est in ests)
        weight = [math.exp(min((d - 1.0) * math.log(s), 700.0)) for s in s_live]
        out[live] = np.array([est.value for est in ests]) * weight
        return out

    # s runs over [0, nx + support], or the half-line for an unbounded
    # support; s = |nx - r| and nx + r, where the sphere about x meets a
    # cell edge r, are breakpoints
    sbreaks = sorted({b for r in radii for b in (abs(nx - r), nx + r) if b > 0.0})
    if math.isfinite(prof.support):
        s_max = nx + prof.support
        breaks = [b for b in sbreaks if b < s_max]
        est = integrate_finite(s_integrand, 0.0, s_max, q, breakpoints=breaks)
    else:
        center = max(sbreaks[0] if sbreaks else 1.0, 1e-6)
        upper = max(sbreaks[-1] if sbreaks else 1.0, nx + 1.0) * 10.0
        est = integrate_half_line(s_integrand, q, center=center, must_cover=(center * 1e-3, upper))
    return fold_status(est, inner).scaled(area)


# ===========================================================================
# axial transforms: the (z1, rho) reduction
# ===========================================================================


def _axial_transforms(
    V: Potential,
    x1: Sequence[float],
    y1: Sequence[float],
    d: int,
    q: QuadratureSpec,
    windows: Sequence[tuple[float, float]] | None = None,
) -> list[Estimate]:
    """integral of |V|(z) k0(z - x, y) dz for axial V, one per probe i.

    Probe i has x = x1[i] e1, y = y1[i] e1 and integrates only z1 in
    windows[i] (the whole line by default) intersected with the profile.
    At y1 = 0 the kernel k0 is the Newton kernel |z - x|^{2-d}; the one
    log-kernel formula gives (2 - d) log u there bit for bit.  The rho
    variable is normalized to the profile cap (eta = rho / cap(z1)) so each
    domain is a rectangle; a wide positive z1 range is integrated in
    w = log z1.  The probes' integrals run in lockstep, so each Estimate is
    the one the probe gets alone.
    """
    prof = axial_profile(V)
    if windows is None:
        windows = [(-math.inf, math.inf)] * len(x1)
    live, spans, breaks, use_log = [], [], [], []
    for i, (x, (w_lo, w_hi)) in enumerate(zip(x1, windows, strict=True)):
        z_lo = max(prof.z1_lo, w_lo)
        z_hi = min(prof.z1_hi, w_hi)
        if not (z_hi > z_lo):
            continue
        if math.isinf(z_hi):
            raise BridgepotError(
                "unbounded axial integrals must be truncated; diagnose growth instead"
            )
        z_breaks = [b for b in prof.breakpoints_z1 if z_lo < b < z_hi]
        if z_lo < x < z_hi:
            half = math.sqrt(max(abs(x), 1.0))
            z_breaks.extend([x, max(z_lo, x - half), min(z_hi, x + half)])
        logged = z_lo > 0.0 and z_hi / max(z_lo, 1e-300) > 50.0
        if logged:
            spans.append((math.log(z_lo), math.log(z_hi)))
            breaks.append([math.log(b) for b in z_breaks if b > 0])
        else:
            spans.append((z_lo, z_hi))
            breaks.append(z_breaks)
        live.append(i)
        use_log.append(logged)
    out = [_ZERO] * len(x1)
    if not live:
        return out
    px = np.array([x1[i] for i in live], dtype=float)
    py = np.array([y1[i] for i in live], dtype=float)
    ay, sign = np.abs(py), np.copysign(1.0, py)
    use_log = np.array(use_log)

    def physical(owner: np.ndarray, z1: np.ndarray, rho: np.ndarray) -> np.ndarray:
        vals = prof.abs_value(z1, rho)
        good = vals > 0.0
        every = bool(np.all(good))
        if not every:
            if not np.any(good):
                return np.zeros_like(z1)
            vals, rho, z1, owner = vals[good], rho[good], z1[good], owner[good]
        rho2 = rho * rho
        dz = z1 - px[owner]
        u = np.sqrt(dz * dz + rho2)
        w = sign[owner] * dz
        gap = np.where(w > 0.0, rho2 / (u + w), u - w)
        a = ay[owner]
        logk = -0.5 * a * gap + (2.0 - d) * np.log(u) + 0.5 * (d - 3.0) * np.log1p(u * a)
        found = vals * np.exp(np.maximum(logk, -745.0)) * rho ** (d - 2)
        if every:
            return found
        full = np.zeros(good.shape)
        full[good] = found
        return full

    def f2(owner: np.ndarray, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
        logged = use_log[owner]
        # exp only where the owner is log-mapped: a linear window's w can overflow it
        z1 = np.exp(w, out=w.copy(), where=logged)
        cap = prof.rho_cap(z1)
        found = physical(owner, z1, eta * cap) * cap
        return np.where(logged, found * z1, found)

    with np.errstate(divide="ignore", invalid="ignore"):
        ests = integrate_2d(f2, spans, (0.0, 1.0), q, xbreaks=breaks, ybreaks=[0.5])
    area = sphere_area(d - 2)
    for i, est in zip(live, ests):
        out[i] = est.scaled(area)
    return out


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

    For radial V at y = 0 this is newton_potential(V, x) / C_d, computed by
    the same route, so an unbounded support gets its growth verdict.  A
    given spec q is used on every route.  Without one, the radial route at
    y = 0 (a 1D integral) uses DEFAULT_SPEC_1D and the others
    DEFAULT_SPEC_2D.
    """
    d, xv, yv = _probe_args(V, d, x, y)
    return _k_transforms(V, [xv], [yv], d, q)[0]


def _k_transforms(
    V: Potential, xs: list[np.ndarray], ys: list[np.ndarray], d: int, q: QuadratureSpec | None
) -> list[Estimate]:
    """k_transform at each probe pair (xs[i], ys[i]), already checked.

    The axial route integrates every probe in one lockstep call, as does
    the radial route at y = 0 (``_radial_riesz``); the radial route at
    y != 0 takes its probes one by one.
    """
    parts = _split_same_sign_sum(V)
    if len(parts) > 1:
        columns = [_k_transforms(part, xs, ys, d, q) for part in parts]
        return [sum(row, _ZERO) for row in zip(*columns)]

    if V.symmetry is Symmetry.RADIAL:
        # at y = 0 the kernel is the Riesz kernel |z - x|^{2-d}: K is the
        # Newton potential's integral without C_d, all such probes in one call
        at0 = [i for i, yv in enumerate(ys) if float(np.linalg.norm(yv)) == 0.0]
        riesz = {}
        if at0:
            x0, spec = [xs[i] for i in at0], q or DEFAULT_SPEC_1D
            riesz = dict(zip(at0, _radial_riesz(V, x0, d, spec, sphere_area(d - 1))))
        return [
            riesz[i] if i in riesz else _k_like_radial_transform(V, x, y, d, q or DEFAULT_SPEC_2D)
            for i, (x, y) in enumerate(zip(xs, ys))
        ]

    if V.symmetry is Symmetry.AXIAL and all(_on_axis(v) for v in (*xs, *ys)):
        x1 = [float(xv[0]) for xv in xs]
        y1 = [float(yv[0]) for yv in ys]
        return _axial_transforms(V, x1, y1, d, q or DEFAULT_SPEC_2D)

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
    return _newton_potentials(V, [xv], d, q)[0]


def _newton_potentials(
    V: Potential, xs: list[np.ndarray], d: int, q: QuadratureSpec | None
) -> list[Estimate]:
    """newton_potential at each probe xs[i], already checked.

    A bounded support integrates every probe in one lockstep call; an
    unbounded one integrates every probe's growth ladder of shells in one
    lockstep call, and each probe's verdict reads its own slice of them.
    """
    cd = newton_constant(d)
    parts = _split_same_sign_sum(V)
    if len(parts) > 1:
        columns = [_newton_potentials(part, xs, d, q) for part in parts]
        return [sum(row, _ZERO) for row in zip(*columns)]

    if V.symmetry is Symmetry.RADIAL:
        return _radial_riesz(V, xs, d, q or DEFAULT_SPEC_1D, cd * sphere_area(d - 1))

    if V.symmetry is Symmetry.AXIAL and all(_on_axis(xv) for xv in xs):
        q = q or DEFAULT_SPEC_2D
        prof = axial_profile(V)
        x1 = [float(xv[0]) for xv in xs]
        if not math.isinf(prof.z1_hi):
            return [est.scaled(cd) for est in _axial_transforms(V, x1, [0.0] * len(x1), d, q)]
        # as above, with every probe's 12 shells in one lockstep call
        ladders = []
        for x in x1:
            base = max(abs(prof.z1_lo), abs(x), 4.0)
            ladders.append([base * 4.0**k for k in range(1, 13)])
        windows = [w for ladder in ladders for w in zip([prof.z1_lo, *ladder], ladder)]
        probes = [x for x, ladder in zip(x1, ladders) for _ in ladder]
        ests = _axial_transforms(V, probes, [0.0] * len(probes), d, q, windows)
        out = []
        for i, ladder in enumerate(ladders):
            shells = ests[12 * i : 12 * i + 12]
            diag = growth_diagnosis(shell_sum(shells, ladder), ladder, rel_tol=2e-3)
            out.append(verdict_estimate(diag).scaled(cd))
        return out

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
        return _radial_gaussian_mean(prof, mu, np.sqrt(2.0 * tau), d, q)[0]

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


def _ball_overlap(R, mu, sigma, d: int) -> np.ndarray:
    """P(|Z| <= R) for Z ~ N(m, sigma^2 I_d), |m| = mu, elementwise in (R, mu, sigma).

    R is finite and positive; R, mu and sigma broadcast together, so the
    radii of many balls can share one call.  Each element gets the bits it
    gets alone, whatever it is batched with: a lockstep integrand call packs
    the nodes of many integrals, and each integral must get its own bits.

    Every dimension takes one of two exact forms (Johnson, Kotz &
    Balakrishnan, vol. 2, ch. 29); d = 3 has none of its own, since its
    elementary form cancels catastrophically once sigma >> R:

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
        The rule's weighted sum is an einsum, which adds each row in one
        order: BLAS dgemv (``@``) rounds rows apart by their place in the
        batch.  The rows go in blocks of ``_ROW_BLOCK``, so the (rows x 16)
        temporaries are bounded by the block, not by the size of the call.

    Accuracy is relative, on seeded samples over sigma/R in [1e-3, 1e4]
    against mpmath: at d = 3 within 3e-14 above 1e-50 and 1e-11 down to
    1e-210; at d = 4, 5 and 6 within 2e-15 above 1e-280.  At d = 8 chndtr
    loses digits deep in the tail (1e-9 at 1e-31, sigma = 3300 R).
    """
    R, mu, sigma = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (R, mu, sigma)))
    shape = R.shape
    # sigma can round to zero at bridge endpoints; the limit is a step
    degenerate = sigma <= 1e-150 * (mu + R + 1.0)
    if degenerate.any():
        out = np.where(mu <= R, 1.0, 0.0)
        live = ~degenerate
        if live.any():
            out[live] = _ball_overlap(R[live], mu[live], sigma[live], d)
        return out
    wide = sigma > _CONDITION_BELOW * R
    out = np.empty(shape)
    out[wide] = noncentral_chi2_cdf(
        (R[wide] / sigma[wide]) ** 2, d, (mu[wide] / sigma[wide]) ** 2
    )
    narrow = ~wide
    R, mu, sigma = R[narrow], mu[narrow], sigma[narrow]
    c, w = _transverse_rule(d)
    mean = np.empty(R.size)
    for start in range(0, R.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        r, m, s = R[rows, None], mu[rows, None], sigma[rows, None]
        s2c = s * s * c
        top = np.sqrt(np.maximum(r * r - s2c, 0.0)) + m  # rho + mu
        with np.errstate(divide="ignore", invalid="ignore"):
            hit = norm_cdf(((r - m) * (r + m) - s2c) / (top * s)) - norm_cdf(-top / s)
        mean[rows] = np.einsum("ij,j->i", np.where(s2c < r * r, hit, 0.0), w)
    out[narrow] = mean
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
    if not centred.any():
        return off
    on = math.sqrt(2.0 / math.pi) * s * s / sigma3 * np.exp(-0.5 * (s / sigma) ** 2)
    return np.where(centred, on, off)


def _radial_gaussian_mean(
    prof: RadialProfile,
    mu: np.ndarray,
    sigma: np.ndarray,
    d: int,
    q: QuadratureSpec,
) -> tuple[np.ndarray, list[tuple[int, Status]]]:
    """E |V|(|Z|) with Z ~ N(m, sigma^2 I_d), |m| = mu, over 1D arrays of probes,
    and the (probe index, status) of each mean integrated by quadrature
    that did not converge.

    A piecewise-constant profile is a sum over cells of |V| times the
    difference of the ball overlaps at the cell's edges.  Each distinct
    finite, nonzero edge is computed once, all edges in one
    ``_ball_overlap`` call of (edges x probes); edge 0 is no mass and an
    infinite edge all of it.  Its means are closed-form: no statuses.  A
    smooth profile (d = 3) integrates |V| against the density of |Z|, every
    probe in one lockstep call, for the caller to ``fold_status`` each
    probe's status into the result it feeds.
    """
    if prof.constant_cells is not None:
        cells = [c for c in prof.constant_cells if c[2] != 0.0]
        edges = sorted({r for lo, hi, _ in cells for r in (lo, hi) if 0.0 < r < math.inf})
        rows = _ball_overlap(np.array(edges)[:, None], mu, sigma, d)
        mass = {0.0: 0.0, math.inf: 1.0, **dict(zip(edges, rows))}
        out = np.zeros(np.broadcast(mu, sigma).shape)
        for lo, hi, val in cells:
            out += val * (mass[hi] - mass[lo])
        return out, []
    if d != 3:
        raise GeometryError(
            "smooth radial profiles in the bridge functionals require d = 3 "
            "(other dimensions support piecewise-constant profiles)"
        )
    mu_flat = np.atleast_1d(mu).ravel()
    sg_flat = np.atleast_1d(np.broadcast_to(sigma, np.shape(mu))).ravel()
    out = np.zeros_like(mu_flat)
    point = sg_flat <= 1e-150 * (mu_flat + 1.0)
    for i in np.flatnonzero(point).tolist():
        # deterministic limit: the Gaussian mean collapses to a point value
        out[i] = prof.abs_value(mu_flat[i])
    hi = np.minimum(prof.support, mu_flat + 10.0 * sg_flat)
    lo = np.maximum(0.0, mu_flat - 10.0 * sg_flat)
    idx = np.flatnonzero(~point & (hi > lo))  # the means left to integrate
    mus, sgs = mu_flat[idx], sg_flat[idx]
    # sigma**2 and sigma**3 once per probe: a scalar ** is libm's pow, which
    # numpy's array power may round apart
    sg2s = np.array([v**2 for v in sgs])
    sg3s = np.array([v**3 for v in sgs])

    def integrand(i: np.ndarray, s: np.ndarray) -> np.ndarray:
        return prof.abs_value(s) * _q3_density(s, mus[i], sgs[i], sg2s[i], sg3s[i])

    # every probe is seeded with all of the profile's breakpoints: only
    # those inside its range cut a panel
    ests = integrate_finite(integrand, lo[idx], hi[idx], q, [prof.breakpoints] * idx.size)
    out[idx] = [est.value for est in ests]
    statuses = [(i, est.status) for i, est in zip(idx.tolist(), ests) if not est.converged]
    return out.reshape(np.shape(mu)), statuses


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


# the variance per coordinate of a path integral's Gaussian at time s, by
# the kind of its row: S's pinned bridge, and the two halves of N
_BRIDGE, _RISE, _FALL = 0, 1, 2
_VARIANCE = (
    lambda s, t: 2.0 * s * (t - s) / t,
    lambda s, t: 2.0 * s,
    lambda s, t: 2.0 * (t - s),
)


def _path_integrals(
    prof: RadialProfile, d: int, rows: Sequence[tuple], q: QuadratureSpec
) -> list[Estimate]:
    """int_lo^hi E |V|(Z_s) ds, Z_s ~ N(a + (s/t)(b - a), v(s) I_d), per row.

    A row is (a, b, t, kind, lo, hi, breaks): the path's end points, its
    time, the kind of its variance v (``_BRIDGE``, ``_RISE`` or ``_FALL``),
    the integral's range and its breakpoints in s.  |V| is the radial
    profile prof.  The rows are one lockstep ``integrate_finite``: each
    integrand call takes the Gaussian means of all its rows' nodes at once,
    and each row's Estimate is the one it gets alone.  Each row folds in the
    worst status of its own Gaussian means integrated by quadrature
    (``_radial_gaussian_mean``), never another row's.
    """
    a = np.array([row[0] for row in rows])
    ba = np.array([row[1] - row[0] for row in rows])
    t = np.array([row[2] for row in rows], dtype=float)
    kind = np.array([row[3] for row in rows])
    kinds = sorted(set(kind.tolist()))
    inner: list[set[Status]] = [set() for _ in rows]

    def integrand(owner: np.ndarray, s: np.ndarray) -> np.ndarray:
        to = t.take(owner)
        mu = np.sqrt(_sq_norm(a.take(owner, axis=0) + (s / to)[:, None] * ba.take(owner, axis=0)))
        # the first kind's variance, overlaid by each other kind on its nodes
        variance = _VARIANCE[kinds[0]](s, to)
        for k in kinds[1:]:
            variance = np.where(kind.take(owner) == k, _VARIANCE[k](s, to), variance)
        mean, statuses = _radial_gaussian_mean(prof, mu, np.sqrt(variance), d, q)
        for i, status in statuses:
            inner[owner[i]].add(status)
        return mean

    ests = integrate_finite(
        integrand, [row[4] for row in rows], [row[5] for row in rows], q, [row[6] for row in rows]
    )
    return [fold_status(est, statuses) for est, statuses in zip(ests, inner)]


def _s_functionals(V: Potential, specs: Sequence[BridgeSpec], q: QuadratureSpec) -> list[Estimate]:
    """S(V, t, x, y) at every spec, as the rows of one ``_path_integrals``."""
    rows = []
    for spec in specs:
        d, prof, x, y = _bridge_inputs(V, spec)
        t = spec.t
        breaks = _crossing_times(x, y, t, prof.breakpoints) + [t / 2.0]
        rows.append((x, y, t, _BRIDGE, 0.0, t, breaks))
    return _path_integrals(prof, d, rows, q)


def s_functional(
    V: Potential, spec: BridgeSpec, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Bridge potential S(V, t, x, y): the expected integral of |V| along the
    pinned bridge, evaluated as a time integral of Gaussian means of |V|."""
    return _s_functionals(V, [spec], q)[0]


def _n_halves(
    V: Potential, specs: Sequence[BridgeSpec], q: QuadratureSpec
) -> list[tuple[Estimate, Estimate]]:
    """The two half-integrals of N over [0, t/2] and [t/2, t], unnormalized,
    at every spec.

    Both integrate Gaussian means of |V| along the straight path from y to
    x, with per-coordinate variance 2 tau (first half) and 2 (t - tau)
    (second half); each spec gives two rows of one ``_path_integrals``.
    """
    rows = []
    for spec in specs:
        d, prof, x, y = _bridge_inputs(V, spec)
        t = spec.t
        crossings = _crossing_times(y, x, t, prof.breakpoints)
        for kind, lo, hi in ((_RISE, 0.0, t / 2.0), (_FALL, t / 2.0, t)):
            rows.append((y, x, t, kind, lo, hi, [s for s in crossings if lo < s < hi]))
    ests = _path_integrals(prof, d, rows, q)
    return list(zip(ests[0::2], ests[1::2]))


def _n_functionals(V: Potential, specs: Sequence[BridgeSpec], q: QuadratureSpec) -> list[Estimate]:
    """N(V, t, x, y) at every spec, from the rows of one ``_n_halves``."""
    return [
        (est1 + est2).scaled((4.0 * math.pi) ** (as_dimension(spec.d) / 2.0))
        for spec, (est1, est2) in zip(specs, _n_halves(V, specs, q))
    ]


def n_functional(
    V: Potential, spec: BridgeSpec, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """Two-sided approximation functional N(V, t, x, y): the sum of the two
    half-integrals of ``_n_halves``; no (4 pi)^{-d/2} normalization is applied.
    """
    return _n_functionals(V, [spec], q)[0]


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
        est = fold_status(est, (verdict.status, probe.status))
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

    def probes(points: np.ndarray) -> list[Estimate]:
        pairs = [_probe_args(V_search, d, *_probe_pair(d, *p))[1:] for p in points]
        return _k_transforms(V_search, [x for x, _ in pairs], [y for _, y in pairs], d, q)

    sup = sup_search(probes, domain, strategy)

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

    def probes(points: np.ndarray) -> list[Estimate]:
        xs = np.zeros((len(points), d))
        xs[:, 0] = points[:, 0]
        return _newton_potentials(V, list(_probe_args(V, d, *xs)[1:]), d, q)

    if V.symmetry is Symmetry.RADIAL:
        domain = [AxisSpec("r_x", 1e-3, 1e4, "log", include_zero=True)]
    else:
        domain = [AxisSpec("x1", 4.0, 1e6, "log")]
    # each batch the search asks for is one lockstep call
    return _norm_report(sup_search(probes, domain, strategy))


def s_norm(
    V: Potential,
    d,
    q: QuadratureSpec = DEFAULT_SPEC_1D,
    strategy: SearchStrategy = SearchStrategy(grid_density=5),
) -> NormReport:
    """Probed sup of the bridge potential over (t, x, y) for radial V.

    Each batch of probes the search asks for is one lockstep call
    (``_s_functionals``), so the probes share their integrand calls.
    """
    d = as_dimension(d)

    def probes(points: np.ndarray) -> list[Estimate]:
        pairs = [_probe_pair(d, *p[1:]) for p in points]
        return _s_functionals(
            V, [BridgeSpec(p[0], tuple(x), tuple(y)) for p, (x, y) in zip(points, pairs)], q
        )

    domain = [
        AxisSpec("t", 1e-2, 1e4, "log"),
        AxisSpec("r_x", 1e-2, 1e2, "log", include_zero=True),
        AxisSpec("r_y", 1e-2, 1e2, "log", include_zero=True),
        AxisSpec("cos_angle", -1.0, 1.0, "linear"),
    ]
    return _norm_report(sup_search(probes, domain, strategy))


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
