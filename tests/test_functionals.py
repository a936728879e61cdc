import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as spi
from scipy import optimize as spo
from scipy import special as sps

from bridgepot import functionals, potentials, search

from bridgepot.errors import DimensionError, GeometryError
from bridgepot.functionals import (
    BridgeSpec,
    build_compact_counterexample,
    gaussian_convolution,
    j_transform,
    k_norm,
    k_transform,
    n_functional,
    newton_norm,
    newton_potential,
    s_functional,
    s_norm,
    truncate_potential,
)
from bridgepot.growth import Verdict, growth_diagnosis
from bridgepot.kernels import heat_kernel, newton_constant
from bridgepot.potentials import (
    BallIndicator,
    Constant,
    CounterexampleA,
    Dilate,
    RadialPower,
    Scale,
    Sum,
    dilate,
    evaluate_many,
    lp_halfd_norm,
)
from bridgepot.quadrature import DEFAULT_SPEC_1D, Estimate, QuadratureSpec, Status
from bridgepot.search import AxisSpec, SearchStrategy, sup_search
from bridgepot.special import sin_power_antideriv

RNG = np.random.default_rng(11)
BALL = BallIndicator(None, 1.0, -1.0)
POWER = RadialPower(-1.0, 0.2, 2.0, -1.0)
CEX = CounterexampleA()


# ---------------------------------------------------------------------------
# Newton potential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 6])
def test_newton_ball_center(d):
    est = newton_potential(BALL, np.zeros(d), d)
    assert est.converged
    assert est.value == pytest.approx(1.0 / (2 * (d - 2)), rel=1e-10)


def test_newton_same_sign_sum_is_the_sum_of_its_terms():
    # two centred balls at |x| = 0.3 < both radii: sum of |amp| (a^2/2 - |x|^2/6)
    x = np.array([0.3, 0.0, 0.0])
    terms = (BallIndicator(None, 1.0, -1.0), BallIndicator(None, 2.0, -0.5))
    est = newton_potential(Sum(terms), x, 3)
    assert est.converged
    assert est.value == pytest.approx(1.4775, rel=1e-12)
    assert est.value == sum(newton_potential(t, x, 3).value for t in terms)
    # a Scale over a same-sign Sum splits into scaled terms
    flipped = (BallIndicator(None, 1.0, 1.0), BallIndicator(None, 2.0, 0.5))
    scaled = newton_potential(Scale(-1.0, Sum(flipped)), x, 3)
    assert scaled.value == sum(newton_potential(Scale(-1.0, t), x, 3).value for t in flipped)
    assert scaled.value == est.value


def test_newton_zero_potential():
    assert newton_potential(Constant(0.0), np.zeros(3), 3).value == 0.0


def test_newton_far_field_monopole():
    x = np.zeros(4)
    x[0] = 10.0
    est = newton_potential(BALL, x, 4)
    mono = newton_constant(4) * (math.pi**2 / 2) / 100.0
    assert est.value == pytest.approx(mono, rel=0.02)


def test_newton_counterexample_bounded_on_axis():
    for x1 in (4.0, 100.0):
        x = np.zeros(4)
        x[0] = x1
        est = newton_potential(CEX, x, 4)
        assert math.isfinite(est.value) and 0.1 < est.value < 1.0


# ---------------------------------------------------------------------------
# K transform
# ---------------------------------------------------------------------------


def test_k_zero_potential():
    assert k_transform(Constant(0.0), np.zeros(3), np.ones(3), 3).value == 0.0


@pytest.mark.parametrize("V", [BALL, POWER])
def test_k_y0_matches_newton_identity(V):
    # K(V, x, 0) = C_d^{-1} Newton(V)(x); one radial integral serves both
    # sides, so this checks the y = 0 dispatch and the 1/C_d scale
    for d in (3, 4):
        for _ in range(5):
            x = RNG.standard_normal(d) * 1.5
            kv = k_transform(V, x, np.zeros(d), d)
            nv = newton_potential(V, x, d)
            assert kv.value == pytest.approx(nv.value / newton_constant(d), rel=1e-8)


def test_k_general_position_mc_oracle():
    # spec example: ball at x = 2 e1, y = e1, d = 4 versus uniform sampling
    d = 4
    x = np.array([2.0, 0, 0, 0])
    y = np.array([1.0, 0, 0, 0])
    est = k_transform(BALL, x, y, d)
    assert est.converged
    rng = np.random.default_rng(123)
    total = 0.0
    total_sq = 0.0
    n_chunk, chunks = 1_000_000, 10
    for _ in range(chunks):
        g = rng.standard_normal((n_chunk, d))
        g /= np.linalg.norm(g, axis=1)[:, None]
        z = g * (rng.random(n_chunk) ** (1.0 / d))[:, None]
        u = z - x
        nu = np.linalg.norm(u, axis=1)
        gap = nu * 1.0 - u @ y
        vals = np.exp(-0.5 * gap) * nu ** (2 - d) * (1 + nu) ** ((d - 3) / 2)
        total += vals.sum()
        total_sq += (vals**2).sum()
    n = n_chunk * chunks
    vol = math.pi**2 / 2
    mean = total / n
    se = math.sqrt((total_sq / n - mean**2) / n) * vol
    assert abs(est.value - mean * vol) <= 3.0 * se


def test_k_alpha_kink_past_pi_is_seeded():
    # here theta + g > pi, so the cell window's edge in the alpha integrand
    # sits at 2 pi - theta - g; unseeded, K came out 1.5e-5 low
    x = np.array([-1.49355162, -0.84851583, 0.13962861])
    y = np.array([1.04502011, -0.7514591, 1.05449303])
    est = k_transform(BALL, x, y, 3)
    # scipy reference: rays z = x + s w about the pole -x, where the unit
    # ball's chord depends on the polar angle alone; k0 = e^{-c s} / s
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    pole = -x / nx
    y_par = float(y @ pole)
    y_perp = float(np.linalg.norm(y - y_par * pole))

    def chord(theta):
        b = nx * math.cos(theta)
        root = math.sqrt(max(1.0 - (nx * math.sin(theta)) ** 2, 0.0))
        return b - root, b + root

    def ray(s, phi, theta):
        c = 0.5 * (ny - y_par * math.cos(theta) - y_perp * math.sin(theta) * math.cos(phi))
        return s * math.exp(-c * s) * math.sin(theta)

    half, _ = spi.tplquad(
        ray, 0.0, math.asin(1.0 / nx), 0.0, math.pi,
        lambda th, ph: chord(th)[0], lambda th, ph: chord(th)[1], epsabs=0.0, epsrel=1e-10,
    )
    assert est.converged
    assert est.value == pytest.approx(2.0 * half, rel=1e-6)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_k_off_centre_ball_on_the_axis(rel_tol):
    # the axial route caps rho at the chord sqrt(r^2 - (z1 - c1)^2); under a
    # constant cap r the ball's curved edge cut through the 2D boxes, and the
    # default budget ran out at 1e-6
    V = BallIndicator((0.5, 0.0, 0.0), 1.0, -1.0)
    x, y = np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    est = k_transform(V, x, y, 3, dataclasses.replace(functionals.DEFAULT_SPEC_2D, rel_tol=rel_tol))

    # scipy reference in spherical coordinates about the ball's centre; at
    # d = 3, k0(w, y) = exp(-(|w||y| - w.y)/2) / |w|, and x lies outside the ball
    def shell(theta, r):
        w = np.array([0.5 + r * math.cos(theta), r * math.sin(theta), 0.0]) - x
        nw = np.linalg.norm(w)
        return 2.0 * math.pi * r * r * math.sin(theta) * math.exp(-0.5 * (nw - w @ y)) / nw

    ref, _ = spi.dblquad(shell, 0.0, 1.0, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)
    assert est.converged
    assert est.value == pytest.approx(ref, rel=10.0 * rel_tol)


_GL24 = np.polynomial.legendre.leggauss(24)


def _former_azimuthal_cell_mass(A, B, lo, hi, amp, expo, m):
    """The per-cell kernel that ``functionals._azimuthal_mass`` replaced, kept
    verbatim as its reference: every temporary (nodes x 24) wide."""
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


@st.composite
def radial_cells(draw):
    lo = draw(st.just(0.0) | st.floats(0.0, 2.0))
    hi = draw(st.just(math.inf) | st.floats(0.0, 3.0).map(lambda w: lo + w))
    amp = draw(st.floats(-2.0, 2.0))
    return lo, hi, amp, draw(st.sampled_from([0.0, -1.0, -0.5, 1.5]))


@st.composite
def cell_mass_rows(draw):
    """(A, B) of n rows R(psi)^2 = A + B cos psi, as the (s, alpha) reduction
    forms them, with about a fifth of the rows degenerate (B at or under
    1e-14 max(A, 1)); n straddles the row block and goes past two of them."""
    n = draw(st.sampled_from([1, 479, 480, 481]) | st.integers(1001, 1500))
    nx = draw(st.floats(0.0, 3.0))
    ct = draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(0.0, 4.0, n)
    alpha = rng.uniform(0.0, math.pi, n)
    A = s * s + nx * nx + 2.0 * s * nx * np.cos(alpha) * ct
    B = 2.0 * s * nx * np.sin(alpha) * math.sqrt(1.0 - ct * ct)
    flat = rng.random(n) < 0.2
    B[flat] = 1e-14 * np.maximum(A[flat], 1.0) * rng.choice([0.0, 0.5, 1.0], flat.sum())
    return A, B


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=cell_mass_rows(), cells=st.lists(radial_cells(), min_size=1, max_size=3), m=st.integers(0, 5))
def test_azimuthal_mass_matches_the_per_cell_kernel_bit_for_bit(rows, cells, m):
    # the shared geometry, the skipped empty psi windows and the row blocks
    # change no bit of the summed mass; cells whose sphere range misses
    # [lo, hi] give rows with a zero-width window
    A, B = rows
    want = np.zeros_like(A)
    for lo, hi, amp, expo in cells:
        want += _former_azimuthal_cell_mass(A, B, lo, hi, amp, expo, m)
    got = functionals._azimuthal_mass(A, B, cells, m)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rows=cell_mass_rows(),
    cells=st.lists(radial_cells(), min_size=1, max_size=3),
    m=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_azimuthal_mass_of_a_row_subset_is_that_subset_of_the_mass(rows, cells, m, seed):
    # the lockstep contract: a row's mass does not depend on the rows that
    # share its call, though a call with no degenerate row and the rows
    # whose psi window is all of [0, pi] take their own branches
    A, B = rows
    full = functionals._azimuthal_mass(A, B, cells, m)
    small = B <= 1e-14 * np.maximum(A, 1.0)
    lo, hi = cells[0][:2]
    whole = (A - B >= lo * lo) & (A + B <= hi * hi)  # the sphere inside the first cell
    rng = np.random.default_rng(seed)
    subsets = [np.flatnonzero(mask) for mask in (~small, small, whole, ~whole, ~whole & ~small)]
    subsets.append(rng.permutation(A.size)[: rng.integers(1, A.size + 1)])
    for sub in subsets:
        if sub.size:
            got = functionals._azimuthal_mass(A[sub], B[sub], cells, m)
            assert np.array_equal(got.view(np.int64), full[sub].view(np.int64))


_TRANSFORMS = {
    "k": lambda V, x, y, d: k_transform(V, x, y, d),
    "newton": lambda V, x, y, d: newton_potential(V, x, d),
    "j": lambda V, x, y, d: j_transform(V, x, y, d),
}


@pytest.mark.parametrize("name", sorted(_TRANSFORMS))
@pytest.mark.parametrize(
    "V, x, y",
    [
        (BALL, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]),  # three coordinates at d = 4
        (BallIndicator((0.0,) * 3, 1.0, -1.0), [0.5, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ],
    ids=["short-points", "centre-pins-d3"],
)
def test_transforms_check_dimensions(name, V, x, y):
    with pytest.raises(DimensionError):
        _TRANSFORMS[name](V, x, y, 4)


def _starve_inner(monkeypatch, module) -> dict:
    """Give the inner integrals of ``module`` (those started inside another
    integral's integrand) a one-split budget at rel_tol 1e-15, and record
    the statuses of inner and outer integrals."""
    real = module.integrate_finite
    seen = {"inner": [], "outer": []}
    depth = [0]

    def starved(f, a, b, spec, breakpoints=()):
        if depth[0]:
            ests = real(f, a, b, dataclasses.replace(spec, rel_tol=1e-15, max_subdivisions=1), breakpoints)
            seen["inner"] += [e.status for e in ests] if isinstance(ests, list) else [ests.status]
            return ests
        depth[0] += 1
        try:
            ests = real(f, a, b, spec, breakpoints)
        finally:
            depth[0] -= 1
        seen["outer"] += [e.status for e in ests] if isinstance(ests, list) else [ests.status]
        return ests

    monkeypatch.setattr(module, "integrate_finite", starved)
    return seen


_OFF_CENTRE_BRIDGE = BridgeSpec(0.7, (0.3, 0.1, 0.0), (1.2, -0.4, 0.2))


@pytest.mark.parametrize(
    "module, transform",
    [
        (functionals, lambda: k_transform(BALL, [0.5, 0.2, 0.0], [0.0, 1.0, 0.0], 3)),
        (potentials, lambda: lp_halfd_norm(CounterexampleA(z1_max=1e3), 4)),
        (functionals, lambda: s_functional(POWER, _OFF_CENTRE_BRIDGE)),
        (functionals, lambda: n_functional(POWER, _OFF_CENTRE_BRIDGE)),
    ],
    ids=["k_transform", "lp_halfd_norm_axial", "s_functional", "n_functional"],
)
def test_worst_inner_status_reaches_the_result(monkeypatch, module, transform):
    assert transform().converged
    seen = _starve_inner(monkeypatch, module)
    est = transform()
    assert Status.MAX_SUBDIVISIONS_REACHED in seen["inner"]
    # N has two outer integrals, one per half
    assert set(seen["outer"]) == {Status.CONVERGED}
    assert est.status is Status.MAX_SUBDIVISIONS_REACHED


@pytest.mark.parametrize("d, want", [(3, 4 * math.pi), (4, 2 * math.pi**2)])
def test_k_unbounded_radial_support_at_y0(d, want):
    # |V| = r^-3 on r >= 1 and |x| < 1: the spherical mean of |z - x|^{2-d}
    # is r^{2-d}, so K = |S^{d-1}| int_1^inf r^-2 dr, the limit of the Newton
    # route's growth ladder; its last truncation, at r = 1e8, is 1e-8 short
    # of it, within the verdict's bar
    x = np.zeros(d)
    x[1] = 0.7
    est = k_transform(RadialPower(-3.0, 1.0, math.inf, -1.0), x, np.zeros(d), d)
    assert est.converged
    assert abs(est.value - want) <= est.error_bound


def test_k_constant_at_y0_is_diverged():
    # the growth ladder of an unbounded support gives a verdict, not an error
    x = np.array([0.0, 0.7, 0.0])
    est = k_transform(Constant(1.0), x, np.zeros(3), 3)
    assert est.status is Status.DIVERGED and est.value == math.inf


@pytest.mark.parametrize("d", [3, 4, 5])
def test_k_y0_outside_a_ball_is_the_closed_form(d):
    # outside the ball the Riesz kernel is harmonic in z: K(V, x, 0) is
    # |amplitude| vol(B_R) |x|^{2-d}
    for R, amp in ((1.0, -1.0), (0.7, 2.5)):
        vol = math.pi ** (d / 2) * R**d / math.gamma(d / 2 + 1)
        for nx in (1.2 * R, 3.0, 40.0):
            x = np.zeros(d)
            x[-1] = nx
            est = k_transform(BallIndicator(None, R, amp), x, np.zeros(d), d)
            assert est.converged
            assert abs(est.value - abs(amp) * vol * nx ** (2 - d)) <= est.error_bound


def _k_y0_shell_mp(d, nx, p=-1.0, a=0.2, b=2.0):
    """K(V, x, 0) of |V| = r^p on [a, b], |x| = nx, by a 30-digit mpmath quad:
    |S^{d-1}| int_a^b r^{p + d - 1} max(r, nx)^{2-d} dr."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        nx = mp.mpf(nx)
        area = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        edges = sorted({mp.mpf(a), mp.mpf(b), *([nx] if a < nx < b else [])})
        return float(area * mp.quad(lambda r: r ** (p + d - 1) * max(r, nx) ** (2 - d), edges))


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("nx", [0.0, 0.5, 1.0, 2.5, 10.0])
def test_k_y0_shell_within_its_bar_of_mpmath(d, nx):
    x = np.zeros(d)
    x[0] = nx
    est = k_transform(POWER, x, np.zeros(d), d)
    assert est.converged
    assert abs(est.value - _k_y0_shell_mp(d, nx)) <= est.error_bound


def test_k_d3_domination():
    for _ in range(20):
        x = RNG.standard_normal(3) * 1.5
        y = RNG.standard_normal(3) * 1.5
        kxy = k_transform(BALL, x, y, 3)
        kx0 = k_transform(BALL, x, np.zeros(3), 3)
        slack = 1e-6 * kx0.value + 3 * (kxy.error_bound + kx0.error_bound)
        assert kxy.value <= kx0.value + slack


def test_k_axial_geometry_guard():
    with pytest.raises(GeometryError):
        k_transform(CEX, np.array([0.0, 1.0, 0, 0]), np.zeros(4), 4)


def test_k_monotone_in_potential():
    # |V1| <= |V2| pointwise implies K(V1) <= K(V2)
    small = BallIndicator(None, 1.0, -0.5)
    x = np.array([0.5, 0.3, 0.0])
    y = np.array([1.0, 0.0, 1.0])
    k_small = k_transform(small, x, y, 3)
    k_big = k_transform(BALL, x, y, 3)
    assert k_small.value <= k_big.value * (1 + 1e-9)


# ---------------------------------------------------------------------------
# J transform
# ---------------------------------------------------------------------------


def test_j_transform_zero_and_y0():
    assert j_transform(Constant(0.0), np.zeros(3), np.ones(3), 3).value == 0.0
    # y = 0 reduces to the Riesz integral with the explicit gamma constant
    for d in (3, 4):
        x = np.zeros(d)
        x[0] = 0.5
        jv = j_transform(BALL, x, np.zeros(d), d)
        nv = newton_potential(BALL, x, d)
        const = math.gamma(d / 2 - 1) * 4 ** (d / 2 - 1) / newton_constant(d)
        assert jv.value == pytest.approx(const * nv.value, rel=1e-8)


def test_j_transform_d3_vs_k():
    x = RNG.standard_normal(3)
    y = RNG.standard_normal(3)
    jv = j_transform(BALL, x, y, 3)
    kv = k_transform(BALL, x, y, 3)
    assert jv.value == pytest.approx(2 * math.sqrt(math.pi) * kv.value, rel=1e-12)


def test_j_transform_d4_consistency():
    # time-unfolded route at d = 4 against the pointwise-kernel comparability:
    # J = c(s) k0 pointwise with c between the established two-sided window,
    # so the transforms obey the same window
    x = np.array([0.5, 0.2, 0, 0])
    y = np.array([1.0, 0, 0.5, 0])
    jv = j_transform(BALL, x, y, 4)
    kv = k_transform(BALL, x, y, 4)
    assert jv.converged
    # d = 4 kernel ratio J/k0 lies in [2 sqrt(pi) - eps, 4] (measured window)
    assert 3.0 * kv.value <= jv.value <= 4.5 * kv.value


# ---------------------------------------------------------------------------
# Gaussian ball overlaps P(|N(m, sigma^2 I_d)| <= R), |m| = mu
# ---------------------------------------------------------------------------


def _overlap_points(seed, sigma_lo, sigma_hi, n):
    """Seeded (d, R, mu, sigma) with sigma/R log-uniform in [sigma_lo, sigma_hi]:
    mu uniform in [0, 3R], then mu = R + k sigma for a few k around the sphere."""
    rng = np.random.default_rng(seed)
    out = []
    for d in (4, 5, 6, 8):
        R = float(rng.uniform(0.5, 2.0))
        for i in range(n):
            sigma = R * 10.0 ** rng.uniform(math.log10(sigma_lo), math.log10(sigma_hi))
            k = (None, -3.0, -1.0, 0.0, 1.0, 3.0)[i % 6]
            mu = rng.uniform(0.0, 3.0 * R) if k is None else max(R + k * sigma, 0.0)
            out.append((d, R, mu, sigma))
    return out


def _slice_overlap(d, R, mu, sigma):
    """The overlap by quad over the axial coordinate w of the Gaussian, each
    slice weighted by its chi-squared cross-section mass (scipy's chdtr)."""
    def f(w):
        phi = math.exp(-0.5 * ((w - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return phi * sps.chdtr(d - 1, (R * R - w * w) / sigma**2)

    inner = [mu] if -R < mu < R else None
    return spi.quad(f, -R, R, points=inner, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def _conditioned_overlap_mp(d, R, mu, sigma):
    """The overlap as E_C[Phi((rho - mu)/sigma) - Phi((-rho - mu)/sigma)] with
    C ~ chi^2_{d-1} and rho = sqrt(R^2 - sigma^2 C), a 30-digit mpmath quad."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        R, mu, sigma = mp.mpf(R), mp.mpf(mu), mp.mpf(sigma)
        h = mp.mpf(d - 1) / 2
        norm = 1 / (2**h * mp.gamma(h))

        def f(c):
            rho = mp.sqrt(max(0, R * R - sigma * sigma * c))
            hit = mp.ncdf((rho - mu) / sigma) - mp.ncdf((-rho - mu) / sigma)
            return norm * c ** (h - 1) * mp.exp(-c / 2) * hit

        # the chi-squared mass beyond C = 150 is below 1e-28 for d <= 8
        c_max = min(R * R / (sigma * sigma), 150)
        return float(mp.quad(f, [c for c in (0, 8, 30) if c < c_max] + [c_max]))


@pytest.mark.parametrize("d, R, mu, sigma", _overlap_points(1, 0.1, 3.0, 8))
def test_ball_overlap_wide_matches_slice_quad(d, R, mu, sigma):
    assert sigma > functionals._CONDITION_BELOW * R
    got = float(functionals._ball_overlap(R, mu, sigma, d))
    assert got == pytest.approx(_slice_overlap(d, R, mu, sigma), abs=1e-12)


@pytest.mark.parametrize("d, R, mu, sigma", _overlap_points(2, 1e-9, 0.1, 5))
def test_ball_overlap_narrow_matches_mpmath(d, R, mu, sigma):
    got = float(functionals._ball_overlap(R, mu, sigma, d))
    assert got == pytest.approx(_conditioned_overlap_mp(d, R, mu, sigma), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
def test_ball_overlap_continuous_across_switch(d):
    R = 1.3
    mu = np.concatenate([np.linspace(0.0, 3.0 * R, 13), [R]])
    at = functionals._CONDITION_BELOW * R  # the last sigma of the conditioned form
    below = functionals._ball_overlap(R, mu, at, d)
    above = functionals._ball_overlap(R, mu, np.nextafter(at, math.inf), d)
    assert np.max(np.abs(below - above)) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
def test_ball_overlap_finite_down_to_tiny_sigma(d):
    R = 0.7
    sigma = R * np.geomspace(1e-150, 3.0, 150)
    for mu in (0.0, 0.5 * R, R, np.nextafter(R, 0.0), np.nextafter(R, 2.0), 3.0 * R):
        vals = functionals._ball_overlap(R, mu, sigma, d)
        assert np.all(np.isfinite(vals)) and np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_ball_overlap_rows_do_not_depend_on_the_batch(d):
    # a lockstep integrand call packs the nodes of many integrals, so each
    # overlap must get the bits it gets alone: the transverse rule, near the sphere
    rng = np.random.default_rng(d)
    R = 1.3
    sigma = R * 10.0 ** rng.uniform(-3.0, -1.0, 17)
    mu = R + sigma * rng.uniform(-3.0, 3.0, 17)
    alone = np.array([functionals._ball_overlap(R, m, s, d) for m, s in zip(mu, sigma)])
    for n in range(1, 18):
        got = functionals._ball_overlap(R, mu[:n], sigma[:n], d)
        assert np.array_equal(got.view(np.int64), alone[:n].view(np.int64)), n


def _d3_overlap_mp(R, mu, sigma):
    """The d = 3 overlap from its elementary form at 50 digits, where the
    cancellation at sigma >> R costs nothing."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        R, mu, sigma = mp.mpf(R), mp.mpf(mu), mp.mpf(sigma)
        if mu == 0:
            x = R / sigma
            return float(mp.erf(x / mp.sqrt(2)) - mp.sqrt(2 / mp.pi) * x * mp.exp(-x * x / 2))
        a, b = (R - mu) / sigma, (R + mu) / sigma
        tails = mp.exp(-a * a / 2) - mp.exp(-b * b / 2)
        return float(mp.ncdf(a) - mp.ncdf(-b) - sigma / (mu * mp.sqrt(2 * mp.pi)) * tails)


def test_ball_overlap_d3_relative_to_mpmath():
    # sigma/R from 1e-3 to 1e4; at the first points the elementary d = 3 form
    # in double precision cancels to relative errors of 1, 8.3e-2 and 2.5e-4
    rng = np.random.default_rng(3)
    points = [(1.0, mu, 1e3) for mu in (1e-5, 1e-3, 0.5)]
    for i in range(60):
        R = float(rng.uniform(0.5, 2.0))
        sigma = R * 10.0 ** rng.uniform(-3.0, 4.0)
        k = (None, -3.0, -1.0, 0.0, 1.0, 3.0)[i % 6]
        mu = rng.uniform(0.0, 3.0 * R) if k is None else max(R + k * sigma, 0.0)
        points.append((R, mu, sigma))
    for R, mu, sigma in points:
        got = float(functionals._ball_overlap(R, mu, sigma, 3))
        assert got == pytest.approx(_d3_overlap_mp(R, mu, sigma), rel=1e-11, abs=0.0)


def test_ball_overlap_small_sigma_regressions():
    # the former slice rule gave 0 and 2.8e-4 too low here
    assert abs(float(functionals._ball_overlap(1.0, 0.5, 1e-20, 4)) - 1.0) < 1e-14
    got = float(functionals._ball_overlap(1.0, 1.0, 1e-3, 4))
    assert abs(got - 0.49940158670406737) < 1e-12


def test_j_transform_d4_ball_value():
    # an independent quad gives 16.941067641971284; the slice rule read 5.9e-8 low
    est = j_transform(BallIndicator(None, 1.0, 1.0), (1, 0, 0, 0), (0, 1, 0, 0), 4)
    assert est.converged
    assert est.value == pytest.approx(16.941067641971284, rel=1e-9)


# ---------------------------------------------------------------------------
# bridge functionals
# ---------------------------------------------------------------------------


def test_s_constant_closed_form():
    est = s_functional(Constant(-0.7), BridgeSpec(2.0, (0, 0, 0), (1, 0, 0)))
    assert est.value == pytest.approx(1.4, rel=1e-10)
    assert s_functional(Constant(0.0), BridgeSpec(1.0, (0, 0, 0), (1, 0, 0))).value == 0.0


@pytest.mark.parametrize("t, R", [(0.3, 0.5), (1.0, 1.0), (2.0, 0.7), (5.0, 3.0)])
def test_s_ball_at_the_centre_closed_form(t, R):
    # d = 3, x = y = 0: int_0^t P(|Z_s| <= R) ds = t (1 - exp(-R^2 / t))
    est = s_functional(BallIndicator(None, R, -1.0), BridgeSpec(t, (0, 0, 0), (0, 0, 0)))
    assert est.converged
    assert est.value == pytest.approx(t * (1.0 - math.exp(-R * R / t)), rel=1e-10)


def test_s_swap_symmetry():
    for _ in range(5):
        x = RNG.standard_normal(3)
        y = RNG.standard_normal(3)
        t = float(np.exp(RNG.uniform(-1, 1)))
        s1 = s_functional(BALL, BridgeSpec(t, tuple(x), tuple(y)))
        s2 = s_functional(BALL, BridgeSpec(t, tuple(y), tuple(x)))
        assert s1.value == pytest.approx(s2.value, rel=1e-8)


def test_n_constant_closed_form():
    for d in (3, 4):
        spec = BridgeSpec(2.0, (0,) * d, (1,) + (0,) * (d - 1))
        est = n_functional(Constant(-0.7), spec)
        assert est.value == pytest.approx(0.7 * 2.0 * (4 * math.pi) ** (d / 2), rel=1e-10)


def test_n_swap_symmetry():
    x = RNG.standard_normal(3)
    y = RNG.standard_normal(3)
    n1 = n_functional(BALL, BridgeSpec(1.0, tuple(x), tuple(y)))
    n2 = n_functional(BALL, BridgeSpec(1.0, tuple(y), tuple(x)))
    assert n1.value == pytest.approx(n2.value, rel=1e-8)


def test_n_half_swap_identity():
    # second half-integral of N(t, x, y) = first half-integral of N(t, y, x)
    x = (0.2, 0.1, 0.0)
    y = (1.0, 0.0, 0.0)
    spec_xy = BridgeSpec(1.0, x, y)
    spec_yx = BridgeSpec(1.0, y, x)
    (_, lhs), (rhs, _) = functionals._n_halves(BALL, [spec_xy, spec_yx], DEFAULT_SPEC_1D)
    assert lhs.value == pytest.approx(rhs.value, rel=1e-8)


def test_s_smooth_profile_d3():
    # smooth radial potentials take the elementary-density path at d = 3
    est = s_functional(POWER, BridgeSpec(1.0, (0, 0, 0), (1, 0, 0)))
    assert est.converged and est.value > 0


# (value, error bound, status) recorded before |V| was read through the
# potential's own values; the smooth path must reproduce them bit for bit
SMOOTH_PINS = {
    ("s", 0): ("1.3694327196720535", "3.628151516607515e-10", "converged"),
    ("n", 0): ("53.17155122754633", "1.7271364217926122e-08", "converged"),
    ("s", 1): ("0.7995666981547663", "8.710466387344858e-10", "converged"),
    ("n", 1): ("32.3502967243457", "3.7773453462045156e-08", "converged"),
    ("newton", 3): ("0.6761152485219979", "2.4787279058658003e-11", "converged"),
    ("lp", 3): ("5.08095328101621", "2.420255933133698e-11", "converged"),
    ("newton", 4): ("0.279168338708502", "2.244674377202982e-12", "converged"),
    ("lp", 4): ("4.5705437666575985", "1.6687883600742012e-11", "converged"),
}


def _pin(est):
    return repr(float(est.value)), repr(float(est.error_bound)), est.status.value


def test_smooth_profile_results_pinned():
    # a centred bridge (the chi density) and an off-centre one, for the shell
    specs = [
        BridgeSpec(1.0, (0, 0, 0), (0, 0, 0)),
        BridgeSpec(0.7, (0.3, 0.1, 0.0), (1.2, -0.4, 0.2)),
    ]
    got = {}
    for k, spec in enumerate(specs):
        got["s", k] = _pin(s_functional(POWER, spec))
        got["n", k] = _pin(n_functional(POWER, spec))
    dilated = dilate(RadialPower(0.7, 0.3, 1.5, -0.8), 2.5)
    for d in (3, 4):
        got["newton", d] = _pin(newton_potential(dilated, [0.9] + [0.0] * (d - 1), d))
        got["lp", d] = _pin(lp_halfd_norm(dilated, d))
    assert got == SMOOTH_PINS


# main's two-ball Sum at d = 4, where the ball overlaps are the chndtr form
# (sigma > R/10) and the transverse chi-squared rule (sigma <= R/10): a short
# bridge across the unit sphere, mostly on the transverse rule, and a long
# one, mostly on chndtr.  Recorded by repr once the transverse rule's sum
# stopped depending on the batch; they must hold bit for bit
TWO_BALLS_D4 = Sum((BallIndicator(None, 1.0, -1.0), BallIndicator(None, 2.5, -0.25)))
TWO_BALLS_D4_SPECS = [
    BridgeSpec(0.02, (0.97, 0.05, 0.0, 0.0), (1.02, -0.03, 0.01, 0.0)),
    BridgeSpec(3.0, (0.3, -0.2, 0.1, 0.0), (-1.1, 1.6, 0.4, -0.2)),
]
TWO_BALLS_D4_PINS = {
    ("s", 0): "Estimate(value=0.01455794677022288, error_bound=2.7194767161306944e-11, "
    "status=<Status.CONVERGED: 'converged'>)",
    ("n", 0): "Estimate(value=2.2599661486526115, error_bound=1.401160628603508e-08, "
    "status=<Status.CONVERGED: 'converged'>)",
    ("s", 1): "Estimate(value=0.8252349858482688, error_bound=3.4135155043800035e-10, "
    "status=<Status.CONVERGED: 'converged'>)",
    ("n", 1): "Estimate(value=106.43262759171625, error_bound=4.7417326487803885e-07, "
    "status=<Status.CONVERGED: 'converged'>)",
}


def _two_ball_d4_reprs() -> dict:
    got = {}
    for k, spec in enumerate(TWO_BALLS_D4_SPECS):
        got["s", k] = repr(s_functional(TWO_BALLS_D4, spec))
        got["n", k] = repr(n_functional(TWO_BALLS_D4, spec))
    return got


def test_two_ball_bridge_functionals_d4_pinned():
    assert _two_ball_d4_reprs() == TWO_BALLS_D4_PINS


def test_two_ball_d4_pins_hold_without_avx512():
    # the pins must not depend on numpy's SIMD dispatch (README); rerun them
    # in a fresh interpreter with the AVX-512 loops switched off
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(functionals.__file__)), os.path.dirname(__file__)]
    )
    code = "import test_functionals as t; print(repr(sorted(t._two_ball_d4_reprs().items())))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr(sorted(TWO_BALLS_D4_PINS.items()))


def _path_row(prof, kind, t, x, y):
    """A ``_path_integrals`` row of the given kind, as S and N build them."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if kind == functionals._BRIDGE:
        breaks = functionals._crossing_times(x, y, t, prof.breakpoints) + [t / 2.0]
        return (x, y, t, kind, 0.0, t, breaks)
    lo, hi = (0.0, t / 2.0) if kind == functionals._RISE else (t / 2.0, t)
    breaks = [s for s in functionals._crossing_times(y, x, t, prof.breakpoints) if lo < s < hi]
    return (y, x, t, kind, lo, hi, breaks)


_PATH_POTENTIALS = {"ball": BALL, "two balls": TWO_BALLS_D4, "shell": POWER}


@st.composite
def path_rows(draw):
    """(potential name, d, rows, spec): rows of all three kinds, smooth profiles at d = 3."""
    name = draw(st.sampled_from(sorted(_PATH_POTENTIALS)))
    d = 3 if name == "shell" else draw(st.sampled_from([3, 4, 5]))
    vector = st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d).map(np.array)
    # x near the balls' spheres, or moved out by 4, where a path can miss
    # the shell (radius 2) and has no inner integral to starve; y near x
    row = st.tuples(
        st.sampled_from([functionals._BRIDGE, functionals._RISE, functionals._FALL]),
        st.floats(-2.0, 0.7).map(lambda e: 10.0**e),
        st.tuples(vector, st.sampled_from([1.0, 4.0]), vector).map(lambda v: (v[1] * v[0], v[1] * v[0] + v[2])),
    )
    rows = [(kind, t, x, y) for kind, t, (x, y) in draw(st.lists(row, min_size=1, max_size=5))]
    spec = QuadratureSpec(rel_tol=1e-10, max_subdivisions=draw(st.integers(1, 30)))
    return name, d, rows, spec


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=path_rows())
def test_path_integrals_equal_each_row_alone(case):
    name, d, raw, spec = case
    prof = potentials.radial_profile(_PATH_POTENTIALS[name])
    rows = [_path_row(prof, *r) for r in raw]
    together = functionals._path_integrals(prof, d, rows, spec)
    alone = [functionals._path_integrals(prof, d, [row], spec)[0] for row in rows]
    assert list(map(repr, together)) == list(map(repr, alone))


def test_a_starved_inner_integral_marks_only_its_own_row():
    # the first bridge never comes near the shell, so it has no inner
    # integral; the second crosses it with inner integrals starved
    prof = potentials.radial_profile(POWER)
    starved = QuadratureSpec(rel_tol=1e-14, max_subdivisions=2)
    far = _path_row(prof, functionals._BRIDGE, 0.01, (40.0, 0.0, 0.0), (41.0, 0.0, 0.0))
    near = _path_row(prof, functionals._BRIDGE, 0.7, (0.3, 0.1, 0.0), (1.2, -0.4, 0.2))
    alone = [functionals._path_integrals(prof, 3, [row], starved)[0] for row in (far, near)]
    assert [e.status for e in alone] == [Status.CONVERGED, Status.MAX_SUBDIVISIONS_REACHED]
    assert functionals._path_integrals(prof, 3, [far, near], starved) == alone


# eight balls: eight cell edges, four times the two balls' ball overlaps
EIGHT_BALLS = Sum(tuple(BallIndicator(None, 0.25 * k, -1.0 / k) for k in range(1, 9)))
# a 48-probe call peaks at about 570 KiB on the two balls and 840 KiB on the
# eight (numpy 2.4, x86-64), one probe alone at about 95 KiB; with the
# transverse rule's rows in one block the eight balls reach about 2.4 MiB.
# On the shell (d = 3) every outer node's Gaussian mean is an inner
# integral, so the call also holds the inner engine's state.  It peaks at
# about 810 KiB; the bound is the 885 KiB of the generator engine in
# tests/reference_engine.py, which an engine holding every inner integral's
# boxes at once exceeds (1.2 MiB with all initial boxes as Python lists).
_PATH_PEAK = 1024 * 1024
_SHELL_PEAK = 900 * 1024


@pytest.mark.parametrize(
    "V, d, bound",
    [(TWO_BALLS_D4, 4, _PATH_PEAK), (EIGHT_BALLS, 4, _PATH_PEAK), (POWER, 3, _SHELL_PEAK)],
    ids=["two balls", "eight balls", "shell"],
)
def test_many_probe_path_integral_peak_bounded(V, d, bound):
    # one call for 48 S probes: its integrand calls take up to 64 boxes,
    # whose (edges x nodes x 16) transverse temporaries at d = 4, and whose
    # inner integrals on the shell, this bounds
    rng = np.random.default_rng(4)
    prof = potentials.radial_profile(V)
    rows = [
        _path_row(prof, functionals._BRIDGE, float(t), x, y)
        for t, x, y in zip(10.0 ** rng.uniform(-2, 1, 48), rng.normal(0, 1.2, (48, d)), rng.normal(0, 1.2, (48, d)))
    ]
    ests, peak = _peak_after_warm_up(lambda: functionals._path_integrals(prof, d, rows, DEFAULT_SPEC_1D))
    assert all(e.converged for e in ests)
    assert peak <= bound


def test_bridge_functional_monotonicity():
    spec = BridgeSpec(1.0, (0, 0, 0), (1, 0, 0))
    small = BallIndicator(None, 1.0, -0.5)
    assert s_functional(small, spec).value <= s_functional(BALL, spec).value * (1 + 1e-9)
    assert n_functional(small, spec).value <= n_functional(BALL, spec).value * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Gaussian convolution (semigroup identity)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 6])
def test_chapman_kolmogorov(d):
    for _ in range(5):
        t = float(np.exp(RNG.uniform(-1, 1)))
        s = t * float(RNG.uniform(0.1, 0.9))
        x = RNG.standard_normal(d)
        y = RNG.standard_normal(d)
        est = gaussian_convolution(t, s, x, y, d, QuadratureSpec(rel_tol=1e-9, max_subdivisions=4000))
        assert est.value == pytest.approx(heat_kernel(t, x, y, d), rel=1e-8)


# ---------------------------------------------------------------------------
# sup search and norms
# ---------------------------------------------------------------------------


def _exact(value: float) -> Estimate:
    return Estimate(value, 0.0, Status.CONVERGED)


def test_sup_search_constant_objective():
    res = sup_search(
        lambda points: [_exact(7.0) for _ in points], [AxisSpec("u", 0.1, 10.0, "log")], SearchStrategy(3, 1)
    )
    assert res.value == 7.0
    assert res.evaluations >= 3


@pytest.mark.parametrize(
    "kwargs, message",
    [({"grid_density": 0}, "grid_density"), ({"multistarts": -1}, "multistarts")],
)
def test_search_strategy_rejects_empty_grids_and_negative_starts(kwargs, message):
    # grid_density 0 left sup_search no grid point to rank; multistarts -1
    # sliced order[:-1] and ran every grid point but one as a simplex start
    with pytest.raises(ValueError, match=message):
        SearchStrategy(**kwargs)
    SearchStrategy(grid_density=1, multistarts=0)  # the smallest valid search


def test_sup_search_tracks_best():
    res = sup_search(
        lambda points: [_exact(-((math.log(p[0]) - 1.0) ** 2)) for p in points],
        [AxisSpec("u", 1e-2, 1e2, "log")],
        SearchStrategy(grid_density=7, multistarts=2),
    )
    assert res.value == pytest.approx(0.0, abs=1e-6)
    assert res.arg["u"] == pytest.approx(math.e, rel=1e-2)


def test_sup_search_computes_each_distinct_point_once():
    # a monotone objective walks both simplex runs into the clamp at hi * 1e3
    computed = []

    def objective(points):
        computed.extend(p.tobytes() for p in points)
        return [_exact(math.log1p(p[0])) for p in points]

    res = sup_search(
        objective,
        [AxisSpec("u", 1e-2, 1e2, "log", include_zero=True)],
        SearchStrategy(grid_density=5, multistarts=2, nm_max_iter=40),
    )
    assert len(computed) == len(set(computed)) == 31
    # the same result as computing all 162 requests
    assert res.value == 11.51293546492023
    assert res.arg == {"u": 100000.0}
    assert res.evaluations == 162
    assert res.strategy_trace == (
        "grid: 6 points, best 4.61512",
        "simplex from [100.0]: 11.5129",
        "simplex from [10.0]: 11.5129",
    )
    assert res.boundary_hit


_NM_CENTRE = np.array([1.5, -0.5, 2.0, 0.25])
_NM_OBJECTIVES = {
    "bowl": lambda x: float(np.sum((x - _NM_CENTRE[: len(x)]) ** 2)),
    # plateaus: many ties among the vertices
    "steps": lambda x: math.floor(2.0 * np.sum((x - _NM_CENTRE[: len(x)]) ** 2)) / 2.0,
    # monotone: the simplex walks off and keeps expanding
    "walk": lambda x: float(np.sum(x)),
    # +inf outside a box, as sup_search's objective is on a non-finite probe
    "wall": lambda x: math.inf if np.max(np.abs(x)) > 4.0 else float(np.sum(x**4 - x)),
    "flat": lambda x: 1.0,
}


def _drive_simplex(f, x0, max_iter):
    """``search._simplex`` run to its end, f called on each requested point in turn."""
    run = search._simplex(x0, max_iter)
    points = next(run)
    while True:
        try:
            points = run.send([f(x) for x in points])
        except StopIteration as done:
            return done.value


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    x0=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.just(0.0) | st.floats(-5.0, 5.0), min_size=n, max_size=n)
    ),
    max_iter=st.integers(0, 200),
    kind=st.sampled_from(sorted(_NM_OBJECTIVES)),
)
def test_nelder_mead_follows_scipy(x0, max_iter, kind):
    # the same points requested, bit for bit and in order, and the same x
    def run(minimise):
        requested = []

        def f(x):
            requested.append(x.tobytes())
            return _NM_OBJECTIVES[kind](x)

        with np.errstate(invalid="ignore"):  # inf - inf in the stopping test
            x = minimise(f)
        return requested, x.tobytes()

    options = {"maxiter": max_iter, "xatol": 1e-6, "fatol": 1e-12}
    ours = run(lambda f: _drive_simplex(f, np.array(x0), max_iter))
    theirs = run(lambda f: spo.minimize(f, np.array(x0), method="Nelder-Mead", options=options).x)
    assert ours == theirs


def test_newton_norm_counterexample_pinned():
    # the error bar is the argmax probe's own, which SupResult carries too
    rep = newton_norm(CEX, 4, strategy=SearchStrategy(5, 1, 10))
    assert repr(rep) == (
        "NormReport(estimate=Estimate(value=0.5000000030043429, error_bound=1.6383211991671097e-09, "
        "status=<Status.CONVERGED: 'converged'>), sup=SupResult(value=0.5000000030043429, "
        "estimate=Estimate(value=0.5000000030043429, error_bound=1.6383211991671097e-09, "
        "status=<Status.CONVERGED: 'converged'>), "
        "arg={'x1': 1000000000.0}, evaluations=31, strategy_trace=('grid: 5 points, best 0.5', "
        "'simplex from [1000000.0]: 0.5'), boundary_hit=True), diagnosis=None)"
    )


def _peak_after_warm_up(call):
    """(result of a warm-up call, tracemalloc peak of a second call)."""
    result = call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# the axial routes' 2D integrals advance in lockstep: the search's probes
# share integrand calls, and so do the Newton ladder's shells.  The pins are
# the values each probe and shell gets alone; the peaks bound what sharing
# may hold at once (about 510 and 440 KiB with one integral per call, 1,000
# and more with 32 boxes per 2D call)
_LOCKSTEP_PEAK = 768 * 1024


def test_k_norm_counterexample_pinned_and_its_peak_bounded():
    rep, peak = _peak_after_warm_up(lambda: k_norm(CEX, 4, ladder=[1e2, 1e3, 1e4, 1e5]))
    assert repr(rep) == (
        "NormReport(estimate=Estimate(value=inf, error_bound=inf, status=<Status.DIVERGED: 'diverged'>), "
        "sup=SupResult(value=55.286982812990786, estimate=Estimate(value=55.286982812990786, "
        "error_bound=2.4266839950415114e-05, status=<Status.CONVERGED: 'converged'>), "
        "arg={'x1': 4.441391573316246, 'y1': 2.745898370873964}, evaluations=469, "
        "strategy_trace=('grid: 36 points, best 37.8978', 'simplex from [10.0, 0.316228]: 55.287', "
        "'simplex from [0.316228, 10.0]: 55.287', 'simplex from [0.01, 10.0]: 55.287'), boundary_hit=False), "
        "diagnosis=GrowthDiagnosis(radii=(100.0, 1000.0, 10000.0, 100000.0), values=(11.685328175387728, "
        "20.00766953824926, 28.327459120350863, 36.646989864767015), model=<GrowthModel.LOG_FIT: 'log-fit'>, "
        "slope=3.613537449860257, r_squared=0.9999999935352817, verdict=<Verdict.DIVERGENT: 'divergent'>))"
    )
    assert peak <= _LOCKSTEP_PEAK


def test_newton_counterexample_pinned_and_its_peak_bounded():
    est, peak = _peak_after_warm_up(lambda: newton_potential(CEX, [1e3, 0.0, 0.0, 0.0], 4))
    assert repr(est) == (
        "Estimate(value=0.4999978115960871, error_bound=1.6383211620906988e-06, "
        "status=<Status.CONVERGED: 'converged'>)"
    )
    assert peak <= _LOCKSTEP_PEAK


# the power cells' 24-node rule runs in row blocks, so a radial k_transform's
# peak does not grow with the nodes per integrand call: about 620 KiB with
# the blocks (numpy 2.4, x86-64), against 1,320-1,500 KiB at 64 boxes per
# call and 2,500-2,900 at 128 when every temporary is (nodes x 24) wide
_RADIAL_PEAK = 1024 * 1024
_POWER_PINS = {
    3: "Estimate(value=12.063476546550694, error_bound=2.1476251606548403e-10, "
    "status=<Status.CONVERGED: 'converged'>)",
    4: "Estimate(value=25.683261795628635, error_bound=4.475949951290179e-06, "
    "status=<Status.CONVERGED: 'converged'>)",
}


@pytest.mark.parametrize("d", sorted(_POWER_PINS))
def test_k_power_shell_pinned_and_its_peak_bounded(d):
    x, y = functionals._probe_pair(d, 0.6, 1.0, 0.3)
    est, peak = _peak_after_warm_up(lambda: k_transform(POWER, x, y, d))
    assert repr(est) == _POWER_PINS[d]
    assert peak <= _RADIAL_PEAK


_SMALL_SEARCH = SearchStrategy(3, 1, 5)


def _norms_of_the_ball(**q):
    """(norm report, its transform at a probe) for k_norm, newton_norm and s_norm."""
    k = k_norm(BALL, 3, **q, strategy=_SMALL_SEARCH)
    n = newton_norm(BALL, 3, **q, strategy=_SMALL_SEARCH)
    s = s_norm(BALL, 3, **q, strategy=_SMALL_SEARCH)

    def pair(a):
        return functionals._probe_pair(3, a["r_x"], a["r_y"], a["cos_angle"])

    k_at = lambda a: k_transform(BALL, *pair(a), 3, **q)
    n_at = lambda a: newton_potential(BALL, [a["r_x"], 0.0, 0.0], 3, **q)
    s_at = lambda a: s_functional(BALL, BridgeSpec(a["t"], *map(tuple, pair(a))), **q)

    return [(k, k_at), (n, n_at), (s, s_at)]


def test_norms_carry_their_argmax_probes_estimate():
    for rep, transform in _norms_of_the_ball():
        assert rep.estimate == transform(rep.sup.arg) == rep.sup.estimate
        assert type(rep.estimate.value) is float


def test_norms_report_a_starved_quadrature():
    starved = QuadratureSpec(rel_tol=1e-14, max_subdivisions=1)
    for rep, _ in _norms_of_the_ball(q=starved):
        assert rep.estimate.status is Status.MAX_SUBDIVISIONS_REACHED
    # at 1e-12 the norm still converges on one subdivision: its argmax probe
    # sits at y = 0, where the ball's 1D integral converges on its initial panels
    rep = k_norm(BALL, 3, QuadratureSpec(rel_tol=1e-12, max_subdivisions=1), strategy=_SMALL_SEARCH)
    assert rep.estimate.converged


def test_newton_norm_ball():
    rep = newton_norm(BALL, 3)
    assert rep.estimate.value == pytest.approx(0.5, rel=1e-8)
    assert rep.sup.arg["r_x"] == 0.0


def test_k_norm_d3_slice_identity():
    # at d = 3 the kernel norm is attained on the y = 0 slice and equals
    # C_3^{-1} times the Newton sup
    rep_k = k_norm(BALL, 3, strategy=SearchStrategy(grid_density=4, multistarts=1, nm_max_iter=20))
    rep_n = newton_norm(BALL, 3)
    assert rep_k.estimate.value == pytest.approx(
        rep_n.estimate.value / newton_constant(3), rel=1e-6
    )
    assert rep_k.sup.arg["r_y"] == 0.0


def test_k_norm_counterexample_divergent():
    rep = k_norm(
        CEX, 4, strategy=SearchStrategy(grid_density=3, multistarts=1, nm_max_iter=10),
        ladder=[1e2, 1e3, 1e4, 1e5],
    )
    assert rep.diagnosis is not None
    assert rep.diagnosis.verdict is Verdict.DIVERGENT
    assert math.isinf(rep.estimate.value)
    assert rep.estimate.status is Status.DIVERGED


def test_truncate_potential_forms():
    assert truncate_potential(Constant(-1.0), 2.0).support_radius() == pytest.approx(2.0)
    V = truncate_potential(RadialPower(-1.0, 0.5, math.inf, -1.0), 3.0)
    assert V.support_radius() == pytest.approx(3.0)
    W = truncate_potential(CEX, 50.0)
    assert W.z1_max == 50.0
    # every other form: the truncation is compact and is V itself inside |z| < R
    R = 2.0
    tail = RadialPower(-1.0, 0.5, math.inf, -1.0)
    forms = [
        BallIndicator(None, 3.0, -1.0),
        Constant(0.0),
        Dilate(2.0, tail),
        Scale(-2.0, tail),
        Sum((Constant(-1.0), RadialPower(-3.0, 1.0, math.inf, -1.0))),
    ]
    rng = np.random.default_rng(3)
    z = rng.standard_normal((200, 3))
    z *= (0.99 * R * rng.uniform(size=200) / np.linalg.norm(z, axis=1))[:, None]
    for V in forms:
        T = truncate_potential(V, R)
        assert math.isfinite(T.support_radius())
        assert np.array_equal(evaluate_many(T, z), evaluate_many(V, z))


def test_growth_diagnosis_examples():
    g = growth_diagnosis(lambda r: 5.0, [1, 10, 100, 1000])
    assert g.verdict is Verdict.CONVERGENT and g.slope == 0.0
    g = growth_diagnosis(lambda r: 2 * math.log(r), [10, 100, 1000, 10000])
    assert g.verdict is Verdict.DIVERGENT
    assert g.model.value == "log-fit"
    assert g.slope == pytest.approx(2.0, rel=1e-12) and g.r_squared == pytest.approx(1.0)
    with pytest.raises(ValueError):
        growth_diagnosis(lambda r: r, [1, 2, 3])
    with pytest.raises(ValueError):
        growth_diagnosis(lambda r: r, [1, 10, 10, 100])


def test_k_truncation_log_divergence():
    x0 = np.zeros(4)
    y0 = np.array([1.0, 0, 0, 0])
    diag = growth_diagnosis(
        lambda R: k_transform(CounterexampleA(z1_max=R), x0, y0, 4),
        [1e2, 1e3, 1e4, 1e5],
    )
    assert diag.verdict is Verdict.DIVERGENT
    assert diag.slope > 0 and diag.r_squared >= 0.99


def test_compact_counterexample_construction(monkeypatch):
    probed = []

    def recording(V, *args):
        probed.append(V.z1_max)
        return k_transform(V, *args)

    monkeypatch.setattr(functionals, "k_transform", recording)
    compact, probe_radii = build_compact_counterexample(2, 4)
    monkeypatch.undo()
    # each term restarts from the previous bisection's end: computed once
    assert len(probed) == len(set(probed))
    assert compact.support_radius() <= 1.0 + 1e-12
    x0 = np.zeros(4)
    for n, rho in enumerate(probe_radii, start=1):
        y = np.zeros(4)
        y[0] = rho
        kv = k_transform(compact, x0, y, 4)
        assert kv.value >= 2.0**n * (1 - 1e-3)


@st.composite
def compact_radial_trees(draw):
    """Nonpositive radial potentials of compact support: balls and bounded
    radial powers under positive scalings, dilations and sums."""
    leaves = st.one_of(
        st.builds(BallIndicator, st.none(), st.floats(0.2, 2.0), st.floats(-2.0, -0.1)),
        st.builds(
            lambda p, lo, w, amp: RadialPower(p, lo, lo + w, amp),
            st.sampled_from([-1.0, -0.5, 0.5, 1.5]),
            st.floats(0.1, 1.0),
            st.floats(0.2, 1.5),
            st.floats(-2.0, -0.1),
        ),
    )
    return draw(
        st.recursive(
            leaves,
            lambda kids: st.one_of(
                st.builds(Dilate, st.floats(0.5, 2.0), kids),
                st.builds(Scale, st.floats(0.5, 2.0), kids),
                st.builds(lambda terms: Sum(tuple(terms)), st.lists(kids, min_size=2, max_size=2)),
            ),
            max_leaves=3,
        )
    )


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    V=compact_radial_trees(),
    d=st.sampled_from([3, 4]),
    x=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    ny=st.floats(0.1, 1.5),
    phi=st.floats(0.0, 2.0 * math.pi),
    log_s=st.floats(-1.0, 1.0),
)
def test_k_dilation_covariance_off_the_axis(V, d, x, ny, phi, log_s):
    # K(dilate(V, s), x / sqrt(s), sqrt(s) y) = K(V, x, y): the change of
    # variables z -> sqrt(s) z leaves the kernel's scale factors at 1
    s = math.exp(log_s)
    xv = np.array(x + [0.0] * (d - 2))
    yv = np.array([ny * math.cos(phi), ny * math.sin(phi)] + [0.0] * (d - 2))
    base = k_transform(V, xv, yv, d)
    dilated = k_transform(dilate(V, s), xv / math.sqrt(s), math.sqrt(s) * yv, d)
    slack = 2e-6 * abs(base.value) + 3.0 * (base.error_bound + dilated.error_bound)
    assert abs(dilated.value - base.value) <= slack


def test_dilation_covariance_transforms():
    for _ in range(10):
        s = float(np.exp(RNG.uniform(-1.5, 1.5)))
        x = RNG.standard_normal(3)
        y = RNG.standard_normal(3)
        rs = math.sqrt(s)
        k1 = k_transform(dilate(BALL, s), x, y, 3)
        k2 = k_transform(BALL, rs * x, y / rs, 3)
        assert k1.value == pytest.approx(k2.value, rel=1e-6)
        n1 = newton_potential(dilate(BALL, s), x, 3)
        n2 = newton_potential(BALL, rs * x, 3)
        assert n1.value == pytest.approx(n2.value, rel=1e-6)
