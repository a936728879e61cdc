import math

import numpy as np
import pytest
from scipy import integrate as spi
from scipy import special as sps

from bridgepot.errors import DimensionError
from bridgepot.kernels import (
    as_dimension,
    bridge_density,
    explicit_constant,
    f_estimate,
    f_integral,
    gaussian_tail_power_integral,
    heat_kernel,
    i_app,
    j_kernel,
    j_kernel_direct,
    k0,
    kappa,
    newton_constant,
)
from bridgepot.quadrature import QuadratureSpec, Status, integrate_finite

TIGHT = QuadratureSpec(rel_tol=1e-11)
RNG = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# dimension guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3.7])
def test_low_dimensions_rejected(d):
    with pytest.raises(DimensionError):
        as_dimension(d)


def test_dimension_accepts_3_and_up():
    assert as_dimension(3) == 3
    assert as_dimension(np.int64(6)) == 6
    d = as_dimension(4.0)
    assert d == 4 and type(d) is int


# ---------------------------------------------------------------------------
# heat kernel and bridge density
# ---------------------------------------------------------------------------


def test_heat_kernel_examples():
    assert heat_kernel(1.0, [0, 0, 0], [0, 0, 0], 3) == pytest.approx((4 * math.pi) ** -1.5)
    assert heat_kernel(1.0, [0, 0, 0], [1, 0, 0], 3) == pytest.approx(
        (4 * math.pi) ** -1.5 * math.exp(-0.25)
    )
    x = RNG.standard_normal(4)
    y = RNG.standard_normal(4)
    assert heat_kernel(2.0, x, y, 4) == heat_kernel(2.0, y, x, 4)


def test_heat_kernel_errors():
    with pytest.raises(ValueError):
        heat_kernel(0.0, [0, 0, 0], [0, 0, 0], 3)
    with pytest.raises(DimensionError):
        heat_kernel(1.0, [0, 0], [0, 0, 0], 3)


def test_bridge_params_example():
    # marginal N(x + (s/t)(y - x), 2 s (t - s)/t I): mean (0.25, 0, 0), variance 0.375
    x, y = [0, 0, 0], [1, 0, 0]
    peak = (2 * math.pi * 0.375) ** -1.5
    assert bridge_density(1.0, 0.25, x, y, [0.25, 0, 0], 3) == pytest.approx(peak, rel=1e-14)
    off = bridge_density(1.0, 0.25, x, y, [0.25, 0.5, 0], 3)
    assert off == pytest.approx(peak * math.exp(-0.25 / 0.75), rel=1e-14)
    for s in (1.5, 1.0, 0.0):
        with pytest.raises(ValueError, match="0 < s < t"):
            bridge_density(1.0, s, x, y, [0, 0, 0], 3)


def test_bridge_density_normalizes():
    # radial quadrature of bridge_density itself about the marginal's mean
    t, s = 1.0, 0.3
    x = np.zeros(3)
    y = np.array([1.0, 0, 0])
    mean = np.array([0.3, 0, 0])
    e = np.array([1.0, 2.0, 2.0]) / 3.0
    var = 2 * s * (t - s) / t

    def radial(r):
        dens = np.array([bridge_density(t, s, x, y, mean + ri * e, 3) for ri in r])
        return 4 * math.pi * r**2 * dens

    est = integrate_finite(radial, 0.0, 9.0 * math.sqrt(var), TIGHT)
    assert est.value == pytest.approx(1.0, rel=1e-10)


def test_gaussian_product_identity():
    # g(s,x,z) g(t-s,z,y) = g(t,x,y) * bridge_density, at random arguments
    for d in (3, 4, 6):
        for _ in range(25):
            t = float(np.exp(RNG.uniform(-1.5, 1.5)))
            s = t * RNG.uniform(0.05, 0.95)
            x, y, z = (RNG.standard_normal(d) for _ in range(3))
            lhs = heat_kernel(s, x, z, d) * heat_kernel(t - s, z, y, d)
            rhs = heat_kernel(t, x, y, d) * bridge_density(t, s, x, y, z, d)
            assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# the comparison kernel
# ---------------------------------------------------------------------------


def test_k0_examples():
    assert k0([2, 0, 0, 0], [0, 0, 0, 0], 4) == pytest.approx(0.25)
    assert k0([1, 0, 0, 0, 0], [3, 0, 0, 0, 0], 5) == pytest.approx(4.0)
    assert k0([1, 0, 0], [0, 1, 0], 3) == pytest.approx(math.exp(-0.5))


def test_k0_singularity_sentinel():
    assert k0([0, 0, 0], [1, 0, 0], 3) == math.inf


def test_k0_scaling_covariance():
    # k0(u / sqrt(s), y) = s^{(d-2)/2} k0(u, y / sqrt(s))
    for d in (3, 4, 6):
        for _ in range(20):
            u = RNG.standard_normal(d) * 2.0
            y = RNG.standard_normal(d) * 2.0
            s = float(np.exp(RNG.uniform(-2, 2)))
            lhs = k0(u / math.sqrt(s), y, d)
            rhs = s ** ((d - 2) / 2.0) * k0(u, y / math.sqrt(s), d)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_completing_the_square_identity():
    # |z-x-ty|^2/(4t) = (1/4)[|z-x|/sqrt(t) - sqrt(t)|y|]^2
    #                   + (1/2)(|z-x||y| - (z-x).y)
    for _ in range(50):
        d = int(RNG.integers(3, 7))
        z, x, y = (RNG.standard_normal(d) for _ in range(3))
        t = float(np.exp(RNG.uniform(-2, 2)))
        u = z - x
        lhs = float(np.sum((u - t * y) ** 2)) / (4 * t)
        nu, ny = np.linalg.norm(u), np.linalg.norm(y)
        rhs = 0.25 * (nu / math.sqrt(t) - math.sqrt(t) * ny) ** 2 + 0.5 * (
            nu * ny - float(np.dot(u, y))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# f and friends
# ---------------------------------------------------------------------------


def _f_bessel_oracle(a, b, beta, c):
    # int_0^inf u^{nu-1} e^{-pu-q/u} du = 2 (q/p)^{nu/2} K_nu(2 sqrt(pq)),
    # applied with nu = 1 - beta, p = c b^2, q = c a^2 and the e^{2abc} factor
    nu = 1.0 - beta
    p, q = c * b * b, c * a * a
    return 2.0 * math.exp(2 * a * b * c) * (q / p) ** (nu / 2.0) * float(sps.kv(nu, 2 * math.sqrt(p * q)))


def test_f_gamma_limit():
    est = f_integral(1.0, 1e-8, 2.0, 1.0, TIGHT)
    assert est.converged
    assert est.value == pytest.approx(1.0, rel=1e-6)
    assert gaussian_tail_power_integral(1.0, 2.0, 1.0) == 1.0


def test_f_brute_force_riemann():
    # independent oracle: 1e6 midpoint panels on (0, 100]
    a, b, beta, c = 1.0, 1.0, 2.0, 1.0
    edges = np.linspace(0.0, 100.0, 1_000_001)
    u = 0.5 * (edges[1:] + edges[:-1])
    du = np.diff(edges)
    vals = u ** (-beta) * np.exp(-c * (np.sqrt(u) * b - a / np.sqrt(u)) ** 2)
    oracle = float((vals * du).sum())
    est = f_integral(a, b, beta, c)
    assert est.value == pytest.approx(oracle, rel=1e-4)


def test_f_sandwich_at_unit_point():
    f = f_integral(1.0, 1.0, 1.5, 1.0, TIGHT)
    I = i_app(1.0, 1.0, 1.5, 1.0, TIGHT)
    assert 2 * I.value <= f.value * (1 + 1e-9)
    assert f.value <= 4 * I.value * (1 + 1e-9)


def test_f_bessel_cross_check():
    for a, b, beta, c in [(1, 1, 2, 1), (2, 0.5, 2.5, 1), (0.3, 4, 3, 0.25), (5, 0.2, 3, 4)]:
        est = f_integral(a, b, beta, c, TIGHT)
        assert est.converged
        assert est.value == pytest.approx(_f_bessel_oracle(a, b, beta, c), rel=1e-9)


def test_f_symmetrized_branch_consistency():
    # the ab > 1e3 branch must agree with the Bessel closed form too
    a, b, beta, c = 60.0, 40.0, 2.0, 1.0
    est = f_integral(a, b, beta, c, TIGHT)
    x = 2 * a * b * c
    # use the exponentially scaled Bessel to dodge overflow: kve = e^x K(x)
    oracle = 2.0 * (b / a) * float(sps.kve(1, x))
    assert est.value == pytest.approx(oracle, rel=1e-8)


def test_f_half_integer_exact():
    # beta = 3/2, c = 1: f(a, b) = sqrt(pi) / a independent of b
    for a, b in [(1.0, 1.0), (2.0, 0.01), (0.5, 30.0)]:
        est = f_integral(a, b, 1.5, 1.0, TIGHT)
        assert est.value == pytest.approx(math.sqrt(math.pi) / a, rel=1e-10)


def test_f_parameter_validation():
    with pytest.raises(ValueError):
        f_integral(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        f_integral(1.0, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        f_integral(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        f_integral(1.0, 1.0, 2.0, 0.0)


def test_f_estimate_examples():
    assert f_estimate(1.0, 1.0, 1.5) == pytest.approx(1.0)
    assert f_estimate(1.0, 0.25, 2.0) == pytest.approx(math.sqrt(2.0))
    assert f_estimate(2.0, 0.0, 2.0) == pytest.approx(0.25)


def test_i_app_sandwich_against_h():
    # 2^{-2(beta-1)} a^{-2(beta-1)} <= i_app / h(4ab) <= a^{-2(beta-1)}
    for a, b, beta, c in [(1.0, 1.0, 1.5, 1.0), (2.0, 1.0, 2.0, 1.0)]:
        I = i_app(a, b, beta, c, TIGHT)
        # h(x) = int_0^inf (x + s^2)^gamma e^{-c s^2} ds, gamma = beta - 3/2
        h, _ = spi.quad(
            lambda s: (4 * a * b + s * s) ** (beta - 1.5) * math.exp(-c * s * s),
            0,
            math.inf,
            epsabs=0,
            epsrel=1e-12,
        )
        ratio = I.value / h
        lo = 2.0 ** (-2 * (beta - 1)) * a ** (-2 * (beta - 1))
        hi = a ** (-2 * (beta - 1))
        assert lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)


def test_i_app_small_b_sandwich_with_f():
    f = f_integral(1.0, 1e-8, 2.0, 1.0, TIGHT)
    I = i_app(1.0, 1e-8, 2.0, 1.0, TIGHT)
    assert f.value / 4 * (1 - 1e-8) <= I.value <= f.value / 2 * (1 + 1e-8)


def test_explicit_constant_closed_forms():
    for c in (0.25, 1.0, 4.0):
        est = explicit_constant(1.5, c, TIGHT)
        assert est.value == pytest.approx(math.sqrt(4 * math.pi / c), rel=1e-10)


def test_explicit_constant_brute_force():
    # beta = 2: midpoint oracle after r = w^2 (removes the r^{-1/2} endpoint),
    # C = 2 int (1 v w^2)^{1/2} e^{-w^2} * 2 dw
    edges = np.linspace(0.0, 9.0, 2_000_001)
    w = 0.5 * (edges[1:] + edges[:-1])
    dw = np.diff(edges)
    vals = np.maximum(1.0, w * w) ** 0.5 * np.exp(-w * w)
    oracle = 4.0 * float((vals * dw).sum())
    est = explicit_constant(2.0, 1.0)
    assert est.value == pytest.approx(oracle, rel=1e-6)


def test_explicit_constant_validation():
    with pytest.raises(ValueError):
        explicit_constant(1.2, 1.0)


# ---------------------------------------------------------------------------
# J kernel
# ---------------------------------------------------------------------------


def test_j_kernel_y_zero_closed_form():
    est = j_kernel([1, 0, 0], [0, 0, 0], 3)
    assert est.value == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)


def test_j_kernel_factored_identity():
    jv = j_kernel([1, 0, 0], [1, 0, 0], 3, TIGHT)
    fv = f_integral(0.5, 0.5, 1.5, 1.0, TIGHT)
    assert jv.value == pytest.approx(fv.value, rel=1e-10)  # e^0 prefactor


def test_j_kernel_upper_constant_example():
    jv = j_kernel([1, 0, 0], [4, 0, 0], 3, TIGHT)
    assert jv.value <= 4 * math.sqrt(math.pi) * k0([1, 0, 0], [4, 0, 0], 3) * (1 + 1e-9)


def test_j_direct_vs_factored():
    for d in (3, 4, 5, 6):
        for _ in range(10):
            x = RNG.standard_normal(d)
            y = RNG.standard_normal(d) * float(np.exp(RNG.uniform(-2, 2)))
            jf = j_kernel(x, y, d, TIGHT)
            jd = j_kernel_direct(x, y, d, TIGHT)
            assert jf.value == pytest.approx(jd.value, rel=1e-8)


def test_j_bessel_oracle_d4():
    x = np.array([1.2, 0.3, 0, 0])
    y = np.array([0.5, -1.0, 0.7, 0])
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    gap = nx * ny - float(np.dot(x, y))
    oracle = math.exp(-0.5 * gap) * _f_bessel_oracle(nx / 2, ny / 2, 2.0, 1.0)
    est = j_kernel(x, y, 4, TIGHT)
    assert est.value == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# Newton constant and kappa
# ---------------------------------------------------------------------------


def test_newton_constant_values():
    assert newton_constant(3) == pytest.approx(1 / (4 * math.pi), rel=1e-14)
    assert newton_constant(4) == pytest.approx(1 / (4 * math.pi**2), rel=1e-14)
    assert newton_constant(6) == pytest.approx(1 / (4 * math.pi**3), rel=1e-14)


def test_kappa_d4_against_grid_oracle():
    est = kappa(4)
    assert est.converged
    # brute 2D midpoint grid in (log r, phi)
    d, p = 4, 2.0
    beta_eff = p * (d - 1) / 2.0
    r_edges = np.exp(np.linspace(0.0, math.log(1e9), 6001))
    r = 0.5 * (r_edges[1:] + r_edges[:-1])
    dr = np.diff(r_edges)
    phi_edges = np.linspace(0.0, math.pi, 3001)
    phi = 0.5 * (phi_edges[1:] + phi_edges[:-1])
    dphi = np.diff(phi_edges)
    F = (
        np.exp(-(p / 2) * r[:, None] * (1 - np.cos(phi[None, :])))
        * r[:, None] ** (d - 1 - beta_eff)
        * np.sin(phi[None, :]) ** (d - 2)
    )
    inner = 4 * math.pi * float((F * dphi[None, :] * dr[:, None]).sum())
    assert est.value == pytest.approx(inner ** 0.5, rel=1e-3)


def test_kappa_d5_finite():
    est = kappa(5)
    assert est.converged and est.value > 0 and math.isfinite(est.value)


def test_kappa_requires_d4():
    with pytest.raises(DimensionError):
        kappa(3)


def test_kappa_threshold_diagnostic():
    div = kappa(4, exponent_override=2.4)
    assert div.status is Status.DIVERGED and math.isinf(div.value)
    con = kappa(4, exponent_override=2.6)
    assert con.converged and math.isfinite(con.value)
