"""The scipy oracles against closed forms."""

import math

import pytest

import oracles


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _ball_mass_d3(R: float, mu: float, sigma: float) -> float:
    """Elementary P(|Z| <= R) for Z ~ N(m, sigma^2 I_3), |m| = mu > 0."""
    a, b = (R - mu) / sigma, (R + mu) / sigma
    tail = sigma / (mu * math.sqrt(2.0 * math.pi)) * (math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b))
    return _phi(a) - _phi(-b) - tail


@pytest.mark.parametrize("R, mu, sigma", [(1.0, 0.3, 0.5), (1.0, 1.7, 0.4), (2.0, 0.9, 1.3), (0.5, 0.01, 0.2)])
def test_d3_ball_mass_is_elementary(R, mu, sigma):
    assert oracles.ball_mass(R, mu, sigma, 3) == pytest.approx(_ball_mass_d3(R, mu, sigma), abs=1e-13)


@pytest.mark.parametrize("mu, sigma", [(0.4, 0.3), (1.5, 0.8)])
def test_flat_shell_is_a_difference_of_balls(mu, sigma):
    shell = (0.0, 0.5, 1.5, 2.0)
    want = 2.0 * (_ball_mass_d3(1.5, mu, sigma) - _ball_mass_d3(0.5, mu, sigma))
    assert oracles.shell_mean(shell, mu, sigma) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_constant_potential_bridge_potential_is_c_t(d):
    # a ball far larger than the bridge is the constant |c| along it
    constant = ("balls", [(1e6, 0.7)])
    x = [0.3] + [0.0] * (d - 1)
    y = [0.0, 1.1] + [0.0] * (d - 2)
    assert oracles.bridge_potential(constant, 1.6, x, y) == pytest.approx(0.7 * 1.6, rel=1e-12)
    assert oracles.trapezoid_bridge_potential(constant, 1.6, x, y, 16) == pytest.approx(0.7 * 1.6, rel=1e-12)
    # N: each half is (t/2) |c|, times (4 pi)^{d/2}
    assert oracles.two_sided(constant, 1.6, x, y) == pytest.approx(
        (4.0 * math.pi) ** (d / 2.0) * 0.7 * 1.6, rel=1e-12
    )


@pytest.mark.parametrize("R, ny", [(1.0, 0.8), (2.0, 3.0)])
def test_k_transform_ball_at_origin_is_closed_form(R, ny):
    # x = 0: K = 2 pi / a * (R - (1 - exp(-2 a R)) / (2 a)), a = |y| / 2
    a = 0.5 * ny
    want = 2.0 * math.pi / a * (R - (1.0 - math.exp(-2.0 * a * R)) / (2.0 * a))
    got = oracles.k_transform_ball_d3(R, -1.0, [0.0, 0.0, 0.0], [0.0, ny, 0.0])
    assert got == pytest.approx(want, rel=1e-10)
