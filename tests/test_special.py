import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as sps
from scipy.stats import chi2 as chi2_dist

from bridgepot.functionals import _chi2_cdf_fast
from bridgepot.special import (
    ball_volume,
    chi2_cdf,
    gammainc_lower_reg,
    norm_cdf,
    sin_power_antideriv,
    sphere_area,
)


def test_gammainc_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(0.3, 6.0)
        y = rng.uniform(0.0, 30.0)
        mine = gammainc_lower_reg(a, y)
        ref = float(sps.gammainc(a, y))
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_gammainc_small_argument():
    # series regime: P(a, y) ~ y^a / Gamma(a+1) as y -> 0
    a, y = 1.5, 1e-10
    assert gammainc_lower_reg(a, y) == pytest.approx(y**a / math.gamma(a + 1.0), rel=1e-9)


def test_chi2_cdf_matches_scipy():
    from scipy.stats import chi2 as chi2_dist

    x = np.linspace(0.01, 40, 117)
    for k in (1, 2, 3, 4, 5, 7):
        assert np.allclose(chi2_cdf(k, x), chi2_dist.cdf(x, k), rtol=1e-11, atol=1e-13)


def test_sphere_area_values():
    assert sphere_area(0) == pytest.approx(2.0)
    assert sphere_area(1) == pytest.approx(2 * math.pi)
    assert sphere_area(2) == pytest.approx(4 * math.pi)
    assert sphere_area(3) == pytest.approx(2 * math.pi**2)


def test_ball_volume_values():
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2)
    assert ball_volume(4, 2.0) == pytest.approx(math.pi**2 / 2 * 16)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_sin_power_antideriv_by_quadrature(m):
    from scipy.integrate import quad

    for a, b in ((0.0, 1.0), (0.5, 2.5), (1.0, math.pi)):
        ref, _ = quad(lambda t: math.sin(t) ** m, a, b)
        mine = float(sin_power_antideriv(m, b) - sin_power_antideriv(m, a))
        assert mine == pytest.approx(ref, abs=1e-12)


def test_norm_cdf():
    from scipy.stats import norm

    x = np.linspace(-6, 6, 41)
    assert np.allclose(norm_cdf(x), norm.cdf(x), atol=1e-14)


@given(hnp.arrays(float, st.integers(1, 40), elements=st.floats(-40.0, 40.0)))
def test_norm_cdf_matches_ndtr(x):
    assert np.allclose(norm_cdf(x), sps.ndtr(x), rtol=1e-14, atol=1e-300)


@given(
    st.integers(1, 6),
    hnp.arrays(float, st.integers(1, 40), elements=st.floats(0.0, 200.0)),
)
def test_chi2_cdf_fast_matches_scipy(k, x):
    assert np.allclose(_chi2_cdf_fast(k, x), chi2_dist.cdf(x, k), rtol=1e-10, atol=1e-13)
