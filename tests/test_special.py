import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as sps

from bridgepot.special import (
    ball_volume,
    norm_cdf,
    sin_power_antideriv,
    sphere_area,
)


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
