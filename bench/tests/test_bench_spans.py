"""The tracer: counts at the quadrature boundary, self times, restoring."""

import sys

import numpy as np
import pytest

import bridgepot
from bridgepot import functionals, quadrature
from spans import LAYERS, Tracer


def test_one_panel_integral_is_fifteen_points():
    tracer = Tracer()
    with tracer.installed():
        est = quadrature.integrate_finite(lambda x: x * x, 0.0, 1.0)
    assert est.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert tracer.counts["quadrature.integrals"] == 1
    assert tracer.integrand_totals() == (1, 15)


def test_self_times_are_nonnegative_and_add_up():
    tracer = Tracer()
    with tracer.installed():
        # nested (s, alpha) integrals under k_transform
        functionals.k_transform(bridgepot.BallIndicator(None, 1.0, -1.0), [0.5, 0.2, 0.0], [0.0, 1.0, 0.0], 3)
    nodes = list(tracer.walk())
    assert any(path[-1] == "integrand" and len(path) > 3 for path, _ in nodes)
    for path, node in nodes:
        assert node.self_time >= 0.0, path
        children = sum(child.total for child in node.children.values())
        assert node.self_time + children == pytest.approx(node.total, rel=1e-12, abs=1e-12), path


def test_every_wrapped_name_is_restored():
    modules = [m for n, m in sys.modules.items() if n == "bridgepot" or n.startswith("bridgepot.")]
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    original = quadrature.integrate_finite
    tracer = Tracer()
    with tracer.installed():
        assert functionals.integrate_finite is not original
        assert functionals.integrate_finite.__wrapped__ is original
        assert bridgepot.k_transform is functionals.k_transform
    after = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    assert after == before
    assert functionals.integrate_finite is quadrature.integrate_finite
    for layer, names in LAYERS.items():
        for name in names:
            assert not hasattr(getattr(sys.modules[f"bridgepot.{layer}"], name), "__wrapped__")


def test_restored_after_an_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert functionals.integrate_finite is quadrature.integrate_finite
    assert np.isfinite(quadrature.integrate_finite(np.cos, 0.0, 1.0).value)
