import math

import numpy as np
import pytest

from bridgepot import functionals, kernels, potentials
from bridgepot.functionals import newton_potential
from bridgepot.growth import Verdict, growth_diagnosis, shell_sum
from bridgepot.kernels import directional_shell_integral, kappa, newton_constant
from bridgepot.potentials import CounterexampleA, RadialPower, lp_halfd_norm
from bridgepot.quadrature import Estimate, Status
from bridgepot.special import sphere_area

CEX = CounterexampleA()
D = 4


def _recording(monkeypatch, module):
    """Record every diagnosis the module's growth ladders produce."""
    seen = []

    def recorder(truncated, radii, *args, **kwargs):
        diag = growth_diagnosis(truncated, radii, *args, **kwargs)
        seen.append(diag)
        return diag

    monkeypatch.setattr(module, "growth_diagnosis", recorder)
    return seen


def _assert_ladder_matches(diag, one_shot):
    for radius, value in zip(diag.radii, diag.values):
        assert value == pytest.approx(one_shot(radius), rel=1e-6), radius


def test_growth_diagnosis_calls_once_per_radius_in_order():
    calls = []

    def truncated(*args):
        calls.append(args)
        return math.log(args[0])

    radii = [3.0, 30.0, 300.0, 3000.0, 30000.0]
    growth_diagnosis(truncated, radii)
    assert calls == [(r,) for r in radii]


def test_shell_sum_is_the_running_sum_of_its_shells():
    shells = [
        Estimate(-0.0, 1e-3, Status.CONVERGED),
        Estimate(0.1, 2e-3, Status.MAX_SUBDIVISIONS_REACHED),
        Estimate(0.2, 3e-3, Status.CONVERGED),
        Estimate(0.3, 7e-3, Status.CONVERGED),
    ]
    truncated = shell_sum(shells, [2.0, 5.0, 9.0, 20.0])
    # the first rung is the first shell added to a converged zero: +0.0, not -0.0
    first = truncated(2.0)
    assert first == Estimate(0.0, 1e-3, Status.CONVERGED)
    assert math.copysign(1.0, first.value) == 1.0
    # left to right: (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    third = Estimate(0.1 + 0.2, 1e-3 + 2e-3 + 3e-3, Status.MAX_SUBDIVISIONS_REACHED)
    assert truncated(9.0) == third
    last = truncated(20.0)
    assert last.value == ((0.0 + 0.1) + 0.2) + 0.3
    assert last.error_bound == ((1e-3 + 2e-3) + 3e-3) + 7e-3
    assert last.status is Status.MAX_SUBDIVISIONS_REACHED
    with pytest.raises(ValueError):
        shell_sum(shells, [2.0, 5.0, 9.0])


def test_radial_newton_ladders_of_many_probes_equal_each_alone():
    V = RadialPower(-3.0, 1.0, math.inf, -1.0)
    xs = [np.array([x, 0.0, 0.0, 0.0]) for x in (0.0, 0.5, 2.0, 40.0)]
    together = functionals._newton_potentials(V, xs, D, None)
    alone = [functionals._newton_potentials(V, [x], D, None)[0] for x in xs]
    assert [repr(est) for est in together] == [repr(est) for est in alone]
    assert all(est.converged for est in together)


@pytest.mark.parametrize("x1", [4.0, 50.0, 1e3, 3e5])
def test_axial_newton_ladder_matches_one_shot_truncations(monkeypatch, x1):
    seen = _recording(monkeypatch, functionals)
    x = np.array([x1, 0.0, 0.0, 0.0])
    est = newton_potential(CEX, x, D)
    assert est.converged and 0.1 < est.value < 1.0
    cd = newton_constant(D)
    _assert_ladder_matches(
        seen[0], lambda R: newton_potential(CounterexampleA(z1_max=R), x, D).value / cd
    )


def test_radial_newton_ladder_matches_one_shot_truncations(monkeypatch):
    seen = _recording(monkeypatch, functionals)
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert newton_potential(RadialPower(-3.0, 1.0, math.inf, -1.0), x, D).converged
    scale = newton_constant(D) * sphere_area(D - 1)
    _assert_ladder_matches(
        seen[0],
        lambda R: newton_potential(RadialPower(-3.0, 1.0, R, -1.0), x, D).value / scale,
    )


def test_lp_ladders_match_one_shot_truncations(monkeypatch):
    seen = _recording(monkeypatch, potentials)
    radial = lp_halfd_norm(RadialPower(-3.0, 1.0, math.inf, -1.0), D)
    assert radial.converged
    axial = lp_halfd_norm(CEX, D)
    assert axial.status is Status.DIVERGED and math.isinf(axial.value)
    _assert_ladder_matches(
        seen[0], lambda R: lp_halfd_norm(RadialPower(-3.0, 1.0, R, -1.0), D).value ** 2
    )
    _assert_ladder_matches(
        seen[1], lambda R: lp_halfd_norm(CounterexampleA(z1_max=R), D).value ** 2
    )
    # |V|^2 = z1^-2 over rho <= sqrt(z1): the ladder grows like (8 pi / 3)(sqrt(R) - 2)
    oracle = 8 * math.pi / 3 * (math.sqrt(1e9) - 2)
    assert seen[1].values[-1] == pytest.approx(oracle, rel=1e-6)


def test_lp_finite_axial_reports_its_own_error_bound():
    est = lp_halfd_norm(CounterexampleA(z1_max=1e3), D)
    oracle = (8 * math.pi / 3 * (math.sqrt(1e3) - 2)) ** 0.5
    assert est.converged
    assert abs(est.value - oracle) <= max(est.error_bound, 1e-12 * oracle)
    assert est.error_bound < 1e-8 * oracle


def test_kappa_ladder_verdicts_and_values(monkeypatch):
    seen = _recording(monkeypatch, kernels)
    assert kappa(D, exponent_override=2.6).converged
    assert kappa(D, exponent_override=2.4).status is Status.DIVERGED
    assert [diag.verdict for diag in seen] == [Verdict.CONVERGENT, Verdict.DIVERGENT]
    for diag, beta in zip(seen, (2.6, 2.4)):
        _assert_ladder_matches(
            diag, lambda R: directional_shell_integral(D, beta, r_max=R).value
        )
        # each rung is exactly the running sum of the shells up to it
        total = Estimate(0.0, 0.0, Status.CONVERGED)
        for lo, hi, value in zip((1.0, *diag.radii), diag.radii, diag.values):
            total = total + directional_shell_integral(D, beta, r_max=hi, r_min=lo)
            assert value == total.value


@pytest.mark.parametrize("stalled", [False, True])
def test_growth_verdict_needs_every_rung_converged(stalled):
    # clean power growth sqrt(R); one rung out of budget makes it inconclusive
    radii = [10.0, 100.0, 1000.0, 10000.0]

    def truncated(radius):
        unfinished = stalled and radius == 1000.0
        status = Status.MAX_SUBDIVISIONS_REACHED if unfinished else Status.CONVERGED
        return Estimate(math.sqrt(radius), 1e-9, status)

    diag = growth_diagnosis(truncated, radii)
    assert diag.values == tuple(math.sqrt(r) for r in radii)
    assert diag.verdict is (Verdict.INCONCLUSIVE if stalled else Verdict.DIVERGENT)
