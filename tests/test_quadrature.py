import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as spi

import reference_engine
from bridgepot import quadrature
from bridgepot.quadrature import (
    Estimate,
    QuadratureSpec,
    Status,
    integrate_2d,
    integrate_finite,
    integrate_half_line,
    QuadratureError,
)


def test_spec_validation():
    with pytest.raises(QuadratureError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(QuadratureError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(QuadratureError):
        QuadratureSpec(max_subdivisions=0)


def test_estimate_invariants():
    with pytest.raises(QuadratureError):
        Estimate(math.inf, 1.0, Status.CONVERGED)
    e = Estimate(2.0, 0.1, Status.CONVERGED) + Estimate(3.0, 0.2, Status.MAX_SUBDIVISIONS_REACHED)
    assert e.value == 5.0 and e.error_bound == pytest.approx(0.3)
    assert e.status is Status.MAX_SUBDIVISIONS_REACHED


def test_polynomial_exact():
    est = integrate_finite(lambda x: 3 * x**2, 0.0, 2.0)
    assert est.converged
    assert est.value == pytest.approx(8.0, rel=1e-12)


def test_converged_error_contract():
    spec = QuadratureSpec(rel_tol=1e-10)
    est = integrate_finite(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 10.0, spec)
    assert est.converged
    assert est.error_bound <= max(spec.abs_tol, spec.rel_tol * abs(est.value))


def test_narrow_bump_with_breakpoint():
    # a spike of width 1e-5 at an interior point is caught when seeded
    c = 0.3141592
    f = lambda x: np.exp(-((x - c) / 1e-5) ** 2)
    est = integrate_finite(f, 0.0, 1.0, breakpoints=[c])
    assert est.value == pytest.approx(1e-5 * math.sqrt(math.pi), rel=1e-8)


def test_half_line_log_map():
    spec = QuadratureSpec(rel_tol=1e-10)
    est = integrate_half_line(lambda u: np.exp(-u), spec, center=1.0)
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_half_line_distant_peak():
    # mass sits 8 orders of magnitude away from a naive center
    mu = 1e8
    f = lambda u: np.exp(-(((u - mu) / (0.01 * mu)) ** 2))
    est = integrate_half_line(f, center=mu)
    assert est.value == pytest.approx(0.01 * mu * math.sqrt(math.pi), rel=1e-7)


def test_half_line_endpoint_power():
    # integrable endpoint singularity u^{-1/2} e^{-u}
    est = integrate_half_line(
        lambda u: np.exp(-u) / np.sqrt(u), QuadratureSpec(rel_tol=1e-10), center=0.5
    )
    assert est.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_max_subdivisions_status():
    spec = QuadratureSpec(rel_tol=1e-14, max_subdivisions=3)
    est = integrate_finite(lambda x: np.sqrt(np.abs(np.sin(40 * x))), 0.0, 3.0, spec)
    assert est.status is Status.MAX_SUBDIVISIONS_REACHED


def test_2d_gaussian():
    est = integrate_2d(lambda x, y: np.exp(-x * x - y * y), (-8, 8), (-8, 8))
    assert est.value == pytest.approx(math.pi, rel=1e-6)


def test_2d_against_scipy():
    f = lambda x, y: np.cos(x) * np.exp(-y) * (1 + x * y) ** 2
    est = integrate_2d(f, (0, 2), (0, 3), QuadratureSpec(rel_tol=1e-9, max_subdivisions=4000))
    ref, _ = spi.dblquad(lambda y, x: f(x, y), 0, 2, 0, 3, epsabs=1e-12)
    assert est.value == pytest.approx(ref, rel=1e-8)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


# --------------------------------------------------------------------------
# Property tests of the adaptive engine against scipy.integrate
# --------------------------------------------------------------------------

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _contract_holds(est, spec):
    """CONVERGED promises error_bound <= max(abs_tol, rel_tol * |value|)."""
    return not est.converged or est.error_bound <= max(spec.abs_tol, spec.rel_tol * abs(est.value))


@st.composite
def integrands_1d(draw):
    """A smooth oscillating exponential on [a, b], plus |x - k|^p kinked at a random k."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 10.0))
    amp, rate = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))
    freq, phase = draw(st.floats(0.0, 6.0)), draw(st.floats(0.0, 3.0))
    kink = draw(st.none() | st.floats(a, b))
    power = draw(st.sampled_from([0.5, 1.0, 1.5]))

    def f(x):
        y = amp * np.exp(rate * x) * np.cos(freq * x + phase)
        return y if kink is None else y + np.abs(x - kink) ** power

    return f, a, b, kink


@st.composite
def integrands_2d(draw):
    """A smooth 2D exponential wave on a rectangle, plus a kink |x - k| along y."""
    x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    xspan = (x0, x0 + draw(st.floats(0.2, 3.0)))
    yspan = (y0, y0 + draw(st.floats(0.2, 3.0)))
    amp, rx, ry = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    fx, fy = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
    kink = draw(st.none() | st.floats(*xspan))

    def f2(x, y):
        out = amp * np.exp(rx * x + ry * y) * np.cos(fx * x + fy * y)
        return out if kink is None else out + np.abs(x - kink) * (1.0 + y * y)

    return f2, xspan, yspan, kink


@PROPERTY
@given(integrands_1d())
def test_finite_matches_scipy_quad(case):
    f, a, b, kink = case
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    est = integrate_finite(f, a, b, spec)
    ref, _ = spi.quad(f, a, b, points=None if kink is None else [kink],
                      epsabs=1e-14, epsrel=1e-12, limit=200)
    assert est.converged and _contract_holds(est, spec)
    assert abs(est.value - ref) <= 1e-9 * (1.0 + abs(ref))


@PROPERTY
@given(integrands_2d())
def test_2d_matches_scipy_dblquad(case):
    f2, (xa, xb), (ya, yb), _ = case
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=4000)
    est = integrate_2d(f2, (xa, xb), (ya, yb), spec)
    ref, _ = spi.dblquad(lambda y, x: f2(x, y), xa, xb, ya, yb, epsabs=1e-12, epsrel=1e-11)
    assert est.converged and _contract_holds(est, spec)
    assert abs(est.value - ref) <= 1e-7 * (1.0 + abs(ref))


@PROPERTY
@given(
    integrands_1d(),
    st.floats(1e-12, 1e-3),
    st.sampled_from([0.0, 1e-9]),
    st.integers(1, 200),
    st.floats(-0.5, 3.0),
)
def test_converged_implies_error_within_tolerance(case, rel_tol, abs_tol, budget, power):
    f, a, b, _ = case
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=abs_tol, max_subdivisions=budget)
    assert _contract_holds(integrate_finite(f, a, b, spec), spec)
    tail = lambda u: u**power * np.exp(-u) * (1.0 + np.abs(np.sin(3.0 * u)))
    assert _contract_holds(integrate_half_line(tail, spec, center=1.0), spec)
    f2 = lambda x, y: f(x) * np.cos(y)
    assert _contract_holds(integrate_2d(f2, (a, b), (0.0, 2.0), spec), spec)


@PROPERTY
@given(st.floats(1.0, 30.0), st.floats(1e-14, 1e-9), st.integers(1, 2000))
def test_max_subdivisions_reached_only_with_budget_spent(freq, rel_tol, budget):
    # every split evaluates two new boxes, so an integral that gives up has
    # evaluated its one initial box plus two per unit of budget
    spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=budget)
    calls = {"points": 0}

    def counted(f):
        def g(*xs):
            calls["points"] += xs[0].size
            return f(*xs)
        return g

    cusps = lambda x: np.sqrt(np.abs(np.sin(freq * x)))
    est = integrate_finite(counted(cusps), 0.0, 3.0, spec)
    if est.status is Status.MAX_SUBDIVISIONS_REACHED:
        assert calls["points"] == 15 * (1 + 2 * budget)
    calls["points"] = 0
    est = integrate_2d(counted(lambda x, y: cusps(x) * np.cos(y)), (0.0, 3.0), (0.0, 1.0), spec)
    if est.status is Status.MAX_SUBDIVISIONS_REACHED:
        assert calls["points"] == 225 * (1 + 2 * budget)


def test_many_small_panel_errors_do_not_stop_refinement():
    # 200 breakpoints make ~600 panels whose errors are each under tol/4
    # while their sum is above tol; refinement must go on to convergence
    f = lambda x: np.sqrt(np.abs(np.sin(7.0 * x)))
    spec = QuadratureSpec(rel_tol=1e-12, max_subdivisions=100000)
    est = integrate_finite(f, 0.0, 10.0, spec, breakpoints=np.linspace(0.0, 10.0, 202)[1:-1])
    assert est.converged and _contract_holds(est, spec)
    ref, _ = spi.quad(f, 0.0, 10.0, points=np.arange(1, 23) * math.pi / 7.0,
                      epsabs=0.0, epsrel=1e-13, limit=500)
    assert est.value == pytest.approx(ref, rel=1e-11)


# --------------------------------------------------------------------------
# Many integrals in lockstep: integrate_finite over sequences of intervals
# --------------------------------------------------------------------------


@st.composite
def families(draw):
    """Integrals of cos(freq_i x) + w_i sqrt|x - kink_i| over [a_i, b_i].

    Some intervals are empty, some kinks are seeded as breakpoints and some
    not, and the budget is small enough that some integrals converge and
    some run out of it.
    """
    n = draw(st.integers(1, 40))
    a, b, freq, weight, kink, breaks = [], [], [], [], [], []
    for _ in range(n):
        lo = draw(st.floats(-3.0, 3.0))
        hi = lo + draw(st.just(0.0) | st.floats(0.1, 6.0))
        k = draw(st.floats(lo, hi))
        a.append(lo)
        b.append(hi)
        freq.append(draw(st.floats(0.0, 5.0)))
        weight.append(draw(st.sampled_from([0.0, 1.0])))
        kink.append(k)
        extra = draw(st.lists(st.floats(lo, hi), max_size=3))
        breaks.append(([k] if draw(st.booleans()) else []) + extra)
    spec = QuadratureSpec(rel_tol=draw(st.floats(1e-12, 1e-6)), max_subdivisions=draw(st.integers(1, 30)))
    freq, weight, kink = np.array(freq), np.array(weight), np.array(kink)

    def f(owner, x):
        return np.cos(freq[owner] * x) + weight[owner] * np.sqrt(np.abs(x - kink[owner]))

    return f, a, b, breaks, spec


@PROPERTY
@given(families())
def test_lockstep_equals_each_integral_alone(case):
    f, a, b, breaks, spec = case
    together = integrate_finite(f, a, b, spec, breaks)
    alone = [
        integrate_finite(lambda x, i=i: f(np.full(x.shape, i), x), a[i], b[i], spec, breaks[i])
        for i in range(len(a))
    ]
    assert together == alone


def test_lockstep_calls_take_at_most_the_box_cap_unless_one_integral():
    cap = quadrature._CALL_BOXES * 15  # nodes per 1D call
    n = 60
    kink = np.linspace(0.05, 0.95, n)
    weight = np.arange(n) % 2
    calls = []

    def f(owner, x):
        calls.append((x.size, set(owner.tolist())))
        return np.cos(3.0 * x) + weight[owner] * np.sqrt(np.abs(x - kink[owner]))

    breaks = [()] * n
    breaks[7] = np.linspace(0.0, 1.0, 202)[1:-1]  # ~600 initial panels in one batch
    spec = QuadratureSpec(rel_tol=1e-10, max_subdivisions=10)
    ests = integrate_finite(f, [0.0] * n, [1.0] * n, spec, breaks)
    assert all(size <= cap or len(owners) == 1 for size, owners in calls)
    assert any(size > cap for size, _ in calls)
    assert any(len(owners) > 1 for _, owners in calls)
    assert {e.status for e in ests} == {Status.CONVERGED, Status.MAX_SUBDIVISIONS_REACHED}


@st.composite
def families_2d(draw):
    """Integrals of a bump at c_i plus w_i |x - k_i| over [a_i, b_i] x [0, 2].

    Some x-spans are empty, some kinks are seeded as x-breakpoints and some
    not, and the budget is small enough that some integrals converge and
    some run out of it.
    """
    n = draw(st.integers(1, 12))
    spans, centre, width, weight, kink, breaks = [], [], [], [], [], []
    for _ in range(n):
        lo = draw(st.floats(-2.0, 2.0))
        hi = lo + draw(st.just(0.0) | st.floats(0.1, 3.0))
        k = draw(st.floats(lo, hi))
        spans.append((lo, hi))
        centre.append(draw(st.floats(lo, hi)))
        width.append(draw(st.floats(0.05, 1.0)))
        weight.append(draw(st.sampled_from([0.0, 1.0])))
        kink.append(k)
        breaks.append([k] if draw(st.booleans()) else [])
    spec = QuadratureSpec(rel_tol=draw(st.floats(1e-10, 1e-5)), max_subdivisions=draw(st.integers(1, 30)))
    centre, width, weight, kink = map(np.array, (centre, width, weight, kink))

    def f2(owner, x, y):
        r2 = (x - centre[owner]) ** 2 + (y - 1.0) ** 2
        return np.exp(-r2 / width[owner] ** 2) + weight[owner] * np.abs(x - kink[owner]) * (1.0 + y)

    return f2, spans, breaks, spec


@PROPERTY
@given(families_2d())
def test_2d_lockstep_equals_each_integral_alone(case):
    f2, spans, breaks, spec = case
    together = integrate_2d(f2, spans, (0.0, 2.0), spec, breaks, [0.5])
    alone = [
        integrate_2d(lambda x, y, i=i: f2(np.full(x.shape, i), x, y), span, (0.0, 2.0), spec, xbreaks, [0.5])
        for i, (span, xbreaks) in enumerate(zip(spans, breaks))
    ]
    assert list(map(repr, together)) == list(map(repr, alone))


def test_2d_box_rule_does_not_depend_on_the_batch():
    # value, error, split axis and |f| mass of a box are the same bits alone
    # as in any batch; the split axis once moved with the batch size
    rng = np.random.default_rng(5)
    lo = rng.uniform(-2.0, 2.0, (600, 2))
    rects = np.column_stack([lo[:, 0], lo[:, 0] + rng.uniform(1e-3, 2.0, 600),
                             lo[:, 1], lo[:, 1] + rng.uniform(1e-3, 2.0, 600)])
    kink = rng.uniform(-2.0, 2.0, 600)

    def f2(owner, x, y):
        return np.cos(3.0 * x * y) + np.abs(x - kink[owner]) * np.exp(-y)

    def rule(rows):
        return [np.asarray(a).view(np.int64) for a in quadrature._rect_eval(f2, rects[rows], rows)]

    alone = [rule(np.array([i])) for i in range(600)]
    start = 0
    while start < 600:
        rows = np.arange(start, min(600, start + int(rng.integers(1, 40))))
        batch = rule(rows)
        for j, i in enumerate(rows):
            assert [b[j] for b in batch] == [a[0] for a in alone[i]]
        start = rows[-1] + 1


def test_2d_lockstep_calls_take_at_most_16_boxes_unless_one_integral():
    n = 30
    kink = np.linspace(0.05, 0.95, n)
    weight = np.arange(n) % 2
    calls = []

    def f2(owner, x, y):
        calls.append((x.size, set(owner.tolist())))
        return np.cos(3.0 * x) * (1.0 + y) + weight[owner] * np.sqrt(np.abs(x - kink[owner]))

    breaks = [()] * n
    breaks[7] = np.linspace(0.0, 1.0, 22)[1:-1]  # 42 initial boxes in one batch
    spec = QuadratureSpec(rel_tol=1e-8, max_subdivisions=10)
    ests = integrate_2d(f2, [(0.0, 1.0)] * n, (0.0, 1.0), spec, breaks, [0.5])
    assert all(size <= 16 * 225 or len(owners) == 1 for size, owners in calls)
    assert any(size > 16 * 225 for size, _ in calls)
    assert any(len(owners) > 1 for _, owners in calls)
    assert {e.status for e in ests} == {Status.CONVERGED, Status.MAX_SUBDIVISIONS_REACHED}


# --------------------------------------------------------------------------
# The engine against its generator form (reference_engine.py), bit for bit
# --------------------------------------------------------------------------

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _traced(f):
    """f, and the owners and nodes of each of its calls."""
    calls = []

    def traced(owner, *x):
        calls.append([owner.tolist(), *(v.tolist() for v in x)])
        return f(owner, *x)

    return traced, calls


@st.composite
def rare_families(draw):
    """Lockstep 1D integrals that also reach the stop rule's rare branches.

    Kind 0 is cos(freq x) + sqrt|x - k|.  Kind 1 is sqrt(x - k) right of
    its kink and 0 left of it, with breakpoints in the zero part, so whole
    panels have zero error.  Kind 2 is sqrt|x - k| on an interval 1e-15 to
    1e-13 of its position wide, so boxes soon become too short to bisect
    and retire.  Kind 3 is a constant: a box's error is then the roundoff
    floor 50 eps |f| width, the same bits for boxes of the same width, so
    halves of one box tie and the serial order decides which is bisected.
    Half of the families take a tolerance under that floor, where
    take-the-worst runs.
    """
    n = draw(st.integers(1, 40))
    a, b, kind, freq, kink, breaks = [], [], [], [], [], []
    for _ in range(n):
        kind.append(draw(st.sampled_from([0, 1, 2, 3])))
        if kind[-1] == 2:
            lo = draw(st.floats(0.5, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
            hi = lo + abs(lo) * 10.0 ** draw(st.floats(-15.0, -13.0))
        else:
            lo = draw(st.floats(-3.0, 3.0))
            hi = lo + draw(st.just(0.0) | st.floats(0.1, 6.0))
        k = draw(st.floats(lo, hi))
        a.append(lo)
        b.append(hi)
        freq.append(draw(st.floats(0.0, 5.0)))
        kink.append(k)
        zero_part = st.floats(lo, k) if kind[-1] == 1 else st.floats(lo, hi)
        breaks.append(([k] if draw(st.booleans()) else []) + draw(st.lists(zero_part, max_size=6)))
    rel_tol = 10.0 ** draw(st.floats(-12.0, -6.0) | st.floats(-17.0, -14.0))
    spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=draw(st.integers(1, 30)))
    kind, freq, kink = np.array(kind), np.array(freq), np.array(kink)

    def f(owner, x):
        k, dx = kind[owner], x - kink[owner]
        wave, root = np.cos(freq[owner] * x), np.sqrt(np.abs(dx))
        out = np.where((k == 1) & (dx < 0.0), 0.0, root)
        return np.where(k == 0, wave + root, np.where(k == 3, 1.0 + freq[owner], out))

    return f, a, b, breaks, spec


@ORACLE
@given(rare_families())
def test_engine_equals_its_generator_form(case):
    f, a, b, breaks, spec = case
    new, new_calls = _traced(f)
    got = integrate_finite(new, a, b, spec, breaks)
    old, old_calls = _traced(f)
    jobs = {i: quadrature._initial_panels(a[i], b[i], breaks[i]) for i in range(len(a)) if b[i] > a[i]}
    found = reference_engine._drive(quadrature._panel_eval, old, jobs, spec, quadrature._CALL_BOXES)
    want = [found.get(i, Estimate(0.0, 0.0, Status.CONVERGED)) for i in range(len(a))]
    assert list(map(repr, got)) == list(map(repr, want))
    assert new_calls == old_calls


@st.composite
def rare_families_2d(draw):
    """families_2d, plus constant integrands (boxes of one size tie, as in
    rare_families), x-spans 1e-15 to 1e-13 of their position wide (boxes
    that retire), and half of the tolerances under the roundoff floor."""
    f2, spans, breaks, spec = draw(families_2d())
    kind = np.array([draw(st.sampled_from([0, 1, 2])) for _ in spans])
    spans = [(lo, lo + abs(lo) * 10.0 ** draw(st.floats(-15.0, -13.0))) if k == 2 and lo else (lo, hi)
             for k, (lo, hi) in zip(kind, spans)]
    if draw(st.booleans()):
        spec = QuadratureSpec(rel_tol=10.0 ** draw(st.floats(-17.0, -14.0)), max_subdivisions=spec.max_subdivisions)

    def g2(owner, x, y):
        return np.where(kind[owner] == 1, 2.0, f2(owner, x, y))

    return g2, spans, breaks, spec


@ORACLE
@given(rare_families_2d())
def test_2d_engine_equals_its_generator_form(case):
    f2, spans, breaks, spec = case
    new, new_calls = _traced(f2)
    got = integrate_2d(new, spans, (0.0, 2.0), spec, breaks, [0.5])
    old, old_calls = _traced(f2)
    jobs = {}
    for i, ((lo, hi), xbreaks) in enumerate(zip(spans, breaks)):
        xs = sorted({lo, hi, *(p for p in xbreaks if lo < p < hi)})
        if hi > lo:
            jobs[i] = [(x0, x1, y0, y1) for x0, x1 in zip(xs[:-1], xs[1:]) for y0, y1 in ((0.0, 0.5), (0.5, 2.0))]
    found = reference_engine._drive(quadrature._rect_eval, old, jobs, spec, quadrature._CALL_RECTS)
    want = [found.get(i, Estimate(0.0, 0.0, Status.CONVERGED)) for i in range(len(spans))]
    assert list(map(repr, got)) == list(map(repr, want))
    assert new_calls == old_calls


def test_lockstep_rejects_a_reversed_interval():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda owner, x: x, [0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("xspan, yspan", [((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0))])
def test_2d_rejects_a_reversed_span(xspan, yspan):
    # both once integrated the sorted rectangle and returned +1, not -1
    with pytest.raises(QuadratureError):
        integrate_2d(lambda x, y: np.ones_like(x), xspan, yspan)
    with pytest.raises(QuadratureError):
        integrate_2d(lambda owner, x, y: np.ones_like(x), [(0.0, 1.0), xspan], yspan)


def test_2d_empty_rectangles_give_zero():
    zero = Estimate(0.0, 0.0, Status.CONVERGED)
    ones = lambda owner, x, y: np.ones_like(x)
    assert integrate_2d(ones, [(0.0, 1.0), (2.0, 2.0)], (0.0, 1.0))[1] == zero
    assert integrate_2d(ones, [(0.0, 1.0)], (1.0, 1.0)) == [zero]
    assert integrate_2d(lambda x, y: x, (0.0, 0.0), (0.0, 1.0)) == zero


def test_integrands_receive_float64_nodes_and_integer_owners():
    # the contract the package's integrands rely on instead of converting
    # their arguments; the endpoints and the center are ints on purpose
    nodes, owners = [], []

    def f(x):
        nodes.append(x)
        return np.exp(-x * x)

    def f_many(owner, x):
        owners.append((owner, x))
        nodes.append(x)
        return (owner + 1) * np.exp(-x * x)

    def f2(x, y):
        nodes.extend((x, y))
        assert x.shape == y.shape
        return np.exp(-x * x - y * y)

    integrate_finite(f, 0, 3, breakpoints=[1])
    integrate_finite(f_many, [0, 1, 2], [1, 3, 5])
    integrate_half_line(f, center=1, must_cover=(1e-3, 10))
    assert any(x.size == 3 for x in nodes)  # the window scan's probes
    integrate_2d(f2, (0, 2), (-1, 1), xbreaks=[1])
    assert all(type(x) is np.ndarray and x.dtype == np.float64 for x in nodes)
    assert all(o.dtype.kind == "i" and o.shape == x.shape for o, x in owners)
    assert set(np.concatenate([o for o, _ in owners]).tolist()) == {0, 1, 2}
