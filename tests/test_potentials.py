import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bridgepot.errors import BridgepotError, DimensionError
from bridgepot.potentials import (
    BallIndicator,
    Constant,
    CounterexampleA,
    Dilate,
    RadialPower,
    Scale,
    SignClass,
    Sum,
    Symmetry,
    _sq_norm,
    axial_profile,
    dilate,
    evaluate,
    evaluate_many,
    lp_halfd_norm,
    parse_potential,
    radial_profile,
    serialize_potential,
)
from bridgepot.quadrature import Status

RNG = np.random.default_rng(7)

BALL = BallIndicator(None, 1.0, -1.0)
CEX = CounterexampleA()


def test_counterexample_values():
    assert evaluate(CEX, [9, 2, 0, 0]) == pytest.approx(-1.0 / 9.0)
    assert evaluate(CEX, [9, 4, 0, 0]) == 0.0
    assert evaluate(CEX, [3.9, 0, 0, 0]) == 0.0  # below the z1 > 4 cut


def test_dilate_evaluation():
    V = Dilate(4.0, BALL)
    assert evaluate(V, [0.4, 0, 0]) == pytest.approx(-4.0)
    assert evaluate(V, [0.6, 0, 0]) == 0.0
    assert V.support_radius() == pytest.approx(0.5)


def test_dilate_identity_and_composition():
    V = BallIndicator(None, 2.0, -1.0)
    z = np.array([1.3, -0.2, 0.4])
    assert evaluate(dilate(V, 1.0), z) == evaluate(V, z)
    lhs = dilate(dilate(V, 2.0), 3.0)
    rhs = dilate(V, 6.0)
    for _ in range(20):
        p = RNG.standard_normal(3)
        assert evaluate(lhs, p) == pytest.approx(evaluate(rhs, p), rel=1e-15)


def test_dilate_rejects_nonpositive_scale():
    with pytest.raises(BridgepotError):
        dilate(BALL, 0.0)


def test_dilation_covariance_pointwise():
    # evaluate(dilate(V, s), z) = s * evaluate(V, sqrt(s) z)
    V = Sum((BALL, RadialPower(-1.0, 0.3, 2.0, -0.5)))
    for _ in range(1000):
        s = float(np.exp(RNG.uniform(-2, 2)))
        z = RNG.standard_normal(3) * 2
        lhs = evaluate(dilate(V, s), z)
        rhs = s * evaluate(V, math.sqrt(s) * z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_sum_linearity():
    V1, V2 = BALL, Constant(0.25)
    S = Sum((V1, V2))
    for _ in range(50):
        z = RNG.standard_normal(3)
        assert evaluate(S, z) == pytest.approx(evaluate(V1, z) + evaluate(V2, z))


def test_sign_metadata_sharp():
    cases = [
        (BALL, SignClass.NONPOSITIVE),
        (Scale(-2.0, BALL), SignClass.NONNEGATIVE),
        (CEX, SignClass.NONPOSITIVE),
        (Sum((BALL, BallIndicator(None, 2.0, 0.5))), SignClass.MIXED),
        (RadialPower(-1.0, 0.1, 5.0, 2.0), SignClass.NONNEGATIVE),
        # a zero-valued term leaves the sum's sign alone
        (Sum((BALL, Scale(0.0, BALL))), SignClass.NONPOSITIVE),
    ]
    for V, sign in cases:
        assert V.sign is sign
        d = V.dimension_hint() or 4
        Z = RNG.standard_normal((10_000, d)) * 3
        vals = evaluate_many(V, Z)
        if sign is SignClass.NONPOSITIVE:
            assert np.all(vals <= 0)
        elif sign is SignClass.NONNEGATIVE:
            assert np.all(vals >= 0)


def test_symmetry_metadata():
    assert BALL.symmetry is Symmetry.RADIAL
    assert CEX.symmetry is Symmetry.AXIAL
    assert BallIndicator((1.0, 0.0, 0.0), 1.0, -1.0).symmetry is Symmetry.AXIAL
    assert BallIndicator((1.0, 2.0, 0.0), 1.0, -1.0).symmetry is Symmetry.GENERAL
    assert Sum((BALL, CEX)).symmetry is Symmetry.AXIAL
    assert Dilate(2.0, CEX).symmetry is Symmetry.AXIAL


def test_radial_power_constructor_guard():
    with pytest.raises(BridgepotError):
        RadialPower(-1.0, 0.0, 1.0, -1.0)  # singular at origin
    RadialPower(0.5, 0.0, 1.0, -1.0)  # nonnegative exponent is fine


def test_json_round_trip_examples():
    sources = [
        '{"type":"ball","center":[0,0,0],"radius":1.0,"amplitude":-1.0}',
        '{"type":"counterexample_a"}',
        '{"type":"dilate","s":4.0,"inner":{"type":"constant","value":-0.5}}',
        '{"type":"sum","terms":[{"type":"ball","radius":1.0,"amplitude":-1.0},'
        '{"type":"constant","value":0.125}]}',
        '{"type":"radial_power","exponent":-1.0,"inner_radius":0.1,'
        '"outer_radius":10.0,"amplitude":-1.0}',
        '{"type":"constant","value":-0.5}',
        '{"type":"scale","factor":-3.0,"inner":{"type":"counterexample_a","z1_max":100.0}}',
        '{"type":"radial_power","exponent":-3.0,"inner_radius":1.0,'
        '"outer_radius":null,"amplitude":-1.0}',
    ]
    for src in sources:
        V = parse_potential(src)
        ser = serialize_potential(V)
        V2 = parse_potential(ser)
        assert serialize_potential(V2) == ser  # canonical form is a fixed point
        assert V2 == V
        # bit-exact float round trip
        assert json.loads(ser) == json.loads(serialize_potential(V2))


def test_parse_rejects_malformed():
    with pytest.raises(BridgepotError):
        parse_potential('{"type": "wormhole"}')
    with pytest.raises(BridgepotError):
        parse_potential('{"type": "ball", "radius": 1.0}')
    with pytest.raises(BridgepotError):
        parse_potential("[1, 2, 3]")


def test_dimension_hint_conflicts():
    V = Sum((BallIndicator((0.0, 0.0, 0.0), 1.0, -1.0), BallIndicator((0.0,) * 4, 1.0, -1.0)))
    with pytest.raises(DimensionError):
        V.dimension_hint()
    with pytest.raises(DimensionError):
        evaluate(BallIndicator((0.0, 0.0, 0.0), 1.0, -1.0), [1.0, 0.0, 0.0, 0.0])


def test_radial_profile_cells_merge_mixed_signs():
    V = Sum((BALL, BallIndicator(None, 2.0, 0.25)))
    prof = radial_profile(V)
    assert prof.constant_cells == ((0.0, 1.0, 0.75), (1.0, 2.0, 0.25))
    r = np.array([0.5, 1.5, 3.0])
    assert np.allclose(prof.abs_value(r), [0.75, 0.25, 0.0])


def test_axial_profile_counterexample():
    prof = axial_profile(CEX)
    assert prof.z1_lo == 4.0 and math.isinf(prof.z1_hi)
    z1 = np.array([9.0, 9.0, 3.0])
    rho = np.array([2.0, 4.0, 0.0])
    assert np.allclose(prof.abs_value(z1, rho), [1 / 9, 0.0, 0.0])


def test_axial_profile_dilated():
    V = Dilate(4.0, CounterexampleA(z1_max=100.0))
    prof = axial_profile(V)
    assert prof.z1_lo == pytest.approx(2.0)  # 4 / sqrt(4)
    assert prof.z1_hi == pytest.approx(50.0)
    assert prof.abs_value(np.array([5.0]), np.array([0.0]))[0] == pytest.approx(4.0 / 10.0)


# ---------------------------------------------------------------------------
# the L^{d/2} norm
# ---------------------------------------------------------------------------


def test_lp_norm_ball_d4():
    est = lp_halfd_norm(BALL, 4)
    assert est.converged
    assert est.value == pytest.approx((math.pi**2 / 2) ** 0.5, rel=1e-12)


def test_lp_norm_zero_and_constant():
    assert lp_halfd_norm(Constant(0.0), 3).value == 0.0
    est = lp_halfd_norm(Constant(-0.5), 3)
    assert math.isinf(est.value) and est.status is Status.DIVERGED


def test_lp_norm_counterexample_diverges():
    est = lp_halfd_norm(CEX, 4)
    assert math.isinf(est.value) and est.status is Status.DIVERGED


def test_lp_norm_radial_closed_form():
    # |V| = r^-1 on [1, 2] at d = 4: integral of r^-2 * r^3 over the annulus
    V = RadialPower(-1.0, 1.0, 2.0, -1.0)
    est = lp_halfd_norm(V, 4)
    area = 2 * math.pi**2
    oracle = (area * (2.0**2 - 1.0) / 2.0) ** 0.5
    assert est.value == pytest.approx(oracle, rel=1e-8)


def test_lp_norm_dilation_invariant():
    # the d/2 norm is exactly dilation invariant
    for V in (BALL, RadialPower(-1.0, 0.5, 3.0, -2.0)):
        base = lp_halfd_norm(V, 4).value
        for s in (0.25, 4.0, 19.0):
            assert lp_halfd_norm(dilate(V, s), 4).value == pytest.approx(base, rel=1e-9)


def test_lp_norm_unbounded_tail_convergent():
    # |V|^{d/2} = r^{-6} at d = 4 integrates at infinity
    V = RadialPower(-3.0, 1.0, math.inf, -1.0)
    est = lp_halfd_norm(V, 4)
    assert math.isfinite(est.value)
    oracle = (2 * math.pi**2 / 2.0) ** 0.5  # (area * int_1^inf r^-6 r^3)^(1/2)
    assert est.value == pytest.approx(oracle, rel=1e-4)


# ---------------------------------------------------------------------------
# value ranges and the bound on V^+
# ---------------------------------------------------------------------------


def test_bound_above_of_a_negated_negative_power():
    # V = r^-1 on [0.2, 2]; this used to recurse until RecursionError
    assert Scale(-1.0, RadialPower(-1.0, 0.2, 2.0, -1.0)).bound_above() == 5.0


def test_bound_above_of_a_negated_negative_ball():
    # V = 2 on the unit ball; this used to return -2
    assert Scale(-2.0, BALL).bound_above() == 2.0


def test_radial_power_at_the_origin():
    # amplitude * |z|^exponent is 0 at z = 0 for exponent > 0 and the amplitude at 0
    for exponent, want in ((2.0, 0.0), (0.0, 3.0)):
        V = RadialPower(exponent, 0.0, 1.0, 3.0)
        assert evaluate(V, [0.0, 0.0, 0.0]) == want
        assert radial_profile(V).abs_value(np.array([0.0]))[0] == want


@st.composite
def radial_powers(draw):
    exponent = draw(st.floats(-2.0, 2.0))
    inner = draw(st.floats(0.05 if exponent < 0 else 0.0, 2.0))
    outer = draw(st.just(math.inf) | st.floats(inner + 0.1, inner + 5.0))
    return RadialPower(exponent, inner, outer, draw(st.floats(-3.0, 3.0)))


def potential_trees(d: int):
    """Random trees of every form; ball centres, when given, have d coordinates."""
    centres = st.none() | st.tuples(*[st.floats(-2.0, 2.0)] * d)
    leaves = st.one_of(
        st.builds(Constant, st.floats(-3.0, 3.0)),
        st.builds(BallIndicator, centres, st.floats(0.1, 3.0), st.floats(-3.0, 3.0)),
        radial_powers(),
        st.builds(CounterexampleA, st.none() | st.floats(4.5, 50.0)),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Dilate, st.floats(0.1, 10.0), kids),
            st.builds(Scale, st.floats(-3.0, 3.0), kids),
            st.builds(lambda terms: Sum(tuple(terms)), st.lists(kids, min_size=1, max_size=3)),
        ),
        max_leaves=6,
    )


@st.composite
def trees_and_points(draw):
    d = draw(st.sampled_from([3, 4]))
    coord = st.floats(-3.0, 3.0) | st.floats(-60.0, 60.0)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=20))
    return draw(potential_trees(d)), np.array(points)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees_and_points())
def test_bound_above_bounds_every_value(case):
    V, Z = case
    lo, hi = V.value_range()
    vals = evaluate_many(V, Z)
    bound = V.bound_above()
    assert bound == max(hi, 0.0)
    # slack for the rounding of r**exponent, which numpy and libm may round apart
    slack = 1e-12 * (1.0 + abs(bound) + abs(lo))
    assert max(vals.max(), 0.0) <= bound + slack
    assert vals.min() >= lo - slack
    if V.sign is SignClass.NONPOSITIVE:
        assert vals.max() <= 0.0
    elif V.sign is SignClass.NONNEGATIVE:
        assert vals.min() >= 0.0


@st.composite
def radial_trees_and_radii(draw):
    d = draw(st.sampled_from([3, 4]))
    V = draw(potential_trees(d))
    assume(V.symmetry is Symmetry.RADIAL)
    r = draw(st.lists(st.floats(0.0, 3.0) | st.floats(0.0, 60.0), min_size=1, max_size=20))
    return V, d, np.array(r)


_TINY = 3.7933226102043905e-160  # its square is subnormal


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(radial_trees_and_radii())
@example((Scale(_TINY, Sum((Constant(_TINY), Constant(_TINY)))), 3, np.array([1.0])))
def test_radial_cells_describe_the_values(case):
    # the cells amp * r^exponent on [lo, hi] add up to V(r e1) off the cell edges
    V, d, r = case
    cells = radial_profile(V).cells
    edges = np.array([e for c in cells for e in c[:2] if math.isfinite(e)])
    if edges.size:
        r = r[np.min(np.abs(r[:, None] - edges[None, :]), axis=1) > 1e-9 * (1.0 + r)]
    assume(r.size)
    Z = np.zeros((r.size, d))
    Z[:, 0] = r
    want = evaluate_many(V, Z)
    terms = np.zeros((len(cells), r.size))
    for k, (lo, hi, amp, expo) in enumerate(cells):
        inside = (r >= lo) & (r <= hi)
        terms[k, inside] = amp * r[inside] ** expo
    # relative to at least the smallest normal float: below it (subnormal
    # products of tiny amplitudes) rounding is absolute, not relative
    scale = np.maximum(np.abs(terms).sum(axis=0), np.finfo(float).tiny)
    assert np.all(np.abs(terms.sum(axis=0) - want) <= 1e-12 * scale)


@st.composite
def matrices_and_centres(draw):
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # magnitudes over ten decades, so that the order of the additions shows
    Z = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-5, 5, (n, k))
    center = tuple(rng.standard_normal(k)) if draw(st.booleans()) else None
    return np.asarray(Z, order=draw(st.sampled_from("CF"))), center


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices_and_centres())
def test_sq_norm_has_the_bits_of_the_numpy_reductions(case):
    # column by column up to 7 columns, np.sum from 8 on: either way the bits
    # of the reductions it replaces, in C and F order, with and without a centre
    Z, center = case
    D = Z if center is None else Z - np.asarray(center)
    got = _sq_norm(Z, center)
    assert np.array_equal(got.view(np.int64), np.sum(D * D, axis=1).view(np.int64))
    if center is not None:
        assert np.array_equal(got.view(np.int64), np.sum((Z - np.asarray(center)) ** 2, axis=1).view(np.int64))
    norm = np.linalg.norm(D, axis=1)
    assert np.array_equal(np.sqrt(got).view(np.int64), norm.view(np.int64))


# ---------------------------------------------------------------------------
# exact axial cross-sections
# ---------------------------------------------------------------------------


@st.composite
def axial_trees_and_points(draw):
    d = draw(st.sampled_from([3, 4]))
    V = draw(potential_trees(d))
    assume(V.symmetry is not Symmetry.GENERAL)
    n = draw(st.integers(1, 20))
    z1 = draw(st.lists(st.floats(-3.0, 3.0) | st.floats(-60.0, 60.0), min_size=n, max_size=n))
    rho = draw(st.lists(st.floats(0.0, 3.0) | st.floats(0.0, 60.0), min_size=n, max_size=n))
    return V, d, np.array(z1), np.array(rho)


_DILATED_POWER = (
    Dilate(2.0, RadialPower(1.5, 0.0, 3.0, -1.0)),
    3,
    np.linspace(-2.5, 2.5, 21),
    np.linspace(0.05, 1.3, 21),
)


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(axial_trees_and_points())
@example(_DILATED_POWER)
def test_axial_abs_value_is_the_potentials_own(case):
    # the axial route reads |V| from V's own values at z1 e1 + rho e2, so a
    # dilated radial power rounds r ** p as evaluate_many does, bit for bit
    V, d, z1, rho = case
    Z = np.zeros((z1.size, d))
    Z[:, 0], Z[:, 1] = z1, rho
    got = axial_profile(V).abs_value(z1, rho)
    assert got.tobytes() == np.abs(evaluate_many(V, Z)).tobytes()


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(axial_trees_and_points())
def test_axial_abs_value_vanishes_past_the_caps(case):
    # the caps and the z1 range are data beside the values: |V| is 0 above
    # rho_cap(z1) and outside [z1_lo, z1_hi], away from rounding at the edges
    V, _, z1, rho = case
    prof = axial_profile(V)
    vals = prof.abs_value(z1, rho)
    margin = 1e-9 * (1.0 + np.abs(z1) + rho)
    above = rho > prof.rho_cap(z1) + margin
    outside = (z1 < prof.z1_lo - margin) | (z1 > prof.z1_hi + margin)
    assert np.all(vals[above | outside] == 0.0)


def test_axial_rho_cap_is_the_chord_of_an_off_centre_ball():
    prof = axial_profile(BallIndicator((3.0, 0.0, 0.0), 0.5, -1.0))
    z1 = np.array([2.4, 2.5, 2.8, 3.0, 3.5, 3.6])
    assert np.allclose(prof.rho_cap(z1), np.sqrt(np.maximum(0.25 - (z1 - 3.0) ** 2, 0.0)))


def test_lp_norm_of_two_balls_on_the_axis():
    # the second ball is off the origin: the axial route integrates its chord
    V = Sum((BallIndicator((0.0,) * 4, 1.0, -1.0), BallIndicator((3.0, 0.0, 0.0, 0.0), 0.5, -1.0)))
    est = lp_halfd_norm(V, 4)
    closed = (math.pi**2 / 2.0 * (1.0 + 0.5**4)) ** 0.5  # (|B_1| + |B_1/2|)^(2/d) at d = 4
    assert est.converged
    assert est.value == pytest.approx(closed, rel=1e-9)


def test_lp_norm_of_overlapping_balls_on_the_axis():
    # the small ball sits inside the large one: |V| jumps at its chord in rho
    V = Sum((BallIndicator((0.0,) * 4, 2.0, -1.0), BallIndicator((0.5, 0.0, 0.0, 0.0), 0.5, -1.0)))
    est = lp_halfd_norm(V, 4)
    # |V|^2 is 1 on the large ball and 4 on the small one: |B_2| + 3 |B_1/2|
    closed = (math.pi**2 / 2.0 * (16.0 + 3.0 / 16.0)) ** 0.5
    assert est.converged
    assert est.value == pytest.approx(closed, rel=1e-9)
