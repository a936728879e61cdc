import math
import tracemalloc

import numpy as np
import pytest

from bridgepot.errors import BridgepotError
import bridgepot.feynman_kac as fk
from bridgepot.feynman_kac import McConfig, g_ratio_mc, s_mc, sample_bridge
from bridgepot.functionals import BridgeSpec, s_functional, s_norm
from bridgepot.potentials import BallIndicator, Constant, RadialPower, Scale, Sum, evaluate_many
from bridgepot.search import SearchStrategy

SPEC = BridgeSpec(1.0, (0, 0, 0), (1, 0, 0))
BALL = BallIndicator(None, 1.0, -1.0)
SMALL_POS = BallIndicator(None, 0.5, 0.5)


def _path_generator(seed: int, index: int) -> np.random.Generator:
    """The oracle stream of path ``index``: a fresh Philox keyed by (seed, index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(0, 8, 0)
    with pytest.raises(ValueError):
        McConfig(10, 1, 0)


def test_bridge_endpoints_pinned():
    path = sample_bridge(SPEC, 32, _path_generator(1, 0))
    assert np.array_equal(path[0], [0, 0, 0])
    assert np.array_equal(path[-1], [1, 0, 0])


def test_bridge_midpoint_moments():
    # n paths of 8 steps in one pass of the recurrence sample_bridge runs
    n = 100_000
    paths = _path_generator(3, 0).standard_normal((7, n, 3))
    fk._advance(np.tile(SPEC.x, (n, 1)), paths, 1, SPEC, 8)
    mids = paths[3]
    # mean (x + y)/2 within 4 standard errors
    se = math.sqrt(0.5 / n)
    assert np.all(np.abs(mids.mean(axis=0) - [0.5, 0, 0]) <= 4 * se)
    # per-coordinate variance t/2 within 5%
    assert np.all(np.abs(mids.var(axis=0) - 0.5) <= 0.025)


def test_constant_potential_deterministic():
    mc = McConfig(200, 16, 0)
    spec = BridgeSpec(2.0, (0, 0, 0), (0, 0, 0))
    ratio = g_ratio_mc(Constant(-0.7), spec, mc)
    assert ratio.mean == pytest.approx(math.exp(-1.4), rel=1e-14)
    assert ratio.std_error == pytest.approx(0.0, abs=1e-15)
    occ = s_mc(Constant(-0.7), spec, mc)
    assert occ.mean == pytest.approx(1.4, rel=1e-14)
    assert occ.std_error == pytest.approx(0.0, abs=1e-15)
    assert s_mc(Constant(0.0), spec, mc).mean == 0.0
    zero = g_ratio_mc(Constant(0.0), spec, mc)
    assert zero.mean == 1.0 and zero.std_error == 0.0


def test_reproducibility_bit_identical():
    mc = McConfig(4000, 64, 77)
    a = s_mc(BALL, SPEC, mc)
    b = s_mc(BALL, SPEC, mc)
    assert a == b
    r1 = g_ratio_mc(BALL, SPEC, mc)
    r2 = g_ratio_mc(BALL, SPEC, mc)
    assert r1 == r2


def test_chunking_invariance(monkeypatch):
    # per-path keying means the chunk size cannot affect results: 70 steps
    # make two full blocks and a partial one, so the reused block buffer is
    # refilled, and 1500 paths leave a short last chunk at either size
    spec = BridgeSpec(0.7, (0.2, -0.1, 0.3), (0.9, 0.4, -0.2))
    mc = McConfig(1500, 70, 5)

    def run():
        single = (s_mc(BALL, spec, mc), g_ratio_mc(BALL, spec, mc))
        shared = fk._estimates([(BALL, False), (SMALL_POS, True)], spec, mc)
        return [repr(e) for e in (*single, *shared)]

    base = run()
    monkeypatch.setattr(fk, "_CHUNK", 17)
    assert run() == base


def test_pass_peak_memory():
    # one call holds the chunk's noise and small per-block buffers, not a
    # fresh set per chunk or block; tracemalloc counts numpy's buffers, and
    # unlike the process's peak RSS it does not move with the allocator
    mc = McConfig(4096, 128, 7)
    g_ratio_mc(BALL, SPEC, mc)  # warm-up
    tracemalloc.start()
    try:
        g_ratio_mc(BALL, SPEC, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise = fk._CHUNK * (mc.steps - 1) * 3 * 8
    assert peak <= noise + 1.25 * 2**20


def test_s_mc_matches_quadrature():
    quad = s_functional(BALL, SPEC)
    mc = s_mc(BALL, SPEC, McConfig(40_000, 256, 11))
    assert abs(mc.mean - quad.value) <= 3.0 * mc.std_error + 2.0 / 256


def test_step_doubling_stability():
    a = s_mc(BALL, SPEC, McConfig(20_000, 128, 9))
    b = s_mc(BALL, SPEC, McConfig(20_000, 256, 9))
    assert abs(a.mean - b.mean) <= 3.0 * (a.std_error + b.std_error)


def test_ratio_upper_bound_nonpositive_potential():
    est = g_ratio_mc(BALL, SPEC, McConfig(20_000, 64, 2))
    assert est.mean <= 1.0 + 3.0 * est.std_error


def test_positive_part_rejection():
    # positive amplitude growing like r^2 out to infinity: V+ unbounded
    W = RadialPower(2.0, 0.0, math.inf, 0.5)
    with pytest.raises(BridgepotError):
        g_ratio_mc(W, SPEC, McConfig(10, 8, 0))


def test_s_mc_takes_an_unbounded_positive_part():
    # s_mc integrates |V| and takes no exp, so V and -V give the same bits
    V = RadialPower(2.0, 0.0, math.inf, 1.0)
    mc = McConfig(300, 16, 3)
    assert repr(s_mc(V, SPEC, mc)) == repr(s_mc(Scale(-1.0, V), SPEC, mc))


def test_gen_neg_bounds_small():
    # scaled-down version of the two-sided bound checks
    mc = McConfig(20_000, 128, 42)
    s_quad = s_functional(BALL, SPEC)
    ratio = g_ratio_mc(BALL, SPEC, mc)
    assert ratio.mean >= math.exp(-s_quad.value) - 3.0 * ratio.std_error - 1e-3
    assert ratio.mean <= 1.0 + 3.0 * ratio.std_error

    V_pos = BallIndicator(None, 1.0, 0.1)
    eta = s_norm(V_pos, 3, strategy=SearchStrategy(grid_density=3, multistarts=1, nm_max_iter=20))
    assert eta.estimate.value < 1.0
    ratio_pos = g_ratio_mc(V_pos, SPEC, mc)
    assert ratio_pos.mean <= 1.0 / (1.0 - eta.estimate.value) + 3.0 * ratio_pos.std_error


@pytest.mark.parametrize("seed", [0, -3, 2**63 + 5])
@pytest.mark.parametrize("index", [0, 2**32 + 1])
def test_reset_stream_equals_fresh_philox(seed, index):
    gen = np.random.Generator(np.random.Philox(0))
    gen.standard_normal(7)  # a used generator: the reset must clear its buffer too
    gen.bit_generator.state = fk._stream_state(seed, index)
    want = _path_generator(seed, index).standard_normal(101)
    assert np.array_equal(gen.standard_normal(101), want)


def test_one_draw_equals_per_step_draws():
    # sample_bridge draws its normals at once; the stream is the per-step one
    a, b = _path_generator(4, 9), _path_generator(4, 9)
    per_step = np.array([b.standard_normal(3) for _ in range(15)])
    assert np.array_equal(a.standard_normal((15, 3)), per_step)


def _trapezoid(V, spec, steps, path, absolute):
    values = evaluate_many(V, path)
    if absolute:
        values = np.abs(values)
    dt = spec.t / steps
    acc = 0.0
    for i in range(1, steps):
        acc += dt * values[i]
    return acc + 0.5 * dt * (values[0] + values[steps])


@pytest.mark.parametrize("seed", [0, -3, 2**63 + 5])
@pytest.mark.parametrize("steps", [2, 33, 70])
def test_pass_rows_equal_sample_bridge_trapezoids(seed, steps):
    # paths straddle a chunk boundary and are not a multiple of the chunk
    spec = BridgeSpec(0.7, (0.2, -0.1, 0.3), (0.9, 0.4, -0.2))
    rows = [(BALL, False), (SMALL_POS, True), (Sum((BALL, Constant(0.05))), False)]
    mc = McConfig(fk._CHUNK + 3, steps, seed)
    integrals = fk._path_time_integrals(rows, spec, mc)
    assert integrals.shape == (3, mc.paths)
    for j in (0, fk._CHUNK - 1, fk._CHUNK, fk._CHUNK + 2):
        path = sample_bridge(spec, steps, _path_generator(seed, j))
        for r, (V, absolute) in enumerate(rows):
            assert integrals[r, j] == _trapezoid(V, spec, steps, path, absolute)


def test_shared_pass_equals_separate_calls():
    spec = BridgeSpec(0.7, (0.2, -0.1, 0.3), (0.9, 0.4, -0.2))
    mc = McConfig(700, 33, 11)
    rows = [
        (BALL, False),
        (SMALL_POS, True),
        (BALL, True),
        (SMALL_POS, False),
        (Sum((BALL, Constant(0.05))), False),
    ]
    shared = fk._estimates(rows, spec, mc)
    single = [(s_mc if absolute else g_ratio_mc)(V, spec, mc) for V, absolute in rows]
    assert [repr(e) for e in shared] == [repr(e) for e in single]


# results of the per-path Philox construction with one recurrence step at a
# time, before the chunked pass; the pass must reproduce them bit for bit
GOLDEN = {
    (4096, 128): (
        "McEstimate(mean=0.6230043644143219, std_error=0.0020829564650404466, paths=4096)",
        "McEstimate(mean=0.4966773986816406, std_error=0.0034157424932751337, paths=4096)",
        "McEstimate(mean=1.0688029078082402, std_error=0.0007866654738823102, paths=4096)",
        "McEstimate(mean=0.06547355651855469, std_error=0.0007144895381651492, paths=4096)",
    ),
    (5000, 33): (
        "McEstimate(mean=0.6226193190594705, std_error=0.0019025422685517864, paths=5000)",
        "McEstimate(mean=0.49788484848484815, std_error=0.003134435860343859, paths=5000)",
        "McEstimate(mean=1.0700419658920917, std_error=0.0007686427829625692, paths=5000)",
        "McEstimate(mean=0.06646363636363636, std_error=0.0006952629329093925, paths=5000)",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_golden_results(shape):
    mc = McConfig(*shape, 7)
    got = (
        g_ratio_mc(BALL, SPEC, mc),
        s_mc(BALL, SPEC, mc),
        g_ratio_mc(SMALL_POS, SPEC, mc),
        s_mc(SMALL_POS, SPEC, mc),
    )
    assert tuple(repr(e) for e in got) == GOLDEN[shape]
