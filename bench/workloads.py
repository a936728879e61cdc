"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload is built from a seed alone.  Building imports bridgepot and
numpy but not scipy's integrators or distributions.  A workload lists the
reference values its checks need as calls into ``oracles.py``
(``Workload.oracles``); the runner computes them in a child process and
puts them in ``Workload.ref``, so scipy.stats and scipy.integrate never
load into the measured process.  The operations call bridgepot through
module attributes at call time, so the tracer's wrappers see them.

An operation fails if it raises, if it returns a non-finite or
non-converged value where the theory says the value is finite, or if it
fails its check.  Checks run after a round, outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bridgepot import feynman_kac as fk
from bridgepot import functionals as fn
from bridgepot import kernels as kn
from bridgepot import potentials as pt

# k_transform's default spec asks for 1e-6 relative.  Two such values (a
# probe and its dilation partner) may differ by twice that.  Against the
# scipy oracle the check allows 1e-5: the reported error bound leaves out
# the inner alpha integrals' errors, and 2 of 300 d = 3 ball probes came out
# 1.0-1.1e-6 off while reporting convergence (see CHANGES.md)
K_REL_TOL = 1e-6
K_ORACLE_REL_TOL = 1e-5
# the bridge functionals are held to 1e-6: above the known error of the d >= 4
# chi-squared slice rule (~1e-7 relative on S, see CHANGES.md), far below
# any comparison the paper's criteria make
BRIDGE_REL_TOL = 1e-6
# Monte Carlo checks use z * standard error; with at most 12 one-sided tests
# per run, z = 4.5 fails a correct program about once in 2.5e4 runs
MC_Z = 4.5


@dataclass
class Op:
    key: str
    # called with the round's outputs so far, keyed by Op.key
    call: Callable[[dict], object]


class KnownFault(str):
    """A check's failure reason for the one expected failure of a known
    fault in bridgepot: it fails in every round, on inputs that do not
    depend on the seed, so it is counted in ``failed`` but leaves the run
    correct.  Any other failure of the same operation is a plain ``str``."""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # key -> check(value, outputs, acc) returning a failure reason or None
    checks: dict[str, Callable] = field(default_factory=dict)
    # key -> (function in oracles.py, its JSON arguments); the runner puts
    # each value in ref under the same key
    oracles: dict[str, tuple[str, list]] = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    # untimed program calls whose results the checks need, after ref is filled
    prepare: Callable[[], None] = lambda: None


class Accuracy:
    """Worst relative errors and z-scores seen by the checks."""

    def __init__(self) -> None:
        self.worst: dict[str, float] = {}

    def note(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), value)

    def rel(self, key: str, got: float, want: float) -> float:
        err = abs(got - want) / max(abs(want), 1e-300)
        self.note(key, err)
        return err


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _pair(rng: np.random.Generator, d: int, nx: float, ny: float, cos: float):
    """Points x, y with |x| = nx, |y| = ny, cos angle(x, y) = cos, randomly rotated."""
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = ny
    x[0] = nx * cos
    x[1] = nx * math.sqrt(max(0.0, 1.0 - cos * cos))
    rot = _rotation(rng, d)
    return rot @ x, rot @ y


# How far the seed moves a design point: |x|, |y| (and a bridge's t) by a
# log-uniform factor, the cosine additively.  Kept small because an adaptive
# quadrature's cost jumps with the geometry: with 15 % and 0.2 the costliest
# probes' times vary by 10-20 % (one standard deviation) between seeds.
JITTER_LOG = 0.05
JITTER_COS = 0.07


def _jitter(rng: np.random.Generator, nx: float, ny: float, cos: float):
    """A design point's |x| and |y| moved by up to 5 % and its cosine by 0.07."""
    return (
        nx * math.exp(rng.uniform(-JITTER_LOG, JITTER_LOG)),
        ny * math.exp(rng.uniform(-JITTER_LOG, JITTER_LOG)),
        min(1.0, max(-1.0, cos + rng.uniform(-JITTER_COS, JITTER_COS))),
    )


def _estimate_ok(est) -> str | None:
    if not math.isfinite(est.value):
        return f"non-finite value {est.value}"
    if not est.converged:
        return f"status {est.status.value}"
    return None


# program-side potentials and their oracle descriptions (see oracles.py)
BALL = pt.BallIndicator(None, 1.0, -1.0)
BALLS = pt.Sum((pt.BallIndicator(None, 1.0, -1.0), pt.BallIndicator(None, 2.0, -0.5)))
SHELL = pt.RadialPower(-1.0, 0.2, 2.0, -1.0)
POTENTIALS = {"ball": BALL, "balls": BALLS, "shell": SHELL}
ORACLE_FORMS = {
    "ball": ("balls", [(1.0, 1.0)]),
    "balls": ("balls", [(1.0, 1.0), (2.0, 0.5)]),
    "shell": ("shell", (-1.0, 0.2, 2.0, 1.0)),
}


# ---------------------------------------------------------------------------
# anisotropic-k
# ---------------------------------------------------------------------------

# (|x|, |y|, cos angle(x, y)) design points; a probe's cost depends mostly
# on where x sits relative to the support, so the seed only jitters them
ANISO_DESIGN = {"in": (0.6, 1.0, 0.3), "out": (1.8, 1.5, -0.3)}

# Fixed d = 3 probes (x, y), the same for every seed, checked against the
# scipy oracle.  Seeded probes are not: on some seeds a probe lands where
# k_transform is 1.5e-5 off while reporting convergence (a FOUND line in
# CHANGES.md), and a failure that comes and goes with the seed would blur
# the failure count.  The last probe reproduces that fault: it fails in
# every round.
K_ORACLE_PROBES = {
    "k/oracle/ball/in": ("ball", (0.45, 0.3, -0.2), (0.2, 1.1, 0.0)),
    "k/oracle/balls/out": ("balls", (1.2, -1.1, 0.5), (-0.4, 0.9, 1.0)),
    "k/oracle/ball/out": (
        "ball", (-1.49355162, -0.84851583, 0.13962861), (1.04502011, -0.7514591, 1.05449303),
    ),
}
# The fault's signature on that probe: converged, finite, K(x, y) <= K(x, 0),
# and 1.54e-5 below the scipy value.  Only a relative shortfall in this band
# is the known fault; anything else the probe does wrong is a failure, and
# a fixed k_transform passes it.
K_KNOWN_FAULT_PROBE = "k/oracle/ball/out"
K_KNOWN_FAULT_SHORTFALL = (1.2e-5, 2.0e-5)


def anisotropic_k(seed: int) -> Workload:
    """k_transform at general position (y != 0).

    Two probes per (potential, d), one near each design point of
    ANISO_DESIGN (|x| inside, then outside the unit ball), so every seed
    draws the same mix of cheap and costly geometries.  The inner d = 3
    probes also get their dilation partner K(dilate(V, s), x / sqrt(s),
    sqrt(s) y), which must equal them.  The fixed K_ORACLE_PROBES follow.
    """
    rng = _rng(seed, "anisotropic-k")
    ops: list[Op] = []
    checks: dict[str, Callable] = {}
    probes = []  # (key, name, d, x, y)
    for d in (3, 4):
        for name in ("ball", "balls", "shell"):
            V = POTENTIALS[name]
            for stratum, (nx, ny, cos) in ANISO_DESIGN.items():
                x, y = _pair(rng, d, *_jitter(rng, nx, ny, cos))
                key = f"k/{name}/d{d}/{stratum}"
                ops.append(Op(key, lambda out, V=V, x=x, y=y, d=d: fn.k_transform(V, x, y, d)))
                probes.append((key, name, d, x, y))
                if stratum == "in" and d == 3:
                    s = math.exp(rng.uniform(-1.0, 1.0))
                    Vs = pt.dilate(V, s)
                    xs, ys = x / math.sqrt(s), y * math.sqrt(s)
                    dkey = key + "/dilated"
                    ops.append(Op(dkey, lambda out, V=Vs, x=xs, y=ys, d=d: fn.k_transform(V, x, y, d)))
                    checks[dkey] = _dilation_check(key)
    oracle_calls = {}
    for key, (name, x, y) in K_ORACLE_PROBES.items():
        oracle_calls[key] = ("k_transform_d3", [ORACLE_FORMS[name], x, y])
        x, y = np.array(x), np.array(y)
        ops.append(Op(key, lambda out, V=POTENTIALS[name], x=x, y=y: fn.k_transform(V, x, y, 3)))
        probes.append((key, name, 3, x, y))

    ref: dict[str, object] = {}  # oracle values and the untimed y = 0 estimates

    def prepare() -> None:
        for key, name, d, x, y in probes:
            if d == 3:
                # the y = 0 route is the cheap isotropic reduction, untimed
                ref[key + "/y0"] = fn.k_transform(POTENTIALS[name], x, np.zeros(3), 3)

    def oracle_check(key: str, est, acc):
        want = ref[key]
        if key == K_KNOWN_FAULT_PROBE:
            err = acc.rel("anisotropic-k.known_fault_rel_err", est.value, want)
            lo, hi = K_KNOWN_FAULT_SHORTFALL
            if est.value < want and lo <= err <= hi:
                return KnownFault(f"K = {est.value!r} is {err:.3g} below the scipy oracle {want!r}")
        else:
            err = acc.rel("functionals.k_transform.worst_rel_err", est.value, want)
        return None if err <= K_ORACLE_REL_TOL else f"K = {est.value!r}, scipy oracle {want!r}"

    def k_check(key: str, d: int) -> Callable:
        def check(est, out, acc):
            bad = _estimate_ok(est)
            if bad:
                return bad
            if d == 3:
                k0 = ref[key + "/y0"]
                slack = 1e-6 * k0.value + 3.0 * (est.error_bound + k0.error_bound)
                if est.value - k0.value > slack:
                    return f"K(x, y) = {est.value!r} exceeds K(x, 0) = {k0.value!r} in d = 3"
            return oracle_check(key, est, acc) if key in oracle_calls else None
        return check

    for key, name, d, x, y in probes:
        checks[key] = k_check(key, d)
    return Workload("anisotropic-k", ops, checks, oracle_calls, ref, prepare)


def _dilation_check(base_key: str) -> Callable:
    def check(est, out, acc):
        bad = _estimate_ok(est)
        if bad:
            return bad
        base = out.get(base_key)
        if base is None:
            return "base probe failed"
        rel = abs(est.value - base.value) / abs(base.value)
        acc.note("anisotropic-k.dilation_worst_rel", rel)
        return None if rel <= 2.0 * K_REL_TOL else f"dilation covariance off by {rel:.3g}"
    return check


# ---------------------------------------------------------------------------
# bridge-quad
# ---------------------------------------------------------------------------


# (t, |x|, |y|, cos angle(x, y)) design points
BRIDGE_DESIGN = {"short": (0.5, 0.7, 1.4, 0.2), "long": (1.8, 1.2, 0.6, -0.5)}


def bridge_quad(seed: int) -> Workload:
    """s_functional and n_functional on a seeded (t, x, y) grid.

    Two probes per (potential, d) near the design points of BRIDGE_DESIGN,
    a short bridge and a long one (t jittered by up to 5 %); each is
    evaluated with x and y in both orders, which must agree.
    """
    rng = _rng(seed, "bridge-quad")
    combos = [("ball", 3), ("ball", 4), ("ball", 5), ("balls", 3), ("balls", 4), ("balls", 5), ("shell", 3)]
    ops: list[Op] = []
    probes = []
    for name, d in combos:
        V = POTENTIALS[name]
        for span, (t, nx, ny, cos) in BRIDGE_DESIGN.items():
            t *= math.exp(rng.uniform(-JITTER_LOG, JITTER_LOG))
            x, y = _pair(rng, d, *_jitter(rng, nx, ny, cos))
            key = f"{name}/d{d}/{span}"
            probes.append((key, name, t, x, y))
            fwd = fn.BridgeSpec(t, tuple(x), tuple(y))
            rev = fn.BridgeSpec(t, tuple(y), tuple(x))
            for label, f in (("s_functional", "S"), ("n_functional", "N")):
                ops.append(Op(f"{f}/{key}", lambda out, c=label, V=V, b=fwd: getattr(fn, c)(V, b)))
                ops.append(Op(f"{f}/{key}/swapped", lambda out, c=label, V=V, b=rev: getattr(fn, c)(V, b)))

    ref: dict[str, float] = {}
    oracle_calls = {}
    for key, name, t, x, y in probes:
        args = [ORACLE_FORMS[name], t, x.tolist(), y.tolist()]
        oracle_calls["S/" + key] = ("bridge_potential", args)
        oracle_calls["N/" + key] = ("two_sided", args)

    def check_fwd(key: str, metric: str) -> Callable:
        def check(est, out, acc):
            bad = _estimate_ok(est)
            if bad:
                return bad
            if acc.rel(metric, est.value, ref[key]) > BRIDGE_REL_TOL:
                return f"{est.value!r} against ncx2 oracle {ref[key]!r}"
            return None
        return check

    def check_swap(key: str) -> Callable:
        def check(est, out, acc):
            bad = _estimate_ok(est)
            if bad:
                return bad
            base = out.get(key)
            if base is None:
                return "unswapped probe failed"
            rel = abs(est.value - base.value) / max(abs(base.value), 1e-300)
            acc.note("bridge-quad.swap_worst_rel", rel)
            return None if rel <= BRIDGE_REL_TOL else f"x <-> y asymmetry {rel:.3g}"
        return check

    checks = {}
    for key, *_ in probes:
        checks["S/" + key] = check_fwd("S/" + key, "functionals.s_functional.worst_rel_err")
        checks["N/" + key] = check_fwd("N/" + key, "functionals.n_functional.worst_rel_err")
        checks["S/" + key + "/swapped"] = check_swap("S/" + key)
        checks["N/" + key + "/swapped"] = check_swap("N/" + key)
    return Workload("bridge-quad", ops, checks, oracle_calls, ref)


# ---------------------------------------------------------------------------
# bridge-mc
# ---------------------------------------------------------------------------

MC_PATHS = 4096
MC_STEPS = 128
V_NEG = pt.BallIndicator(None, 1.0, -1.0)
V_POS = pt.BallIndicator(None, 0.5, 0.5)
MC_FORMS = {"neg": ("balls", [(1.0, 1.0)]), "pos": ("balls", [(0.5, 0.5)])}


def bridge_mc(seed: int) -> Workload:
    """The gen_neg traffic: at each of three bridges, g_ratio_mc for V <= 0,
    g_ratio_mc for a small V >= 0 and s_mc for V <= 0, on shared paths."""
    rng = _rng(seed, "bridge-mc")
    ops: list[Op] = []
    configs = []
    for i in range(3):
        t = rng.uniform(0.5, 1.5)
        x, y = _pair(rng, 3, rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2), rng.uniform(-1.0, 1.0))
        spec = fn.BridgeSpec(t, tuple(x), tuple(y))
        mc = fk.McConfig(MC_PATHS, MC_STEPS, int(rng.integers(1, 2**31)))
        key = f"bridge{i}"
        configs.append((key, t, x, y))
        ops.append(Op(f"{key}/ratio_neg", lambda out, s=spec, m=mc: fk.g_ratio_mc(V_NEG, s, m)))
        ops.append(Op(f"{key}/ratio_pos", lambda out, s=spec, m=mc: fk.g_ratio_mc(V_POS, s, m)))
        ops.append(Op(f"{key}/s_mc", lambda out, s=spec, m=mc: fk.s_mc(V_NEG, s, m)))

    ref: dict[str, float] = {}
    oracle_calls = {}
    for key, t, x, y in configs:
        args = [t, x.tolist(), y.tolist()]
        for sign, form in MC_FORMS.items():
            oracle_calls[f"{key}/{sign}"] = ("trapezoid_bridge_potential", [form, *args, MC_STEPS])
        oracle_calls[f"{key}/neg/exact"] = ("bridge_potential", [MC_FORMS["neg"], *args])

    def finite(est) -> str | None:
        if not (math.isfinite(est.mean) and math.isfinite(est.std_error) and est.std_error >= 0.0):
            return f"non-finite estimate {est}"
        return None

    def ratio_neg(key):
        def check(est, out, acc):
            bad = finite(est)
            if bad:
                return bad
            lower = math.exp(-ref[key + "/neg"])
            if est.mean > 1.0 + 1e-12:
                return f"ratio {est.mean!r} > 1 for V <= 0"
            if est.mean < lower - MC_Z * est.std_error:
                return f"ratio {est.mean!r} < exp(-S) = {lower!r} by more than {MC_Z} se"
            return None
        return check

    def ratio_pos(key):
        def check(est, out, acc):
            bad = finite(est)
            if bad:
                return bad
            lower = math.exp(ref[key + "/pos"])
            if est.mean < lower - MC_Z * est.std_error:
                return f"ratio {est.mean!r} < exp(S) = {lower!r} by more than {MC_Z} se"
            return None
        return check

    def occupation(key):
        def check(est, out, acc):
            bad = finite(est)
            if bad:
                return bad
            want = ref[key + "/neg"]
            z = abs(est.mean - want) / max(est.std_error, 1e-300)
            acc.note("feynman_kac.worst_z", z)
            acc.note("bridge-mc.trapezoid_bias_rel", abs(want - ref[key + "/neg/exact"]) / ref[key + "/neg/exact"])
            return None if z <= MC_Z else f"s_mc {est.mean!r} vs trapezoid S {want!r}: {z:.2f} se"
        return check

    checks = {}
    for key, *_ in configs:
        checks[key + "/ratio_neg"] = ratio_neg(key)
        checks[key + "/ratio_pos"] = ratio_pos(key)
        checks[key + "/s_mc"] = occupation(key)
    return Workload("bridge-mc", ops, checks, oracle_calls, ref)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

# a reduced search (the CLI's --grid-density/--multistarts/--nm-iters) keeps
# a round near three seconds, so a run has several; each evaluation is the
# same axial growth ladder as in the default search
NEWTON_STRATEGY = fn.SearchStrategy(grid_density=5, multistarts=1, nm_max_iter=10)


def divergence(seed: int) -> Workload:
    """The counterexample's verdicts at d = 4.

    The seed moves the K-norm truncation ladder (by a factor in [1, 3)) and
    the four Newton tail probes (one per decade in [1e2, 1e6]); the
    potential, the kappa exponents (2.6 and 2.4, either side of
    (d + 1)/2 = 2.5) and the two-term compact construction are fixed.
    """
    rng = _rng(seed, "divergence")
    d = 4
    V = pt.CounterexampleA()
    factor = rng.uniform(1.0, 3.0)
    ladder = [factor * 10.0**k for k in range(2, 6)]
    tail = [10.0 ** rng.uniform(k, k + 1) for k in range(2, 6)]
    e1 = np.zeros(d)
    e1[0] = 1.0
    ops = [
        Op("k_norm", lambda out: fn.k_norm(V, d, ladder=ladder)),
        Op("newton_norm", lambda out: fn.newton_norm(V, d, strategy=NEWTON_STRATEGY)),
    ]
    for i, x1 in enumerate(tail):
        ops.append(Op(f"newton_tail{i}", lambda out, x=x1 * e1: fn.newton_potential(V, x, d)))
    ops += [
        Op("lp_halfd_norm", lambda out: pt.lp_halfd_norm(V, d)),
        Op("kappa_2.6", lambda out: kn.kappa(d, exponent_override=2.6)),
        Op("kappa_2.4", lambda out: kn.kappa(d, exponent_override=2.4)),
        Op("compact", lambda out: fn.build_compact_counterexample(2, d)),
    ]
    for n in (1, 2):
        ops.append(Op(f"compact_probe{n}", lambda out, n=n: _compact_probe(out, n, d)))

    def k_norm_check(rep, out, acc):
        diag = rep.diagnosis
        if not (math.isinf(rep.estimate.value) and diag is not None):
            return f"K-norm not diverged: {rep.estimate}"
        if not (diag.verdict.value == "divergent" and diag.slope > 0 and diag.r_squared >= 0.99):
            return f"K-norm growth: {diag.verdict.value}, slope {diag.slope}, r2 {diag.r_squared}"
        return None

    def newton_norm_check(rep, out, acc):
        return _estimate_ok(rep.estimate)

    def tail_check(est, out, acc):
        bad = _estimate_ok(est)
        if bad:
            return bad
        vals = [out[f"newton_tail{i}"].value for i in range(len(tail)) if f"newton_tail{i}" in out]
        if len(vals) < len(tail) or max(vals) / min(vals) >= 2.0:
            return f"Newton tail not bounded: {vals}"
        return None

    def diverged(est, out, acc):
        return None if math.isinf(est.value) and est.status.value == "diverged" else f"expected +inf, got {est}"

    def compact_check(res, out, acc):
        compact, radii = res
        if not compact.support_radius() <= 1.0 + 1e-12:
            return f"support radius {compact.support_radius()}"
        return None if len(radii) == 2 else f"{len(radii)} probe radii"

    def probe_check(n):
        def check(est, out, acc):
            bad = _estimate_ok(est)
            if bad:
                return bad
            return None if est.value >= 2.0**n * (1.0 - 1e-3) else f"probe {n}: {est.value} < 2^{n}"
        return check

    checks = {
        "k_norm": k_norm_check,
        "newton_norm": newton_norm_check,
        "lp_halfd_norm": diverged,
        "kappa_2.6": lambda est, out, acc: _estimate_ok(est),
        "kappa_2.4": diverged,
        "compact": compact_check,
        "compact_probe1": probe_check(1),
        "compact_probe2": probe_check(2),
    }
    for i in range(len(tail)):
        checks[f"newton_tail{i}"] = tail_check if i == len(tail) - 1 else (lambda est, out, acc: _estimate_ok(est))
    return Workload("divergence", ops, checks)


def _compact_probe(out: dict, n: int, d: int):
    compact, radii = out["compact"]
    y = np.zeros(d)
    y[0] = radii[n - 1]
    return fn.k_transform(compact, np.zeros(d), y, d)


BUILDERS = {
    "anisotropic-k": anisotropic_k,
    "bridge-quad": bridge_quad,
    "bridge-mc": bridge_mc,
    "divergence": divergence,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
