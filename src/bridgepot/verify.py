"""Named verification suites, one per comparability statement.

Each suite measures the quantities behind one estimate (a two-sided kernel
comparison, a divergence threshold, a closed-form constant, an invariance)
on a deterministic probe set and reports machine-readable findings.  Where
the underlying statement only asserts that constants exist, the suite
records the empirical window and passes if it is finite, positive, and
within a generous declared width; the only sharp thresholds enforced are
the ones with explicit values: the sqrt(4 pi / c) constant, the
[2 i_app, 4 i_app] sandwich, the d = 3 kernel identity, and the 4 sqrt(pi)
upper ratio at d = 3.  A suite passes iff every one of its findings passes;
``run_suite`` alone decides that.

Reports serialize to JSON with the stable schema
{suite, passed, findings: [{name, value, bound, passed}], runtime_ms, seed}.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BridgepotError
from .feynman_kac import McConfig, _estimates
from .functionals import (
    BridgeSpec,
    _n_functionals,
    _newton_potentials,
    _probe_args,
    _s_functionals,
    build_compact_counterexample,
    j_transform,
    k_norm,
    k_transform,
    newton_norm,
    newton_potential,
    s_functional,
    s_norm,
)
from .growth import Verdict, growth_diagnosis
from .kernels import (
    as_dimension,
    explicit_constant,
    f_estimate,
    f_integral,
    i_app,
    j_kernel,
    k0,
    kappa,
    newton_constant,
)
from .potentials import (
    BallIndicator,
    CounterexampleA,
    Potential,
    dilate,
    lp_halfd_norm,
    parse_potential,
)
from .quadrature import DEFAULT_SPEC_1D, QuadratureSpec
from .search import SearchStrategy

__all__ = ["Finding", "SuiteReport", "run_suite", "SUITE_IDS"]


@dataclass(frozen=True)
class Finding:
    name: str
    value: float
    bound: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "bound": self.bound,
            "passed": bool(self.passed),
        }


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    findings: list[Finding]
    runtime_ms: float
    seed: int
    inputs: dict = field(default_factory=dict)

    def to_dict(self, include_runtime: bool = True) -> dict:
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "findings": [f.to_dict() for f in self.findings],
            "runtime_ms": float(self.runtime_ms) if include_runtime else 0.0,
            "seed": int(self.seed),
            "inputs": self.inputs,
        }


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _window(label: str, ratios: list[float], cap_width: float) -> list[Finding]:
    """The empirical [min, max] of a ratio over a probe grid, passing when
    it is positive, finite and at most cap_width wide."""
    vmin, vmax = min(ratios), max(ratios)
    ok = vmin > 0.0 and math.isfinite(vmax) and vmax / vmin <= cap_width
    bound = f"width <= {cap_width:g}"
    return [
        Finding(f"{label}.min_ratio", vmin, bound, ok),
        Finding(f"{label}.max_ratio", vmax, bound, ok),
    ]


_DEFAULT_POTENTIALS = (
    '{"type": "ball", "radius": 2.0, "amplitude": -1.0}',
    '{"type": "radial_power", "exponent": 0.0, "inner_radius": 0.5, '
    '"outer_radius": 1.5, "amplitude": -0.7}',
    '{"type": "sum", "terms": [{"type": "ball", "radius": 1.0, "amplitude": -1.0}, '
    '{"type": "ball", "radius": 2.5, "amplitude": -0.25}]}',
)


def _potentials_from_cfg(
    cfg: dict, defaults: tuple[str, ...] = _DEFAULT_POTENTIALS
) -> list[Potential]:
    specs = cfg.get("potentials", defaults)
    return [parse_potential(s) if isinstance(s, (str, dict)) else s for s in specs]


def _search_strategy(cfg: dict) -> SearchStrategy:
    """The norm suites' sup search; defaults: grid density 4, 2 starts, 30 simplex steps."""
    return SearchStrategy(
        grid_density=int(cfg.get("grid_density", 4)),
        multistarts=int(cfg.get("multistarts", 2)),
        nm_max_iter=int(cfg.get("nm_max_iter", 30)),
    )


# ===========================================================================
# suites
# ===========================================================================


def _suite_est2(cfg: dict) -> tuple[list[Finding], dict]:
    betas = tuple(cfg.get("betas", (1.5, 2.0, 2.5, 3.0)))
    cs = tuple(cfg.get("cs", (0.25, 1.0, 4.0)))
    n = int(cfg.get("grid_n", 9))
    lo, hi = float(cfg.get("grid_lo", 1e-3)), float(cfg.get("grid_hi", 1e3))
    width_cap = float(cfg.get("width_cap", 50.0))
    spec = QuadratureSpec(rel_tol=float(cfg.get("rel_tol", 1e-8)))
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n))

    findings: list[Finding] = []
    for beta in betas:
        for c in cs:
            C = explicit_constant(beta, c, spec)
            ratios = []
            cap_excess = 0.0
            sandwich_bad = 0
            for a in grid:
                for b in grid:
                    f = f_integral(a, b, beta, c, spec)
                    F = f_estimate(a, b, beta)
                    I = i_app(a, b, beta, c, spec)
                    ratios.append(f.value / F)
                    cap_excess = max(cap_excess, f.value / (C.value * F) - 1.0)
                    slack = f.error_bound + 4.0 * I.error_bound + 1e-9 * f.value
                    if not (2.0 * I.value - slack <= f.value <= 4.0 * I.value + slack):
                        sandwich_bad += 1
            label = f"est2[beta={beta:g},c={c:g}]"
            findings.extend(_window(label, ratios, width_cap))
            findings.append(
                Finding(f"{label}.upper_constant_excess", cap_excess, "<= 1e-6", cap_excess <= 1e-6)
            )
            findings.append(
                Finding(f"{label}.sandwich_violations", sandwich_bad, "== 0", sandwich_bad == 0)
            )
    return findings, {"betas": list(betas), "cs": list(cs), "grid_n": n}


def _suite_jk0(cfg: dict) -> tuple[list[Finding], dict]:
    dims = tuple(int(d) for d in cfg.get("dims", (3, 4, 6)))
    samples = int(cfg.get("samples", 200))
    seed = int(cfg.get("seed", 123))
    spec = QuadratureSpec(rel_tol=1e-9)
    findings: list[Finding] = []
    for d in dims:
        rng = _rng(seed + d)
        ratios = []
        for _ in range(samples):
            nx = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            ny = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            x = u / np.linalg.norm(u) * nx
            y = v / np.linalg.norm(v) * ny
            # both kernels carry the identical exp(-(|x||y| - x.y)/2) factor,
            # which can underflow at strongly misaligned large probes; the
            # ratio cancels it exactly, so compare in log space
            jv = j_kernel(x, y, d, spec)
            kv = k0(x, y, d)
            if kv > 0.0 and jv.value > 0.0:
                ratio = jv.value / kv
            else:
                log_shape = (2.0 - d) * math.log(nx) + 0.5 * (d - 3.0) * math.log1p(nx * ny)
                ratio = f_integral(nx / 2.0, ny / 2.0, d / 2.0, 1.0, spec).value * math.exp(
                    -log_shape
                )
            ratios.append(ratio)
        findings.extend(_window(f"jk0[d={d}]", ratios, float(cfg.get("width_cap", 100.0))))
        if d == 3:
            worst = max(ratios)
            cap = 4.0 * math.sqrt(math.pi) * (1.0 + 1e-6)
            findings.append(Finding("jk0[d=3].upper_4sqrtpi", worst, "<= 4 sqrt(pi)", worst <= cap))
    return findings, {"dims": list(dims), "samples": samples, "seed": seed}


def _suite_lu(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 3))
    ts = tuple(float(t) for t in cfg.get("ts", (0.1, 1.0, 10.0)))
    samples = int(cfg.get("samples", 20))
    seed = int(cfg.get("seed", 2024))
    lo_cap, hi_cap = 1e-2, 1e2
    potentials = _potentials_from_cfg(cfg)
    rng = _rng(seed)
    pairs = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(samples)]

    ratios_u: list[float] = []
    ratios_l: list[float] = []
    sup_s = 0.0
    sup_j = 0.0

    for V in potentials:
        # S at every (t, pair), and N at t and at t/2, as many-row calls
        specs = [BridgeSpec(t, tuple(x), tuple(y)) for t in ts for x, y in pairs]
        s_vals = [est.value for est in _s_functionals(V, specs, DEFAULT_SPEC_1D)]
        halved = [BridgeSpec(spec.t / 2.0, spec.x, spec.y) for spec in specs]
        n_vals = [est.value for est in _n_functionals(V, specs + halved, DEFAULT_SPEC_1D)]
        for sv, nv, nv2 in zip(s_vals, n_vals[: len(specs)], n_vals[len(specs) :]):
            if nv > 0 and sv > 0:
                ratios_u.append(sv / nv)
            if nv2 > 0 and sv > 0:
                ratios_l.append(sv / nv2)
            sup_s = max(sup_s, sv)

    for x, y in pairs:
        sup_j = max(sup_j, j_transform(potentials[0], x, y, d).value)

    findings = _window("lu.S_over_N_t", ratios_u, hi_cap / lo_cap)
    findings += _window("lu.S_over_N_half_t", ratios_l, hi_cap / lo_cap)
    out_u = sum(not (lo_cap < r < hi_cap) for r in ratios_u)
    out_l = sum(not (lo_cap < r < hi_cap) for r in ratios_l)
    m2_emp = max(ratios_u)
    m1_emp = min(ratios_l)
    findings.append(Finding("lu.m2_empirical", m2_emp, "in (1e-2, 1e2)", lo_cap < m2_emp < hi_cap))
    findings.append(Finding("lu.m1_empirical", m1_emp, "in (1e-2, 1e2)", lo_cap < m1_emp < hi_cap))
    # every ratio must lie in the window, not only the two reported above
    findings.append(Finding("lu.S_over_N_t.outside_window", float(out_u), "== 0", out_u == 0))
    findings.append(Finding("lu.S_over_N_half_t.outside_window", float(out_l), "== 0", out_l == 0))
    sup_ratio = sup_s / sup_j if sup_j > 0 else math.inf
    sup_ok = 1e-3 < sup_ratio < 1e3
    findings.append(
        Finding("lu.sup_S_over_sup_J(potential 0)", sup_ratio, "in (1e-3, 1e3)", sup_ok)
    )
    return findings, {"d": d, "ts": list(ts), "samples": samples, "seed": seed}


def _suite_main(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 3))
    potentials = _potentials_from_cfg(cfg)
    strategy = _search_strategy(cfg)
    findings: list[Finding] = []
    ratios: list[float] = []
    for i, V in enumerate(potentials):
        sup_s = s_norm(V, d, strategy=strategy).estimate.value
        norm_k = k_norm(V, d, strategy=strategy).estimate.value
        k_ok = math.isfinite(norm_k) and norm_k > 0
        findings.append(Finding(f"main.sup_S[potential {i}]", sup_s, "> 0", sup_s > 0))
        findings.append(Finding(f"main.norm_K[potential {i}]", norm_k, "> 0", k_ok))
        if k_ok:
            ratios.append(sup_s / norm_k)
    if ratios:
        findings.extend(_window("main.supS_over_normK", ratios, float(cfg.get("width_cap", 100.0))))
    return findings, {"d": d, "n_potentials": len(potentials)}


def _suite_d3(cfg: dict) -> tuple[list[Finding], dict]:
    seed = int(cfg.get("seed", 31))
    n_ident = int(cfg.get("samples_identity", 20))
    n_dom = int(cfg.get("samples_domination", 100))
    potentials = _potentials_from_cfg(
        cfg,
        (
            '{"type": "ball", "radius": 1.0, "amplitude": -1.0}',
            '{"type": "radial_power", "exponent": -1.0, "inner_radius": 0.2, '
            '"outer_radius": 2.0, "amplitude": -1.0}',
        ),
    )
    rng = _rng(seed)
    c3inv = 1.0 / newton_constant(3)
    findings: list[Finding] = []
    worst_rel = 0.0
    for V in potentials:
        for _ in range(n_ident):
            x = rng.standard_normal(3) * 1.5
            kv = k_transform(V, x, np.zeros(3), 3)
            nv = newton_potential(V, x, 3)
            worst_rel = max(worst_rel, abs(kv.value / (c3inv * nv.value) - 1.0))
    findings.append(Finding("d3.identity_worst_rel", worst_rel, "<= 1e-8", worst_rel <= 1e-8))

    dom_bad = 0
    worst_margin = -math.inf
    V = potentials[0]
    for _ in range(n_dom):
        x = rng.standard_normal(3) * 1.5
        y = rng.standard_normal(3) * 1.5
        kxy = k_transform(V, x, y, 3)
        kx0 = k_transform(V, x, np.zeros(3), 3)
        margin = kxy.value - kx0.value
        worst_margin = max(worst_margin, margin)
        if margin > 1e-6 * kx0.value + 3.0 * (kxy.error_bound + kx0.error_bound):
            dom_bad += 1
    findings.append(Finding("d3.domination_violations", dom_bad, "== 0", dom_bad == 0))
    findings.append(
        Finding("d3.domination_worst_excess", worst_margin, "<= quadrature slack", dom_bad == 0)
    )
    return findings, {"seed": seed, "samples_identity": n_ident, "samples_domination": n_dom}


def _suite_prop14(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 4))
    if d < 4:
        raise BridgepotError("prop14 requires d >= 4")
    potentials = _potentials_from_cfg(
        cfg,
        (
            '{"type": "ball", "radius": 1.0, "amplitude": -1.0}',
            '{"type": "radial_power", "exponent": -1.0, "inner_radius": 0.3, '
            '"outer_radius": 3.0, "amplitude": -0.5}',
        ),
    )
    strategy = _search_strategy(cfg)
    kap = kappa(d)
    cd_inv = 1.0 / newton_constant(d)
    findings: list[Finding] = [
        Finding("prop14.kappa", kap.value, "finite, converged", kap.converged)
    ]
    for i, V in enumerate(potentials):
        lphalf = lp_halfd_norm(V, d)
        n_rep = newton_norm(V, d)
        x_star = np.zeros(d)
        x_star[0] = n_rep.sup.arg.get("r_x", 0.0)
        k_slice = k_transform(V, x_star, np.zeros(d), d)
        k_rep = k_norm(V, d, strategy=strategy)
        k_probed = max(k_rep.estimate.value, k_slice.value)
        lhs = cd_inv * n_rep.estimate.value
        rhs = 2.0 ** ((d - 3) / 2.0) * (cd_inv * n_rep.estimate.value + kap.value * lphalf.value)
        lo_ok = k_probed >= lhs * (1.0 - 1e-6)
        hi_ok = k_probed <= rhs * (1.0 + 1e-6)
        findings.append(Finding(f"prop14.lower[potential {i}]", k_probed / lhs, ">= 1", lo_ok))
        findings.append(Finding(f"prop14.upper[potential {i}]", k_probed / rhs, "<= 1", hi_ok))
    return findings, {"d": d, "n_potentials": len(potentials)}


def _suite_counterexample(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 4))
    radii = [float(r) for r in cfg.get("radii", (1e2, 1e3, 1e4, 1e5))]
    newton_points = int(cfg.get("newton_points", 25))
    n_compact = int(cfg.get("compact_terms", 2))
    V = CounterexampleA()
    x0 = np.zeros(d)
    y0 = np.zeros(d)
    y0[0] = 1.0

    findings: list[Finding] = []

    diag = growth_diagnosis(
        lambda R: k_transform(CounterexampleA(z1_max=R), x0, y0, d), radii
    )
    div_ok = diag.verdict is Verdict.DIVERGENT
    findings.append(
        Finding("counterexample.k_truncation_verdict", 1.0 if div_ok else 0.0, "divergent", div_ok)
    )
    findings.append(Finding("counterexample.k_log_slope", diag.slope, "> 0", diag.slope > 0))
    findings.append(
        Finding("counterexample.k_fit_r2", diag.r_squared, ">= 0.99", diag.r_squared >= 0.99)
    )

    grid = np.exp(np.linspace(math.log(4.0), math.log(1e6), newton_points))

    xs = np.zeros((newton_points, d))
    xs[:, 0] = grid
    # every probe's ladder of shells in one lockstep call, the probes checked as newton_norm does
    vals = [est.value for est in _newton_potentials(V, list(_probe_args(V, d, *xs)[1:]), d, None)]
    # stabilized tail: maximal suffix with consecutive relative changes < 5%
    tail_start = len(vals) - 1
    for i in range(len(vals) - 1, 0, -1):
        if abs(vals[i] - vals[i - 1]) <= 0.05 * abs(vals[i]):
            tail_start = i - 1
        else:
            break
    tail = vals[tail_start:]
    findings.append(
        Finding(
            "counterexample.newton_tail_max_over_min",
            (max(tail) / min(tail)) if tail else math.inf,
            "< 2",
            len(tail) >= 4 and max(tail) / min(tail) < 2.0,
        )
    )
    findings.append(
        Finding("counterexample.newton_sup_probed", max(vals), "finite", math.isfinite(max(vals)))
    )

    lp = lp_halfd_norm(V, d)
    findings.append(
        Finding("counterexample.lp_halfd_norm", lp.value, "= +inf (diverged)", math.isinf(lp.value))
    )

    if n_compact > 0:
        compact, probe_radii = build_compact_counterexample(n_compact, d)
        radius = compact.support_radius()
        findings.append(
            Finding("counterexample.compact_support_radius", radius, "<= 1", radius <= 1.0 + 1e-12)
        )
        for n, rho in enumerate(probe_radii, start=1):
            yn = np.zeros(d)
            yn[0] = rho
            kv = k_transform(compact, x0, yn, d)
            ok_n = kv.value >= 2.0**n * (1.0 - 1e-3)
            findings.append(
                Finding(f"counterexample.compact_probe_{n}", kv.value, f">= 2^{n}", ok_n)
            )
    return findings, {"d": d, "radii": radii, "newton_points": newton_points}


def _suite_lemma_const(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 4))
    threshold = (d + 1) / 2.0
    # the default exponents straddle the threshold (2.4 and 2.6 at d = 4)
    b_div = float(cfg.get("beta_divergent", threshold - 0.1))
    b_con = float(cfg.get("beta_convergent", threshold + 0.1))
    div = kappa(d, exponent_override=b_div)
    con = kappa(d, exponent_override=b_con)
    div_ok = math.isinf(div.value)
    con_ok = math.isfinite(con.value) and con.converged
    findings = [
        Finding(f"lemma_const.beta={b_div:g}", div.value, "divergent (+inf)", div_ok),
        Finding(f"lemma_const.beta={b_con:g}", con.value, "finite, convergent", con_ok),
        Finding("lemma_const.threshold", threshold, "(d+1)/2", True),
    ]
    return findings, {"d": d, "betas": [b_div, b_con]}


def _suite_gen_neg(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 3))
    t = float(cfg.get("t", 1.0))
    paths = int(cfg.get("paths", 100_000))
    steps = int(cfg.get("steps", 512))
    seed = int(cfg.get("seed", 99))
    pos_amp = float(cfg.get("positive_amplitude", 0.1))
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = 1.0
    spec = BridgeSpec(t, tuple(x), tuple(y))
    mc = McConfig(paths, steps, seed)

    findings: list[Finding] = []

    V_neg = BallIndicator(None, 1.0, -1.0)
    V_pos = BallIndicator(None, 1.0, pos_amp)
    s_quad = s_functional(V_neg, spec)
    # both ratios read one draw of the paths
    ratio, ratio_pos = _estimates([(V_neg, False), (V_pos, False)], spec, mc)
    lower = math.exp(-s_quad.value)
    lo_ok = ratio.mean >= lower - 3.0 * ratio.std_error
    hi_ok = ratio.mean <= 1.0 + 3.0 * ratio.std_error
    findings.append(Finding("gen_neg.ratio_negative_V", ratio.mean, f">= exp(-S) = {lower:.6f}", lo_ok))
    findings.append(Finding("gen_neg.ratio_upper_1", ratio.mean, "<= 1", hi_ok))

    eta_rep = s_norm(
        V_pos, d, strategy=SearchStrategy(grid_density=4, multistarts=2, nm_max_iter=40)
    )
    eta = eta_rep.estimate.value
    findings.append(Finding("gen_neg.eta", eta, "< 1", eta < 1.0))
    cap = 1.0 / (1.0 - eta) if eta < 1.0 else math.inf
    pos_ok = ratio_pos.mean <= cap + 3.0 * ratio_pos.std_error
    findings.append(
        Finding("gen_neg.ratio_positive_V", ratio_pos.mean, f"<= 1/(1-eta) = {cap:.6f}", pos_ok)
    )
    return findings, {"d": d, "paths": paths, "steps": steps, "seed": seed}


def _suite_dilation(cfg: dict) -> tuple[list[Finding], dict]:
    d = as_dimension(cfg.get("d", 3))
    samples = int(cfg.get("samples", 50))
    seed = int(cfg.get("seed", 55))
    V = (
        parse_potential(cfg["potential"])
        if "potential" in cfg
        else BallIndicator(None, 1.0, -1.0)
    )
    rng = _rng(seed)
    rels_k, rels_n = [], []
    for _ in range(samples):
        s = float(np.exp(rng.uniform(-1.5, 1.5)))
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        Vs = dilate(V, s)
        rs = math.sqrt(s)
        k1 = k_transform(Vs, x, y, d)
        k2 = k_transform(V, rs * x, y / rs, d)
        n1 = newton_potential(Vs, x, d)
        n2 = newton_potential(V, rs * x, d)
        rels_k.append(abs(k1.value - k2.value) / max(abs(k2.value), 1e-300))
        rels_n.append(abs(n1.value - n2.value) / max(abs(n2.value), 1e-300))
    worst_k, worst_n = max(rels_k), max(rels_n)
    findings = [
        Finding("dilation.k_transform_worst_rel", worst_k, "<= 1e-6", worst_k <= 1e-6),
        Finding("dilation.newton_worst_rel", worst_n, "<= 1e-6", worst_n <= 1e-6),
    ]

    # norm invariance: probed Newton sup is exactly invariant for radial V
    s = 4.0
    n_base = newton_norm(V, d)
    n_dil = newton_norm(dilate(V, s), d)
    rel = abs(n_base.estimate.value - n_dil.estimate.value) / n_base.estimate.value
    findings.append(Finding("dilation.newton_norm_invariance_rel", rel, "<= 1e-6", rel <= 1e-6))
    return findings, {"d": d, "samples": samples, "seed": seed}


_SUITES = {
    "est2": _suite_est2,
    "jk0": _suite_jk0,
    "lu": _suite_lu,
    "main": _suite_main,
    "d3": _suite_d3,
    "prop14": _suite_prop14,
    "counterexample": _suite_counterexample,
    "lemma_const": _suite_lemma_const,
    "gen_neg": _suite_gen_neg,
    "dilation": _suite_dilation,
}

SUITE_IDS = tuple(sorted(_SUITES))


def run_suite(suite_id: str, cfg: dict | None = None) -> SuiteReport:
    """Run one verification suite and return its report.

    The report passes iff every one of its findings passes.  cfg overrides
    the suite's documented defaults (grids, seeds, sample counts); unknown
    suite ids raise.  Reports are deterministic for a fixed configuration
    and seed.
    """
    if suite_id not in _SUITES:
        raise BridgepotError(
            f"unknown suite {suite_id!r}; available: {', '.join(SUITE_IDS)}"
        )
    cfg = dict(cfg or {})
    seed = int(cfg.get("seed", 0))
    start = time.perf_counter()
    findings, inputs = _SUITES[suite_id](cfg)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    passed = all(f.passed for f in findings)
    return SuiteReport(suite_id, passed, findings, runtime_ms, seed, inputs)
