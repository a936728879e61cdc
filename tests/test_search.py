import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as spo

import bridgepot
from bridgepot.quadrature import Estimate, Status
from bridgepot.search import AxisSpec, SearchStrategy, SupResult, sup_search


def _sequential_sup_search(objective, domain, strategy):
    """The reference: the grid, then each simplex run to its end, one probe at a time.

    The runs are scipy's Nelder-Mead, which the search's own simplex follows
    step for step.
    """
    axes = list(domain)
    grids = [ax.grid(strategy.grid_density) for ax in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    memo = {}
    evals = 0

    def probe(pt):
        nonlocal evals
        evals += 1
        key = pt.tobytes()
        if key not in memo:
            memo[key] = objective(pt)
        value = memo[key].value
        return value if math.isfinite(value) else -math.inf

    values = np.array([probe(pt) for pt in points], dtype=float)
    order = np.argsort(values)[::-1]
    best_idx = int(order[0])
    best_val = float(values[best_idx])
    best_pt = points[best_idx]
    trace = [f"grid: {points.shape[0]} points, best {best_val:.6g}"]

    boundary = False
    for j, ax in enumerate(axes):
        if ax.scale == "log" and best_pt[j] > 0 and (
            best_pt[j] >= ax.hi * 0.999 or best_pt[j] <= ax.lo * 1.001
        ):
            boundary = True

    def to_internal(pt):
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(math.log(max(pt[j], ax.lo * 1e-3)))
            else:
                out.append(pt[j])
        return np.asarray(out)

    def to_external(u):
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(min(max(math.exp(u[j]), ax.lo * 1e-3), ax.hi * 1e3))
            else:
                out.append(min(max(u[j], ax.lo), ax.hi))
        return np.asarray(out, dtype=float)

    options = {"maxiter": strategy.nm_max_iter, "xatol": 1e-6, "fatol": 1e-12}
    for start in points[order[: strategy.multistarts]]:
        u = spo.minimize(
            lambda v: -probe(to_external(v)), to_internal(start), method="Nelder-Mead", options=options
        ).x
        cand_pt = to_external(u)
        cand_val = probe(cand_pt)
        if cand_val > best_val:
            best_val = cand_val
            best_pt = cand_pt
        trace.append(f"simplex from {np.round(start, 6).tolist()}: {cand_val:.6g}")

    arg = {ax.name: float(v) for ax, v in zip(axes, best_pt)}
    return SupResult(best_val, memo[best_pt.tobytes()], arg, evals, tuple(trace), boundary)


_CENTRE = np.array([3.0, -0.5, 20.0])


def _u(p):
    """A coordinate change that makes log axes matter: log1p of |p|."""
    return np.log1p(np.abs(p))


# Estimate-valued objectives to maximise: a smooth peak, plateaus (ties), a
# monotone walk to the clamp, +inf or nan walls (non-finite probes) and a
# constant
_OBJECTIVES = {
    "peak": lambda p: -float(np.sum((_u(p) - _u(_CENTRE[: len(p)])) ** 2)),
    "steps": lambda p: -math.floor(4.0 * np.sum((_u(p) - 1.0) ** 2)) / 4.0,
    "walk": lambda p: float(np.sum(_u(p))),
    "inf_wall": lambda p: math.inf if np.max(p) > 50.0 else float(np.sum(_u(p))),
    "nan_wall": lambda p: math.nan if np.min(p) < 0.3 else -float(np.sum(_u(p))),
    "flat": lambda p: 1.0,
}


def _estimate(value: float) -> Estimate:
    if math.isinf(value):
        return Estimate(value, math.inf, Status.DIVERGED)
    return Estimate(value, 1e-9 * abs(value), Status.CONVERGED)


_AXES = [
    AxisSpec("a", 1e-2, 1e2, "log", include_zero=True),
    AxisSpec("b", 0.5, 80.0, "log"),
    AxisSpec("c", -2.0, 5.0, "linear"),
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(sorted(_OBJECTIVES)),
    axes=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    grid_density=st.integers(1, 6),
    multistarts=st.integers(0, 4),
    nm_max_iter=st.integers(0, 60),
)
def test_lockstep_search_equals_the_sequential_one(kind, axes, grid_density, multistarts, nm_max_iter):
    domain = [_AXES[j] for j in axes]
    strategy = SearchStrategy(grid_density, multistarts, nm_max_iter)

    def objective(p):
        return _estimate(_OBJECTIVES[kind](p))

    batches = []

    def many(points):
        batches.append([p.tobytes() for p in points])
        return [objective(p) for p in points]

    with np.errstate(invalid="ignore"):  # inf - inf in the simplex's stopping test
        want = _sequential_sup_search(objective, domain, strategy)
        assert repr(sup_search(many, domain, strategy)) == repr(want)
    computed = [key for batch in batches for key in batch]
    assert len(computed) == len(set(computed))


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(bridgepot.__path__)])
def test_modules_export_only_their_own_names(name):
    # each name is exported by the module that defines it (the package's
    # __init__ gathers them); names without a __module__, such as tuples of
    # ids, are their module's own
    module = importlib.import_module(f"bridgepot.{name}")
    foreign = [
        n for n in module.__all__ if getattr(getattr(module, n), "__module__", module.__name__) != module.__name__
    ]
    assert foreign == []
