"""Supremum search: a coarse product grid plus multistart downhill simplex.

Suprema over unbounded domains are explored with log-spaced coarse grids
plus multistart Nelder-Mead refinement (an in-repo simplex that follows
scipy's Nelder-Mead step for step) and are reported as certified lower
bounds: the value is the best probe, never a claim of global optimality.

Independent probes are computed together.  The grid's points go to the
objective in one call.  The multistart simplex runs advance together:
each run is a generator (``_simplex``) that yields the points it needs (its
whole initial simplex, a shrink's n points, otherwise one point) and is
sent their values, and each round gathers the new points of every live run
into one objective call.  One memo, keyed by a point's float64 bytes and
living for one search, holds every computed probe; a round computes only
the points that are neither in the memo nor requested earlier in the same
round, so each distinct point is computed once.  ``evaluations`` still
counts every probe requested, repeats included, and the candidates are
folded in start order, so the result is the one the runs give one after
another.  The objective always takes a batch: ``functionals.k_norm``,
``newton_norm`` and ``s_norm`` pass their lockstep transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .quadrature import Estimate

__all__ = ["AxisSpec", "SearchStrategy", "SupResult", "sup_search"]


@dataclass(frozen=True)
class AxisSpec:
    """One search coordinate; log axes may include an exact zero probe.

    [lo, hi] bounds the coarse grid.  The simplex refinement of a log axis
    may walk on to [lo * 1e-3, hi * 1e3]: the suprema searched here are
    often approached at an end of the axis (S grows as t -> inf), and every
    probe, inside the bounds or not, gives a valid lower bound.
    """

    name: str
    lo: float
    hi: float
    scale: str = "log"  # or "linear"
    include_zero: bool = False

    def grid(self, n: int) -> np.ndarray:
        if self.scale == "log":
            pts = np.exp(np.linspace(math.log(self.lo), math.log(self.hi), n))
            if self.include_zero:
                pts = np.concatenate([[0.0], pts])
            return pts
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class SearchStrategy:
    """Grid points per axis, simplex runs, and each run's iteration cap.

    nm_max_iter counts as scipy's Nelder-Mead ``maxiter`` does: the loop
    counter starts at 1, so a run takes at most nm_max_iter - 1 simplex
    steps (``--nm-iters 5`` runs 4).  The count is kept because changing
    it changes every search result.
    """

    grid_density: int = 7
    multistarts: int = 3
    nm_max_iter: int = 160

    def __post_init__(self) -> None:
        if self.grid_density < 1:
            raise ValueError(f"grid_density must be >= 1, got {self.grid_density}")
        if self.multistarts < 0:
            raise ValueError(f"multistarts must be >= 0, got {self.multistarts}")


@dataclass(frozen=True)
class SupResult:
    """Best probed value (a certified lower bound on the supremum).

    estimate is the objective's own Estimate at the argmax probe arg;
    evaluations counts the probes requested, repeats included.
    """

    value: float
    estimate: Estimate
    arg: dict
    evaluations: int
    strategy_trace: tuple[str, ...]
    boundary_hit: bool


def _simplex(x0: np.ndarray, max_iter: int) -> Generator[list, list, np.ndarray]:
    """Downhill simplex (Nelder & Mead, Comput. J. 7, 1965) minimising f from x0.

    A generator: it yields a list of the points it needs and is sent their
    values f(x), in order; it returns the best vertex.  Step for step
    scipy's Nelder-Mead (``scipy.optimize.minimize`` with
    ``method="Nelder-Mead"`` and options ``maxiter=max_iter``,
    ``xatol=1e-6``, ``fatol=1e-12``): no bounds, fixed coefficients, the
    default initial simplex (each coordinate in turn times 1.05, or 0.00025
    where it is zero), and the loop counter starting at 1, so at most
    max_iter - 1 steps are taken.  The same points are requested in the
    same order and the same best vertex is returned.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.array((yield list(sim)), dtype=float)
    # sorted twice, as scipy does: argsort is not stable, so the second
    # pass may reorder ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < max_iter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-6
            and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        (fxr,) = yield [xr]
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            (fxe,) = yield [xe]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = yield list(sim[1:])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0]


def sup_search(
    objective: Callable[[np.ndarray], Sequence[Estimate]],
    domain: Sequence[AxisSpec],
    strategy: SearchStrategy = SearchStrategy(),
) -> SupResult:
    """Coarse product grid plus multistart downhill-simplex refinement.

    Each of the best ``multistarts`` grid points seeds one ``_simplex``
    run (scipy's Nelder-Mead, step for step) in internal coordinates: the
    log of a log axis, a linear axis as is.  The reported value is the
    maximum over every probed point, a lower bound on the supremum; no
    claim of global optimality is made.  A probe whose value is not finite
    counts as -inf.  The grid spans each axis's [lo, hi]; the simplex may
    leave it, up to lo * 1e-3 and hi * 1e3 on a log axis (see AxisSpec).
    boundary_hit flags a coarse-grid argmax on the outer edge of a log
    axis, the cue for a growth diagnosis.

    The objective takes an (m, k) array of distinct points and returns
    their m Estimates, each a pure function of its point: the grid, every
    simplex run and each run's closing re-evaluation share one memo, keyed
    by the point's float64 bytes, that lives for this call only, so each
    distinct point is computed once.  ``evaluations`` still counts every
    probe requested.
    """
    axes = list(domain)
    grids = [ax.grid(strategy.grid_density) for ax in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    memo: dict[bytes, Estimate] = {}
    evals = 0

    def probe(pts: Sequence[np.ndarray]) -> list[float]:
        """The values of pts; the new distinct ones are computed in one call."""
        nonlocal evals
        evals += len(pts)
        keys = [pt.tobytes() for pt in pts]
        new: dict[bytes, np.ndarray] = {}
        for key, pt in zip(keys, pts):
            if key not in memo:
                new.setdefault(key, pt)
        if new:
            memo.update(zip(new, objective(np.array(list(new.values())))))
        values = [memo[key].value for key in keys]
        return [v if math.isfinite(v) else -math.inf for v in values]

    values = np.array(probe(points), dtype=float)
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

    def to_internal(pt: np.ndarray) -> np.ndarray:
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(math.log(max(pt[j], ax.lo * 1e-3)))
            else:
                out.append(pt[j])
        return np.asarray(out)

    def to_external(u: np.ndarray) -> np.ndarray:
        out = []
        for j, ax in enumerate(axes):
            if ax.scale == "log":
                out.append(min(max(math.exp(u[j]), ax.lo * 1e-3), ax.hi * 1e3))
            else:
                out.append(min(max(u[j], ax.lo), ax.hi))
        return np.asarray(out, dtype=float)

    # the grid's points are distinct: each axis grid increases
    starts = points[order[: strategy.multistarts]]
    runs = [_simplex(to_internal(start), strategy.nm_max_iter) for start in starts]
    wanted = {i: [to_external(u) for u in next(run)] for i, run in enumerate(runs)}
    ends = {}
    while wanted:
        found = iter(probe([pt for pts in wanted.values() for pt in pts]))
        for i, pts in list(wanted.items()):
            try:
                wanted[i] = [to_external(u) for u in runs[i].send([-next(found) for _ in pts])]
            except StopIteration as done:
                ends[i] = to_external(done.value)
                del wanted[i]
    candidates = [ends[i] for i in range(len(starts))]
    for start, cand_pt, cand_val in zip(starts, candidates, probe(candidates)):
        if cand_val > best_val:
            best_val = cand_val
            best_pt = cand_pt
        trace.append(f"simplex from {np.round(start, 6).tolist()}: {cand_val:.6g}")

    arg = {ax.name: float(v) for ax, v in zip(axes, best_pt)}
    return SupResult(best_val, memo[best_pt.tobytes()], arg, evals, tuple(trace), boundary)
