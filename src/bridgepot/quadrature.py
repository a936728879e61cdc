"""Adaptive Gauss-Kronrod quadrature with half-line maps and 2D tensor panels.

Every integral in this package goes through one of three entry points:

    integrate_finite(f, a, b, ...)      adaptive G7/K15 on a finite interval,
                                        or on many intervals in lockstep
    integrate_half_line(f, ...)         integral over (0, inf) with a peak-
                                        centered logarithmic change of
                                        variables
    integrate_2d(f2, xspan, yspan, ...) adaptive tensor G7/K15 rectangles,
                                        or many x-spans in lockstep

All of them run a single globally adaptive engine (the subregion heap of
Berntsen, Espelid & Genz, ACM TOMS 17, 1991, with the QUADPACK dqk15 rule).
A box is a tuple (lo0, hi0) in 1D or (lo0, hi0, lo1, hi1) in 2D; a box rule
evaluates a batch of boxes in one integrand call and answers value, error,
split axis and |f| mass for each.  The 1D rule always splits axis 0; the 2D
rule splits the axis whose one-direction Gauss degradation differs more
from the full rule.  Both rules give each box the same bits whatever
batch it shares: the 2D rule's degraded sums use zero-padded Gauss weights
over the full 15 x 15 grid, because sums over sliced operands run in an
order that depends on the batch size and could flip a split axis.

The engine is one loop over rounds, ``_drive``.  A round makes one
integrand call for the boxes its integrals asked for, then takes each of
them one step: add the new values to its totals, apply the stop rule, and
bisect the batch its heap of (-error, serial) keys gives up.  An integral
is only that state (totals, splits, next serial, heap), alive from its
first round to its last; one that meets its tolerance on the boxes just
evaluated never fills its heap.  An integral's initial panels are built
when it starts, so only the integrals alive hold boxes.  One integral is
the case n = 1, with exactly the calls it would make alone.

Lockstep integrals.  ``integrate_finite(f, a, b, spec, breakpoints)`` with
sequences a and b integrates f over each [a[i], b[i]] and returns a list of
Estimates; f is called as f(owner, x), where owner holds, for each node of
x, the index i of its integral.  Each integral keeps its own heap,
breakpoints, stop rule and budget, so each Estimate is bit-identical to the
one the integral gets alone; nested reductions use this to evaluate the
inner integrals of all outer nodes with a few integrand calls, and the
bridge functionals to integrate many paths together.  That holds under the
integrand contract: f is elementwise, and the bits it returns for a node
do not depend on the other nodes of the call.  A sum over a node's row
must therefore run in one fixed order (an einsum or a fixed-order sum, not
a BLAS product, which rounds rows apart by their place in the batch).
``integrate_2d(f2, xspans, yspan, spec, xbreaks, ybreaks)`` is the same
for rectangles xspans[i] x yspan, with f2(owner, x, y); the axial
transforms use it for many probes, or many shells of one growth ladder.
Packing rule: an integrand call takes whole per-integral batches in
arrival order, up to 64 boxes (960 nodes) in 1D and 16 rectangles (3,600
nodes) in 2D; a batch is never split, so only an integral's own first
batch can be larger.  16 is the largest batch one 2D integral requests
after its first (8 splits x 2).  A new integral starts only while nothing
waits and the call has room, so only a few heaps are alive at once.  The
caps bound how many nodes an integrand sees, not the width of its
temporaries: the radial transforms' integrand evaluates its (nodes x 24)
power-cell rule in blocks of rows that stay under malloc's 128 KiB mmap
threshold whatever the call size (``functionals._ROW_BLOCK``).  32
rectangles per 2D call doubled the traced peak of an axial kernel norm.

Stop rule.  While the summed error exceeds tol = max(abs_tol,
rel_tol * |value|) and fewer than ``max_subdivisions`` splits are spent,
each step bisects a batch of up to 8 of the worst boxes.  A batch stops
taking boxes at the first one whose error is under tol / (4 * batch size),
except when already the worst box is under that bar: then it takes the 8
worst.  A box too short on its split axis to bisect in double precision
leaves the heap with its error still counted (and counts as a split).  So
refinement ends with budget left and the summed error above tol only when
no box is left to bisect.  The status is CONVERGED when the summed error is
within tol, MAX_SUBDIVISIONS_REACHED otherwise.

The half-line routine maps u = center * exp(v) and expands the v-window
outward from the peak until probe values become negligible, so a bump whose
location varies over many orders of magnitude is always bracketed.  Every
integrand call passes float64 node arrays (and in lockstep an integer
``owner`` array of the same shape), so integrands need not convert their
arguments; an integrand returns an array of the nodes' shape.

Results are reported as :class:`Estimate` values carrying an error bound and
a convergence status; nothing here raises on slow convergence, the status
field says what happened.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Status",
    "QuadratureSpec",
    "Estimate",
    "DEFAULT_SPEC_1D",
    "DEFAULT_SPEC_2D",
    "integrate_finite",
    "integrate_half_line",
    "integrate_2d",
    "QuadratureError",
    "worst_status",
    "fold_status",
]


class QuadratureError(ValueError):
    """Invalid quadrature request (bad tolerances, bad interval, NaN integrand)."""


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_SUBDIVISIONS_REACHED = "max_subdivisions_reached"
    DIVERGED = "diverged"


_STATUS_RANK = {
    Status.CONVERGED: 0,
    Status.MAX_SUBDIVISIONS_REACHED: 1,
    Status.DIVERGED: 2,
}


def worst_status(*statuses: Status) -> Status:
    """The worst of the given statuses (converged < max_subdivisions_reached < diverged)."""
    return max(statuses, key=_STATUS_RANK.get)


def fold_status(est: Estimate, inner: Iterable[Status]) -> Estimate:
    """est with the worst of its own status and those of its inner integrals."""
    return Estimate(est.value, est.error_bound, worst_status(est.status, *inner))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_subdivisions: int = 400

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise QuadratureError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not (self.abs_tol >= 0.0):
            raise QuadratureError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise QuadratureError("max_subdivisions must be >= 1")


DEFAULT_SPEC_1D = QuadratureSpec(rel_tol=1e-8)
DEFAULT_SPEC_2D = QuadratureSpec(rel_tol=1e-6, max_subdivisions=4000)


@dataclass(frozen=True)
class Estimate:
    """A numerical value with an error bound and a convergence flag.

    value may be +inf, in which case status is always DIVERGED.  When status
    is CONVERGED the error bound satisfies
    error_bound <= max(abs_tol, rel_tol * |value|) for the spec in force.
    """

    value: float
    error_bound: float
    status: Status

    def __post_init__(self) -> None:
        if math.isinf(self.value) and self.status is not Status.DIVERGED:
            raise QuadratureError("infinite value requires DIVERGED status")

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED

    def scaled(self, factor: float) -> "Estimate":
        """Multiply by an exact scalar factor."""
        if math.isinf(self.value):
            return self
        return Estimate(self.value * factor, abs(factor) * self.error_bound, self.status)

    def __add__(self, other: "Estimate") -> "Estimate":
        status = worst_status(self.status, other.status)
        if math.isinf(self.value) or math.isinf(other.value):
            return Estimate(math.inf, math.inf, Status.DIVERGED)
        return Estimate(
            self.value + other.value,
            self.error_bound + other.error_bound,
            status,
        )


# --------------------------------------------------------------------------
# Gauss-Kronrod 7/15 rule (nodes on the open interval, endpoints never hit).
# Values are the standard QUADPACK dqk15 abscissae/weights.
# --------------------------------------------------------------------------

_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss-7 weights sit on the odd-index Kronrod nodes.
_IG = np.arange(1, 15, 2)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
# the Gauss-7 weights on the 15 Kronrod nodes, zero on the others
_WG15 = np.zeros(15)
_WG15[_IG] = _WG
_EPS = np.finfo(float).eps


def _panel_eval(f: Callable, panels: np.ndarray, owner: np.ndarray):
    """The 1D box rule: K15 and G7 on a batch of panels (rows lo, hi).

    ``f(owner, x)`` is called once, with each node's owner taken from its
    panel's.  Returns (value, error, split_axis, resabs) arrays, one entry
    per panel; the value is the K15 sum, the error |K15 - G7|, the split
    axis 0.
    """
    c = 0.5 * (panels[:, 0] + panels[:, 1])
    h = 0.5 * (panels[:, 1] - panels[:, 0])
    # nodes laid out panel-major: shape (npanels, 15)
    x = c[:, None] + h[:, None] * _XK[None, :]
    y = np.asarray(f(owner.repeat(15), x.ravel()), dtype=float).reshape(x.shape)
    if not np.isfinite(y).all():
        raise QuadratureError("integrand returned a non-finite value")
    valk = h * (y * _WK).sum(axis=1)
    valg = h * (y[:, 1::2] * _WG).sum(axis=1)  # the Gauss nodes, _IG
    resabs = np.abs(h) * (np.abs(y) * _WK).sum(axis=1)
    return valk, np.abs(valk - valg), np.zeros(valk.size, dtype=int), resabs


# the packing rule's caps on boxes per integrand call (module docstring):
# 1D panels of 15 nodes, and 2D rectangles of 225
_CALL_BOXES = 64
_CALL_RECTS = 16


def _drive(
    rule: Callable, f: Callable, n: int, jobs: Iterable[tuple[int, list]], spec: QuadratureSpec, cap: int
) -> list[Estimate]:
    """The Estimates of n integrals, refined together.

    jobs yields (i, initial boxes of integral i); an integral it does not
    yield is empty and gives zero.  Each round makes one call
    ``rule(f, boxes, owner)``: it takes the waiting batches whole, in queue
    order, while they fit in ``cap`` boxes (the first always fits), and
    starts a new integral only while nothing waits and the call has room,
    so jobs is read only as far as that.
    """
    jobs = iter(jobs)
    abs_tol, rel_tol, most = spec.abs_tol, spec.rel_tol, spec.max_subdivisions
    found = [Estimate(0.0, 0.0, Status.CONVERGED)] * n
    # a queue entry: integral, its requested boxes, the (value, error) of
    # each box they halve (None for initial boxes), and its state [total,
    # summed error, splits, next serial, heap of (-error, serial, box,
    # value, split axis)]
    queue: deque = deque()
    push, pop = heapq.heappush, heapq.heappop
    while True:
        call, size = [], 0
        while queue and (not call or size + len(queue[0][1]) <= cap):
            call.append(queue.popleft())
            size += len(call[-1][1])
        while not queue and size < cap:
            job = next(jobs, None)
            if job is None:
                break
            item = (*job, None, [0.0, 0.0, 0, 0, []])
            if call and size + len(item[1]) > cap:
                queue.append(item)
            else:
                call.append(item)
                size += len(item[1])
        if not call:
            return found
        requested = [box for item in call for box in item[1]]
        owner = np.array([item[0] for item in call for _ in item[1]])
        value, error, axis, resabs = rule(f, np.array(requested), owner)
        error = np.maximum(error, 50.0 * _EPS * resabs)
        vals, errs, axes = value.tolist(), error.tolist(), axis.tolist()
        r = 0
        for j, batch_in, parents, state in call:
            end = r + len(batch_in)
            t, e, splits, serial, heap = state
            if parents is None:
                for i in range(r, end):
                    t += vals[i]
                    e += errs[i]
            else:
                for i, (pv, pe) in zip(range(r, end, 2), parents):
                    t += vals[i] + vals[i + 1] - pv
                    e += errs[i] + errs[i + 1] - pe
            tol = max(abs_tol, rel_tol * abs(t))
            batch: list = []
            if e > tol and splits < most:
                for i in range(r, end):
                    push(heap, (-errs[i], serial, requested[i], vals[i], axes[i]))
                    serial += 1
                budget, bar = min(8, most - splits), 0.25 * tol
                take_worst = False
                while heap and len(batch) < budget:
                    top = pop(heap)
                    if not take_worst and -top[0] <= bar / max(len(batch), 1):
                        if batch:
                            push(heap, (top[0], serial, *top[2:]))
                            serial += 1
                            break
                        # every box is under the bar but their sum is not
                        take_worst = True
                    box, k = top[2], 2 * top[4]
                    if box[k + 1] - box[k] <= (abs(box[k]) + abs(box[k + 1])) * 1e-15 + 1e-300:
                        # cannot be split in double precision: retire it, error kept
                        splits += 1
                        continue
                    batch.append(top)
            if batch:
                halves = []
                for _, _, box, _, k in batch:
                    k *= 2
                    mid = 0.5 * (box[k] + box[k + 1])
                    halves += (box[: k + 1] + (mid,) + box[k + 2 :], box[:k] + (mid,) + box[k + 1 :])
                state[:] = t, e, splits + len(batch), serial, heap
                queue.append((j, halves, [(top[3], -top[0]) for top in batch], state))
            else:
                status = Status.CONVERGED if e <= tol else Status.MAX_SUBDIVISIONS_REACHED
                found[j] = Estimate(t, e, status)
            r = end


def _initial_panels(a: float, b: float, breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    """The initial panels (lo, hi) of [a, b], a < b: their edges are a, b
    and the breakpoints inside, each bracketed with short flanking panels
    so that a narrow feature sitting exactly on it lands near a node."""
    delta = 1e-3 * (b - a)
    pts = {a, b}
    for p in breakpoints:
        if a < p < b:
            pts.add(p)
            for q in (p - delta, p + delta):
                if a < q < b:
                    pts.add(q)
    spts = sorted(pts)
    return list(zip(spts[:-1], spts[1:]))


def integrate_finite(
    f: Callable,
    a: float | Sequence[float],
    b: float | Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC_1D,
    breakpoints: Sequence = (),
) -> Estimate | list[Estimate]:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    breakpoints seed the initial subdivision; pass interior peak locations
    or kink positions so narrow features cannot slip between panels.

    Many integrals in lockstep: with a and b equal-length sequences the
    result is a list, one Estimate per interval [a[i], b[i]], each seeded by
    breakpoints[i] when breakpoints is given.  f is then called as
    f(owner, x), where owner is an integer array shaped like x holding the
    index i of each node's integral.  Each integral keeps its own heap, stop
    rule and budget, so its Estimate equals the one it gets alone,
    ``integrate_finite(lambda x: f(i, x), a[i], b[i], spec, breakpoints[i])``;
    only the integrand calls are shared.  This needs f to be elementwise,
    with bits for a node that do not depend on which nodes share its call
    (module docstring).
    """
    if np.ndim(a) == 0:
        return _integrate_many(lambda owner, x: f(x), [a], [b], spec, [breakpoints])[0]
    return _integrate_many(f, a, b, spec, breakpoints if len(breakpoints) else [()] * len(a))


def _integrate_many(f, a, b, spec, breakpoints) -> list[Estimate]:
    """The lockstep form of integrate_finite; an empty interval gives zero.

    Each integral's initial panels are built when it is started.
    """
    lo, hi = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    if not (len(lo) == len(hi) == len(breakpoints)):
        raise ValueError("a, b and breakpoints must have one entry per integral")
    for x0, x1 in zip(lo, hi):
        if not (x1 >= x0):
            raise QuadratureError(f"bad interval [{x0}, {x1}]")
    jobs = ((i, _initial_panels(lo[i], hi[i], breakpoints[i])) for i in range(len(lo)) if hi[i] > lo[i])
    return _drive(_panel_eval, f, len(lo), jobs, spec, _CALL_BOXES)


def _log_map_window(
    f: Callable, center: float, must_cover: tuple[float, float] | None
) -> tuple[float, float, list[float]]:
    """Scan outward from v=0 for the window carrying the mass of f(c e^v) c e^v.

    Works on integrands that are unimodal (or eventually monotone) in the
    mapped variable; our kernels all are.  Returns (v_lo, v_hi, knots).
    """
    v_cap = 690.0 - abs(math.log(center))

    def probe(v: float) -> float:
        u = center * math.exp(v)
        val = float(np.max(np.abs(f(np.array([u * 0.97, u, u * 1.03])))))
        return val * u

    knots = [0.0]
    g0 = probe(0.0)
    gmax = max(g0, 1e-300)

    def scan(direction: float) -> float:
        nonlocal gmax
        v = 0.0
        quiet = 0
        while True:
            v_next = v + 2.0 * direction
            if abs(v_next) > min(v_cap, 760.0):
                return v
            g = probe(v_next)
            gmax = max(gmax, g)
            knots.append(v_next)
            v = v_next
            need_cover = False
            if must_cover is not None:
                lo, hi = must_cover
                if direction < 0 and lo > 0 and center * math.exp(v) > lo:
                    need_cover = True
                if direction > 0 and center * math.exp(v) < hi:
                    need_cover = True
            if g <= gmax * 1e-18 and not need_cover:
                quiet += 1
                if quiet >= 2:
                    return v
            else:
                quiet = 0

    v_hi = scan(+1.0)
    v_lo = scan(-1.0)
    return v_lo, v_hi, sorted(k for k in knots if v_lo < k < v_hi)


def integrate_half_line(
    f: Callable,
    spec: QuadratureSpec = DEFAULT_SPEC_1D,
    center: float = 1.0,
    must_cover: tuple[float, float] | None = None,
) -> Estimate:
    """Integral of f over (0, inf) by the substitution u = center * e^v.

    The log map resolves power-law endpoint behaviour at 0 and exponential
    tails equally well.  ``center`` should be (near) the maximizer of
    u -> f(u) * u; the transformed integrand is then unimodal and the
    expansion scan brackets it.  ``must_cover`` forces the window to
    include a given (lo, hi) range in u regardless of probe decay, which
    protects against integrands whose mass sits far from the nominal
    center.
    """
    if not (center > 0.0) or not math.isfinite(center):
        raise QuadratureError(f"center must be positive and finite, got {center}")

    v_lo, v_hi, knots = _log_map_window(f, center, must_cover)

    def g(v: np.ndarray) -> np.ndarray:
        u = center * np.exp(v)
        return f(u) * u

    if v_hi <= v_lo:
        return Estimate(0.0, 0.0, Status.CONVERGED)
    # thin the scan knots so the initial panel count stays modest
    if len(knots) > 30:
        knots = knots[:: max(1, len(knots) // 30)]
    return _integrate_many(lambda owner, v: g(v), [v_lo], [v_hi], spec, [knots])[0]


# --------------------------------------------------------------------------
# 2D adaptive tensor cubature
# --------------------------------------------------------------------------


def _rect_eval(f2, rects: np.ndarray, owner: np.ndarray):
    """The 2D box rule: K15xK15 / G7xG7 on a batch of rectangles.

    rects has shape (n, 4) columns (xlo, xhi, ylo, yhi); ``f2(owner, x, y)``
    is called once, owners taken from the rectangles'.  Returns
    (value, error, split_axis, resabs) per rectangle.  The split axis is the
    one whose one-direction degradation (the full rule against the rule
    degraded to Gauss in that direction only) differs more.
    """
    n = rects.shape[0]
    cx = 0.5 * (rects[:, 0] + rects[:, 1])
    hx = 0.5 * (rects[:, 1] - rects[:, 0])
    cy = 0.5 * (rects[:, 2] + rects[:, 3])
    hy = 0.5 * (rects[:, 3] - rects[:, 2])
    X = cx[:, None, None] + hx[:, None, None] * _XK[None, :, None]
    Y = cy[:, None, None] + hy[:, None, None] * _XK[None, None, :]
    Xf = np.repeat(X, 15, axis=2).ravel()
    Yf = np.repeat(Y, 15, axis=1).ravel()
    vals = np.asarray(f2(owner.repeat(225), Xf, Yf), dtype=float).reshape(n, 15, 15)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("2D integrand returned a non-finite value")
    area = hx * hy
    kk = area * np.einsum("nij,i,j->n", vals, _WK, _WK)
    # zero-padded weights keep the split test batch-independent (module docstring)
    gk = area * np.einsum("nij,i,j->n", vals, _WG15, _WK)
    kg = area * np.einsum("nij,i,j->n", vals, _WK, _WG15)
    gg = area * np.einsum("nij,i,j->n", vals[:, _IG, :][:, :, _IG], _WG, _WG)
    resabs = np.abs(area) * np.einsum("nij,i,j->n", np.abs(vals), _WK, _WK)
    axis = np.where(np.abs(kk - gk) >= np.abs(kk - kg), 0, 1)
    return kk, np.abs(kk - gg), axis, resabs


def integrate_2d(
    f2: Callable,
    xspan: tuple[float, float] | Sequence[tuple[float, float]],
    yspan: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_SPEC_2D,
    xbreaks: Sequence = (),
    ybreaks: Sequence[float] = (),
) -> Estimate | list[Estimate]:
    """Adaptive tensor-product Gauss-Kronrod cubature on a rectangle.

    The breakpoints cut the rectangle into the initial grid of boxes; each
    refinement bisects a box along the axis whose one-dimensional
    degradation error is larger.  f2 must accept two equal-shape arrays
    (x, y) and return an array.

    Many integrals in lockstep, as in integrate_finite: with xspan a
    sequence of (lo, hi) spans the result is a list, one Estimate per
    rectangle xspan[i] x yspan, each seeded by xbreaks[i] when xbreaks is
    given.  f2 is then called as f2(owner, x, y) with each node's integral
    index in owner, and each Estimate equals the one its integral gets
    alone.  An empty rectangle gives zero; a reversed span raises.
    """
    if np.ndim(xspan) == 1:
        return _integrate_2d_many(lambda owner, x, y: f2(x, y), [xspan], yspan, spec, [xbreaks], ybreaks)[0]
    xbreaks = xbreaks if len(xbreaks) else [()] * len(xspan)
    return _integrate_2d_many(f2, xspan, yspan, spec, xbreaks, ybreaks)


def _integrate_2d_many(f2, xspans, yspan, spec, xbreaks, ybreaks) -> list[Estimate]:
    """The lockstep form of integrate_2d; an empty rectangle gives zero."""
    for lo, hi in (yspan, *xspans):
        if not (hi >= lo):
            raise QuadratureError(f"bad interval [{lo}, {hi}]")
    y_lo, y_hi = yspan
    ys = sorted({y_lo, y_hi, *(p for p in ybreaks if y_lo < p < y_hi)})
    jobs = []
    for i, ((lo, hi), breaks) in enumerate(zip(xspans, xbreaks, strict=True)):
        if hi > lo and y_hi > y_lo:
            xs = sorted({lo, hi, *(p for p in breaks if lo < p < hi)})
            jobs.append((i, [(x0, x1, y0, y1) for x0, x1 in zip(xs[:-1], xs[1:]) for y0, y1 in zip(ys[:-1], ys[1:])]))
    return _drive(_rect_eval, f2, len(xspans), jobs, spec, _CALL_RECTS)
