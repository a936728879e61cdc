"""Brownian-bridge Monte Carlo for the perturbed-to-free kernel ratio.

The pinned bridge associated with the heat kernel (per-coordinate variance
2t) is sampled by sequential conditioning on a uniform grid of ``steps``
intervals.  The ratio of the perturbed fundamental solution to the Gaussian
kernel is the bridge expectation of exp(int_0^t V(path)), estimated with a
trapezoidal time integral along each path; the bridge occupation integral
of |V| gives an independent stochastic oracle for the quadrature-based
bridge potential.

Randomness is counter-based: each path draws its normals from a Philox
stream keyed by (seed, path index), so results are bit-identical for a
fixed configuration no matter how paths are batched.  One pass serves every
functional (``_path_time_integrals``): paths go in chunks of ``_CHUNK``;
one Philox generator per call is re-keyed to each path's stream start (the
state of a fresh ``Philox(key=...)``) and draws that path's normals in one
call; the recurrence then runs ``_BLOCK`` grid steps at a time on a
time-major copy of the chunk's normals, and each requested (V, absolute)
row evaluates its potential once per block.  The noise, block and position
buffers are allocated once per call, sized for the first chunk; a shorter
last chunk or block uses contiguous views into them, and the recurrence
takes its endpoints as contiguous (paths, d) arrays, never as a broadcast
row.  Each path's arithmetic is the same whatever the chunk, so the chunk
size cannot change any bit.  ``g_ratio_mc`` and ``s_mc``
are its one-row case; several rows (as in the ``gen_neg`` suite) share one
draw of the paths, and each row equals its single-row call bit for bit.
``sample_bridge`` is the one-path case of the same recurrence.  Sample
moments are taken over the per-path functionals in index order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BridgepotError, ComputationError
from .functionals import BridgeSpec
from .kernels import as_dimension
from .potentials import Potential, evaluate_many

__all__ = ["McConfig", "McEstimate", "sample_bridge", "g_ratio_mc", "s_mc"]

_CHUNK = 512  # paths per chunk
_BLOCK = 32  # grid steps per potential evaluation
_EXP_GUARD = 700.0


@dataclass(frozen=True)
class McConfig:
    paths: int
    steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    paths: int


def _stream_state(seed: int, index: int) -> dict:
    """The Philox state that starts path ``index``'s stream.

    It is the state of a fresh ``np.random.Philox(key=...)`` with key
    (seed mod 2**64, index): counter 0 and an empty output buffer.
    """
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _advance(cur: np.ndarray, block: np.ndarray, first: int, spec: BridgeSpec, steps: int) -> None:
    """Run the bridge recurrence over a time-major block of normals, in place.

    ``cur`` (B, d) holds the paths at grid step ``first - 1`` and is left as
    it is; ``block`` (n, B, d) holds the normals of steps ``first .. first +
    n - 1`` and is overwritten by the path positions at those steps.  The
    endpoint y enters as a contiguous (B, d) copy: against a broadcast (d,)
    operand numpy loops d elements at a time, several times slower.
    """
    t = spec.t
    dt = t / steps
    i = np.arange(first, first + block.shape[0])
    remaining = t - (i - 1) * dt
    var = 2.0 * dt * (t - i * dt) / remaining
    block *= np.sqrt(var)[:, None, None]
    y = np.empty_like(cur)
    y[...] = spec.y
    mean = np.empty_like(cur)
    for k in range(block.shape[0]):
        # cur = mean + sqrt(var) noise with mean = cur + (dt/remaining)(y - cur),
        # in place: floating + and * commute exactly, so the bits are the same
        np.subtract(y, cur, out=mean)
        mean *= dt / remaining[k]
        mean += cur
        cur = block[k]
        cur += mean


def sample_bridge(spec: BridgeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One bridge path on the uniform grid: array of shape (steps+1, d).

    path[0] = x and path[steps] = y exactly; the marginal at time s is
    N(x + (s/t)(y - x), 2 s (t - s)/t I), matching the closed-form bridge
    parameters.  The path is the one-path case of the Monte Carlo pass: its
    normals are one ``rng.standard_normal((steps - 1, d))`` draw.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    d = as_dimension(spec.d)
    path = np.empty((steps + 1, d))
    path[0] = spec.x
    path[steps] = spec.y
    inner = path[1:steps]
    rng.standard_normal(out=inner)
    _advance(path[:1], inner[:, None, :], 1, spec, steps)
    return path


def _check_positive_part(V: Potential) -> None:
    if V.bound_above() == math.inf:
        raise BridgepotError(
            "Monte Carlo ratio estimation requires a bounded positive part; "
            "exp of the occupation integral has unbounded variance otherwise"
        )


def _path_time_integrals(
    rows: Sequence[tuple[Potential, bool]], spec: BridgeSpec, mc: McConfig
) -> np.ndarray:
    """Trapezoidal int_0^t V(path_s) ds, or of |V| where ``absolute``, for
    every ``(V, absolute)`` row and every path, all rows on the same paths:
    shape (len(rows), paths).
    """
    d = as_dimension(spec.d)
    steps = mc.steps
    dt = spec.t / steps
    ends = np.array([spec.x, spec.y], dtype=float)

    def values(V: Potential, absolute: bool, points: np.ndarray) -> np.ndarray:
        v = evaluate_many(V, points)
        return np.abs(v) if absolute else v

    v_ends = np.array([values(V, absolute, ends) for V, absolute in rows])
    v_end = 0.5 * dt * (v_ends[:, 0] + v_ends[:, 1])
    # one generator per call, re-keyed per path (its seed is overwritten)
    gen = np.random.Generator(np.random.Philox(0))
    state = _stream_state(mc.seed, 0)
    key = state["state"]["key"]
    width = min(_CHUNK, mc.paths)
    noise_buf = np.empty((width, steps - 1, d))
    block_buf = np.empty(min(_BLOCK, steps - 1) * width * d)
    cur_buf = np.empty((width, d))
    out = np.empty((len(rows), mc.paths))
    for start in range(0, mc.paths, _CHUNK):
        stop = min(start + _CHUNK, mc.paths)
        B = stop - start
        noise = noise_buf[:B]
        for j in range(B):
            key[1] = start + j  # the path index; the state setter copies the key
            gen.bit_generator.state = state
            gen.standard_normal(out=noise[j])
        cur = cur_buf[:B]
        cur[...] = spec.x
        acc = np.zeros((len(rows), B))
        for first in range(1, steps, _BLOCK):
            n = min(_BLOCK, steps - first)
            block = block_buf[: n * B * d].reshape(n, B, d)
            for c in range(d):  # a time-major copy, one coordinate at a time (faster)
                block[:, :, c] = noise[:, first - 1 : first - 1 + n, c].T
            _advance(cur, block, first, spec, steps)
            cur[...] = block[-1]  # a copy: the next block overwrites the buffer
            for r, (V, absolute) in enumerate(rows):
                terms = dt * values(V, absolute, block.reshape(-1, d)).reshape(n, B)
                for k in range(n):  # in grid order, as one step at a time would
                    acc[r] += terms[k]
        out[:, start:stop] = acc + v_end[:, None]
    return out


def _moments(samples: np.ndarray) -> tuple[float, float]:
    if samples.size and np.all(samples == samples[0]):
        # deterministic path functional: exactly zero spread
        return float(samples[0]), 0.0
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0
    var = float(np.var(samples, ddof=1))
    return mean, math.sqrt(max(var, 0.0) / samples.size)


def _estimates(
    rows: Sequence[tuple[Potential, bool]], spec: BridgeSpec, mc: McConfig
) -> list[McEstimate]:
    """``s_mc`` of each ``(V, True)`` row and ``g_ratio_mc`` of each
    ``(V, False)`` row, all from one draw of the paths; each equals the
    single call's result.  Only the ratio rows take exp, so only they need
    a bounded positive part."""
    for V, absolute in rows:
        if not absolute:
            _check_positive_part(V)
    results = []
    for (_, absolute), integrals in zip(rows, _path_time_integrals(rows, spec, mc)):
        if not absolute:
            peak = float(np.max(integrals))
            if peak > _EXP_GUARD:
                raise ComputationError(
                    f"occupation integral reached {peak:.3g}; exp would overflow"
                )
            integrals = np.exp(integrals)
        results.append(McEstimate(*_moments(integrals), mc.paths))
    return results


def g_ratio_mc(V: Potential, spec: BridgeSpec, mc: McConfig) -> McEstimate:
    """Bridge estimate of (perturbed kernel) / (Gaussian kernel) at (t, x, y).

    The per-path functional is exp of the trapezoidal time integral of V
    along the bridge.  Potentials with unbounded positive part are
    rejected, and an occupation integral beyond the exp overflow guard
    raises instead of returning infinities.
    """
    return _estimates([(V, False)], spec, mc)[0]


def s_mc(V: Potential, spec: BridgeSpec, mc: McConfig) -> McEstimate:
    """Bridge occupation estimate of the |V| time integral (the quadrature
    bridge potential's stochastic oracle).  It takes no exp, so V may have
    an unbounded positive part."""
    return _estimates([(V, True)], spec, mc)[0]
