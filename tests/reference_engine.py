"""The lockstep engine of ``bridgepot.quadrature`` in its generator form.

``_refine`` is one generator per integral and ``_drive`` the loop that
advances them together, verbatim but for the imports.  The property tests in
``test_quadrature.py`` hold the package's engine to these bit for bit,
integrand calls included.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generator

import numpy as np

from bridgepot.quadrature import _EPS, Estimate, QuadratureSpec, Status


def _refine(boxes: list[tuple], spec: QuadratureSpec) -> Generator[list, list, Estimate]:
    """Globally adaptive refinement of one integral, summed over boxes.

    A generator: it yields the boxes it wants evaluated and is sent back one
    (box, value, error, split_axis) row per box, in order; it returns the
    Estimate.  The boxes sit in a heap keyed by error; each step bisects a
    batch of the worst along their split axes, under the stop rule of the
    module docstring.
    """
    heap: list = []
    serial = 0
    total = 0.0
    total_err = 0.0

    for box, value, err, axis in (yield boxes):
        total += value
        total_err += err
        heapq.heappush(heap, (-err, serial, box, value, axis))
        serial += 1

    splits = 0
    while splits < spec.max_subdivisions:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            break
        batch = []
        budget = min(8, spec.max_subdivisions - splits)
        take_worst = False
        while heap and len(batch) < budget:
            neg_err, _, box, value, axis = heapq.heappop(heap)
            if not take_worst and -neg_err <= 0.25 * tol / max(len(batch), 1):
                if batch:
                    heapq.heappush(heap, (neg_err, serial, box, value, axis))
                    serial += 1
                    break
                # every box is under the bar but their sum is not
                take_worst = True
            lo, hi = box[2 * axis], box[2 * axis + 1]
            if hi - lo <= (abs(lo) + abs(hi)) * 1e-15 + 1e-300:
                # cannot be split in double precision: retire it, error kept
                splits += 1
                continue
            batch.append((box, value, -neg_err, axis))
        if not batch:
            break
        halves = []
        for box, _, _, axis in batch:
            k = 2 * axis
            mid = 0.5 * (box[k] + box[k + 1])
            halves += [box[: k + 1] + (mid,) + box[k + 2 :], box[:k] + (mid,) + box[k + 1 :]]
        children = yield halves
        for (_, value, err, _), left, right in zip(batch, children[::2], children[1::2]):
            total += left[1] + right[1] - value
            total_err += left[2] + right[2] - err
            for box, cvalue, cerr, caxis in (left, right):
                heapq.heappush(heap, (-cerr, serial, box, cvalue, caxis))
                serial += 1
            splits += 1

    tol = max(spec.abs_tol, spec.rel_tol * abs(total))
    status = Status.CONVERGED if total_err <= tol else Status.MAX_SUBDIVISIONS_REACHED
    return Estimate(float(total), float(total_err), status)


def _drive(
    rule: Callable, f: Callable, jobs: dict[int, list[tuple]], spec: QuadratureSpec, cap: int
) -> dict[int, Estimate]:
    """Run one ``_refine`` per job, all advancing together.

    jobs maps an owner index to its initial boxes; the result maps it to
    its Estimate.  Each round makes one call ``rule(f, boxes, owner)``.  It
    takes the waiting batches whole, in arrival order, while they fit in
    ``cap`` boxes (the first always fits), and starts a new integral only
    while nothing waits and the call has room, so few heaps are alive at
    once.  A single job makes the calls it would make alone.
    """
    results: dict[int, Estimate] = {}
    fresh = iter(jobs.items())
    waiting: deque = deque()  # (owner, refiner, requested boxes)
    while True:
        call: list = []
        size = 0
        while waiting and (not call or size + len(waiting[0][2]) <= cap):
            call.append(waiting.popleft())
            size += len(call[-1][2])
        while not waiting and size < cap:
            job = next(fresh, None)
            if job is None:
                break
            refiner = _refine(job[1], spec)
            item = (job[0], refiner, next(refiner))
            if call and size + len(item[2]) > cap:
                waiting.append(item)
            else:
                call.append(item)
                size += len(item[2])
        if not call:
            return results
        boxes = [box for _, _, requested in call for box in requested]
        owner = np.array([o for o, _, requested in call for _ in requested])
        value, error, axis, resabs = rule(f, np.array(boxes, dtype=float), owner)
        error = np.maximum(error, 50.0 * _EPS * resabs)
        rows = list(zip(boxes, value.tolist(), error.tolist(), axis.tolist()))
        start = 0
        for o, refiner, requested in call:
            stop = start + len(requested)
            try:
                waiting.append((o, refiner, refiner.send(rows[start:stop])))
            except StopIteration as done:
                results[o] = done.value
            start = stop

