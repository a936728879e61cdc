"""Spans and counts recorded from outside bridgepot, at its public functions.

``Tracer.installed()`` replaces each public function listed in ``LAYERS``
by a wrapper under every name that refers to it in a loaded ``bridgepot``
module (the defining module, modules that imported it, the package), and
puts the originals back on exit.  The integrand handed to an
``integrate_*`` call is wrapped as well, so quadrature engine time and
integrand time separate, and so are the truncation callables handed to
``growth_diagnosis`` (one call per ladder rung).

A span is (name, start, end, parent).  Integrand spans run into the
millions, so spans are aggregated in memory by name path (a tree keyed by
the names from the root), and only the first ``KEEP_SPANS`` spans are kept
individually.  A node's self time is its total time minus the total time
of its children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "special": ("norm_cdf",),
    "quadrature": ("integrate_finite", "integrate_half_line", "integrate_2d"),
    "kernels": ("kappa",),
    "potentials": ("evaluate_many", "lp_halfd_norm"),
    "growth": ("growth_diagnosis",),
    "functionals": (
        "k_transform",
        "newton_potential",
        "s_functional",
        "n_functional",
        "sup_search",
        "k_norm",
        "newton_norm",
    ),
    "feynman_kac": ("g_ratio_mc", "s_mc"),
}
INTEGRATORS = frozenset(LAYERS["quadrature"])
INTEGRAND = "integrand"
# per-call durations are kept for these outermost calls (percentiles)
LATENCY_NAMES = ("k_transform", "newton_potential", "s_functional", "n_functional")
# spans kept one by one (the rest are only aggregated)
KEEP_SPANS = 20000


class Node:
    """Aggregate of every span that shares one name path."""

    __slots__ = ("children", "count", "total", "child_total", "points")

    def __init__(self) -> None:
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.points = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child_total


class Tracer:
    def __init__(self) -> None:
        self.root = Node()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # frames: [node, span id, start, child time, name]
        self._next_id = 0
        self._depth: dict[str, int] = {}
        self.outer_time: dict[str, float] = {}
        self.outer_count: dict[str, int] = {}
        self.latencies: dict[str, list[float]] = {n: [] for n in LATENCY_NAMES}
        self.counts: dict[str, int] = {}
        self.sup_evaluations: list[int] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else self.root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node()
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [node, self._next_id, time.perf_counter(), 0.0, name]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        node, span_id, start, child_time, name = frame
        self._stack.pop()
        dur = end - start
        node.count += 1
        node.total += dur
        node.child_total += child_time
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.outer_time[name] = self.outer_time.get(name, 0.0) + dur
            self.outer_count[name] = self.outer_count.get(name, 0) + 1
            if name in self.latencies:
                self.latencies[name].append(dur)
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < KEEP_SPANS:
            parent_id = self._stack[-1][1] if self._stack else 0
            self.spans.append((span_id, parent_id, name, start, end))
        return dur

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> str | None:
        return self._stack[-1][4] if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap_integrand(self, f):
        def integrand(*args):
            frame = self.enter(INTEGRAND)
            try:
                return f(*args)
            finally:
                self.exit(frame)
                frame[0].points += int(getattr(args[0], "size", 1))
        return integrand

    def _wrap_truncation(self, f):
        def rung(radius):
            self.count("growth.rungs")
            return f(radius)
        return rung

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in INTEGRATORS:
                if self.current() in INTEGRATORS:
                    # an engine delegating to another engine (the algebraic
                    # half-line map); its integrand is already wrapped
                    return fn(*args, **kwargs)
                args = (self._wrap_integrand(args[0]),) + args[1:]
            elif name == "growth_diagnosis":
                args = (self._wrap_truncation(args[0]),) + args[1:]
            elif name == "norm_cdf":
                self.count("special.norm_cdf.points", int(getattr(args[0], "size", 1)))
            elif name == "evaluate_many":
                self.count("potentials.evaluate_many.points", int(len(args[1])))
            elif name in ("g_ratio_mc", "s_mc"):
                mc = args[2]
                self.count("feynman_kac.paths", mc.paths)
                self.count("feynman_kac.path_steps", mc.paths * mc.steps)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if name in INTEGRATORS:
                self.count("quadrature.integrals")
                if getattr(result, "status", None) is not None and result.status.value != "converged":
                    self.count("quadrature.unconverged")
            elif name == "sup_search":
                self.sup_evaluations.append(int(result.evaluations))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every public name in LAYERS, restoring all of them on exit."""
        import bridgepot  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n == "bridgepot" or n.startswith("bridgepot.")]
        patched = []
        try:
            for layer, names in LAYERS.items():
                owner = sys.modules[f"bridgepot.{layer}"]
                for name in names:
                    original = getattr(owner, name)
                    wrapper = self._wrapper(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- read-out -----------------------------------------------------------

    def walk(self, node: Node | None = None, path: tuple = ()):
        """Yield (name path, node) for every aggregated path, depth first."""
        node = self.root if node is None else node
        for name, child in node.children.items():
            yield path + (name,), child
            yield from self.walk(child, path + (name,))

    def self_time(self, names) -> float:
        return sum(n.self_time for p, n in self.walk() if p[-1] in names)

    def integrand_totals(self) -> tuple[int, int]:
        calls = points = 0
        for path, node in self.walk():
            if path[-1] == INTEGRAND:
                calls += node.count
                points += node.points
        return calls, points

    def dump(self) -> dict:
        return {
            "paths": [
                {
                    "path": "/".join(p),
                    "count": n.count,
                    "total_s": n.total,
                    "self_s": n.self_time,
                    "points": n.points,
                }
                for p, n in self.walk()
            ],
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "spans": [list(s) for s in self.spans],
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]
