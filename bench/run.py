"""bridgepot benchmark: one workload per invocation, or all four in turn.

    python3 bench/run.py --workload anisotropic-k --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload's operations for ``--seconds`` seconds in
this one process, with no threads, checks every output after each round,
and prints each metric with its unit.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A full record of the run (and, traced, the
span aggregate) is written under ``bench/out/``.

Drift correction.  The speed of a shared machine drifts by tens of percent
within a minute.  A fixed reference loop that belongs to the benchmark
(interpreted Python and small numpy calls, like bridgepot's quadrature) is
timed every 50 ms during a round, from inside the operations too.  Each
operation's wall time is multiplied by REF_NOMINAL_S over the mean loop
time around it, i.e. expressed in seconds of a machine on which the loop
takes REF_NOMINAL_S.  The raw wall and CPU times are printed beside the
rescaled ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("anisotropic-k", "bridge-quad", "bridge-mc", "divergence")

REF_NOMINAL_S = 0.5e-3  # one reference loop on the reference machine, rounded
SETUP_LAUNCHES = 5
# a fresh interpreter importing numpy and two stdlib packages: the
# reference for set-up time, and its time on the reference machine
REF_LAUNCH = [sys.executable, "-c", "import numpy, json, email.parser"]
REF_LAUNCH_NOMINAL_S = 0.15

_REF_X = np.linspace(0.0, 1.0, 225)


def ref_loop() -> float:
    """100 iterations of 225-point numpy arithmetic, a float sum and a heap push.

    Its data stay in the first-level cache, so what the program did just
    before a sample hardly changes the sample.
    """
    heap: list = []
    acc = 0.0
    for i in range(100):
        v = _REF_X * (1.0 + 1e-3 * i)
        acc += float((np.exp(-v * v) * _REF_X).sum())
        heapq.heappush(heap, (-acc, i))
        acc += math.sqrt(i + 1.0)
    return acc


class RefSampler:
    """Times the reference loop every PERIOD_S seconds from a SIGALRM handler.

    Python runs the handler between bytecodes of whatever the main thread
    is doing, so a long operation gets reference samples from inside its
    own interval.  Samples are (start, duration) pairs.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        ref_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "RefSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(handler time spent inside [t0, t1], mean loop time around it).

        Samples up to one period either side count for the mean, so an
        operation shorter than the period still has one on each side.
        """
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples if t0 - self.PERIOD_S <= s <= t1 + self.PERIOD_S]
        return inside, statistics.fmean(near)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def _launch(args: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(args, cwd=ROOT, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple[float, float, list[float]]:
    """Median rescaled and raw time from a fresh interpreter to built inputs.

    The child prints CLOCK_MONOTONIC once its inputs are built; the parent
    read the same clock just before starting it.  Set-up is process start,
    dynamic loading and unmarshalling, which the reference loop does not
    track, so each launch is rescaled by the mean of the reference launches
    (REF_LAUNCH) just before and after it instead.
    """
    rescaled, raw = [], []
    ref = _launch(REF_LAUNCH)
    for _ in range(SETUP_LAUNCHES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        t = float(proc.stdout.strip().splitlines()[-1]) - t0
        ref_after = _launch(REF_LAUNCH)
        raw.append(t)
        rescaled.append(t * REF_LAUNCH_NOMINAL_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return statistics.median(rescaled), statistics.median(raw), rescaled


def compute_oracles(requests: dict) -> dict[str, float]:
    """Reference values from bench/oracles.py, computed in a child process.

    The oracles load scipy.stats and scipy.integrate, which bridgepot does
    not; kept out of this process, they do not count in its peak_rss_mb.
    """
    if not requests:
        return {}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "oracles.py")],
        input=json.dumps(requests), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracles failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class RoundResult:
    """One round: per-operation raw and rescaled times, outputs, failures
    (``known``: the keys whose failure is a declared known fault).

    Raw wall and CPU times both exclude the sampler's handler time.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.cpu: list[float] = []
        self.rescaled: list[float] = []
        self.near_ref: list[float] = []  # mean reference loop time around each op
        self.refs: list[float] = []
        self.outputs: dict = {}
        self.failures: dict[str, str] = {}
        self.known: set[str] = set()

    @property
    def rescaled_total(self) -> float:
        return sum(self.rescaled)


def work_s(rounds: list[RoundResult]) -> float:
    """Sum over operations of each operation's median rescaled time over rounds.

    The per-operation median drops a sample taken while the machine changed
    speed between an operation and its nearest reference samples.
    """
    return sum(statistics.median(col) for col in zip(*(r.rescaled for r in rounds)))


def run_round(wl, acc) -> RoundResult:
    from workloads import KnownFault

    res = RoundResult()
    intervals = []
    with RefSampler() as sampler:
        for op in wl.ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                value = op.call(res.outputs)
            except Exception as exc:  # a failing operation is counted, not fatal
                value = None
                res.failures[op.key] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            res.cpu.append(time.process_time() - c0)
            intervals.append((t0, t1))
            if value is not None:
                res.outputs[op.key] = value
    for i, (t0, t1) in enumerate(intervals):
        inside, ref = sampler.window(t0, t1)
        res.raw.append(t1 - t0 - inside)
        res.cpu[i] -= inside
        res.near_ref.append(ref)
        res.rescaled.append(res.raw[i] * REF_NOMINAL_S / ref)
    res.refs = [d for _, d in sampler.samples]
    for op in wl.ops:
        if op.key in res.failures:
            continue
        check = wl.checks.get(op.key)
        try:
            reason = check(res.outputs[op.key], res.outputs, acc) if check else None
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            res.failures[op.key] = reason
            if isinstance(reason, KnownFault):
                res.known.add(op.key)
    return res


def per_layer(tracer, acc, untraced: list[RoundResult], traced: list[RoundResult]) -> dict:
    from spans import INTEGRATORS, INTEGRAND, percentile

    n = len(traced)
    c = tracer.counts
    ot = tracer.outer_time
    oc = tracer.outer_count
    calls, points = tracer.integrand_totals()
    lat = tracer.latencies
    mc_time = ot.get("g_ratio_mc", 0.0) + ot.get("s_mc", 0.0)

    def ms(name, q):
        return 1e3 * percentile(lat[name], q)

    work_u = work_s(untraced)
    work_t = work_s(traced)
    return {
        "special.norm_cdf.points": (c.get("special.norm_cdf.points", 0) / n, "count"),
        "special.norm_cdf.s": (ot.get("norm_cdf", 0.0) / n, "s"),
        "quadrature.integrals": (c.get("quadrature.integrals", 0) / n, "count"),
        "quadrature.integrand_calls": (calls / n, "count"),
        "quadrature.integrand_points": (points / n, "count"),
        "quadrature.points_per_call": (points / calls if calls else 0.0, "points"),
        "quadrature.unconverged": (c.get("quadrature.unconverged", 0) / n, "count"),
        "quadrature.self_s": (tracer.self_time(INTEGRATORS) / n, "s"),
        "quadrature.integrand_s": (tracer.self_time({INTEGRAND}) / n, "s"),
        "kernels.kappa.calls": (oc.get("kappa", 0) / n, "count"),
        "kernels.kappa.s": (ot.get("kappa", 0.0) / n, "s"),
        "potentials.evaluate_many.points": (c.get("potentials.evaluate_many.points", 0) / n, "count"),
        "potentials.evaluate_many.s": (ot.get("evaluate_many", 0.0) / n, "s"),
        "potentials.lp_halfd_norm.s": (ot.get("lp_halfd_norm", 0.0) / n, "s"),
        "growth.verdicts": (oc.get("growth_diagnosis", 0) / n, "count"),
        "growth.rungs": (c.get("growth.rungs", 0) / n, "count"),
        "growth.s": (ot.get("growth_diagnosis", 0.0) / n, "s"),
        "functionals.k_transform.calls": (oc.get("k_transform", 0) / n, "count"),
        "functionals.newton_potential.calls": (oc.get("newton_potential", 0) / n, "count"),
        "functionals.s_functional.calls": (oc.get("s_functional", 0) / n, "count"),
        "functionals.n_functional.calls": (oc.get("n_functional", 0) / n, "count"),
        "functionals.k_transform.p50_ms": (ms("k_transform", 50), "ms"),
        "functionals.k_transform.p90_ms": (ms("k_transform", 90), "ms"),
        "functionals.newton_potential.p50_ms": (ms("newton_potential", 50), "ms"),
        "functionals.s_functional.p50_ms": (ms("s_functional", 50), "ms"),
        "functionals.n_functional.p50_ms": (ms("n_functional", 50), "ms"),
        "functionals.sup_search.evaluations": (
            statistics.fmean(tracer.sup_evaluations) if tracer.sup_evaluations else 0.0, "count"),
        "functionals.k_norm.s": (ot.get("k_norm", 0.0) / n, "s"),
        "functionals.newton_norm.s": (ot.get("newton_norm", 0.0) / n, "s"),
        "functionals.k_transform.worst_rel_err": (acc.worst.get("functionals.k_transform.worst_rel_err", 0.0), "ratio"),
        "functionals.s_functional.worst_rel_err": (acc.worst.get("functionals.s_functional.worst_rel_err", 0.0), "ratio"),
        "functionals.n_functional.worst_rel_err": (acc.worst.get("functionals.n_functional.worst_rel_err", 0.0), "ratio"),
        "feynman_kac.path_steps_per_s": (c.get("feynman_kac.path_steps", 0) / mc_time if mc_time else 0.0, "1/s"),
        "feynman_kac.paths": (c.get("feynman_kac.paths", 0) / n, "count"),
        "feynman_kac.g_ratio_mc.s": (ot.get("g_ratio_mc", 0.0) / n, "s"),
        "feynman_kac.s_mc.s": (ot.get("s_mc", 0.0) / n, "s"),
        "feynman_kac.worst_z": (acc.worst.get("feynman_kac.worst_z", 0.0), "se"),
        "run.wall_s": (statistics.median(sum(r.raw) for r in untraced), "s"),
        "run.cpu_s": (statistics.median(sum(r.cpu) for r in untraced), "s"),
        "run.ref_loop_ms": (1e3 * statistics.median(x for r in untraced + traced for x in r.refs), "ms"),
        "trace.overhead": (work_t / work_u, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup_s, setup_raw, setup_all = measure_setup(name, seed)
    wl = workloads.build(name, seed)
    acc = workloads.Accuracy()
    wl.ref.update(compute_oracles(wl.oracles))
    wl.prepare()

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    untraced: list[RoundResult] = []
    traced: list[RoundResult] = []
    warm = None
    attempted = failed = 0
    failures: dict[str, str] = {}
    unexpected: set[str] = set()
    t_start = time.perf_counter()
    while True:
        if warm is None:
            # warms caches and lazy imports; checked and counted, not timed
            res = warm = run_round(wl, acc)
        elif trace and len(traced) < len(untraced):
            with tracer.installed():
                res = run_round(wl, acc)
            traced.append(res)
        else:
            res = run_round(wl, acc)
            untraced.append(res)
        attempted += len(wl.ops)
        failed += len(res.failures)
        failures.update(res.failures)
        unexpected |= set(res.failures) - res.known
        if time.perf_counter() - t_start >= seconds and untraced and (traced or not trace):
            break

    e2e = {
        "setup_s": (setup_s, "s"),
        "work_s": (work_s(untraced), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "setup_s.raw": (setup_raw, "s"),
        "work_s.raw": (statistics.median(sum(r.raw) for r in untraced), "s"),
        "work_s.cpu": (statistics.median(sum(r.cpu) for r in untraced), "s"),
        "work_s.warmup": (warm.rescaled_total, "s"),
        "ref_loop_ms": (1e3 * statistics.median(x for r in untraced for x in r.refs), "ms"),
        "rounds": (len(untraced), "count"),
        "ops_per_round": (len(wl.ops), "count"),
    }
    info.update({k: (v, "ratio" if "rel" in k else "se") for k, v in sorted(acc.worst.items())})
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unexpected_failures": sorted(unexpected),
        "end_to_end": e2e,
        "info": info,
        "setup_launches_s": setup_all,
        "rounds": [
            {"rescaled_s": r.rescaled_total, "raw_s": r.raw, "cpu_s": r.cpu, "near_ref_s": r.near_ref, "ref_s": r.refs,
             "keys": [op.key for op in wl.ops]}
            for r in [warm] + untraced
        ],
    }
    if trace:
        layer = per_layer(tracer, acc, untraced, traced)
        record["per_layer"] = layer
        record["traced_rounds"] = len(traced)
        record["spans_file"] = _write(f"spans-{name}-s{seed}.json", tracer.dump())
    record["record_file"] = _write(f"{name}-s{seed}-t{int(trace)}.json", record)
    return record


def _write(fname: str, obj) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / fname
    path.write_text(json.dumps(obj, indent=1, default=str))
    return str(path.relative_to(ROOT))


def _print_metrics(metrics: dict) -> None:
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bridgepot" / "__init__.py").is_file():
        print(f"bridgepot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: seed {args.seed}, {rec['attempted']} operations attempted, {rec['failed']} failed")
        for key, reason in rec["failures"].items():
            known = "FAILED" if key in rec["unexpected_failures"] else "known fault"
            print(f"  {known} {key}: {reason}", file=sys.stderr)
        summary["correct"] &= not rec["unexpected_failures"]
        shown = rec["per_layer"] if args.trace else rec["end_to_end"]
        _print_metrics(shown)
        _print_metrics(rec["info"])
        print(f"  record: {rec['record_file']}")
        prefix = f"{name}." if len(names) > 1 else ""
        summary["attempted"] += rec["attempted"]
        summary["failed"] += rec["failed"]
        for key, (value, unit) in shown.items():
            summary["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
