"""Command-line front end.

Subcommands map one-to-one onto the library surface:

    bridgepot kernel g|k0|j|f ...       pointwise kernel evaluation
    bridgepot transform k|newton|n|s|jt ...   integral transforms of a potential
    bridgepot norm k|newton|ldh ...     sup search + divergence diagnosis
    bridgepot simulate ratio|s ...      bridge Monte Carlo
    bridgepot verify <suite> ...        named verification suite
    bridgepot counterexample ...        the full bounded-Newton / infinite-K report

Numeric output is a JSON record carrying at least {value, error, status}
(plus extras per command), or CSV with a header row when --format csv.
Exit codes: 0 on success, 1 when a computation fails (an unconverged or
diverged quadrature where a finite value was required, or a failing verify
suite), 2 on usage errors.  Unconverged values are never printed as if
they were results.

With a fixed --seed the output is byte-identical across runs; suite
wall-clock times are suppressed (reported as 0.0) unless --timings is
given, to keep reports reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import BridgepotError
from .feynman_kac import McConfig, g_ratio_mc, s_mc
from .functionals import (
    BridgeSpec,
    j_transform,
    k_norm,
    k_transform,
    n_functional,
    newton_norm,
    newton_potential,
    s_functional,
)
from .kernels import f_integral, heat_kernel, j_kernel, j_kernel_direct, k0
from .potentials import Symmetry, lp_halfd_norm, parse_potential
from .quadrature import DEFAULT_SPEC_1D, DEFAULT_SPEC_2D, Estimate, QuadratureSpec, Status
from .search import SearchStrategy
from .verify import SUITE_IDS, _search_strategy, run_suite

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


def _parse_point(text: str, d: int, name: str) -> np.ndarray:
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"could not parse {name}={text!r} as comma-separated floats") from exc
    if len(vals) != d:
        raise _UsageError(f"{name} has {len(vals)} coordinates but --d is {d}")
    return np.asarray(vals)


def _load_potential(source: str):
    path = Path(source)
    try:
        if path.exists() and path.is_file():
            return parse_potential(path.read_text())
        return parse_potential(source)
    except (json.JSONDecodeError, BridgepotError, OSError) as exc:
        raise _UsageError(f"invalid potential spec: {exc}") from exc


def _spec_from_args(args, base: QuadratureSpec = DEFAULT_SPEC_1D) -> QuadratureSpec:
    """base, with the quadrature flags that were given on the command line."""
    given = {key: getattr(args, key) for key in _SPEC_FLAGS if hasattr(args, key)}
    return dataclasses.replace(base, **given)


def _route_spec(args, base: QuadratureSpec) -> QuadratureSpec | None:
    """base with the quadrature flags given, or None when none is given, so
    that the library keeps the default spec of each of its routes."""
    if not any(hasattr(args, key) for key in _SPEC_FLAGS):
        return None
    return _spec_from_args(args, base)


def _newton_spec(args, V) -> QuadratureSpec | None:
    """The Newton potential's spec: flags laid over its route's default."""
    return _route_spec(args, DEFAULT_SPEC_1D if V.symmetry is Symmetry.RADIAL else DEFAULT_SPEC_2D)


def _floatify(obj):
    if isinstance(obj, dict):
        return {k: _floatify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_floatify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _emit(record: dict, fmt: str) -> None:
    record = _floatify(record)
    if fmt == "csv":
        fields = ("value", "error", "status")
        header = ",".join(fields)
        row = ",".join(str(record.get(k, "")) for k in fields)
        sys.stdout.write(header + "\n" + row + "\n")
    else:
        sys.stdout.write(json.dumps(record) + "\n")


def _estimate_record(est: Estimate, **extra) -> dict:
    rec = {"value": est.value, "error": est.error_bound, "status": est.status.value}
    rec.update(extra)
    return rec


def _finite_or_fail(est: Estimate, what: str) -> None:
    if est.status is not Status.CONVERGED:
        raise BridgepotError(
            f"{what} did not converge (status {est.status.value}); no value is printed"
        )


# ---------------------------------------------------------------------------


_GLOBAL_DEFAULTS = {
    "format": "json",
    "d": 3,
    "seed": 0,
}
# quadrature flags; an absent one keeps the default spec of the command
_SPEC_FLAGS = ("rel_tol", "abs_tol", "max_subdivisions")


def build_parser() -> argparse.ArgumentParser:
    # common flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    S = argparse.SUPPRESS
    common.add_argument("--format", choices=("json", "csv"), default=S)
    common.add_argument("--d", type=int, default=S,
                        help="spatial dimension (>= 3; default 3, or the suite's own)")
    common.add_argument("--rel-tol", type=float, default=S)
    common.add_argument("--abs-tol", type=float, default=S)
    common.add_argument("--max-subdivisions", type=int, default=S)
    common.add_argument("--seed", type=int, default=S)

    parser = argparse.ArgumentParser(
        prog="bridgepot",
        parents=[common],
        description="Kernel comparability laboratory: bridge potentials, "
        "anisotropic kernels, and Gaussian-bound diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kern = sub.add_parser("kernel", help="pointwise kernel values", parents=[common])
    kern.add_argument("which", choices=("g", "k0", "j", "f"))
    kern.add_argument("--t", type=float, help="time argument for g")
    kern.add_argument("--x", type=str, help="comma-separated point")
    kern.add_argument("--y", type=str, help="comma-separated point")
    kern.add_argument("--a", type=float)
    kern.add_argument("--b", type=float)
    kern.add_argument("--beta", type=float)
    kern.add_argument("--c", type=float, default=1.0)
    kern.add_argument("--direct", action="store_true", help="unfactored quadrature for j")

    tr = sub.add_parser("transform", help="integral transforms of a potential", parents=[common])
    tr.add_argument("which", choices=("k", "newton", "n", "s", "jt"))
    tr.add_argument("--potential", required=True, help="inline JSON or a file path")
    tr.add_argument("--x", type=str)
    tr.add_argument("--y", type=str)
    tr.add_argument("--t", type=float)

    norm = sub.add_parser("norm", help="sup search and divergence diagnosis", parents=[common])
    norm.add_argument("which", choices=("k", "newton", "ldh"))
    norm.add_argument("--potential", required=True)
    norm.add_argument("--grid-density", type=int, default=5)
    norm.add_argument("--multistarts", type=int, default=2)
    norm.add_argument("--nm-iters", type=int, default=60,
                      help="scipy's Nelder-Mead maxiter: at most N - 1 simplex steps per start")
    norm.add_argument("--radii", type=str, default=None,
                      help="comma-separated truncation ladder for the diagnosis")

    sim = sub.add_parser("simulate", help="bridge Monte Carlo", parents=[common])
    sim.add_argument("which", choices=("ratio", "s"))
    sim.add_argument("--potential", required=True)
    sim.add_argument("--t", type=float, required=True)
    sim.add_argument("--x", type=str, required=True)
    sim.add_argument("--y", type=str, required=True)
    sim.add_argument("--paths", type=int, default=10000)
    sim.add_argument("--steps", type=int, default=256)

    ver = sub.add_parser("verify", help="run a named verification suite", parents=[common])
    ver.add_argument("suite", choices=SUITE_IDS)
    ver.add_argument(
        "--cfg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="suite configuration override (JSON scalar or list), repeatable",
    )
    ver.add_argument("--timings", action="store_true", help="include wall-clock runtime")

    cex = sub.add_parser("counterexample", help="bounded Newton potential, infinite kernel norm", parents=[common])
    cex.add_argument("--radii", type=str, default=None)
    cex.add_argument("--compact-terms", type=int, default=2)
    cex.add_argument("--timings", action="store_true")
    return parser


# ---------------------------------------------------------------------------


def _cmd_kernel(args) -> int:
    spec = _spec_from_args(args)
    d = args.d
    if args.which == "f":
        for flag in ("a", "b", "beta"):
            if getattr(args, flag) is None:
                raise _UsageError(f"kernel f requires --{flag}")
        est = f_integral(args.a, args.b, args.beta, args.c, spec)
        _finite_or_fail(est, "f integral")
        _emit(_estimate_record(est), args.format)
        return 0
    if args.x is None or args.y is None:
        raise _UsageError(f"kernel {args.which} requires --x and --y")
    x = _parse_point(args.x, d, "--x")
    y = _parse_point(args.y, d, "--y")
    if args.which == "g":
        if args.t is None:
            raise _UsageError("kernel g requires --t")
        val = heat_kernel(args.t, x, y, d)
        _emit({"value": val, "error": 0.0, "status": "converged"}, args.format)
        return 0
    if args.which == "k0":
        val = k0(x, y, d)
        _emit({"value": val, "error": 0.0, "status": "converged"}, args.format)
        return 0
    # j kernel
    est = j_kernel_direct(x, y, d, spec) if args.direct else j_kernel(x, y, d, spec)
    _finite_or_fail(est, "J kernel")
    _emit(_estimate_record(est), args.format)
    return 0


def _cmd_transform(args) -> int:
    V = _load_potential(args.potential)
    spec = _spec_from_args(args)
    d = args.d
    x = _parse_point(args.x, d, "--x") if args.x else np.zeros(d)
    y = _parse_point(args.y, d, "--y") if args.y else np.zeros(d)
    if args.which in ("n", "s"):
        if args.t is None:
            raise _UsageError(f"transform {args.which} requires --t")
        bridge = BridgeSpec(args.t, tuple(x), tuple(y))
        est = (n_functional if args.which == "n" else s_functional)(V, bridge, spec)
    elif args.which == "k":
        est = k_transform(V, x, y, d, _route_spec(args, DEFAULT_SPEC_2D))
    elif args.which == "jt":
        est = j_transform(V, x, y, d, _route_spec(args, DEFAULT_SPEC_2D))
    else:
        est = newton_potential(V, x, d, _newton_spec(args, V))
    _finite_or_fail(est, f"transform {args.which}")
    _emit(_estimate_record(est), args.format)
    return 0


def _cmd_norm(args) -> int:
    V = _load_potential(args.potential)
    d = args.d
    if args.which == "ldh":
        est = lp_halfd_norm(V, d, _spec_from_args(args))
        _emit(_estimate_record(est), args.format)
        return 0
    try:
        strategy = SearchStrategy(
            grid_density=args.grid_density,
            multistarts=args.multistarts,
            nm_max_iter=args.nm_iters,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    ladder = (
        [float(r) for r in args.radii.split(",")] if args.radii else None
    )
    if args.which == "k":
        rep = k_norm(V, d, _route_spec(args, DEFAULT_SPEC_2D), strategy=strategy, ladder=ladder)
    else:
        rep = newton_norm(V, d, _newton_spec(args, V), strategy=strategy)
    record = _estimate_record(
        rep.estimate,
        sup={"value": rep.sup.value, "arg": rep.sup.arg, "evaluations": rep.sup.evaluations},
    )
    if rep.diagnosis is not None:
        record["diagnosis"] = {
            "verdict": rep.diagnosis.verdict.value,
            "model": rep.diagnosis.model.value,
            "slope": rep.diagnosis.slope,
            "r_squared": rep.diagnosis.r_squared,
            "radii": list(rep.diagnosis.radii),
            "values": list(rep.diagnosis.values),
        }
    _emit(record, args.format)
    return 0


def _cmd_simulate(args) -> int:
    V = _load_potential(args.potential)
    d = args.d
    x = _parse_point(args.x, d, "--x")
    y = _parse_point(args.y, d, "--y")
    bridge = BridgeSpec(args.t, tuple(x), tuple(y))
    mc = McConfig(args.paths, args.steps, args.seed)
    est = (g_ratio_mc if args.which == "ratio" else s_mc)(V, bridge, mc)
    _emit(
        {
            "value": est.mean,
            "error": est.std_error,
            "status": "converged",
            "paths": est.paths,
            "steps": args.steps,
            "seed": args.seed,
        },
        args.format,
    )
    return 0


def _parse_cfg_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _emit_report(report, args) -> int:
    """Print a suite report as JSON or as one CSV row per finding; the exit
    code says whether every finding passed."""
    if args.format == "csv":
        lines = ["name,value,bound,passed"]
        for f in report.findings:
            bound = str(f.bound).replace(",", ";")
            lines.append(f"{f.name},{_floatify(f.value)},{bound},{f.passed}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        rec = report.to_dict(include_runtime=args.timings)
        sys.stdout.write(json.dumps(_floatify(rec)) + "\n")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    cfg = dict(args.suite_dims)
    for item in args.cfg:
        if "=" not in item:
            raise _UsageError(f"--cfg expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        cfg[key.strip()] = _parse_cfg_value(val.strip())
    cfg.setdefault("seed", args.seed)
    try:
        _search_strategy(cfg)  # the norm suites' search, checked before any work
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    return _emit_report(run_suite(args.suite, cfg), args)


def _cmd_counterexample(args) -> int:
    cfg = {"seed": args.seed, "compact_terms": args.compact_terms, **args.suite_dims}
    if args.radii:
        cfg["radii"] = [float(r) for r in args.radii.split(",")]
    return _emit_report(run_suite("counterexample", cfg), args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code is not None else 2
    # the suites keep their own default dimension unless --d is given
    args.suite_dims = {"d": args.d} if hasattr(args, "d") else {}
    for key, val in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    try:
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (BridgepotError, ValueError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
