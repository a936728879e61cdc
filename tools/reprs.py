"""Record every number the benchmark workloads and ``bridgepot verify`` print,
and compare two such records bit for bit.

    python tools/reprs.py write OUT.json [--root CHECKOUT]
    python tools/reprs.py diff A.json B.json

``write`` builds, from the checkout CHECKOUT (default: the one holding this
file), every workload of ``bench/workloads.py`` at seeds 0, 1 and 2, makes
its untimed ``prepare`` calls and then runs every operation once, in order,
and keeps the ``repr`` of each program result ``prepare`` puts in ``ref``
and of each operation's result; then it keeps the ``repr`` of the growth
ladders that no workload or suite reaches (the unbounded radial Newton
potential and L^{d/2} norm at d = 4, K at y = 0 on an unbounded radial
support at d = 3 and 4, and kappa's shell ladder at d = 5), and of the
branches of the radial y != 0 kernel that no workload reaches (sin^m
powers m = 2 and 3 at d = 5 and 6, x = 0, where every row is degenerate,
and a power cell with lo = 0);
then it runs the ten ``bridgepot verify`` suites at their defaults
and at ``--seed 0``, one process each, and keeps each report's standard
output and exit code.
``diff`` prints every entry that differs between two records, or is in
only one, and exits 1 if there is any.  A change meant to move no number
writes one record per checkout, parent and change, and diffs them.

Nothing under ``bench/`` is changed: the workloads are only imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PARTS = ("workloads", "ladders", "branches", "verify")
VERIFY_ARGS = ([], ["--seed", "0"])
SEEDS = (0, 1, 2)
CLI = "import sys; from bridgepot.cli import main; sys.exit(main(sys.argv[1:]))"


def _workload_reprs(root: Path) -> dict[str, str]:
    sys.path[:0] = [str(root / "src"), str(root)]
    from bench import workloads

    out = {}
    for name in sorted(workloads.BUILDERS):
        for seed in SEEDS:
            work = workloads.build(name, seed)
            # with no oracle run, ref holds only what prepare computed
            work.prepare()
            for key, value in work.ref.items():
                out[f"{name}/seed{seed}/{key}"] = repr(value)
            results: dict = {}
            for op in work.ops:
                try:
                    results[op.key] = op.call(results)
                    out[f"{name}/seed{seed}/{op.key}"] = repr(results[op.key])
                except Exception as exc:  # a failing operation is a number too
                    out[f"{name}/seed{seed}/{op.key}"] = f"raised {exc!r}"
    return out


def _ladder_reprs(root: Path) -> dict[str, str]:
    sys.path[:0] = [str(root / "src")]
    from bridgepot.functionals import k_transform, newton_potential
    from bridgepot.kernels import kappa
    from bridgepot.potentials import Constant, RadialPower, lp_halfd_norm

    out = {}
    tail = RadialPower(-3.0, 1.0, math.inf, -1.0)
    for x1 in (0.0, 0.5, 2.0, 40.0):
        out[f"newton_potential/d4/x1={x1}"] = repr(newton_potential(tail, [x1, 0.0, 0.0, 0.0], 4))
    # K at y = 0 on an unbounded support: convergent for the tail, divergent
    # for a constant
    for name, V, d in (("tail", tail, 3), ("tail", tail, 4), ("constant", Constant(1.0), 3)):
        key = f"k_transform/y0/{name}/d{d}/x2=0.7"
        try:
            out[key] = repr(k_transform(V, [0.0, 0.7] + [0.0] * (d - 2), [0.0] * d, d))
        except Exception as exc:  # a failing call is a number too
            out[key] = f"raised {exc!r}"
    # convergent at d = 4 for the power -3, divergent for -1
    for power in (-3.0, -1.0):
        V = RadialPower(power, 1.0, math.inf, -1.0)
        out[f"lp_halfd_norm/d4/power={power}"] = repr(lp_halfd_norm(V, 4))
    # convergent above beta = (d + 1) / 2 = 3
    for beta in (2.8, 3.2):
        out[f"kappa/d5/beta={beta}"] = repr(kappa(5, exponent_override=beta))
    return out


def _branch_reprs(root: Path) -> dict[str, str]:
    sys.path[:0] = [str(root / "src")]
    from bridgepot.functionals import k_transform
    from bridgepot.potentials import BallIndicator, RadialPower, Sum

    ball = BallIndicator(None, 1.0, -1.0)
    balls = Sum((ball, BallIndicator(None, 2.0, -0.5)))
    shell = RadialPower(-1.0, 0.2, 2.0, -1.0)
    power = RadialPower(0.5, 0.0, 1.5, -1.0)  # a power cell from lo = 0
    cases = (
        ("ball", ball, 5, (0.6, 0.3)),
        ("shell", shell, 5, (0.6, 0.3)),
        ("shell", shell, 6, (0.6, 0.3)),
        ("balls", balls, 6, (0.6, 0.3)),
        ("shell", shell, 3, (0.0,)),
        ("shell", shell, 4, (0.0,)),
        ("power", power, 3, (0.6, 0.3)),
        ("power", power, 4, (0.6, 0.3)),
    )
    out = {}
    for name, V, d, x in cases:
        key = f"k_transform/{name}/d{d}/x={','.join(map(str, x))}"
        xv, yv = [*x] + [0.0] * (d - len(x)), [0.2, 1.1] + [0.0] * (d - 2)
        try:
            out[key] = repr(k_transform(V, xv, yv, d))
        except Exception as exc:  # a failing call is a number too
            out[key] = f"raised {exc!r}"
    return out


def _verify_reports(root: Path) -> dict[str, dict]:
    sys.path[:0] = [str(root / "src")]
    from bridgepot.verify import SUITE_IDS

    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = {}
    for suite in SUITE_IDS:
        for extra in VERIFY_ARGS:
            done = subprocess.run(
                [sys.executable, "-c", CLI, "verify", suite, *extra],
                capture_output=True, text=True, env=env, cwd=root,
            )
            out[" ".join(["verify", suite, *extra])] = {"exit": done.returncode, "stdout": done.stdout}
    return out


def write(path: Path, root: Path) -> None:
    record = {
        "workloads": _workload_reprs(root),
        "ladders": _ladder_reprs(root),
        "branches": _branch_reprs(root),
        "verify": _verify_reports(root),
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(", ".join(f"{len(record[part])} {part}" for part in PARTS))


def diff(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = 0
    for part in PARTS:
        # a record written before a part existed has none of its entries
        lpart, rpart = left.get(part, {}), right.get(part, {})
        for key in sorted(set(lpart) | set(rpart)):
            if lpart.get(key) != rpart.get(key):
                differ += 1
                print(f"{part} {key}:\n  {lpart.get(key)!r}\n  {rpart.get(key)!r}")
        print(f"{part}: {len(lpart)} and {len(rpart)} entries")
    print(f"{differ} differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write")
    w.add_argument("out", type=Path)
    w.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    d = sub.add_parser("diff")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out, args.root.resolve())
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
