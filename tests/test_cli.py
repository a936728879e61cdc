import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bridgepot.cli import main


def run_cli(*args):
    """Invoke main() in-process, capturing stdout/stderr."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


BALL = '{"type":"ball","radius":1.0,"amplitude":-1.0}'


def test_kernel_f_example():
    code, out, _ = run_cli("kernel", "f", "--a", "1", "--b", "1", "--beta", "1.5", "--c", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "converged"
    assert rec["value"] == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    # value is inside [2 i_app, 4 i_app] = [f/2, f] here by the sandwich
    assert set(rec) >= {"value", "error", "status"}


def test_kernel_k0_example():
    code, out, _ = run_cli("kernel", "k0", "--d", "4", "--x", "2,0,0,0", "--y", "0,0,0,0")
    assert code == 0
    assert json.loads(out)["value"] == 0.25


def test_kernel_g_and_j():
    code, out, _ = run_cli("kernel", "g", "--t", "1", "--x", "0,0,0", "--y", "0,0,0")
    assert json.loads(out)["value"] == pytest.approx((4 * math.pi) ** -1.5)
    code, out, _ = run_cli("kernel", "j", "--x", "1,0,0", "--y", "0,0,0")
    assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(math.pi), rel=1e-10)
    code, out, _ = run_cli("kernel", "j", "--x", "1,0,0", "--y", "2,0,0", "--direct")
    assert code == 0


def test_transform_commands():
    code, out, _ = run_cli("transform", "newton", "--potential", BALL, "--x", "0,0,0")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.5, rel=1e-9)
    code, out, _ = run_cli(
        "transform", "s", "--potential", '{"type":"constant","value":-0.7}',
        "--t", "2", "--x", "0,0,0", "--y", "0,0,0",
    )
    assert json.loads(out)["value"] == pytest.approx(1.4, rel=1e-9)
    code, out, _ = run_cli("transform", "k", "--potential", BALL, "--x", "1,0,0", "--y", "0,1,0")
    assert code == 0 and json.loads(out)["status"] == "converged"
    kv = json.loads(out)["value"]
    code, out, _ = run_cli("transform", "jt", "--potential", BALL, "--x", "1,0,0", "--y", "0,1,0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(math.pi) * kv, rel=1e-9)
    code, out, _ = run_cli(
        "transform", "n", "--potential", '{"type":"constant","value":-0.5}',
        "--t", "2", "--x", "0,0,0", "--y", "0,0,0",
    )
    assert json.loads(out)["value"] == pytest.approx((4 * math.pi) ** 1.5, rel=1e-9)


@pytest.mark.parametrize("which", ["k", "jt"])
def test_transform_k_and_jt_honour_quadrature_flags(which):
    # at 1e-10 the off-centre ball needs more than one 2D subdivision
    ball = '{"type":"ball","center":[0.5,0,0],"radius":1.0,"amplitude":-1.0}'
    probe = ("transform", which, "--potential", ball, "--x", "2,0,0", "--y", "1,0,0", "--rel-tol", "1e-10")
    code, out, _ = run_cli(*probe)
    rec = json.loads(out)
    assert code == 0 and rec["status"] == "converged"
    assert rec["error"] <= 1e-10 * abs(rec["value"])
    code, out, err = run_cli(*probe, "--max-subdivisions", "1")
    assert code == 1 and out == "" and "max_subdivisions_reached" in err


def test_transform_jt_d4_honours_quadrature_flags():
    # the drift-time integral of j_transform at d >= 4 takes the given spec
    probe = ("transform", "jt", "--potential", BALL, "--d", "4", "--x", "3,0,0,0", "--y", "0,5,0,0")
    code, default, _ = run_cli(*probe)
    assert code == 0 and json.loads(default)["status"] == "converged"
    code, starved, _ = run_cli(*probe, "--max-subdivisions", "1")
    assert code == 0 and json.loads(starved)["value"] != json.loads(default)["value"]


def test_transform_k_radial_y0_honours_quadrature_flags():
    # the y = 0 route of a radial potential takes the given spec as given
    shell = (
        '{"type":"radial_power","exponent":0.5,"inner_radius":0.0,"outer_radius":3.0,'
        '"amplitude":-1.0}'
    )
    probe = ("transform", "k", "--potential", shell, "--x", "0.5,0.2,0", "--rel-tol", "1e-12")
    code, out, _ = run_cli(*probe)
    assert code == 0 and json.loads(out)["status"] == "converged"
    code, out, err = run_cli(*probe, "--max-subdivisions", "1")
    assert code == 1 and out == "" and "max_subdivisions_reached" in err


def test_norm_commands():
    code, out, _ = run_cli(
        "norm", "newton", "--potential", BALL, "--grid-density", "3", "--multistarts", "1"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["value"] == pytest.approx(0.5, rel=1e-6)
    # the probes requested, repeats included; 66 also without the memo
    assert rec["sup"]["evaluations"] == 66
    code, out, _ = run_cli("norm", "ldh", "--potential", BALL, "--d", "4")
    assert json.loads(out)["value"] == pytest.approx((math.pi**2 / 2) ** 0.5, rel=1e-9)


def test_norm_divergence_reported():
    code, out, _ = run_cli(
        "norm", "k", "--potential", '{"type":"counterexample_a"}', "--d", "4",
        "--grid-density", "3", "--multistarts", "1", "--nm-iters", "5",
        "--radii", "1e2,1e3,1e4,1e5",
    )
    rec = json.loads(out)
    assert code == 0  # a divergence verdict is a successful computation
    assert rec["status"] == "diverged" and rec["value"] == "inf"
    assert rec["diagnosis"]["verdict"] == "divergent"


def test_simulate_commands():
    args = (
        "simulate", "ratio", "--potential", '{"type":"constant","value":-0.5}',
        "--t", "2", "--x", "0,0,0", "--y", "0,0,0", "--paths", "50", "--steps", "8",
        "--seed", "3",
    )
    code, out, _ = run_cli(*args)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_verify_command_and_csv():
    code, out, _ = run_cli("verify", "lemma_const")
    rec = json.loads(out)
    assert code == 0 and rec["passed"] is True
    assert rec["runtime_ms"] == 0.0  # suppressed unless --timings
    code, out, _ = run_cli("verify", "lemma_const", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "name,value,bound,passed"
    assert len(lines) == 4


def test_verify_cfg_override():
    code, out, _ = run_cli("verify", "jk0", "--cfg", "samples=5", "--cfg", "dims=[3]")
    rec = json.loads(out)
    assert code == 0 and rec["inputs"]["samples"] == 5


def test_counterexample_csv_output():
    code, out, _ = run_cli(
        "counterexample", "--radii", "1e2,1e3,1e4,1e5", "--compact-terms", "0", "--d", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "name,value,bound,passed\n"
        "counterexample.k_truncation_verdict,1.0,divergent,True\n"
        "counterexample.k_log_slope,3.613537449860257,> 0,True\n"
        "counterexample.k_fit_r2,0.9999999935352817,>= 0.99,True\n"
        "counterexample.newton_tail_max_over_min,1.067877799838191,< 2,True\n"
        "counterexample.newton_sup_probed,0.4999999528280536,finite,True\n"
        "counterexample.lp_halfd_norm,inf,= +inf (diverged),True\n"
    )


def test_counterexample_command():
    code, out, _ = run_cli(
        "counterexample", "--radii", "1e2,1e3,1e4,1e5", "--compact-terms", "0", "--d", "4"
    )
    rec = json.loads(out)
    assert code == 0 and rec["passed"] is True
    names = {f["name"] for f in rec["findings"]}
    assert "counterexample.k_truncation_verdict" in names


def test_suite_commands_honour_d():
    # --d reaches the suite config; without it each suite keeps its own default,
    # and an explicit --cfg d=... wins over --d
    code, out, _ = run_cli("counterexample", "--d", "5", "--compact-terms", "0")
    rec = json.loads(out)
    assert code == 0 and rec["passed"] is True and rec["inputs"]["d"] == 5
    code, out, _ = run_cli("verify", "lemma_const", "--d", "5")
    rec = json.loads(out)
    assert code == 0 and rec["passed"] is True
    assert rec["inputs"] == {"d": 5, "betas": [2.9, 3.1]}
    assert json.loads(run_cli("verify", "lemma_const")[1])["inputs"]["d"] == 4
    _, out, _ = run_cli("--d", "5", "verify", "lemma_const", "--cfg", "d=6")
    assert json.loads(out)["inputs"]["d"] == 6


def test_exit_codes():
    # unknown subcommand -> 2 (argparse)
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    # malformed potential -> 2
    code, _, err = run_cli("transform", "k", "--potential", "{bad json", "--x", "0,0,0", "--y", "0,0,0")
    assert code == 2 and "usage error" in err
    # bad point parse -> 2
    code, _, _ = run_cli("kernel", "g", "--t", "1", "--x", "a,b,c", "--y", "0,0,0")
    assert code == 2
    # dimension mismatch -> 2
    code, _, _ = run_cli("kernel", "g", "--t", "1", "--x", "0,0", "--y", "0,0,0")
    assert code == 2
    # computation that cannot converge in budget -> 1, no partial value printed
    code, out, err = run_cli(
        "kernel", "f", "--a", "1", "--b", "1", "--beta", "1.01", "--c", "1",
        "--rel-tol", "1e-14", "--max-subdivisions", "1",
    )
    assert code == 1 and out == "" and "computation error" in err
    # a search with no grid or a negative number of starts -> 2
    for flag, val, field in (("--grid-density", "0", "grid_density"), ("--multistarts", "-1", "multistarts")):
        code, out, err = run_cli("norm", "newton", "--potential", BALL, flag, val)
        assert code == 2 and out == "" and f"usage error: {field}" in err
    # the same search asked for by a suite's --cfg -> 2, before the suite runs
    code, out, err = run_cli("verify", "main", "--cfg", "grid_density=0")
    assert code == 2 and out == "" and "usage error: grid_density must be >= 1" in err
    # d < 3 -> 1 with the dedicated dimension message
    code, _, err = run_cli("kernel", "g", "--t", "1", "--x", "0,0", "--y", "0,0", "--d", "2")
    assert code == 1 and "d=1 and d=2" in err
    # a non-integral suite dimension -> 1, not a run at the truncated integer
    code, out, err = run_cli("verify", "lemma_const", "--cfg", "d=3.7")
    assert code == 1 and out == "" and "dimension must be an integer" in err


def test_float_round_trip_format():
    code, out, _ = run_cli("kernel", "k0", "--x", "1,0,0", "--y", "0,1,0")
    val = json.loads(out)["value"]
    assert val == math.exp(-0.5)  # shortest repr round-trips exactly


def test_cli_determinism_subprocess():
    cmd = [
        sys.executable, "-m", "bridgepot.cli",
        "simulate", "s", "--potential", BALL,
        "--t", "1", "--x", "0,0,0", "--y", "1,0,0",
        "--paths", "500", "--steps", "32", "--seed", "9",
    ]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_import_loads_no_scipy_optimize_integrate_or_stats():
    # the cold start of every command loads no scipy at all; scipy.special
    # loads on the first CDF call, and the K routes and the bridge Monte
    # Carlo make none
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = """
import sys
import bridgepot, bridgepot.cli
from bridgepot import (
    BallIndicator, BridgeSpec, CounterexampleA, McConfig, g_ratio_mc, k_transform, s_functional,
)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(loaded())
ball = BallIndicator(None, 1.0, -1.0)
k_transform(ball, (0.3, 0.1, 0.0), (0.5, 0.0, 0.2))
k_transform(CounterexampleA(z1_max=10.0), (2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 4)
g_ratio_mc(ball, BridgeSpec(1.0, (0.0, 0.0, 0.0), (0.5, 0.0, 0.0)), McConfig(50, 8, 0))
print(loaded())
# a d = 4 ball overlap at sigma > R/10 is the noncentral chi-squared CDF
s_functional(ball, BridgeSpec(1.0, (0.2, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)))
print("scipy.special" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n[]\nTrue\n"


def test_simulate_ratio_of_a_negated_negative_power():
    # V = r^-1 on [0.2, 2] has a bounded positive part; its bound used to
    # recurse until RecursionError
    V = ('{"type":"scale","factor":-1.0,"inner":{"type":"radial_power","exponent":-1.0,'
         '"inner_radius":0.2,"outer_radius":2.0,"amplitude":-1.0}}')
    code, out, _ = run_cli(
        "simulate", "ratio", "--potential", V, "--t", "1", "--x", "0,0,0", "--y", "1,0,0",
        "--paths", "200", "--steps", "16", "--seed", "3",
    )
    assert code == 0 and math.isfinite(json.loads(out)["value"])


def test_norm_k_honours_quadrature_flags():
    probe = (
        "norm", "k", "--potential", BALL, "--grid-density", "3", "--multistarts", "1",
        "--nm-iters", "5",
    )
    code, default, _ = run_cli(*probe)
    assert code == 0 and json.loads(default)["status"] == "converged"
    code, starved, _ = run_cli(*probe, "--max-subdivisions", "1", "--rel-tol", "1e-14")
    assert code == 0 and json.loads(starved)["status"] == "max_subdivisions_reached"


def test_transform_newton_axial_honours_quadrature_flags():
    # an off-centre ball on the axis takes the axial route at d = 4
    ball = '{"type":"ball","center":[1,0,0,0],"radius":1.0,"amplitude":-1.0}'
    probe = ("transform", "newton", "--d", "4", "--potential", ball, "--x", "3,0,0,0")
    code, loose, _ = run_cli(*probe, "--rel-tol", "1e-3")
    assert code == 0
    code, tight, _ = run_cli(*probe, "--rel-tol", "1e-9")
    assert code == 0
    loose, tight = json.loads(loose), json.loads(tight)
    assert tight["error"] <= 1e-9 * tight["value"] < loose["error"]
