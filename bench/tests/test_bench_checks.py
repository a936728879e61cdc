"""The known-fault exemption and the oracles' child process."""

import subprocess
import sys
from types import SimpleNamespace

import pytest

import oracles
import run
import workloads

PROBE = workloads.K_KNOWN_FAULT_PROBE


def _estimate(value, status="converged"):
    return SimpleNamespace(value=value, error_bound=1e-9, converged=status == "converged",
                           status=SimpleNamespace(value=status))


@pytest.fixture
def aniso():
    wl = workloads.build("anisotropic-k", 0)
    wl.ref[PROBE] = 1.0
    wl.ref[PROBE + "/y0"] = _estimate(2.0)
    return wl


def test_only_the_faults_shortfall_is_known(aniso):
    check = aniso.checks[PROBE]
    acc = workloads.Accuracy()
    assert isinstance(check(_estimate(1.0 - 1.54e-5), {}, acc), workloads.KnownFault)
    assert check(_estimate(1.0 - 2e-7), {}, acc) is None  # a fixed k_transform passes
    for other in (_estimate(1.0 + 1.54e-5), _estimate(1.0 - 5e-5), _estimate(1.0 - 1.54e-5, "max_subdivisions_reached"),
                  _estimate(2.5 - 1.54e-5)):
        reason = check(other, {}, acc)
        assert reason and not isinstance(reason, workloads.KnownFault)
    assert "functionals.k_transform.worst_rel_err" not in acc.worst


def test_child_oracles_match_in_process():
    ball = ["balls", [[1.0, 1.0]]]
    requests = {
        "k": ["k_transform_d3", [ball, [0.45, 0.3, -0.2], [0.2, 1.1, 0.0]]],
        "s": ["bridge_potential", [ball, 0.8, [0.3, 0.0, 0.0], [0.0, 0.9, 0.0]]],
    }
    got = run.compute_oracles(requests)
    assert got == {key: oracles.ENTRY_POINTS[f](*args) for key, (f, args) in requests.items()}


def test_measured_process_loads_no_oracle_modules():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/bench'];"
        "import run, workloads; wl = workloads.build('bridge-mc', 0);"
        "wl.ref.update(run.compute_oracles(wl.oracles));"
        "print(len(wl.ref), sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(run.ROOT)], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["9", "[]"]
