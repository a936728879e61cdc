import json
import math

import pytest

from bridgepot.errors import BridgepotError
from bridgepot.verify import SUITE_IDS, run_suite

# scaled-down configurations keep this module quick; the acceptance module
# runs the full-size versions
SMALL = {
    "est2": {"grid_n": 4},
    "jk0": {"samples": 25},
    "lu": {"samples": 5},
    "main": {"grid_density": 3, "multistarts": 1, "nm_max_iter": 10},
    "d3": {"samples_identity": 4, "samples_domination": 8},
    "prop14": {"grid_density": 3, "multistarts": 1, "nm_max_iter": 10},
    "counterexample": {"newton_points": 8, "compact_terms": 1},
    "lemma_const": {},
    "gen_neg": {"paths": 4000, "steps": 64},
    "dilation": {"samples": 6},
}


def test_unknown_suite_rejected():
    with pytest.raises(BridgepotError):
        run_suite("nonsense")


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_suite_passes_small(suite_id):
    report = run_suite(suite_id, SMALL[suite_id])
    assert report.suite == suite_id
    assert report.findings, "every suite reports findings"
    assert report.passed, [f for f in report.findings if not f.passed]


def test_report_schema_and_serialization():
    report = run_suite("lemma_const", {})
    obj = report.to_dict()
    assert set(obj) == {"suite", "passed", "findings", "runtime_ms", "seed", "inputs"}
    for f in obj["findings"]:
        assert set(f) == {"name", "value", "bound", "passed"}
    assert obj["runtime_ms"] > 0.0
    # runtime can be masked for reproducible output
    masked = report.to_dict(include_runtime=False)
    assert masked["runtime_ms"] == 0.0
    json.dumps(masked, default=str)


def test_suite_determinism():
    a = run_suite("jk0", {"samples": 10, "seed": 5}).to_dict(include_runtime=False)
    b = run_suite("jk0", {"samples": 10, "seed": 5}).to_dict(include_runtime=False)
    assert a == b


def test_gen_neg_findings_pinned():
    # both ratios come from one shared draw of the paths; the findings are
    # those of two separate Monte Carlo calls.  eta is just below its t -> inf
    # value 0.1, which the long bridges of its sup search approach
    report = run_suite("gen_neg", {"paths": 2000, "steps": 64, "seed": 99})
    assert [(f.name, repr(f.value), f.bound, f.passed) for f in report.findings] == [
        ("gen_neg.ratio_negative_V", "0.6189957271517431", ">= exp(-S) = 0.610835", True),
        ("gen_neg.ratio_upper_1", "0.6189957271517431", "<= 1", True),
        ("gen_neg.eta", "0.09999999499713516", "< 1", True),
        ("gen_neg.ratio_positive_V", "1.0519345759547991", "<= 1/(1-eta) = 1.111111", True),
    ]


def test_lu_findings_report_the_gate_they_apply():
    # at seed 0 two S/N(t) ratios fall below 1e-2; the largest, m2, does not
    report = run_suite("lu", {"seed": 0})
    found = {f.name: f for f in report.findings}
    assert found["lu.m2_empirical"].passed and 1e-2 < found["lu.m2_empirical"].value < 1e2
    assert found["lu.m1_empirical"].passed
    outside = found["lu.S_over_N_t.outside_window"]
    assert (outside.value, outside.passed) == (2.0, False)
    assert found["lu.S_over_N_half_t.outside_window"].passed
    assert not report.passed
    assert run_suite("lu", {}).passed


def test_main_fails_on_an_infinite_kernel_norm():
    # the constant's kernel norm diverges; the report says so in a finding
    # and its verdict follows from the findings
    report = run_suite(
        "main",
        {
            "potentials": [
                '{"type": "constant", "value": -0.5}',
                '{"type": "ball", "radius": 1.0, "amplitude": -1.0}',
            ],
            "grid_density": 3,
            "multistarts": 1,
            "nm_max_iter": 5,
        },
    )
    failing = [f for f in report.findings if not f.passed]
    assert not report.passed
    assert [(f.name, f.value) for f in failing] == [("main.norm_K[potential 0]", math.inf)]
