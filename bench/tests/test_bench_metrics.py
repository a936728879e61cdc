"""The metrics the runner prints are the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import run
import workloads
from spans import Tracer

DECLARED = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _round(seconds: float) -> run.RoundResult:
    res = run.RoundResult()
    res.raw = res.rescaled = res.cpu = [seconds]
    res.refs = [run.REF_NOMINAL_S]
    return res


def test_per_layer_names_and_units_match():
    layer = run.per_layer(Tracer(), workloads.Accuracy(), [_round(1.0)], [_round(1.1)])
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert layer["trace.overhead"][0] == 1.1


def test_workload_names_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.BUILDERS) == set(run.WORKLOADS)


def test_inputs_depend_on_the_seed_alone():
    for name in run.WORKLOADS:
        a, b, c = (
            [repr(op.call.__defaults__) for op in workloads.build(name, seed).ops] for seed in (3, 3, 4)
        )
        assert a == b
        assert a != c
