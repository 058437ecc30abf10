"""Smoke test of the benchmark itself.

Runs ``python3 perfbench/run.py --smoke`` (every workload for a few
iterations, untraced and then traced) and checks what it prints against
BENCHMARK.json: every declared metric appears with its unit, nothing
failed, and the traced breakdown shows the layer each workload was built
to stress.  Run from the repository root with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRIC = re.compile(r"^(?:metric|layer) (\S+) = (\S+) (\S+) \(")


@pytest.fixture(scope="module")
def printed():
    """(workload, traced) -> {"metrics": {name: (value, unit)},
    "checks": {name: bool}, "top_self": [span names]}."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    blocks, block = {}, None
    for line in run.stdout.splitlines():
        if line.startswith("== "):
            name, _, trace = line[3:].split()
            block = {"metrics": {}, "checks": {}, "top_self": []}
            blocks[(name, trace == "trace=1")] = block
        elif block is None:
            continue
        elif m := METRIC.match(line):
            block["metrics"][m[1]] = (float(m[2]), m[3])
        elif line.startswith("check "):
            check, value = line[len("check "):].split(" = ")
            block["checks"][check] = value == "True"
        elif line.startswith("  "):
            block["top_self"].append(line.split()[0])
    return blocks


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced,kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(printed, workload,
                                                        traced, kind):
    block = printed[(workload, traced)]
    for metric in BENCH[kind]:
        assert metric["name"] in block["metrics"], metric["name"]
        assert block["metrics"][metric["name"]][1] == metric["unit"]
    assert block["metrics"]["failed_fraction"][0] == 0
    assert all(ok for check, ok in block["checks"].items()
               if not check.startswith("info_")), block["checks"]


def test_trace_shows_the_layer_each_workload_stresses(printed):
    def layer(workload, name):
        return printed[(workload, True)]["metrics"][name][0]

    assert layer("distill_sm_tmkd", "model.teacher_forward.ms") > 0
    assert layer("teacher_ft", "model.teacher_forward.ms") == 0
    assert printed[("bound_verify", True)]["top_self"][0] == "mixup.make_pairs"
    eval_share = layer("eval_long", "kernels.share")
    assert eval_share > layer("distill_sm_tmkd", "kernels.share")
    assert eval_share > layer("teacher_ft", "kernels.share")
    assert printed[("distill_sm_tmkd", True)]["checks"][
        "traced_equals_untraced_bitwise"]
