"""Tests of the benchmark itself.

They check that the work counters repeat exactly and match the
criterion-1 size, that the per-point curve calls reproduce a full-scan
call, that the tracer's self-time arithmetic holds, and that the result
line follows BENCHMARK.json.  They run the real workloads and take a
few minutes:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from geminal import chem, hybrid  # noqa: E402
from run import _kind_min  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import POINT_SEED_STRIDE, WORKLOADS, _point_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(name, seed=1):
    workload = WORKLOADS[name](seed, ROOT)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run_pass(item_clock=False)
    finally:
        tracer.restore()
    return result, layer_metrics(tracer)


def counters(layers):
    """Every per-layer metric that counts work rather than time."""
    return {
        name: value
        for name, (value, unit) in layers.items()
        if unit in ("count", "B") and not name.startswith("trace.")
    }


def test_point_noisy_counters_repeat_and_match_seed_1_counts():
    first, layers_a = traced_pass("point-noisy")
    second, layers_b = traced_pass("point-noisy")
    assert all(item.ok for item in first.items)
    assert counters(layers_a) == counters(layers_b)
    assert first.digest == second.digest
    assert layers_a["hybrid.objective.calls"][0] == 416
    assert layers_a["tomography.preparations"][0] == 1272
    assert layers_a["tomography.preps_per_eval"][0] <= 3
    assert layers_a["qsim.run_trajectories.calls"][0] == 1272


def test_scan_noisy_counters_repeat():
    first, layers_a = traced_pass("scan-noisy")
    second, layers_b = traced_pass("scan-noisy")
    assert all(item.ok for item in first.items)
    assert counters(layers_a) == counters(layers_b)
    assert first.digest == second.digest
    assert layers_a["tomography.preparations"][0] == 11 * 11 + 11
    assert layers_a["qsim.trajectories"][0] == (11 * 11 + 11) * 2048
    assert layers_a["hybrid.objective.calls"][0] == 0


def test_curve_sampled_counters_at_criterion_1_size():
    result, layers = traced_pass("curve-sampled")
    assert all(item.ok for item in result.items)
    assert layers["hybrid.objective.calls"][0] == 19756
    assert layers["tomography.preparations"][0] == 24544
    assert layers["tomography.preps_per_eval"][0] == 3
    assert layers["qsim.run_trajectories.calls"][0] == 0
    untraced = WORKLOADS["curve-sampled"](1, ROOT).run_pass()
    assert untraced.digest == result.digest


def test_per_point_calls_reproduce_one_full_scan_call():
    values = np.linspace(0.5, 5.0, 12)[:4]
    config = hybrid.HybridConfig(shots=2048, seed=3)
    full = hybrid.dissociation_curve(chem.h2_molecule, values, config)
    single = [
        hybrid.dissociation_curve(
            chem.h2_molecule, [v], replace(config, seed=3 + POINT_SEED_STRIDE * i)
        )[0]
        for i, v in enumerate(values)
    ]
    assert [_point_record(p) for p in full] == [_point_record(p) for p in single]


def test_self_time_subtracts_children_and_restore_unpatches():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()
        ns.inner()

    ns.outer = outer
    original_inner = ns.inner
    tracer = Tracer()
    tracer._wrap(ns, "inner", "inner")
    tracer._wrap(ns, "outer", "outer")
    ns.outer()
    tracer.restore()
    assert ns.inner is original_inner and ns.outer is outer
    selfs = tracer.self_times()
    assert selfs["inner"][0] == 2 and selfs["outer"][0] == 1
    assert 0.04 <= selfs["inner"][1] < 0.06
    assert 0.01 <= selfs["outer"][1] < 0.02
    parents = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    outer_id = next(s[0] for s in tracer.spans if s[1] == "outer")
    assert parents["inner"] == outer_id and parents["outer"] == -1


def test_kind_min_weights_each_kind_by_its_count():
    values = [3.0, 1.0, 2.0, 20.0, 10.0]
    kinds = ["a", "a", "a", "b", "b"]
    assert _kind_min(values, kinds) == (3 * 1.0 + 2 * 10.0) / 5
    assert _kind_min(values[:3], kinds[:3]) == 1.0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    proc = run_bench(ROOT, "--workload", "scan-noisy", "--seed", "2",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "curve-sampled", "--seconds", "1")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
