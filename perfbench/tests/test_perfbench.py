"""Tests of the benchmark itself (not of deepself).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import deepself  # noqa: E402
import deepself.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.Workload(
    "smoke", "tiny sizes for the benchmark's own tests", workloads.CNN2D_MODEL, "logmel",
    0.001, 10, 32, 16, 16, 20, (0.3, 0.3, 0.4), 4)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    w = replace(workloads.WORKLOADS[name], pipeline_files=8)
    a = workloads.make_inputs(deepself, w, 7, tmp_path / "a")
    b = workloads.make_inputs(deepself, w, 7, tmp_path / "b")
    c = workloads.make_inputs(deepself, w, 8, tmp_path / "c")
    assert workloads.input_digest(a) == workloads.input_digest(b)
    assert workloads.input_digest(a) != workloads.input_digest(c)


def test_traced_model_outputs_are_bit_identical(tmp_path):
    inp = workloads.make_inputs(deepself, SMOKE, 3, tmp_path)
    cfg = deepself.config.load_config(inp.library_ini)
    spec = cfg.model_spec(inp.x_train.shape[1:], workloads.N_CLASSES)
    plain, _ = workloads.probe_logits(deepself, spec, inp, 3, cfg.learning_rate)
    tracer = tracing.Tracer()
    tracer.install(deepself)
    try:
        traced, _ = workloads.probe_logits(deepself, spec, inp, 3, cfg.learning_rate)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    table = tracing.SpanTable(tracer.spans(), tracer.names)
    assert table.named("models.forward").sum() == 4  # three steps and the final logits
    assert table.named("tensor.backward").sum() == 3
    assert deepself.models.forward.__name__ == "forward"
    assert not hasattr(deepself.models.forward, "__wrapped__")


def test_self_time_subtracts_children():
    spans = np.array([
        # id, name, start, end, parent, thread
        [0, 0, 0.0, 10.0, -1, 1],
        [1, 1, 1.0, 4.0, 0, 1],
        [2, 1, 5.0, 6.0, 0, 1],
        [3, 0, 20.0, 21.0, -1, 1],
    ])
    table = tracing.SpanTable(spans, ["bench.step", "tensor.add"])
    assert table.self_time.tolist() == [6.0, 3.0, 1.0, 1.0]
    assert table.within(table.named("bench.step")).tolist() == [False, True, True, False]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_quick_and_complete(tmp_path, trace):
    start = time.perf_counter()
    result = workloads.run(deepself, "smoke", 0, 1.0, trace, tmp_path, workload=SMOKE)
    assert time.perf_counter() - start < 90
    assert result["failed"] == 0, result["details"]["failures"]
    if trace:
        assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert result["per_layer"]["tensor.tape_records_per_step"] == 11
    else:
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert all(value > 0 for value, _ in result["metrics"].values())
    assert not list((tmp_path / ".bench_out").glob("work-*"))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rnn-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
