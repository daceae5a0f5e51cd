"""The timing tools must keep finding the names they time, and time CPU."""

import importlib.util
import time
from pathlib import Path

from policycast import bench

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_PAIRING = ROOT / "tools" / "bench_pairing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    # Tracer() looks up each wrapped policycast name and raises if one is
    # gone or re-bound, so a rename fails here, not in `--trace 1` runs
    tracing = _load("perfbench_tracing", TRACING)
    assert tracing.Tracer()._wrappers


def test_pairing_timing_tool_times_every_op():
    # a rename in pairing, groups or absc fails here, not in the next
    # run of the tool: one row per (op, n), 10 ops at n = 1, pt_mul_fixed
    # at 3 batch sizes and 7 scheme ops at 3 attribute counts
    tool = _load("bench_pairing", BENCH_PAIRING)
    tool.REPEATS = 2
    rows = tool.bench_profile("ASYMMETRIC_159")
    keys = {(row["op"], row["n"]) for row in rows}
    assert len(rows) == len(keys) == 34
    assert all(row["repeats"] == 2 for row in rows)


def test_bench_rounds_read_thread_cpu_time():
    # time the host spends elsewhere, here a sleep, is not counted
    [samples] = bench._time_rounds([lambda: time.sleep(0.05)], 2)
    assert len(samples) == 2
    assert max(samples) < 5
