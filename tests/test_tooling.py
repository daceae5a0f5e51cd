"""The benchmark's per-layer tracer must keep finding the names it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_wraps_every_target():
    # Tracer() looks up each wrapped policycast name and raises if one is
    # gone or re-bound, so a rename fails here, not in `--trace 1` runs
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer()._wrappers
