"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, each in its own process, once untraced and
once traced.  Every run must pass its output checks with nothing failed,
and print exactly the end-to-end (untraced) or per-layer (traced)
metrics that BENCHMARK.json names, each with its declared unit.  Exits
non-zero on the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1.5"  # enough for a traced and an untraced message on every workload
SEED = "7"


def check(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-2000:]}{proc.stdout[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"output checks failed: {result['failed']} of {result['attempted']}"
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                f"units {[n for n in want if n in got and got[n] != want[n]]}")
    bad = [n for n, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        return f"non-numeric values: {bad}"
    zero = [m["name"] for m in spec["end_to_end"] if not trace
            and result["metrics"][m["name"]]["value"] <= 0]
    if zero:
        return f"end-to-end metrics not positive: {zero}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {problem or 'ok'}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
