"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 30 --trace 0

Run from the root of a policycast checkout: the program is imported from
its src/ directory, never from an installed copy.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the traced loop and prints the
per-layer metrics, the per-hop table and the tracing overhead.

The process pins itself to one CPU before any node starts.  Every node
runs in this one interpreter and shares its lock, so a second CPU adds
no parallelism; it only moves each hand-off of that lock between CPUs,
where a busy host can delay it, and that made the timings swing from
run to run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
run's environment.  The exit code is 0 only when every output check
passed.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _pin_to_one_cpu():
    """Restrict this process, and the threads it starts later, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "policycast" / "__init__.py").is_file():
        print(f"no policycast sources under {SRC}", file=sys.stderr)
        return 2
    cpu = _pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import closedloop
    import tracing

    wl = WORKLOADS[args.workload]
    meta = {"workload": wl.name, "seed": args.seed, "profile": wl.profile,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "python": platform.python_version(), "commit": _git_commit(),
            "loadavg_start": _loadavg()}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    try:
        result = closedloop.run_workload(wl, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = _loadavg()
    meta.update(result["info"])

    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["e2e"].items()}
    else:
        messages = result["messages"]
        metrics = tracing.layer_metrics(tracer.spans, messages, result["errors"])
        spans_path = WORK / f"trace-{wl.name}.jsonl"
        tracer.write(spans_path)
        meta["spans"] = len(tracer.spans)
        print(f"per-hop latency, {wl.name}, traced messages only:")
        for line in tracing.hop_table(tracing.hop_samples(tracer.spans, messages)):
            print("  " + line)
    correct = result["failed"] == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
