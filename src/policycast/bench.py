"""Timing harness for the four scheme operations.

Each measurement point is a single operation against an n-attribute AND
policy, for n over the requested range.  The points of one profile are
timed in rounds: every round calls each point once, one after another,
and the first round is a discarded warm-up, so each point gets `trials`
timed runs spread over the whole profile.  A slow phase of the host then
lands on a few runs of many points, which their medians drop, instead of
on every run of a few neighbouring points.  Each run reads the calling
thread's CPU time (time.thread_time), not wall time: the operations are
single-threaded compute, so time the host gives to other processes is
not counted.  Results can be dumped as CSV with one row per (profile,
operation, attribute count).
"""

import csv
import random
import statistics
import time
from dataclasses import dataclass, fields

from . import absc
from .groups import GroupContext

OPERATIONS = ("setup", "keygen", "signcrypt", "designcrypt")


@dataclass(frozen=True)
class BenchResult:
    profile: str
    operation: str
    attribute_count: int
    trials: int
    mean_ms: float
    median_ms: float
    min_ms: float
    max_ms: float


def _attrs(n):
    return [f"attr{i:02d}" for i in range(n)]


def _and_policy(n):
    return " and ".join(_attrs(n))


def _time_rounds(fns, trials):
    """Call every fn once per round for a warm-up round plus `trials`
    timed rounds; returns one list of `trials` samples (ms of the
    thread's CPU time) per fn."""
    samples = [[] for _ in fns]
    for fn in fns:
        fn()  # warm-up, discarded
    for _ in range(trials):
        for fn, out in zip(fns, samples):
            t0 = time.thread_time()
            fn()
            out.append((time.thread_time() - t0) * 1000.0)
    return samples


def _point_ops(ctx, pp, mk, msg, n, rng):
    """The four operations at attribute count n, as zero-argument calls."""
    attrs = _attrs(n)
    policy = _and_policy(n)
    key = absc.keygen(pp, mk, attrs, rng)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    st, ct_msg = absc.signcrypt(pp, sk, msg, policy, rng)
    return {
        "setup": lambda: absc.setup(ctx, rng),
        "keygen": lambda: absc.keygen(pp, mk, attrs, rng),
        "signcrypt": lambda: absc.signcrypt(pp, sk, msg, policy, rng),
        "designcrypt": lambda: absc.designcrypt(pp, st, ct_msg, key, vk),
    }


def run_bench(profiles, operations=OPERATIONS, counts=range(2, 20),
              trials=5, msg_size=1024, seed=1234):
    """Run the requested measurements; returns a list of BenchResult."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for op in operations:
        if op not in OPERATIONS:
            raise ValueError(f"unknown operation {op!r}")
    results = []
    for profile in profiles:
        ctx = GroupContext(profile)
        rng = random.Random(seed)
        pp, mk = absc.setup(ctx, rng)
        msg = rng.getrandbits(8 * msg_size).to_bytes(msg_size, "big") if msg_size else b"\x00"
        points, fns = [], []
        for n in counts:
            per_op = _point_ops(ctx, pp, mk, msg, n, rng)
            for op in operations:
                points.append((n, op))
                fns.append(per_op[op])
        for (n, op), samples in zip(points, _time_rounds(fns, trials)):
            results.append(BenchResult(
                profile=ctx.profile.value,
                operation=op,
                attribute_count=n,
                trials=trials,
                mean_ms=statistics.fmean(samples),
                median_ms=statistics.median(samples),
                min_ms=min(samples),
                max_ms=max(samples),
            ))
    return results


def write_csv(results, path):
    cols = [f.name for f in fields(BenchResult)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in results:
            writer.writerow([getattr(r, c) for c in cols])


def medians_by_count(results, profile, operation):
    """attribute_count -> median_ms for one (profile, operation) series."""
    series = {r.attribute_count: r.median_ms for r in results
              if r.profile == profile and r.operation == operation}
    return dict(sorted(series.items()))
