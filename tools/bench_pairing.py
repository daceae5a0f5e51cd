"""Layer timings of the pairing engine and designcrypt, as JSON.

Ops, on each curve profile:

    miller            tate_miller, the plain Miller loop
    fixed_miller      evaluation of n fixed points' stored lines in one
                      loop (n = 1, and 17: designcrypt's loop under an
                      AND of 8)
    miller_lines      the line precompute for one fixed point
    final_exp         one final exponentiation
    pt_mul_r          pt_mul by the group order (the decode subgroup check)
    pt_mul            pt_mul of an s1 point by a random scalar
    pt_mul_fixed      n products from the point's warm window table, as one
                      batch (n = 1, 8, 19)
    table_build       the window table of one fixed point
    setup             absc.setup
    keygen            absc.keygen of an n-attribute key
    decode_s1         strict decode of one s1 point
    decode_eval       evaluation-point decode of one s1 point (on-curve only)
    payload_encode    payload_bytes of an AND-of-n payload
    payload_decode    payload_from_bytes of the same payload, points included
    key_load          attribute_key_from_json of an n-attribute key
    signcrypt_warm    signcrypt, AND of n attributes, signing key reused
    designcrypt_warm  designcrypt, AND of n attributes, key reused; n = 32
                      is a 32-of-32 gate, whose widest coefficients are
                      powers of their own loops
    designcrypt_cold  the same with a fresh copy of the key each call
    designcrypt_2of16 designcrypt_warm under (a00, ..., a15)@2 held as
                      {a00, a15}: coefficients 16/15 and -1/15 (n = 16)

Each op runs once untimed, then REPEATS calls timed in thread CPU time,
pinned to one CPU as perfbench/run.py is.
Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/bench_pairing.py LABEL OUT.json

The run is merged into OUT.json under LABEL (say, "parent" or "change").
"""

import json
import os
import platform
import random
import statistics
import sys
import time

from policycast import absc
from policycast import pairing as pr
from policycast.groups import GroupContext

PROFILES = ("ASYMMETRIC_159", "SYMMETRIC_512")
COUNTS = (2, 8, 19)
BATCHES = (1, 8, 19)
REPEATS = 15
SEED = 5


def _time(fn, repeats, prepare=None):
    """Per-call thread CPU ms over `repeats` calls after one warm-up;
    prepare() is untimed."""
    samples = []
    for k in range(repeats + 1):
        arg = prepare() if prepare else None
        t0 = time.thread_time()
        fn(arg)
        if k:
            samples.append((time.thread_time() - t0) * 1e3)
    return samples


def _row(profile, op, n, samples):
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return {"profile": profile, "op": op, "n": n, "repeats": len(samples),
            "median": round(statistics.median(samples), 4),
            "p10": round(cuts[0], 4), "p90": round(cuts[-1], 4)}


def bench_profile(profile):
    ctx = GroupContext(profile)
    ps = ctx.params
    rng = random.Random(SEED)
    a = ctx.g1 ** ctx.random_scalar(rng)
    b = ctx.g2 ** ctx.random_scalar(rng)
    f = pr.tate_miller(a.point, b.point, ps)
    a_bytes = a.to_bytes()
    lines = pr.miller_lines(b.point, ps)
    k = ctx.random_scalar(rng).value
    ops = [("miller", lambda _: pr.tate_miller(a.point, b.point, ps)),
           ("fixed_miller", lambda _: pr.fixed_miller([(lines, a.point)], ps)),
           ("miller_lines", lambda _: pr.miller_lines(b.point, ps)),
           ("final_exp", lambda _: pr.tate_final_exp(f, ps)),
           ("pt_mul_r", lambda _: pr.pt_mul(a.point, ps.r, ps.q)),
           ("pt_mul", lambda _: pr.pt_mul(a.point, k, ps.q)),
           ("decode_s1", lambda _: ctx.deserialize_element(a_bytes, "s1")),
           ("decode_eval", lambda _: ctx.deserialize_evaluation_point(a_bytes)),
           ("table_build", lambda _: pr.fixed_base_table(a.point, ps)),
           ("setup", lambda _: absc.setup(ctx, rng))]
    rows = [_row(profile, op, 1, _time(fn, REPEATS)) for op, fn in ops]
    tables = [(pr.miller_lines((ctx.g2 ** ctx.random_scalar(rng)).point, ps),
               (ctx.g1 ** ctx.random_scalar(rng)).point) for _ in range(17)]
    rows.append(_row(profile, "fixed_miller", 17, _time(
        lambda _: pr.fixed_miller(tables, ps), REPEATS)))
    table = pr.fixed_base_table(a.point, ps)
    for n in BATCHES:
        jobs = [(table, ctx.random_scalar(rng).value) for _ in range(n)]
        rows.append(_row(profile, "pt_mul_fixed", n, _time(
            lambda _: pr.pt_mul_fixed(jobs, ps.q), REPEATS)))

    pp, mk = absc.setup(ctx, rng)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    for n in COUNTS:
        attrs = [f"attr{i:02d}" for i in range(n)]
        rows.append(_row(profile, "keygen", n, _time(
            lambda _: absc.keygen(pp, mk, attrs, rng), REPEATS)))
        key = absc.keygen(pp, mk, attrs, rng)
        st, ct = absc.signcrypt(pp, sk, b"x" * 1024, " and ".join(attrs), rng)
        key_json = absc.attribute_key_to_json(key)
        ver_bytes = vk.key_ver.to_bytes()

        def fresh_keys():
            return (absc.attribute_key_from_json(ctx, key_json),
                    absc.VerificationKey(ctx.deserialize_element(ver_bytes, "s2")))

        def designcrypt(keys):
            if absc.designcrypt(pp, st, ct, *keys) is None:
                raise RuntimeError(f"designcrypt failed on {profile}, n={n}")

        rows.append(_row(profile, "key_load", n, _time(
            lambda _: absc.attribute_key_from_json(ctx, key_json), REPEATS)))
        data = absc.payload_bytes(st, ct)
        rows.append(_row(profile, "payload_encode", n, _time(
            lambda _: absc.payload_bytes(st, ct), REPEATS)))
        rows.append(_row(profile, "payload_decode", n, _time(
            lambda _: absc.payload_from_bytes(ctx, data), REPEATS)))
        rows.append(_row(profile, "signcrypt_warm", n, _time(
            lambda _: absc.signcrypt(pp, sk, b"x" * 1024, " and ".join(attrs), rng),
            REPEATS)))
        rows.append(_row(profile, "designcrypt_warm", n,
                         _time(designcrypt, REPEATS, lambda: (key, vk))))
        rows.append(_row(profile, "designcrypt_cold", n,
                         _time(designcrypt, REPEATS, fresh_keys)))
    for op, n, held in (("designcrypt_warm", 32, None),
                        ("designcrypt_2of16", 16, ("a00", "a15"))):
        attrs = [f"a{i:02d}" for i in range(n)]
        policy = f"({', '.join(attrs)})@{2 if held else n}"
        keys = absc.keygen(pp, mk, held or attrs, rng), vk
        st, ct = absc.signcrypt(pp, sk, b"x" * 1024, policy, rng)  # designcrypt reads these
        rows.append(_row(profile, op, n,
                         _time(designcrypt, REPEATS, lambda: keys)))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    label, out = argv
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    run = {"nproc": os.cpu_count(), "pinned_cpu": cpu,
           "python": platform.python_version(), "seed": SEED, "results": []}
    for profile in PROFILES:
        run["results"] += bench_profile(profile)
    merged = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            merged = json.load(fh)
    merged[label] = run
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
