"""End-to-end acceptance gate.

Eight checks, one per release requirement, each printing a single
pass/fail line through the shared reporter in conftest.  Tolerances are
pinned in the assertions; nothing here is statistical beyond the stated
noise allowance in the timing check.
"""

import collections
import csv
import dataclasses
import hashlib
import json
import random
import time

import pytest

import oracles
from conftest import record_acceptance
from policycast import absc, bench, ledger, scenario
from policycast.groups import DecodeError, GroupContext
from policycast.nodes import DeviceNode, ManualClock
from policycast.policy import (AccessTree, lagrange_coeff, parse_policy,
                               policy_to_text, satisfies)

PROFILES = ("SYMMETRIC_512", "ASYMMETRIC_159")


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def enc_randomness_pairing(ctx, key):
    attr = next(iter(key.attributes))
    d_j, d_j_prime = key.comps[attr]
    h = ctx.hash_to_scalar(attr.encode("utf-8"))
    return ctx.pair_ratio(ctx.g1, d_j, ctx.g1, d_j_prime ** h)


# ---------------------------------------------------------------------------
# 1. randomized round trips on both curve profiles

def test_acceptance_round_trip(scheme_sym, scheme_asym):
    started = time.perf_counter()
    hits = misses = 0
    trials_per_profile = 100
    for lane, (pp, mk) in enumerate((scheme_sym, scheme_asym)):
        rng = random.Random(0xA11CE + lane)
        for trial in range(trials_per_profile):
            n_leaves = 2 + trial % 18
            text, _ = oracles.random_tree_text(rng, n_leaves)
            tree = parse_policy(text)
            msg = bytes([trial % 256]) + rng.getrandbits(256).to_bytes(32, "big")
            sk, vk = absc.signing_keygen(pp, mk, rng)
            st, ct = absc.signcrypt(pp, sk, msg, tree, rng)

            good = absc.keygen(pp, mk, oracles.sample_satisfying(tree, rng), rng)
            if absc.designcrypt(pp, st, ct, good, vk) == msg:
                hits += 1
            bad = absc.keygen(pp, mk, oracles.sample_nonsatisfying(tree, rng), rng)
            if absc.designcrypt(pp, st, ct, bad, vk) is None:
                misses += 1
    elapsed = time.perf_counter() - started
    total = 2 * trials_per_profile
    ok = hits == total and misses == total and elapsed < 300.0
    record_acceptance(
        "round-trip",
        ok,
        f"satisfying {hits}/{total}, non-satisfying rejected {misses}/{total}, "
        f"{elapsed:.1f}s (limit 300s)")
    assert hits == total
    assert misses == total
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 2. tree evaluation against an independent arithmetic oracle

def test_acceptance_decrypt_node_oracle(scheme_sym, scheme_asym):
    checked = 0
    exact = 0
    for lane, (pp, mk) in enumerate((scheme_sym, scheme_asym)):
        ctx = pp.ctx
        rng = random.Random(0x0AC1E + lane)
        for trial in range(25):
            n_leaves = 2 + trial % 7  # up to 8 leaves
            text, _ = oracles.random_tree_text(rng, n_leaves)
            tree = parse_policy(text)
            sk, _ = absc.signing_keygen(pp, mk, rng)
            transcript = {}
            st, _ = absc.signcrypt(pp, sk, b"probe", tree, rng, transcript)
            key = absc.keygen(pp, mk, oracles.sample_satisfying(tree, rng), rng)

            # the oracle rebuilds the secret from raw shares by its own
            # Lagrange interpolation over the scalar field
            s_oracle = oracles.reconstruct_secret(
                tree, transcript["shares"], key.attributes, ctx.p)
            assert s_oracle == transcript["s"].value
            expected = enc_randomness_pairing(ctx, key) ** ctx.scalar(s_oracle)
            checked += 1
            if oracles.decrypt_node(pp, st, key) == expected:
                exact += 1
    ok = checked == 50 and exact == 50
    record_acceptance("tree-evaluation-oracle", ok,
                      f"{exact}/{checked} trees match exactly")
    assert ok


# ---------------------------------------------------------------------------
# 3. verification tag equality, honest and tampered

def test_acceptance_verification_tag(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(0x7A6)
    honest = 0
    rejected = collections.Counter()
    for trial in range(100):
        policy = "alpha" if trial % 2 else "alpha and beta"
        key = absc.keygen(pp, mk, ["alpha", "beta"], rng)
        sk, vk = absc.signing_keygen(pp, mk, rng)
        msg = b"tag trial %d" % trial
        enc_t, dec_t = {}, {}
        st, ct = absc.signcrypt(pp, sk, msg, policy, rng, enc_t)
        if (absc.designcrypt(pp, st, ct, key, vk, dec_t) == msg
                and dec_t["delta_prime"] == enc_t["delta"]):
            honest += 1

        _, vk_other = absc.signing_keygen(pp, mk, rng)
        forgeries = {
            "wrong-key": (st, vk_other),
            "psi": (dataclasses.replace(st, psi=st.psi * ctx.g2), vk),
            "w": (dataclasses.replace(st, w=st.w * ctx.g1), vk),
            "pi": (dataclasses.replace(st, pi=st.pi + ctx.scalar(1)), vk),
        }
        for label, (st_bad, vk_used) in forgeries.items():
            if absc.designcrypt(pp, st_bad, ct, key, vk_used) is None:
                rejected[label] += 1
    ok = honest == 100 and all(rejected[k] == 100 for k in
                               ("wrong-key", "psi", "w", "pi"))
    record_acceptance(
        "verification-tag", ok,
        f"honest {honest}/100; rejected wrong-key {rejected['wrong-key']}/100, "
        f"psi {rejected['psi']}/100, w {rejected['w']}/100, "
        f"pi {rejected['pi']}/100")
    assert ok


# ---------------------------------------------------------------------------
# 4. byte-level tamper suite

def _mutate_field(rng, data, span, mutations):
    """Random single-byte XORs inside one field's byte range."""
    out = []
    for _ in range(mutations):
        bent = bytearray(data)
        bent[rng.randrange(*span)] ^= rng.randrange(1, 256)
        out.append(bytes(bent))
    return out


def test_acceptance_tamper_rejection(scheme_sym, scheme_asym):
    rng = random.Random(0x7A39)
    false_accepts = []
    attempted = 0

    # Phase A: mutate each cryptographic component at its byte range in
    # the payload; a mutation must fail to decode or fail to designcrypt.
    bases = [
        (scheme_asym, "alpha and beta"),
        (scheme_asym, "(alpha, beta, gamma, delta)@3"),
        (scheme_sym, "alpha or beta"),
    ]
    for (pp, mk), policy in bases:
        ctx = pp.ctx
        sk, vk = absc.signing_keygen(pp, mk, rng)
        key = absc.keygen(pp, mk, ["alpha", "beta", "gamma", "delta"], rng)
        msg = b"do not trust mutations"
        st, ct = absc.signcrypt(pp, sk, msg, policy, rng)
        assert absc.designcrypt(pp, st, ct, key, vk) == msg
        data = absc.payload_bytes(st, ct)
        fields = oracles.payload_fields(ctx, data)

        def check(bent, where):
            nonlocal attempted
            attempted += 1
            try:
                st_m, ct_m = absc.payload_from_bytes(ctx, bent)
            except DecodeError:
                return  # refused at the decoder: rejected
            if absc.designcrypt(pp, st_m, ct_m, key, vk) is not None:
                false_accepts.append(where)

        for field, count in (("c_tilde", 10), ("c", 10), ("w", 10), ("psi", 10),
                             ("pi", 8)):
            for bent in _mutate_field(rng, data, fields[field], count):
                check(bent, field)
        for li, idx in enumerate(st.tree.leaves()):
            for part in ("c_y", "c_y_prime"):
                for bent in _mutate_field(rng, data, fields[(part, li)], 5):
                    check(bent, f"leaf.{part}")
            # an "x" appended to this leaf's attribute in the policy text
            nodes = list(st.tree.nodes)
            nodes[idx] = dataclasses.replace(nodes[idx],
                                             attribute=nodes[idx].attribute + "x")
            text = policy_to_text(AccessTree(tuple(nodes)))
            check(oracles.with_policy_text(ctx, data, text), "leaf.attr")
        for field, count in (("iv", 6), ("body", 10)):
            for bent in _mutate_field(rng, data, fields[field], count):
                check(bent, field)
    phase_a = attempted

    # Phase B: flip every kind of payload byte (policy text included) on
    # the delivery path; the device digest gate must raise an alarm.
    pp, mk = scheme_asym
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta", "gamma"], rng)
    st, ct = absc.signcrypt(pp, sk, b"gate check", "(alpha, beta, gamma)@2",
                            rng)
    pid = "ee" * 16
    record = ledger.make_record(pid, vk, st, ct)
    vs = ledger.ValidatorSet([pid], slot_seconds=15)
    block = ledger.propose_block(ledger.genesis(), record, pid, 18, vs)
    header = ledger.header_to_json(block)
    payload = absc.payload_bytes(st, ct)
    registry = {pid: vk.key_ver.to_bytes().hex()}
    dev = DeviceNode("gate", pp, key, registry, 15, clock=ManualClock(18))

    positions = set()
    policy_text = oracles.payload_fields(pp.ctx, payload)["policy"]
    positions.update(rng.randrange(*policy_text)
                     for _ in range(30))  # hammer the policy text
    while len(positions) < 250:
        positions.add(rng.randrange(len(payload)))
    for pos in sorted(positions):
        attempted += 1
        bent = bytearray(payload)
        bent[pos] ^= rng.randrange(1, 256)
        if dev.receive(header, pid, bytes(bent)) != "alarm":
            false_accepts.append(f"payload[{pos}]")
    # control: the unmodified payload is still accepted afterwards
    assert dev.receive(header, pid, payload) == "accepted"

    ok = attempted >= 500 and not false_accepts
    record_acceptance(
        "tamper-rejection", ok,
        f"{attempted} mutations ({phase_a} component, {attempted - phase_a} "
        f"delivery), {len(false_accepts)} false accepts")
    assert attempted >= 500
    assert not false_accepts, false_accepts[:5]


# ---------------------------------------------------------------------------
# 5. chain integrity and schedule discipline

def test_acceptance_chain_integrity(tmp_path):
    ctx = GroupContext("ASYMMETRIC_159")
    rng = random.Random(0xC4A1)
    pp, mk = absc.setup(ctx, rng)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    pid = "aa" * 16
    registry = {pid: vk.key_ver.to_bytes().hex()}

    # (a) every sampled byte flip in a 50-block chain file is caught,
    # with the right block index
    vs = ledger.ValidatorSet([pid], slot_seconds=15)
    chain = [ledger.genesis()]
    for i in range(1, 50):
        st, ct = absc.signcrypt(pp, sk, b"block %d" % i, "alpha and beta", rng)
        record = ledger.make_record(pid, vk, st, ct)
        blk = ledger.propose_block(chain[-1], record, pid, i * 15 + 3, vs)
        assert ledger.append_block(chain, blk, vs, registry) is None
    path = tmp_path / "chain.jsonl"
    ledger.save_chain(path, chain)
    blob = bytearray(path.read_bytes())

    # byte offset -> owning line (a newline belongs to the line it ends)
    line_of = {}
    line = 0
    for off, byte in enumerate(blob):
        line_of[off] = line
        if byte == 0x0A:
            line += 1

    offsets = set()
    starts = [0] + [i + 1 for i, b in enumerate(blob) if b == 0x0A][:-1]
    for ln, start in enumerate(starts):  # two per line, plus extras
        end = blob.index(0x0A, start)
        offsets.add(rng.randrange(start, end + 1))
        offsets.add(rng.randrange(start, end + 1))
    while len(offsets) < 150:
        offsets.add(rng.randrange(len(blob)))

    missed = []
    for off in sorted(offsets):
        want = line_of[off]
        bent = bytearray(blob)
        bent[off] ^= rng.randrange(1, 256)
        path.write_bytes(bytes(bent))
        try:
            loaded = ledger.load_chain(path, ctx)
        except ledger.ChainLoadError as exc:
            if exc.index != want:
                missed.append((off, "index", exc.index, want))
            continue
        verdict = ledger.verify_chain(loaded, vs, registry)
        if verdict is None:
            missed.append((off, "accepted", None, want))
        elif verdict[0] != want:
            missed.append((off, "index", verdict[0], want))
    detected = len(offsets) - len(missed)

    # (b) one block per slot, round-robin leadership, 300 slots
    ids = ("11" * 16, "22" * 16, "33" * 16)
    vs3 = ledger.ValidatorSet(ids, slot_seconds=15)
    st, ct = absc.signcrypt(pp, sk, b"schedule", "alpha", rng)
    record = ledger.make_record(pid, vk, st, ct)
    reg3 = dict(registry)
    sched = [ledger.genesis()]
    for slot in range(1, 301):
        leader = ledger.leader_for_slot(slot, vs3)
        blk = ledger.propose_block(sched[-1], record, leader,
                                   slot * 15 + 7, vs3)
        assert ledger.append_block(sched, blk, vs3, reg3) is None
    tally = collections.Counter(b.header.proposer for b in sched[1:])
    fair = sorted(tally.values()) == [100, 100, 100]
    # a second block in an occupied slot, or an out-of-turn proposer,
    # cannot land
    tip = sched[-1]
    dup = ledger.Block(ledger.BlockHeader(
        tip.header.index + 1, ledger.block_hash(tip), tip.header.proposer,
        tip.header.timestamp + 1), record).sealed()
    occupied = ledger.append_block(sched[:], dup, vs3, reg3)
    intruder = ledger.Block(ledger.BlockHeader(
        tip.header.index + 1, ledger.block_hash(tip),
        ledger.leader_for_slot(302, vs3), 301 * 15 + 7), record).sealed()
    out_of_turn = ledger.append_block(sched[:], intruder, vs3, reg3)
    sched_ok = (fair and ledger.verify_chain(sched, vs3, reg3) is None
                and occupied == ledger.REJECT_SLOT_OCCUPIED
                and out_of_turn == ledger.REJECT_NOT_LEADER)

    ok = not missed and sched_ok
    record_acceptance(
        "chain-integrity", ok,
        f"{detected}/{len(offsets)} file mutations caught at the right "
        f"index; 300 slots sealed, leader tally "
        f"{sorted(tally.values())}, occupied/out-of-turn rejected")
    assert not missed, missed[:5]
    assert sched_ok


# ---------------------------------------------------------------------------
# 6. end-to-end dissemination at both slot tempos

def test_acceptance_end_to_end():
    fast = scenario.run_scenario({"slot_seconds": 15}, mode="threads")
    slow_ok = fast.ok and fast.slots_used <= 2
    procs = scenario.run_scenario({"slot_seconds": 1}, mode="procs")
    ok = slow_ok and procs.ok
    record_acceptance(
        "end-to-end", ok,
        f"threads@15s: outcomes {_fmt_outcomes(fast.outcomes)} in "
        f"{fast.slots_used} slot(s); procs@1s: "
        f"{_fmt_outcomes(procs.outcomes)}")
    assert fast.ok
    assert fast.slots_used <= 2
    assert procs.ok


def _fmt_outcomes(outcomes):
    return ", ".join(f"{name}={got}" for name, (got, _) in sorted(outcomes.items()))


# ---------------------------------------------------------------------------
# 7. cost growth with attribute count

def test_acceptance_timing_profile(tmp_path):
    counts = range(2, 20)
    results = bench.run_bench(PROFILES, bench.OPERATIONS, counts, trials=5,
                              msg_size=1024, seed=0xBE9C)
    # noise allowance: a drop only counts against the series when the
    # next median falls below 75% of the previous one minus 0.05 ms
    worst = []
    for profile in PROFILES:
        for op in bench.OPERATIONS:
            medians = bench.medians_by_count(results, profile, op)
            series = [medians[n] for n in counts]
            assert len(series) == 18
            drops = sum(1 for a, b in zip(series, series[1:])
                        if b < a * 0.75 - 0.05)
            worst.append((drops, profile, op))
    max_drops = max(w[0] for w in worst)

    csv_path = tmp_path / "timings.csv"
    bench.write_csv(results, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    csv_ok = (len(rows) == len(PROFILES) * len(bench.OPERATIONS) * 18
              and {"profile", "operation", "attribute_count",
                   "median_ms"} <= set(rows[0])
              and sorted({int(r["attribute_count"]) for r in rows})
              == list(counts))

    ok = max_drops <= 1 and csv_ok
    detail = ("; ".join(f"{p.split('_')[0].lower()}/{o}: {d} drop(s)"
                        for d, p, o in worst if d)
              or "all 8 series monotone")
    record_acceptance("timing-profile", ok,
                      f"{detail}; tolerance 1 drop per series; CSV "
                      f"{len(rows)} rows")
    assert max_drops <= 1, worst
    assert csv_ok


# ---------------------------------------------------------------------------
# 8. collusion resistance

def test_acceptance_collusion(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(0xC011)
    resisted = 0
    trials = 50
    for trial in range(trials):
        m = 2 + trial % 5
        attrs = [f"a{i}" for i in range(m)]
        policy = "(" + ", ".join(attrs) + f")@{m}"
        tree = parse_policy(policy)
        cut = 1 + rng.randrange(m - 1)
        half1, half2 = attrs[:cut], attrs[cut:]
        key1 = absc.keygen(pp, mk, half1, rng)
        key2 = absc.keygen(pp, mk, half2, rng)
        sk, vk = absc.signing_keygen(pp, mk, rng)
        msg = b"for full holders only"
        transcript = {}
        st, ct = absc.signcrypt(pp, sk, msg, tree, rng, transcript)

        assert satisfies(tree, set(attrs)).satisfied
        assert absc.designcrypt(pp, st, ct, key1, vk) is None
        assert absc.designcrypt(pp, st, ct, key2, vk) is None

        # pooled attack: each leaf evaluated with whichever colluder
        # holds the attribute, then Lagrange-combined as a real key would
        root_children = list(st.tree.nodes[st.tree.root].children)
        leaf_terms = {}
        for idx in st.tree.leaves():
            attr = st.tree.nodes[idx].attribute
            donor = key1 if attr in key1.attributes else key2
            d_j, d_j_prime = donor.comps[attr]
            c_y, c_y_prime = st.leaf_c[idx]
            leaf_terms[root_children.index(idx) + 1] = ctx.pair_ratio(
                c_y, d_j, c_y_prime, d_j_prime)
        index_set = sorted(leaf_terms)
        pooled = None
        for i in index_set:
            term = leaf_terms[i] ** lagrange_coeff(i, index_set, 0, ctx.p)
            pooled = term if pooled is None else pooled * term
        t_s_forged = ctx.pair(st.c, key1.d_enc) * pooled.inverse()
        key_forged = _xor(st.c_tilde, ctx.hash_to_bits(t_s_forged.to_bytes()))

        out = absc.sym_decrypt(key_forged, ct)
        if key_forged != transcript["key_sym"] and out != msg:
            resisted += 1
    ok = resisted == trials
    record_acceptance("collusion-resistance", ok,
                      f"pooled keys recovered nothing in {resisted}/{trials} "
                      f"trials")
    assert ok
