"""Chain rules: hashing, leader schedule, validation, file round trips."""

import dataclasses
import hashlib
import json
import random

import pytest

from policycast import absc, ledger
from policycast.groups import GroupContext

GENESIS_HASH = "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4"

IDS = ("11" * 16, "22" * 16, "33" * 16)


@pytest.fixture(scope="module")
def material():
    """One signcrypted payload plus the registry that vouches for it."""
    ctx = GroupContext("ASYMMETRIC_159")
    rng = random.Random(0xB10C)
    pp, mk = absc.setup(ctx, rng)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    st, ct = absc.signcrypt(pp, sk, b"ledger payload", "alpha and beta", rng)
    pid = "ab" * 16
    record = ledger.make_record(pid, vk, st, ct)
    registry = {pid: vk.key_ver.to_bytes().hex()}
    return ctx, record, registry


def vset(ids=IDS, slot_seconds=15):
    return ledger.ValidatorSet(list(ids), slot_seconds=slot_seconds)


def build_chain(record, vs, registry, length):
    chain = [ledger.genesis()]
    for i in range(1, length):
        slot_time = i * vs.slot_seconds + 3
        proposer = ledger.leader_for_slot(i, vs)
        blk = ledger.propose_block(chain[-1], record, proposer, slot_time, vs)
        assert ledger.append_block(chain, blk, vs, registry) is None
    return chain


# ---------------------------------------------------------------------------
# hashing

def test_genesis_is_pinned():
    g = ledger.genesis()
    assert g.header.index == 0
    assert g.header.prev_hash == ledger.ZERO32
    assert g.header.proposer == ledger.ZERO_ID
    assert g.header.timestamp == 0
    assert g.record is None
    assert g.declared_hash.hex() == GENESIS_HASH


def test_block_hash_preimage():
    # independent recomputation of the digest layout
    pre = ((0).to_bytes(8, "big") + bytes(32) + bytes(16)
           + (0).to_bytes(8, "big") + bytes(32))
    assert hashlib.sha256(pre).digest() == ledger.block_hash(ledger.genesis())


def test_block_hash_depends_on_every_field(material):
    _, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 2)
    blk = chain[1]
    h = blk.header
    base = ledger.block_hash(blk)
    assert base == blk.declared_hash
    other = IDS[0] if h.proposer != IDS[0] else IDS[2]
    variants = (
        ledger.Block(dataclasses.replace(h, index=h.index + 1), record),
        ledger.Block(dataclasses.replace(h, prev_hash=bytes(32)), record),
        ledger.Block(dataclasses.replace(h, proposer=other), record),
        ledger.Block(dataclasses.replace(h, timestamp=h.timestamp + 1), record),
        ledger.Block(h, None),
    )
    for changed in variants:
        assert ledger.block_hash(changed) != base


# ---------------------------------------------------------------------------
# schedule

def test_slot_arithmetic():
    assert ledger.slot_of(0, 15) == 0
    assert ledger.slot_of(44, 15) == 2
    assert ledger.slot_of(45, 15) == 3


def test_leader_round_robin():
    vs = vset()
    ordered = sorted(IDS)
    seen = [ledger.leader_for_slot(s, vs) for s in range(9)]
    assert seen == ordered * 3


def test_validator_set_validation():
    with pytest.raises(ValueError):
        ledger.ValidatorSet([])
    with pytest.raises(ValueError):
        ledger.ValidatorSet(list(IDS), slot_seconds=0)
    vs = ledger.ValidatorSet([IDS[2], IDS[0], IDS[1]])
    assert list(vs.pseudo_ids) == sorted(IDS)


# ---------------------------------------------------------------------------
# records

def test_record_validation(material):
    _, record, registry = material
    assert ledger.validate_record(record, registry) is None
    assert ledger.validate_record(record, {}) == ledger.REJECT_UNREGISTERED
    wrong_pk = {record.pseudo_id: "00" * 20}
    assert ledger.validate_record(record, wrong_pk) == ledger.REJECT_PK_DIGEST
    bad = dataclasses.replace(record, payload_digest=bytes(32))
    assert ledger.validate_record(bad, registry) == ledger.REJECT_PAYLOAD_DIGEST
    bad = dataclasses.replace(record, pseudo_id="UPPER" + "0" * 27)
    assert ledger.validate_record(bad, registry) == ledger.REJECT_BAD_PSEUDO_ID


def test_make_record_checks_pseudo_id(material):
    ctx, record, _ = material
    with pytest.raises(ValueError):
        ledger.make_record("xyz", None, None, None)
    # digest commits to the canonical payload bytes
    assert record.payload_digest == hashlib.sha256(record.payload).digest()
    st, ct = absc.payload_from_bytes(ctx, record.payload)
    assert absc.payload_bytes(st, ct) == record.payload


# ---------------------------------------------------------------------------
# proposing and appending

def test_propose_append_happy_path(material):
    _, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 6)
    assert ledger.verify_chain(chain, vs, registry) is None
    assert [b.header.proposer for b in chain[1:]] == [
        ledger.leader_for_slot(i, vs) for i in range(1, 6)]


def test_propose_rejects_wrong_leader(material):
    _, record, _ = material
    vs = vset()
    tip = ledger.genesis()
    wrong = ledger.leader_for_slot(2, vs)  # slot 1 belongs to someone else
    with pytest.raises(ValueError):
        ledger.propose_block(tip, record, wrong, vs.slot_seconds + 3, vs)
    with pytest.raises(ValueError):
        ledger.propose_block(tip, None, ledger.leader_for_slot(1, vs),
                             vs.slot_seconds + 3, vs)


def test_append_rejects(material):
    _, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 3)
    tip = chain[-1]
    t_next = 3 * vs.slot_seconds + 3

    good = ledger.propose_block(tip, record, ledger.leader_for_slot(3, vs),
                                t_next, vs)

    def attempt(block):
        return ledger.append_block(chain[:], block, vs, registry)

    # later timestamp, same slot as the tip
    occupied = ledger.Block(
        ledger.BlockHeader(tip.header.index + 1, ledger.block_hash(tip),
                           tip.header.proposer, tip.header.timestamp + 1),
        record).sealed()
    assert attempt(occupied) == ledger.REJECT_SLOT_OCCUPIED

    # timestamp does not advance at all
    frozen = ledger.Block(
        ledger.BlockHeader(tip.header.index + 1, ledger.block_hash(tip),
                           tip.header.proposer, tip.header.timestamp),
        record).sealed()
    assert attempt(frozen) == ledger.REJECT_STALE_TIMESTAMP

    # a validator speaking out of turn
    intruder = ledger.Block(
        ledger.BlockHeader(tip.header.index + 1, ledger.block_hash(tip),
                           ledger.leader_for_slot(4, vs), t_next),
        record).sealed()
    assert attempt(intruder) == ledger.REJECT_NOT_LEADER

    # broken linkage and broken self-description
    bad_prev = dataclasses.replace(
        good, header=dataclasses.replace(good.header, prev_hash=bytes(32)))
    assert attempt(bad_prev.sealed()) == ledger.REJECT_BAD_PREV_HASH
    bad_index = dataclasses.replace(
        good, header=dataclasses.replace(good.header, index=9))
    assert attempt(bad_index.sealed()) == ledger.REJECT_BAD_INDEX
    lying = dataclasses.replace(good, declared_hash=bytes(32))
    assert attempt(lying) == ledger.REJECT_BAD_HASH
    empty = dataclasses.replace(good, record=None).sealed()
    assert attempt(empty) == ledger.REJECT_MISSING_RECORD

    # the honest block still lands
    fresh = chain[:]
    assert ledger.append_block(fresh, good, vs, registry) is None
    assert len(fresh) == 4


# ---------------------------------------------------------------------------
# whole-chain verification

def test_verify_reports_first_bad_block(material):
    _, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 8)

    # silent mutation: declared hash no longer matches
    hdr = dataclasses.replace(chain[4].header,
                              timestamp=chain[4].header.timestamp + 1)
    tampered = chain[:]
    tampered[4] = dataclasses.replace(tampered[4], header=hdr)
    assert ledger.verify_chain(tampered, vs, registry) == (
        4, ledger.REJECT_BAD_HASH)

    # resealed mutation: the break moves to the link into block 5
    resealed = chain[:]
    resealed[4] = dataclasses.replace(resealed[4], header=hdr).sealed()
    assert ledger.verify_chain(resealed, vs, registry) == (
        5, ledger.REJECT_BAD_PREV_HASH)

    swapped = chain[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert ledger.verify_chain(swapped, vs, registry) == (
        3, ledger.REJECT_BAD_INDEX)

    assert ledger.verify_chain(chain, vs, {}) == (
        1, ledger.REJECT_UNREGISTERED)

    # an index-0 root that is not genesis()
    root = dataclasses.replace(
        chain[0], header=dataclasses.replace(chain[0].header, timestamp=1))
    assert ledger.verify_chain([root.sealed()] + chain[1:], vs, registry) == (
        0, ledger.REJECT_BAD_GENESIS)

    assert ledger.verify_chain([], vs, registry) == (
        0, ledger.REJECT_BAD_GENESIS)


# ---------------------------------------------------------------------------
# file round trips

def test_save_load_round_trip(material, tmp_path):
    ctx, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 5)
    path = tmp_path / "chain.jsonl"
    ledger.save_chain(path, chain)
    first = path.read_bytes()
    loaded = ledger.load_chain(path, ctx)
    assert loaded == chain
    assert ledger.verify_chain(loaded, vs, registry) is None
    ledger.save_chain(path, loaded)
    assert path.read_bytes() == first


def test_load_rejects_corrupt_line(material, tmp_path):
    ctx, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 4)
    path = tmp_path / "chain.jsonl"
    ledger.save_chain(path, chain)
    lines = path.read_bytes().split(b"\n")

    # broken JSON on line 2
    garbled = lines[:]
    garbled[2] = garbled[2][:-4]
    path.write_bytes(b"\n".join(garbled))
    with pytest.raises(ledger.ChainLoadError) as exc:
        ledger.load_chain(path, ctx)
    assert exc.value.index == 2

    # parseable but not canonical: trailing space
    padded = lines[:]
    padded[1] = padded[1] + b" "
    path.write_bytes(b"\n".join(padded))
    with pytest.raises(ledger.ChainLoadError) as exc:
        ledger.load_chain(path, ctx)
    assert exc.value.index == 1

    # parseable but not canonical: re-cased hex
    recased = lines[:]
    body = json.loads(recased[3])
    body["prev_hash"] = body["prev_hash"].upper()
    recased[3] = json.dumps(body, sort_keys=True,
                            separators=(",", ":")).encode()
    path.write_bytes(b"\n".join(recased))
    with pytest.raises(ledger.ChainLoadError) as exc:
        ledger.load_chain(path, ctx)
    assert exc.value.index == 3


def test_block_json_strictness(material):
    ctx, record, registry = material
    vs = vset()
    chain = build_chain(record, vs, registry, 2)
    obj = ledger.block_to_json(chain[1])

    def reject(mutate):
        bad = json.loads(json.dumps(obj))
        mutate(bad)
        with pytest.raises(ledger.DecodeError):
            ledger.block_from_json(ctx, bad)

    reject(lambda o: o.update(index=1.0))
    reject(lambda o: o.update(index=-1))
    reject(lambda o: o.update(proposer="G" + obj["proposer"][1:]))
    reject(lambda o: o.update(proposer=obj["proposer"][:-1]))
    reject(lambda o: o.update(hash=obj["hash"][:-2]))
    reject(lambda o: o.pop("timestamp"))
    reject(lambda o: o["record"].update(payload_digest="zz"))
    reject(lambda o: o["record"].update(pseudo_id="short"))

    back = ledger.block_from_json(ctx, json.loads(json.dumps(obj)))
    assert back == chain[1]
    g = ledger.block_from_json(
        ctx, json.loads(json.dumps(ledger.block_to_json(ledger.genesis()))))
    assert g.record is None
    assert g == ledger.genesis()
