"""Permissioned proof-of-authority ledger for signcrypted payloads.

Blocks carry at most one record, (publisher_pk_digest, pseudo_id,
payload_digest, payload): it binds a publisher pseudonym to one
signcrypted payload, whose bytes the ledger shape-checks but never
decodes, via SHA-256 digests of the publisher's serialized verification
key and of the payload bytes.  The block hash is

    SHA-256( index_8be || prev_hash || proposer_id_16 || timestamp_8be
             || payload_digest )

with 32 zero bytes standing in for the genesis payload.  Leadership is
round-robin over the sorted validator pseudonyms: slot(ts) = ts //
slot_seconds and leader(slot) = sorted_ids[slot % n]; at most one block
per slot, and a child block must land in a strictly later slot than its
parent (genesis sits in slot 0).

Persistence is JSON lines in the canonical block form the wire also
uses (payload as hex), one block per line, each line carrying the
block's own hash so that mutations of the newest block are detectable
without a successor; save_block appends a line to a save_chain file.
Verification returns the index of the first bad block.
"""

import hashlib
import json
from dataclasses import dataclass, replace

from . import absc
from .groups import DecodeError

ZERO32 = bytes(32)
ZERO_ID = "00" * 16

REJECT_BAD_INDEX = "bad-index"
REJECT_BAD_PREV_HASH = "bad-prev-hash"
REJECT_BAD_HASH = "bad-hash"
REJECT_STALE_TIMESTAMP = "stale-timestamp"
REJECT_SLOT_OCCUPIED = "slot-occupied"
REJECT_NOT_LEADER = "not-leader"
REJECT_MISSING_RECORD = "missing-record"
REJECT_BAD_GENESIS = "bad-genesis"
REJECT_UNREGISTERED = "record:unregistered-publisher"
REJECT_PK_DIGEST = "record:pk-digest-mismatch"
REJECT_PAYLOAD_DIGEST = "record:payload-digest-mismatch"
REJECT_BAD_PSEUDO_ID = "record:bad-pseudo-id"


@dataclass(frozen=True)
class Record:
    publisher_pk_digest: bytes
    pseudo_id: str
    payload_digest: bytes
    payload: bytes  # canonical payload bytes, opaque to the ledger


@dataclass(frozen=True)
class BlockHeader:
    index: int
    prev_hash: bytes
    proposer: str  # pseudo id, 32 hex chars
    timestamp: int


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    record: object = None
    declared_hash: bytes = None  # filled at build/load time

    def sealed(self):
        return replace(self, declared_hash=block_hash(self))


@dataclass(frozen=True)
class ValidatorSet:
    pseudo_ids: tuple
    slot_seconds: int = 15

    def __post_init__(self):
        if not self.pseudo_ids:
            raise ValueError("validator set must be non-empty")
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        object.__setattr__(self, "pseudo_ids", tuple(sorted(self.pseudo_ids)))


def _check_pseudo_id(pid):
    try:
        absc.hex_bytes(pid, 16)
    except DecodeError:
        return False
    return True


def make_record(pseudo_id, key_ver, st, ct_msg):
    """Build a record for one signcrypted payload; encodes it once."""
    if not _check_pseudo_id(pseudo_id):
        raise ValueError("pseudo id must be 32 lowercase hex chars")
    payload = absc.payload_bytes(st, ct_msg)
    return Record(
        publisher_pk_digest=hashlib.sha256(key_ver.key_ver.to_bytes()).digest(),
        pseudo_id=pseudo_id,
        payload_digest=hashlib.sha256(payload).digest(),
        payload=payload,
    )


def block_hash(block):
    h = block.header
    payload = block.record.payload_digest if block.record else ZERO32
    preimage = (h.index.to_bytes(8, "big") + h.prev_hash
                + bytes.fromhex(h.proposer)
                + h.timestamp.to_bytes(8, "big") + payload)
    return hashlib.sha256(preimage).digest()


def genesis():
    return Block(BlockHeader(0, ZERO32, ZERO_ID, 0)).sealed()


def slot_of(timestamp, slot_seconds):
    return int(timestamp) // slot_seconds


def leader_for_slot(slot, vset):
    """Round-robin over the sorted validator pseudonyms."""
    return vset.pseudo_ids[slot % len(vset.pseudo_ids)]


def validate_record(record, registry):
    """Structural record check; returns None when fine, else a reject reason.

    registry maps publisher pseudo ids to serialized verification keys
    (hex).  Cryptographic verification is the receiving device's job;
    validators check registration, digests and (in record_from_json) shape.
    """
    if not isinstance(record, Record) or not _check_pseudo_id(record.pseudo_id):
        return REJECT_BAD_PSEUDO_ID
    key_ver_hex = registry.get(record.pseudo_id)
    if key_ver_hex is None:
        return REJECT_UNREGISTERED
    if hashlib.sha256(bytes.fromhex(key_ver_hex)).digest() != record.publisher_pk_digest:
        return REJECT_PK_DIGEST
    if hashlib.sha256(record.payload).digest() != record.payload_digest:
        return REJECT_PAYLOAD_DIGEST
    return None


def propose_block(tip, record, proposer, now, vset):
    """Build the next block; the caller must hold the current slot."""
    slot = slot_of(now, vset.slot_seconds)
    if leader_for_slot(slot, vset) != proposer:
        raise ValueError(f"{proposer} is not the leader of slot {slot}")
    if record is None:
        raise ValueError("a block must carry a record")
    header = BlockHeader(tip.header.index + 1, block_hash(tip), proposer, int(now))
    return Block(header, record).sealed()


def _check_block(prev, block, vset, registry):
    h = block.header
    if h.index != prev.header.index + 1:
        return REJECT_BAD_INDEX
    if h.prev_hash != block_hash(prev):
        return REJECT_BAD_PREV_HASH
    if block.declared_hash is not None and block.declared_hash != block_hash(block):
        return REJECT_BAD_HASH
    if h.timestamp <= prev.header.timestamp:
        return REJECT_STALE_TIMESTAMP
    slot = slot_of(h.timestamp, vset.slot_seconds)
    if slot <= slot_of(prev.header.timestamp, vset.slot_seconds):
        return REJECT_SLOT_OCCUPIED
    if not _check_pseudo_id(h.proposer):
        return REJECT_NOT_LEADER
    if leader_for_slot(slot, vset) != h.proposer:
        return REJECT_NOT_LEADER
    if block.record is None:
        return REJECT_MISSING_RECORD
    return validate_record(block.record, registry)


def append_block(chain, block, vset, registry):
    """Validate block against the tip and append; None on success, else reason."""
    if not chain:
        return REJECT_BAD_GENESIS
    reason = _check_block(chain[-1], block, vset, registry)
    if reason is None:
        chain.append(block)
    return reason


def verify_chain(chain, vset, registry):
    """Full re-verification; returns None or (first bad index, reason)."""
    if not chain or chain[0] != genesis():
        return 0, REJECT_BAD_GENESIS
    for i in range(1, len(chain)):
        reason = _check_block(chain[i - 1], chain[i], vset, registry)
        if reason is not None:
            return i, reason
    return None


# ---------------------------------------------------------------------------
# wire/file forms

def record_to_json(record):
    return {
        "publisher_pk_digest": record.publisher_pk_digest.hex(),
        "pseudo_id": record.pseudo_id,
        "payload_digest": record.payload_digest.hex(),
        "payload": record.payload.hex(),
    }


def record_from_json(ctx, obj):
    """Decode a record; the payload gets a shape check, no curve math."""
    try:
        payload = absc.hex_bytes(obj["payload"])
        pk_digest = absc.hex_bytes(obj["publisher_pk_digest"], 32)
        payload_digest = absc.hex_bytes(obj["payload_digest"], 32)
        pseudo_id = obj["pseudo_id"]
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed record: {exc}") from None
    if not _check_pseudo_id(pseudo_id):
        raise DecodeError("bad pseudo id")
    absc.check_payload_shape(ctx, payload)
    return Record(pk_digest, pseudo_id, payload_digest, payload)


def block_to_json(block):
    """Canonical block form: the header with the record in place of its digest."""
    out = header_to_json(block)
    del out["payload_digest"]
    out["record"] = record_to_json(block.record) if block.record else None
    return out


def block_from_json(ctx, obj):
    try:
        header = BlockHeader(
            index=obj["index"],
            prev_hash=absc.hex_bytes(obj["prev_hash"], 32),
            proposer=obj["proposer"],
            timestamp=obj["timestamp"],
        )
        record = record_from_json(ctx, obj["record"]) if obj.get("record") else None
        declared = absc.hex_bytes(obj["hash"], 32)
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed block: {exc}") from None
    if not isinstance(header.index, int) or not 0 <= header.index < 1 << 63:
        raise DecodeError("bad block index")
    if not isinstance(header.timestamp, int) or not 0 <= header.timestamp < 1 << 63:
        raise DecodeError("bad block timestamp")
    if not _check_pseudo_id(header.proposer):
        raise DecodeError("bad proposer id")
    return Block(header, record, declared)


def header_to_json(block):
    h = block.header
    return {
        "index": h.index,
        "prev_hash": h.prev_hash.hex(),
        "proposer": h.proposer,
        "timestamp": h.timestamp,
        "payload_digest": (block.record.payload_digest.hex()
                           if block.record else ZERO32.hex()),
        "hash": (block.declared_hash or block_hash(block)).hex(),
    }


class ChainLoadError(DecodeError):
    """A chain file line failed to parse; index is the offending block."""

    def __init__(self, message, index):
        super().__init__(f"block {index}: {message}")
        self.index = index


def _canonical_line(block):
    return json.dumps(block_to_json(block), sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def save_chain(path, chain):
    # Binary mode, one JSON object per b"\n".  Text mode would translate
    # newlines, letting a corrupted separator byte load unnoticed.
    with open(path, "wb") as fh:
        for block in chain:
            fh.write(_canonical_line(block) + b"\n")


def save_block(path, block):
    """Append one block to a chain file written by save_chain."""
    with open(path, "ab") as fh:
        fh.write(_canonical_line(block) + b"\n")


def load_chain(path, ctx):
    chain = []
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            block = block_from_json(ctx, json.loads(line.decode("utf-8")))
        except (DecodeError, ValueError, UnicodeDecodeError) as exc:
            raise ChainLoadError(str(exc), i) from None
        # Byte-exact echo: anything that parses but is not our canonical
        # encoding (stray whitespace, re-cased hex) is a corrupt line.
        if _canonical_line(block) != line:
            raise ChainLoadError("line is not the canonical block encoding", i)
        chain.append(block)
    return chain
