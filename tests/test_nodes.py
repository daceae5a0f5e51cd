"""Role wiring: authority, validator, edge relay, and device behavior."""

import hashlib
import http.client
import json
import queue
import random
import socket
import threading
import time
from urllib.parse import urlparse

import pytest

import oracles
from policycast import absc, ledger, nodes, pairing
from policycast.groups import DecodeError, GroupContext, GroupElement
from policycast.nodes import (DeviceNode, EdgeNode, ManualClock,
                              TrustedAuthority, ValidatorNode, http_get,
                              http_post_json, publish_message)

POLICY = "alpha and beta"
MESSAGE = b"actuate valve 7"


@pytest.fixture(scope="module")
def authority():
    ta = TrustedAuthority("ASYMMETRIC_159", random.Random(0xED9E),
                          slot_seconds=15)
    bundles = {
        "sp": ta.register("alice@example.com", "sp"),
        "match": ta.register("thermostat-42", "sd",
                             attributes=["alpha", "beta"]),
        "other": ta.register("camera-9", "sd",
                             attributes=["alpha", "gamma"]),
    }
    return ta, bundles


def device_key(ta, bundle):
    return absc.attribute_key_from_json(ta.ctx, bundle["attribute_key"])


class Stack:
    """One validator, one edge, and the requested devices, all started."""

    def __init__(self, ta, bundles, push=False, pull=False):
        self.clock = ManualClock(0.0)
        self.vset = ta.validator_set()
        registry = dict(ta.publishers)
        self.validator = ValidatorNode(
            "val-1", ta.ctx, self.vset, registry, bundles["sp"]["pseudo_id"],
            clock=self.clock)
        self.validator.start(run_loop=False)
        self.devices = {}
        self.edge = EdgeNode("edge-1", ta.ctx, self.vset, registry,
                             self.validator.url, clock=self.clock)
        self.edge.start(run_loop=False)
        for label in ("match", "other"):
            dev = DeviceNode(
                label, ta.pp, device_key(ta, bundles[label]), registry,
                ta.slot_seconds, source=self.edge.url, clock=self.clock,
                pull=pull)
            dev.start(run_loop=False)
            self.devices[label] = dev
            if push:
                self.edge.push_targets.append(dev.url)

    def publish(self, ta, bundles, msg=MESSAGE, policy=POLICY, seed=7):
        return publish_message(ta.pp, bundles["sp"], msg, policy,
                               self.validator.url, random.Random(seed))

    def seal_next_slot(self):
        slot = ledger.slot_of(self.clock(), self.vset.slot_seconds) + 1
        self.clock.set(slot * self.vset.slot_seconds + 3)
        self.validator.tick()
        return self.validator.chain[-1]

    def stop(self):
        for node in (self.validator, self.edge, *self.devices.values()):
            node.stop()


@pytest.fixture
def stack_factory(authority):
    ta, bundles = authority
    stacks = []

    def build(**kw):
        s = Stack(ta, bundles, **kw)
        stacks.append(s)
        return s

    yield build
    for s in stacks:
        s.stop()


def test_manual_clock():
    clk = ManualClock(10)
    assert clk() == 10.0
    clk.advance(5)
    assert clk() == 15.0
    clk.set(3)
    assert clk() == 3.0
    moved = threading.Event()
    clk.watch(moved)
    clk.advance(1)
    assert moved.is_set()
    moved.clear()
    clk.set(0)
    assert moved.is_set()
    del moved  # held weakly: a clock keeps no dead node's event
    assert not list(clk._watchers)


def test_payload_push_pipeline(authority, stack_factory, tmp_path):
    ta, bundles = authority
    stack = stack_factory(push=True)
    stack.validator.store_path = tmp_path / "chain.jsonl"

    record, resp = stack.publish(ta, bundles)
    assert resp == {"status": "accepted"}
    assert len(stack.validator.chain) == 1  # nothing sealed yet

    tip = stack.seal_next_slot()
    assert tip.header.index == 1
    assert tip.record.pseudo_id == bundles["sp"]["pseudo_id"]

    stack.edge.sync_once()
    assert len(stack.edge.chain) == 2

    match, other = stack.devices["match"], stack.devices["other"]
    assert match.accepted == [(1, MESSAGE)]
    assert [e["event"] for e in match.events if e["event"] == "accepted"]
    assert other.accepted == []
    assert any(e["event"] == "ignored" for e in other.events)

    # the validator persisted a loadable, verifiable chain
    loaded = ledger.load_chain(stack.validator.store_path, ta.ctx)
    assert ledger.verify_chain(loaded, stack.vset, ta.publishers) is None
    assert len(loaded) == 2


def test_push_body_equals_block_route(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory(push=True)
    match = stack.devices["match"]
    pushed = []
    real = match.handle

    def spy(method, path, body):
        pushed.append(body)
        return real(method, path, body)

    match.handle = spy
    stack.publish(ta, bundles)
    stack.seal_next_slot()
    stack.edge.sync_once()
    assert match.accepted == [(1, MESSAGE)]
    # one delivery form: the push body is the edge's GET /chain/block/N body
    served = http_get(f"{stack.edge.url}/chain/block/1").json()
    assert pushed == [served]
    assert served == ledger.block_to_json(stack.validator.chain[1])
    with pytest.raises(ValueError):  # header-only push is gone
        EdgeNode("edge-2", ta.ctx, stack.vset, ta.publishers,
                 stack.validator.url, push_targets=[(match.url, "header")])


def test_pull_mode(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory(pull=True)
    stack.publish(ta, bundles)
    stack.seal_next_slot()
    stack.edge.sync_once()
    for dev in stack.devices.values():
        dev.tick()
    assert stack.devices["match"].accepted == [(1, MESSAGE)]
    assert any(e["event"] == "ignored"
               for e in stack.devices["other"].events)


class AppendOnly:
    """Has append() and nothing else, like the CLI's disk sinks."""

    __slots__ = ("_put",)

    def __init__(self, put):
        self._put = put

    def append(self, item):
        self._put(item)


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_nodes_only_append_to_events_and_accepted(authority, stack_factory,
                                                  mode):
    # the CLI and perfbench both swap these out; a node that read them
    # back would fail here rather than in a benchmark run
    ta, bundles = authority
    stack = stack_factory(push=mode == "push", pull=mode == "pull")
    logged, accepted = [], []
    for node in (stack.validator, stack.edge, *stack.devices.values()):
        node.events = AppendOnly(logged.append)
    for dev in stack.devices.values():
        dev.accepted = AppendOnly(accepted.append)
    stack.publish(ta, bundles)
    stack.seal_next_slot()
    stack.edge.sync_once()
    for dev in stack.devices.values():
        dev.tick()  # a pushed device's tick does nothing
    assert accepted == [(1, MESSAGE)]
    assert {("match", "accepted"), ("other", "ignored")} <= {
        (e["node"], e["event"]) for e in logged}


def test_pull_alarms_on_bad_payload_hex(authority, stack_factory, monkeypatch):
    ta, bundles = authority
    stack = stack_factory(pull=True)
    stack.publish(ta, bundles)
    stack.seal_next_slot()
    stack.edge.sync_once()
    real = ledger.block_to_json

    def recased(block):  # a relay serving non-canonical payload hex
        out = real(block)
        if out["record"]:
            out["record"]["payload"] = out["record"]["payload"].upper()
        return out

    monkeypatch.setattr(ledger, "block_to_json", recased)
    match = stack.devices["match"]
    match.tick()
    assert match.accepted == []
    assert [e.get("detail") for e in match.events
            if e["event"] == "integrity-alarm"] == ["bad-payload-hex"]


class JunkSource(nodes.NodeService):
    """A relay whose head claims block `tip`, which serves each block up
    to it as (status, body) at once, and counts the block requests."""

    def __init__(self, status, body, tip=1):
        super().__init__("relay")
        self.status, self.body, self.tip = status, body, tip
        self.requests = 0

    def handle(self, method, path, body):
        if urlparse(path).path == "/chain/head":
            return 200, {"index": self.tip}
        self.requests += 1
        idx = int(urlparse(path).path.rsplit("/", 1)[1])
        if idx > self.tip:
            return 404, {"error": "not-found"}
        return self.status, self.body


def run_puller(ta, bundles, source, seconds, until=lambda dev: True):
    """Run a pulling device's loop against source until `until(dev)`
    holds (for at most 5 s), then `seconds` more; stop both."""
    dev = bare_device(ta, bundles, source=source.url, pull=True)
    try:
        dev.start(serve=False)
        deadline = time.monotonic() + 5
        while not until(dev) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(seconds)
    finally:
        dev.stop()
        source.stop()
    return dev


def test_pull_alarms_once_on_a_non_object_block(authority):
    # a block that is not an object, or holds no record object, alarms
    # once; the device moves past it and asks for the next
    ta, bundles = authority
    for junk in (["not", "a", "block"], {"index": 1, "record": None}):
        source = JunkSource(200, junk).start(run_loop=False)
        # a few more ticks once past the block
        dev = run_puller(ta, bundles, source, 0.1, lambda d: d._pull_next > 1)
        assert dev._pull_next == 2
        assert [(e["event"], e.get("detail")) for e in dev.events] == [
            ("integrity-alarm", "bad-block")]


def test_followers_advance_only_on_a_200_block(authority):
    # the head claims block 1, but no answer for it is a 200: neither
    # follower moves past it, and neither logs a sync event
    ta, bundles = authority
    for status in (500, 404):
        source = JunkSource(status, {"error": "nope"}).start(run_loop=False)
        dev = bare_device(ta, bundles, source=source.url, pull=True)
        edge = EdgeNode("edge-1", ta.ctx, ta.validator_set(), ta.publishers,
                        source.url, clock=ManualClock(18))
        try:
            assert not dev.tick()
            assert not edge.sync_once()
        finally:
            source.stop()
        assert dev._pull_next == 1 and dev.events == []
        assert len(edge.chain) == 1 and edge.events == []


def test_edge_resyncs_a_gap(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()
    stack.publish(ta, bundles, seed=1)
    stack.seal_next_slot()
    stack.publish(ta, bundles, msg=b"second", seed=2)
    stack.seal_next_slot()
    assert len(stack.validator.chain) == 3
    # the edge was idle while both blocks landed; one pass per block
    # catches it up
    assert stack.edge.sync_once() and stack.edge.sync_once()
    assert len(stack.edge.chain) == 3
    assert [e["index"] for e in stack.edge.events
            if e["event"] == "block-synced"] == [1, 2]


def test_validator_keeps_slot_open_until_record(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()
    stack.clock.set(1 * 15 + 3)
    stack.validator.tick()
    assert len(stack.validator.chain) == 1  # empty queue, slot held open
    stack.publish(ta, bundles)
    stack.validator.tick()  # same slot, record now present
    assert len(stack.validator.chain) == 2
    assert ledger.slot_of(stack.validator.chain[1].header.timestamp, 15) == 1


def test_chain_read_endpoints(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()
    stack.publish(ta, bundles)
    tip = stack.seal_next_slot()

    head = http_get(f"{stack.validator.url}/chain/head").json()
    assert head["index"] == 1
    assert head["hash"] == ledger.block_hash(tip).hex()

    blk = http_get(f"{stack.validator.url}/chain/block/1").json()
    assert ledger.block_from_json(ta.ctx, blk) == tip
    assert absc.hex_bytes(blk["record"]["payload"]) == tip.record.payload

    assert http_get(f"{stack.validator.url}/chain/block/9").status_code == 404
    # the block carries its payload: there is no separate payload route
    for path in ("/chain/block/1/payload", "/chain/headers?from=1", "/nope"):
        assert http_get(f"{stack.validator.url}{path}").status_code == 404


def signcrypted_payload(ta, bundles, msg=MESSAGE, seed=31):
    """The publisher's signcrypted payload bytes."""
    sk = absc.SigningKey(ta.ctx.deserialize_element(
        bytes.fromhex(bundles["sp"]["key_sign"]), "s2"))
    st, ct = absc.signcrypt(ta.pp, sk, msg, POLICY, random.Random(seed))
    return absc.payload_bytes(st, ct)


def record_over(bundles, payload):
    """The registered publisher's record over any payload bytes, digests intact."""
    sp = bundles["sp"]
    return ledger.Record(hashlib.sha256(bytes.fromhex(sp["key_ver"])).digest(),
                         sp["pseudo_id"], hashlib.sha256(payload).digest(), payload)


def off_curve(ctx, data):
    """An encoding with the same tag, width and x whose (x, y) is not on the curve."""
    w = ctx.params.fq_bytes
    for y in range(1, 1000):
        bent = data[:1 + w] + y.to_bytes(w, "big")
        try:
            ctx.deserialize_element(bent, "s1")
        except DecodeError as exc:
            if "not on the curve" in str(exc):
                return bent
    raise AssertionError("no off-curve y below 1000")


def test_cofactor_shifted_psi_passes_relays_and_fails_designcrypt(authority,
                                                                  stack_factory):
    # psi decodes on the curve only, so the device that the policy
    # excludes ignores the payload, and the walk of e(C, psi) refuses it
    # on the device that decrypts
    ta, bundles = authority
    stack = stack_factory(push=True)
    payload = signcrypted_payload(ta, bundles)
    span = oracles.payload_fields(ta.ctx, payload)["psi"]
    psi = ta.ctx.deserialize_element(payload[slice(*span)], "s2")
    h = oracles.cofactor_point(ta.ctx.params, random.Random(37))
    moved = pairing.pt_add(psi.point, h, ta.ctx.params.q)
    record = record_over(bundles, oracles.splice(
        payload, span, GroupElement(ta.ctx, "s2", moved).to_bytes()))
    resp = http_post_json(f"{stack.validator.url}/records",
                          ledger.record_to_json(record))
    assert resp.json() == {"status": "accepted"}
    assert stack.seal_next_slot().record == record
    stack.edge.sync_once()
    assert len(stack.edge.chain) == 2
    outcomes = {label: [(e["event"], e.get("detail")) for e in dev.events
                        if e["event"] in ("integrity-alarm", "ignored", "accepted")]
                for label, dev in stack.devices.items()}
    assert outcomes == {"match": [("integrity-alarm", "designcrypt-failed")],
                        "other": [("ignored", None)]}


def test_validator_rejects_bad_records(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()

    rng = random.Random(11)
    sk, vk = absc.signing_keygen(ta.pp, ta.mk, rng)
    st, ct = absc.signcrypt(ta.pp, sk, b"rogue", POLICY, rng)
    rogue = ledger.make_record("cd" * 16, vk, st, ct)
    resp = http_post_json(f"{stack.validator.url}/records",
                          ledger.record_to_json(rogue))
    assert resp.status_code == 400
    assert resp.json()["reason"] == ledger.REJECT_UNREGISTERED

    resp = http_post_json(f"{stack.validator.url}/records", {"st": 1})
    assert resp.status_code == 400
    assert resp.json()["reason"].startswith("structure:")

    # payload shape: a point one byte short, a missing leaf (digests intact)
    payload = signcrypted_payload(ta, bundles)
    fields = oracles.payload_fields(ta.ctx, payload)
    short_point = oracles.splice(payload, (fields["c"][1] - 1, fields["c"][1]), b"")
    missing_leaf = oracles.splice(
        payload, (fields[("c_y", 1)][0], fields[("c_y_prime", 1)][1]), b"")
    for bad in (short_point, missing_leaf):
        resp = http_post_json(f"{stack.validator.url}/records",
                              ledger.record_to_json(record_over(bundles, bad)))
        assert resp.status_code == 400
        assert resp.json()["reason"].startswith("structure:")
    assert len(stack.validator.pending) == 0


def test_relays_never_decode_curve_points(authority, stack_factory, tmp_path,
                                          monkeypatch):
    ta, bundles = authority
    stack = stack_factory()
    stack.validator.store_path = tmp_path / "chain.jsonl"
    record = record_over(bundles, signcrypted_payload(ta, bundles))
    calls = []

    def counting(name):
        real = getattr(GroupContext, name)

        def wrapper(self, *args):
            calls.append(name)
            return real(self, *args)
        return wrapper

    for name in ("deserialize_element", "deserialize_evaluation_point"):
        monkeypatch.setattr(GroupContext, name, counting(name))
    resp = http_post_json(f"{stack.validator.url}/records",
                          ledger.record_to_json(record))
    assert resp.json() == {"status": "accepted"}
    stack.seal_next_slot()
    stack.edge.sync_once()
    assert stack.edge.chain == stack.validator.chain
    loaded = ledger.load_chain(stack.validator.store_path, ta.ctx)
    assert loaded == stack.validator.chain
    assert calls == []
    # the counter is live: the device is the one decoder
    header = ledger.header_to_json(stack.edge.chain[1])
    match = stack.devices["match"]
    assert match.receive(header, record.pseudo_id, record.payload) == "accepted"
    assert set(calls) == {"deserialize_evaluation_point"}


def test_off_curve_point_passes_relays_and_alarms_devices(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory(push=True)
    payload = signcrypted_payload(ta, bundles)
    span = oracles.payload_fields(ta.ctx, payload)["c"]
    record = record_over(bundles, oracles.splice(
        payload, span, off_curve(ta.ctx, payload[slice(*span)])))
    resp = http_post_json(f"{stack.validator.url}/records",
                          ledger.record_to_json(record))
    assert resp.json() == {"status": "accepted"}
    assert stack.seal_next_slot().record == record
    stack.edge.sync_once()
    assert len(stack.edge.chain) == 2
    for dev in stack.devices.values():
        assert dev.accepted == []
        alarms = [e["detail"] for e in dev.events if e["event"] == "integrity-alarm"]
        assert len(alarms) == 1 and alarms[0].startswith("decode:"), alarms


def test_non_canonical_payload_bytes_are_refused(authority, stack_factory):
    # each variant carries the signed fields of one honest payload (the
    # same tree, pi mod p, every other byte) but has its own digest;
    # relays and devices alike refuse it
    ta, bundles = authority
    stack = stack_factory()
    honest = signcrypted_payload(ta, bundles)
    fields = oracles.payload_fields(ta.ctx, honest)
    pi = int.from_bytes(honest[slice(*fields["pi"])], "big") + ta.ctx.p
    variants = {
        oracles.with_policy_text(ta.ctx, honest, POLICY.replace(" ", "  ")):
            "policy text is not in canonical form",
        oracles.splice(honest, fields["pi"], pi.to_bytes(ta.ctx.params.r_bytes, "big")):
            "pi out of range",
        honest + b"\x00": "body must be a positive multiple of the block size",
    }
    assert len({honest, *variants}) == 4
    pid = bundles["sp"]["pseudo_id"]
    for payload in [honest, *variants]:
        resp = http_post_json(f"{stack.validator.url}/records",
                              ledger.record_to_json(record_over(bundles, payload)))
        dev = bare_device(ta, bundles)
        header = {"index": 1, "timestamp": 18,
                  "payload_digest": hashlib.sha256(payload).hexdigest()}
        outcome = dev.receive(header, pid, payload)
        alarms = [e["detail"] for e in dev.events if e["event"] == "integrity-alarm"]
        if payload == honest:  # the counters are live
            assert resp.json() == {"status": "accepted"}
            assert outcome == "accepted"
            continue
        assert resp.status_code == 400
        assert resp.json()["reason"] == f"structure: {variants[payload]}"
        assert outcome == "alarm"
        assert alarms == [f"decode: {variants[payload]}"]
    assert len(stack.validator.pending) == 1


def test_validator_appends_each_sealed_block(authority, stack_factory, tmp_path,
                                             monkeypatch):
    ta, bundles = authority
    stack = stack_factory()
    path = tmp_path / "chain.jsonl"
    stack.validator.store_path = path
    modes = []
    real_open = open

    def spy(file, mode="r", *args, **kwargs):
        if str(file) == str(path):
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(ledger, "open", spy, raising=False)
    for i in range(5):
        stack.publish(ta, bundles, msg=b"block %d" % i, seed=100 + i)
        stack.seal_next_slot()
    assert len(stack.validator.chain) == 6
    whole = tmp_path / "whole.jsonl"
    ledger.save_chain(whole, stack.validator.chain)
    assert path.read_bytes() == whole.read_bytes()
    # only the first seal truncates; each later one appends a line
    assert modes == ["wb", "ab", "ab", "ab", "ab"]


def test_http_retries_sleep_only_between_attempts(monkeypatch):
    attempts, sleeps = [], []

    def refuse(conn):
        attempts.append(conn.host)
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", refuse)
    monkeypatch.setattr(nodes.time, "sleep", sleeps.append)
    with pytest.raises(ConnectionRefusedError):
        http_get("http://127.0.0.1:9/chain/head", retries=3)
    assert len(attempts) == 3
    assert sleeps == [0.1, 0.2]


# ---------------------------------------------------------------------------
# transport: kept-alive connections, long-poll, stop()

def count_accepts(monkeypatch):
    """node name -> connections its server accepted, from now on."""
    accepted = {}
    real = nodes._Server.process_request

    def counting(server, request, address):
        accepted[server.node.name] = accepted.get(server.node.name, 0) + 1
        return real(server, request, address)

    monkeypatch.setattr(nodes._Server, "process_request", counting)
    return accepted


def test_requests_to_one_peer_share_one_connection(authority, stack_factory,
                                                   monkeypatch):
    ta, bundles = authority
    accepted = count_accepts(monkeypatch)
    stack = stack_factory(push=True)
    for i in range(3):
        stack.publish(ta, bundles, msg=b"block %d" % i, seed=60 + i)
        stack.seal_next_slot()
        assert stack.edge.sync_once()
    assert [m for _, m in stack.devices["match"].accepted] == [
        b"block 0", b"block 1", b"block 2"]
    # the edge sent 3 requests to the validator and 3 pushes to each
    # device; each publish_message opens a connection of its own
    assert accepted == {"val-1": 3 + 1, "match": 1, "other": 1}


def test_block_long_poll_waits_for_a_seal(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()
    url = f"{stack.validator.url}/chain/block/1"
    t0 = time.monotonic()
    assert http_get(url).status_code == 404  # nothing sealed: the bound
    waited = time.monotonic() - t0
    assert nodes.LONG_POLL_SECONDS <= waited < nodes.LONG_POLL_SECONDS + 0.5
    t0 = time.monotonic()  # the head answers at once; it takes no `after`
    assert http_get(f"{stack.validator.url}/chain/head?after=0").json()["index"] == 0
    assert time.monotonic() - t0 < 0.5

    stack.publish(ta, bundles)
    # a seal wakes the validator's waiters, a sync the edge's
    for node, grow in ((stack.validator, stack.seal_next_slot),
                       (stack.edge, stack.edge.sync_once)):
        url = f"{node.url}/chain/block/1"
        got = {}

        def poll():
            got["block"] = http_get(url).json()
            got["at"] = time.monotonic()

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.3)
        assert "block" not in got, node.name  # parked
        grow()
        grown = time.monotonic()
        poller.join(5)
        assert not poller.is_alive()
        assert got["block"] == ledger.block_to_json(stack.validator.chain[1])
        assert got["at"] - grown < 0.1, node.name
        t0 = time.monotonic()
        assert http_get(url).status_code == 200  # held: no wait
        assert time.monotonic() - t0 < 0.5


def test_followers_send_one_request_per_block(authority):
    ta, bundles = authority
    clock = ManualClock(0.0)
    t0 = time.monotonic()
    validator = started_validator(ta, bundles, clock)
    edge = EdgeNode("edge-1", ta.ctx, ta.validator_set(), ta.publishers,
                    validator.url, clock=clock)
    served = {}
    for node in (validator, edge):
        def spy(method, path, body, real=node.handle,
                log=served.setdefault(node.name, [])):
            status, reply = real(method, path, body)
            if method == "GET":
                log.append((path, status))
            return status, reply

        node.handle = spy
    edge.start()
    dev = bare_device(ta, bundles, source=edge.url, clock=clock, pull=True)
    dev.start(serve=False)
    try:
        for i in range(3):
            publish_message(ta.pp, bundles["sp"], b"block %d" % i, POLICY,
                            validator.url, random.Random(90 + i))
            clock.advance(15)
            deadline = time.monotonic() + 5
            while len(dev.accepted) <= i:
                assert time.monotonic() < deadline, "block %d never arrived" % i
                time.sleep(0.01)
    finally:
        for node in (dev, edge, validator):
            node.stop()
    elapsed = time.monotonic() - t0
    # the edge asks the validator, the device asks the edge: one request
    # per block, none for the head; a parked request for a block not yet
    # sealed ends in a 404 after LONG_POLL_SECONDS, or at stop()
    for name, log in served.items():
        assert [p for p, status in log if status == 200] == [
            f"/chain/block/{i}" for i in (1, 2, 3)], name
        assert all(p.startswith("/chain/block/") for p, _ in log), name
        assert len(log) - 3 <= 1 + elapsed / nodes.LONG_POLL_SECONDS, name


def test_stop_ends_parked_long_polls_and_idle_connections(authority):
    ta, bundles = authority
    base = threading.active_count()
    vset = ta.validator_set()
    validator = ValidatorNode("val-1", ta.ctx, vset, ta.publishers,
                              bundles["sp"]["pseudo_id"], clock=ManualClock(18))
    validator.start(run_loop=False)
    edge = EdgeNode("edge-1", ta.ctx, vset, ta.publishers, validator.url,
                    clock=ManualClock(18)).start()
    dev = bare_device(ta, bundles, source=edge.url, pull=True).start(serve=False)
    idle = nodes.Connections()
    for node in (validator, edge):
        assert http_get(f"{node.url}/chain/head", conns=idle).status_code == 200
    # each server holds a follower's parked long-poll and an idle connection
    deadline = time.monotonic() + 5
    while (len(validator._server._open), len(edge._server._open)) != (2, 2):
        assert time.monotonic() < deadline, "the followers never parked"
        time.sleep(0.01)
    time.sleep(0.1)
    # followers first, as deployments do
    for node, bound in ((dev, 0.25), (edge, 1.0), (validator, 1.0)):
        t0 = time.monotonic()
        node.stop()
        assert time.monotonic() - t0 < bound, node.name
    idle.close()
    assert threading.active_count() == base
    assert [e for n in (validator, edge, dev) for e in n.events] == []


class GatedTarget(nodes.NodeService):
    """A push target whose handler holds each push until released."""

    def __init__(self):
        super().__init__("gated")
        self.entered, self.release = threading.Event(), threading.Event()

    def handle(self, method, path, body):
        self.entered.set()
        self.release.wait(5)
        return 200, {"status": "accepted"}


def test_stop_mid_push_logs_no_failure(authority):
    ta, bundles = authority
    clock = ManualClock(0.0)
    vset = ta.validator_set()
    validator = ValidatorNode("val-1", ta.ctx, vset, ta.publishers,
                              bundles["sp"]["pseudo_id"], clock=clock)
    validator.start(run_loop=False)
    target = GatedTarget().start(run_loop=False)
    edge = EdgeNode("edge-1", ta.ctx, vset, ta.publishers, validator.url,
                    push_targets=[(target.url, "payload")], clock=clock).start()
    try:
        publish_message(ta.pp, bundles["sp"], MESSAGE, POLICY, validator.url,
                        random.Random(5))
        clock.set(15 + 3)
        validator.tick()
        assert target.entered.wait(5)
        edge.stop()  # hangs up the push parked in the target's handler
    finally:
        target.release.set()
        for node in (edge, target, validator):
            node.stop()
    assert [e["event"] for e in edge.events] == ["block-synced"]


def test_a_kept_alive_connection_the_server_closed_is_replaced_at_once(
        authority, stack_factory, monkeypatch):
    accepted = count_accepts(monkeypatch)
    monkeypatch.setattr(nodes._Handler, "timeout", 0.05)
    stack = stack_factory()
    conns = nodes.Connections()
    url = f"{stack.validator.url}/chain/head"
    try:
        assert http_get(url, conns=conns).status_code == 200
        time.sleep(0.3)  # the server times the idle connection out
        sleeps = []
        monkeypatch.setattr(nodes.time, "sleep", sleeps.append)
        assert http_get(url, conns=conns).status_code == 200
        assert http_post_json(f"{stack.validator.url}/records", {"st": 1},
                              conns=conns).status_code == 400
    finally:
        conns.close()
    assert sleeps == []
    assert accepted == {"val-1": 2}


def test_a_follower_polls_an_instant_relay_once_per_interval(authority):
    ta, bundles = authority
    source = JunkSource(200, {}, tip=0).start(run_loop=False)
    dev = run_puller(ta, bundles, source, 0.5)
    # block 1 is missing and the relay says so at once: one request per
    # 20 ms poll_interval at most
    assert 5 <= source.requests <= 0.5 / dev.poll_interval + 2
    assert dev.events == []


def test_a_follower_polls_a_junk_relay_once_per_interval(authority):
    # each junk block is a step past it but no progress, so the loop
    # still waits poll_interval before the next request
    ta, bundles = authority
    source = JunkSource(200, ["not", "a", "block"], tip=10 ** 6).start(run_loop=False)
    dev = run_puller(ta, bundles, source, 0.5)
    assert 5 <= source.requests <= 0.5 / dev.poll_interval + 2
    # one step and one alarm per junk block answered (stop() may cut
    # the last answer off)
    steps = dev._pull_next - 1
    assert source.requests - 1 <= steps <= source.requests
    assert {e.get("detail") for e in dev.events} == {"bad-block"}
    assert len(dev.events) == steps


# ---------------------------------------------------------------------------
# event-driven loops: wake events, no loop on a push device, prompt stop()

def started_validator(ta, bundles, clock):
    return ValidatorNode("val-1", ta.ctx, ta.validator_set(), ta.publishers,
                         bundles["sp"]["pseudo_id"], clock=clock).start()


def stamp_events(node, *kinds):
    """kind -> a queue of the perf_counter times node logs it, from now on."""
    stamps = {kind: queue.Queue() for kind in kinds}
    log = node.event

    def event(kind, **details):
        log(kind, **details)
        if kind in stamps:
            stamps[kind].put(time.perf_counter())

    node.event = event
    return stamps


def count_ticks(node):
    """One entry per later tick: whether stop() had been asked by then."""
    ticks = []
    real = node.tick

    def tick():
        ticks.append(node._stop.is_set())
        return real()

    node.tick = tick
    return ticks


def prompt(delays):
    """At least 9 of 10 seals within 5 ms: one may meet a busy host.

    A loop polling every 20 ms spreads each delay over 0-20 ms, so it
    passes with odds of about 3 in 100,000.
    """
    return len(delays) == 10 and sum(d < 0.005 for d in delays) >= 9


def test_a_clock_advance_wakes_the_validator(authority):
    ta, bundles = authority
    clock = ManualClock(0.0)
    validator = started_validator(ta, bundles, clock)
    sealed = stamp_events(validator, "block-appended")["block-appended"]
    delays = []
    try:
        for i in range(10):
            publish_message(ta.pp, bundles["sp"], b"round %d" % i, POLICY,
                            validator.url, random.Random(80 + i))
            t0 = time.perf_counter()
            clock.advance(15)  # the next slot opens, and it is ours
            delays.append(sealed.get(timeout=5) - t0)
    finally:
        validator.stop()
    assert len(validator.chain) == 11
    assert prompt(delays), delays


def test_a_record_in_an_open_slot_is_sealed_at_once(authority):
    # time.time cannot signal; the record's arrival wakes the loop
    ta, bundles = authority
    body = ledger.record_to_json(record_over(bundles, signcrypted_payload(ta, bundles)))
    delays = []
    for _ in range(10):
        validator = started_validator(ta, bundles, time.time)
        stamps = stamp_events(validator, "record-queued", "block-appended")
        try:
            time.sleep(0.05)  # the loop has seen the slot: ours, held open
            resp = http_post_json(f"{validator.url}/records", body)
            assert resp.json() == {"status": "accepted"}
            sealed = stamps["block-appended"].get(timeout=5)
            delays.append(sealed - stamps["record-queued"].get(timeout=5))
        finally:
            validator.stop()
    assert prompt(delays), delays


def test_a_push_device_runs_no_loop_and_accepts_a_push(authority, delivery):
    ta, bundles = authority
    header, publisher, payload = delivery
    block = {k: v for k, v in header.items() if k != "payload_digest"}
    block["record"] = {"pseudo_id": publisher, "payload": payload.hex(),
                       "payload_digest": header["payload_digest"]}
    base = threading.active_count()
    dev = bare_device(ta, bundles).start()
    try:
        assert threading.active_count() == base + 1  # its accept loop alone
        resp = http_post_json(f"{dev.url}/push", block)
    finally:
        dev.stop()
    assert resp.json() == {"status": "accepted"}
    assert dev.accepted == [(1, MESSAGE)]
    assert threading.active_count() == base


def test_an_idle_validator_ticks_at_most_once_per_interval(authority):
    ta, bundles = authority
    clock = ManualClock(18)
    validator = started_validator(ta, bundles, clock)
    ticks = count_ticks(validator)
    try:
        clock.advance(15)  # one wake-up, then nothing happens
        time.sleep(0.5)
    finally:
        validator.stop()
    # poll_interval still caps each wait, as a real clock's slot boundary
    # needs; a wake event left set would tick without pause
    assert 5 <= len(ticks) <= 0.5 / validator.poll_interval + 2


def test_a_stopped_loop_never_ticks_again(authority):
    ta, bundles = authority
    clock = ManualClock(18)
    validator = started_validator(ta, bundles, clock)
    ticks = count_ticks(validator)
    time.sleep(0.1)
    validator.stop()
    stopped = len(ticks)
    clock.advance(15)
    time.sleep(0.1)
    assert stopped and len(ticks) == stopped
    assert not any(ticks)  # no tick began once stop() was asked


def test_idle_nodes_stop_at_once(authority):
    # stop() wakes a server's accept loop: no wait for a select timeout
    ta, bundles = authority
    clock = ManualClock(18)
    validator = started_validator(ta, bundles, clock)
    dev = bare_device(ta, bundles, clock=clock).start()
    edge = EdgeNode("edge-1", ta.ctx, ta.validator_set(), ta.publishers,
                    validator.url, push_targets=[(dev.url, "payload")],
                    clock=clock).start()
    for node in (validator, edge):
        node.poll_interval = 10  # stop() must wake a loop, not wait it out
    time.sleep(0.1)  # the edge's long-poll is parked on the validator
    for node in (dev, edge, validator):
        t0 = time.monotonic()
        node.stop()
        assert time.monotonic() - t0 < 0.1, node.name


# ---------------------------------------------------------------------------
# device gates, driven directly (no HTTP needed)

@pytest.fixture(scope="module")
def delivery(authority):
    """A sealed block's header/publisher/payload triple, plus the keys."""
    ta, bundles = authority
    rng = random.Random(23)
    sp = bundles["sp"]
    sk = absc.SigningKey(ta.ctx.deserialize_element(
        bytes.fromhex(sp["key_sign"]), "s2"))
    vk = absc.VerificationKey(ta.ctx.deserialize_element(
        bytes.fromhex(sp["key_ver"]), "s2"))
    st, ct = absc.signcrypt(ta.pp, sk, MESSAGE, POLICY, rng)
    record = ledger.make_record(sp["pseudo_id"], vk, st, ct)
    vs = ta.validator_set()
    block = ledger.propose_block(ledger.genesis(), record, sp["pseudo_id"],
                                 18, vs)
    return (ledger.header_to_json(block), sp["pseudo_id"],
            absc.payload_bytes(st, ct))


def bare_device(ta, bundles, label="match", clock=None, registry=None,
                **kw):
    return DeviceNode(
        label, ta.pp, device_key(ta, bundles[label]),
        ta.publishers if registry is None else registry,
        ta.slot_seconds, clock=clock or ManualClock(18), **kw)


def test_device_freshness_window(authority, delivery):
    ta, bundles = authority
    header, publisher, payload = delivery
    clk = ManualClock(18 + 10 * 15)  # exactly at the edge: still fresh
    dev = bare_device(ta, bundles, clock=clk)
    assert dev.receive(header, publisher, payload) == "accepted"

    late = bare_device(ta, bundles, clock=ManualClock(18 + 10 * 15 + 1))
    assert late.receive(header, publisher, payload) == "stale"
    assert late.accepted == []
    assert any(e["event"] == "stale" for e in late.events)


def test_device_duplicate_suppression(authority, delivery):
    ta, bundles = authority
    header, publisher, payload = delivery
    dev = bare_device(ta, bundles)
    assert dev.receive(header, publisher, payload) == "accepted"
    assert dev.receive(header, publisher, payload) == "duplicate"
    assert dev.accepted == [(1, MESSAGE)]


def test_device_header_and_digest_gates(authority, delivery):
    ta, bundles = authority
    header, publisher, payload = delivery

    dev = bare_device(ta, bundles)
    assert dev.receive({"index": 1}, publisher, payload) == "alarm"

    dev = bare_device(ta, bundles)
    wrong = dict(header, payload_digest="00" * 32)
    assert dev.receive(wrong, publisher, payload) == "alarm"
    assert any(e.get("detail") == "payload-digest" for e in dev.events)

    # a payload mutation is caught by the digest, before any parsing
    dev = bare_device(ta, bundles)
    bent = payload[:40] + bytes([payload[40] ^ 1]) + payload[41:]
    assert dev.receive(header, publisher, bent) == "alarm"
    assert dev.accepted == []


def test_device_builds_key_lines_on_its_first_message(authority, delivery,
                                                      monkeypatch):
    ta, bundles = authority
    header, publisher, payload = delivery
    builds = []
    real = pairing.miller_lines

    def counting(P, params):
        builds.append(P)
        return real(P, params)

    monkeypatch.setattr(pairing, "miller_lines", counting)
    dev = bare_device(ta, bundles)
    assert builds == []
    assert dev.receive(header, publisher, payload) == "accepted"
    assert len(builds) == 1 + 2 * 2 + 1  # d_enc, alpha's and beta's pair, key_ver
    builds.clear()
    assert dev.receive(dict(header, index=2), publisher, payload) == "accepted"
    assert builds == []


def test_warm_device_receive_does_no_pt_mul_and_no_strict_decode(
        authority, delivery, monkeypatch):
    # every point but psi is signed into pi and only evaluated at, and
    # e(C, psi)'s walk checks psi, so a receive with the publisher's
    # key_ver decoded runs no pt_mul and no strict decode
    ta, bundles = authority
    header, publisher, payload = delivery
    dev = bare_device(ta, bundles)
    assert dev.receive(header, publisher, payload) == "accepted"  # key_ver decoded
    calls = []
    real_mul, real_decode = pairing.pt_mul, GroupContext.deserialize_element

    def mul(P, k, q):
        calls.append("pt_mul")
        return real_mul(P, k, q)

    def decode(self, data, group):
        calls.append("deserialize_element")
        return real_decode(self, data, group)

    monkeypatch.setattr(pairing, "pt_mul", mul)
    monkeypatch.setattr(GroupContext, "deserialize_element", decode)
    assert dev.receive(dict(header, index=2), publisher, payload) == "accepted"
    assert calls == []


def test_device_registry_key_hex_is_decoded_canonically(authority, delivery):
    # the TA's registry holds lowercase hex; any other form is refused
    ta, bundles = authority
    header, publisher, payload = delivery
    for bad in (ta.publishers[publisher].upper(), "zz"):
        dev = bare_device(ta, bundles, registry={publisher: bad})
        with pytest.raises(DecodeError):
            dev.receive(header, publisher, payload)
        assert dev.accepted == []


def test_device_builds_no_window_table(authority, delivery, monkeypatch):
    ta, bundles = authority
    header, publisher, payload = delivery
    builds = []
    real = pairing.fixed_base_table

    def counting(P, params):
        builds.append(P)
        return real(P, params)

    monkeypatch.setattr(pairing, "fixed_base_table", counting)
    dev = bare_device(ta, bundles)
    assert dev.receive(header, publisher, payload) == "accepted"
    assert builds == []


def test_publisher_keys_and_tables_are_built_once(monkeypatch):
    # a fresh authority, whose public parameters hold no decoded keys yet
    ta = TrustedAuthority("ASYMMETRIC_159", random.Random(0x7AB1E))
    sp = ta.register("publisher", "sp")
    decodes, builds = [], []
    real_decode = GroupContext.deserialize_element
    real_build = pairing.fixed_base_table

    def decode(self, data, group):
        decodes.append(data.hex())
        return real_decode(self, data, group)

    def build(P, params):
        builds.append(P)
        return real_build(P, params)

    class Accepted:
        def json(self):
            return {"status": "accepted"}

    monkeypatch.setattr(GroupContext, "deserialize_element", decode)
    monkeypatch.setattr(pairing, "fixed_base_table", build)
    monkeypatch.setattr(nodes, "http_post_json", lambda url, obj: Accepted())
    rng = random.Random(3)
    record, _ = publish_message(ta.pp, sp, MESSAGE, POLICY, "http://x", rng)
    assert sorted(decodes) == sorted([sp["key_sign"], sp["key_ver"]])
    # g1's and g2's tables are the profile's, built before; signcrypt
    # builds h's and key_sign's
    key_sign = real_decode(ta.ctx, bytes.fromhex(sp["key_sign"]), "s2")
    assert sorted(builds) == sorted([ta.pp.h.point, key_sign.point])
    decodes.clear()
    builds.clear()
    again, _ = publish_message(ta.pp, sp, MESSAGE, POLICY, "http://x", rng)
    assert (decodes, builds) == ([], [])
    assert again.publisher_pk_digest == record.publisher_pk_digest


def test_device_unknown_publisher_alarms(authority, delivery):
    ta, bundles = authority
    header, publisher, payload = delivery
    dev = bare_device(ta, bundles, registry={})
    assert dev.receive(header, publisher, payload) == "alarm"
    assert any(e.get("detail") == "unknown-publisher" for e in dev.events)


def test_push_endpoint_validates_body(authority, stack_factory):
    ta, bundles = authority
    stack = stack_factory()
    url = stack.devices["match"].url
    assert http_post_json(f"{url}/push", {"nope": 1}).status_code == 400
    assert http_post_json(f"{url}/push", {"header": {}, "payload": "zz"}
                          ).status_code == 400
    resp = http_post_json(f"{url}/push", {"index": 1, "record": {"payload": "zz"}})
    assert resp.json() == {"status": "alarm"}
    assert [e.get("detail") for e in stack.devices["match"].events
            if e["event"] == "integrity-alarm"] == ["bad-payload-hex"]


def test_request_body_is_capped(authority, stack_factory):
    stack = stack_factory()
    addr = (stack.validator.host, stack.validator.port)

    def post_headers_only(length):
        # a server that trusted the length would wait for a body never sent
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall(b"POST /records HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: %d\r\n\r\n" % length)
            return sock.recv(4096)

    assert post_headers_only(-1).startswith(b"HTTP/1.1 400 ")
    assert post_headers_only(nodes.MAX_BODY + 1).startswith(b"HTTP/1.1 413 ")
    assert http_get(f"{stack.validator.url}/chain/head").status_code == 200


def test_stop_joins_the_loop_thread(authority, monkeypatch):
    ta, bundles = authority
    in_retry = threading.Event()
    real_sleep = time.sleep

    def sleep(seconds):
        in_retry.set()
        real_sleep(seconds)

    monkeypatch.setattr(nodes.time, "sleep", sleep)
    dev = bare_device(ta, bundles, source="http://127.0.0.1:9", pull=True)
    dev.start(serve=False)
    threads = list(dev._threads)
    assert in_retry.wait(5), "the pull never reached a retry"
    dev.stop()  # mid-retry: the tick is sleeping between two attempts
    assert threads and not any(t.is_alive() for t in threads)


# ---------------------------------------------------------------------------
# authority bookkeeping

def test_bundles_never_carry_real_identities(authority):
    ta, bundles = authority
    for bundle in bundles.values():
        flat = json.dumps(bundle)
        assert "alice@example.com" not in flat
        assert "thermostat-42" not in flat
        assert "real_identity" not in flat
    assert ta.trace(bundles["match"]["pseudo_id"]) == "thermostat-42"
    with pytest.raises(ValueError):
        ta.trace("ff" * 16)


def test_wire_traffic_never_carries_real_identities(authority, stack_factory):
    # pushed-to, pulling devices make every node in the stack serve traffic
    ta, bundles = authority
    stack = stack_factory(push=True, pull=True)
    served = [stack.validator, stack.edge, *stack.devices.values()]
    traffic = {node.name: [] for node in served}
    for node in served:
        def spy(method, path, body, real=node.handle, log=traffic[node.name]):
            status, reply = real(method, path, body)
            log.append({"method": method, "path": path, "body": body,
                        "status": status, "reply": reply})
            return status, reply

        node.handle = spy
    stack.publish(ta, bundles)
    stack.seal_next_slot()
    stack.edge.sync_once()
    for dev in stack.devices.values():
        dev.tick()
    assert stack.devices["match"].accepted
    for name, log in traffic.items():
        assert log, f"{name} handled no request"
        text = json.dumps(log)
        for secret in ("alice@example.com", "thermostat-42", "camera-9"):
            assert secret not in text


def test_public_bundle_contents(authority):
    ta, bundles = authority
    pub = ta.public_bundle()
    assert pub["profile"] == "ASYMMETRIC_159"
    assert pub["validators"] == [bundles["sp"]["pseudo_id"]]
    assert pub["publishers"][bundles["sp"]["pseudo_id"]] == (
        bundles["sp"]["key_ver"])
    assert "quorum" not in pub
    pp = absc.public_params_from_json(pub["pk"])
    assert pp.h == ta.pp.h and pp.t == ta.pp.t


def test_authority_state_round_trip(authority):
    ta, bundles = authority
    ta2 = TrustedAuthority.from_json(
        json.loads(json.dumps(ta.state_to_json())), random.Random(5))
    assert ta2.trace(bundles["match"]["pseudo_id"]) == "thermostat-42"
    assert ta2.publishers == ta.publishers
    # a state file from before quorum was dropped still loads
    old = dict(ta.state_to_json(), quorum=1)
    assert TrustedAuthority.from_json(old).validator_set() == ta.validator_set()
    # the restored master key issues keys that work against the old params
    key = absc.keygen(ta2.pp, ta2.mk, ["alpha", "beta"], random.Random(6))
    rng = random.Random(7)
    sk, vk = absc.signing_keygen(ta.pp, ta.mk, rng)
    st, ct = absc.signcrypt(ta.pp, sk, b"hello", POLICY, rng)
    assert absc.designcrypt(ta.pp, st, ct, key, vk) == b"hello"


def test_authority_state_refuses_a_master_key_not_its_own(authority):
    # beta and g2^(alpha/beta) must be canonical hex, 1 <= beta < p, and
    # match the public key: g1^beta = h and e(h, g2^(alpha/beta)) = t
    ta, _ = authority
    state = ta.state_to_json()
    mk = state["mk"]
    width = ta.ctx.params.r_bytes
    beta = ta.mk.beta.value
    other = TrustedAuthority("ASYMMETRIC_159", random.Random(8)).state_to_json()
    g2_alpha = ta.mk.g2_alpha_over_beta ** ta.mk.beta
    bad = [dict(mk, beta=v.to_bytes(width, "big").hex())
           for v in (12345, 0, ta.ctx.p, beta + 1)]
    bad += [dict(mk, beta=mk["beta"].upper()),
            dict(mk, beta=" " + mk["beta"]),
            dict(mk, g2_alpha_over_beta=mk["g2_alpha_over_beta"].upper()),
            dict(mk, g2_alpha_over_beta=mk["g2_alpha_over_beta"] + " "),
            dict(mk, g2_alpha_over_beta=other["mk"]["g2_alpha_over_beta"]),
            dict(mk, g2_alpha_over_beta=g2_alpha.to_bytes().hex()),
            other["mk"],
            {"beta": str(beta), "g2_alpha": g2_alpha.to_bytes().hex()}]  # old form
    for obj in bad:
        with pytest.raises(DecodeError):
            TrustedAuthority.from_json(dict(state, mk=obj))
    assert TrustedAuthority.from_json(state).mk == ta.mk


def test_register_validates_inputs(authority):
    ta, _ = authority
    with pytest.raises(ValueError):
        ta.register("x", "nope")
    with pytest.raises(ValueError):
        ta.register("x", "sd")  # devices need attributes


def test_publish_rejects_bad_policy_before_posting(authority):
    ta, bundles = authority
    with pytest.raises(ValueError):
        publish_message(ta.pp, bundles["sp"], MESSAGE, "alpha and",
                        "http://127.0.0.1:9", random.Random(1))
