"""Node roles: authority, publisher/validator, edge relay, receiving device.

Four cooperating roles move one signcrypted payload from a publisher to
exactly the devices whose attributes satisfy its policy:

  * TrustedAuthority: owns the master key, registers entities under
    random pseudonyms, issues keys.  Real identities never leave its
    local store; it stays offline after provisioning.
  * ValidatorNode: accepts publisher records over HTTP, validates them
    structurally, and seals one block per slot when it holds the slot.
  * EdgeNode: follows the validator chain block by block (re-running the
    full append checks), serves it to pulling devices, and pushes each
    new block to its push targets.
  * DeviceNode: ingests blocks in the canonical block JSON, pushed by the
    edge or pulled from it; enforces the freshness window, checks the
    payload digest against the header, decodes the payload (every point
    on-curve only; the walk of e(C, psi) is psi's subgroup check; no
    other role decodes curve points), and designcrypts.  Its key points
    are decoded on-curve only too; their first walk checks them.
    Non-satisfying payloads are silently ignored; a satisfying payload
    that fails verification raises an integrity alarm event.

Wire format is JSON over HTTP; a request body may be at most MAX_BODY
bytes.  A block travels in one form, ledger.block_to_json, with its
payload as hex: the body of GET /chain/block/N and of POST /push alike.

Endpoints:  GET /chain/head, GET /chain/block/N (validator, edge),
POST /records (validator), POST /push (device).

GET /chain/block/N is a long-poll: a node that does not hold block N yet
answers once it does, or with 404 after LONG_POLL_SECONDS.  GET
/chain/head answers at once.  The edge follows the validator, and a
pulling device follows the edge, with one request per block: each asks
for the block after the last one it holds.

Loops wake on events, not on a timer.  Each node has one wake event: a
validator's is set when a record is queued and when its ManualClock
moves (ManualClock.watch), so a record in an open held slot is sealed
at once; stop() sets every node's.  After a tick that brought nothing
new, a loop waits on that event for at most poll_interval, so
poll_interval is a cap: a real clock's slot boundary, or a relay that
answers at once, is still looked at every poll_interval.  A push-mode
device runs no loop at all; its server does its work.

Transport: http.client on the standard library, HTTP/1.1 kept alive.
Each node owns its client connections, one per peer (Connections), and
only its loop thread sends on them; both ends set TCP_NODELAY, and a
reply goes out in one write.  stop() hangs up the node's own
connections and the ones its server accepted, so parked long-polls end
at once, and joins every thread it started.  A server's accept loop
selects on its listening socket and on a wake-up socket pair, so it
ends the moment stop() asks.
"""

import hashlib
import http.client
import json
import re
import selectors
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace
from urllib.parse import urlsplit
from weakref import WeakSet

from . import absc, ledger
from .groups import DecodeError, _SYSTEM_RNG
from .policy import satisfies


class ManualClock:
    """Injectable clock for slot-level tests without wall-time waits.

    watch(event) registers a threading.Event that advance() and set()
    set after each move, so a loop waiting on it sees the new time at
    once.  Events are held weakly: a clock shared by many nodes keeps
    none of them alive.
    """

    def __init__(self, start=0.0):
        self.now = float(start)
        self._watchers = WeakSet()
        self._lock = threading.Lock()

    def __call__(self):
        return self.now

    def watch(self, event):
        with self._lock:
            self._watchers.add(event)

    def _moved(self):
        with self._lock:
            watchers = list(self._watchers)
        for event in watchers:
            event.set()

    def advance(self, dt):
        self.now += dt
        self._moved()

    def set(self, t):
        self.now = float(t)
        self._moved()


# ---------------------------------------------------------------------------
# HTTP plumbing

# GET /chain/block/N waits at most this long for block N to arrive.
LONG_POLL_SECONDS = 1.0


class Response:
    """One finished exchange: status, body bytes, and the body sent."""

    def __init__(self, status_code, content, sent):
        self.status_code = status_code
        self.content = content
        self.request = SimpleNamespace(body=sent)

    def json(self):
        return json.loads(self.content)


def _hang_up(sock):
    """End a socket's traffic from any thread: a blocked recv returns."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except (AttributeError, OSError):
        pass  # never connected, or already closed


class Connections:
    """Kept-alive client connections, one per peer (host:port).

    One thread sends on them.  hang_up() may come from any other thread:
    it makes the request in flight and every later one fail at once.
    close() releases the sockets once the sending thread is done.
    """

    def __init__(self):
        self._open = {}
        self._lock = threading.Lock()
        self.closed = False

    def get(self, netloc, timeout):
        """(connection, whether it served an earlier request)."""
        with self._lock:
            if self.closed:
                raise ConnectionError("connections closed")
            conn = self._open.get(netloc)
        if conn is not None:
            conn.sock.settimeout(timeout)
            return conn, True
        conn = http.client.HTTPConnection(netloc, timeout=timeout)
        conn.connect()  # http.client sets TCP_NODELAY
        with self._lock:
            if not self.closed:
                self._open[netloc] = conn
                return conn, False
        conn.close()
        raise ConnectionError("connections closed")

    def drop(self, netloc, conn):
        with self._lock:
            self._open.pop(netloc, None)
        conn.close()

    def hang_up(self):
        with self._lock:
            self.closed = True
            conns = list(self._open.values())
        for conn in conns:
            _hang_up(conn.sock)

    def close(self):
        with self._lock:
            self.closed = True
            conns, self._open = list(self._open.values()), {}
        for conn in conns:
            conn.close()


def _send(conns, method, url, sent, timeout):
    """One attempt; a kept-alive connection the peer has closed is
    replaced by a fresh one at once, before any back-off."""
    parts = urlsplit(url)
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    headers = {} if sent is None else {"Content-Type": "application/json"}
    while True:
        conn, reused = conns.get(parts.netloc, timeout)
        resp = None
        try:
            conn.request(method, target, sent, headers)
            resp = conn.getresponse()
            content = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conns.drop(parts.netloc, conn)
            if reused and resp is None and not isinstance(exc, TimeoutError):
                continue
            raise ConnectionError(f"{method} {url}: {exc!r}") from exc
        if resp.will_close:
            conns.drop(parts.netloc, conn)
        return Response(resp.status, content, sent)


def _request(method, url, sent, timeout, retries, conns):
    """Send up to `retries` times, backing off between attempts.

    The connection stays in conns for the next request; without conns it
    is closed on return.  Raises OSError once every attempt has failed.
    """
    own = conns is None
    conns = Connections() if own else conns
    try:
        for attempt in range(retries):
            try:
                return _send(conns, method, url, sent, timeout)
            except OSError:
                if attempt == retries - 1 or conns.closed:
                    raise
                time.sleep(0.1 * (2 ** attempt))
    finally:
        if own:
            conns.close()


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def http_get(url, timeout=5.0, retries=3, conns=None):
    return _request("GET", url, None, timeout, retries, conns)


def http_post_json(url, obj, timeout=5.0, retries=3, conns=None):
    return _request("POST", url, canonical_json(obj), timeout, retries, conns)


# The payload is hex inside the block JSON: 64 MiB carries a message of
# up to ~32 MB.
MAX_BODY = 64 << 20


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # an idle kept-alive connection's thread exits after this long;
    # above LONG_POLL_SECONDS, so a client between two long-polls keeps it
    timeout = 5.0

    def log_message(self, *args):
        pass

    def _run(self, method):
        body = None
        if method == "POST":
            try:
                n = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                n = -1
            if n < 0 or n > MAX_BODY:
                # the body stays unread, so the connection cannot be reused
                self.close_connection = True
                if n < 0:
                    self._reply(400, {"error": "bad-length"})
                else:
                    self._reply(413, {"error": "body-too-large"})
                return
            try:
                body = json.loads(self.rfile.read(n)) if n else None
            except (ValueError, UnicodeDecodeError):
                self._reply(400, {"error": "bad-json"})
                return
        try:
            status, payload = self.server.node.handle(method, self.path, body)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            status, payload = 500, {"error": f"internal: {exc}"}
        self._reply(status, payload)

    def _reply(self, status, payload):
        # headers and body in one write: with two, Nagle and delayed ACK
        # hold the body back on a kept-alive connection
        raw = canonical_json(payload)
        head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(raw)}\r\n"
                + ("Connection: close\r\n" if self.close_connection else "")
                + "\r\n")
        self.wfile.write(head.encode("latin-1") + raw)

    def do_GET(self):
        self._run("GET")

    def do_POST(self):
        self._run("POST")


class _Server(HTTPServer):
    """Accepts on its own thread, serves each connection on one more,
    and tracks those until they end.

    The accept loop also selects on a socket pair, through which close()
    ends it at once.
    """

    def __init__(self, address, node):
        super().__init__(address, _Handler)
        self.node = node
        self._open = {}  # accepted socket -> its thread
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        with selectors.DefaultSelector() as sel:
            sel.register(self, selectors.EVENT_READ)
            sel.register(self._wake_r, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake_r for key, _ in sel.select()):
                self._handle_request_noblock()

    def process_request(self, request, client_address):
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t = threading.Thread(target=self._serve, args=(request, client_address),
                             daemon=True)
        with self._lock:
            self._open[request] = t
        t.start()

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except OSError:
            pass  # the peer hung up, or stop() did
        except Exception:  # noqa: BLE001 - report it, keep serving
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            with self._lock:
                del self._open[request]

    def close(self):
        """Stop accepting, close the listening socket, hang up every
        accepted connection and join every thread."""
        self._wake_w.send(b"\0")
        self._thread.join()
        self.server_close()
        self._wake_r.close()
        self._wake_w.close()
        with self._lock:
            accepted = list(self._open.items())
        for sock, _t in accepted:
            _hang_up(sock)
        for _sock, t in accepted:
            t.join()


class NodeService:
    """Shared server/loop scaffolding for the online roles.

    tick() returns true when it made progress; the loop then runs it
    again at once, and otherwise waits first: until _wake is set, for at
    most poll_interval.

    Nodes only call append() on `events` (one dict per event) and on a
    DeviceNode's `accepted` ((index, message), before the "accepted"
    event), and never read them back: a caller may put any object with
    an append() in their place before start(), as the CLI does.
    """

    poll_interval = 0.02

    def __init__(self, name):
        self.name = name
        self.events = []
        self._server = None
        self._threads = []
        self._stop = threading.Event()
        self._wake = threading.Event()  # work may be waiting, or stop()
        self._conns = Connections()
        self._changed = threading.Condition()  # the chain grew, or stop()
        self.host = None
        self.port = None

    def event(self, kind, **details):
        entry = {"node": self.name, "event": kind}
        entry.update(details)
        self.events.append(entry)

    def _runs_loop(self):
        return hasattr(self, "tick")

    def start(self, host="127.0.0.1", port=0, serve=True, run_loop=True):
        self._stop.clear()
        self._wake.clear()
        if serve:
            self._server = _Server((host, port), self)
            self.host, self.port = self._server.server_address[:2]
        if run_loop and self._runs_loop():
            t = threading.Thread(target=self._loop, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def _loop(self):
        progressed = False
        while True:
            if not progressed:
                self._wake.wait(self.poll_interval)
            if self._stop.is_set():
                return
            self._wake.clear()
            try:
                progressed = bool(self.tick())
            except Exception as exc:  # noqa: BLE001 - loops must survive
                progressed = False
                self.event("loop-error", error=str(exc))

    def _announce(self):
        with self._changed:
            self._changed.notify_all()

    def stop(self):
        """Stop serving and the loop, and wait for every thread to end.

        Requests parked in a long-poll, this node's own and those its
        server holds, end at once.
        """
        self._stop.set()
        self._wake.set()
        self._announce()
        self._conns.hang_up()
        if self._server is not None:
            self._server.close()
            self._server = None
        for t in self._threads:
            t.join()
        self._threads = []
        self._conns.close()
        self._conns = Connections()

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def handle(self, method, path, body):
        return 404, {"error": "not-found"}


_BLOCK_RE = re.compile(r"^/chain/block/(\d+)$")


class _ChainReader:
    """GET routes shared by validator and edge nodes.

    GET /chain/block/N waits on the node's _changed condition, which the
    node notifies when its chain grows and when it stops.
    """

    def _chain_routes(self, method, path):
        """Answer GET /chain/head or GET /chain/block/N; 404 otherwise."""
        path = urlsplit(path).path
        m = _BLOCK_RE.match(path)
        if method == "GET" and path == "/chain/head":
            tip = self.chain[-1]
            return 200, {"index": tip.header.index,
                         "hash": ledger.block_hash(tip).hex(),
                         "header": ledger.header_to_json(tip)}
        if method == "GET" and m:
            idx = int(m.group(1))
            with self._changed:
                self._changed.wait_for(
                    lambda: len(self.chain) > idx or self._stop.is_set(),
                    LONG_POLL_SECONDS)
            if idx < len(self.chain):
                return 200, ledger.block_to_json(self.chain[idx])
        return 404, {"error": "not-found"}


class ValidatorNode(NodeService, _ChainReader):
    """Publisher-facing ledger authority; seals one block per held slot."""

    def __init__(self, name, ctx, vset, registry, pseudo_id,
                 clock=time.time, store_path=None):
        super().__init__(name)
        self.ctx = ctx
        self.vset = vset
        self.registry = dict(registry)
        self.pseudo_id = pseudo_id
        self.clock = clock
        self.store_path = store_path
        self.chain = [ledger.genesis()]
        self.pending = deque()
        self._last_slot = ledger.slot_of(0, vset.slot_seconds)
        self._lock = threading.Lock()
        if hasattr(clock, "watch"):
            clock.watch(self._wake)  # a new slot may be ours to seal

    def handle(self, method, path, body):
        if method != "POST" or urlsplit(path).path != "/records":
            return self._chain_routes(method, path)
        try:
            record = ledger.record_from_json(self.ctx, body)
            reason = ledger.validate_record(record, self.registry)
        except DecodeError as exc:
            reason = f"structure: {exc}"
        if reason is not None:
            self.event("record-rejected", reason=reason)
            return 400, {"status": "rejected", "reason": reason}
        with self._lock:
            self.pending.append(record)
        self.event("record-queued", pseudo_id=record.pseudo_id)
        self._wake.set()
        return 200, {"status": "accepted"}

    def tick(self):
        now = self.clock()
        slot = ledger.slot_of(now, self.vset.slot_seconds)
        if slot <= self._last_slot:
            return
        if ledger.leader_for_slot(slot, self.vset) != self.pseudo_id:
            self._last_slot = slot
            return
        with self._lock:
            if not self.pending:
                return  # keep the slot open until a record arrives
            record = self.pending.popleft()
        self._last_slot = slot
        block = ledger.propose_block(self.chain[-1], record,
                                     self.pseudo_id, now, self.vset)
        reason = ledger.append_block(self.chain, block, self.vset, self.registry)
        if reason is not None:
            self.event("append-rejected", reason=reason, index=block.header.index)
            return
        self.event("block-appended", index=block.header.index, slot=slot)
        if self.store_path and len(self.chain) == 2:  # first seal: a fresh file
            ledger.save_chain(self.store_path, self.chain)
        elif self.store_path:
            ledger.save_block(self.store_path, block)
        self._announce()
        return True


class EdgeNode(NodeService, _ChainReader):
    """Relay: follows the validator chain, serves it, pushes new blocks.

    push_targets lists (device url, "payload") pairs; "payload" is the
    only mode, and the pair form is kept for the benchmark harness.
    """

    def __init__(self, name, ctx, vset, registry, upstream,
                 push_targets=None, clock=time.time):
        super().__init__(name)
        self.ctx = ctx
        self.vset = vset
        self.registry = dict(registry)
        self.upstream = upstream
        self.push_targets = []  # device urls
        for url, mode in push_targets or ():
            if mode != "payload":
                raise ValueError(f"unknown push mode {mode!r}")
            self.push_targets.append(url)
        self.clock = clock
        self.chain = [ledger.genesis()]

    def handle(self, method, path, body):
        return self._chain_routes(method, path)

    def tick(self):
        return self.sync_once()

    def sync_once(self):
        """Fetch the block after the local tip, a long-poll that the
        validator answers once it holds that block; append and push it.

        Returns whether a block was appended.
        """
        idx = len(self.chain)
        try:
            resp = http_get(f"{self.upstream}/chain/block/{idx}", conns=self._conns)
        except OSError:
            return False
        if resp.status_code != 200:
            return False
        try:
            block = ledger.block_from_json(self.ctx, resp.json())
        except ValueError:  # DecodeError too
            self.event("sync-error", index=idx)
            return False
        reason = ledger.append_block(self.chain, block, self.vset, self.registry)
        if reason is not None:
            # refuse the block and ask for this index again
            self.event("sync-rejected", index=idx, reason=reason)
            return False
        self.event("block-synced", index=idx)
        self._announce()
        self._push(block)
        return True

    def _push(self, block):
        body = ledger.block_to_json(block)
        for url in self.push_targets:
            try:
                http_post_json(f"{url}/push", body, conns=self._conns)
            except OSError:
                if self._stop.is_set():
                    return  # stop() hung up mid-push
                self.event("push-failed", target=url, index=block.header.index)


class DeviceNode(NodeService):
    """Receiving device: freshness gate, digest check, designcrypt."""

    def __init__(self, name, pp, key, registry, slot_seconds,
                 source=None, freshness_slots=10, clock=time.time,
                 pull=False):
        super().__init__(name)
        self.pp = pp
        self.ctx = pp.ctx
        self.key = key
        self.registry = dict(registry)
        self.slot_seconds = slot_seconds
        self.source = source
        self.freshness_slots = freshness_slots
        self.clock = clock
        self.pull = pull
        self.accepted = []
        self.seen = set()
        self._pull_next = 1
        self._verkeys = {}

    def handle(self, method, path, body):
        if method == "POST" and urlsplit(path).path == "/push":
            if not isinstance(body, dict) or not isinstance(body.get("record"), dict):
                return 400, {"error": "bad-push"}
            return 200, {"status": self.ingest(body)}
        return 404, {"error": "not-found"}

    def _runs_loop(self):
        return self.pull  # a pushed device's server does all its work

    def tick(self):
        """Pull the block after the last one seen, a long-poll that the
        source answers once it holds that block; returns whether one came.

        Only a 200 moves past the block.  A 200 whose body is not a block
        object raises one bad-block alarm and counts as no progress, so a
        source serving junk is asked at most once per poll_interval.
        """
        if not self.pull or not self.source:
            return False
        idx = self._pull_next
        try:
            resp = http_get(f"{self.source}/chain/block/{idx}", conns=self._conns)
        except OSError:
            return False
        if resp.status_code != 200:
            return False
        self._pull_next = idx + 1
        try:
            block = resp.json()
        except ValueError:
            block = None
        if not isinstance(block, dict) or not isinstance(block.get("record"), dict):
            self.event("integrity-alarm", index=idx, detail="bad-block")
            return False
        self.ingest(block)
        return True

    def ingest(self, block):
        """Process one block in the canonical block JSON (pushed or pulled).

        block is a dict whose "record" is a dict; returns the outcome.
        """
        record = block["record"]
        header = {k: block.get(k) for k in
                  ("index", "prev_hash", "proposer", "timestamp")}
        header["payload_digest"] = record.get("payload_digest")
        try:
            payload = absc.hex_bytes(record.get("payload"))
        except DecodeError:
            self.event("integrity-alarm", index=block.get("index"),
                       detail="bad-payload-hex")
            return "alarm"
        return self.receive(header, record.get("pseudo_id"), payload)

    def _verification_key(self, publisher):
        if publisher not in self._verkeys:
            hexkey = self.registry.get(publisher)
            if hexkey is None:
                return None
            self._verkeys[publisher] = absc.VerificationKey(  # walked: absc, "Keys"
                self.ctx.deserialize_evaluation_point(absc.hex_bytes(hexkey), "s2"))
        return self._verkeys[publisher]

    def receive(self, header, publisher, payload):
        """Process one announced block; returns the outcome string."""
        try:
            index = int(header["index"])
            ts = int(header["timestamp"])
            digest = bytes.fromhex(header["payload_digest"])
        except (KeyError, TypeError, ValueError):
            self.event("integrity-alarm", detail="bad-header")
            return "alarm"
        if self.clock() - ts > self.freshness_slots * self.slot_seconds:
            self.event("stale", index=index)
            return "stale"
        if index in self.seen:
            self.event("duplicate", index=index)
            return "duplicate"
        if hashlib.sha256(payload).digest() != digest:
            self.event("integrity-alarm", index=index, detail="payload-digest")
            return "alarm"
        try:
            st, ct_msg = absc.payload_from_bytes(self.ctx, payload)
        except DecodeError as exc:
            self.seen.add(index)
            self.event("integrity-alarm", index=index, detail=f"decode: {exc}")
            return "alarm"
        self.seen.add(index)
        if not satisfies(st.tree, self.key.attributes).satisfied:
            self.event("ignored", index=index)
            return "ignored"
        verkey = self._verification_key(publisher)
        if verkey is None:
            self.event("integrity-alarm", index=index, detail="unknown-publisher")
            return "alarm"
        msg = absc.designcrypt(self.pp, st, ct_msg, self.key, verkey)
        if msg is None:
            self.event("integrity-alarm", index=index, detail="designcrypt-failed")
            return "alarm"
        self.accepted.append((index, msg))
        self.event("accepted", index=index, size=len(msg))
        return "accepted"


class TrustedAuthority:
    """Key authority; holds the master key and the pseudonym directory."""

    def __init__(self, profile, rng=None, slot_seconds=15):
        self.rng = rng or _SYSTEM_RNG
        self.pp, self.mk = absc.setup(profile, self.rng)
        self.ctx = self.pp.ctx
        self.slot_seconds = slot_seconds
        self.directory = {}   # pseudo_id -> {real_identity, role, ...}
        self.publishers = {}  # pseudo_id -> key_ver hex
        self.validators = []

    def _new_pseudo_id(self):
        while True:
            pid = absc._rand_bytes(self.rng, 16).hex()
            if pid not in self.directory and pid != ledger.ZERO_ID:
                return pid

    def register(self, real_identity, role, attributes=None, validator=None):
        """Register an entity; returns its private handoff bundle.

        The bundle never contains the real identity: the pseudonym link
        lives only in this authority's directory.
        """
        if role not in ("sp", "ed", "sd"):
            raise ValueError(f"unknown role {role!r}")
        pid = self._new_pseudo_id()
        bundle = {"pseudo_id": pid, "role": role,
                  "profile": self.ctx.profile.value}
        entry = {"real_identity": real_identity, "role": role}
        if role == "sp":
            sk, vk = absc.signing_keygen(self.pp, self.mk, self.rng)
            bundle["key_sign"] = sk.key_sign.to_bytes().hex()
            bundle["key_ver"] = vk.key_ver.to_bytes().hex()
            self.publishers[pid] = bundle["key_ver"]
            if validator is None or validator:
                self.validators.append(pid)
        elif role == "sd":
            if not attributes:
                raise ValueError("device registration needs attributes")
            key = absc.keygen(self.pp, self.mk, attributes, self.rng)
            bundle["attribute_key"] = absc.attribute_key_to_json(key)
            bundle["attributes"] = sorted(key.attributes)
            entry["attributes"] = sorted(key.attributes)
        self.directory[pid] = entry
        return bundle

    def trace(self, pseudo_id):
        """Resolve a pseudonym back to the registered identity (TA-local)."""
        if pseudo_id not in self.directory:
            raise ValueError("unknown pseudo id")
        return self.directory[pseudo_id]["real_identity"]

    def validator_set(self):
        return ledger.ValidatorSet(tuple(self.validators),
                                   slot_seconds=self.slot_seconds)

    def public_bundle(self):
        """Shareable bundle: parameters, publisher directory, validator list."""
        return {
            "profile": self.ctx.profile.value,
            "pk": absc.public_params_to_json(self.pp),
            "publishers": dict(self.publishers),
            "validators": list(self.validators),
            "slot_seconds": self.slot_seconds,
        }

    # -- persistence (TA-local; the only place real identities are stored)

    def state_to_json(self):
        return {
            "profile": self.ctx.profile.value,
            "slot_seconds": self.slot_seconds,
            "pk": absc.public_params_to_json(self.pp),
            "mk": absc.master_key_to_json(self.pp, self.mk),
            "directory": self.directory,
            "publishers": self.publishers,
            "validators": self.validators,
        }

    @classmethod
    def from_json(cls, obj, rng=None):
        """Load state_to_json's form; DecodeError if a key is missing or
        of the wrong type, or if the master key is not the public
        parameters' (absc.master_key_from_json)."""
        absc.json_object(obj, {"pk": dict, "mk": dict, "slot_seconds": int,
                               "directory": dict, "publishers": dict,
                               "validators": list}, "authority state")
        ta = cls.__new__(cls)
        ta.rng = rng or _SYSTEM_RNG
        ta.pp = absc.public_params_from_json(obj["pk"])
        ta.ctx = ta.pp.ctx
        ta.mk = absc.master_key_from_json(ta.pp, obj["mk"])
        ta.slot_seconds = obj["slot_seconds"]
        ta.directory = dict(obj["directory"])
        ta.publishers = dict(obj["publishers"])
        ta.validators = list(obj["validators"])
        return ta


def publish_message(pp, bundle, msg, policy, validator_url, rng=None):
    """Signcrypt msg under policy and submit the record to a validator.

    bundle is the publisher's handoff bundle from the authority; pp
    decodes its keys once and keeps them (PublicParams.publisher_keys).
    Returns (record, response json).
    """
    sk, vk = pp.publisher_keys(bundle["key_sign"], bundle["key_ver"])
    st, ct_msg = absc.signcrypt(pp, sk, msg, policy, rng)
    record = ledger.make_record(bundle["pseudo_id"], vk, st, ct_msg)
    resp = http_post_json(f"{validator_url}/records", ledger.record_to_json(record))
    try:
        return record, resp.json()
    except ValueError:
        return record, {"status": "error", "http": resp.status_code}
