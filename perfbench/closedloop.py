"""Closed-loop dissemination load generator.

One process stands up the real roles: a TrustedAuthority provisions a
publisher and the devices, and a ValidatorNode, an EdgeNode and the
DeviceNodes talk over loopback HTTP on one ManualClock.  The nodes keep
their shipped polling; nothing on them is tuned.

A single publisher thread calls nodes.publish_message, advances the
clock exactly one slot, and waits until every device has reached its
outcome before it sends the next message.  With exactly one message in
flight, latency measures the program rather than the slot tempo.
Outcomes are observed like policycast.scenario observes them, through
DeviceNode.events and DeviceNode.accepted.  Each device's event list is
one that stamps every append with the time and wakes the publisher, so
the loop neither polls nor times an outcome by when it noticed it; a
cursor into each list means a wake-up reads only what is new.
"""

import random
import resource
import shutil
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

from policycast import absc, ledger, nodes

from workloads import MESSAGE_BYTES

# Set up at least SETUP_REPS times and for at least SETUP_SECONDS in all:
# one set-up of the small workloads is 50-150 ms, too short a sample of
# a host whose speed drifts from second to second.
SETUP_REPS = 5
SETUP_SECONDS = 2.0
MESSAGE_DEADLINE = 30.0
THREAD_DRAIN_SECONDS = 10.0
# Nodes keep every event and wire body, so RSS grows with each message.
# Reading the peak after a fixed number of messages keeps a faster
# program, which fits more messages into a run, from reading as bigger.
RSS_AT_MESSAGES = 30
TERMINAL = {"accepted": "accepted", "ignored": "ignored",
            "integrity-alarm": "alarm", "stale": "stale", "duplicate": "duplicate"}
PROGRESS_EVENTS = {"record-queued", "block-appended", "block-synced",
                   "accepted", "ignored"}


class _StampedEvents(list):
    """A node's event list that stamps each append and wakes a waiter.

    stamps[i] is the time.perf_counter() at which self[i] was logged.
    The stamp goes in first, so a reader that sees self[i] finds
    stamps[i]; the two stay paired because a device logs from one thread
    at a time (the edge pushes serially, a pulling device from its loop).
    """

    def __init__(self, cond):
        super().__init__()
        self.cond = cond
        self.stamps = []

    def append(self, item):
        self.stamps.append(time.perf_counter())
        super().append(item)
        with self.cond:
            self.cond.notify_all()


class Stack:
    """One running deployment: authority, validator, edge and devices."""

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        self.started = []
        self._threads_before = threading.active_count()
        rng = random.Random(f"{seed}/setup")
        ta = nodes.TrustedAuthority(wl.profile, rng)
        self.pp = ta.pp
        self.slot_seconds = ta.slot_seconds
        self.publisher = ta.register("publisher", "sp")
        ta.register("edge relay", "ed")
        bundles = [ta.register(f"owner of {d.name}", "sd", attributes=d.attributes)
                   for d in wl.devices]
        self.vset = ta.validator_set()
        self.registry = dict(ta.publishers)
        self.ctx = ta.ctx
        self.clock = nodes.ManualClock(0.0)
        self.store_path = str(workdir / "chain.jsonl") if wl.persist else None
        self.validator = nodes.ValidatorNode(
            "validator", ta.ctx, self.vset, self.registry,
            self.publisher["pseudo_id"], clock=self.clock, store_path=self.store_path)
        pull = wl.delivery == "pull"
        self.devices = [
            nodes.DeviceNode(d.name, ta.pp,
                             absc.attribute_key_from_json(ta.ctx, b["attribute_key"]),
                             self.registry, ta.slot_seconds, clock=self.clock, pull=pull)
            for d, b in zip(wl.devices, bundles)]
        self.outcomes = threading.Condition()
        for dev in self.devices:
            assert not dev.events
            dev.events = _StampedEvents(self.outcomes)
        self.edge = None
        try:
            self.validator.start()
            self.started.append(self.validator)
            for dev in self.devices:
                dev.start()
                self.started.append(dev)
            targets = [] if pull else [(d.url, "payload") for d in self.devices]
            self.edge = nodes.EdgeNode("edge", ta.ctx, self.vset, self.registry,
                                       self.validator.url, push_targets=targets,
                                       clock=self.clock)
            self.edge.start()
            self.started.append(self.edge)
        except BaseException:
            self.stop()
            raise
        for dev in self.devices:
            dev.source = self.edge.url
        self.clock.set(self.slot_seconds)  # slot 1 opens; genesis owns slot 0

    def stop(self):
        """Stop the edge and devices before the validator they poll.

        NodeService.stop() does not join its loop threads, so wait for the
        process's thread count to fall back; returns how many outlived the
        wait.
        """
        base = self._threads_before
        relays = [n for n in self.started if n is not self.validator]
        _stop_together(relays)
        _stop_together([n for n in self.started if n is self.validator])
        deadline = time.monotonic() + THREAD_DRAIN_SECONDS
        while threading.active_count() > base and time.monotonic() < deadline:
            time.sleep(0.01)
        return max(threading.active_count() - base, 0)


def _stop_together(batch):
    """Stop nodes in parallel.

    NodeService.stop() blocks until the server's serve_forever loop next
    wakes, which its 0.5 s select timeout can delay; a connection to the
    listening socket wakes it at once.
    """
    if not batch:
        return
    addrs = [(n.host, n.port) for n in batch]
    with ThreadPoolExecutor(max_workers=len(batch)) as pool:
        futures = [pool.submit(n.stop) for n in batch]
        while wait(futures, timeout=0.005).not_done:
            for addr in addrs:
                try:
                    socket.create_connection(addr, timeout=0.05).close()
                except OSError:
                    pass  # that server has already closed
        for f in futures:
            f.result()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _wait_outcomes(stack, seq, cursors):
    """Wait until each device has logged a terminal event.

    Returns {device index: (outcome, perf_counter time it was logged)};
    devices with no outcome by the deadline are missing.
    """
    pending = set(range(len(stack.devices)))
    seen = {}
    deadline = time.perf_counter() + MESSAGE_DEADLINE
    with stack.outcomes:
        while True:
            for i in list(pending):
                events = stack.devices[i].events
                while cursors[i] < len(events):
                    ev, at = events[cursors[i]], events.stamps[cursors[i]]
                    cursors[i] += 1
                    outcome = TERMINAL.get(ev["event"])
                    if outcome is None:
                        continue
                    if ev.get("index") != seq:
                        outcome = f"{outcome}@{ev.get('index')}"
                    seen[i] = (outcome, at)
                    pending.discard(i)
                    break
            left = deadline - time.perf_counter()
            if not pending or left <= 0:
                return seen
            stack.outcomes.wait(left)


class _Loop:
    """Closed-loop publisher state: one message in flight at a time."""

    def __init__(self, stack, seed, tracer):
        self.stack = stack
        self.tracer = tracer
        self.msg_rng = random.Random(f"{seed}/messages")
        self.crypto_rng = random.Random(f"{seed}/publish")
        self.cursors = [0] * len(stack.devices)
        self.accepted_seen = [0] * len(stack.devices)
        self.messages = {}
        self.sent = 0
        self.failed_pairs = 0

    def send(self, seq, traced):
        """Publish message seq, wait for every outcome and check it.

        Returns False when a device missed the deadline, after which the
        loop cannot go on.
        """
        stack, wl = self.stack, self.stack.wl
        if traced:
            self.tracer.install(seq)
        msg = self.msg_rng.randbytes(MESSAGE_BYTES)
        self.sent += 1
        p0, t0 = time.process_time(), time.perf_counter()
        _record, resp = nodes.publish_message(
            stack.pp, stack.publisher, msg, wl.policy, stack.validator.url,
            self.crypto_rng)
        queued = (time.perf_counter(), time.process_time())
        stack.clock.advance(stack.slot_seconds)
        if resp.get("status") != "accepted":
            raise RuntimeError(f"record {seq} rejected: {resp}")
        seen = _wait_outcomes(stack, seq, self.cursors)
        p1 = time.process_time()
        settled = max((at for _outcome, at in seen.values()), default=t0)
        if traced:
            self.tracer.remove()
        accept_s = []
        for i, (dev, node) in enumerate(zip(wl.devices, stack.devices)):
            outcome, at = seen.get(i, ("none", None))
            fresh = node.accepted[self.accepted_seen[i]:]
            self.accepted_seen[i] = len(node.accepted)
            ok = outcome == dev.expect
            if dev.expect == "accepted":
                ok = ok and fresh == [(seq, msg)]
                if ok:
                    accept_s.append(at - t0)
            else:
                ok = ok and not fresh
            self.failed_pairs += not ok
        self.messages[seq] = {"traced": traced, "publish": (t0, p0), "queued": queued,
                              "settle_s": settled - t0, "cpu_s": p1 - p0,
                              "accept_s": accept_s}
        return len(seen) == len(stack.devices)


def run_messages(stack, seed, seconds, tracer=None):
    """One untimed warm-up message, then the closed loop for `seconds`.

    The warm-up fills the devices' verification-key caches, a cost paid
    once per deployment.  With a tracer, every second measured message
    is traced.  Returns the loop, the measured wall and CPU seconds, and
    the peak RSS once RSS_AT_MESSAGES measured messages have settled.
    """
    loop = _Loop(stack, seed, tracer)
    ok = loop.send(1, False)  # message seq lands in block seq
    rss = None
    start, cpu0 = time.perf_counter(), time.process_time()
    seq = 1
    while ok and (seq == 1 or time.perf_counter() - start < seconds):
        seq += 1
        ok = loop.send(seq, tracer is not None and seq % 2 == 0)
        if seq == 1 + RSS_AT_MESSAGES:
            rss = _peak_rss_mb()
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu0
    del loop.messages[1]
    return loop, elapsed, cpu, rss or _peak_rss_mb()


def run_checks(stack):
    """Run-level output checks, made after the nodes have stopped."""
    checks = {
        "no-integrity-alarm": not any(
            e["event"] == "integrity-alarm" for d in stack.devices for e in d.events),
        "validator-chain-verifies": ledger.verify_chain(
            stack.validator.chain, stack.vset, stack.registry) is None,
        "edge-chain-verifies": ledger.verify_chain(
            stack.edge.chain, stack.vset, stack.registry) is None,
    }
    if stack.store_path:
        try:
            persisted = ledger.load_chain(stack.store_path, stack.ctx)
        except (OSError, ledger.ChainLoadError):
            persisted = None
        checks["persisted-chain-equals-validator"] = persisted == stack.validator.chain
    return checks


def error_events(stack):
    return sum(e["event"] not in PROGRESS_EVENTS
               for n in stack.started for e in n.events)


def run_workload(wl, seed, seconds, workdir, tracer=None):
    """Set up repeatedly, drive the last stack, check and report."""
    setup_times = []
    while True:
        repdir = workdir / f"setup{len(setup_times)}"
        repdir.mkdir()
        if tracer is not None:
            tracer.install("setup")
        t0 = time.perf_counter()
        stack = Stack(wl, seed, repdir)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.remove()
            tracer.validator_chain = stack.validator.chain
        if len(setup_times) >= SETUP_REPS and sum(setup_times) >= SETUP_SECONDS:
            break
        stack.stop()
        shutil.rmtree(repdir)
    try:
        loop, elapsed, cpu, rss = run_messages(stack, seed, seconds, tracer)
    finally:
        threads_left = stack.stop()
    checks = run_checks(stack)
    messages, failed_pairs = loop.messages, loop.failed_pairs
    n = max(len(messages), 1)  # 0 only when the warm-up already failed
    accept_ms = [1e3 * a for m in messages.values() for a in m["accept_s"]]
    settle_ms = [1e3 * m["settle_s"] for m in messages.values()]
    attempted = loop.sent * len(wl.devices)
    failed = failed_pairs + sum(not ok for ok in checks.values())
    e2e = {
        "accept_ms_p50": (statistics.median(accept_ms) if accept_ms else 0.0, "ms"),
        "accept_ms_p90": (_p90(accept_ms), "ms"),
        "settle_ms_p50": (statistics.median(settle_ms) if settle_ms else 0.0, "ms"),
        "msgs_per_s": (n / elapsed, "1/s"),
        "cpu_ms_per_msg": (1e3 * cpu / n, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "messages": len(messages), "accept_samples": len(accept_ms), "pairs": attempted,
        "failed_pairs": failed_pairs, "failed_share": failed / attempted,
        "checks": checks, "setup_s_reps": setup_times, "threads_left": threads_left,
        "measured_s": elapsed,
    }
    return {"e2e": e2e, "info": info, "messages": messages, "failed": failed,
            "attempted": attempted, "errors": error_events(stack)}
