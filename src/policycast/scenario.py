"""End-to-end scenario runner.

A scenario stands up the full pipeline: authority provisioning, one
publisher/validator, one edge relay, and a set of receiving devices with
chosen attribute sets and expected outcomes.  The publisher signcrypts
one message under a policy; the run passes when every device lands on
its expected outcome (accepted / ignored) and accepted devices recovered
the exact message bytes.

Two execution modes:

  * threads: all nodes in this process.  With slot lengths above
    ~2 seconds a manual clock is driven slot by slot, so a 15-second
    slot scenario completes in well under a second of wall time.
  * procs: each node is a separate `policycast` CLI process over real
    HTTP and the real clock (meant for slot_seconds = 1).

Delivery ("push_mode"): "payload" has the edge push each new block to
every device; "pull" has the devices poll the edge.  Either way a device
ingests the same canonical block JSON.

Fault injection, in threads mode only: "tamper-payload" re-delivers
the block with its payload corrupted (expect integrity alarms on every
device), "stale-replay" re-delivers it after the freshness window
(expect a stale rejection).
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from . import absc, ledger, nodes
from .groups import GroupContext

_DEFAULTS = {
    "profile": "ASYMMETRIC_159",
    "slot_seconds": 1,
    "freshness_slots": 10,
    "policy": "alpha and beta",
    "message": "broadcast payload",
    "seed": 20240816,
    "push_mode": "payload",  # payload | pull
    "fault": "none",  # none | tamper-payload | stale-replay (threads mode)
    "devices": [
        {"name": "sd-match", "attributes": ["alpha", "beta"], "expect": "accepted"},
        {"name": "sd-other", "attributes": ["alpha", "gamma"], "expect": "ignored"},
    ],
}


def _merged(config):
    """The defaults with config over them; DecodeError (a ValueError)
    unless each default's key keeps its default's type and each device
    is an object with a name, attributes and an expected outcome."""
    cfg = absc.json_object({**_DEFAULTS, **(config or {})},
                           {key: type(value) for key, value in _DEFAULTS.items()},
                           "scenario config")
    for dev in cfg["devices"]:
        absc.json_object(dev, {"name": str, "attributes": list, "expect": str},
                         "scenario device")
    return cfg


def _message_bytes(cfg):
    if "message_hex" in cfg:
        return absc.hex_bytes(cfg["message_hex"])
    return cfg["message"].encode("utf-8")


class ScenarioResult:
    def __init__(self, ok, outcomes, events, slots_used):
        self.ok = ok
        self.outcomes = outcomes
        self.events = events
        self.slots_used = slots_used

    def summary(self):
        lines = [f"scenario {'PASSED' if self.ok else 'FAILED'}"
                 f" (block landed within {self.slots_used} slot(s))"]
        for name in sorted(self.outcomes):
            got, want = self.outcomes[name]
            mark = "ok" if got == want else "MISMATCH"
            lines.append(f"  {name}: expected {want}, got {got} [{mark}]")
        return "\n".join(lines)


def run_scenario(config=None, mode="threads"):
    cfg = _merged(config)
    if cfg["push_mode"] not in ("payload", "pull"):
        raise ValueError(f"unknown push_mode {cfg['push_mode']!r}")
    if cfg["fault"] not in ("none", "tamper-payload", "stale-replay"):
        raise ValueError(f"unknown fault {cfg['fault']!r}")
    if mode == "procs" and cfg["fault"] != "none":
        raise ValueError(f"fault {cfg['fault']!r} runs in threads mode only")
    if mode == "threads":
        return _run_threads(cfg)
    if mode == "procs":
        return _run_procs(cfg)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# in-process mode

def _run_threads(cfg):
    rng = random.Random(cfg["seed"])
    slot_seconds = cfg["slot_seconds"]
    virtual = slot_seconds > 2
    clock = nodes.ManualClock(0.0) if virtual else time.time

    ta = nodes.TrustedAuthority(cfg["profile"], rng, slot_seconds=slot_seconds)
    sp_bundle = ta.register("Publisher Services Inc", "sp")
    ta.register("Edge Relay Unit 7", "ed")
    dev_bundles = {}
    for dev in cfg["devices"]:
        dev_bundles[dev["name"]] = ta.register(
            f"device owner {dev['name']}", "sd", attributes=dev["attributes"])
    vset = ta.validator_set()
    registry = dict(ta.publishers)
    pp = ta.pp

    validator = nodes.ValidatorNode("validator", ta.ctx, vset, registry,
                                    sp_bundle["pseudo_id"], clock=clock)
    push_mode = cfg["push_mode"]
    devices = {}
    started = []
    try:
        for dev in cfg["devices"]:
            bundle = dev_bundles[dev["name"]]
            key = absc.attribute_key_from_json(ta.ctx, bundle["attribute_key"])
            node = nodes.DeviceNode(dev["name"], pp, key, registry, slot_seconds,
                                    freshness_slots=cfg["freshness_slots"],
                                    clock=clock, pull=push_mode == "pull")
            devices[dev["name"]] = node
        validator.start()
        started.append(validator)
        for node in devices.values():
            node.start()
            started.append(node)
        push_targets = ([] if push_mode == "pull"
                        else [(n.url, "payload") for n in devices.values()])
        edge = nodes.EdgeNode("edge", ta.ctx, vset, registry, validator.url,
                              push_targets=push_targets, clock=clock)
        edge.start()
        started.append(edge)
        for node in devices.values():
            node.source = edge.url

        if virtual:
            clock.set(slot_seconds)  # slot 1 opens; genesis owns slot 0
        record, resp = nodes.publish_message(
            pp, sp_bundle, _message_bytes(cfg), cfg["policy"],
            validator.url, rng)
        if resp.get("status") != "accepted":
            raise RuntimeError(f"record rejected: {resp}")
        publish_slot = ledger.slot_of(clock(), slot_seconds)

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if virtual and len(validator.chain) < 2:
                clock.advance(slot_seconds)
            done = all(_outcome(node.events) for node in devices.values())
            if len(validator.chain) >= 2 and done:
                break
            time.sleep(0.05)
        block_slot = (ledger.slot_of(validator.chain[-1].header.timestamp,
                                     slot_seconds)
                      if len(validator.chain) >= 2 else None)
        slots_used = (block_slot - publish_slot + 1) if block_slot else None

        if cfg["fault"] == "tamper-payload" and len(validator.chain) >= 2:
            _fault_tamper(edge, devices)
        if cfg["fault"] == "stale-replay" and len(validator.chain) >= 2:
            _fault_replay(cfg, clock, edge, devices, slot_seconds, virtual)

        ok, outcomes = _verdicts(
            cfg, len(validator.chain) >= 2,
            {name: node.events for name, node in devices.items()},
            lambda name: devices[name].accepted[0][1])
        return ScenarioResult(ok, outcomes,
                              [e for node in started for e in node.events],
                              slots_used)
    finally:
        # stop() waits out the loop's tick; stopping the validator last
        # keeps the edge's tick from retrying a validator already gone
        for node in reversed(started):
            node.stop()


_TERMINAL = {"accepted": "accepted", "ignored": "ignored",
             "integrity-alarm": "alarm"}


def _outcome(events):
    """A device's outcome from its events, or None before it settles.

    The last terminal event wins: fault injection re-delivers after the
    first settle, and the verdict on the re-delivery is the outcome.
    """
    for e in reversed(events):
        if e["event"] in _TERMINAL:
            return _TERMINAL[e["event"]]
    return None


def _verdicts(cfg, sealed, events, recovered):
    """(ok, {device: (got, want)}) from each device's events, in either
    mode; recovered(name) gives the bytes an accepting device recovered,
    and an accept of other bytes than the message is not an accept."""
    ok = sealed
    outcomes = {}
    for dev in cfg["devices"]:
        got = _outcome(events[dev["name"]]) or "none"
        if got == "accepted" and recovered(dev["name"]) != _message_bytes(cfg):
            got = "accepted-wrong-bytes"
        # a tampered re-delivery trips the digest gate on every device,
        # before any attribute filtering
        want = "alarm" if cfg["fault"] == "tamper-payload" else dev["expect"]
        outcomes[dev["name"]] = (got, want)
        ok = ok and got == want
    return ok, outcomes


def _redeliver(block, devices):
    """Deliver block again to every device, as if announced for the first time."""
    body = ledger.block_to_json(block)
    for node in devices.values():
        node.seen.discard(block.header.index)
        node.ingest(body)


def _fault_tamper(edge, devices):
    # flip payload byte 0 of the edge's tip block; devices must raise alarms
    block = edge.chain[-1]
    data = block.record.payload
    tampered = replace(block.record, payload=bytes([data[0] ^ 0xFF]) + data[1:])
    _redeliver(replace(block, record=tampered), devices)


def _fault_replay(cfg, clock, edge, devices, slot_seconds, virtual):
    window = cfg["freshness_slots"] * slot_seconds
    if virtual:
        clock.advance(window + 2 * slot_seconds)
    else:
        time.sleep(window + slot_seconds + 0.5)
    _redeliver(edge.chain[-1], devices)


# ---------------------------------------------------------------------------
# subprocess mode

def _wait_http(url, deadline=15.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            nodes.http_get(url, timeout=1.0, retries=1)
            return True
        except Exception:  # noqa: BLE001
            time.sleep(0.1)
    return False


def _free_port():
    import socket
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _run_procs(cfg):
    workdir = tempfile.mkdtemp(prefix="policycast-scenario-")
    procs = []
    try:
        env = dict(os.environ)
        base = [sys.executable, "-m", "policycast.cli"]

        def run(args, **kw):
            return subprocess.run(base + args, check=True, env=env,
                                  capture_output=True, text=True, **kw)

        run(["ta", "init", "--dir", workdir, "--profile", cfg["profile"],
             "--slot-seconds", str(cfg["slot_seconds"]),
             "--seed", str(cfg["seed"])])
        run(["ta", "register", "--dir", workdir, "--role", "sp",
             "--identity", "Publisher Services Inc", "--out",
             os.path.join(workdir, "sp.json")])
        run(["ta", "register", "--dir", workdir, "--role", "ed",
             "--identity", "Edge Relay Unit 7", "--out",
             os.path.join(workdir, "ed.json")])
        for dev in cfg["devices"]:
            run(["ta", "register", "--dir", workdir, "--role", "sd",
                 "--identity", f"device owner {dev['name']}",
                 "--attrs", ",".join(dev["attributes"]),
                 "--out", os.path.join(workdir, f"{dev['name']}.json")])

        public = os.path.join(workdir, "public.json")
        vport, eport = _free_port(), _free_port()
        vurl, eurl = f"http://127.0.0.1:{vport}", f"http://127.0.0.1:{eport}"

        def spawn(args):
            p = subprocess.Popen(base + args, env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
            procs.append(p)
            return p

        spawn(["sp", "run", "--bundle", os.path.join(workdir, "sp.json"),
               "--public", public, "--listen", f"127.0.0.1:{vport}"])
        if not _wait_http(f"{vurl}/chain/head"):
            raise RuntimeError("validator did not come up")

        dev_ports = {d["name"]: _free_port() for d in cfg["devices"]}
        out_files = {d["name"]: os.path.join(workdir, f"{d['name']}.out.jsonl")
                     for d in cfg["devices"]}
        accept_dirs = {d["name"]: os.path.join(workdir, f"{d['name']}.accepted")
                       for d in cfg["devices"]}
        pull = cfg["push_mode"] == "pull"
        for dev in cfg["devices"]:
            name = dev["name"]
            spawn(["sd", "run", "--bundle", os.path.join(workdir, f"{name}.json"),
                   "--public", public,
                   "--listen", f"127.0.0.1:{dev_ports[name]}",
                   "--source", eurl,
                   "--freshness", str(cfg["freshness_slots"]),
                   "--events", out_files[name],
                   "--accept-dir", accept_dirs[name]] + (["--pull"] if pull else []))
        push = []
        if not pull:
            for dev in cfg["devices"]:
                push += ["--push", f"http://127.0.0.1:{dev_ports[dev['name']]}"]
        spawn(["ed", "run", "--public", public, "--validator", vurl,
               "--listen", f"127.0.0.1:{eport}"] + push)
        if not _wait_http(f"{eurl}/chain/head"):
            raise RuntimeError("edge did not come up")
        for port in dev_ports.values():  # a device answers any GET, with 404
            _wait_http(f"http://127.0.0.1:{port}/chain/head", deadline=5.0)

        message_file = os.path.join(workdir, "message.bin")
        with open(message_file, "wb") as fh:
            fh.write(_message_bytes(cfg))
        run(["sp", "publish", "--bundle", os.path.join(workdir, "sp.json"),
             "--public", public, "--validator", vurl,
             "--policy", cfg["policy"], "--message-file", message_file])
        publish_slot = int(time.time()) // cfg["slot_seconds"]

        deadline = time.monotonic() + 30 + 2 * cfg["slot_seconds"]
        while True:
            events = {name: _read_events(path)
                      for name, path in out_files.items()}
            if (all(_outcome(e) for e in events.values())
                    or time.monotonic() >= deadline):
                break
            time.sleep(0.2)

        head = nodes.http_get(f"{vurl}/chain/head").json()
        block_slot = (head["header"]["timestamp"] // cfg["slot_seconds"]
                      if head["index"] >= 1 else None)
        slots_used = (block_slot - publish_slot + 1) if block_slot else None

        def recovered(name):
            # a device writes block{N}.bin before it logs "accepted"
            path = os.path.join(accept_dirs[name], f"block{head['index']}.bin")
            with open(path, "rb") as fh:
                return fh.read()

        ok, outcomes = _verdicts(cfg, head["index"] >= 1, events, recovered)
        return ScenarioResult(ok, outcomes,
                              [e for d in cfg["devices"] for e in events[d["name"]]],
                              slots_used)
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
        shutil.rmtree(workdir, ignore_errors=True)


def _read_events(path):
    """A device's events file, parsed; a last line still being written
    (no newline yet) is left for the next read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        return []
    return [json.loads(line) for line in lines[:-1]]
