"""Outside-in tracing: spans recorded by wrapping policycast's public names.

Nothing in policycast is edited.  While a Tracer is installed, each
target below is replaced, at every name callers look it up by, with a
wrapper that records one span per call:

    (id, parent id, name, message key, wall start/end,
     thread-CPU start/end, process-CPU start/end, tag)

The parent is the innermost wrapped call open on the same thread; the
key is the sequence number of the one message in flight.  Spans stay in
memory until the run ends.

F_q/F_q2 multiplication is inlined in the Miller loop and called far
too often to wrap; it shows up inside the pairing spans.
"""

import functools
import itertools
import json
import os
import statistics
import threading
import time
from urllib.parse import urlparse

from policycast import absc, groups, ledger, nodes, pairing, policy

LAYERS = ("pairing", "groups", "policy", "absc", "ledger", "nodes")


def _http_tag(args, resp):
    sent = resp.request.body or b""
    return {"path": urlparse(args[0]).path, "bytes": len(sent) + len(resp.content)}


class Tracer:
    """Wraps the targets while installed; collects the spans."""

    def __init__(self):
        self.spans = []
        self.key = None
        self.validator_chain = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers = {}
        for name, owners, attr, tag in self._targets():
            fn = getattr(owners[0], attr)
            wrapper = self._wrap(name, fn, tag)
            for owner in owners:
                if getattr(owner, attr) is not fn:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                self._wrappers[(owner, attr)] = (fn, wrapper)

    def _targets(self):
        append_tag = (lambda args, _res: "validator"
                      if args[0] is self.validator_chain else "edge")
        return (
            ("pairing.miller", (pairing,), "tate_miller", None),
            ("pairing.final_exp", (pairing,), "tate_final_exp", None),
            ("pairing.pt_mul", (pairing,), "pt_mul", None),
            ("pairing.pt_decompress", (pairing,), "pt_decompress", None),
            ("pairing.fq2_exp", (pairing,), "fq2_exp", None),
            ("groups.decode", (groups.GroupContext,), "deserialize_element", None),
            ("groups.pow", (groups.GroupElement,), "__pow__", None),
            ("groups.pair", (groups.GroupContext,), "pair", None),
            ("groups.pair_ratio", (groups.GroupContext,), "pair_ratio", None),
            ("policy.parse", (policy, absc), "parse_policy", None),
            ("policy.satisfies", (policy, absc, nodes), "satisfies", None),
            ("policy.share", (policy, absc), "share_secret", None),
            ("absc.keygen", (absc,), "keygen", None),
            ("absc.signcrypt", (absc,), "signcrypt", None),
            ("absc.designcrypt", (absc,), "designcrypt", None),
            ("absc.payload_encode", (absc,), "payload_bytes", None),
            ("absc.payload_decode", (absc,), "payload_from_bytes", None),
            ("ledger.record_decode", (ledger,), "record_from_json", None),
            ("ledger.block_decode", (ledger,), "block_from_json", None),
            ("ledger.append", (ledger,), "append_block", append_tag),
            ("ledger.save_chain", (ledger,), "save_chain",
             lambda args, _res: os.path.getsize(args[0])),
            ("nodes.publish", (nodes,), "publish_message", None),
            ("nodes.http", (nodes,), "http_get", _http_tag),
            ("nodes.http", (nodes,), "http_post_json", _http_tag),
            ("nodes.serve", (nodes._Handler,), "_run", None),
            ("nodes.validator.tick", (nodes.ValidatorNode,), "tick", None),
            ("nodes.edge.sync", (nodes.EdgeNode,), "sync_once", None),
            ("nodes.edge.push", (nodes.EdgeNode,), "_push", None),
            ("nodes.device.tick", (nodes.DeviceNode,), "tick", None),
            ("nodes.device.receive", (nodes.DeviceNode,), "receive",
             lambda args, _res: args[0].name),
        )

    def _wrap(self, name, fn, tag):
        local, spans, ids = self._local, self.spans, self._ids
        perf, tcpu, pcpu = time.perf_counter, time.thread_time, time.process_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            key = tracer.key
            stack.append(sid)
            returned = False
            w0, c0, p0 = perf(), tcpu(), pcpu()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                p1, c1, w1 = pcpu(), tcpu(), perf()
                stack.pop()
                label = tag(args, result) if returned and tag is not None else None
                spans.append((sid, parent, name, key, w0, w1, c0, c1, p0, p1, label))

        return wrapper

    def install(self, key):
        self.key = key
        for (owner, attr), (_fn, wrapper) in self._wrappers.items():
            setattr(owner, attr, wrapper)

    def remove(self):
        for (owner, attr), (fn, _wrapper) in self._wrappers.items():
            setattr(owner, attr, fn)

    def write(self, path):
        fields = ("id", "parent", "name", "key", "wall0", "wall1",
                  "cpu0", "cpu1", "proc0", "proc1", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# analysis

def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def hop_samples(spans, messages):
    """Per-hop (wall, busy) samples in seconds over the traced messages.

    Boundaries: publish start -> POST returned (queued) -> validator
    append (sealed) -> edge append (synced) -> device outcome
    (delivered).  Busy is process CPU, all threads, spent inside the
    hop; wall minus busy is time the process spent waiting.
    """
    sealed, synced, delivered = {}, {}, {}
    for (_sid, _par, name, key, _w0, w1, _c0, _c1, _p0, p1, tag) in spans:
        if name == "ledger.append":
            (sealed if tag == "validator" else synced)[key] = (w1, p1)
        elif name == "nodes.device.receive":
            delivered.setdefault(key, {})[tag] = (w1, p1)
    hops = {h: [] for h in ("publish", "queue", "sync", "deliver")}
    for seq, m in messages.items():
        if not m["traced"] or seq not in sealed or seq not in synced:
            continue
        points = [m["publish"], m["queued"], sealed[seq], synced[seq]]
        for hop, a, b in zip(("publish", "queue", "sync"), points, points[1:]):
            hops[hop].append((b[0] - a[0], b[1] - a[1]))
        for end in delivered.get(seq, {}).values():
            hops["deliver"].append((end[0] - synced[seq][0], end[1] - synced[seq][1]))
    return hops


def hop_table(hops):
    lines = ["hop                      wall p50   busy p50   wait p50  (ms)"]
    labels = {"publish": "publish -> queued", "queue": "queued -> sealed",
              "sync": "sealed -> synced", "deliver": "synced -> delivered"}
    for hop, samples in hops.items():
        wall = _p50([w for w, _ in samples]) * 1e3
        busy = _p50([b for _, b in samples]) * 1e3
        wait = _p50([w - b for w, b in samples]) * 1e3
        lines.append(f"{labels[hop]:<22} {wall:10.2f} {busy:10.2f} {wait:10.2f}"
                     f"   n={len(samples)}")
    return lines


def layer_metrics(spans, messages, errors):
    """Per-layer metrics over the traced messages; see README.md.

    The trace.* ratios compare traced with untraced messages of the same
    run: the tracing overhead.
    """
    traced = {seq for seq, m in messages.items() if m["traced"]}
    n = max(len(traced), 1)
    by_id = {s[0]: s for s in spans}
    child_cpu = {}
    for s in spans:
        if s[1]:
            child_cpu[s[1]] = child_cpu.get(s[1], 0.0) + (s[7] - s[6])

    def ancestors(s):
        while s[1] in by_id:
            s = by_id[s[1]]
            yield s

    calls, busy, wall = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    decode_on_device = 0.0
    http_bytes = 0
    device_requests = device_useful = 0
    save_bytes = 0
    for s in spans:
        sid, _par, name, key, w0, w1, c0, c1, _p0, _p1, tag = s
        if key not in traced:
            continue
        layer_self[name.split(".")[0]] += (c1 - c0) - child_cpu.get(sid, 0.0)
        up = [a[2] for a in ancestors(s)]
        if name in up:
            continue  # recursion: the outer call already covers this one
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (c1 - c0)
        wall[name] = wall.get(name, 0.0) + (w1 - w0)
        if name == "groups.decode" and "nodes.device.receive" in up:
            decode_on_device += c1 - c0
        elif tag is None:
            continue  # the call raised, so it has no tag
        elif name == "nodes.http":
            http_bytes += tag["bytes"]
            if "nodes.device.tick" in up:
                device_requests += 1
                device_useful += tag["path"] != "/chain/head"
        elif name == "ledger.save_chain":
            save_bytes += tag

    def per_msg(name):
        return 1e3 * busy.get(name, 0.0) / n

    def per_call(name):
        return 1e3 * busy.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def wait_per_call(name):
        if not calls.get(name):
            return 0.0
        return 1e3 * (wall[name] - busy[name]) / calls[name]

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for name in ("pairing.miller", "pairing.final_exp", "pairing.pt_mul",
                 "groups.decode", "groups.pow", "groups.pair", "groups.pair_ratio",
                 "absc.payload_encode"):
        put(f"{name}.calls_per_msg", calls.get(name, 0) / n, "count")
    for name in ("pairing.miller", "pairing.pt_mul", "absc.signcrypt",
                 "absc.designcrypt", "absc.payload_decode"):
        put(f"{name}.ms_per_call", per_call(name), "ms")
    for name in ("pairing.miller", "pairing.final_exp", "pairing.pt_mul",
                 "pairing.pt_decompress", "pairing.fq2_exp", "groups.decode",
                 "groups.pow", "policy.parse", "policy.satisfies", "policy.share",
                 "absc.payload_encode", "ledger.record_decode",
                 "ledger.block_decode", "ledger.append", "ledger.save_chain"):
        put(f"{name}.ms_per_msg", per_msg(name), "ms")
    decode = busy.get("groups.decode", 0.0)
    put("groups.decode.device_share", decode_on_device / decode if decode else 0.0,
        "ratio")
    keygen = [s[7] - s[6] for s in spans if s[2] == "absc.keygen"]
    put("absc.keygen.ms_per_call", 1e3 * statistics.fmean(keygen) if keygen else 0.0,
        "ms")
    put("ledger.save_chain.kb_written_per_msg", save_bytes / 1024 / n, "kB")

    for hop, samples in hop_samples(spans, messages).items():
        put(f"nodes.hop.{hop}_ms", 1e3 * _p50([b for _, b in samples]), "ms")
        put(f"nodes.hop.{hop}.wait_ms", 1e3 * _p50([w - b for w, b in samples]), "ms")
    put("nodes.device.receive_ms_per_call", per_call("nodes.device.receive"), "ms")
    put("nodes.device.receive.wait_ms_per_call",
        wait_per_call("nodes.device.receive"), "ms")
    put("nodes.edge.push_ms_per_msg", per_msg("nodes.edge.push"), "ms")
    put("nodes.http.requests_per_msg", calls.get("nodes.http", 0) / n, "count")
    put("nodes.http.kb_per_msg", http_bytes / 1024 / n, "kB")
    put("nodes.http.ms_per_call", per_call("nodes.http"), "ms")
    put("nodes.device.pull_useful_ratio",
        device_useful / device_requests if device_requests else 0.0, "ratio")
    put("nodes.errors_per_msg", errors / max(len(messages), 1), "count")
    for layer in LAYERS:
        put(f"{layer}.self_ms_per_msg", 1e3 * layer_self[layer] / n, "ms")
    for field, name in (("settle_s", "settle_ratio"), ("cpu_s", "cpu_ratio")):
        on = [m[field] for m in messages.values() if m["traced"]]
        off = [m[field] for m in messages.values() if not m["traced"]]
        ratio = statistics.median(on) / statistics.median(off) if on and off else 0.0
        put(f"trace.{name}", ratio, "ratio")
    return out
