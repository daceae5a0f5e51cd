"""Command line front end.

    policycast ta init --dir DIR --profile P [--slot-seconds N] [--seed N]
    policycast ta register --dir DIR --role sp|ed|sd --identity NAME
                           [--attrs a,b,c] [--out FILE]
    policycast sp publish --bundle F --public F --validator URL
                          --policy TEXT (--text MSG | --message-file F)
    policycast sp run --bundle F --public F --listen H:P [--store F]
    policycast ed run --public F --validator URL --listen H:P
                      [--push URL ...]
    policycast sd run --bundle F --public F --listen H:P [--source URL]
                      [--pull] [--freshness N] [--events F] [--accept-dir D]
    policycast bench [--profiles a,b] [--ops a,b] [--counts LO:HI]
                     [--trials N] [--msg-size N] [--csv F] [--seed N]
    policycast scenario [--config F] [--mode threads|procs]

Key handoff is by local file: `ta register` writes the entity's private
bundle, `ta init` writes the shareable public bundle next to the
authority state.  Configuration files are JSON.

The edge pushes each new block, as the canonical block JSON, to every
--push device; a device run with --pull long-polls its --source instead.

A node writes its output as it happens and keeps none of it: an --events
line as it logs the event, an --accept-dir file (block{N}.bin) as the
device accepts the block.  SIGTERM or SIGINT stops a node.
"""

import argparse
import json
import os
import random
import signal
import sys
import threading

from . import absc, bench, nodes, scenario
from .groups import CurveProfile


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path, keys):
    """The JSON object in path, checked by absc.json_object."""
    return absc.json_object(_load_json(path), keys, path)


def _dump_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_listen(text):
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _public_context(public_path):
    pub = _load_object(public_path, {"pk": dict, "publishers": dict,
                                     "validators": list, "slot_seconds": int})
    pp = absc.public_params_from_json(pub["pk"])
    from .ledger import ValidatorSet
    vset = ValidatorSet(tuple(pub["validators"]),
                        slot_seconds=pub["slot_seconds"])
    return pub, pp, vset


class _Sink:
    """Stands in for NodeService.events or DeviceNode.accepted: append()
    puts the item on disk, under a lock, before it returns, and keeps
    nothing.  With no path it discards."""

    def __init__(self, path, write):
        self.path, self._write, self._lock = path, write, threading.Lock()

    def append(self, item):
        if self.path:
            with self._lock:
                self._write(self.path, item)


def _write_event(path, entry):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _write_accepted(dirpath, item):
    index, msg = item  # appended before the device logs "accepted"
    with open(os.path.join(dirpath, f"block{index}.bin"), "wb") as fh:
        fh.write(msg)


def _serve(node, listen, label, events_path=None):
    """Serve node until SIGTERM or SIGINT, then stop it.

    The signals are blocked before the node starts its threads, which
    inherit the mask, so they stay pending until sigwait takes them here.
    """
    signals = {signal.SIGTERM, signal.SIGINT}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)
    node.events = _Sink(events_path, _write_event)
    host, port = _split_listen(listen)
    node.start(host, port)
    print(f"{label} listening on {node.url}", flush=True)
    try:
        signal.sigwait(signals)
    finally:
        node.stop()
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_ta_init(args):
    rng = random.Random(args.seed) if args.seed is not None else None
    ta = nodes.TrustedAuthority(args.profile, rng,
                                slot_seconds=args.slot_seconds)
    os.makedirs(args.dir, exist_ok=True)
    _dump_json(os.path.join(args.dir, "ta_state.json"), ta.state_to_json())
    _dump_json(os.path.join(args.dir, "public.json"), ta.public_bundle())
    print(f"authority initialised in {args.dir} ({args.profile})")
    return 0


def cmd_ta_register(args):
    state_path = os.path.join(args.dir, "ta_state.json")
    rng = random.Random(args.seed) if args.seed is not None else None
    ta = nodes.TrustedAuthority.from_json(_load_json(state_path), rng)
    attrs = [a for a in (args.attrs or "").split(",") if a.strip()]
    bundle = ta.register(args.identity, args.role, attributes=attrs or None)
    _dump_json(state_path, ta.state_to_json())
    _dump_json(os.path.join(args.dir, "public.json"), ta.public_bundle())
    out = args.out or os.path.join(args.dir, f"{bundle['pseudo_id']}.json")
    _dump_json(out, bundle)
    print(f"registered {args.role} as {bundle['pseudo_id']}; bundle at {out}")
    return 0


def cmd_ta_trace(args):
    ta = nodes.TrustedAuthority.from_json(
        _load_json(os.path.join(args.dir, "ta_state.json")))
    print(ta.trace(args.pseudo_id))
    return 0


def cmd_sp_publish(args):
    pub, pp, _ = _public_context(args.public)
    bundle = _load_object(args.bundle, {"pseudo_id": str, "key_sign": str,
                                        "key_ver": str})
    if args.text is not None:
        msg = args.text.encode("utf-8")
    else:
        with open(args.message_file, "rb") as fh:
            msg = fh.read()
    rng = random.Random(args.seed) if args.seed is not None else None
    record, resp = nodes.publish_message(pp, bundle, msg, args.policy,
                                         args.validator, rng)
    print(json.dumps({"pseudo_id": record.pseudo_id,
                      "payload_digest": record.payload_digest.hex(),
                      "response": resp}, sort_keys=True))
    return 0 if resp.get("status") == "accepted" else 1


def cmd_sp_run(args):
    pub, pp, vset = _public_context(args.public)
    bundle = _load_object(args.bundle, {"pseudo_id": str})
    node = nodes.ValidatorNode("validator", pp.ctx, vset, pub["publishers"],
                               bundle["pseudo_id"], store_path=args.store)
    return _serve(node, args.listen, f"validator {bundle['pseudo_id']}")


def cmd_ed_run(args):
    pub, pp, vset = _public_context(args.public)
    targets = [(u, "payload") for u in (args.push or [])]
    node = nodes.EdgeNode("edge", pp.ctx, vset, pub["publishers"],
                          args.validator, push_targets=targets)
    return _serve(node, args.listen, "edge relay")


def cmd_sd_run(args):
    pub, pp, vset = _public_context(args.public)
    bundle = _load_object(args.bundle, {"pseudo_id": str,
                                        "attribute_key": dict})
    key = absc.attribute_key_from_json(pp.ctx, bundle["attribute_key"])
    node = nodes.DeviceNode(bundle["pseudo_id"], pp, key, pub["publishers"],
                            vset.slot_seconds, source=args.source,
                            freshness_slots=args.freshness, pull=args.pull)
    if args.accept_dir:
        os.makedirs(args.accept_dir, exist_ok=True)
    node.accepted = _Sink(args.accept_dir, _write_accepted)
    return _serve(node, args.listen, f"device {bundle['pseudo_id']}",
                  events_path=args.events)


def cmd_bench(args):
    profiles = [CurveProfile(p.strip()) for p in args.profiles.split(",")]
    ops = tuple(o.strip() for o in args.ops.split(","))
    lo, _, hi = args.counts.partition(":")
    counts = range(int(lo), int(hi))
    results = bench.run_bench(profiles, ops, counts, trials=args.trials,
                              msg_size=args.msg_size, seed=args.seed)
    for r in results:
        print(f"{r.profile:15s} {r.operation:12s} n={r.attribute_count:2d} "
              f"median={r.median_ms:9.2f} ms  mean={r.mean_ms:9.2f} ms")
    if args.csv:
        bench.write_csv(results, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_scenario(args):
    cfg = _load_object(args.config, {}) if args.config else {}
    if args.fault:
        cfg = dict(cfg, fault=args.fault)
    result = scenario.run_scenario(cfg, mode=args.mode)
    print(result.summary())
    if args.events:
        with open(args.events, "w", encoding="utf-8") as fh:
            for evt in result.events:
                fh.write(json.dumps(evt, sort_keys=True) + "\n")
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="policycast",
                                     description="attribute-policied dissemination over a permissioned ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    ta = sub.add_parser("ta", help="authority operations").add_subparsers(
        dest="ta_command", required=True)
    p = ta.add_parser("init")
    p.add_argument("--dir", required=True)
    p.add_argument("--profile", default="SYMMETRIC_512",
                   help="SYMMETRIC_512 (at most ~80-bit security) or ASYMMETRIC_159 "
                        "(318-bit F_q2: for tests and benchmarks only)")
    p.add_argument("--slot-seconds", type=int, default=15)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_ta_init)
    p = ta.add_parser("register")
    p.add_argument("--dir", required=True)
    p.add_argument("--role", required=True, choices=["sp", "ed", "sd"])
    p.add_argument("--identity", required=True)
    p.add_argument("--attrs")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_ta_register)
    p = ta.add_parser("trace")
    p.add_argument("--dir", required=True)
    p.add_argument("--pseudo-id", dest="pseudo_id", required=True)
    p.set_defaults(fn=cmd_ta_trace)

    sp = sub.add_parser("sp", help="publisher operations").add_subparsers(
        dest="sp_command", required=True)
    p = sp.add_parser("publish")
    p.add_argument("--bundle", required=True)
    p.add_argument("--public", required=True)
    p.add_argument("--validator", required=True)
    p.add_argument("--policy", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--message-file")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_sp_publish)
    p = sp.add_parser("run")
    p.add_argument("--bundle", required=True)
    p.add_argument("--public", required=True)
    p.add_argument("--listen", required=True)
    p.add_argument("--store")
    p.set_defaults(fn=cmd_sp_run)

    p = sub.add_parser("ed").add_subparsers(dest="ed_command", required=True).add_parser("run")
    p.add_argument("--public", required=True)
    p.add_argument("--validator", required=True)
    p.add_argument("--listen", required=True)
    p.add_argument("--push", action="append")
    p.set_defaults(fn=cmd_ed_run)

    p = sub.add_parser("sd").add_subparsers(dest="sd_command", required=True).add_parser("run")
    p.add_argument("--bundle", required=True)
    p.add_argument("--public", required=True)
    p.add_argument("--listen", required=True)
    p.add_argument("--source")
    p.add_argument("--pull", action="store_true")
    p.add_argument("--freshness", type=int, default=10)
    p.add_argument("--events")
    p.add_argument("--accept-dir")
    p.set_defaults(fn=cmd_sd_run)

    p = sub.add_parser("bench")
    p.add_argument("--profiles", default="SYMMETRIC_512,ASYMMETRIC_159")
    p.add_argument("--ops", default=",".join(bench.OPERATIONS))
    p.add_argument("--counts", default="2:20")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--msg-size", type=int, default=1024)
    p.add_argument("--csv")
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("scenario")
    p.add_argument("--config")
    p.add_argument("--mode", default="threads", choices=["threads", "procs"])
    p.add_argument("--fault", choices=["none", "tamper-payload", "stale-replay"])
    p.add_argument("--events")
    p.set_defaults(fn=cmd_scenario)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
