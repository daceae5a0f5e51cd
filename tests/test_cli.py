"""Command line behavior, driven in-process through cli.main."""

import csv
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import policycast
from policycast import absc, cli, ledger, nodes
from policycast.groups import GroupContext


@pytest.fixture(scope="module")
def authority_dir(tmp_path_factory):
    """An initialised authority directory with one publisher and one device."""
    root = tmp_path_factory.mktemp("ta")
    assert cli.main(["ta", "init", "--dir", str(root),
                     "--profile", "ASYMMETRIC_159", "--seed", "99"]) == 0
    assert cli.main(["ta", "register", "--dir", str(root), "--role", "sp",
                     "--identity", "publisher@example.org",
                     "--out", str(root / "sp.json")]) == 0
    assert cli.main(["ta", "register", "--dir", str(root), "--role", "sd",
                     "--identity", "sensor-17", "--attrs", "alpha,beta",
                     "--out", str(root / "sd.json")]) == 0
    return root


def test_init_and_register_artifacts(authority_dir):
    state = json.loads((authority_dir / "ta_state.json").read_text())
    public = json.loads((authority_dir / "public.json").read_text())
    sp = json.loads((authority_dir / "sp.json").read_text())
    sd = json.loads((authority_dir / "sd.json").read_text())

    assert state["profile"] == "ASYMMETRIC_159"
    assert sp["pseudo_id"] in public["publishers"]
    assert public["validators"] == [sp["pseudo_id"]]
    # handoff bundles carry pseudonyms only
    for bundle in (sp, sd):
        text = json.dumps(bundle)
        assert "publisher@example.org" not in text
        assert "sensor-17" not in text
    assert sd["attributes"] == ["alpha", "beta"]


def test_register_refuses_a_state_file_whose_beta_is_zero(authority_dir,
                                                          tmp_path, capsys):
    # a zero beta was loaded and then raised ZeroDivisionError in keygen
    state = json.loads((authority_dir / "ta_state.json").read_text())
    width = GroupContext(state["profile"]).params.r_bytes
    state["mk"]["beta"] = "00" * width
    (tmp_path / "ta_state.json").write_text(json.dumps(state))
    assert cli.main(["ta", "register", "--dir", str(tmp_path), "--role", "sd",
                     "--identity", "sensor-19", "--attrs", "alpha"]) == 2
    assert "beta out of range" in capsys.readouterr().err
    assert not (tmp_path / "public.json").exists()


@pytest.mark.parametrize("key", ["pk", "mk", "slot_seconds", "directory",
                                 "publishers", "validators"])
def test_register_refuses_a_state_file_missing_a_key(authority_dir, tmp_path,
                                                     capsys, key):
    # a missing key was a KeyError that ended in a traceback
    state = json.loads((authority_dir / "ta_state.json").read_text())
    for broken in ({k: v for k, v in state.items() if k != key},
                   dict(state, **{key: "x"})):
        (tmp_path / "ta_state.json").write_text(json.dumps(broken))
        assert cli.main(["ta", "register", "--dir", str(tmp_path), "--role", "sd",
                         "--identity", "sensor-19", "--attrs", "alpha"]) == 2
        assert f"{key} missing or not a" in capsys.readouterr().err
        assert not (tmp_path / "public.json").exists()


@pytest.fixture
def no_serve(monkeypatch):
    """A node command that gets past its file checks fails, not serves."""
    monkeypatch.setattr(cli, "_serve", lambda *args, **kw: pytest.fail("served"))


def _run_with(authority_dir, tmp_path, public=None, bundle=None,
              command="sd"):
    """cli.main on `command` with public.json and the device (sd) or
    publisher (sp) bundle, either replaced by the given JSON value."""
    paths = {}
    for name, source, value in (("public.json", "public.json", public),
                                ("bundle.json", f"{command}.json", bundle)):
        paths[name] = authority_dir / source
        if value is not None:
            paths[name] = tmp_path / name
            paths[name].write_text(json.dumps(value))
    common = ["--bundle", str(paths["bundle.json"]),
              "--public", str(paths["public.json"])]
    if command == "sd":
        return cli.main(["sd", "run", *common, "--listen", "127.0.0.1:0"])
    return cli.main(["sp", "publish", *common, "--validator",
                     "http://127.0.0.1:9", "--policy", "alpha", "--text", "x"])


@pytest.mark.parametrize("key", ["pk", "publishers", "validators",
                                 "slot_seconds", None])
def test_node_commands_refuse_a_malformed_public_bundle(authority_dir,
                                                        tmp_path, capsys,
                                                        no_serve, key):
    # a missing key was a KeyError, a list file a TypeError: tracebacks
    public = json.loads((authority_dir / "public.json").read_text())
    if key is None:
        cases = [([public], "is not an object")]
    else:
        cases = [({k: v for k, v in public.items() if k != key},
                  f"{key} missing or not a"),
                 (dict(public, **{key: "x"}), f"{key} missing or not a")]
    for command in ("sd", "sp"):
        for broken, message in cases:
            assert _run_with(authority_dir, tmp_path, public=broken,
                             command=command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "public.json" in err
            assert message in err


@pytest.mark.parametrize("command, key", [
    ("sd", "attribute_key"), ("sd", "pseudo_id"), ("sd", None),
    ("sp", "key_sign"), ("sp", "key_ver"), ("sp", "pseudo_id"), ("sp", None)])
def test_node_commands_refuse_a_malformed_bundle(authority_dir, tmp_path,
                                                 capsys, no_serve, command,
                                                 key):
    # tracebacks too: a device bundle given to `sp publish` (no key_sign)
    # was KeyError: 'key_sign', a list file a TypeError
    bundle = json.loads((authority_dir / f"{command}.json").read_text())
    if key is None:
        cases = [([bundle], "is not an object")]
    else:
        cases = [({k: v for k, v in bundle.items() if k != key},
                  f"{key} missing or not a"),
                 (dict(bundle, **{key: 7}), f"{key} missing or not a")]
    for broken, message in cases:
        assert _run_with(authority_dir, tmp_path, bundle=broken,
                         command=command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bundle.json" in err
        assert message in err


def test_files_refuse_a_json_boolean_for_an_int(authority_dir, tmp_path,
                                               capsys, no_serve):
    # JSON true loads as a bool, which Python counts as the int 1
    message = "slot_seconds missing or not a int"
    public = json.loads((authority_dir / "public.json").read_text())
    for command in ("sd", "sp"):
        assert _run_with(authority_dir, tmp_path, public=dict(
            public, slot_seconds=True), command=command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "public.json" in err and message in err
    state = json.loads((authority_dir / "ta_state.json").read_text())
    ta_dir = tmp_path / "ta"
    ta_dir.mkdir()
    (ta_dir / "ta_state.json").write_text(json.dumps(dict(state, slot_seconds=True)))
    assert cli.main(["ta", "register", "--dir", str(ta_dir), "--role", "sd",
                     "--identity", "sensor-19", "--attrs", "alpha"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (ta_dir / "public.json").exists()
    config = tmp_path / "scn.json"
    config.write_text(json.dumps({"slot_seconds": 15, "freshness_slots": False}))
    assert cli.main(["scenario", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "freshness_slots missing or not a int" in err


def test_files_with_a_quorum_key_still_load(authority_dir, tmp_path):
    # files written while the authority still stored a quorum carry the key
    for name in ("ta_state.json", "public.json"):
        obj = json.loads((authority_dir / name).read_text())
        (tmp_path / name).write_text(json.dumps(dict(obj, quorum=1)))
    pub, _pp, vset = cli._public_context(str(tmp_path / "public.json"))
    assert vset.pseudo_ids == tuple(sorted(pub["validators"]))
    assert cli.main(["ta", "register", "--dir", str(tmp_path), "--role", "sd",
                     "--identity", "sensor-18", "--attrs", "alpha",
                     "--out", str(tmp_path / "sd.json")]) == 0
    assert "quorum" not in json.loads((tmp_path / "ta_state.json").read_text())


def test_trace_resolves_pseudonym(authority_dir, capsys):
    sd = json.loads((authority_dir / "sd.json").read_text())
    assert cli.main(["ta", "trace", "--dir", str(authority_dir),
                     "--pseudo-id", sd["pseudo_id"]]) == 0
    assert capsys.readouterr().out.strip() == "sensor-17"
    assert cli.main(["ta", "trace", "--dir", str(authority_dir),
                     "--pseudo-id", "ff" * 16]) == 2


def test_register_requires_attributes_for_devices(authority_dir, capsys):
    rc = cli.main(["ta", "register", "--dir", str(authority_dir),
                   "--role", "sd", "--identity", "no-attrs"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_init_rejects_unknown_profile(tmp_path, capsys):
    rc = cli.main(["ta", "init", "--dir", str(tmp_path / "x"),
                   "--profile", "NOT_A_PROFILE"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_publish_to_live_validator(authority_dir, tmp_path, capsys):
    public = json.loads((authority_dir / "public.json").read_text())
    sp = json.loads((authority_dir / "sp.json").read_text())
    ctx = GroupContext(public["profile"])
    vset = ledger.ValidatorSet(tuple(public["validators"]),
                               slot_seconds=public["slot_seconds"])
    node = nodes.ValidatorNode("val", ctx, vset, public["publishers"],
                               sp["pseudo_id"])
    node.start(run_loop=False)
    try:
        rc = cli.main(["sp", "publish",
                       "--bundle", str(authority_dir / "sp.json"),
                       "--public", str(authority_dir / "public.json"),
                       "--validator", node.url,
                       "--policy", "alpha and beta",
                       "--text", "hello devices", "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["response"] == {"status": "accepted"}
        assert out["pseudo_id"] == sp["pseudo_id"]
        assert len(node.pending) == 1

        blob = tmp_path / "msg.bin"
        blob.write_bytes(b"\x00\x01binary payload")
        rc = cli.main(["sp", "publish",
                       "--bundle", str(authority_dir / "sp.json"),
                       "--public", str(authority_dir / "public.json"),
                       "--validator", node.url,
                       "--policy", "alpha",
                       "--message-file", str(blob)])
        assert rc == 0
        assert len(node.pending) == 2
    finally:
        node.stop()


def test_publish_rejects_bad_policy_without_network(authority_dir, capsys):
    rc = cli.main(["sp", "publish",
                   "--bundle", str(authority_dir / "sp.json"),
                   "--public", str(authority_dir / "public.json"),
                   "--validator", "http://127.0.0.1:9",
                   "--policy", "alpha and", "--text", "x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def fresh_block(authority_dir, text):
    """A block sealed now on a new chain, carrying text for alpha and beta."""
    _pub, pp, vset = cli._public_context(str(authority_dir / "public.json"))
    sp = json.loads((authority_dir / "sp.json").read_text())
    sk, vk = pp.publisher_keys(sp["key_sign"], sp["key_ver"])
    st, ct = absc.signcrypt(pp, sk, text, "alpha and beta", random.Random(5))
    record = ledger.make_record(sp["pseudo_id"], vk, st, ct)
    block = ledger.propose_block(ledger.genesis(), record, sp["pseudo_id"],
                                 int(time.time()), vset)
    return ledger.block_to_json(block)


def test_device_output_is_on_disk_when_ingest_returns(authority_dir, tmp_path):
    pub, pp, vset = cli._public_context(str(authority_dir / "public.json"))
    sd = json.loads((authority_dir / "sd.json").read_text())
    key = absc.attribute_key_from_json(pp.ctx, sd["attribute_key"])
    dev = nodes.DeviceNode(sd["pseudo_id"], pp, key, pub["publishers"],
                           vset.slot_seconds)
    events, inbox = tmp_path / "events.jsonl", tmp_path / "inbox"
    inbox.mkdir()
    dev.events = cli._Sink(str(events), cli._write_event)
    dev.accepted = cli._Sink(str(inbox), cli._write_accepted)

    assert dev.ingest(fresh_block(authority_dir, b"open vent 3")) == "accepted"
    lines = [json.loads(line) for line in events.read_text().splitlines()]
    assert [e["event"] for e in lines] == ["accepted"]
    assert (inbox / "block1.bin").read_bytes() == b"open vent 3"
    for sink in (dev.events, dev.accepted):  # each keeps nothing
        assert not any(isinstance(v, (list, dict, tuple, set))
                       for v in vars(sink).values())


def test_sd_run_writes_a_push_at_once_and_exits_on_sigterm(authority_dir,
                                                           tmp_path):
    events, inbox = tmp_path / "events.jsonl", tmp_path / "inbox"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(policycast.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "policycast.cli", "sd", "run",
         "--bundle", str(authority_dir / "sd.json"),
         "--public", str(authority_dir / "public.json"),
         "--listen", "127.0.0.1:0", "--events", str(events),
         "--accept-dir", str(inbox)],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        url = proc.stdout.readline().split()[-1]  # "... listening on URL"
        resp = nodes.http_post_json(f"{url}/push",
                                    fresh_block(authority_dir, b"dim lights"))
        assert resp.json() == {"status": "accepted"}
        # written before the reply went out: no copy loop to wait for
        assert [json.loads(line)["event"]
                for line in events.read_text().splitlines()] == ["accepted"]
        assert (inbox / "block1.bin").read_bytes() == b"dim lights"
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
        assert time.monotonic() - t0 < 2
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--profiles", "ASYMMETRIC_159", "--ops", "setup",
                   "--counts", "2:4", "--trials", "1", "--csv", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "setup" in printed and "n= 2" in printed
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["attribute_count"] for r in rows} == {"2", "3"}
    assert all(float(r["median_ms"]) >= 0 for r in rows)


def test_scenario_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({"slot_seconds": 15}))
    events = tmp_path / "events.jsonl"
    rc = cli.main(["scenario", "--config", str(cfg),
                   "--events", str(events)])
    assert rc == 0
    assert "ok" in capsys.readouterr().out
    lines = events.read_text().splitlines()
    assert lines
    assert all(json.loads(line) for line in lines)


@pytest.mark.parametrize("config, fault, message", [
    ([1, 2], None, "is not an object"),
    ([1, 2], "tamper-payload", "is not an object"),
    ({"slot_seconds": "x"}, None, "slot_seconds missing or not a int"),
    ({"slot_seconds": 15, "devices": [1]}, None, "scenario device is not an object"),
    ({"slot_seconds": 15, "message_hex": 7}, None, "expected lowercase hex"),
], ids=["list", "list-with-fault", "slot-seconds", "device", "message-hex"])
def test_scenario_refuses_a_malformed_config(tmp_path, capsys, config, fault,
                                             message):
    # each was a TypeError traceback
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(config))
    argv = ["scenario", "--config", str(cfg)] + (["--fault", fault] if fault else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_argparse_rejects_bad_invocations(authority_dir):
    with pytest.raises(SystemExit):
        cli.main(["ta", "register", "--dir", str(authority_dir),
                  "--role", "boss", "--identity", "x"])
    with pytest.raises(SystemExit):
        cli.main(["sp", "publish", "--bundle", "b", "--public", "p",
                  "--validator", "v", "--policy", "a",
                  "--text", "x", "--message-file", "y"])
    with pytest.raises(SystemExit):
        cli.main(["scenario", "--mode", "other"])
    with pytest.raises(SystemExit):
        cli.main([])
