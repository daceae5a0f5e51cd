"""Scenario runner: happy path, fault injection, custom topologies."""

import subprocess

import pytest

from policycast import scenario

# slot_seconds above 2 selects the virtual clock, so these finish fast
BASE = {"slot_seconds": 15}


def cfg(**overrides):
    merged = dict(BASE)
    merged.update(overrides)
    return merged


def test_defaults_reach_exactly_the_matching_device():
    res = scenario.run_scenario(cfg())
    assert res.ok
    assert res.outcomes["sd-match"] == ("accepted", "accepted")
    assert res.outcomes["sd-other"] == ("ignored", "ignored")
    assert res.slots_used <= 2
    assert "PASSED" in res.summary()
    assert any(e["event"] == "block-appended" for e in res.events)


def test_threshold_policy_scenario():
    res = scenario.run_scenario(cfg(
        policy="(alpha, beta, gamma)@2",
        message="threshold broadcast",
        devices=[
            {"name": "d-two", "attributes": ["alpha", "gamma"],
             "expect": "accepted"},
            {"name": "d-one", "attributes": ["beta"], "expect": "ignored"},
        ]))
    assert res.ok
    assert res.outcomes["d-two"][0] == "accepted"
    assert res.outcomes["d-one"][0] == "ignored"


def test_pull_mode():
    res = scenario.run_scenario(cfg(push_mode="pull"))
    assert res.ok
    assert res.outcomes["sd-match"][0] == "accepted"


def test_procs_pull_mode_spawns_pulling_devices(monkeypatch):
    spawned = []
    real = subprocess.Popen

    def spy(args, *rest, **kw):
        spawned.append(list(args))
        return real(args, *rest, **kw)

    monkeypatch.setattr(scenario.subprocess, "Popen", spy)
    res = scenario.run_scenario({"slot_seconds": 1, "push_mode": "pull"},
                                mode="procs")
    assert res.ok, res.summary()
    devices = [a for a in spawned if a[3:5] == ["sd", "run"]]
    edges = [a for a in spawned if a[3:5] == ["ed", "run"]]
    assert len(devices) == 2 and all("--pull" in a for a in devices)
    assert len(edges) == 1 and "--push" not in edges[0]
    # the devices' own events, read from their --events files
    assert sorted(e["event"] for e in res.events) == ["accepted", "ignored"]


@pytest.mark.parametrize("mode", ["threads", "procs"])
def test_unknown_push_mode_is_rejected(mode):
    with pytest.raises(ValueError):
        scenario.run_scenario(cfg(push_mode="header"), mode=mode)


@pytest.mark.parametrize("mode, fault", [
    ("threads", "tamper"),  # an unknown name must not run fault-free
    ("procs", "tamper"),
    ("procs", "tamper-payload"),  # procs mode injects no fault
    ("procs", "stale-replay"),
])
def test_a_fault_the_run_cannot_inject_is_rejected(mode, fault):
    with pytest.raises(ValueError, match="fault"):
        scenario.run_scenario({"slot_seconds": 1, "fault": fault}, mode=mode)


def test_tampered_payload_alarms_every_device():
    res = scenario.run_scenario(cfg(fault="tamper-payload"))
    assert res.ok
    # the digest gate fires before any attribute filtering
    assert res.outcomes["sd-match"] == ("alarm", "alarm")
    assert res.outcomes["sd-other"] == ("alarm", "alarm")
    assert any(e["event"] == "integrity-alarm" for e in res.events)


def test_stale_replay_changes_nothing():
    res = scenario.run_scenario(cfg(fault="stale-replay"))
    assert res.ok
    assert res.outcomes["sd-match"][0] == "accepted"
    assert res.outcomes["sd-other"][0] == "ignored"
    assert any(e["event"] in ("stale", "duplicate") for e in res.events)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        scenario.run_scenario(cfg(), mode="carrier-pigeon")


def test_message_hex_override():
    res = scenario.run_scenario(cfg(message_hex="00ff10"))
    assert res.ok


def test_procs_mode_publishes_message_hex():
    # the publisher sends the configured bytes, not the default text
    res = scenario.run_scenario({"slot_seconds": 1, "message_hex": "00ff10"},
                                mode="procs")
    assert res.ok, res.summary()


def test_an_accept_of_other_bytes_is_a_mismatch():
    conf = scenario._merged({"message_hex": "00ff10"})
    events = {"sd-match": [{"event": "accepted"}],
              "sd-other": [{"event": "ignored"}]}
    ok, outcomes = scenario._verdicts(conf, True, events, lambda name: b"other")
    assert not ok
    assert outcomes["sd-match"] == ("accepted-wrong-bytes", "accepted")
    summary = scenario.ScenarioResult(ok, outcomes, [], 1).summary()
    assert "sd-match: expected accepted, got accepted-wrong-bytes [MISMATCH]" in summary
