"""The benchmark's workloads.

Each workload fixes a curve profile, one policy, a device fleet with the
outcome every device must reach, and how devices get blocks.  Messages
are 1 KiB of seeded random bytes.  Why each workload exists, and which
layer it stresses, is in README.md next to this file.
"""

from dataclasses import dataclass

MESSAGE_BYTES = 1024


@dataclass(frozen=True)
class Device:
    name: str
    attributes: tuple
    expect: str  # "accepted" | "ignored"


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    policy: str
    delivery: str  # "payload" (edge pushes full payloads) | "pull"
    persist: bool  # validator writes its chain file every block
    devices: tuple


def _dev(name, attrs, expect):
    return Device(name, tuple(attrs.split()), expect)


_WIDE = tuple(f"w{i}" for i in range(8))
_THRESHOLD = tuple(f"a{i:02d}" for i in range(16))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="fanout",
        profile="ASYMMETRIC_159",
        policy="(floor3, hvac, badge-blue)@2",
        delivery="payload",
        persist=False,
        devices=(
            _dev("sd0", "floor3 hvac", "accepted"),
            _dev("sd1", "floor3 badge-blue", "accepted"),
            _dev("sd2", "hvac badge-blue", "accepted"),
            _dev("sd3", "floor3 hvac badge-blue", "accepted"),
            _dev("sd4", "floor3 hvac lobby", "accepted"),
            _dev("sd5", "hvac badge-blue camera", "accepted"),
            _dev("sd6", "floor3 camera", "ignored"),
            _dev("sd7", "badge-red hvac", "ignored"),
        ),
    ),
    Workload(
        name="wide-sym",
        profile="SYMMETRIC_512",
        policy=" and ".join(_WIDE),
        delivery="payload",
        persist=False,
        devices=(
            _dev("sd0", " ".join(_WIDE), "accepted"),
            _dev("sd1", " ".join(_WIDE + ("lobby",)), "accepted"),
            _dev("sd2", " ".join(_WIDE + ("camera",)), "accepted"),
            _dev("sd3", " ".join(_WIDE[:7]), "ignored"),
        ),
    ),
    Workload(
        name="threshold-pull",
        profile="ASYMMETRIC_159",
        policy="(" + ", ".join(_THRESHOLD) + ")@2",
        delivery="pull",
        persist=True,
        devices=(
            _dev("sd0", "a00 a15", "accepted"),
            _dev("sd1", "a03 a07 a11", "accepted"),
            _dev("sd2", "a05 lobby", "ignored"),
            _dev("sd3", "b00 b01", "ignored"),
        ),
    ),
)}
