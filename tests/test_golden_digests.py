"""Golden digests: seeded topologies and scan rounds, pinned across changes.

The values were computed before the responder-first round evaluation
and the one-pass transit partition landed, so a change to any random
stream (the topology build, a per-round draw, the cleaning rules or the
shard merge) fails here rather than passing as "same seed, same
output".  ``python tools/round_digests.py`` (``make digests``) prints
the same lines for ad-hoc comparisons between two checkouts.
"""

from __future__ import annotations

from tools import round_digests

GOLDEN = {
    "topology/broot_like/tiny/s7": (
        "005e5bd2a75bc128cbefa32f0a169f8e4dec53cc3974fa8da9c6abfb91719d82"
    ),
    "topology/broot_like/tiny/s29": (
        "88597fd3451a4288f6d187033623a120c3d5539dc88605bc350f0bcb965ec860"
    ),
    "topology/broot_like/small/s7": (
        "b3df34ee7200f0cb1127a0e47d3fb5e18553a4576454f00209ee2d9173878990"
    ),
    "topology/broot_like/small/s29": (
        "7a40b6baf62ed28f245edaecf27803c5571695fb869d0c3570d300f6691569f9"
    ),
    "topology/tangled_like/tiny/s7": (
        "a9647bc28a3125a125fa23abc7a8b09182d97725e87c9f767736e4aae49bcfb4"
    ),
    "topology/tangled_like/tiny/s29": (
        "06eea9d1097489f24651b7988f752ecad6f3b860d0e7496f63e894caa307126c"
    ),
    "topology/tangled_like/small/s7": (
        "7a3cfa320d57bf20fc1a3c0db5fe95ab3706f3448e5f7c656f83786705eb4c61"
    ),
    "topology/tangled_like/small/s29": (
        "b40a1e7f5935cbb84e2e66ded77bab5c95ce1fd3414939f5a8f483ae13ec9591"
    ),
    "rounds/10000pps-900s/full": (
        "a796a2342c7e94b232aaa0defefdcd3517afa566c7811b6958bc8467e36fb70d"
    ),
    "rounds/10000pps-900s/sharded": (
        "a796a2342c7e94b232aaa0defefdcd3517afa566c7811b6958bc8467e36fb70d"
    ),
    "rounds/20pps-300s/full": (
        "1cc78865e6344c909637305727df3767ccf0778352972888bbc8fc310268b0da"
    ),
    "rounds/20pps-300s/sharded": (
        "1cc78865e6344c909637305727df3767ccf0778352972888bbc8fc310268b0da"
    ),
    "rounds/37pps-61s/full": (
        "48a475ac20df87e1077178e9fd68d1b088c79bd42476bfce207e8b6776795342"
    ),
    "rounds/37pps-61s/sharded": (
        "48a475ac20df87e1077178e9fd68d1b088c79bd42476bfce207e8b6776795342"
    ),
}


def _golden(prefix: str):
    return {key: value for key, value in GOLDEN.items() if key.startswith(prefix)}


def test_topologies_match_golden():
    assert round_digests.topology_digests() == _golden("topology/")


def test_rounds_match_golden():
    computed = round_digests.round_digests()
    assert computed == _golden("rounds/")
    for key, value in computed.items():
        if key.endswith("/sharded"):
            assert value == computed[key[: -len("sharded")] + "full"]

