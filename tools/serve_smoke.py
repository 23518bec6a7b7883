#!/usr/bin/env python3
"""Smoke-test the always-on mapping service over real HTTP.

Boots two same-seed daemons on a tiny scenario, drives each through the
same simulated reply stream, queries every ``/v1`` endpoint through an
actual TCP socket (``urllib`` against the ephemeral port the server
bound), and asserts:

- every endpoint answers 200 with well-formed JSON (and the error
  paths answer structured 4xx);
- load fractions sum to 1.0 with the ``UNK`` bucket included;
- the two daemons' data-endpoint responses are **byte-identical** —
  the service determinism contract, end to end through the HTTP stack.

Stdlib + repro only.  Run as ``python tools/serve_smoke.py`` (or
``make serve-smoke``); exits non-zero with a message on any failure.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request
from typing import Dict, List, Tuple

from repro.core.scenarios import broot_like
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.obs import Observer
from repro.service import MappingService, MeasurementState, replay_feed

ROUNDS = 3
ENDPOINTS = (
    "/v1/health",
    "/v1/load",
    "/v1/diff?rounds=1",
    "/v1/metrics",
)

#: Data endpoints that must be byte-identical across same-seed daemons
#: (health/metrics carry run-local counters like request tallies).
DETERMINISTIC_ENDPOINTS = (
    "/v1/load",
    "/v1/diff?rounds=1",
)


def boot_daemon() -> Tuple[MappingService, str, int]:
    """One fully ingested daemon on an ephemeral loopback port."""
    scenario = broot_like(scale="tiny", seed=7)
    observer = Observer.collecting()
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    routing = verfploeter.routing_for()
    estimate = LoadEstimate(scenario.day_load("smoke-day"))
    universe = verfploeter.hitlist.block_array
    state = MeasurementState(
        routing.policy.site_codes,
        universe,
        estimate,
        window_rounds=2,
        ring_size=4,
        observer=observer,
    )
    feed = replay_feed(
        verfploeter, routing=routing, rounds=ROUNDS, batch_size=64
    )
    service = MappingService(state, feed, observer=observer)
    host, port = service.serve_http()
    service.ingest()
    return service, host, port


def fetch(host: str, port: int, path: str) -> Tuple[int, bytes]:
    """GET one path over real HTTP; returns (status, body bytes)."""
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def main() -> int:
    """Run the smoke; returns a process exit code."""
    daemons = [boot_daemon() for _ in range(2)]
    failures: List[str] = []
    responses: List[Dict[str, bytes]] = []
    try:
        for service, host, port in daemons:
            bodies: Dict[str, bytes] = {}
            for path in ENDPOINTS:
                status, body = fetch(host, port, path)
                document = json.loads(body)
                if status != 200:
                    failures.append(f"{path}: expected 200, got {status}")
                    continue
                bodies[path] = body
                if path == "/v1/load":
                    shares = document["window"]["fractions"]
                    total = sum(shares.values())
                    if abs(total - 1.0) > 1e-9:
                        failures.append(
                            f"/v1/load fractions sum to {total!r}, not 1.0"
                        )
                    if "UNK" not in shares:
                        failures.append("/v1/load fractions missing UNK")
            # One mapped block fetched through the path parameter.
            status, body = fetch(host, port, "/v1/diff?rounds=1")
            sample = json.loads(body)["stable"]
            if sample < 1:
                failures.append("diff reports no stable blocks on a tiny run")
            for path, expect in (
                ("/v1/catchment/not-a-block", 400),
                ("/v1/diff?rounds=0", 400),
                ("/v1/diff?rounds=99", 400),
                ("/v1/nothing-here", 404),
            ):
                status, _ = fetch(host, port, path)
                if status != expect:
                    failures.append(f"{path}: expected {expect}, got {status}")
            responses.append(bodies)
    finally:
        for service, _, _ in daemons:
            service.shutdown()
    for path in DETERMINISTIC_ENDPOINTS:
        if responses[0].get(path) != responses[1].get(path):
            failures.append(f"{path}: two same-seed daemons differ")
    if failures:
        for failure in failures:
            print(f"serve-smoke: FAIL: {failure}")
        return 1
    print(
        f"serve-smoke: OK ({ROUNDS} rounds x 2 daemons, "
        f"{len(ENDPOINTS)} endpoints, byte-identical data responses)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
