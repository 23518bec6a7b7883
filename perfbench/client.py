"""Open-loop HTTP client for the ``serve_live`` workload.

A separate, single-threaded process with one connection at a time.
It reads its plan as one JSON object on standard input::

    {"host": "127.0.0.1", "port": 8080, "rate": 100, "seconds": 10,
     "seed": 1337, "blocks": [...]}

and sends ``rate`` requests per second for ``seconds`` on a seeded
schedule that does not slow when the server does.  Each gap between
requests is drawn uniformly from 0.5-1.5 times the mean interval, so
arrivals keep the mean rate but do not lock onto the phase of the
daemon's 5 ms interpreter-lock switch timer (a fixed period did, and
moved the median between 7, 9 and 16 ms from run to run).  80% are
``/v1/catchment/<block>`` (blocks drawn from the plan), 10% ``/v1/load``
and 10% ``/v1/diff?rounds=2``.  Latency is timed from each request's
due time, so a stall also counts against the requests queued behind it;
lateness is how far past its due time a request was actually sent.
Each response is checked (status 200 and a well-formed body).  The
result is one JSON object on standard output.

When a response leaves at least :data:`PROBE_SLACK_S` before the next
request is due (and at least every :data:`PROBE_EVERY_S` regardless),
the client also times the benchmark's ``"loop"`` speed probe
(``kernels.loop``) and reports it, so the daemon's side can normalise
its ingest rate for host speed drift.  Standard library only.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import time

import kernels

#: Request mix as cumulative shares.
CATCHMENT_SHARE = 0.8
LOAD_SHARE = 0.9
DIFF_ROUNDS = 2
#: Shares of ``/v1/load`` must sum to one within this.
FRACTION_TOLERANCE = 1e-9
TIMEOUT_S = 30.0
#: Gaps between requests vary by this share of the mean interval.
JITTER = 0.5
#: Probe when this much time is left before the next request, and in
#: any case once this often, so a saturated run still has probes.
PROBE_SLACK_S = 0.003
PROBE_EVERY_S = 0.5


def _check(kind: str, path: str, status: int, body: bytes) -> str:
    """``""`` when the response is right, else what is wrong with it."""
    if status != 200:
        return f"{path}: status {status}: {body[:200]!r}"
    try:
        document = json.loads(body)
        if kind == "catchment":
            if document["block"] != int(path.rsplit("/", 1)[1]) or "site" not in document:
                return f"{path}: wrong catchment document"
        elif kind == "load":
            for part in ("window", "latest_round"):
                total = sum(document[part]["fractions"].values())
                if abs(total - 1.0) > FRACTION_TOLERANCE:
                    return f"{path}: {part} fractions sum to {total!r}"
        elif document["to_round"] - document["from_round"] != DIFF_ROUNDS:
            return f"{path}: diff spans {document['from_round']}..{document['to_round']}"
    except (ValueError, KeyError, TypeError) as err:
        return f"{path}: malformed body ({err!r})"
    return ""


def run(plan: dict) -> dict:
    """Send the planned requests; returns samples, probes and failures.

    Times are ``time.perf_counter`` readings, which share one clock with
    the daemon's process on Linux.
    """
    rng = random.Random(plan["seed"])
    blocks = plan["blocks"]
    interval = 1.0 / plan["rate"]
    count = max(1, int(round(plan["rate"] * plan["seconds"])))
    gaps = [interval * (1.0 - JITTER + 2.0 * JITTER * rng.random()) for _ in range(count)]
    offsets = [0.0]
    for gap in gaps[:-1]:
        offsets.append(offsets[-1] + gap)
    samples = []
    probes = []
    failures = []
    start = time.perf_counter()
    for index in range(count):
        draw = rng.random()
        if draw < CATCHMENT_SHARE:
            kind, path = "catchment", f"/v1/catchment/{rng.choice(blocks)}"
        elif draw < LOAD_SHARE:
            kind, path = "load", "/v1/load"
        else:
            kind, path = "diff", f"/v1/diff?rounds={DIFF_ROUNDS}"
        due = start + offsets[index]
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        connection = http.client.HTTPConnection(plan["host"], plan["port"], timeout=TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException) as err:
            status, body = 0, repr(err).encode()
        finally:
            connection.close()
        done = time.perf_counter()
        problem = _check(kind, path, status, body)
        if problem:
            failures.append(problem)
        samples.append([kind, due, done, sent - due, not problem])
        now = time.perf_counter()
        last_probe = probes[-1][0] if probes else start
        if (start + offsets[index] + gaps[index] - now > PROBE_SLACK_S
                or now - last_probe > PROBE_EVERY_S):
            began = time.perf_counter()
            kernels.loop()
            ended = time.perf_counter()
            probes.append([ended, ended - began])
    return {"samples": samples, "probes": probes, "failures": failures[:20],
            "failed": len(failures)}


def main() -> int:
    """Read the plan from stdin, run it, write the result to stdout."""
    plan = json.loads(sys.stdin.read())
    json.dump(run(plan), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
