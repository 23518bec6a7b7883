"""``serve_live``: the mapping daemon ingesting while it is queried.

After a cold start at ``medium`` scale, a ``MappingService`` is bound to
a loopback port and ingests a live packet-level ``replay_feed``.  Once
it has published enough rounds for every query in the mix, an open-loop
client (``client.py``, its own single-threaded process) queries it at a
fixed rate.  The final published catchment must equal ``batch_replay``
of the same rounds scanned in batch, and every query must answer 200
with a well-formed body.  The traced run also climbs a fixed rate
ladder to find the highest rate the daemon sustains.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import common
from repro.core.fastscan import FastScanEngine
from repro.load.weighting import weight_catchment
from repro.service import MappingService, MeasurementState, ReplyBatch, batch_replay, replay_feed

SCALE = "medium"
SETUPS = 3
#: Fixed mean query rate of the measured window (requests per second).
#: The daemon answers spaced requests in about 6 ms but back-to-back
#: ones in about 33 ms, and in about 50 ms while the host is slow, so
#: near 20-30 req/s one hiccup tips it into a backlog it does not drain
#: within a run; 10 req/s keeps twice that margin.
RATE = 10
#: ``/v1/diff?rounds=2`` needs three rounds in the ring.
WARM_ROUNDS = 3
WARM_TIMEOUT_S = 120.0
#: Upper bound on feed length; the run stops the daemon long before.
FEED_ROUNDS = 100_000
BATCH_SIZE = 512
INTERVAL_S = 900.0
WINDOW_ROUNDS = 4
RING_SIZE = 8
#: Catchment queries draw from this many hitlist blocks.
QUERY_BLOCKS = 2000
#: Rate ladder of the traced run: a step passes when its query p99 is
#: within the limit, every query succeeds and lateness does not grow.
#: A step lasts LADDER_STEP_S, or the run's window if that is shorter.
LADDER = (10, 25, 50, 100, 150, 200)
LADDER_STEP_S = 3.0
P99_LIMIT_MS = 50.0
CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "client.py")

LAYERS = (
    "scenarios.build_s",
    "traffic.day_load_s",
    "probing.hitlist_s",
    "bgp.routes_s",
    "load.weight_ms",
    "service.feed_round_s",
    "service.ingest_batch_ms",
    "service.end_round_ms",
    "service.handler_ms.catchment",
    "service.handler_ms.load",
    "service.handler_ms.diff",
    "service.query_wait_ms",
    "client.lag_ms",
    "client.max_rps",
    "cleaning.kept_ratio",
    "trace.overhead_pct",
)
ENDPOINTS = ("catchment", "load", "diff")


class _Daemon:
    """A bound daemon over one cold start, with its feed instrumented."""

    def __init__(self, scale: str, seed: int, layers: common.Layers) -> None:
        self.layers = layers
        self.cold = cold = common.ColdStart(scale, seed, layers)
        verfploeter = cold.verfploeter
        self.universe = np.array(verfploeter.hitlist.blocks, dtype=np.uint64)
        self.state = MeasurementState(
            cold.routing.policy.site_codes, self.universe, cold.estimate,
            window_rounds=WINDOW_ROUNDS, ring_size=RING_SIZE,
            cleaning=verfploeter.cleaning,
            weighter=layers.wrap(weight_catchment, "load.weight") if layers.enabled else None,
        )
        self.replies = defaultdict(int)
        self.round_ends = []
        feed = replay_feed(verfploeter, routing=cold.routing, rounds=FEED_ROUNDS,
                           interval_seconds=INTERVAL_S, batch_size=BATCH_SIZE)
        self.service = MappingService(self.state, self._counted(feed))
        self.host, self.port = self.service.serve_http()

    def _counted(self, feed):
        """The feed, spanned per event, with replies counted per round."""
        iterator = iter(feed)
        while True:
            with self.layers.span("service.feed") as span:
                event = next(iterator, None)
                if event is not None:
                    span.set(round_id=event.round_id)
            if event is None:
                return
            if isinstance(event, ReplyBatch):
                self.replies[event.round_id] += len(event.replies)
            yield event

    def instrument(self) -> None:
        """Time round ends always (they pace ingest); span the rest when
        tracing."""
        layers = self.layers
        state = self.state
        end_round = state.end_round

        def timed_end_round():
            with layers.span("service.end_round"):
                record = end_round()
            self.round_ends.append((time.perf_counter(), record.round_id))
            return record

        layers.replace(state, "end_round", timed_end_round)
        layers.install(state, "ingest_batch", "service.ingest_batch")
        if layers.enabled:
            app = self.service.app
            respond = app.respond

            def traced_respond(method, path, query_string=""):
                endpoint = path.split("/")[2] if path.count("/") >= 2 else "other"
                with layers.span(f"service.handler.{endpoint}"):
                    return respond(method, path, query_string)

            layers.replace(app, "respond", traced_respond)

    def wait_for_rounds(self, rounds: int) -> None:
        """Block until the daemon has published ``rounds`` rounds."""
        deadline = time.perf_counter() + WARM_TIMEOUT_S
        while self.state.view.rounds_completed < rounds:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"daemon published fewer than {rounds} rounds "
                                   f"in {WARM_TIMEOUT_S} s")
            time.sleep(0.01)

    def round_spans(self, since: float, until: float):
        """``(replies, (start, end))`` of each round that ended in
        ``[since, until]``; a round starts when the one before it ended."""
        return [
            (self.replies[round_id], (previous, end))
            for (previous, _), (end, round_id) in zip(self.round_ends, self.round_ends[1:])
            if since <= end <= until
        ]


def _query(daemon: _Daemon, probe: common.SpeedProbe, rate: float, seconds: float,
           seed: int, blocks) -> dict:
    """Run the client process once; returns its result document.

    The client's speed probes join ``probe``.
    """
    plan = {"host": daemon.host, "port": daemon.port, "rate": rate,
            "seconds": seconds, "seed": seed, "blocks": blocks}
    proc = subprocess.run([sys.executable, CLIENT], input=json.dumps(plan),
                          capture_output=True, text=True, timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    for at, taken in result["probes"]:
        probe.add(at, taken)
    return result


def _spans(result: dict):
    """(due, done) of every query: latency is timed from the due time."""
    return [(sample[1], sample[2]) for sample in result["samples"]]


def _lags_ms(result: dict):
    return [1e3 * sample[3] for sample in result["samples"]]


def _lag_grows(result: dict, rate: float) -> bool:
    """True when the last third ran later than the first by more than
    one request interval: the generator is falling behind."""
    lags = _lags_ms(result)
    third = max(1, len(lags) // 3)
    return common.median(lags[-third:]) - common.median(lags[:third]) > 1e3 / rate


def _ladder(daemon: _Daemon, probe: common.SpeedProbe, seed: int, blocks,
            step_s: float) -> float:
    """Highest ladder rate meeting the p99 limit without growing lateness."""
    best = 0.0
    for step, rate in enumerate(LADDER):
        result = _query(daemon, probe, rate, step_s, seed + step + 1, blocks)
        _, p99 = common.tail(common.durations(_spans(result)))
        if result["failed"] or 1e3 * p99 > P99_LIMIT_MS or _lag_grows(result, rate):
            break
        best = float(rate)
    return best


def run(opts, layers: common.Layers, scale: str) -> common.Outcome:
    """Set up a daemon, warm it up, query it while it ingests, check it."""
    outcome = common.Outcome()
    # Ingest is the pure-Python packet-level feed: the "loop" kernel,
    # timed in the client process between requests, tracks it.
    probe = common.SpeedProbe("loop")
    daemon, setup = common.repeat_setup(
        SETUPS, lambda: _Daemon(scale, opts.seed, layers),
        lambda old: old.service.shutdown(),
    )
    rng = random.Random(opts.seed)
    hitlist = [int(block) for block in daemon.universe]
    blocks = rng.sample(hitlist, min(QUERY_BLOCKS, len(hitlist)))
    setup_peak_mb = common.peak_rss_mb()

    windows = []
    max_rps = 0.0
    try:
        daemon.instrument()
        daemon.service.start_ingest()
        daemon.wait_for_rounds(WARM_ROUNDS)
        # A traced run queries its first half with spans off, the second on.
        halves = (False, True) if layers.enabled else (False,)
        for index, active in enumerate(halves):
            layers.active = active
            start = time.perf_counter()
            result = _query(daemon, probe, RATE, opts.seconds / len(halves),
                            opts.seed + index, blocks)
            windows.append((start, time.perf_counter(), result))
        layers.active = False
        if layers.enabled:
            max_rps = _ladder(daemon, probe, opts.seed + len(halves), blocks,
                              min(LADDER_STEP_S, opts.seconds))
        layers.active = layers.enabled
    finally:
        daemon.service.shutdown()
        layers.uninstall()
    # The gated peak is read before the batch_replay check, which the
    # daemon never runs.
    window_peak_mb = common.peak_rss_mb()

    for _, _, result in windows:
        for sample in result["samples"]:
            outcome.record(sample[4], "a query failed its check")
        outcome.problems.extend(result["failures"][:5])

    # The final published catchment against the same rounds scanned in batch.
    view = daemon.state.view
    engine = FastScanEngine(daemon.cold.verfploeter, daemon.cold.routing)
    rounds = [
        engine.run_scan(round_id=r, start_time=r * INTERVAL_S).catchment
        for r in range(view.rounds_completed)
    ]
    expected = batch_replay(view.site_codes, daemon.universe, rounds)
    same = (np.array_equal(view.catchment.universe, expected.universe)
            and np.array_equal(view.catchment.site_index_array, expected.site_index_array))
    outcome.record(same, f"final catchment after {view.rounds_completed} rounds "
                         "differs from batch_replay")

    first_start, _, first = windows[0]
    _, last_end, last = windows[-1]
    # Query latency is mostly waiting for the interpreter lock, whose
    # 5 ms switch interval is wall-clock time: it is reported raw.
    queries = common.durations(_spans(first))
    latency = common.latency_metrics(queries)
    rounds = daemon.round_spans(first_start, last_end)
    rates = [replies / seconds for (replies, _), seconds
             in zip(rounds, probe.normalise([span for _, span in rounds]))]
    lags = [lag for _, _, result in windows for lag in _lags_ms(result)]
    lag_percentile, lag_tail = common.tail(lags)
    outcome.end_to_end = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": window_peak_mb,
        "op_p50_ms": latency["p50_ms"],
        "op_tail_ms": latency["tail_ms"],
        "work_per_s": common.median(rates),
    }
    raw_metrics = {
        "work_per_s": common.median([replies / (end - start)
                                     for replies, (start, end) in rounds]),
    }
    if layers.enabled:
        handler = {name: layers.durations(f"service.handler.{name}") for name in ENDPOINTS}
        feed = defaultdict(float)
        for span in layers.spans("service.feed"):
            feed[span.attributes.get("round_id")] += span.duration
        records = view.rounds
        kept = sum(r.kept for r in records)
        received = kept + sum(r.wrong_round + r.unsolicited + r.late + r.duplicates
                              for r in records)
        all_handler = [d for name in ENDPOINTS for d in handler[name]]
        outcome.per_layer = {
            **common.setup_layer_metrics(layers),
            "load.weight_ms": 1e3 * common.median(layers.durations("load.weight")),
            "service.feed_round_s": common.median(list(feed.values())),
            "service.ingest_batch_ms": 1e3 * common.median(
                layers.durations("service.ingest_batch")),
            "service.end_round_ms": 1e3 * common.median(layers.durations("service.end_round")),
            **{f"service.handler_ms.{name}": 1e3 * common.median(handler[name])
               for name in ENDPOINTS},
            "service.query_wait_ms": 1e3 * (common.mean(common.durations(_spans(last)))
                                            - common.mean(all_handler)),
            "client.lag_ms": lag_tail,
            "client.max_rps": max_rps,
            "cleaning.kept_ratio": kept / received if received else 0.0,
            "trace.overhead_pct": common.overhead_pct(
                queries, common.durations(_spans(last))),
        }
    outcome.meta = common.metadata(
        "serve_live", daemon.cold.scenario, opts.seed,
        blocks=daemon.cold.blocks,
        rate=RATE,
        samples=len(queries),
        p99_percentile=common.tail(queries)[0],
        p99_ms=latency["p99_ms"],
        setup=setup,
        peak_rss_mb=common.peak_rss_phases(setup_peak_mb, window_peak_mb),
        rounds=view.rounds_completed,
        ingest_round_samples=len(rates),
        client_lag_ms={"median": common.median(lags), "tail": lag_tail,
                       "tail_percentile": lag_percentile, "max": max(lags, default=0.0)},
        max_rps=max_rps,
        raw=raw_metrics,
        probe_median_ms=1e3 * common.median(probe.seconds),
        probes=len(probe.seconds),
    )
    return outcome
