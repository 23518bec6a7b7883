"""``scan_series``: a closed loop of back-to-back measurement rounds.

After a cold start at ``large`` scale, one caller runs rounds back to
back.  Each round is ``FastScanEngine.run_scan`` followed by an hourly
``weight_catchment`` join against the day's load; results are checked
and dropped as they go, so memory stays flat.  BGP runs once, in set-up.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import common
from repro.anycast.catchment import ArrayCatchmentMap
from repro.collector.results import BlockValueMap
from repro.core import fastscan
from repro.core.sharding import assert_scan_results_identical
from repro.errors import EquivalenceError
from repro.load.weighting import UNKNOWN, weight_catchment

SCALE = "large"
SETUPS = 3
#: Rounds are spaced like the paper's series: one every 15 minutes.
INTERVAL_S = 900.0
#: Relative tolerance of the load-conservation check (float sums run in
#: another order than ``LoadEstimate.total``).
LOAD_RTOL = 1e-9
#: The two paths derive RTTs and round durations by different float
#: expressions (packet-level RTTs subtract absolute timestamps; its
#: duration is ``n / rate`` where the engine's is ``n * (1 / rate)``), so
#: those agree to this many float spacings, not bit for bit.
FLOAT_SPACINGS = 4

LAYERS = (
    "scenarios.build_s",
    "traffic.day_load_s",
    "probing.hitlist_s",
    "bgp.routes_s",
    "fastscan.precompute_s",
    "fastscan.send_offsets_ms",
    "fastscan.evaluate_ms",
    "fastscan.materialise_ms",
    "load.weight_ms",
    "cleaning.kept_ratio",
    "trace.overhead_pct",
)


def _close(actual: np.ndarray, expected: np.ndarray, scale: float) -> bool:
    """Equal to :data:`FLOAT_SPACINGS` float spacings at ``scale``."""
    atol = FLOAT_SPACINGS * float(np.spacing(scale))
    return np.allclose(actual, expected, rtol=0.0, atol=atol)


def _columnar_twin(scalar, fast, notes):
    """The packet-level result re-expressed over the engine's universe.

    Catchment, stats and ids must match bit for bit.  RTTs and the round
    duration need only be close (:data:`FLOAT_SPACINGS`); when they are,
    the twin borrows the engine's values, so the bit-level comparison
    covers everything else, and any last-bit difference goes to ``notes``.
    """
    universe = fast.catchment.universe
    codes = list(fast.catchment.site_codes)
    index = {code: i for i, code in enumerate(codes)}
    mapped = np.array(sorted(scalar.catchment.blocks()), dtype=np.uint64)
    rows = np.searchsorted(universe, mapped)
    if mapped.size and (
        rows.max() >= universe.size or not np.array_equal(universe[rows], mapped)
    ):
        raise EquivalenceError("packet-level scan mapped a block outside the hitlist")
    sites = np.full(universe.size, -1, dtype=np.int16)
    sites[rows] = [index[scalar.catchment.site_of(int(b))] for b in mapped]
    twin = dataclasses.replace(
        scalar, catchment=ArrayCatchmentMap(codes, universe, sites, validate=False)
    )

    rtt_blocks = np.array(sorted(scalar.rtts), dtype=np.int64)
    rtt_values = np.array([scalar.rtts[int(b)] for b in rtt_blocks], dtype=np.float64)
    twin = dataclasses.replace(twin, rtts=BlockValueMap(rtt_blocks, rtt_values))
    # RTTs are in ms from timestamps in seconds since the series began.
    if np.array_equal(rtt_blocks, fast.rtts.block_array()) and _close(
        rtt_values, fast.rtts.value_array(), 1e3 * (scalar.start_time + 1e3)
    ):
        if not np.array_equal(rtt_values, fast.rtts.value_array()):
            notes.append("rtts differ in the last bits")
        twin = dataclasses.replace(twin, rtts=fast.rtts)
    if scalar.duration_seconds != fast.duration_seconds and _close(
        np.array(scalar.duration_seconds), np.array(fast.duration_seconds),
        scalar.duration_seconds,
    ):
        notes.append(f"duration_seconds {scalar.duration_seconds!r} != "
                     f"{fast.duration_seconds!r} in the last bits")
        twin = dataclasses.replace(twin, duration_seconds=fast.duration_seconds)
    return twin


def spot_check(cold, engine, round_id: int, notes) -> str:
    """One untimed round against packet-level ``Verfploeter.run_scan``;
    returns a problem description, or ``""`` when they agree."""
    label = f"bench-spot-r{round_id}"
    start_time = round_id * INTERVAL_S
    scalar = cold.verfploeter.run_scan(
        routing=cold.routing, round_id=round_id, start_time=start_time,
        dataset_id=label, wire_level=False,
    )
    fast = engine.run_scan(round_id=round_id, start_time=start_time, dataset_id=label)
    try:
        assert_scan_results_identical(fast, _columnar_twin(scalar, fast, notes))
    except EquivalenceError as err:
        return f"round {round_id} differs from the packet-level scan: {err}"
    return ""


def check_round(result, load, blocks: int, day_total: float) -> str:
    """Stats conservation and load conservation for one round."""
    stats = result.stats
    dropped = stats.wrong_round + stats.unsolicited + stats.late + stats.duplicates
    if stats.replies_received != dropped + stats.kept:
        return f"round {result.round_id}: replies not conserved ({stats})"
    if stats.probes_sent != blocks or stats.kept != len(result.catchment):
        return f"round {result.round_id}: probes/kept do not match the catchment"
    codes = (*load.site_codes, UNKNOWN)
    daily = sum(load.daily_of(code) for code in codes)
    hourly = sum(float(load.hourly_of(code).sum()) for code in codes)
    for name, total in (("daily", daily), ("hourly", hourly)):
        if abs(total - day_total) > LOAD_RTOL * day_total:
            return (f"round {result.round_id}: {name} site loads + UNK sum to "
                    f"{total!r}, not the day total {day_total!r}")
    return ""


def run(opts, layers: common.Layers, scale: str) -> common.Outcome:
    """Set up, run rounds for ``opts.seconds``, then spot-check one."""
    outcome = common.Outcome()

    def build():
        cold = common.ColdStart(scale, opts.seed, layers)
        with layers.span("fastscan.precompute"):
            engine = fastscan.FastScanEngine(cold.verfploeter, cold.routing)
        return cold, engine

    probe = common.SpeedProbe()
    (cold, engine), setup = common.repeat_setup(SETUPS, build, lambda _: None)
    blocks = cold.blocks
    day_total = cold.estimate.total()
    setup_peak_mb = common.peak_rss_mb()

    layers.install(fastscan, "send_offsets", "fastscan.send_offsets")
    layers.install(fastscan, "evaluate_round", "fastscan.evaluate_round")
    layers.install(fastscan, "materialise_columnar", "fastscan.materialise_columnar")
    kept = [0, 0]
    next_round = [0]

    def step():
        round_id = next_round[0]
        next_round[0] += 1
        start = time.perf_counter()
        try:
            result = engine.run_scan(
                round_id=round_id, start_time=round_id * INTERVAL_S,
                dataset_id=f"bench-r{round_id}",
            )
            with layers.span("load.weight"):
                load = weight_catchment(result.catchment, cold.estimate, hourly=True)
            end = time.perf_counter()
            problem = check_round(result, load, blocks, day_total)
        except Exception as err:  # a raising round is a failed operation
            end = time.perf_counter()
            problem = f"round {round_id} raised {err!r}"
        else:
            kept[0] += result.stats.kept
            kept[1] += result.stats.replies_received
        outcome.record(not problem, problem)
        return start, end

    try:
        untraced, traced = common.closed_loop(opts.seconds, layers, step, probe)
    finally:
        layers.uninstall()
    # The gated peak is read before the packet-level spot check, which
    # the series never runs.
    window_peak_mb = common.peak_rss_mb()
    notes = []
    problem = spot_check(cold, engine, opts.seed % 96, notes)
    outcome.record(not problem, problem)

    rounds = probe.normalise(untraced)
    latency = common.latency_metrics(rounds)
    outcome.end_to_end = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": window_peak_mb,
        "op_p50_ms": latency["p50_ms"],
        "op_tail_ms": latency["tail_ms"],
        "work_per_s": len(rounds) / sum(rounds),
    }
    raw = common.durations(untraced)
    raw_metrics = {**common.latency_metrics(raw), "work_per_s": len(raw) / sum(raw)}
    if layers.enabled:
        outcome.per_layer = {
            **common.setup_layer_metrics(layers),
            "fastscan.precompute_s": common.median(layers.durations("fastscan.precompute")),
            "fastscan.send_offsets_ms": 1e3 * common.median(
                layers.durations("fastscan.send_offsets")),
            "fastscan.evaluate_ms": 1e3 * common.median(
                layers.self_times("fastscan.evaluate_round")),
            "fastscan.materialise_ms": 1e3 * common.median(
                layers.durations("fastscan.materialise_columnar")),
            "load.weight_ms": 1e3 * common.median(layers.durations("load.weight")),
            "cleaning.kept_ratio": kept[0] / kept[1] if kept[1] else 0.0,
            "trace.overhead_pct": common.overhead_pct(
                rounds, probe.normalise(traced)),
        }
    outcome.meta = common.metadata(
        "scan_series", cold.scenario, opts.seed,
        blocks=blocks,
        rounds=len(untraced) + len(traced),
        samples=len(rounds),
        p99_percentile=common.tail(rounds)[0],
        p99_ms=latency["p99_ms"],
        setup=setup,
        peak_rss_mb=common.peak_rss_phases(setup_peak_mb, window_peak_mb),
        raw=raw_metrics,
        probe_median_ms=1e3 * common.median(probe.seconds),
        spot_check_round=opts.seed % 96,
        spot_check_notes=notes,
    )
    return outcome
