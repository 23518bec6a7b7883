"""``ddos_playbook``: playbook searches under a volumetric attack.

After a cold start at ``medium`` scale, the baseline catchment and load
pick the busiest site, a volumetric attack
(``traffic.attack.compose_attack``) hits it, and capacities come from
the normal day.  The run then repeats cold searches of the depth-2
lattice, each with a fresh ``PlaybookPlanner`` and ``RoutingCache``,
and fills the rest of its window with warm replans on one planner.
Cold artifacts must be byte-identical across repeats, and every warm
artifact must equal the cold one.
"""

from __future__ import annotations

import gc
import time

import common
from repro.bgp.cache import RoutingCache
from repro.core import fastscan, playbook
from repro.core.playbook import PlaybookPlanner, derive_capacities
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import weight_catchment
from repro.traffic.attack import AttackProfile, compose_attack

SCALE = "medium"
SETUPS = 3
DEPTH = 2
MAX_PREPEND = 3
#: Cold searches per run: two, so their artifacts can be compared;
#: warm replans fill the rest of the window.
COLD_PLANS = 2

LAYERS = (
    "scenarios.build_s",
    "traffic.day_load_s",
    "probing.hitlist_s",
    "bgp.routes_s",
    "fastscan.precompute_s",
    "traffic.compose_attack_s",
    "load.weight_ms",
    "bgp.candidate_routes_ms",
    "bgp.cache_hit_ratio",
    "fastscan.candidate_precompute_ms",
    "fastscan.candidate_round_ms",
    "playbook.candidates",
    "playbook.memo_hit_ratio",
    "trace.overhead_pct",
)


class _Attack:
    """Set-up state: cold start, attack day, capacities, attacked site."""

    def __init__(self, scale: str, seed: int, layers: common.Layers) -> None:
        self.cold = common.ColdStart(scale, seed, layers)
        verfploeter = self.cold.verfploeter
        with layers.span("fastscan.precompute"):
            engine = fastscan.FastScanEngine(verfploeter, self.cold.routing)
        baseline = engine.run_scan(round_id=0).catchment
        baseline_load = weight_catchment(baseline, self.cold.estimate)
        service = verfploeter.service
        self.site = max(service.site_codes, key=lambda code: (baseline_load.daily_of(code), code))
        self.profile = AttackProfile(target_site=self.site)
        with layers.span("traffic.compose_attack"):
            attack_day, self.attackers = compose_attack(
                self.cold.day, baseline, self.profile, verfploeter.internet.seed
            )
        self.estimate = LoadEstimate(attack_day)
        self.capacities = derive_capacities(baseline_load, service.site_codes)

    def planner(self) -> PlaybookPlanner:
        """A fresh planner: new deployment object, new routing cache."""
        cold = self.cold
        verfploeter = Verfploeter(
            cold.scenario.internet, cold.scenario.service,
            hitlist=cold.verfploeter.hitlist,
        )
        return PlaybookPlanner(verfploeter, cache=RoutingCache(maxsize=256))

    def plan(self, planner: PlaybookPlanner):
        """One search of the lattice around the attacked site."""
        return planner.plan(
            self.estimate, self.site, self.capacities,
            max_prepend=MAX_PREPEND, depth=DEPTH,
            attack=self.profile, attacker_count=len(self.attackers),
        )


def _traced_engine(layers: common.Layers, built: list) -> type:
    """``FastScanEngine`` with its construction (the candidate's
    precompute) and its rounds spanned; counts constructions in ``built``."""

    class TracedEngine(fastscan.FastScanEngine):
        def __init__(self, *args, **kwargs) -> None:
            built[0] += 1
            with layers.span("fastscan.candidate_precompute"):
                super().__init__(*args, **kwargs)

        def run_scan(self, *args, **kwargs):
            with layers.span("fastscan.candidate_round"):
                return super().run_scan(*args, **kwargs)

    return TracedEngine


def _between(start: float, end: float, marks) -> list:
    """The (start, end) pieces of ``[start, end]`` outside ``marks``."""
    edges = [start, *[t for mark in marks for t in mark], end]
    return list(zip(edges[0::2], edges[1::2]))


def _sum_per_plan(layers: common.Layers, name: str) -> float:
    """Median over traced cold plans of the seconds spent in ``name``."""
    totals = []
    for plan_span in layers.spans("playbook.cold_plan"):
        totals.append(sum(s.duration for s in plan_span.walk() if s.name == name))
    return common.median(totals)


def run(opts, layers: common.Layers, scale: str) -> common.Outcome:
    """Set up, then cold searches and warm replans for ``opts.seconds``."""
    outcome = common.Outcome()
    probe = common.SpeedProbe()
    attack, setup = common.repeat_setup(
        SETUPS, lambda: _Attack(scale, opts.seed, layers), lambda _: None
    )
    setup_peak_mb = common.peak_rss_mb()

    built = [0]
    if layers.enabled:
        layers.replace(fastscan, "FastScanEngine", _traced_engine(layers, built))
        layers.install(playbook, "weight_catchment", "load.weight")

    colds = []
    hit_ratios = []
    reference = reference_artifact = None
    planner = None
    window_start = time.perf_counter()
    try:
        while len(colds) < COLD_PLANS:
            # Each cold plan starts from a collected heap, so the peak
            # RSS does not depend on when the collector last ran.
            planner = None
            gc.collect()
            planner = attack.planner()
            layers.install(planner.cache, "get_or_compute", "bgp.candidate_routes")
            routes = planner.cache.get_or_compute
            marks = []

            def probed_routes(*args, **kwargs):
                began = time.perf_counter()
                probe()
                marks.append((began, time.perf_counter()))
                return routes(*args, **kwargs)

            # A probe per routing lookup (one per candidate), cut out of
            # the plan's time; the planner is discarded after its plan
            # except the last, whose warm replans must not probe.
            planner.cache.get_or_compute = probed_routes
            start = time.perf_counter()
            with layers.span("playbook.cold_plan"):
                plan = attack.plan(planner)
            colds.append(_between(start, time.perf_counter(), marks))
            # Drop the hook: a cache holding its own bound method is a
            # reference cycle, which would keep this planner's routing
            # states alive into the next plan until a full collection.
            if layers.enabled:
                planner.cache.get_or_compute = routes
            else:
                del planner.cache.get_or_compute
            artifact = plan.to_json()
            if reference is None:
                reference, reference_artifact = artifact, plan.to_artifact()
            hit_ratios.append(planner.cache.stats.hit_ratio)
            outcome.record(artifact == reference,
                           f"cold plan {len(colds)} differs from the first")

        warm_plans = [0]
        warm_built = built[0]

        def warm():
            start = time.perf_counter()
            plan = attack.plan(planner)
            end = time.perf_counter()
            warm_plans[0] += 1
            # The artifact renders canonically, so equal dicts are equal bytes.
            outcome.record(plan.to_artifact() == reference_artifact,
                           "warm plan differs from the cold plan")
            return start, end

        remaining = max(opts.seconds - (time.perf_counter() - window_start), 0.0)
        untraced, traced = common.closed_loop(remaining, layers, warm, probe)
    finally:
        layers.uninstall()
    window_peak_mb = common.peak_rss_mb()

    configs = len(playbook.enumerate_lattice(
        attack.cold.verfploeter.service, attack.site,
        max_prepend=MAX_PREPEND, depth=DEPTH,
    ))
    warms = probe.normalise(untraced)
    latency = common.latency_metrics(warms)
    outcome.end_to_end = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": window_peak_mb,
        "op_p50_ms": latency["p50_ms"],
        "op_tail_ms": latency["tail_ms"],
        "work_per_s": configs / common.median([sum(probe.normalise(c)) for c in colds]),
    }
    cold_raw = [sum(common.durations(c)) for c in colds]
    raw_metrics = {
        **common.latency_metrics(common.durations(untraced)),
        "work_per_s": configs / common.median(cold_raw),
    }
    if layers.enabled:
        # Every memo miss constructs one engine; every candidate is a lookup.
        misses = built[0] - warm_built
        lookups = warm_plans[0] * configs
        outcome.per_layer = {
            **common.setup_layer_metrics(layers),
            "fastscan.precompute_s": common.median(layers.durations("fastscan.precompute")),
            "traffic.compose_attack_s": common.median(
                layers.durations("traffic.compose_attack")),
            "load.weight_ms": 1e3 * common.median(layers.durations("load.weight")),
            "bgp.candidate_routes_ms": 1e3 * _sum_per_plan(layers, "bgp.candidate_routes"),
            "bgp.cache_hit_ratio": common.median(hit_ratios),
            "fastscan.candidate_precompute_ms": 1e3 * _sum_per_plan(
                layers, "fastscan.candidate_precompute"),
            "fastscan.candidate_round_ms": 1e3 * _sum_per_plan(
                layers, "fastscan.candidate_round"),
            "playbook.candidates": float(configs),
            "playbook.memo_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
            "trace.overhead_pct": common.overhead_pct(warms, probe.normalise(traced)),
        }
    outcome.meta = common.metadata(
        "ddos_playbook", attack.cold.scenario, opts.seed,
        blocks=attack.cold.blocks,
        attacked_site=attack.site,
        attacker_blocks=len(attack.attackers),
        configs=configs,
        cold_plans=len(colds),
        cold_plan_s=[round(s, 4) for s in cold_raw],
        warm_samples=len(warms),
        p99_percentile=common.tail(warms)[0],
        p99_ms=latency["p99_ms"],
        setup=setup,
        peak_rss_mb=common.peak_rss_phases(setup_peak_mb, window_peak_mb),
        raw=raw_metrics,
        probe_median_ms=1e3 * common.median(probe.seconds),
    )
    return outcome
