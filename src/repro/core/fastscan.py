"""Vectorised scan engine.

Replays :meth:`Verfploeter.run_scan`'s semantics with numpy over all
blocks at once — bit-exact (same hash draws, same cleaning rules, same
RTTs), asserted by the equivalence tests — at 10-50x the speed.  This
is what lets the reproduction run paper-scale experiments: the paper's
96-round day over millions of blocks is a pure Python non-starter, but
perfectly tractable vectorised.

The engine precomputes everything round-invariant (permutation domain,
stable responders, base catchment sites, geography) once per routing
state into a :class:`RoundState` — a plain, picklable bundle of numpy
columns.  Precomputation itself is columnar: blocks join against the
internet's block table and the geo database's columnar snapshot with
``searchsorted``, and per-PoP routing facts are computed once per PoP
and broadcast, so no per-block Python loop runs at any point.

Round evaluation is a module-level pure function over a
:class:`RoundState` (:func:`evaluate_round`), so the same code path
serves both the in-process engine and the multiprocess shard workers
in :mod:`repro.core.sharding` — bit-identity between the two is by
construction, not by parallel maintenance of two implementations.
Every stochastic draw depends only on ``(seed, salt, block, round)``,
so a :meth:`RoundState.shard` slice evaluates to exactly the rows the
full state would.

For the same reason a round is *responder-first*: it takes each
per-round draw only on the rows whose result the draw can change, and
skipping a row never shifts another row's value (each draw finishes a
gathered per-block prefix, ``uniform_from_prefix_np(prefix[rows], r)``,
which equals the full draw at those rows).  The churn draw runs on
``stable`` rows; the flip draw on responders whose site can flip
(``alternate >= 0 & (participates | ~flipper)``); the duplicate-tail
draw on delivered duplicators.  The late draw and cleaning run on
delivered on-address rows, because an off-address reply counts as
unsolicited whatever its timing; of those, the jitter draw runs where
the path delay is used and the latency draw where it is not.  Only the
kept rows are returned (:class:`RoundArrays`).

A round never builds the probe schedule.  A row's send offset matters
only if it can change how many of the row's replies beat the late
cut-off, and that count never increases with the offset: every step
of the cleaning expression is a correctly rounded IEEE operation or a
``floor``, and each is monotone.  So cleaning is evaluated at the
first and the last slot's offset; a row that gets the same count at
both is settled, and only the remaining *open* rows are located in
the schedule through the inverse of the global Feistel permutation
(:func:`send_offsets`).  With the default rate and cut-off no row is
open.

Results are columnar end-to-end by default: each round returns an
:class:`~repro.anycast.catchment.ArrayCatchmentMap` over the engine's
shared block universe plus a :class:`BlockValueMap` of RTTs, so
consumers (diffs, load weighting, stability series) stay in numpy.
``columnar=False`` selects the dict-backed reference materialisation
the equivalence suite compares against.
"""
# reprolint: hot-path

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.anycast.catchment import ArrayCatchmentMap, CatchmentMap
from repro.bgp import instability as _instability
from repro.bgp.instability import FlipModelConfig
from repro.bgp.propagation import RoutingOutcome
from repro.collector.results import BlockValueMap
from repro.core.verfploeter import ScanResult, ScanStats, Verfploeter
from repro.errors import ConfigurationError
from repro.geo.distance import EARTH_RADIUS_KM
from repro.icmp import latency as _latency
from repro.obs import Observer
from repro.probing.order import round_order_seed
from repro.rng import hash_prefix_np, uniform_from_prefix_np, uniform_unit_np
from repro.topology import hosts as _hosts
from repro.topology.hosts import HostModelConfig

_ROUNDS = 4  # Feistel rounds; must match probing.order


class _VectorPermutation:
    """Vectorised inverse of :class:`repro.probing.order.PseudorandomOrder`.

    Maps hitlist indices to their schedule positions, which is all the
    engine ever needs: it asks for the positions of a few rows, never
    for the whole schedule.
    """

    def __init__(self, n: int, seed: int) -> None:
        self._n = n
        self._seed = seed
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1

    def _round_function(self, values: np.ndarray, round_index: int) -> np.ndarray:
        from repro.rng import mix64_np

        with np.errstate(over="ignore"):
            mixed = (
                np.uint64(self._seed)
                ^ (values * np.uint64(0x9E3779B1))
                ^ np.uint64(round_index << 48)
            )
        return mix64_np(mixed) & np.uint64(self._half_mask)

    def _feistel_inverse(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half_bits)
        right = values & np.uint64(self._half_mask)
        for round_index in reversed(range(_ROUNDS)):
            left, right = right ^ self._round_function(left, round_index), left
        return (left << np.uint64(self._half_bits)) | right

    def positions_of(self, indices: np.ndarray) -> np.ndarray:
        """Schedule positions of the given hitlist ``indices``.

        The inverse of the forward permutation without materialising
        the whole domain: decrypt, cycle-walking backwards while the
        value lands outside ``[0, n)``.  Because the forward walk only
        ever passes *through* out-of-range values, walking back stops at
        exactly the position the forward permutation started from.
        """
        values = indices.astype(np.uint64)
        if (values >= self._n).any():
            raise ConfigurationError("permutation input outside [0, n)")
        values = self._feistel_inverse(values)
        out_of_range = values >= self._n
        while out_of_range.any():
            values[out_of_range] = self._feistel_inverse(values[out_of_range])
            out_of_range = values >= self._n
        return values.astype(np.int64)


@dataclass
class RoundState:
    """Everything round-invariant about a scan, as picklable columns.

    One row per hitlist block.  A state is either the full universe
    (``row_start == 0``, ``rows == n_total``) or a contiguous shard of
    it produced by :meth:`shard`; every per-row value in a shard is a
    slice of the full state's value, never recomputed, so shard
    evaluation is bit-identical to evaluating the same rows in-process.
    """

    site_codes: List[str]
    blocks: np.ndarray  # uint64, strictly ascending
    base: np.ndarray  # int16 site index, -1 = unrouted
    alternate: np.ndarray  # int16 site index, -1 = none
    flipper: np.ndarray  # bool
    participates: np.ndarray  # bool
    stable: np.ndarray  # bool
    off_address: np.ndarray  # bool
    duplicator: np.ndarray  # bool
    prefixes: Dict[int, np.ndarray]  # salt -> uint64 per-block hash prefix
    site_rtt: np.ndarray  # (sites, rows) float64 milliseconds
    access: np.ndarray  # float64 milliseconds
    lat_ok: np.ndarray  # bool
    jitter_scale: float
    host_config: HostModelConfig
    flip_config: FlipModelConfig
    late_cutoff: float  # seconds
    rate_pps: float  # probes per second
    order_parent_seed: int
    n_total: int  # permutation domain (full universe size)
    row_start: int = 0  # first hitlist index covered by this state

    @property
    def interval(self) -> float:
        """Seconds between probes: the prober's ``1.0 / rate_pps``."""
        return 1.0 / self.rate_pps

    @property
    def duration_seconds(self) -> float:
        """Length of the whole round: the prober's ``n / rate_pps``."""
        return self.n_total / self.rate_pps

    @property
    def rows(self) -> int:
        """Number of blocks this state covers."""
        return int(self.blocks.size)

    def shard(self, start: int, stop: int) -> "RoundState":
        """The contiguous sub-state covering hitlist rows [start, stop)."""
        if not 0 <= start < stop <= self.rows:
            raise ConfigurationError(
                f"shard [{start}, {stop}) outside [0, {self.rows})"
            )
        return replace(
            self,
            blocks=self.blocks[start:stop],
            base=self.base[start:stop],
            alternate=self.alternate[start:stop],
            flipper=self.flipper[start:stop],
            participates=self.participates[start:stop],
            stable=self.stable[start:stop],
            off_address=self.off_address[start:stop],
            duplicator=self.duplicator[start:stop],
            prefixes={salt: arr[start:stop] for salt, arr in self.prefixes.items()},
            site_rtt=self.site_rtt[:, start:stop],
            access=self.access[start:stop],
            lat_ok=self.lat_ok[start:stop],
            row_start=self.row_start + start,
        )


@dataclass
class RoundArrays:
    """One evaluated round, before materialisation into a ScanResult.

    Kept rows only: a row that did not survive cleaning has no site or
    delay worth carrying, and every consumer (materialisation, the
    dict-backed reference path, the shard merge) reads kept rows alone.
    """

    rows: np.ndarray  # int64 ascending local row indices that survive cleaning
    site: np.ndarray  # int16 replying site index per kept row
    delay: np.ndarray  # float64 first-reply delay (ms) per kept row
    stats: ScanStats


def _draw(state: RoundState, salt: int, round_id: int, rows: np.ndarray) -> np.ndarray:
    """This round's uniform draw for ``rows`` only (prefixes gathered).

    A draw is a pure function of ``(seed, salt, block, round)``, so the
    value a row gets does not depend on which other rows are drawn.
    """
    return uniform_from_prefix_np(state.prefixes[salt][rows], round_id)


def send_offsets(
    state: RoundState, round_id: int, rows: np.ndarray
) -> np.ndarray:
    """Seconds after round start at which the given rows' probes are sent.

    ``rows`` are local row indices into ``state``.  The permutation
    always spans the *full* ``n_total`` domain — shard boundaries must
    not change anyone's schedule position — and each row's position is
    recovered through the inverse Feistel walk, then multiplied by the
    prober's float interval, so a full state and a shard agree bit for
    bit on every row they share.
    """
    if rows.size == 0:
        return np.empty(0, dtype=np.float64)
    seed = round_order_seed(state.order_parent_seed, round_id)
    perm = _VectorPermutation(state.n_total, seed)
    positions = perm.positions_of(rows + state.row_start)
    return positions.astype(np.float64) * state.interval


def _replies_within(
    state: RoundState,
    offsets: Union[float, np.ndarray],
    reply_delay: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """How many of each row's replies beat the late cut-off.

    ``offsets`` (a scalar or one per row) are send offsets in seconds,
    ``reply_delay`` the first reply's delay in seconds; duplicates trail
    the first reply by 0.1 ms.  Rows with ``counts == 0`` get 0.
    """
    first_rel = offsets + reply_delay
    dup_gap = 0.1 / 1000.0
    within = np.floor((state.late_cutoff - first_rel) / dup_gap) + 1
    within = np.clip(within, 0, counts).astype(np.int64)
    return np.where(first_rel <= state.late_cutoff, within, 0)


def _delivered(state: RoundState, round_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows whose probe reaches a site this round, and that site.

    Only a stable row can respond (churn draw); only a responder with
    an alternate site, in the flip population, can flip (flip draw).
    """
    flip = state.flip_config
    stable = np.flatnonzero(state.stable)
    churn = _draw(state, _hosts._CHURN_SALT, round_id, stable)
    responders = stable[churn >= state.host_config.churn_probability]

    site = state.base[responders]
    can_flip = np.flatnonzero(
        (state.alternate[responders] >= 0)
        & (state.participates[responders] | ~state.flipper[responders])
    )
    flip_rows = responders[can_flip]
    flip_draw = _draw(state, _instability._FLIP_SALT, round_id, flip_rows)
    flips = (
        state.participates[flip_rows] & (flip_draw < flip.flipper_flip_probability)
    ) | (~state.flipper[flip_rows] & (flip_draw < flip.background_flip_probability))
    site[can_flip[flips]] = state.alternate[flip_rows[flips]]
    routed = site >= 0
    return responders[routed], site[routed]


def _reply_counts(state: RoundState, round_id: int, rows: np.ndarray) -> np.ndarray:
    """Replies each delivered row sends: 1, or more for duplicators."""
    cfg = state.host_config
    counts = np.ones(rows.size, dtype=np.int64)
    dup = np.flatnonzero(state.duplicator[rows])
    tail = _draw(state, _hosts._DUPN_SALT, round_id, rows[dup])
    heavy = tail < cfg.heavy_duplicate_fraction
    counts[dup] = 2
    heaviness = tail[heavy] / cfg.heavy_duplicate_fraction
    counts[dup[heavy]] = 3 + ((cfg.max_duplicates - 3) * heaviness).astype(np.int64)
    return counts


def _first_reply_delay(
    state: RoundState, round_id: int, rows: np.ndarray, site: np.ndarray
) -> np.ndarray:
    """First-reply delay (ms) of delivered rows, mirroring the dataplane.

    A located, prompt host replies after the path delay (site RTT,
    access and jitter); any other host after its own host delay.  Each
    row takes only the draw its branch reads.
    """
    cfg = state.host_config
    late_replier = _draw(state, _hosts._LATE_SALT, round_id, rows) < cfg.late_fraction
    use_path = state.lat_ok[rows] & ~late_replier
    path = np.flatnonzero(use_path)
    host = np.flatnonzero(~use_path)
    delay = np.empty(rows.size, dtype=np.float64)

    path_rows = rows[path]
    jitter = state.jitter_scale * _draw(
        state, _latency._JITTER_SALT, round_id, path_rows
    )
    delay[path] = (
        state.site_rtt[site[path], path_rows] + state.access[path_rows] + jitter
    )

    latency_draw = _draw(state, _hosts._LATENCY_SALT, round_id, rows[host])
    delay[host] = np.where(
        late_replier[host],
        cfg.late_threshold_ms * (1.0 + 4.0 * latency_draw),
        10.0 + 390.0 * latency_draw,
    )
    return delay


def evaluate_round(state: RoundState, round_id: int) -> RoundArrays:
    """One measurement round over ``state`` (pure array passes).

    Module-level so process-pool workers can evaluate pickled shard
    states with the very code the in-process engine runs.

    Responder-first: each step runs only on the rows it can still
    change (see the module docstring).  Replies of off-address rows are
    counted as unsolicited whatever their timing, so delays and
    cleaning run on the on-address delivered rows alone.

    Cleaning needs a row's send offset only when the offset can change
    how many of its replies beat the cut-off.  Every step of
    :func:`_replies_within` is a correctly rounded IEEE operation or a
    ``floor``, so its result never increases with the offset.  A row
    that gets the same count at the first slot (offset ``0.0``) and at
    the last (``(n_total - 1) * interval``, the very float the schedule
    produces) therefore gets it at every slot in between.  Only the
    remaining *open* rows have their schedule positions computed.
    """
    delivered, delivered_site = _delivered(state, round_id)
    delivered_counts = _reply_counts(state, round_id, delivered)

    on_address = ~state.off_address[delivered]
    rows = delivered[on_address]
    site = delivered_site[on_address]
    counts = delivered_counts[on_address]
    delay = _first_reply_delay(state, round_id, rows, site)

    # Cleaning: how many of each block's replies beat the cut-off?
    reply_delay = delay / 1000.0
    last_offset = (state.n_total - 1) * state.interval
    within = _replies_within(state, last_offset, reply_delay, counts)
    first_slot = _replies_within(state, 0.0, reply_delay, counts)
    open_rows = np.flatnonzero(within != first_slot)
    within[open_rows] = _replies_within(
        state,
        send_offsets(state, round_id, rows[open_rows]),
        reply_delay[open_rows],
        counts[open_rows],
    )

    received = int(delivered_counts.sum())
    countable = int(counts.sum())
    keep = within >= 1
    stats = ScanStats(
        probes_sent=state.rows,
        replies_received=received,
        wrong_round=0,
        unsolicited=received - countable,
        late=countable - int(within.sum()),
        duplicates=int((within[keep] - 1).sum()),
        kept=int(keep.sum()),
    )
    return RoundArrays(
        rows=rows[keep], site=site[keep], delay=delay[keep], stats=stats
    )


def materialise_columnar(
    state: RoundState,
    arrays: RoundArrays,
    round_id: int,
    start_time: float,
    dataset_id: str,
) -> ScanResult:
    """Columnar ScanResult over ``state``'s block universe.

    ``state.blocks`` becomes the shared universe array of every round
    materialised from the same state, so same-universe diffs stay pure
    array compares and pickling a list of rounds serialises the
    universe once (pickle memoises the shared ndarray).
    """
    sites = np.full(state.rows, -1, dtype=np.int16)
    sites[arrays.rows] = arrays.site
    catchment = ArrayCatchmentMap(
        state.site_codes, state.blocks, sites, validate=False
    )
    rtts = BlockValueMap(state.blocks[arrays.rows].astype(np.int64), arrays.delay)
    return ScanResult(
        dataset_id=dataset_id,
        round_id=round_id,
        start_time=start_time,
        duration_seconds=state.duration_seconds,
        catchment=catchment,
        stats=arrays.stats,
        rtts=rtts,
    )


class FastScanEngine:
    """Vectorised equivalent of repeated ``Verfploeter.run_scan`` calls."""

    def __init__(
        self,
        verfploeter: Verfploeter,
        routing: Optional[RoutingOutcome] = None,
        columnar: bool = True,
        observer: Optional[Observer] = None,
    ) -> None:
        self.verfploeter = verfploeter
        self.observer = (
            observer if observer is not None else verfploeter.observer
        )
        self.routing = routing if routing is not None else verfploeter.routing_for()
        self.columnar = columnar
        self._prober = verfploeter._prober
        with self.observer.tracer.span(
            "fastscan.precompute", columnar=columnar
        ) as span:
            with self.observer.profile("fastscan.precompute"):
                self.state = self._precompute(verfploeter)
            span.set(blocks=self.state.rows, sites=len(self.state.site_codes))
        self._external: Dict[str, str] = {}

    def externalize(self, store) -> str:
        """Persist this engine's round state through ``store``; returns
        the content fingerprint workers attach by.

        Cached per store root, so a pool running several series over one
        engine fingerprints and persists at most once.
        """
        from repro.core.tables import persist_round_state

        cached = self._external.get(store.root)
        if cached is not None:
            return cached
        with self.observer.tracer.span("fastscan.externalize") as span:
            fingerprint = persist_round_state(store, self.state)
            span.set(fingerprint=fingerprint, blocks=self.state.rows)
        self._external[store.root] = fingerprint
        return fingerprint

    def _precompute(self, verfploeter: Verfploeter) -> RoundState:
        """Build every round-invariant array (one pass per routing state)."""
        internet = verfploeter.internet
        seed = internet.seed
        host_config = internet.host_model.config
        flip_config = self.routing.flip_model.config

        hitlist = verfploeter.hitlist
        n = len(hitlist)
        blocks = hitlist.block_array
        site_codes = list(self.routing.policy.site_codes)
        site_index = {code: i for i, code in enumerate(site_codes)}

        # --- per-block round-invariant state (bulk joins, no block loop) --
        # Routing facts vary per PoP, not per block: compute site / alternate /
        # flipper once per PoP (and per AS behind it), then broadcast over the
        # hitlist through the internet's columnar block table.
        pop_count = len(internet.pops)
        pop_base = np.full(pop_count, -1, dtype=np.int16)
        pop_alternate = np.full(pop_count, -1, dtype=np.int16)
        pop_flipper = np.zeros(pop_count, dtype=bool)
        for pop in internet.pops:
            site = self.routing.site_of_pop(pop)
            if site is None:
                continue
            pop_base[pop.pop_id] = site_index[site]
            pop_flipper[pop.pop_id] = internet.ases[pop.asn].flipper
            alternate = self.routing.selections[pop.asn].alternate_site
            if alternate is not None and alternate != site and alternate in site_index:
                pop_alternate[pop.pop_id] = site_index[alternate]

        table_blocks, _, table_pops = internet.block_table()
        signed_blocks = blocks.astype(np.int64)
        rows = np.searchsorted(table_blocks, signed_blocks)
        rows = np.minimum(rows, max(table_blocks.size - 1, 0))
        populated = (table_blocks.size > 0) & (table_blocks[rows] == signed_blocks)
        block_pops = np.where(populated, table_pops[rows], 0)
        base = np.where(populated, pop_base[block_pops], np.int16(-1)).astype(np.int16)
        has_site = base >= 0
        alternate = np.where(
            has_site, pop_alternate[block_pops], np.int16(-1)
        ).astype(np.int16)
        flipper = has_site & pop_flipper[block_pops]

        # Geography joins against the geo database's columnar snapshot;
        # responsiveness thresholds are per country, broadcast to blocks.
        model = internet.host_model
        columns = internet.geodb.columnar()
        geo_rows, located = internet.geodb.join(signed_blocks)
        lat = np.where(located, columns.latitudes[geo_rows], np.nan)
        lon = np.where(located, columns.longitudes[geo_rows], np.nan)
        country_thresholds = np.array(
            [model.responsiveness_for(code) for code in columns.countries],
            dtype=np.float64,
        )
        base_threshold = model.responsiveness_for(None)
        if columns.countries:
            threshold = np.where(
                located,
                country_thresholds[columns.country_index[geo_rows]],
                base_threshold,
            )
        else:
            threshold = np.full(n, base_threshold, dtype=np.float64)

        # --- round-invariant stochastic masks ----------------------------
        cfg = host_config
        stable = uniform_unit_np(seed, _hosts._STABLE_SALT, blocks) < threshold
        off_address = (
            uniform_unit_np(seed, _hosts._OFFADDR_SALT, blocks)
            < cfg.off_address_fraction
        )
        duplicator = (
            uniform_unit_np(seed, _hosts._DUP_SALT, blocks)
            < cfg.duplicate_fraction
        )
        participates = flipper & (
            uniform_unit_np(seed, _instability._PARTICIPATE_SALT, blocks)
            < flip_config.flipper_block_fraction
        )

        # Per-round draws share a round-invariant hash prefix over
        # (seed, salt, blocks); each round then needs only one array
        # mix pass to absorb the round id.
        prefixes = {
            salt: hash_prefix_np(seed, salt, blocks)
            for salt in (
                _hosts._CHURN_SALT,
                _hosts._DUPN_SALT,
                _hosts._LATENCY_SALT,
                _hosts._LATE_SALT,
                _instability._FLIP_SALT,
                _latency._JITTER_SALT,
            )
        }

        # --- latency precomputation ---------------------------------------
        lm = verfploeter.latency_model
        lat_ok = ~np.isnan(lat)
        site_rtt = np.full((len(site_codes), n), np.nan)
        lat_rad = np.radians(lat)
        lon_rad = np.radians(lon)
        for index, code in enumerate(site_codes):
            site = verfploeter.service.site(code)
            site_lat = np.radians(site.latitude)
            site_lon = np.radians(site.longitude)
            half_dlat = (site_lat - lat_rad) / 2.0
            half_dlon = (site_lon - lon_rad) / 2.0
            a = (
                np.sin(half_dlat) ** 2
                + np.cos(lat_rad) * np.cos(site_lat) * np.sin(half_dlon) ** 2
            )
            distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0, 1)))
            site_rtt[index] = 2.0 * lm._stretch * distance / _latency.KM_PER_MS
        access_draw = uniform_unit_np(seed, _latency._ACCESS_SALT, blocks)
        low, high = lm._access_range
        access = low + (high - low) * access_draw * access_draw

        return RoundState(
            site_codes=site_codes,
            blocks=blocks,
            base=base,
            alternate=alternate,
            flipper=flipper,
            participates=participates,
            stable=stable,
            off_address=off_address,
            duplicator=duplicator,
            prefixes=prefixes,
            site_rtt=site_rtt,
            access=access,
            lat_ok=lat_ok,
            jitter_scale=lm._jitter,
            host_config=host_config,
            flip_config=flip_config,
            late_cutoff=verfploeter.cleaning.late_cutoff_seconds,
            rate_pps=float(verfploeter.prober_config.rate_pps),
            order_parent_seed=verfploeter._prober._seed,
            n_total=n,
        )

    # -- per-round evaluation ---------------------------------------------

    def run_scan(
        self,
        round_id: int = 0,
        start_time: float = 0.0,
        dataset_id: Optional[str] = None,
    ) -> ScanResult:
        """One vectorised measurement round (equals ``Verfploeter.run_scan``)."""
        with self.observer.tracer.span(
            "fastscan.round", round_id=round_id
        ) as span:
            with self.observer.profile("fastscan.round"):
                result = self._evaluate_round(round_id, start_time, dataset_id)
            span.set(
                probes_sent=result.stats.probes_sent,
                replies_received=result.stats.replies_received,
                kept=result.stats.kept,
            )
        metrics = self.observer.metrics
        metrics.counter("probe.probes_sent").inc(result.stats.probes_sent)
        metrics.counter("collector.replies_received").inc(
            result.stats.replies_received
        )
        metrics.counter("cleaning.kept").inc(result.stats.kept)
        metrics.counter("cleaning.dropped", rule="unsolicited").inc(
            result.stats.unsolicited
        )
        metrics.counter("cleaning.dropped", rule="late").inc(result.stats.late)
        metrics.counter("cleaning.dropped", rule="duplicate").inc(
            result.stats.duplicates
        )
        if self.observer.enabled:
            for code, fraction in sorted(result.catchment.fractions().items()):
                metrics.gauge("catchment.fraction", site=code).set(fraction)
        return result

    def _evaluate_round(
        self,
        round_id: int,
        start_time: float,
        dataset_id: Optional[str],
    ) -> ScanResult:
        """Evaluate one round and materialise it (columnar or reference)."""
        state = self.state
        arrays = evaluate_round(state, round_id)
        label = dataset_id or f"fast-r{round_id}"
        if self.columnar:
            return materialise_columnar(state, arrays, round_id, start_time, label)

        # Dict-backed reference materialisation (equivalence baseline).
        mapping: Dict[int, str] = {}
        rtt_dict: Dict[int, float] = {}
        kept_blocks = state.blocks[arrays.rows].astype(np.int64)
        for block, site_idx, block_delay in zip(kept_blocks, arrays.site, arrays.delay):
            mapping[int(block)] = state.site_codes[site_idx]  # reprolint: disable=D110 — reference path
            rtt_dict[int(block)] = float(block_delay)  # reprolint: disable=D110 — reference path
        catchment: CatchmentMap = CatchmentMap(state.site_codes, mapping)
        return ScanResult(
            dataset_id=label,
            round_id=round_id,
            start_time=start_time,
            duration_seconds=state.duration_seconds,
            catchment=catchment,
            stats=arrays.stats,
            rtts=rtt_dict,
        )

    def run_series(
        self,
        rounds: int,
        interval_seconds: float = 900.0,
        dataset_prefix: str = "fast-series",
    ) -> List[ScanResult]:
        """A stability series, vectorised round by round.

        Results keep round order.  For process-level fan-out sharded
        over the block universe, see
        :func:`repro.core.sharding.run_sharded_series`.
        """
        with self.observer.tracer.span("fastscan.series", rounds=rounds):
            return [
                self.run_scan(
                    round_id=round_id,
                    start_time=round_id * interval_seconds,
                    dataset_id=f"{dataset_prefix}-r{round_id:03d}",
                )
                for round_id in range(rounds)
            ]
