"""Shared pieces of the repo benchmark: layer spans, statistics, metadata.

Layer timings come from spans the benchmark records around calls into
each module's public functions (``repro.obs.Tracer`` on
``time.perf_counter``); nothing inside ``src/`` is edited.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import platform
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import kernels
from repro.obs import NULL_SPAN, Tracer, run_metadata

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: The gated tail is the mean of the samples between these percentiles:
#: the upper half of the distribution, without its top 1%.  p99 alone
#: moved by 20-30% between runs on a shared 2-core host, more than any
#: bound the benchmark may set, and query latencies come in 5 ms
#: interpreter-lock quanta, so any single percentile near the tail jumps
#: a whole quantum when a few percent of requests move between modes.
#: The mean of a narrower p85-p99 band (about 35 of the ~250 queries of
#: a ``serve_live`` run) still moved by 10-22% across ten runs; the upper
#: half's mean takes about 125 and moves about half as much, and leaving
#: out the top 1% keeps one stall from dominating it.  p99 is still
#: reported in each run's metadata.
TAIL_BAND = (50.0, 99.0)


class Layers:
    """Benchmark-side per-layer spans (a no-op when tracing is off).

    ``active`` gates every span and every installed wrapper, so a traced
    run can time the same operation with and without spans and report
    the difference as the tracing overhead.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.active = enabled
        self.tracer = Tracer(clock=time.perf_counter) if enabled else None
        self._restore: List[Tuple[object, str, object, bool]] = []

    def span(self, name: str, **attributes: object):
        """A span named ``name`` while tracing is active, else a no-op."""
        if self.tracer is None or not self.active:
            return NULL_SPAN
        return self.tracer.span(name, **attributes)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed under a span named ``name`` while active."""
        layers = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with layers.span(name):
                return fn(*args, **kwargs)

        return traced

    def replace(self, owner: object, attribute: str, value: object) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`uninstall`;
        ``owner`` is a module, class or instance."""
        own = attribute in getattr(owner, "__dict__", {})
        self._restore.append((owner, attribute, getattr(owner, attribute), own))
        setattr(owner, attribute, value)

    def install(self, owner: object, attribute: str, name: str) -> None:
        """When tracing, replace ``owner.attribute`` by its traced wrapper
        until :meth:`uninstall`."""
        if self.enabled:
            self.replace(owner, attribute, self.wrap(getattr(owner, attribute), name))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._restore:
            owner, attribute, original, own = self._restore.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def spans(self, name: str) -> List:
        """Every recorded span named ``name``, in record order."""
        if self.tracer is None:
            return []
        return [
            span
            for root in self.tracer.roots
            for span in root.walk()
            if span.name == name
        ]

    def durations(self, name: str) -> List[float]:
        """Seconds spent in each span named ``name``."""
        return [span.duration for span in self.spans(name)]

    def self_times(self, name: str) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        return [
            span.duration - sum(child.duration for child in span.children)
            for span in self.spans(name)
        ]

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Write the recorded spans as one trace document."""
        if self.tracer is None:
            return
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.tracer.to_json(meta=meta))
            handle.write("\n")


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for no values."""
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """The mean, or 0.0 for no values."""
    return float(statistics.fmean(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: p99, or the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it when the sample is too
    small for p99 (never below the median)."""
    count = len(values)
    if count == 0:
        return 50.0, 0.0
    percentile = max(50.0, min(99.0, float(int(100.0 * (1.0 - TAIL_BEYOND / count)))))
    return percentile, float(np.percentile(np.asarray(values), percentile))


def tail_mean(values: Sequence[float]) -> float:
    """Mean of the samples in the :data:`TAIL_BAND` percentile band."""
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values))
    low = int(len(ordered) * TAIL_BAND[0] / 100.0)
    high = max(low + 1, int(np.ceil(len(ordered) * TAIL_BAND[1] / 100.0)))
    return float(ordered[low:high].mean())


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_phases(setup_mb: float, window_mb: float) -> Dict[str, object]:
    """Where the peak RSS was set, for the run's metadata.

    ``setup_mb`` and ``window_mb`` are :func:`peak_rss_mb` read after
    set-up and after the measured window (the gated value, read before
    any output check runs); ``checks`` is the peak now, after the checks.
    """
    return {
        "setup": setup_mb,
        "window": window_mb,
        "checks": peak_rss_mb(),
        "set_by": "setup" if window_mb == setup_mb else "window",
    }


def repeat_setup(count: int, build: Callable[[], object],
                 release: Callable[[object], None]) -> Tuple[object, Dict[str, object]]:
    """Run the cold start ``count`` times; keep the last, release the rest.

    Returns ``(last setup, summary)``: the median set-up time
    speed-normalised by ``"loop"`` probes taken just before and after
    each set-up (``setup_s``), the raw median (``raw_setup_s``) and each
    raw time.  Garbage from a released set-up is collected before the
    next one starts.
    """
    probe = SpeedProbe("loop")
    spans: List[Tuple[float, float]] = []
    last = None
    for _ in range(count):
        if last is not None:
            release(last)
            last = None
            gc.collect()
        for _ in range(PROBES_PER_SIDE):
            probe()
        start = time.perf_counter()
        last = build()
        spans.append((start, time.perf_counter()))
        for _ in range(PROBES_PER_SIDE):
            probe()
    return last, {
        "setup_s": median(probe.normalise(spans)),
        "raw_setup_s": median(durations(spans)),
        "samples": [round(end - start, 4) for start, end in spans],
    }


def metadata(workload: str, scenario, seed: int, **extra: object) -> Dict[str, object]:
    """The run's metadata block: ``obs.run_metadata`` plus host facts."""
    return run_metadata(
        scenario=scenario.name,
        scale=scenario.scale,
        seed=seed,
        workload=workload,
        cores=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
        **extra,
    )


def dump_json(path: str, document: Dict[str, object]) -> None:
    """Write one JSON document (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.meta: Dict[str, object] = {}

    def record(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a failed one keeps its first problems."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    @property
    def correct(self) -> bool:
        """True when every operation passed its output check."""
        return self.attempted > 0 and self.failed == 0


class ColdStart:
    """One cold start of a scenario: topology, day load, hitlist, routes."""

    def __init__(self, scale: str, seed: int, layers: Layers) -> None:
        from repro.core.scenarios import tangled_like
        from repro.core.verfploeter import Verfploeter
        from repro.load.estimator import LoadEstimate
        from repro.probing.hitlist import build_hitlist

        with layers.span("scenarios.build"):
            self.scenario = tangled_like(scale=scale, seed=seed)
        with layers.span("traffic.day_load"):
            self.day = self.scenario.day_load("bench-day")
        self.estimate = LoadEstimate(self.day)
        with layers.span("probing.hitlist"):
            hitlist = build_hitlist(self.scenario.internet)
        self.verfploeter = Verfploeter(
            self.scenario.internet, self.scenario.service, hitlist=hitlist
        )
        with layers.span("bgp.routes"):
            self.routing = self.verfploeter.routing_for()

    @property
    def blocks(self) -> int:
        """Hitlist size: the block count every round probes."""
        return len(self.verfploeter.hitlist)


#: Cold-start layers every workload pays, as (span name, metric name).
SETUP_LAYERS = (
    ("scenarios.build", "scenarios.build_s"),
    ("traffic.day_load", "traffic.day_load_s"),
    ("probing.hitlist", "probing.hitlist_s"),
    ("bgp.routes", "bgp.routes_s"),
)


def setup_layer_metrics(layers: Layers) -> Dict[str, float]:
    """Median seconds of each cold-start layer across the run's setups."""
    return {
        metric: median(layers.durations(span)) for span, metric in SETUP_LAYERS
    }


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Tracing overhead: traced minus untraced median, as % of untraced."""
    base = median(untraced)
    return 100.0 * (median(traced) - base) / base if base else 0.0


def closed_loop(seconds: float, layers: Layers, step: Callable[[], Tuple[float, float]],
                probe: "SpeedProbe") -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """Call ``step`` back to back for ``seconds``, with one probe after
    each call; ``step`` returns the (start, end) of its timed operation.

    Returns ``(untraced, traced)`` spans.  An untraced run puts every
    span in the first list; a traced run spends the first half of the
    window with spans off and the second half with spans on.
    """
    untraced: List[Tuple[float, float]] = []
    traced: List[Tuple[float, float]] = []
    start = time.perf_counter()
    deadline = start + seconds
    halfway = start + seconds / 2.0
    while not (untraced or traced) or time.perf_counter() < deadline:
        layers.active = layers.enabled and time.perf_counter() >= halfway
        (traced if layers.active else untraced).append(step())
        probe()
    layers.active = layers.enabled
    return untraced, traced


#: What a speed-normalised time assumes one probe took, per kernel, in
#: seconds: about the kernel's time on a quiet 2-core Xeon VM.
PROBE_REFERENCE_S = {"sort": 0.75e-3, "loop": kernels.LOOP_REFERENCE_S}
#: Probe samples within this many seconds of an operation set its factor.
PROBE_HORIZON_S = 1.0
#: Probes taken on each side of a set-up.
PROBES_PER_SIDE = 3


class SpeedProbe:
    """A fixed kernel timed beside the workload's operations.

    The host this benchmark runs on shares its cache and memory bandwidth
    with other tenants, and its speed drifts by up to 2x over tens of
    seconds.  Operation times are therefore reported *speed-normalised*:
    multiplied by the kernel's reference time over its median time around
    the operation.  ``"sort"`` (sorting a fixed array) tracks the numpy
    passes of rounds and plans; ``"loop"`` (a pure-Python loop) tracks
    set-up, which is Python object building.  Both are benchmark code, so
    a change to the program cannot move them.
    """

    SIZE = 100_000

    def __init__(self, kernel: str = "sort") -> None:
        data = np.random.default_rng(0).random(self.SIZE)
        self._kernel = (lambda: np.sort(data)) if kernel == "sort" else kernels.loop
        self._reference = PROBE_REFERENCE_S[kernel]
        self.times: List[float] = []
        self.seconds: List[float] = []

    def __call__(self) -> float:
        """Run the kernel once; returns (and records) its seconds."""
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.add(end, end - start)
        return end - start

    def add(self, at: float, seconds: float) -> None:
        """Record a probe timed elsewhere (another process)."""
        self.times.append(at)
        self.seconds.append(seconds)

    def factor(self, start: float, end: float) -> float:
        """Reference over the median probe time in ``[start, end]``
        widened by :data:`PROBE_HORIZON_S` (the nearest probes if none)."""
        if not self.seconds:
            raise RuntimeError("no speed probes were taken")
        times = np.asarray(self.times)
        seconds = np.asarray(self.seconds)
        near = (times >= start - PROBE_HORIZON_S) & (times <= end + PROBE_HORIZON_S)
        if not near.any():
            near = np.argsort(np.abs(times - (start + end) / 2.0))[:5]
        return self._reference / float(np.median(seconds[near]))

    def normalise(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Speed-normalised seconds of operations given as (start, end)."""
        return [(end - start) * self.factor(start, end) for start, end in spans]


def durations(spans: Sequence[Tuple[float, float]]) -> List[float]:
    """Raw wall seconds of operations given as (start, end)."""
    return [end - start for start, end in spans]


def latency_metrics(seconds: Sequence[float]) -> Dict[str, float]:
    """Median, gated tail and p99 of operation times, in milliseconds."""
    return {
        "p50_ms": 1e3 * median(seconds),
        "tail_ms": 1e3 * tail_mean(seconds),
        "p99_ms": 1e3 * tail(seconds)[1],
    }
