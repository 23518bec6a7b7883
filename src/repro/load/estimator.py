"""Per-block load estimates derived from historical logs."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.traffic.logs import DayLoad, LoadKind


class JoinPlan(NamedTuple):
    """Where an estimate's traffic blocks sit in one block universe.

    ``key`` is the universe the plan was computed against: the caller's
    array itself when it is read-only down its whole ``.base`` chain,
    else a private copy (so an in-place write to the caller's array
    cannot go unnoticed).
    ``rows`` holds, per traffic row, its position in the universe
    (clipped into range, ``None`` for an empty universe) and ``found``
    whether the block is really there.
    """

    key: np.ndarray
    rows: Optional[np.ndarray]
    found: np.ndarray


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array it views are read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


def _plan_matches(key: np.ndarray, universe: np.ndarray) -> bool:
    """Whether a plan computed against ``key`` holds for ``universe``.

    A read-only array (over read-only memory all the way down) is taken
    as immutable, so identity suffices; anything else (a writeable
    array, an equal copy, a re-attached memmap) must compare equal
    element for element.
    """
    if universe is key:
        return _frozen(universe)
    return key.shape == universe.shape and np.array_equal(key, universe)


class LoadEstimate:
    """Per-/24 daily load of one kind, derived from a :class:`DayLoad`.

    This is the calibration weight Verfploeter attaches to each block:
    whatever the catchment says about *where* a block goes, the estimate
    says *how much* traffic goes with it.

    The estimate also carries what the load join
    (:mod:`repro.load.weighting`) would otherwise recompute on every
    call: the daily column, the hourly matrix and the :class:`JoinPlan`
    of the last universe it was joined against.  The plan is not
    pickled; an unpickled estimate plans again on its first join.
    """

    def __init__(self, load: DayLoad, kind: str = LoadKind.QUERIES) -> None:
        if kind not in LoadKind.ALL:
            raise DatasetError(f"unknown load kind {kind!r}")
        self.kind = kind
        self.source = load
        self._daily = load.daily_of_kind(kind)
        self._daily.flags.writeable = False
        self._row_of = load.row_of
        self._hourly_matrix: Optional[np.ndarray] = None
        self._plan: Optional[JoinPlan] = None

    def __getstate__(self) -> dict:
        """Pickle the estimate without its join plan."""
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    def __len__(self) -> int:
        return len(self.source)

    @property
    def blocks(self) -> np.ndarray:
        """Blocks with recorded traffic."""
        return self.source.blocks

    def daily_column(self) -> np.ndarray:
        """Daily load of every block, rows aligned with :attr:`blocks`.

        Equal bit for bit to ``source.daily_of_kind(kind)``, computed
        once at construction and returned read-only.
        """
        return self._daily

    def join_plan(self, universe: np.ndarray) -> JoinPlan:
        """The :class:`JoinPlan` of :attr:`blocks` in ``universe``.

        ``universe`` is a strictly-ascending ``uint64`` block array (a
        catchment's universe).  One plan is cached: it is reused while
        the universe is the same read-only array or an equal one, and
        recomputed (replacing the cached plan in one assignment, so
        concurrent joins never see half a plan) otherwise.  An array
        that is read-only, down its whole ``.base`` chain, whenever it
        is joined is assumed never to change.
        """
        plan = self._plan
        if plan is not None and _plan_matches(plan.key, universe):
            return plan
        keys = self.blocks.astype(np.uint64)
        if universe.size == 0:
            rows = None
            found = np.zeros(keys.size, dtype=bool)
        else:
            rows = np.minimum(np.searchsorted(universe, keys), universe.size - 1)
            found = universe[rows] == keys
        key = universe if _frozen(universe) else universe.copy()
        plan = JoinPlan(key, rows, found)
        self._plan = plan
        return plan

    def of_block(self, block: int) -> float:
        """Daily load of ``block`` (0.0 when it sent nothing)."""
        row = self._row_of(block)
        return float(self._daily[row]) if row is not None else 0.0

    def total(self) -> float:
        """Total daily load across all blocks."""
        return float(self._daily.sum())

    def hourly_of_block(self, block: int) -> np.ndarray:
        """Hourly load vector of ``block`` (zeros when absent)."""
        row = self._row_of(block)
        if row is None:
            return np.zeros(self.source.queries.shape[1])
        scale = 1.0
        if self.kind == LoadKind.GOOD_REPLIES:
            scale = float(self.source.good_fraction[row])
        elif self.kind == LoadKind.ALL_REPLIES:
            scale = float(self.source.reply_fraction[row])
        return self.source.queries[row] * scale

    def hourly_matrix(self) -> np.ndarray:
        """Hourly load of every block at once, rows aligned with :attr:`blocks`.

        Row ``r`` equals ``hourly_of_block(blocks[r])`` bit-for-bit: the
        per-kind scale is applied as the same elementwise float64
        multiply the scalar path performs.  The matrix is computed once
        and cached — one estimate typically weights many scan rounds.
        """
        if self._hourly_matrix is None:
            queries = self.source.queries
            if self.kind == LoadKind.GOOD_REPLIES:
                self._hourly_matrix = queries * self.source.good_fraction[:, None]
            elif self.kind == LoadKind.ALL_REPLIES:
                self._hourly_matrix = queries * self.source.reply_fraction[:, None]
            else:
                self._hourly_matrix = queries
        return self._hourly_matrix

    def hourly_totals(self) -> np.ndarray:
        """Total load per UTC hour across all blocks (length-24 vector)."""
        return self.hourly_matrix().sum(axis=0)

    def peak_qph(self) -> float:
        """Peak queries/hour over the day (max of :meth:`hourly_totals`).

        Peak vs mean matters: capacity planning throughout the repo
        compares **peaks** against provisioned capacity
        (:func:`repro.load.weighting.capacity_violations`), because
        diurnal days and volumetric attacks concentrate load into a few
        bins.  :meth:`mean_qph` exists for reporting ratios only — it
        must never be the quantity compared against a capacity.
        """
        return float(self.hourly_totals().max())

    def mean_qph(self) -> float:
        """Mean queries/hour over the day (total / 24).

        Reporting-only companion to :meth:`peak_qph` — see the
        peak-vs-mean note there.
        """
        return self.total() / 24.0

    def heaviest(self, count: int) -> List[Tuple[int, float]]:
        """Heaviest ``count`` blocks as ``(block, daily load)``.

        Ties break toward the lower block id.  ``lexsort`` is a stable
        sort with an explicit secondary key; a plain ``argsort`` on the
        float loads would order tied blocks by numpy's unstable
        quicksort partitioning — a platform-dependent result.
        """
        order = np.lexsort((self.blocks, -self._daily))[:count]
        return [(int(self.blocks[i]), float(self._daily[i])) for i in order]

    def as_dict(self) -> Dict[int, float]:
        """Snapshot mapping block -> daily load."""
        return {
            int(block): float(value)
            for block, value in zip(self.blocks, self._daily)
        }
