"""IPv4 hitlists: one representative address per /24 block.

Stands in for the ISI IPv4 hitlist the paper uses [17]: for every /24
block, the address historically most likely to respond to pings, with a
score.  Probing one address per block reduces traffic to 0.4% of a full
scan (paper §3.1) at the cost of missing blocks whose representative
happens to be down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.netaddr.blocks import format_block
from repro.rng import mix64, uniform_unit
from repro.topology.internet import Internet

_SCORE_SALT = 0x53434F52
_HOST_SALT = 0x484F5354


@dataclass(frozen=True)
class HitlistEntry:
    """One hitlist row: the representative address of a /24 block."""

    block: int
    address: int
    score: float

    def __str__(self) -> str:
        return f"{format_block(self.block)} -> {self.address:#010x} ({self.score:.2f})"


class Hitlist:
    """An ordered collection of hitlist entries (block order)."""

    def __init__(self, entries: Iterable[HitlistEntry]) -> None:
        self._entries: List[HitlistEntry] = sorted(entries, key=lambda e: e.block)
        blocks = [entry.block for entry in self._entries]
        if len(set(blocks)) != len(blocks):
            raise DatasetError("hitlist has duplicate blocks")
        self._block_array = np.array(blocks, dtype=np.uint64)
        self._block_array.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        """Unpickle, keeping the block array read-only."""
        self.__dict__.update(state)
        self._block_array.flags.writeable = False

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[HitlistEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> HitlistEntry:
        return self._entries[index]

    @property
    def blocks(self) -> List[int]:
        """Covered block ids, ascending."""
        return [entry.block for entry in self._entries]

    @property
    def block_array(self) -> np.ndarray:
        """Covered block ids as one read-only ascending ``uint64`` array.

        Built once per hitlist and shared: every scan state, and so every
        catchment, of this hitlist uses it as its block universe, which
        lets the load join recognise the universe by identity.
        """
        return self._block_array

    def entry_for(self, block: int) -> Optional[HitlistEntry]:
        """Entry for ``block`` via binary search, or None."""
        low, high = 0, len(self._entries)
        while low < high:
            mid = (low + high) // 2
            if self._entries[mid].block < block:
                low = mid + 1
            else:
                high = mid
        if low < len(self._entries) and self._entries[low].block == block:
            return self._entries[low]
        return None

    def top_scoring(self, count: int) -> List[HitlistEntry]:
        """The ``count`` entries with the highest scores."""
        return sorted(self._entries, key=lambda e: -e.score)[:count]


def build_hitlist(
    internet: Internet, blocks: Optional[Sequence[int]] = None
) -> Hitlist:
    """Build the hitlist for ``internet``.

    Covers every populated block (or the given subset).  The chosen host
    octet and the score are deterministic per block, mimicking how the
    ISI hitlist picks the historically most responsive address; the
    score loosely tracks the block's actual responsiveness so that
    score-ordered subsets behave like the real hitlist's.
    """
    chosen = internet.blocks if blocks is None else blocks
    entries = []
    model = internet.host_model
    for block in chosen:
        if not internet.has_block(block):
            raise DatasetError(f"block {block} not in topology")
        # Representative host octet in [1, 254]: never .0 or .255.
        octet = 1 + mix64(block ^ _HOST_SALT) % 254
        country = internet.country_of_block(block)
        responsive = model.is_stable_responder(block, country)
        noise = uniform_unit(internet.seed, _SCORE_SALT, block)
        score = (0.55 + 0.45 * noise) if responsive else 0.45 * noise
        entries.append(HitlistEntry(block, (block << 8) | octet, score))
    return Hitlist(entries)
