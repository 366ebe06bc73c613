"""Double-buffered hot-node feature cache.

The steady buffer serves lookups for the current epoch while a secondary
buffer for the next epoch is filled by a background thread; the buffers
swap at the epoch boundary. One thread, the one that runs the worker's
bundle stream, calls `lookup`, `start_secondary_build` and `swap`; the
builder thread only fills the secondary buffer, and `swap` joins it
first. A failed secondary build leaves the old steady buffer in place,
and `swap` says so; a training run's stream then raises, because its
lookahead pulls assumed the new hot set. A cache built from no hot
ids holds no rows and answers every lookup with misses; baseline mode
uses one. The cache keeps no hit or miss counters; each lookup's split
is returned to the caller, which counts per bundle.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

import numpy as np

from .plan import BatchPlan, collect_access, top_hot
from .store import StoreClient, TransferAccount

log = logging.getLogger(__name__)


@dataclass
class CacheLookup:
    """Partition of a request into cache-resident and missing ids, with
    the request positions needed to reassemble rows in order."""

    found_pos: np.ndarray  # positions in the request
    found_rows: np.ndarray
    missing_pos: np.ndarray
    missing_ids: np.ndarray


class _Buffer:
    def __init__(self, hot_ids: np.ndarray, rows: np.ndarray):
        self.hot_ids = hot_ids  # sorted ascending
        self.rows = rows


class FeatureCache:
    def __init__(self, hot_ids: np.ndarray, rows: np.ndarray):
        self._steady = _Buffer(hot_ids, rows)
        self._secondary: _Buffer | None = None
        self._builder: threading.Thread | None = None

    @property
    def hot_ids(self) -> np.ndarray:
        return self._steady.hot_ids

    def lookup(self, node_ids: np.ndarray) -> CacheLookup:
        ids = np.asarray(node_ids, dtype=np.int64)
        buf = self._steady
        pos = np.searchsorted(buf.hot_ids, ids)
        hit = pos < len(buf.hot_ids)
        hit[hit] = buf.hot_ids[pos[hit]] == ids[hit]
        found_pos = np.flatnonzero(hit)
        missing_pos = np.flatnonzero(~hit)
        return CacheLookup(
            found_pos=found_pos,
            found_rows=buf.rows[pos[found_pos]],
            missing_pos=missing_pos,
            missing_ids=ids[missing_pos],
        )

    def start_secondary_build(
        self,
        plan: BatchPlan,
        next_epoch: int,
        book,
        my_part: int,
        n_hot: int,
        client: StoreClient,
        fill_account: TransferAccount | None = None,
    ) -> None:
        """Kick off the concurrent build of the next epoch's buffer."""
        def _build() -> None:
            try:
                freq = collect_access(plan, book, my_part, epoch=next_epoch)
                hot = top_hot(freq, n_hot)
                rows = client.vector_pull(hot, fill_account)
                self._secondary = _Buffer(hot, rows)
            except Exception:
                log.warning("secondary cache build for epoch %d failed; keeping "
                            "the current steady cache", next_epoch, exc_info=True)

        self._builder = threading.Thread(target=_build, daemon=True)
        self._builder.start()

    def wait_secondary(self) -> None:
        """Block until an in-flight secondary build finishes (bounded work)."""
        if self._builder is not None:
            self._builder.join()
            self._builder = None

    def swap(self) -> bool:
        """Close the epoch: wait for an in-flight build, then install the
        secondary buffer if one completed.

        Waiting here makes the next epoch's hot set independent of thread
        timing. Returns False, keeping the steady buffer, when no
        completed secondary exists.
        """
        self.wait_secondary()
        if self._secondary is None:
            return False
        self._steady = self._secondary
        self._secondary = None
        return True


def build_steady(
    hot_ids: np.ndarray,
    client: StoreClient,
    fill_account: TransferAccount | None = None,
) -> FeatureCache:
    """Bulk-fetch the hot set into a fresh cache (one RPC per owning shard)."""
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    rows = client.vector_pull(hot_ids, fill_account)
    return FeatureCache(hot_ids, rows)
