"""Hot-node feature cache and the per-epoch hot sets it holds.

The precomputed plan fixes every epoch's remote accesses, so
`epoch_hot_sets` counts each epoch's remote accesses once and chooses
each epoch's hot set once, before training: the epoch's n_hot
most-accessed remote nodes. A cache serves lookups for the current
epoch while the lookahead's producer stages later epochs' rows in
order; `swap`, on the worker's thread at the epoch boundary, installs
the oldest. The producer copies a later epoch's rows from the
lookahead's carry store, which keeps rows by Belady's MIN over the
plan's requests, and from the hot set before it, and pulls only the
rest. A failed fill raises its exception from `swap` and leaves the
current rows installed. A cache built from no hot ids holds no rows and
answers every lookup with misses; baseline mode uses one.
The cache keeps no hit or miss counters; each lookup's split is
returned to the caller, which counts per batch.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from .graph import sorted_unique
from .plan import BatchPlan, collect_access, top_hot
from .store import StoreClient, TransferAccount, find

if TYPE_CHECKING:
    from .prefetch import PulledRows


def epoch_hot_sets(plan: BatchPlan, book, part: int,
                   n_hot: Callable[[int], int]) -> list[np.ndarray]:
    """Worker `part`'s hot set for every epoch, sorted ascending: the
    epoch's n_hot(R) most-accessed remote nodes, where R is the number
    of remote nodes that the plan's batches read over all epochs, the
    union of the per-epoch counts."""
    tables = [collect_access(plan, book, part, epoch=e)
              for e in range(plan.epochs)]
    size = n_hot(len(sorted_unique(np.concatenate([t.ids for t in tables]))))
    return [top_hot(t, size) for t in tables]


class FeatureCache:
    def __init__(self, hot_ids: np.ndarray, rows: np.ndarray):
        self.hot_ids = hot_ids  # sorted ascending
        self.rows = rows
        self._staged = deque()  # (hot_ids, rows) or what the fill raised
        self._cond = threading.Condition()

    def lookup(self, node_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`(hit, rows)`: a mask over the request of the ids the cache
        holds, and their rows in request order."""
        pos, hit = find(self.hot_ids, np.asarray(node_ids, dtype=np.int64))
        return hit, self.rows[pos[hit]]

    def start_secondary_build(
        self, gather: Callable[[], PulledRows]) -> np.ndarray | None:
        """Gather a later epoch's hot rows, ids sorted ascending, and
        stage them, or what `gather` raised, behind the fills staged.
        Returns the rows, or None when `gather` raised."""
        try:
            got = gather()
            rows, filled = got.rows, (got.ids, got.rows)
        except BaseException as exc:  # raised again by swap()
            rows, filled = None, exc
        with self._cond:
            self._staged.append(filled)
            self._cond.notify()
        return rows

    def wait_secondary(self) -> None:
        """Block until a fill is staged."""
        with self._cond:
            self._cond.wait_for(lambda: self._staged)

    def swap(self) -> None:
        """Close the epoch: install the oldest staged fill, waiting for
        one if none is staged yet.

        Waiting here makes the next epoch's hot set independent of thread
        timing. A failed fill raises its exception and leaves the current
        rows installed.
        """
        self.wait_secondary()
        filled = self._staged.popleft()  # only this thread pops
        if isinstance(filled, BaseException):
            raise filled
        self.hot_ids, self.rows = filled


def build_steady(
    hot_ids: np.ndarray,
    client: StoreClient,
    fill_account: TransferAccount | None = None,
) -> FeatureCache:
    """Bulk-fetch the hot set into a fresh cache (one RPC per owning shard)."""
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    rows = client.vector_pull(hot_ids, fill_account)
    return FeatureCache(hot_ids, rows)
