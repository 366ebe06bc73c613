"""Hot-node feature cache and the per-epoch hot sets it holds.

The precomputed plan fixes every epoch's remote accesses, so
`epoch_hot_sets` chooses each epoch's hot set once, before training:
the epoch's n_hot most-accessed remote nodes. A cache serves lookups for
the current epoch while the lookahead's producer stages later epochs'
rows in order; `swap`, on the worker's thread at the epoch boundary,
installs the oldest. A failed fill raises its exception from `swap` and
leaves the current rows installed. A cache built from no hot ids holds
no rows and answers every lookup with misses; baseline mode uses one.
The cache keeps no hit or miss counters; each lookup's split is
returned to the caller, which counts per batch.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .plan import BatchPlan, collect_access, top_hot
from .store import StoreClient, TransferAccount, find


def epoch_hot_sets(plan: BatchPlan, book, part: int,
                   n_hot: int) -> list[np.ndarray]:
    """Worker `part`'s hot set for every epoch, sorted ascending: the
    epoch's n_hot most-accessed remote nodes, or no nodes when n_hot is 0."""
    if n_hot == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(plan.epochs)]
    return [top_hot(collect_access(plan, book, part, epoch=e), n_hot)
            for e in range(plan.epochs)]


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
        self,
        hot_ids: np.ndarray,
        client: StoreClient,
        fill_account: TransferAccount | None = None,
    ) -> np.ndarray | None:
        """Pull a later epoch's rows, `hot_ids` sorted ascending, and
        stage them, or what the pull raised, behind the fills staged.
        Returns the rows, or None when the pull raised."""
        hot_ids = np.asarray(hot_ids, dtype=np.int64)
        try:
            rows = client.vector_pull(hot_ids, fill_account)
            filled = (hot_ids, rows)
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
