"""Hot-node feature cache, the per-epoch hot sets it holds, and the row
table that holds their rows.

The precomputed plan fixes every epoch's remote accesses, so
`epoch_hot_sets` counts each epoch's remote accesses once and chooses
each epoch's hot set once, before training: the epoch's n_hot
most-accessed remote nodes. A cache holds the current epoch's hot ids
only; their rows, like the misses', are in the worker's `RowTable`.
While an epoch trains, the lookahead's producer writes later epochs'
hot rows into the table, pulling only the ids the table has never
held, and stages their ids in order; `swap`, on the worker's thread at
the epoch boundary, installs the oldest. A failed fill
raises its exception from `swap` and leaves the current hot set
installed. A cache built from no hot ids answers every lookup with
misses; baseline mode uses one. The cache keeps no hit or miss
counters; each lookup's mask is returned to the caller, which counts
per batch.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable

import numpy as np

from .graph import sorted_unique
from .plan import BatchPlan, collect_access, top_hot
from .store import StoreClient, TransferAccount, find


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


class RowTable:
    """One float32 row for each id a worker does not own, `remote` marking
    them: R rows, found through a rank table over the graph's ids.

    Each row is written once. `put` writes only rows never written, and
    writes them before it marks them written, so a reader that the
    writer hands ids to through a lock or `Condition` reads their rows
    without a copy and without racing a later write. `missing` names
    the rows a request still has to pull. `put` and `missing` reject an
    id the worker owns, which has no row.
    """

    def __init__(self, remote: np.ndarray, feat_dim: int):
        # an id's row, or -1 at the ids the worker owns
        self._rank = np.where(remote, np.cumsum(remote) - 1, -1)
        self._rows = np.empty((np.count_nonzero(remote), feat_dim),
                              dtype=np.float32)
        self._written = np.zeros(len(remote), dtype=bool)

    def _check_remote(self, ids: np.ndarray) -> None:
        """Raise ValueError naming the first of `ids` the worker owns."""
        owned = self._rank[ids] < 0
        if owned.any():
            raise ValueError(f"id {ids[owned][0]} is owned by the worker, "
                             f"so the row table has no row for it")

    def missing(self, ids: np.ndarray) -> np.ndarray:
        """The remote `ids` whose rows were never written, in request
        order."""
        self._check_remote(ids)
        return ids[~self._written[ids]]

    def put(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Write the rows of the remote `ids` that were never written; a
        row written before keeps its bytes."""
        self._check_remote(ids)
        new = ~self._written[ids]
        ids = ids[new]
        self._rows[self._rank[ids]] = rows[new]
        self._written[ids] = True

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The rows of `ids`, in request order; raises LookupError if one
        of them was never written."""
        written = self._written[ids]
        if not written.all():
            raise LookupError(f"{np.count_nonzero(~written)} rows were never "
                              f"written, first id {ids[~written][0]}")
        return self._rows[self._rank[ids]]


class FeatureCache:
    def __init__(self, hot_ids: np.ndarray):
        self.hot_ids = hot_ids  # sorted ascending
        self._staged = deque()  # hot ids or what the fill raised
        self._cond = threading.Condition()

    def lookup(self, node_ids: np.ndarray) -> np.ndarray:
        """A mask over the request of the ids the cache holds."""
        return find(self.hot_ids, np.asarray(node_ids, dtype=np.int64))[1]

    def start_secondary_build(
        self, gather: Callable[[], np.ndarray]) -> np.ndarray | None:
        """Stage a later epoch's hot ids, sorted ascending, which `gather`
        returns once it has written their rows, or what `gather` raised,
        behind the fills staged. Returns the ids, or None when `gather`
        raised."""
        try:
            hot_ids = filled = gather()
        except BaseException as exc:  # raised again by swap()
            hot_ids, filled = None, exc
        with self._cond:
            self._staged.append(filled)
            self._cond.notify()
        return hot_ids

    def wait_secondary(self) -> None:
        """Block until a fill is staged."""
        with self._cond:
            self._cond.wait_for(lambda: self._staged)

    def swap(self) -> None:
        """Close the epoch: install the oldest staged fill, waiting for
        one if none is staged yet.

        Waiting here makes the next epoch's hot set independent of thread
        timing. A failed fill raises its exception and leaves the current
        hot set installed.
        """
        self.wait_secondary()
        filled = self._staged.popleft()  # only this thread pops
        if isinstance(filled, BaseException):
            raise filled
        self.hot_ids = filled


def build_steady(
    hot_ids: np.ndarray,
    client: StoreClient,
    table: RowTable,
    fill_account: TransferAccount | None = None,
) -> FeatureCache:
    """Bulk-fetch the hot set into `table` (one RPC per owning shard) and
    return a cache of its ids."""
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    table.put(hot_ids, client.vector_pull(hot_ids, fill_account))
    return FeatureCache(hot_ids)
