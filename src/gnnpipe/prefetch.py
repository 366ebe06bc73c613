"""Feature bundles, lookahead pulls and the asynchronous prefetcher.

The precomputed plan names every batch's input nodes, and the hot set of
its epoch, before training starts, so a rapid worker's lookahead can
pull each remote row before any batch reads it. Its rows go into the
worker's `cache.RowTable`, which writes each row once and keeps it, and
a rapid request, a later epoch's hot set or a window's remote inputs,
pulls only the ids the table has never held (`RowTable.missing`), in
one pull, one RPC per owning shard with a new row. A `Lookahead` names
one batch once its remote rows are in the table, with the traffic
charged to that batch: its window's pull on the window's first batch,
none on the others; it holds no rows.
`assemble_bundle` gathers one batch's feature rows with no I/O: local
shard reads, and every remote row, hit or miss, from the table in one
gather. A cache with no hot ids, as in baseline mode, makes every
remote row a miss. `Prefetcher` runs any iterator on a single producer
thread into a bounded ring of depth Q that one reader takes from in
order: a worker's run of lookahead items, read by its training loop.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cache import FeatureCache, RowTable
from .sampler import ComputationBlock
from .store import StoreShard, TransferAccount


class PrefetchError(RuntimeError):
    """The prefetched iterator raised after yielding `batch` items.

    `batch` counts from the start of the iterator; for a run of
    lookahead pulls, one item per batch, that is the batch's index in
    the run, not in its epoch.
    """

    def __init__(self, batch: int, cause: BaseException):
        super().__init__(f"prefetching failed at item {batch}: {cause}")
        self.batch = batch
        self.__cause__ = cause


@dataclass
class FeatureBundle:
    rows: np.ndarray  # |input_nodes| x feat_dim, aligned to input_nodes
    n_cache_hit: int
    n_fallback: int


@dataclass
class Lookahead:
    """One batch whose remote rows are in the row table, and the traffic
    charged to the batch: its window's pull on the window's first batch
    and none on the others."""

    epoch: int
    batch: int
    account: TransferAccount


def assemble_bundle(
    block: ComputationBlock,
    owner: np.ndarray,
    my_part: int,
    shard: StoreShard,
    cache: FeatureCache,
    table: RowTable,
) -> FeatureBundle:
    """Gather the feature rows a block needs, in input_nodes order.

    Locally owned rows are read straight from the worker's shard memory
    (zero RPC). Every remote row, hit or miss, comes from `table` in one
    gather, which raises LookupError naming the first row never
    written; the cache only splits them into hits and misses.
    """
    ids = block.input_nodes
    rows = np.empty((len(ids), shard.feat_dim), dtype=np.float32)
    local = owner[ids] == my_part
    local_pos = np.flatnonzero(local)
    remote_pos = np.flatnonzero(~local)
    rows[local_pos] = shard.rows_for_local(ids[local_pos])
    remote = ids[remote_pos]
    rows[remote_pos] = table.take(remote)
    n_hit = int(np.count_nonzero(cache.lookup(remote)))
    return FeatureBundle(
        rows=rows,
        n_cache_hit=n_hit,
        n_fallback=len(remote) - n_hit,
    )


class Prefetcher:
    """Runs an iterator ahead of its one reader on one producer thread.

    At most `depth` items wait in a ring, plus the one the producer
    holds while the ring is full. Everything the iterator does runs on
    that thread.
    """

    def __init__(self, items: Iterable, depth: int = 3):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self._depth = depth
        self._cond = threading.Condition()
        self._ring: deque = deque()
        self._taken = 0  # items the reader has taken
        self._done = False  # the iterator is exhausted or raised
        self._error: BaseException | None = None  # what it raised, if it did
        self._closed = False
        self._producer = threading.Thread(target=self._produce, args=(items,),
                                          daemon=True)
        self._producer.start()

    def _produce(self, items: Iterable) -> None:
        error = None
        try:
            for item in items:
                with self._cond:
                    while not self._closed and len(self._ring) >= self._depth:
                        self._cond.wait()
                    if self._closed:
                        return
                    self._ring.append(item)
                    self._cond.notify_all()
        except BaseException as exc:  # surfaced on the reader's side
            error = exc
        with self._cond:
            self._done, self._error = True, error
            self._cond.notify_all()

    def next_bundle(self):
        """Block for the next in-order item; None once the iterator is done
        or the prefetcher is closed. Raises `PrefetchError` at the item
        the iterator raised on, and at every later call."""
        with self._cond:
            while not self._closed and not self._ring and not self._done:
                self._cond.wait()
            if self._closed:
                return None
            if self._ring:
                self._taken += 1
                self._cond.notify_all()
                return self._ring.popleft()
            if self._error is not None:
                raise PrefetchError(self._taken, self._error)
            return None

    def __iter__(self) -> Iterator:
        while (item := self.next_bundle()) is not None:
            yield item

    def close(self) -> None:
        """Stop the producer and drop every waiting item; idempotent.
        Every later call returns None."""
        with self._cond:
            self._closed = True
            self._ring.clear()
            self._cond.notify_all()
        self._producer.join()
