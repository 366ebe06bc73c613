"""Feature bundles, lookahead pulls and the asynchronous prefetcher.

`pull_window` gathers the cache misses of a window of consecutive
batches: the precomputed plan names every batch's input nodes, and the
hot set of its epoch, before its block is sampled. Rows already held,
the previous window's and the hot rows that window used, are copied;
the rest come in one sync pull, one RPC per owning shard with a new row.
A `Lookahead` is one batch's share of a window, with the traffic charged
to that batch: the pull's on the window's first batch, none on the
others. `assemble_bundle` gathers one batch's feature rows with no I/O:
local shard reads, cache hits, and the cache misses taken from the
window gathered for it. A cache with no rows, as in baseline mode, makes
every remote row a miss. `Prefetcher` runs any iterator on a single
producer thread into a bounded ring of depth Q that k readers take
from, each reader every item strictly in order: a worker's run of
lookahead pulls with its training loop as the one reader, or the run's
blocks with every worker as a reader.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cache import FeatureCache
from .graph import sorted_unique
from .sampler import ComputationBlock
from .store import StoreClient, StoreShard, TransferAccount, find


class PrefetchError(RuntimeError):
    """The prefetched iterator raised after yielding `batch` items.

    `batch` counts from the start of the iterator; for a run of
    lookahead pulls or of blocks, one item per batch, that is the batch's
    index in the run, not in its epoch.
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
class PulledRows:
    """Feature rows gathered ahead for a window of batches, or a hot set's
    rows; read-only, since the loop and the lookahead's producer share
    them."""

    ids: np.ndarray  # sorted ascending
    rows: np.ndarray  # aligned with ids

    def __post_init__(self):
        self.rows.setflags(write=False)

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The rows of `ids`; raises LookupError if any was not pulled."""
        pos, held = find(self.ids, ids)
        if not held.all():
            raise LookupError(f"{np.count_nonzero(~held)} rows were not pulled "
                              f"with the window, first id {ids[~held][0]}")
        return self.rows[pos]


@dataclass
class Lookahead:
    """One batch's share of a window pull: the rows the window pulled,
    and the traffic charged to the batch, the pull's on the window's
    first batch and none on the others."""

    epoch: int
    batch: int
    pulled: PulledRows
    account: TransferAccount


def pull_window(
    input_sets: list[np.ndarray],
    owner: np.ndarray,
    my_part: int,
    hot_ids: np.ndarray,
    client: StoreClient,
    account: TransferAccount | None = None,
    held: Sequence[PulledRows] = (),
) -> PulledRows:
    """The rows of the cache misses of a window of batches.

    The misses are the remote ids of the batches' input nodes outside
    `hot_ids`, the sorted hot set the cache holds for their epoch. A
    miss found in `held` is copied from there; the others are pulled in
    one sync pull, one RPC per owning shard, charged to `account`. When
    `held` holds every miss nothing is pulled.
    """
    ids = sorted_unique(np.concatenate(input_sets))
    ids = ids[owner[ids] != my_part]
    ids = ids[~find(hot_ids, ids)[1]]
    rows = np.empty((len(ids), client.feat_dim), dtype=np.float32)
    todo = np.ones(len(ids), dtype=bool)
    for rows_held in held:
        pos, got = find(rows_held.ids, ids)
        got &= todo
        rows[got] = rows_held.rows[pos[got]]
        todo &= ~got
    new = np.flatnonzero(todo)
    if len(new):
        rows[new] = client.sync_pull(ids[new], account)
    return PulledRows(ids, rows)


def assemble_bundle(
    block: ComputationBlock,
    owner: np.ndarray,
    my_part: int,
    shard: StoreShard,
    cache: FeatureCache,
    pulled: PulledRows,
) -> FeatureBundle:
    """Gather the feature rows a block needs, in input_nodes order.

    Locally owned rows are read straight from the worker's shard memory
    (zero RPC). Remote rows go through the cache; the misses come from
    `pulled`, the window pulled ahead for this block, which must hold
    every one of them.
    """
    ids = block.input_nodes
    rows = np.empty((len(ids), shard.feat_dim), dtype=np.float32)
    local = owner[ids] == my_part
    local_pos = np.flatnonzero(local)
    remote_pos = np.flatnonzero(~local)
    rows[local_pos] = shard.rows_for_local(ids[local_pos])
    hit, hit_rows = cache.lookup(ids[remote_pos])
    rows[remote_pos[hit]] = hit_rows
    miss_pos = remote_pos[~hit]
    rows[miss_pos] = pulled.take(ids[miss_pos])
    return FeatureBundle(
        rows=rows,
        n_cache_hit=len(hit_rows),
        n_fallback=len(miss_pos),
    )


class Prefetcher:
    """Runs an iterator ahead of its `readers` consumers on one producer
    thread; every reader takes every item, strictly in order.

    Items wait in a ring until every reader has taken them. At most
    `depth` items wait there, plus the one the producer holds while the
    slowest reader is `depth` items behind. Everything the iterator does
    runs on that thread.
    """

    def __init__(self, items: Iterable, depth: int = 3, readers: int = 1):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if readers < 1:
            raise ValueError("a prefetcher needs at least one reader")
        self._depth = depth
        self._cond = threading.Condition()
        self._ring: dict[int, object] = {}  # item index -> item
        self._next = [0] * readers  # each reader's next item index
        self._made = 0  # items the iterator has yielded
        self._done = False  # the iterator is exhausted or raised
        self._error: BaseException | None = None  # what it raised at _made
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
                    self._ring[self._made] = item
                    self._made += 1
                    self._cond.notify_all()
        except BaseException as exc:  # surfaced on the readers' side
            error = exc
        with self._cond:
            self._done, self._error = True, error
            self._cond.notify_all()

    def take(self, reader: int):
        """Block for `reader`'s next in-order item; None once the iterator
        is done or the prefetcher is closed. Raises `PrefetchError` at the
        item the iterator raised on, and at every later take."""
        with self._cond:
            n = self._next[reader]
            while not self._closed and n == self._made and not self._done:
                self._cond.wait()
            if self._closed:
                return None
            if n < self._made:
                item = self._ring[n]
                self._next[reader] = n + 1
                if min(self._next) > n:  # every reader has taken it
                    del self._ring[n]
                    self._cond.notify_all()
                return item
            if self._error is not None:
                raise PrefetchError(n, self._error)
            return None

    def next_bundle(self):
        """The only reader's next item; None once the iterator is done."""
        return self.take(0)

    def __iter__(self) -> Iterator:
        while (item := self.next_bundle()) is not None:
            yield item

    def close(self) -> None:
        """Stop the producer, drop every waiting item and wake every
        waiter; idempotent. Every later take returns None."""
        with self._cond:
            self._closed = True
            self._ring.clear()
            self._cond.notify_all()
        self._producer.join()
