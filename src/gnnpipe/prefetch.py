"""Feature bundles, lookahead pulls and the asynchronous prefetcher.

The precomputed plan names every batch's input nodes, and the hot set of
its epoch, before training starts, so a rapid worker's requests for
rows, each later epoch's hot set and each window's cache misses, form a
reference string fixed in advance. `min_pulls` is the pull schedule
over that string: it holds the current hot set and, between requests,
the B rows used soonest again (Belady's MIN), and names for each
request the ids it does not hold, from the plan alone. The rows go
into the worker's `cache.RowTable`, which writes each row once and
keeps it, so its memory is R rows whatever B is. A request pulls the
ids the schedule names in one pull, one RPC per owning shard with a
new row. A `Lookahead` names one batch once its cache misses are in
the table, with the traffic charged to that batch: its window's pull
on the window's first batch, none on the others; it holds no rows.
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
    """One batch whose cache misses are in the row table, and the traffic
    charged to the batch: its window's pull on the window's first batch
    and none on the others."""

    epoch: int
    batch: int
    account: TransferAccount


def min_pulls(requests: Iterable[tuple[np.ndarray, bool]], hot: np.ndarray,
              num_ids: int) -> Iterator[np.ndarray]:
    """The ids each request pulls when the rows held between requests are
    chosen by Belady's MIN over the plan's requests.

    `requests` is a worker's reference string after its first hot set
    H_0, `hot`: each later epoch's hot set, then the misses of each of
    the epoch's windows, each as (ids sorted ascending in any integer
    dtype, whether it is a hot set), over ids below `num_ids`. For each
    request in order this yields the request's ids not held, ascending.

    Besides the current hot set, H_0 from the start, it holds at most B
    rows, B the largest window's miss count: after each request the B
    rows outside the current hot set whose next use comes soonest, ties
    to the lower id, and never a row no later request names. At a hot
    set that pool includes the previous hot set.

    It answers the first request before reading the rest of `requests`,
    and reads all of it when asked for the second, giving every id of
    every request its next use in one backward pass.
    """
    requests = iter(requests)
    held = np.zeros(num_ids, dtype=bool)
    held[hot] = True
    first = next(requests, None)
    if first is None:
        return
    yield first[0][~held[first[0]]]
    string = [first, *requests]
    capacity = max((len(ids) for ids, is_hot in string if not is_hot),
                   default=0)
    never = len(string)
    next_use = np.full(num_ids, never, dtype=np.min_scalar_type(never))
    after = [None] * never  # per request, its ids' next uses
    for t in reversed(range(never)):
        after[t] = next_use[string[t][0]]
        next_use[string[t][0]] = t
    for t, (ids, is_hot) in enumerate(string):
        if t:
            yield ids[~held[ids]]
        held[ids] = True
        next_use[ids] = after[t]
        if is_hot:
            hot = ids
        held[hot] = False
        pool = np.flatnonzero(held)
        use = next_use[pool]
        keep, use = pool[use < never], use[use < never]
        if len(keep) > capacity:
            # unique keys: the next use, then the id
            key = use.astype(np.int64) * num_ids + keep
            keep = keep[np.argpartition(key, capacity)[:capacity]]
        held[:] = False
        held[keep] = True
        held[hot] = True


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
