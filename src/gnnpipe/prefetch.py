"""Feature bundles, lookahead pulls and the asynchronous prefetcher.

The precomputed plan names every batch's input nodes, and the hot set of
its epoch, before training starts, so a rapid worker's requests for
rows, each later epoch's hot set and each window's cache misses, form a
reference string fixed in advance. `CarryStore` serves those requests
in order and keeps, between them, the rows used soonest again (Belady's
MIN): a request copies what the store holds, a hot set also what the
previous hot set holds, and pulls the rest in one pull, one RPC per
owning shard with a new row. A `Lookahead` is one batch's share of a
window, with the traffic charged to that batch: the pull's on the
window's first batch, none on the others. `assemble_bundle` gathers one
batch's feature rows with no I/O: local shard reads, cache hits, and the
cache misses taken from the window gathered for it. A cache with no
rows, as in baseline mode, makes every remote row a miss. `Prefetcher`
runs any iterator on a single producer thread into a bounded ring of
depth Q that one reader takes from in order: a worker's run of lookahead
pulls, read by its training loop.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cache import FeatureCache
from .sampler import ComputationBlock
from .store import StoreShard, TransferAccount, find


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


class CarryStore:
    """The rows a rapid worker's lookahead keeps between its requests,
    chosen by Belady's MIN over the requests the plan fixes.

    `requests` is the worker's reference string after its first hot
    set H_0, `hot`, in the order the lookahead sends them: each later
    epoch's hot set, then the miss set of each of the epoch's windows,
    each as (ids sorted ascending in any integer dtype, whether it is a
    hot set). `serve` serves them in order. A request copies the rows
    the store holds, and a hot set also those of the hot set before it,
    and pulls the rest in one pull, none when no row is new. With
    `carry` the store holds B rows, B the largest window's miss count.
    After each request it keeps the B rows whose next use comes soonest,
    ties to the lower id, out of those it holds, the request's and, at a
    hot set, the old hot set's. It drops rows that no later request
    names and rows of the hot set the cache now holds: no window of that
    epoch asks for them, and the next hot set copies them from it.
    Without `carry` it holds no rows and pulls every row of every
    request.

    The store reads each request only as it serves it, and evicts after
    a request when the next one comes, so the request's rows go out
    first. At its first eviction it reads the rest of the string and
    gives every id of every request its next use in one backward pass.
    """

    def __init__(self, requests: Iterable[tuple[np.ndarray, bool]],
                 num_nodes: int, hot: PulledRows, carry: bool = True):
        self._requests = iter(requests)
        self._carry = carry
        self._served: list[tuple[np.ndarray, bool]] = []  # until planned
        self._after: list[np.ndarray] | None = None  # per request, next uses
        self._t = 0  # the next request
        self._due: tuple[PulledRows, np.ndarray | None] | None = None
        self._hot = hot  # the hot set the cache holds
        self._slot = np.full(num_nodes, -1, dtype=np.int64)  # -1: not held
        self._rows = np.empty((0, hot.rows.shape[1]), dtype=np.float32)
        self._id_at = np.empty(0, dtype=np.int64)  # per slot; -1: free

    @property
    def kept(self) -> PulledRows:
        """The rows the store holds once it has evicted after the request
        served last."""
        self._evict()
        slots = np.flatnonzero(self._id_at >= 0)
        slots = slots[np.argsort(self._id_at[slots])]
        return PulledRows(self._id_at[slots], self._rows[slots])

    def serve(self, pull: Callable[..., np.ndarray],
              account: TransferAccount | None = None) -> PulledRows:
        """The rows of the next request; `pull` gets the ids that the
        store, and at a hot set the old hot set, does not hold and
        `account`. A hot set's rows replace the old hot set's."""
        self._evict()
        ids, is_hot = next(self._requests)
        ids = ids.astype(np.int64, copy=False)
        rows = np.empty((len(ids), self._rows.shape[1]), dtype=np.float32)
        slot = self._slot[ids]
        new = slot < 0
        rows[~new] = self._rows[slot[~new]]
        if is_hot:
            pos, got = find(self._hot.ids, ids)
            got &= new
            rows[got] = self._hot.rows[pos[got]]
            new &= ~got
        if new.any():
            rows[new] = pull(ids[new], account)
        served = PulledRows(ids, rows)
        if self._after is not None:
            self._next_use[ids] = self._after[self._t]
        elif self._carry:
            self._served.append((ids, is_hot))
        self._t += 1
        if self._carry:
            self._due = (self._hot, ids) if is_hot else (served, None)
        if is_hot:
            self._hot = served
        return served

    def _plan(self) -> None:
        """Size the store and give every id its next use after the
        requests served, from the whole reference string."""
        string = self._served + list(self._requests)
        self._requests = iter(string[self._t:])
        capacity = max((len(ids) for ids, is_hot in string if not is_hot),
                       default=0)
        self._rows = np.empty((capacity, self._rows.shape[1]), dtype=np.float32)
        self._id_at = np.full(capacity, -1, dtype=np.int64)
        self._never = len(string)
        self._next_use = np.full(len(self._slot), self._never,
                                 dtype=np.min_scalar_type(self._never))
        self._after = [None] * self._never
        for t in reversed(range(self._never)):
            self._after[t] = self._next_use[string[t][0]]
            self._next_use[string[t][0]] = t
        for t, (ids, _) in enumerate(self._served):
            self._next_use[ids] = self._after[t]
        self._served = []

    def _evict(self) -> None:
        """Keep the B rows, out of the store's and those the request served
        last brought, used soonest after that request."""
        if self._due is None:
            return
        if self._after is None:
            self._plan()
        extra, drop = self._due
        self._due = None
        held = self._id_at >= 0
        mark = np.zeros(len(self._slot), dtype=bool)
        mark[self._id_at[held]] = True
        mark[extra.ids] = True
        if drop is not None:
            mark[drop] = False
        ids = np.flatnonzero(mark)
        use = self._next_use[ids]
        ids, use = ids[use < self._never], use[use < self._never]
        capacity = len(self._id_at)
        if len(ids) > capacity:
            # unique keys: the next use, then the id
            key = use.astype(np.int64) * len(mark) + ids
            ids = ids[np.argpartition(key, capacity)[:capacity]]
        mark[:] = False
        mark[ids] = True
        gone = held.copy()
        gone[held] = ~mark[self._id_at[held]]
        self._slot[self._id_at[gone]] = -1
        self._id_at[gone] = -1
        new = ids[self._slot[ids] < 0]  # all of them rows of `extra`
        free = np.flatnonzero(self._id_at < 0)[:len(new)]
        self._rows[free] = extra.rows[np.searchsorted(extra.ids, new)]
        self._slot[new] = free
        self._id_at[free] = new


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
