"""Feature bundles, lookahead pulls and the asynchronous prefetcher.

The precomputed plan names every batch's input nodes, and the hot set of
its epoch, before training starts, so a rapid worker's requests for
rows, each later epoch's hot set and each window's cache misses, form a
reference string fixed in advance. `CarryStore` is one row table over
the ids the worker does not own: it holds the current hot set and,
between requests, the rows used soonest again (Belady's MIN). A request
pulls only the rows the table does not hold, in one pull, one RPC per
owning shard with a new row. A `Lookahead` is one batch's cache misses,
taken from the table as a copy, with the traffic charged to that batch:
its window's pull on the window's first batch, none on the others.
`assemble_bundle` gathers one batch's feature rows with no I/O: local
shard reads, cache hits, and the misses its item holds. A cache with no
rows, as in baseline mode, makes every remote row a miss. `Prefetcher`
runs any iterator on a single producer thread into a bounded ring of
depth Q that one reader takes from in order: a worker's run of lookahead
items, read by its training loop.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cache import FeatureCache
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
class PulledRows:
    """Feature rows gathered ahead, for one batch's cache misses or a hot
    set; read-only, since the producer hands them to the loop."""

    ids: np.ndarray  # sorted ascending
    rows: np.ndarray  # aligned with ids

    def __post_init__(self):
        self.rows.setflags(write=False)


@dataclass
class Lookahead:
    """One batch's cache misses, gathered ahead, and the traffic charged
    to the batch: its window's pull on the window's first batch and none
    on the others."""

    epoch: int
    batch: int
    pulled: PulledRows
    account: TransferAccount


class CarryStore:
    """One row table for the ids a worker does not own; with `carry`,
    kept by Belady's MIN over the requests the plan fixes.

    `requests` is the worker's reference string after its first hot
    set H_0, `hot`, in the order the lookahead sends them: each later
    epoch's hot set, then the miss set of each of the epoch's windows,
    each as (ids sorted ascending in any integer dtype, whether it is a
    hot set). `remote` marks the ids the worker does not own; the table
    has one row for each, R rows. `serve` serves the requests in order:
    it pulls the request's ids the table does not hold, in one pull and
    none when it holds them all, and writes them into their rows;
    `take` gathers held rows.

    The table holds the current hot set, H_0 from the start, and with
    `carry` up to B more rows, B the largest window's miss count: after
    each request it keeps the B rows whose next use comes soonest, ties
    to the lower id, out of those it holds outside the current hot set,
    and never a row no later request names. At a hot set that pool
    includes the previous hot set. Without `carry` it holds nothing
    between requests and pulls every row of every request.

    The store reads each request only as it serves it, and evicts after
    a request when the next one comes, so the request's rows can be
    taken until then. At its first eviction it reads the rest of the
    string and gives every id of every request its next use in one
    backward pass.
    """

    def __init__(self, requests: Iterable[tuple[np.ndarray, bool]],
                 remote: np.ndarray, hot: PulledRows, carry: bool = True):
        self._requests = iter(requests)
        self._carry = carry
        self._served: list[tuple[np.ndarray, bool]] = []  # until planned
        self._after: list[np.ndarray] | None = None  # per request, next uses
        self._t = 0  # the next request
        self._due = False  # a request was served since the last eviction
        self._rank = np.cumsum(remote) - 1  # an id's row, if it is remote
        self._rows = np.empty((np.count_nonzero(remote), hot.rows.shape[1]),
                              dtype=np.float32)
        self._held = np.zeros(len(remote), dtype=bool)
        self._hot = hot.ids[:0]  # the hot set the cache holds
        if carry:
            self._hot = hot.ids
            self._rows[self._rank[hot.ids]] = hot.rows
        self._held[self._hot] = True

    @property
    def kept(self) -> PulledRows:
        """The carried rows, outside the hot set, that the store holds
        once it has evicted after the request served last."""
        self._evict()
        carried = self._held.copy()
        carried[self._hot] = False
        ids = np.flatnonzero(carried)
        return PulledRows(ids, self.take(ids))

    def serve(self, pull: Callable[..., np.ndarray],
              account: TransferAccount | None = None) -> None:
        """Hold every row of the next request; `pull` gets the ids the
        store does not hold and `account`. A hot set replaces the
        current one."""
        self._evict()
        ids, is_hot = next(self._requests)
        new = ids[~self._held[ids]].astype(np.int64, copy=False)
        if len(new):
            self._rows[self._rank[new]] = pull(new, account)
            self._held[new] = True
        if self._after is not None:
            self._next_use[ids] = self._after[self._t]
        elif self._carry:
            self._served.append((ids, is_hot))
        self._t += 1
        self._due = True
        if is_hot:
            self._hot = ids

    def take(self, ids: np.ndarray) -> np.ndarray:
        """A copy of the rows of `ids`; raises LookupError if the store
        does not hold one of them."""
        held = self._held[ids]
        if not held.all():
            raise LookupError(f"{np.count_nonzero(~held)} rows are not held, "
                              f"first id {ids[~held][0]}")
        return self._rows[self._rank[ids]]

    def _plan(self) -> None:
        """Find B and give every id its next use after the requests
        served, from the whole reference string."""
        string = self._served + list(self._requests)
        self._requests = iter(string[self._t:])
        self._capacity = max((len(ids) for ids, is_hot in string
                              if not is_hot), default=0)
        self._never = len(string)
        self._next_use = np.full(len(self._held), self._never,
                                 dtype=np.min_scalar_type(self._never))
        self._after = [None] * self._never
        for t in reversed(range(self._never)):
            self._after[t] = self._next_use[string[t][0]]
            self._next_use[string[t][0]] = t
        for t, (ids, _) in enumerate(self._served):
            self._next_use[ids] = self._after[t]
        self._served = []

    def _evict(self) -> None:
        """Hold the hot set and, with carry, the B rows outside it used
        soonest after the request served last."""
        if not self._due:
            return
        self._due = False
        keep = self._hot[:0]
        if self._carry:
            if self._after is None:
                self._plan()
            self._held[self._hot] = False
            pool = np.flatnonzero(self._held)
            use = self._next_use[pool]
            keep, use = pool[use < self._never], use[use < self._never]
            if len(keep) > self._capacity:
                # unique keys: the next use, then the id
                key = use.astype(np.int64) * len(self._held) + keep
                keep = keep[np.argpartition(key, self._capacity)[:self._capacity]]
        self._held[:] = False
        self._held[keep] = True
        self._held[self._hot] = True


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
    `pulled`, which must hold exactly them, ascending, or this raises
    LookupError.
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
    if not np.array_equal(pulled.ids, ids[miss_pos]):
        raise LookupError(f"the lookahead item holds {len(pulled.ids)} rows, "
                          f"not exactly the block's {len(miss_pos)} misses")
    rows[miss_pos] = pulled.rows
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
