"""Feature bundles and the asynchronous prefetcher.

`assemble_bundle` gathers one batch's feature rows: local shard reads,
cache hits and fallback pulls of the cache misses, and records the
fallback traffic in the bundle. A cache with no rows, as in baseline
mode, makes every remote row a miss. `Prefetcher` runs any iterator of
bundles, such as a worker's whole-run stream, on a single producer
thread into a bounded queue of depth Q; the trainer consumes them
strictly in order. With the producer holding at most one bundle in hand,
at most Q+1 assembled bundles exist beyond the steady cache at any
instant.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cache import FeatureCache
from .sampler import ComputationBlock
from .store import StoreClient, StoreShard, TransferAccount


class PrefetchError(RuntimeError):
    """The bundle iterator raised after yielding `batch` bundles.

    `batch` counts from the start of the iterator; for a worker's run
    stream that is the start of the run, not of the epoch.
    """

    def __init__(self, batch: int, cause: BaseException):
        super().__init__(f"bundle assembly failed at bundle {batch} of the "
                         f"stream: {cause}")
        self.batch = batch
        self.__cause__ = cause


@dataclass
class FeatureBundle:
    epoch: int
    batch: int
    block: ComputationBlock
    rows: np.ndarray  # |input_nodes| x feat_dim, aligned to input_nodes
    n_cache_hit: int
    n_fallback: int
    fallback: TransferAccount  # traffic of this bundle's fallback pulls


def assemble_bundle(
    block: ComputationBlock,
    owner: np.ndarray,
    my_part: int,
    shard: StoreShard,
    client: StoreClient,
    cache: FeatureCache,
    account: TransferAccount | None = None,
) -> FeatureBundle:
    """Gather the feature rows a block needs, in input_nodes order.

    Locally owned rows are read straight from the worker's shard memory
    (zero RPC). Remote rows go through the cache; only the misses fall
    back to a sync pull, so the fallback account is charged
    node-granularly. That account, a fresh one when `account` is
    None, travels with the bundle as `bundle.fallback`.
    """
    if account is None:
        account = TransferAccount()
    ids = block.input_nodes
    rows = np.empty((len(ids), shard.feat_dim), dtype=np.float32)
    local_pos = np.flatnonzero(owner[ids] == my_part)
    remote_pos = np.flatnonzero(owner[ids] != my_part)
    if len(local_pos):
        rows[local_pos] = shard.rows_for_local(ids[local_pos])
    n_hit = n_fallback = 0
    if len(remote_pos):
        res = cache.lookup(ids[remote_pos])
        if len(res.found_pos):
            rows[remote_pos[res.found_pos]] = res.found_rows
        if len(res.missing_pos):
            rows[remote_pos[res.missing_pos]] = client.sync_pull(
                res.missing_ids, account
            )
        n_hit = len(res.found_pos)
        n_fallback = len(res.missing_pos)
    return FeatureBundle(
        epoch=block.epoch,
        batch=block.batch,
        block=block,
        rows=rows,
        n_cache_hit=n_hit,
        n_fallback=n_fallback,
        fallback=account,
    )


class Prefetcher:
    """Runs a bundle iterator ahead of the trainer on one producer thread.

    At most `depth` bundles wait in the queue, plus the one the producer
    holds while blocked on a full queue. Everything the iterator does,
    including any cache turnover between epochs, runs on that thread.
    """

    def __init__(self, bundles: Iterable[FeatureBundle], depth: int = 3):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._exhausted = False
        self._producer = threading.Thread(target=self._produce, args=(bundles,),
                                          daemon=True)
        self._producer.start()

    def _produce(self, bundles: Iterable[FeatureBundle]) -> None:
        n = 0
        try:
            for bundle in bundles:
                self._put(bundle)
                if self._stop.is_set():
                    return
                n += 1
            self._put(None)  # end-of-stream marker
        except BaseException as exc:  # surfaced on the consumer side
            self._put(PrefetchError(n, exc))

    def _put(self, item) -> None:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return
            except queue.Full:
                continue

    def next_bundle(self) -> FeatureBundle | None:
        """Block for the next in-order bundle; None once the stream is done."""
        if self._exhausted:
            return None
        item = self._queue.get()
        if item is None:
            self._exhausted = True
            return None
        if isinstance(item, PrefetchError):
            self._exhausted = True
            raise item
        return item

    def __iter__(self) -> Iterator[FeatureBundle]:
        while (bundle := self.next_bundle()) is not None:
            yield bundle

    def drain(self) -> None:
        """Stop the producer and discard anything buffered; idempotent."""
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._producer.join()
        self._exhausted = True
