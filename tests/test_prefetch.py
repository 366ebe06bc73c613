import itertools
import time

import numpy as np
import pytest

from gnnpipe.cache import FeatureCache, build_steady, epoch_hot_sets
from gnnpipe.partition import partition_edgecut
from gnnpipe.plan import generate_plan
from gnnpipe.prefetch import (PrefetchError, Prefetcher, PulledRows,
                              assemble_bundle, pull_window)
from gnnpipe.store import (InprocTransport, StoreClient, StoreShard,
                           TransferAccount)
from gnnpipe.train import _lookahead, _run_bundles


def no_cache(shard):
    """A cache with no rows: every remote row is a miss."""
    return FeatureCache(np.empty(0, dtype=np.int64),
                        np.empty((0, shard.feat_dim), dtype=np.float32))


def no_hot_sets(plan):
    return [np.empty(0, dtype=np.int64)] * plan.epochs


def run_stream(plan, book, shard, client, cache, hot_sets, window=1):
    """Worker 0's bundle stream for the run, over its own lookahead."""
    return _run_bundles(plan, book, 0, shard, client, cache, hot_sets,
                        _lookahead(plan, book, 0, client, hot_sets, window))


def epoch0(plan, book, shard, client):
    """Epoch 0's bundles of worker 0's run stream, with a zero-row cache."""
    return itertools.islice(
        run_stream(plan, book, shard, client, no_cache(shard), no_hot_sets(plan)),
        plan.num_batches(0))


@pytest.fixture()
def setup(small_graph):
    g = small_graph
    train = np.flatnonzero(g.train_mask)
    plan = generate_plan(g, train, [3, 5], 64, 2, s0=7)
    book = partition_edgecut(g, 2)
    owner = book.owner
    shards = [
        StoreShard(p, np.flatnonzero(owner == p).astype(np.int64),
                   g.features[owner == p])
        for p in range(2)
    ]
    client = StoreClient(owner, [InprocTransport(s) for s in shards], g.feat_dim)
    return g, plan, book, owner, shards[0], client


class TestAssembleBundle:
    def test_rows_match_features(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        cache = no_cache(shard)
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids, client)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled, None)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])
        n_local = np.count_nonzero(owner[block.input_nodes] == 0)
        assert n_local + bundle.n_fallback == len(block.input_nodes)
        assert bundle.n_cache_hit == 0

    def test_cache_splits_remote_traffic(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        cache = build_steady(remote[:5], client)
        acct = TransferAccount()
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled, acct)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])
        assert bundle.n_cache_hit == 5
        assert bundle.n_fallback == len(remote) - 5
        assert acct.nodes_pulled == bundle.n_fallback

    def test_full_cache_means_zero_fallback(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        cache = build_steady(remote, client)
        acct = TransferAccount()
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled, acct)
        assert bundle.n_fallback == 0
        assert acct.snapshot() == (0, 0, 0)

    def test_local_rows_cost_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 1)
        acct = TransferAccount()
        cache = no_cache(shard)
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        assemble_bundle(block, owner, 0, shard, cache, pulled, acct)
        n_remote = int((owner[block.input_nodes] != 0).sum())
        assert acct.nodes_pulled == n_remote
        assert shard.rpc_calls == 0

    def test_pulled_window_must_hold_every_miss(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        short = PulledRows(remote[1:], g.features[remote[1:]])
        with pytest.raises(LookupError, match="first id"):
            assemble_bundle(block, owner, 0, shard, no_cache(shard), short, None)


class TestLookaheadStream:
    N_HOT = 20

    def stream(self, setup, window):
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, self.N_HOT)
        return list(run_stream(plan, book, shard, client,
                               build_steady(hot_sets[0], client), hot_sets,
                               window))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_rows_bit_identical_to_depth_one(self, setup, depth):
        g, plan, book, owner, shard, client = setup
        one, windowed = self.stream(setup, 1), self.stream(setup, depth)
        assert len(one) == len(windowed) == sum(
            plan.num_batches(e) for e in range(plan.epochs))
        for a, b in zip(one, windowed):
            assert (a.block.epoch, a.block.batch) == (b.block.epoch, b.block.batch)
            assert np.array_equal(b.rows, g.features[b.block.input_nodes])
            assert np.array_equal(a.rows, b.rows)
            assert (a.n_cache_hit, a.n_fallback) == (b.n_cache_hit, b.n_fallback)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_window_traffic_rides_on_its_first_bundle(self, setup, depth):
        g, plan, book, owner, shard, client = setup
        bundles = self.stream(setup, depth)
        for e in range(plan.epochs):
            in_epoch = [b for b in bundles if b.block.epoch == e]
            rpcs = [b.fallback.rpc_calls for b in in_epoch]
            # one remote shard: one RPC per window, on the window's first batch
            assert rpcs == [int(b.block.batch % depth == 0) for b in in_epoch]
            assert sum(rpcs) == -(-plan.num_batches(e) // depth)
            for b in in_epoch:
                if b.block.batch % depth:
                    assert b.fallback.snapshot() == (0, 0, 0)
        # a window pulls the union of its batches' misses, never more rows
        one = self.stream(setup, 1)
        assert (sum(b.fallback.nodes_pulled for b in bundles)
                <= sum(b.fallback.nodes_pulled for b in one))


class TestPrefetcher:
    def test_in_order_and_complete(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(epoch0(plan, book, shard, client), depth=3)
        seen = []
        while (b := pf.next_bundle()) is not None:
            seen.append(b.block.batch)
        assert seen == list(range(plan.num_batches(0)))
        assert pf.next_bundle() is None  # exhausted stays exhausted

    def test_bundles_match_synchronous_assembly(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(epoch0(plan, book, shard, client), depth=2)
        i = 0
        while (b := pf.next_bundle()) is not None:
            block, cache = plan.block(0, i), no_cache(shard)
            pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                                 client)
            ref = assemble_bundle(block, owner, 0, shard, cache, pulled, None)
            assert np.array_equal(b.rows, ref.rows)
            i += 1

    def test_bounded_runahead(self, setup):
        g, plan, book, owner, shard, client = setup
        assembled = []
        orig = shard.rows_for_local

        def spy(ids):
            assembled.append(1)
            return orig(ids)

        shard.rows_for_local = spy
        pf = Prefetcher(epoch0(plan, book, shard, client), depth=2)
        deadline = time.monotonic() + 2
        while len(assembled) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # producer should now be blocked on the full queue
        # queue depth 2 plus the one bundle in the producer's hand
        assert len(assembled) <= 3
        pf.drain()
        shard.rows_for_local = orig

    def test_error_propagates_with_batch(self, setup):
        g, plan, book, owner, shard, client = setup

        class Boom:
            def sync_pull(self, ids, account=None):
                raise ConnectionError("injected")

        pf = Prefetcher(epoch0(plan, book, shard, Boom()), depth=2)
        with pytest.raises(PrefetchError) as exc:
            while pf.next_bundle() is not None:
                pass
        assert exc.value.batch == 0
        pf.drain()

    def test_error_batch_counts_from_run_start(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block

        def fail_in_epoch1(e, i):
            if e == 1:
                raise ConnectionError("injected")
            return block(e, i)

        plan.block = fail_in_epoch1
        pf = Prefetcher(run_stream(plan, book, shard, client, no_cache(shard),
                                   no_hot_sets(plan)), depth=2)
        with pytest.raises(PrefetchError) as exc:
            for _ in pf:
                pass
        assert exc.value.batch == plan.num_batches(0)
        pf.drain()

    def test_drain_idempotent_and_unblocks_producer(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(epoch0(plan, book, shard, client), depth=1)
        pf.next_bundle()
        pf.drain()
        pf.drain()
        assert pf.next_bundle() is None

    def test_bad_depth(self, setup):
        g, plan, book, owner, shard, client = setup
        with pytest.raises(ValueError):
            Prefetcher(epoch0(plan, book, shard, client), depth=0)
