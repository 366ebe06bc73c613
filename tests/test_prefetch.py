import sys
import threading
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
from gnnpipe.train import _lookahead


def no_cache(shard):
    """A cache with no rows: every remote row is a miss."""
    return FeatureCache(np.empty(0, dtype=np.int64),
                        np.empty((0, shard.feat_dim), dtype=np.float32))


def no_hot_sets(plan):
    return [np.empty(0, dtype=np.int64)] * plan.epochs


def run_ahead(plan, book, client, window=1):
    """Worker 0's lookahead items for the whole run, with no hot sets."""
    return _lookahead(plan, book, 0, client, no_hot_sets(plan), window)


class CountingClient:
    """Forwards pulls to `client`, counting them; the pull with index
    `fail_at`, if any, raises instead."""

    def __init__(self, client, fail_at=None):
        self.client, self.fail_at = client, fail_at
        self.feat_dim = client.feat_dim
        self.calls = 0

    def sync_pull(self, ids, account=None):
        self.calls += 1
        if self.calls - 1 == self.fail_at:
            raise ConnectionError("injected")
        return self.client.sync_pull(ids, account)


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
        acct = TransferAccount()
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])
        n_local = np.count_nonzero(owner[block.input_nodes] == 0)
        assert n_local + bundle.n_fallback == len(block.input_nodes)
        assert bundle.n_cache_hit == 0
        assert acct.nodes_pulled == bundle.n_fallback

    def test_cache_splits_remote_traffic(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        cache = build_steady(remote[:5], client)
        acct = TransferAccount()
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled)
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
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled)
        assert bundle.n_fallback == 0
        assert acct.snapshot() == (0, 0, 0)

    def test_local_rows_cost_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 1)
        acct = TransferAccount()
        cache = no_cache(shard)
        pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                             client, acct)
        assemble_bundle(block, owner, 0, shard, cache, pulled)
        n_remote = int((owner[block.input_nodes] != 0).sum())
        assert acct.nodes_pulled == n_remote
        assert shard.rpc_calls == 0

    def test_pulled_window_must_hold_every_miss(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        short = PulledRows(remote[1:], g.features[remote[1:]])
        with pytest.raises(LookupError, match="first id"):
            assemble_bundle(block, owner, 0, shard, no_cache(shard), short)


class RecordingClient:
    """Forwards pulls to `client`, recording the ids of each request."""

    def __init__(self, client):
        self.client, self.feat_dim = client, client.feat_dim
        self.requests = []

    def sync_pull(self, ids, account=None):
        self.requests.append(np.array(ids))
        return self.client.sync_pull(ids, account)


class TestPullWindowHeld:
    def remote(self, setup, e, i):
        g, plan, book, owner, shard, client = setup
        ids = np.unique(plan.input_sets[e][i])
        return ids[owner[ids] != 0]

    def test_pulls_only_what_is_not_held(self, setup):
        g, plan, book, owner, shard, client = setup
        sets = [plan.input_sets[0][i] for i in (2, 3)]
        hot = self.remote(setup, 0, 0)[::4]
        prev = pull_window([plan.input_sets[0][1]], owner, 0, hot, client)
        fresh = pull_window(sets, owner, 0, hot, client)
        rec, acct = RecordingClient(client), TransferAccount()
        got = pull_window(sets, owner, 0, hot, rec, acct, [prev])
        assert np.array_equal(got.ids, fresh.ids)
        assert got.rows.tobytes() == fresh.rows.tobytes()
        want = np.setdiff1d(fresh.ids, prev.ids)
        assert 0 < len(want) < len(fresh.ids)
        (asked,) = rec.requests
        assert np.array_equal(asked, want)
        assert acct.snapshot() == (1, len(want), len(want) * g.feat_dim * 4)

    def test_rows_come_from_window_and_hot_rows(self, setup):
        g, plan, book, owner, shard, client = setup
        misses = self.remote(setup, 0, 0)
        # the previous window holds the first half, an old hot set the rest
        half = len(misses) // 2
        prev = PulledRows(misses[:half], g.features[misses[:half]])
        old_hot = PulledRows(misses[half:], g.features[misses[half:]])
        rec, acct = RecordingClient(client), TransferAccount()
        got = pull_window([plan.input_sets[0][0]], owner, 0,
                          np.empty(0, np.int64), rec, acct, [prev, old_hot])
        assert np.array_equal(got.ids, misses)
        assert np.array_equal(got.rows, g.features[misses])
        assert rec.requests == []
        assert acct.snapshot() == (0, 0, 0)

    def test_all_held_sends_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        sets = [plan.input_sets[0][0]]
        prev = pull_window(sets, owner, 0, np.empty(0, np.int64), client)
        rec, acct = RecordingClient(client), TransferAccount()
        got = pull_window(sets, owner, 0, np.empty(0, np.int64), rec, acct,
                          [prev])
        assert rec.requests == [] and acct.snapshot() == (0, 0, 0)
        assert np.array_equal(got.rows, prev.rows)

    def test_rows_read_only(self, setup):
        g, plan, book, owner, shard, client = setup
        got = pull_window([plan.input_sets[0][0]], owner, 0,
                          np.empty(0, np.int64), client)
        assert len(got.rows) and not got.rows.flags.writeable
        with pytest.raises(ValueError):
            got.rows[0, 0] = 1.0


class TestLookaheadStream:
    N_HOT = 20

    def items(self, setup, window, carry=False):
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, self.N_HOT)
        if not carry:
            return hot_sets, list(_lookahead(plan, book, 0, client, hot_sets,
                                             window))
        fcache = build_steady(hot_sets[0], client)
        return hot_sets, list(_lookahead(plan, book, 0, client, hot_sets,
                                         window, fcache, None, fcache.rows))

    def bundles(self, setup, window, carry=False):
        """Every batch's block and bundle, each epoch against a cache of its
        hot set."""
        g, plan, book, owner, shard, client = setup
        hot_sets, items = self.items(setup, window, carry)
        caches = [build_steady(hot, client) for hot in hot_sets]
        blocks = [plan.block(la.epoch, la.batch) for la in items]
        return [(block, assemble_bundle(block, owner, 0, shard,
                                        caches[la.epoch], la.pulled))
                for block, la in zip(blocks, items)]

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_rows_bit_identical_to_depth_one(self, setup, depth):
        g, plan, book, owner, shard, client = setup
        one, windowed = self.bundles(setup, 1), self.bundles(setup, depth)
        assert len(one) == len(windowed) == sum(
            plan.num_batches(e) for e in range(plan.epochs))
        for (block_a, a), (block, b) in zip(one, windowed):
            assert (block_a.epoch, block_a.batch) == (block.epoch, block.batch)
            assert np.array_equal(b.rows, g.features[block.input_nodes])
            assert np.array_equal(a.rows, b.rows)
            assert (a.n_cache_hit, a.n_fallback) == (b.n_cache_hit, b.n_fallback)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_carried_rows_bit_identical_and_fewer_pulled(self, setup, depth):
        g, plan, book, owner, shard, client = setup
        windowed = self.bundles(setup, depth)
        carried = self.bundles(setup, depth, carry=True)
        for (block, a), (_, b) in zip(windowed, carried):
            assert np.array_equal(b.rows, g.features[block.input_nodes])
            assert a.rows.tobytes() == b.rows.tobytes()
            assert (a.n_cache_hit, a.n_fallback) == (b.n_cache_hit, b.n_fallback)
        pulled = [sum(la.account.nodes_pulled for la in self.items(
            setup, depth, carry)[1]) for carry in (False, True)]
        assert pulled[1] < pulled[0]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_window_traffic_rides_on_its_first_item(self, setup, depth):
        g, plan, book, owner, shard, client = setup
        _, items = self.items(setup, depth)
        assert [(la.epoch, la.batch) for la in items] == [
            (e, i) for e in range(plan.epochs) for i in range(plan.num_batches(e))]
        for e in range(plan.epochs):
            in_epoch = [la for la in items if la.epoch == e]
            rpcs = [la.account.rpc_calls for la in in_epoch]
            # one remote shard: one RPC per window, on the window's first batch
            assert rpcs == [int(la.batch % depth == 0) for la in in_epoch]
            assert sum(rpcs) == -(-plan.num_batches(e) // depth)
            for la in in_epoch:
                assert isinstance(la.account, TransferAccount)
                if la.batch % depth:
                    assert la.account.snapshot() == (0, 0, 0)
        # a window pulls the union of its batches' misses, never more rows
        _, one = self.items(setup, 1)
        assert (sum(la.account.nodes_pulled for la in items)
                <= sum(la.account.nodes_pulled for la in one))


class TestPrefetcher:
    def test_in_order_and_complete(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(run_ahead(plan, book, client), depth=3)
        seen = []
        while (la := pf.next_bundle()) is not None:
            seen.append((la.epoch, la.batch))
        assert seen == [(e, i) for e in range(plan.epochs)
                        for i in range(plan.num_batches(e))]
        assert pf.next_bundle() is None  # exhausted stays exhausted

    def test_rows_match_synchronous_assembly(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(run_ahead(plan, book, client), depth=2)
        n = 0
        for la in pf:
            block, cache = plan.block(la.epoch, la.batch), no_cache(shard)
            got = assemble_bundle(block, owner, 0, shard, cache, la.pulled)
            pulled = pull_window([block.input_nodes], owner, 0, cache.hot_ids,
                                 client)
            ref = assemble_bundle(block, owner, 0, shard, cache, pulled)
            assert np.array_equal(got.rows, ref.rows)
            n += 1
        assert n == sum(plan.num_batches(e) for e in range(plan.epochs))

    def test_bounded_runahead(self, setup):
        g, plan, book, owner, shard, client = setup
        # at window 1 every batch with a remote input costs one sync pull
        assert all((owner[ids] != 0).any() for ids in plan.input_sets[0][:4])
        counting = CountingClient(client)
        pf = Prefetcher(run_ahead(plan, book, counting), depth=2)
        deadline = time.monotonic() + 2
        while counting.calls < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # producer should now be blocked on the full queue
        # queue depth 2 plus the one item in the producer's hand
        assert counting.calls == 3
        pf.close()

    def test_error_propagates_with_batch(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(run_ahead(plan, book, CountingClient(client, fail_at=0)),
                        depth=2)
        with pytest.raises(PrefetchError) as exc:
            while pf.next_bundle() is not None:
                pass
        assert exc.value.batch == 0
        assert "injected" in str(exc.value.__cause__)
        pf.close()

    def test_error_batch_counts_from_run_start(self, setup):
        g, plan, book, owner, shard, client = setup
        # at window 1 every batch of epoch 0 pulls once, so epoch 1's first
        # pull is the pull with index num_batches(0)
        assert all((owner[ids] != 0).any() for ids in plan.input_sets[0])
        failing = CountingClient(client, fail_at=plan.num_batches(0))
        pf = Prefetcher(run_ahead(plan, book, failing), depth=2)
        seen = []
        with pytest.raises(PrefetchError) as exc:
            for la in pf:
                seen.append((la.epoch, la.batch))
        assert exc.value.batch == plan.num_batches(0)
        assert seen == [(0, i) for i in range(plan.num_batches(0))]
        pf.close()

    def test_close_idempotent_and_unblocks_producer(self, setup):
        g, plan, book, owner, shard, client = setup
        pf = Prefetcher(run_ahead(plan, book, client), depth=1)
        pf.next_bundle()
        pf.close()
        pf.close()
        assert pf.next_bundle() is None
        assert not pf._producer.is_alive()

    def test_bad_depth(self, setup):
        g, plan, book, owner, shard, client = setup
        with pytest.raises(ValueError):
            Prefetcher(run_ahead(plan, book, client), depth=0)
        with pytest.raises(ValueError):
            Prefetcher(run_ahead(plan, book, client), readers=0)


def wait_for(cond, seconds=2.0):
    deadline = time.monotonic() + seconds
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.1)  # let the producer go on if it is not blocked


class Counted:
    """Yields 0, 1, ... up to `n`, counting the items made; raises
    ValueError after `fail_after` items, if given."""

    def __init__(self, n, fail_after=None):
        self.n, self.fail_after = n, fail_after
        self.made = 0

    def __iter__(self):
        for x in range(self.n):
            if x == self.fail_after:
                raise ValueError("injected")
            self.made += 1
            yield x


def take_all(pf, reader, out):
    while (item := pf.take(reader)) is not None:
        out.append(item)


class TestSharedPrefetcher:
    def test_every_reader_takes_every_item(self):
        # more readers than cores and a short switch interval, so a lost
        # update to the ring or a reader's position would show
        items = [object() for _ in range(400)]
        pf = Prefetcher(iter(items), depth=2, readers=5)
        seen = [[] for _ in range(5)]
        threads = [threading.Thread(target=take_all, args=(pf, r, seen[r]))
                   for r in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in seen:
            assert len(got) == len(items)
            assert all(a is b for a, b in zip(got, items))
        assert pf._ring == {}  # every item dropped once all readers took it
        pf.close()

    def test_slowest_reader_bounds_the_producer(self):
        src = Counted(10)
        pf = Prefetcher(src, depth=2, readers=2)
        assert [pf.take(0), pf.take(0)] == [0, 1]
        wait_for(lambda: src.made >= 3)
        # reader 1 has taken nothing: the ring holds 2, the producer 1 more
        assert src.made == 3
        assert pf.take(1) == 0
        wait_for(lambda: src.made >= 4)
        assert src.made == 4
        assert [pf.take(0), pf.take(1), pf.take(1)] == [2, 1, 2]
        pf.close()
        assert not pf._producer.is_alive()

    def test_error_reaches_every_reader(self):
        pf = Prefetcher(Counted(10, fail_after=3), depth=4, readers=2)
        for r in range(2):
            assert [pf.take(r) for _ in range(3)] == [0, 1, 2]
            for _ in range(2):  # and again at every later take
                with pytest.raises(PrefetchError, match="item 3") as exc:
                    pf.take(r)
                assert exc.value.batch == 3
                assert isinstance(exc.value.__cause__, ValueError)
        pf.close()

    def test_close_wakes_a_waiting_reader(self):
        # reader 1 never reads, so reader 0 waits once it is `depth` ahead
        pf = Prefetcher(Counted(10), depth=2, readers=2)
        seen = []
        reader = threading.Thread(target=take_all, args=(pf, 0, seen))
        reader.start()
        wait_for(lambda: len(seen) >= 2)
        assert seen == [0, 1] and reader.is_alive()
        pf.close()
        reader.join(10)
        assert not reader.is_alive() and not pf._producer.is_alive()
        assert pf.take(1) is None
