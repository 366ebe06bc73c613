import functools
import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import min_carry
from gnnpipe.cache import FeatureCache, build_steady, epoch_hot_sets
from gnnpipe.partition import PartitionBook, partition_edgecut
from gnnpipe.plan import generate_plan
from gnnpipe.prefetch import (CarryStore, PrefetchError, Prefetcher,
                              PulledRows, assemble_bundle)
from gnnpipe.store import (InprocTransport, StoreClient, StoreShard,
                           TransferAccount)
from gnnpipe.train import _lookahead


def no_cache(shard):
    """A cache with no rows: every remote row is a miss."""
    return FeatureCache(np.empty(0, dtype=np.int64),
                        np.empty((0, shard.feat_dim), dtype=np.float32))


def no_hot_sets(plan):
    return [np.empty(0, dtype=np.int64)] * plan.epochs


def pull_misses(ids, owner, hot_ids, client, account=None):
    """Worker 0's rows of the remote `ids` outside `hot_ids`, all pulled,
    as a window that carries nothing gets them."""
    miss = np.setdiff1d(ids[owner[ids] != 0], hot_ids)
    return PulledRows(miss, client.sync_pull(miss, account))


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
        pulled = pull_misses(block.input_nodes, owner, cache.hot_ids, client,
                             acct)
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
        pulled = pull_misses(block.input_nodes, owner, cache.hot_ids, client,
                             acct)
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
        pulled = pull_misses(block.input_nodes, owner, cache.hot_ids, client,
                             acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, pulled)
        assert bundle.n_fallback == 0
        assert acct.snapshot() == (0, 0, 0)

    def test_local_rows_cost_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 1)
        acct = TransferAccount()
        cache = no_cache(shard)
        pulled = pull_misses(block.input_nodes, owner, cache.hot_ids, client,
                             acct)
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
    """Forwards pulls to `client`, recording the ids of each request, and
    of each fill's request in `fills`."""

    def __init__(self, client):
        self.client, self.feat_dim = client, client.feat_dim
        self.requests, self.fills = [], []

    def sync_pull(self, ids, account=None):
        self.requests.append(np.array(ids))
        return self.client.sync_pull(ids, account)

    def vector_pull(self, ids, account=None):
        self.fills.append(np.array(ids))
        return self.client.vector_pull(ids, account)


def no_rows(feat_dim):
    return PulledRows(np.empty(0, np.int64), np.empty((0, feat_dim), np.float32))


def brute_force_pulls(requests, fills, first_hot, capacity: int) -> int:
    """The fewest rows any store of `capacity` rows pulls over `requests`,
    by exhaustive search over every set it could keep after each request:
    any rows it holds, the request's or, at a fill, the previous hot
    set's."""
    sets = [frozenset(r) for r in requests]
    hots, hot = [], frozenset(first_hot)  # the hot set before each request
    for r, fill in zip(sets, fills):
        hots.append(hot)
        hot = r if fill else hot

    @functools.cache
    def fewest(t, held):
        if t == len(sets):
            return 0
        lent = hots[t] if fills[t] else frozenset()
        pool = sorted(held | sets[t] | lent)
        return len(sets[t] - held - lent) + min(
            fewest(t + 1, frozenset(keep))
            for k in range(min(capacity, len(pool)) + 1)
            for keep in itertools.combinations(pool, k))

    return fewest(0, frozenset())


@st.composite
def reference_strings(draw):
    """(num ids, H_0, requests, fills): epochs of a hot set, a fill for
    each after the first, then one to three windows of misses outside it."""
    n = draw(st.integers(1, 6))
    some = st.frozensets(st.integers(0, n - 1))
    hot = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=2),
                        min_size=1, max_size=3))
    requests, fills = [], []
    for e, h in enumerate(hot):
        if e:
            requests.append(h)
            fills.append(True)
        for miss in draw(st.lists(some, min_size=1, max_size=3)):
            requests.append(miss - h)
            fills.append(False)
    return n, hot[0], requests, fills


class TestCarryStore:
    def remote(self, setup, e, i):
        g, plan, book, owner, shard, client = setup
        ids = np.unique(plan.input_sets[e][i])
        return ids[owner[ids] != 0]

    def test_window_pulls_only_what_is_not_held(self, setup):
        g, plan, book, owner, shard, client = setup
        hot = self.remote(setup, 0, 0)[::4]
        first = np.setdiff1d(self.remote(setup, 0, 1), hot)
        second = np.setdiff1d(np.union1d(self.remote(setup, 0, 2),
                                         self.remote(setup, 0, 3)), hot)
        store = CarryStore([(first, False), (second, False)], g.num_nodes,
                           no_rows(g.feat_dim))
        store.serve(client.sync_pull)
        # the rows used again, and no other, stay
        assert np.array_equal(store.kept.ids, np.intersect1d(first, second))
        rec, acct = RecordingClient(client), TransferAccount()
        got = store.serve(rec.sync_pull, acct)
        assert np.array_equal(got.ids, second)
        assert got.rows.tobytes() == g.features[second].tobytes()
        want = np.setdiff1d(second, first)
        assert 0 < len(want) < len(second)
        (asked,) = rec.requests
        assert np.array_equal(asked, want)
        assert acct.snapshot() == (1, len(want), len(want) * g.feat_dim * 4)
        assert len(store.kept.ids) == 0  # no later request

    def test_fill_copies_store_and_old_hot_rows(self, setup):
        g, plan, book, owner, shard, client = setup
        misses = self.remote(setup, 0, 0)
        # a window holds the first half, the old hot set the rest
        half = len(misses) // 2
        old_hot = PulledRows(misses[half:], g.features[misses[half:]])
        store = CarryStore([(misses[:half], False), (misses, True)],
                           g.num_nodes, old_hot)
        store.serve(client.sync_pull)
        rec, acct = RecordingClient(client), TransferAccount()
        got = store.serve(rec.vector_pull, acct)
        assert np.array_equal(got.ids, misses)
        assert np.array_equal(got.rows, g.features[misses])
        assert rec.fills == []
        assert acct.snapshot() == (0, 0, 0)

    def test_all_held_sends_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        misses = self.remote(setup, 0, 0)
        store = CarryStore([(misses, False), (misses, False)], g.num_nodes,
                           no_rows(g.feat_dim))
        first = store.serve(client.sync_pull)
        rec, acct = RecordingClient(client), TransferAccount()
        got = store.serve(rec.sync_pull, acct)
        assert rec.requests == [] and acct.snapshot() == (0, 0, 0)
        assert np.array_equal(got.rows, first.rows)

    @pytest.mark.parametrize("carry", [True, False])
    def test_reads_the_string_only_after_the_first_request(self, setup, carry):
        # the first request's rows go out before the store plans; without
        # carry it reads each request only as it serves it
        g, plan, book, owner, shard, client = setup
        requests = [(self.remote(setup, 0, i), False) for i in range(4)]
        read = []

        def string():
            for request in requests:
                read.append(request)
                yield request

        store = CarryStore(string(), g.num_nodes, no_rows(g.feat_dim), carry)
        assert read == []
        store.serve(client.sync_pull)
        assert len(read) == 1
        store.serve(client.sync_pull)
        assert len(read) == (4 if carry else 2)

    def test_rows_read_only(self, setup):
        g, plan, book, owner, shard, client = setup
        store = CarryStore([(self.remote(setup, 0, 0), False)], g.num_nodes,
                           no_rows(g.feat_dim), carry=False)
        got = store.serve(client.sync_pull)
        assert len(got.rows) and not got.rows.flags.writeable
        with pytest.raises(ValueError):
            got.rows[0, 0] = 1.0

    @settings(max_examples=300, deadline=None)
    @given(reference_strings())
    # all hot sets empty; no request names a row (one partition)
    @example((4, frozenset(), [frozenset({0, 1}), frozenset(), frozenset({1, 2}),
                               frozenset({0})], [False, True, False, False]))
    @example((2, frozenset(), [frozenset(), frozenset()], [False, False]))
    def test_pulls_the_fewest_rows(self, case):
        # per request: the rows of the shard, the ids min_carry pulls in
        # at most one pull, at most B rows kept, the lower id kept at a
        # tie; over the string, the brute-force optimum
        n, first_hot, requests, fills = case
        features = np.arange(2 * n, dtype=np.float32).reshape(n, 2)
        capacity = max((len(r) for r, fill in zip(requests, fills) if not fill),
                       default=0)
        arrays = [np.array(sorted(r), dtype=np.int64) for r in requests]
        h0 = np.array(sorted(first_hot), dtype=np.int64)
        store = CarryStore(zip(arrays, fills), n, PulledRows(h0, features[h0]))
        want_pulled, want_kept = min_carry(requests, fills, first_hot, capacity)
        asked = []

        def pull(ids, account=None):
            asked.append(ids.tolist())
            return features[ids]

        for ids, fill, want, kept in zip(arrays, fills, want_pulled, want_kept):
            n_asked = len(asked)
            got = store.serve(pull)
            assert np.array_equal(got.ids, ids)
            assert got.rows.tobytes() == features[ids].tobytes()
            assert asked[n_asked:] == ([sorted(want)] if want else [])
            assert len(store.kept.ids) <= capacity
            assert set(store.kept.ids.tolist()) == kept
            assert store.kept.rows.tobytes() == features[store.kept.ids].tobytes()
        assert sum(map(len, asked)) == brute_force_pulls(
            requests, fills, first_hot, capacity)

    @pytest.mark.parametrize("depth, n_hot", [(1, 20), (3, 20), (3, 0)])
    def test_lookahead_pulls_what_min_carry_pulls(self, setup, depth, n_hot):
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, lambda num_remote: n_hot)
        fcache = build_steady(hot_sets[0], client)
        rec = RecordingClient(client)
        items = list(_lookahead(plan, book, 0, rec, hot_sets, depth,
                                fcache if n_hot else None, None, fcache.rows))
        requests, fills = [], []
        for e in range(plan.epochs):
            if e and n_hot:
                requests.append(hot_sets[e])
                fills.append(True)
            for first in range(0, plan.num_batches(e), depth):
                ids = np.unique(np.concatenate(
                    plan.input_sets[e][first:first + depth]))
                requests.append(np.setdiff1d(ids[owner[ids] != 0], hot_sets[e]))
                fills.append(False)
        capacity = max(len(r) for r, fill in zip(requests, fills) if not fill)
        pulled, _ = min_carry(requests, fills, hot_sets[0], capacity)
        want = [sorted(p) for p, fill in zip(pulled, fills) if not fill and p]
        assert [r.tolist() for r in rec.requests] == want
        want = [sorted(p) for p, fill in zip(pulled, fills) if fill and p]
        assert [r.tolist() for r in rec.fills] == want
        assert sum(la.account.nodes_pulled for la in items) == sum(
            len(p) for p, fill in zip(pulled, fills) if not fill)
        for la in items:
            assert la.pulled.rows.tobytes() == g.features[la.pulled.ids].tobytes()

    def test_one_partition_sends_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        alone = PartitionBook(1, np.zeros(g.num_nodes, dtype=np.int64))
        rec = RecordingClient(client)
        items = list(_lookahead(plan, alone, 0, rec, no_hot_sets(plan), 3,
                                None, None, np.empty((0, g.feat_dim), np.float32)))
        assert len(items) == sum(plan.num_batches(e) for e in range(plan.epochs))
        assert rec.requests == rec.fills == []
        assert all(len(la.pulled.ids) == 0 and la.account.snapshot() == (0, 0, 0)
                   for la in items)


class TestLookaheadStream:
    N_HOT = 20

    def items(self, setup, window, carry=False):
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, lambda num_remote: self.N_HOT)
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
            pulled = pull_misses(block.input_nodes, owner, cache.hot_ids,
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


class TestPrefetcherRing:
    def test_reader_takes_every_item_in_order(self):
        # a short switch interval, so a lost update to the ring would show
        items = [object() for _ in range(400)]
        pf = Prefetcher(iter(items), depth=2)
        seen = []
        reader = threading.Thread(target=lambda: seen.extend(pf))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            reader.join(20)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert len(seen) == len(items)
        assert all(a is b for a, b in zip(seen, items))
        assert not pf._ring
        pf.close()

    def test_ring_bounds_the_producer(self):
        src = Counted(10)
        pf = Prefetcher(src, depth=2)
        wait_for(lambda: src.made >= 3)
        # the ring holds 2, the producer 1 more
        assert src.made == 3
        assert pf.next_bundle() == 0
        wait_for(lambda: src.made >= 4)
        assert src.made == 4
        assert [pf.next_bundle(), pf.next_bundle()] == [1, 2]
        pf.close()
        assert not pf._producer.is_alive()

    def test_error_at_every_later_call(self):
        pf = Prefetcher(Counted(10, fail_after=3), depth=4)
        assert [pf.next_bundle() for _ in range(3)] == [0, 1, 2]
        for _ in range(2):
            with pytest.raises(PrefetchError, match="item 3") as exc:
                pf.next_bundle()
            assert exc.value.batch == 3
            assert isinstance(exc.value.__cause__, ValueError)
        pf.close()
