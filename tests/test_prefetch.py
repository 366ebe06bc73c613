import sys
import threading
import time

import numpy as np
import pytest

from gnnpipe.cache import (FeatureCache, RowTable, build_steady,
                           epoch_hot_sets)
from gnnpipe.partition import PartitionBook, partition_edgecut
from gnnpipe.plan import generate_plan
from gnnpipe.prefetch import PrefetchError, Prefetcher, assemble_bundle
from gnnpipe.store import (InprocTransport, StoreClient, StoreShard,
                           TransferAccount)
from gnnpipe.train import _lookahead


def no_cache():
    """A cache with no hot ids: every remote row is a miss."""
    return FeatureCache(np.empty(0, dtype=np.int64))


def no_hot_sets(plan):
    return [np.empty(0, dtype=np.int64)] * plan.epochs


def remote_table(book, feat_dim):
    """Worker 0's empty row table."""
    return RowTable(book.owner != 0, feat_dim)


def batch_misses(plan, owner, hot_sets, la):
    """The ids of the remote inputs of `la`'s batch, for worker 0, that
    are outside its epoch's hot set, ascending."""
    ids = plan.input_sets[la.epoch][la.batch]
    return np.setdiff1d(ids[owner[ids] != 0], hot_sets[la.epoch])


def pull_misses(ids, owner, hot_ids, client, table, account=None):
    """Pull worker 0's rows of the remote `ids` outside `hot_ids` into
    `table`, all of them, as a window that carries nothing gets them."""
    miss = np.setdiff1d(ids[owner[ids] != 0], hot_ids)
    table.put(miss, client.sync_pull(miss, account))


def run_ahead(plan, book, client, table=None, window=1):
    """Worker 0's lookahead items for the whole run, with no hot sets,
    writing into `table` or a fresh one."""
    if table is None:
        table = remote_table(book, client.feat_dim)
    return _lookahead(plan, book, 0, client, no_cache(), table,
                      no_hot_sets(plan), window, carry=False)


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
        cache, table = no_cache(), remote_table(book, g.feat_dim)
        acct = TransferAccount()
        pull_misses(block.input_nodes, owner, cache.hot_ids, client, table,
                    acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, table)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])
        n_local = np.count_nonzero(owner[block.input_nodes] == 0)
        assert n_local + bundle.n_fallback == len(block.input_nodes)
        assert bundle.n_cache_hit == 0
        assert acct.nodes_pulled == bundle.n_fallback

    def test_cache_splits_remote_traffic(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        table = remote_table(book, g.feat_dim)
        cache = build_steady(remote[:5], client, table)
        acct = TransferAccount()
        pull_misses(block.input_nodes, owner, cache.hot_ids, client, table,
                    acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, table)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])
        assert bundle.n_cache_hit == 5
        assert bundle.n_fallback == len(remote) - 5
        assert acct.nodes_pulled == bundle.n_fallback

    def test_full_cache_means_zero_fallback(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        table = remote_table(book, g.feat_dim)
        cache = build_steady(remote, client, table)
        acct = TransferAccount()
        pull_misses(block.input_nodes, owner, cache.hot_ids, client, table,
                    acct)
        bundle = assemble_bundle(block, owner, 0, shard, cache, table)
        assert bundle.n_fallback == 0
        assert acct.snapshot() == (0, 0, 0)

    def test_local_rows_cost_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 1)
        acct = TransferAccount()
        cache, table = no_cache(), remote_table(book, g.feat_dim)
        pull_misses(block.input_nodes, owner, cache.hot_ids, client, table,
                    acct)
        assemble_bundle(block, owner, 0, shard, cache, table)
        n_remote = int((owner[block.input_nodes] != 0).sum())
        assert acct.nodes_pulled == n_remote
        assert shard.rpc_calls == 0

    def test_assembly_names_the_first_row_never_written(self, setup):
        # every remote row must be in the table, a hit (remote[1]) as
        # well as a miss (remote[3]); rows the block does not read may be
        # there too
        g, plan, book, owner, shard, client = setup
        block = plan.block(0, 0)
        remote = block.input_nodes[owner[block.input_nodes] != 0]
        extra = np.setdiff1d(np.flatnonzero(owner != 0), remote)[:1]
        assert len(remote) > 3 and len(extra) == 1
        cache = FeatureCache(remote[1:2])
        table = remote_table(book, g.feat_dim)
        held = np.union1d(np.delete(remote, [1, 3]), extra)
        table.put(held, g.features[held])
        with pytest.raises(LookupError,
                           match=f"2 rows .* first id {remote[1]}$"):
            assemble_bundle(block, owner, 0, shard, cache, table)
        table.put(remote, g.features[remote])
        bundle = assemble_bundle(block, owner, 0, shard, cache, table)
        assert np.array_equal(bundle.rows, g.features[block.input_nodes])


class RecordingClient:
    """Forwards pulls to `client`, recording the ids of each request, of
    each fill's request in `fills`, and of both, in order, in `sent`."""

    def __init__(self, client):
        self.client, self.feat_dim = client, client.feat_dim
        self.requests, self.fills, self.sent = [], [], []

    def sync_pull(self, ids, account=None):
        self.requests.append(np.array(ids))
        self.sent.append(self.requests[-1])
        return self.client.sync_pull(ids, account)

    def vector_pull(self, ids, account=None):
        self.fills.append(np.array(ids))
        self.sent.append(self.fills[-1])
        return self.client.vector_pull(ids, account)


def serve(table, ids, pull, account=None):
    """Write the rows of `ids` that `table` has never held, as a rapid
    request does; returns the ids pulled."""
    new = table.missing(ids)
    if len(new):
        table.put(new, pull(new, account))
    return new


class RecordingPlan:
    """Forwards to `plan`, recording each (epoch, batch) whose input set
    is read."""

    def __init__(self, plan):
        self._plan, self.read = plan, set()
        self.input_sets = [self._Epoch(self.read, e, sets)
                           for e, sets in enumerate(plan.input_sets)]

    def __getattr__(self, name):
        return getattr(self._plan, name)

    class _Epoch:
        def __init__(self, read, e, sets):
            self.read, self.e, self.sets = read, e, sets

        def __getitem__(self, i):
            self.read.add((self.e, i))
            return self.sets[i]


class TestPullOnce:
    def remote(self, setup, e, i):
        g, plan, book, owner, shard, client = setup
        ids = np.unique(plan.input_sets[e][i])
        return ids[owner[ids] != 0]

    def test_window_pulls_only_what_is_not_held(self, setup):
        g, plan, book, owner, shard, client = setup
        first = self.remote(setup, 0, 1)
        second = np.union1d(self.remote(setup, 0, 2), self.remote(setup, 0, 3))
        assert len(np.setdiff1d(first, second))
        table = RowTable(owner != 0, g.feat_dim)
        assert np.array_equal(serve(table, first, client.sync_pull), first)
        rec, acct = RecordingClient(client), TransferAccount()
        serve(table, second, rec.sync_pull, acct)
        assert table.take(second).tobytes() == g.features[second].tobytes()
        # only the rows of `second` the table never held were pulled
        want = np.setdiff1d(second, first)
        assert 0 < len(want) < len(second)
        (asked,) = rec.requests
        assert np.array_equal(asked, want)
        assert acct.snapshot() == (1, len(want), len(want) * g.feat_dim * 4)
        # every row stays, so asking for either window again pulls nothing
        assert len(serve(table, second, client.sync_pull)) == 0
        assert len(serve(table, first, client.sync_pull)) == 0
        assert table.take(first).tobytes() == g.features[first].tobytes()

    def test_fill_takes_held_and_old_hot_rows(self, setup):
        g, plan, book, owner, shard, client = setup
        misses = self.remote(setup, 0, 0)
        # a window holds the first half, the old hot set the rest
        half = len(misses) // 2
        old_hot = misses[half:]
        table = RowTable(owner != 0, g.feat_dim)
        table.put(old_hot, g.features[old_hot])
        serve(table, misses[:half], client.sync_pull)
        rec, acct = RecordingClient(client), TransferAccount()
        assert len(serve(table, misses, rec.vector_pull, acct)) == 0
        assert np.array_equal(table.take(misses), g.features[misses])
        assert rec.fills == []
        assert acct.snapshot() == (0, 0, 0)

    def test_all_held_sends_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        misses = self.remote(setup, 0, 0)
        table = RowTable(owner != 0, g.feat_dim)
        serve(table, misses, client.sync_pull)
        first = table.take(misses)
        rec, acct = RecordingClient(client), TransferAccount()
        serve(table, misses, rec.sync_pull, acct)
        assert rec.requests == [] and acct.snapshot() == (0, 0, 0)
        assert np.array_equal(table.take(misses), first)

    @pytest.mark.parametrize("carry", [True, False])
    def test_lookahead_reads_the_plan_lazily(self, setup, carry):
        # both modes read one window's input sets at a time
        g, plan, book, owner, shard, client = setup
        window = 3 if carry else 1
        hot_sets = epoch_hot_sets(plan, book, 0, lambda num_remote: 20)
        rec = RecordingPlan(plan)
        table = remote_table(book, g.feat_dim)
        items = _lookahead(rec, book, 0, client,
                           build_steady(hot_sets[0], client, table), table,
                           hot_sets, window, carry)
        assert 2 * window <= plan.num_batches(0)
        assert rec.read == set()
        next(items)
        assert rec.read == {(0, i) for i in range(window)}
        for _ in range(window):
            next(items)
        assert rec.read == {(0, i) for i in range(2 * window)}

    def test_rows_taken_are_a_copy(self, setup):
        # writing the rows taken leaves the table's
        g, plan, book, owner, shard, client = setup
        ids = self.remote(setup, 0, 0)
        table = RowTable(owner != 0, g.feat_dim)
        table.put(ids, client.sync_pull(ids))
        assert len(ids)
        taken = table.take(ids)
        taken[:] = -1.0
        assert table.take(ids).tobytes() == g.features[ids].tobytes()

    def test_take_names_a_row_never_written(self, setup):
        g, plan, book, owner, shard, client = setup
        ids = self.remote(setup, 0, 0)
        table = RowTable(owner != 0, g.feat_dim)
        table.put(ids[1:], g.features[ids[1:]])
        with pytest.raises(LookupError, match=f"first id {ids[0]}"):
            table.take(ids)

    @pytest.mark.parametrize("depth, n_hot", [(1, 20), (3, 20), (3, 0)])
    def test_lookahead_pulls_each_row_once(self, setup, depth, n_hot):
        # no id is pulled twice, and the ids pulled, with H_0's, are the
        # distinct remote ids of the batches' input sets and hot sets,
        # each pulled by the first request that names it: each later
        # hot set, then the epoch's windows, the union of their batches'
        # remote inputs
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, lambda num_remote: n_hot)
        table = remote_table(book, g.feat_dim)
        fcache = build_steady(hot_sets[0], client, table)
        rec = RecordingClient(client)
        items = []
        for la in _lookahead(plan, book, 0, rec, fcache, table, hot_sets,
                             depth, carry=True):
            # the batch's misses are in the table once its item comes
            miss = batch_misses(plan, owner, hot_sets, la)
            assert table.take(miss).tobytes() == g.features[miss].tobytes()
            items.append(la)
        requests = []  # (is a fill, ids), in the order they are served
        for e in range(plan.epochs):
            if e:
                requests.append((True, hot_sets[e]))
            for first in range(0, plan.num_batches(e), depth):
                ids = np.unique(np.concatenate(
                    plan.input_sets[e][first:first + depth]))
                requests.append((False, ids[owner[ids] != 0]))
        seen, want = set(hot_sets[0].tolist()), []
        for fill, ids in requests:
            new = sorted(set(ids.tolist()) - seen)
            seen |= set(new)
            if new:
                want.append((fill, new))
        assert [r.tolist() for r in rec.sent] == [ids for _, ids in want]
        assert [r.tolist() for r in rec.fills] == [
            ids for fill, ids in want if fill]
        pulled = np.concatenate([hot_sets[0], *rec.sent])
        assert len(np.unique(pulled)) == len(pulled)
        every = np.unique(np.concatenate(
            [*hot_sets, *(ids for e in range(plan.epochs)
                          for ids in plan.input_sets[e])]))
        assert np.array_equal(np.sort(pulled), every[owner[every] != 0])
        assert sum(la.account.nodes_pulled for la in items) == sum(
            len(ids) for fill, ids in want if not fill)
        assert np.array_equal(table.missing(every[owner[every] != 0]), [])

    def test_one_partition_sends_nothing(self, setup):
        g, plan, book, owner, shard, client = setup
        alone = PartitionBook(1, np.zeros(g.num_nodes, dtype=np.int64))
        rec = RecordingClient(client)
        table = RowTable(alone.owner != 0, g.feat_dim)
        items = list(_lookahead(plan, alone, 0, rec, no_cache(), table,
                                no_hot_sets(plan), 3, carry=True))
        assert len(items) == sum(plan.num_batches(e) for e in range(plan.epochs))
        assert rec.requests == rec.fills == []
        assert all(la.account.snapshot() == (0, 0, 0) for la in items)
        assert len(table.take(np.empty(0, dtype=np.int64))) == 0
        assert not table._written.any()


class TestLookaheadStream:
    N_HOT = 20

    def items(self, setup, window, carry=False, assemble=False):
        """The hot sets and every lookahead item, in order, checking that
        each batch's remote inputs, its misses among them, are in the
        table, with the shard's rows, once its item comes. With
        `assemble`, each item gives way to its block and the bundle
        assembled as it comes, against a cache of its epoch's hot set,
        each cache writing its hot rows into the table first."""
        g, plan, book, owner, shard, client = setup
        hot_sets = epoch_hot_sets(plan, book, 0, lambda num_remote: self.N_HOT)
        table = remote_table(book, g.feat_dim)
        caches = [build_steady(hot, client, table)
                  for hot in (hot_sets if assemble else hot_sets[:1])]
        out = []
        for la in _lookahead(plan, book, 0, client, caches[0], table,
                             hot_sets, window, carry):
            miss = batch_misses(plan, owner, hot_sets, la)
            assert table.take(miss).tobytes() == g.features[miss].tobytes()
            ids = plan.input_sets[la.epoch][la.batch]
            remote = ids[owner[ids] != 0]
            assert table.take(remote).tobytes() == g.features[remote].tobytes()
            if assemble:
                block = plan.block(la.epoch, la.batch)
                la = block, assemble_bundle(block, owner, 0, shard,
                                            caches[la.epoch], table)
            out.append(la)
        return hot_sets, out

    def bundles(self, setup, window, carry=False):
        """Every batch's block and bundle."""
        return self.items(setup, window, carry, assemble=True)[1]

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
    @pytest.mark.parametrize("carry", [False, True])
    def test_each_item_comes_once_its_misses_are_held(self, setup, depth,
                                                      carry):
        # each batch's remote inputs outside the epoch's hot set are in
        # the table, with the shard's rows, when its item comes (`items`
        # checks it), and every batch gets one item
        g, plan, book, owner, shard, client = setup
        hot_sets, items = self.items(setup, depth, carry)
        assert [(la.epoch, la.batch) for la in items] == [
            (e, i) for e in range(plan.epochs) for i in range(plan.num_batches(e))]
        assert any(len(batch_misses(plan, owner, hot_sets, la)) for la in items)

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
        table = remote_table(book, g.feat_dim)
        pf = Prefetcher(run_ahead(plan, book, client, table), depth=2)
        n = 0
        for la in pf:
            block, cache = plan.block(la.epoch, la.batch), no_cache()
            got = assemble_bundle(block, owner, 0, shard, cache, table)
            ref_table = remote_table(book, g.feat_dim)
            pull_misses(block.input_nodes, owner, cache.hot_ids, client,
                        ref_table)
            ref = assemble_bundle(block, owner, 0, shard, cache, ref_table)
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
