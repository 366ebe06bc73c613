import threading

import numpy as np
import pytest

from gnnpipe import cache as cache_mod
from gnnpipe.cache import RowTable, build_steady, epoch_hot_sets
from gnnpipe.partition import partition_edgecut
from gnnpipe.plan import collect_access, generate_plan, top_hot
from gnnpipe.store import InprocTransport, StoreClient, StoreShard, TransferAccount


def make_client(n=40, d=4, seed=3):
    """Features, a client of one shard that owns every id, and an empty
    row table for all of them, as a worker that owns none keeps."""
    feats = np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)
    owner = np.zeros(n, dtype=np.uint32)
    shard = StoreShard(0, np.arange(n, dtype=np.int64), feats)
    return (feats, StoreClient(owner, [InprocTransport(shard)], d),
            RowTable(np.ones(n, dtype=bool), d))


class TestLookup:
    def test_hits_and_misses_partitioned(self):
        feats, client, table = make_client()
        cache = build_steady(np.array([2, 5, 9]), client, table)
        ids = np.array([5, 1, 9, 30])
        hit = cache.lookup(ids)
        assert np.flatnonzero(hit).tolist() == [0, 2]
        assert np.flatnonzero(~hit).tolist() == [1, 3]
        assert ids[~hit].tolist() == [1, 30]
        assert np.array_equal(table.take(ids[hit]), feats[[5, 9]])

    def test_reassembly_covers_request(self):
        feats, client, table = make_client()
        cache = build_steady(np.array([0, 7, 12]), client, table)
        ids = np.array([12, 3, 0, 7, 22])
        hit = cache.lookup(ids)
        out = np.empty((len(ids), 4), dtype=np.float32)
        out[hit] = table.take(ids[hit])
        out[~hit] = feats[ids[~hit]]
        assert np.array_equal(out, feats[ids])

    def test_empty_cache_all_miss(self):
        _, client, table = make_client()
        cache = build_steady(np.empty(0, dtype=np.int64), client, table)
        ids = np.array([1, 2])
        hit = cache.lookup(ids)
        assert np.count_nonzero(hit) == 0
        assert ids[~hit].tolist() == [1, 2]


class TestBuildAccounting:
    def test_fill_charged_as_bulk(self):
        feats, client, table = make_client()
        acct = TransferAccount()
        ids = np.array([1, 2, 3, 4, 5])
        build_steady(ids, client, table, acct)
        assert acct.snapshot() == (1, 5, 5 * 4 * 4)
        assert table.take(ids).tobytes() == feats[ids].tobytes()


class TestRowTable:
    def test_each_row_is_written_once(self):
        # a row put again keeps the bytes of its first write, and a put
        # writes the rows it names that were never written
        feats, _, table = make_client()
        table.put(np.array([3, 8]), feats[[3, 8]])
        table.put(np.array([8, 1, 3]), -feats[[8, 1, 3]])
        assert table.take(np.array([3, 8])).tobytes() == feats[[3, 8]].tobytes()
        assert table.take(np.array([1])).tobytes() == (-feats[[1]]).tobytes()

    def test_missing_names_the_rows_never_written(self):
        feats, _, table = make_client()
        table.put(np.array([3, 8]), feats[[3, 8]])
        assert table.missing(np.array([8, 1, 3, 5])).tolist() == [1, 5]
        assert table.missing(np.array([3, 8])).tolist() == []

    def test_owned_ids_rejected(self):
        # id 1 is owned, so it has no row; before the check, its rank was
        # id 0's and its write landed in id 0's row
        table = RowTable(np.array([True, False, True]), 1)
        table.put(np.array([0]), np.array([[1.0]], dtype=np.float32))
        for call in (lambda: table.put(np.array([1]),
                                       np.array([[5.0]], dtype=np.float32)),
                     lambda: table.missing(np.array([2, 1]))):
            with pytest.raises(ValueError, match="id 1 is owned"):
                call()
        assert table.take(np.array([0])).tolist() == [[1.0]]
        assert table.missing(np.array([0, 2])).tolist() == [2]


@pytest.fixture()
def pipeline(small_graph):
    g = small_graph
    train = np.flatnonzero(g.train_mask)
    plan = generate_plan(g, train, [3, 5], 64, 3, s0=7)
    book = partition_edgecut(g, 2)
    owner = book.owner
    owned = np.flatnonzero(owner == 0).astype(np.int64)
    shard_other = StoreShard(
        1, np.flatnonzero(owner == 1).astype(np.int64),
        g.features[owner == 1],
    )
    shard_mine = StoreShard(0, owned, g.features[owner == 0])
    client = StoreClient(
        owner, [InprocTransport(shard_mine), InprocTransport(shard_other)],
        g.feat_dim,
    )
    return g, plan, book, client


class TestEpochHotSets:
    def test_top_n_hot_of_each_epoch(self, pipeline):
        g, plan, book, client = pipeline
        sets = epoch_hot_sets(plan, book, 0, lambda num_remote: 30)
        assert len(sets) == plan.epochs
        for e, hot in enumerate(sets):
            assert np.array_equal(
                hot, top_hot(collect_access(plan, book, 0, epoch=e), 30))

    def test_size_from_the_run_remote_count_each_epoch_counted_once(
            self, pipeline, monkeypatch):
        # the size sees the worker's whole-plan remote node count, which
        # the per-epoch counts give without a whole-plan count
        g, plan, book, client = pipeline
        epochs = []

        def counting(plan, book, part, epoch):
            epochs.append(epoch)
            return collect_access(plan, book, part, epoch=epoch)

        monkeypatch.setattr(cache_mod, "collect_access", counting)
        remote = []
        sets = epoch_hot_sets(plan, book, 0, lambda n: remote.append(n) or 0)
        assert epochs == list(range(plan.epochs))
        assert remote == [len(collect_access(plan, book, 0))]
        assert [(len(h), h.dtype) for h in sets] == [(0, np.int64)] * plan.epochs


def fill_from(hot_ids, client, table, account=None):
    """A later epoch's fill that pulls every row of `hot_ids` into
    `table` and returns the ids."""
    def gather():
        table.put(hot_ids, client.vector_pull(hot_ids, account))
        return hot_ids
    return gather


def any_table(g):
    """An empty row table for every id of `g`."""
    return RowTable(np.ones(g.num_nodes, dtype=bool), g.feat_dim)


class TestDoubleBuffer:
    def test_swap_installs_next_epoch_hot_set(self, pipeline):
        g, plan, book, client = pipeline
        hot = epoch_hot_sets(plan, book, 0, lambda num_remote: 30)
        table = any_table(g)
        cache = build_steady(hot[0], client, table)
        acct = TransferAccount()
        cache.start_secondary_build(fill_from(hot[1], client, table, acct))
        cache.swap()
        assert np.array_equal(cache.hot_ids, hot[1])
        assert acct.nodes_pulled == len(hot[1])
        # the swapped-in hot set's rows really are its features
        assert cache.lookup(hot[1]).all()
        assert np.array_equal(table.take(hot[1]), g.features[hot[1]])

    def test_failed_build_keeps_steady(self, pipeline):
        g, plan, book, client = pipeline

        class Boom:
            feat_dim = g.feat_dim

            def vector_pull(self, ids, account=None):
                raise ConnectionError("injected")

        table = any_table(g)
        cache = build_steady(np.array([3, 4]), client, table)
        cache.start_secondary_build(fill_from(np.array([5, 6, 7]), Boom(),
                                              table))
        with pytest.raises(ConnectionError, match="injected"):
            cache.swap()
        assert cache.hot_ids.tolist() == [3, 4]
        hit = cache.lookup(np.array([3, 4, 5]))
        assert np.flatnonzero(hit).tolist() == [0, 1]
        assert np.array_equal(table.take(np.array([3, 4])), g.features[[3, 4]])

    def test_fills_swap_in_staging_order(self, pipeline):
        g, plan, book, client = pipeline
        hot = epoch_hot_sets(plan, book, 0, lambda num_remote: 30)
        table = any_table(g)
        cache = build_steady(hot[0], client, table)
        cache.start_secondary_build(fill_from(hot[1], client, table))
        cache.start_secondary_build(fill_from(hot[2], client, table))
        for h in hot[1:]:
            cache.swap()
            assert np.array_equal(cache.hot_ids, h)
            assert cache.lookup(h).all()
            assert np.array_equal(table.take(h), g.features[h])

    def test_failed_fill_raises_any_exception_once(self, pipeline):
        # a fill that raises even a BaseException is staged, and the fill
        # staged behind it installs at the next swap
        g, plan, book, client = pipeline

        class Stop(BaseException):
            pass

        class Halt:
            feat_dim = g.feat_dim

            def vector_pull(self, ids, account=None):
                raise Stop("injected")

        table = any_table(g)
        cache = build_steady(np.array([3, 4]), client, table)
        cache.start_secondary_build(fill_from(np.array([5, 6]), Halt(), table))
        cache.start_secondary_build(fill_from(np.array([7, 8]), client, table))
        with pytest.raises(Stop, match="injected"):
            cache.swap()
        assert cache.hot_ids.tolist() == [3, 4]
        cache.swap()
        assert cache.hot_ids.tolist() == [7, 8]

    def test_steady_serves_during_build(self, pipeline):
        # lookups while the producer pulls a fill come from the installed
        # hot set, and swap waits for the fill to be staged
        g, plan, book, client = pipeline
        gate = threading.Event()

        class Slow:
            feat_dim = g.feat_dim

            def vector_pull(self, ids, account=None):
                gate.wait(timeout=5)
                return client.vector_pull(ids, account)

        table = any_table(g)
        cache = build_steady(np.array([2, 6]), client, table)
        producer = threading.Thread(
            target=cache.start_secondary_build,
            args=(fill_from(np.array([7, 9]), Slow(), table),))
        producer.start()
        hit = cache.lookup(np.array([2, 6]))
        assert np.count_nonzero(hit) == 2
        assert np.array_equal(table.take(np.array([2, 6])), g.features[[2, 6]])
        gate.set()
        cache.swap()
        producer.join(timeout=5)
        assert not producer.is_alive()
        assert cache.hot_ids.tolist() == [7, 9]
