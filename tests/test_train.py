import threading
import time

import numpy as np
import pytest

from gnnpipe import cache, model, train, wire
from gnnpipe.graph import synth_powerlaw
from gnnpipe.partition import PartitionBook, partition_edgecut, save_partition
from gnnpipe.prefetch import PrefetchError
from gnnpipe.store import StoreClient, StoreShard, TransportError
from gnnpipe.train import (CSV_HEADER, MetricsRecord, RunConfig, read_metrics,
                           resolve_n_hot, run, worker_metrics_path,
                           write_metrics)

SMALL = dict(
    gen_nodes=600, gen_edges_per_node=3, feat_dim=8, num_classes=4,
    epochs=3, batch_size=64, fanouts=[3, 5], s0=7,
)


def small_cfg(**over):
    kw = dict(SMALL)
    kw.update(over)
    return RunConfig(**kw)


def small_edgecut_owner():
    g = synth_powerlaw(SMALL["gen_nodes"], SMALL["gen_edges_per_node"],
                       SMALL["feat_dim"], SMALL["num_classes"], SMALL["s0"])
    return partition_edgecut(g, 2).owner.copy()


def stable_fields(rec):
    """Everything but wall-clock time, which varies run to run."""
    import dataclasses

    d = dataclasses.asdict(rec)
    d.pop("t_e_ms")
    return d


def count_thread_starts(monkeypatch) -> list:
    """Record every thread started from now on."""
    started = []
    start = threading.Thread.start

    def count_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", count_start)
    return started


def kill_shard_after(monkeypatch, part: int, n: int) -> list:
    """Shard `part` serves `n` requests, then raises on every request.

    Returns the message types of the requests it served.
    """
    handle = StoreShard.handle
    served = []

    def dying(self, payload):
        if self.part == part:
            if len(served) >= n:
                raise RuntimeError("shard died")
            served.append(wire.decode_request(payload)[0])
        return handle(self, payload)

    monkeypatch.setattr(StoreShard, "handle", dying)
    return served


@pytest.fixture(scope="module")
def rapid_results():
    return run(small_cfg(mode="rapid"))


@pytest.fixture(scope="module")
def baseline_results():
    return run(small_cfg(mode="baseline"))


class TestMetricsIO:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)

    def test_roundtrip_with_empty_reuse(self, tmp_path):
        recs = [
            MetricsRecord(0, "baseline", 12.5, 3, 100, 400, 0, 0, None,
                          1.25, 0.5),
            MetricsRecord(1, "rapid", 9.0, 2, 50, 200, 40, 10, 0.8,
                          1.0, 0.625),
        ]
        path = tmp_path / "m.csv"
        write_metrics(recs, path)
        assert read_metrics(path) == recs
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[8] == ""  # undefined reuse stays blank

    def test_float_fields_full_precision(self, tmp_path):
        rec = MetricsRecord(0, "rapid", 1 / 3, 1, 1, 4, 1, 1, 2 / 3,
                            0.1 + 0.2, 1 / 7)
        path = tmp_path / "m.csv"
        write_metrics([rec], path)
        got = read_metrics(path)[0]
        assert got.loss == rec.loss and got.reuse_ratio == rec.reuse_ratio


class TestRunConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(mode="turbo").validate()
        with pytest.raises(ValueError):
            small_cfg(prefetch_depth=0).validate()
        with pytest.raises(ValueError):
            small_cfg(fanouts=[]).validate()
        with pytest.raises(ValueError, match="batch size"):
            small_cfg(batch_size=0).validate()
        with pytest.raises(ValueError, match="epochs"):
            small_cfg(epochs=-1).validate()
        with pytest.raises(ValueError, match="epochs"):
            small_cfg(epochs=0).validate()
        with pytest.raises(ValueError, match="latency"):
            small_cfg(latency_ms=-5).validate()
        with pytest.raises(ValueError, match="hidden dim"):
            small_cfg(hidden_dim=0).validate()
        with pytest.raises(ValueError, match="n_hot"):
            small_cfg(n_hot=-1).validate()
        with pytest.raises(ValueError, match="percent"):
            small_cfg(n_hot_pct=-1.0).validate()
        with pytest.raises(ValueError, match="percent"):
            small_cfg(n_hot_pct=250.0).validate()
        small_cfg(n_hot=0, n_hot_pct=100.0, latency_ms=0.0).validate()

    def test_resolve_n_hot(self):
        assert resolve_n_hot(small_cfg(n_hot=42), 1000) == 42
        assert resolve_n_hot(small_cfg(n_hot_pct=15.0), 1000) == 150
        assert resolve_n_hot(small_cfg(n_hot_pct=1.0), 50) == 0

    def test_worker_metrics_path(self):
        assert worker_metrics_path("out.csv", 0) == "out.w0.csv"
        assert worker_metrics_path("a/b/run.csv", 3) == "a/b/run.w3.csv"


class TestRun:
    def test_one_result_per_partition(self, rapid_results):
        assert [r.part for r in rapid_results] == [0, 1]
        for r in rapid_results:
            assert len(r.records) == SMALL["epochs"]
            assert len(r.plan_digest) == 16

    def test_deterministic_rerun(self, rapid_results):
        again = run(small_cfg(mode="rapid"))
        for a, b in zip(rapid_results, again):
            assert a.plan_digest == b.plan_digest
            assert [stable_fields(r) for r in a.records] == [
                stable_fields(r) for r in b.records
            ]
            for pa, pb in zip(a.params, b.params):
                assert np.array_equal(pa.w_self, pb.w_self)
                assert np.array_equal(pa.w_neigh, pb.w_neigh)
                assert np.array_equal(pa.bias, pb.bias)

    def test_modes_reach_identical_params(self, rapid_results,
                                          baseline_results):
        for a, b in zip(rapid_results, baseline_results):
            for pa, pb in zip(a.params, b.params):
                assert np.array_equal(pa.w_self, pb.w_self)
                assert np.array_equal(pa.bias, pb.bias)
        for a, b in zip(rapid_results, baseline_results):
            for ra, rb in zip(a.records, b.records):
                assert ra.loss == rb.loss
                assert ra.train_acc == rb.train_acc

    def test_baseline_counts_every_pull_as_miss(self, baseline_results):
        for r in baseline_results:
            for rec in r.records:
                assert rec.mode == "baseline"
                assert rec.cache_hits == 0
                assert rec.cache_misses == rec.nodes_pulled
                assert rec.reuse_ratio == (0.0 if rec.nodes_pulled else None)

    def test_rapid_pulls_fewer_nodes(self, rapid_results, baseline_results):
        rapid_nodes = sum(rec.nodes_pulled for r in rapid_results
                          for rec in r.records)
        base_nodes = sum(rec.nodes_pulled for r in baseline_results
                         for rec in r.records)
        assert rapid_nodes < base_nodes

    def test_reuse_matches_hit_columns(self, rapid_results):
        for r in rapid_results:
            for rec in r.records:
                total = rec.cache_hits + rec.cache_misses
                if total == 0:
                    assert rec.reuse_ratio is None
                else:
                    assert rec.reuse_ratio == pytest.approx(
                        rec.cache_hits / total
                    )

    def test_metrics_files_written(self, tmp_path):
        out = tmp_path / "run.csv"
        run(small_cfg(mode="rapid", epochs=2, metrics_out=str(out)))
        for p in range(2):
            recs = read_metrics(worker_metrics_path(str(out), p))
            assert [r.epoch for r in recs] == [0, 1]

    def test_n_hot_zero_means_no_hits(self):
        results = run(small_cfg(mode="rapid", n_hot=0, epochs=2))
        for r in results:
            for rec in r.records:
                assert rec.cache_hits == 0

    @pytest.mark.parametrize("over", [dict(n_hot=0), dict(partitions=1)])
    def test_no_hot_set_starts_no_cache_builds(self, monkeypatch, over):
        # nothing to turn over: per worker, its own thread and one producer
        started = count_thread_starts(monkeypatch)
        results = run(small_cfg(mode="rapid", **over))
        assert len(started) == 2 * len(results)
        for r in results:
            assert len(r.cache_keys) == 0
            assert r.cache_fill.snapshot() == (0, 0, 0)

    def test_dump_cache_keys(self, baseline_results):
        results = run(small_cfg(mode="rapid", epochs=2))
        for r in results:
            assert r.cache_keys is not None
            assert np.array_equal(r.cache_keys, np.sort(r.cache_keys))
        assert all(r.cache_keys is None for r in baseline_results)

    def test_one_stream_per_worker(self, monkeypatch):
        # each rapid worker builds one Prefetcher for the run, and every
        # cache lookup and swap runs on that Prefetcher's producer thread
        made = []

        class Spy(train.Prefetcher):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        callers = {"lookup": set(), "swap": set()}
        for name, seen in callers.items():
            def spy(self, *args, _orig=getattr(cache.FeatureCache, name),
                    _seen=seen, **kwargs):
                _seen.add(threading.current_thread())
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(cache.FeatureCache, name, spy)
        started = []
        start = threading.Thread.start

        def count_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", count_start)
        monkeypatch.setattr(train, "Prefetcher", Spy)
        run(small_cfg(mode="rapid"))
        producers = {pf._producer for pf in made}
        assert len(made) == 2 and len(producers) == 2
        assert callers["lookup"] == producers
        assert callers["swap"] == producers
        # per worker: its own thread, one producer and E - 1 cache builds
        assert len(started) == 2 * (1 + SMALL["epochs"])

    def test_failed_run_leaves_no_thread(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        pull = StoreClient.vector_pull
        filled = set()

        def slow_secondary_fill(self, ids, account=None):
            if id(self) in filled:  # every fill after the steady one
                time.sleep(1.0)
            filled.add(id(self))
            return pull(self, ids, account)

        monkeypatch.setattr(model, "loss_and_grad", boom)
        monkeypatch.setattr(StoreClient, "vector_pull", slow_secondary_fill)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected"):
            run(small_cfg(mode="rapid"))
        assert set(threading.enumerate()) <= before

    def test_dying_shard_fails_rapid_run(self, monkeypatch):
        served = kill_shard_after(monkeypatch, part=1, n=5)
        before = set(threading.enumerate())
        with pytest.raises(PrefetchError) as exc:
            run(small_cfg(mode="rapid", transport="tcp"))
        assert isinstance(exc.value.__cause__, TransportError)
        # every bundle of worker 0 sync-pulls misses from shard 1 once,
        # so the failing bundle is the one after those the shard served
        assert exc.value.batch == served.count(wire.MSG_SYNC_PULL)
        assert set(threading.enumerate()) <= before

    def test_dying_shard_fails_baseline_run(self, monkeypatch):
        kill_shard_after(monkeypatch, part=1, n=5)
        before = set(threading.enumerate())
        with pytest.raises(TransportError):
            run(small_cfg(mode="baseline", transport="tcp"))
        assert set(threading.enumerate()) <= before

    def test_tcp_transport_matches_inproc(self, rapid_results):
        tcp = run(small_cfg(mode="rapid", transport="tcp"))
        for a, b in zip(rapid_results, tcp):
            for pa, pb in zip(a.params, b.params):
                assert np.array_equal(pa.w_self, pb.w_self)
            for ra, rb in zip(a.records, b.records):
                assert (ra.rpc_calls, ra.nodes_pulled, ra.bytes_pulled) == (
                    rb.rpc_calls, rb.nodes_pulled, rb.bytes_pulled)

    def test_single_partition_no_remote_traffic(self):
        results = run(small_cfg(mode="rapid", partitions=1, epochs=2))
        (r,) = results
        for rec in r.records:
            assert rec.rpc_calls == 0 and rec.nodes_pulled == 0
            assert rec.reuse_ratio is None

    def test_partition_file_must_cover_the_graph(self, tmp_path):
        path = tmp_path / "short.rpb"
        save_partition(PartitionBook(k=2, owner=small_edgecut_owner()[:300]), path)
        with pytest.raises(ValueError, match="300 nodes"):
            run(small_cfg(partition_path=str(path)))

    def test_partition_file_owner_out_of_range_rejected(self, tmp_path):
        owner = small_edgecut_owner()
        owner[17] = 5
        path = tmp_path / "bad.rpb"
        save_partition(PartitionBook(k=2, owner=owner), path)
        with pytest.raises(ValueError, match="out of range"):
            run(small_cfg(partition_path=str(path)))

    def test_loss_trends_down(self, rapid_results):
        for r in rapid_results:
            losses = [rec.loss for rec in r.records]
            assert losses[-1] < losses[0]
