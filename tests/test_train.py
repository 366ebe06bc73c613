import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from conftest import min_carry
from gnnpipe import cache, model, plan, train, wire
from gnnpipe.graph import Graph, save_graph, synth_powerlaw
from gnnpipe.partition import PartitionBook, partition_edgecut, save_partition
from gnnpipe.prefetch import PrefetchError
from gnnpipe.store import (StoreClient, StoreShard, TcpTransport,
                           TransferAccount, TransportError)
from gnnpipe.train import (CSV_HEADER, MetricsRecord, RunConfig,
                           manifest_path, read_metrics, resolve_n_hot, run,
                           worker_metrics_path, write_metrics)

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


def count_evaluations(monkeypatch) -> list:
    """Record the thread of every `model.evaluate` call from now on."""
    evaluated = []
    evaluate = model.evaluate

    def counted(*args, **kwargs):
        evaluated.append(threading.current_thread())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(model, "evaluate", counted)
    return evaluated


def kill_shard_after(monkeypatch, part: int, n: int, refuse=None) -> list:
    """Shard `part` serves its first `n` requests of a message type in
    `refuse` (every type when None), then raises on every later one;
    it serves requests of other types throughout.

    Returns the message types of the requests it served.
    """
    handle = StoreShard.handle
    served = []

    def counted(msg_type) -> bool:
        return refuse is None or msg_type in refuse

    def dying(self, payload):
        if self.part == part:
            msg_type = wire.decode_request(payload)[0]
            if counted(msg_type) and sum(map(counted, served)) >= n:
                raise RuntimeError("shard died")
            served.append(msg_type)
        return handle(self, payload)

    monkeypatch.setattr(StoreShard, "handle", dying)
    return served


def fail_second_connect(monkeypatch) -> tuple[list, list]:
    """The first worker to make a second TCP connect fails it.

    Returns the (thread, transport) pairs of the connects made and the
    failing worker's thread.
    """
    connect = TcpTransport.__init__
    made: dict = {}
    opened, failed = [], []
    lock = threading.Lock()

    def flaky(self, host, port):
        me = threading.current_thread()
        made[me] = made.get(me, 0) + 1
        with lock:
            fail = made[me] == 2 and not failed
            if fail:
                failed.append(me)
        if fail:
            raise TransportError(f"connect to {host}:{port} failed")
        connect(self, host, port)
        opened.append((me, self))

    monkeypatch.setattr(TcpTransport, "__init__", flaky)
    return opened, failed


def cause_chain(exc: BaseException) -> str:
    """The messages of an exception and of every cause behind it."""
    msgs = []
    while exc is not None:
        msgs.append(str(exc))
        exc = exc.__cause__
    return " <- ".join(msgs)


def batches_per_epoch(cfg) -> int:
    g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                       cfg.num_classes, cfg.s0)
    return -(-int(np.count_nonzero(g.train_mask)) // cfg.batch_size)


def window_sizes(cfg) -> list[int]:
    """Batches per pull window in run order: prefetch_depth at a time,
    never across an epoch boundary."""
    n, q = batches_per_epoch(cfg), cfg.prefetch_depth
    return [min(q, n - first) for _ in range(cfg.epochs)
            for first in range(0, n, q)]


def request_shards(cfg, part: int) -> list[tuple[set[int], list[set[int]]]]:
    """Per epoch of worker `part`'s rapid run, the shards its cache fill
    sends a request and, per window, the shards the window sends one:
    the owners of the rows that a MIN carry store (`min_carry`), and at
    a fill the previous hot set, do not hold. Epoch 0's fill, on the
    worker's own thread, pulls its whole hot set."""
    g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                       cfg.num_classes, cfg.s0)
    book = partition_edgecut(g, cfg.partitions)
    p = plan.generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                           cfg.batch_size, cfg.epochs, cfg.s0)
    n_hot = resolve_n_hot(cfg, len(plan.collect_access(p, book, part)))
    hot_sets = cache.epoch_hot_sets(p, book, part, lambda _: n_hot)
    q, requests, fills, epochs = cfg.prefetch_depth, [], [], []
    for e, hot in enumerate(hot_sets):
        if e and n_hot:
            requests.append(hot)
            fills.append(True)
            epochs.append(e)
        for first in range(0, p.num_batches(e), q):
            ids = np.unique(np.concatenate(p.input_sets[e][first:first + q]))
            requests.append(np.setdiff1d(ids[book.owner[ids] != part], hot))
            fills.append(False)
            epochs.append(e)
    capacity = max(len(r) for r, fill in zip(requests, fills) if not fill)
    pulled, _ = min_carry(requests, fills, hot_sets[0], capacity)
    out = [(set(book.owner[hot_sets[0]].tolist()), [])]
    out += [(set(), []) for _ in range(1, cfg.epochs)]
    for e, fill, ids in zip(epochs, fills, pulled):
        shards = set(book.owner[sorted(ids)].tolist())
        if fill:
            out[e] = (shards, out[e][1])
        else:
            out[e][1].append(shards)
    return out


def window_shards(cfg, part: int) -> list[list[set[int]]]:
    """Per epoch and window of worker `part`'s rapid lookahead, the shards
    it sends a request (`request_shards`)."""
    return [windows for _, windows in request_shards(cfg, part)]


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
        # generator fields are not used with a graph file
        small_cfg(graph_path="g.rgf", gen_nodes=3,
                  gen_edges_per_node=5).validate()

    @pytest.mark.parametrize("over, message", [
        (dict(partitions=0), "partitions must be >= 1"),
        (dict(num_classes=0), "classes must be >= 1"),
        (dict(feat_dim=0), "feat dim must be >= 1"),
        (dict(gen_nodes=3, gen_edges_per_node=5), "nodes > edges per node"),
        (dict(gen_nodes=5, gen_edges_per_node=5), "nodes > edges per node"),
        (dict(gen_edges_per_node=0), "nodes > edges per node"),
        (dict(lr=float("inf")), "lr must be finite and > 0"),
        (dict(lr=float("nan")), "lr must be finite and > 0"),
        (dict(lr=0.0), "lr must be finite and > 0"),
        (dict(latency_ms=float("nan")), "latency must be finite"),
        (dict(latency_ms=float("inf")), "latency must be finite"),
        (dict(s0=-1), "seed must be >= 0"),
    ])
    def test_validate_rejects_values_that_fail_later(self, over, message):
        with pytest.raises(ValueError, match=message):
            small_cfg(**over).validate()

    @pytest.mark.parametrize("fanouts", [[-3, 0], [3, 0], [0], [5, -1]])
    def test_validate_rejects_fanout_below_one(self, fanouts):
        with pytest.raises(ValueError, match="fanouts must be >= 1"):
            small_cfg(fanouts=fanouts).validate()
        with pytest.raises(ValueError, match="fanouts must be >= 1"):
            run(small_cfg(fanouts=fanouts, epochs=1))

    def test_resolve_n_hot(self):
        assert resolve_n_hot(small_cfg(n_hot=42), 1000) == 42
        assert resolve_n_hot(small_cfg(n_hot_pct=15.0), 1000) == 150
        assert resolve_n_hot(small_cfg(n_hot_pct=1.0), 50) == 0

    @pytest.mark.parametrize("pct, num_remote, n_hot", [
        (2.3, 3000, 69), (0.57, 10_000, 57), (33.3, 3000, 999),
        (1.0, 3000, 30), (5.0, 3000, 150), (15.0, 3000, 450),
        (15.0, 2999, 449), (100.0, 7, 7), (0.0, 7, 0)])
    def test_resolve_n_hot_is_exact_percent(self, pct, num_remote, n_hot):
        # the floor of pct% of num_remote, with pct read as the decimal
        # it was written as; float arithmetic gives 68, 56 and 998 for
        # the first three
        assert resolve_n_hot(small_cfg(n_hot_pct=pct), num_remote) == n_hot

    def test_worker_metrics_path(self):
        assert worker_metrics_path("out.csv", 0) == "out.w0.csv"
        assert worker_metrics_path("a/b/run.csv", 3) == "a/b/run.w3.csv"

    def test_manifest_path(self):
        assert manifest_path("out.csv") == "out.manifest.json"
        assert manifest_path("a.d/run") == "a.d/run.manifest.json"


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

    def test_one_evaluation_per_epoch_on_the_run_thread(self, monkeypatch):
        # both workers end each epoch with the same parameters, so the run
        # evaluates each epoch once, on its own thread, after the join;
        # no worker thread reads the graph's features
        readers = set()

        class Watched(Graph):
            @property
            def features(self):
                readers.add(threading.current_thread())
                return self._features

            @features.setter
            def features(self, value):
                self._features = value

        load = train._load_or_generate

        def watched(cfg):
            g = load(cfg)
            return Watched(**{f.name: getattr(g, f.name)
                              for f in dataclasses.fields(Graph)})

        evaluated = count_evaluations(monkeypatch)
        monkeypatch.setattr(train, "_load_or_generate", watched)
        cfg = small_cfg(mode="rapid")
        results = run(cfg)
        monkeypatch.undo()
        me = threading.current_thread()
        assert evaluated == [me] * cfg.epochs
        assert readers == {me}
        g = train._load_or_generate(cfg)
        for r in results:
            assert len(r.epoch_params) == cfg.epochs
            assert r.params is r.epoch_params[-1]
            assert [rec.train_acc for rec in r.records] == [
                model.evaluate(g, params, g.train_mask)
                for params in r.epoch_params]

    def test_workers_that_differ_are_evaluated_apart(self, monkeypatch):
        # the second worker to draw its initial parameters gets others,
        # so the workers never agree: each epoch is evaluated once per
        # worker, and each record reads its own worker's accuracy
        init = model.init_params
        drawn = []
        lock = threading.Lock()

        def perturbed(*args, **kwargs):
            params = init(*args, **kwargs)
            with lock:
                drawn.append(params)
                if len(drawn) == 2:
                    params[0].w_self = -params[0].w_self
            return params

        monkeypatch.setattr(model, "init_params", perturbed)
        evaluated = count_evaluations(monkeypatch)
        cfg = small_cfg(mode="rapid")
        results = run(cfg)
        monkeypatch.undo()
        assert len(drawn) == 2
        assert evaluated == [threading.current_thread()] * (2 * cfg.epochs)
        a, b = results
        for pa, pb in zip(a.epoch_params, b.epoch_params):
            assert not np.array_equal(pa[0].w_self, pb[0].w_self)
        g = train._load_or_generate(cfg)
        for r in results:
            assert [rec.train_acc for rec in r.records] == [
                model.evaluate(g, params, g.train_mask)
                for params in r.epoch_params]

    def test_failed_run_evaluates_nothing(self, monkeypatch):
        block = plan.BatchPlan.block

        def failing(self, e, i):
            if (e, i) == (1, 0):
                raise ValueError("injected block error")
            return block(self, e, i)

        evaluated = count_evaluations(monkeypatch)
        monkeypatch.setattr(plan.BatchPlan, "block", failing)
        with pytest.raises(ValueError, match="injected block error"):
            run(small_cfg(mode="rapid"))
        assert evaluated == []

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_short_epochs_swap_fills_in_order(self, monkeypatch, transport):
        # with at most Q+1 batches an epoch, the producer can stage a
        # later epoch's fill before the loop swaps in the one before it;
        # each loop's first swap, at its first epoch's end, waits until
        # it has
        cfg = small_cfg(mode="rapid", batch_size=200, transport=transport)
        assert batches_per_epoch(cfg) <= cfg.prefetch_depth + 1
        hot_sets, staged, swapped = {}, {}, set()
        waited = []  # the thread of every hold that saw both fills staged
        cond = threading.Condition()
        choose = cache.epoch_hot_sets
        stage = cache.FeatureCache.start_secondary_build
        swap = cache.FeatureCache.swap

        def chosen(plan, book, part, n_hot):
            hot_sets[part] = choose(plan, book, part, n_hot)
            return hot_sets[part]

        def counted(self, *args, **kwargs):
            rows = stage(self, *args, **kwargs)
            with cond:
                staged[self] = staged.get(self, 0) + 1
                cond.notify_all()
            return rows

        def held(self):
            if self not in swapped:  # only this worker's thread swaps it
                swapped.add(self)
                with cond:
                    if not cond.wait_for(
                            lambda: staged.get(self) == cfg.epochs - 1, 10):
                        raise TimeoutError("the later fills were not staged")
                waited.append(threading.current_thread())
            return swap(self)

        monkeypatch.setattr(cache, "epoch_hot_sets", chosen)
        monkeypatch.setattr(cache.FeatureCache, "start_secondary_build", counted)
        monkeypatch.setattr(cache.FeatureCache, "swap", held)
        results = run(cfg)
        monkeypatch.undo()
        assert len(waited) == len(results) == len(set(waited))
        baseline = run(small_cfg(mode="baseline", batch_size=200))
        for r, b in zip(results, baseline):
            sets = hot_sets[r.part]
            assert not all(np.array_equal(sets[0], h) for h in sets[1:])
            assert np.array_equal(r.cache_keys, sets[-1])
            for pa, pb in zip(r.params, b.params):
                assert np.array_equal(pa.w_self, pb.w_self)
                assert np.array_equal(pa.w_neigh, pb.w_neigh)
                assert np.array_equal(pa.bias, pb.bias)

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

    def test_manifest_records_the_run(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = small_cfg(mode="rapid", epochs=2, metrics_out=str(out))
        results = run(cfg)
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert RunConfig(**manifest["config"]) == cfg
        assert {r.plan_digest for r in results} == {manifest["plan_digest"]}
        kernel = train._openblas_corename()
        assert manifest["openblas_corename"] == kernel
        assert manifest["blas_threads"] == (None if kernel is None else 1)
        assert (manifest["openblas_config"] is None) == (kernel is None)
        assert manifest["numpy"] == np.__version__
        assert set(manifest) == {"config", "plan_digest", "python", "numpy",
                                 "scipy", "openblas_corename",
                                 "openblas_config", "blas_threads"}

    def test_no_manifest_without_metrics_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(small_cfg(mode="rapid", epochs=1))
        assert not any(tmp_path.iterdir())

    def test_n_hot_zero_means_no_hits(self):
        results = run(small_cfg(mode="rapid", n_hot=0, epochs=2))
        for r in results:
            for rec in r.records:
                assert rec.cache_hits == 0

    @pytest.mark.parametrize("over, fills", [
        (dict(n_hot=0), 0), (dict(partitions=1), 0), ({}, SMALL["epochs"] - 1)])
    def test_no_hot_set_starts_no_cache_builds(self, monkeypatch, over, fills):
        # per worker, its own thread and one producer, which with a hot
        # set also fills the cache for each of the E - 1 later epochs, on
        # no thread of its own; the run samples on no thread of its own
        started = count_thread_starts(monkeypatch)
        results = run(small_cfg(mode="rapid", **over))
        assert len(started) == 2 * len(results)
        for r in results:
            if fills:
                assert len(r.cache_keys) > 0 and r.cache_fill.rpc_calls > 0
            else:
                assert len(r.cache_keys) == 0
                assert r.cache_fill.snapshot() == (0, 0, 0)

    def test_dump_cache_keys(self, baseline_results):
        results = run(small_cfg(mode="rapid", epochs=2))
        for r in results:
            assert r.cache_keys is not None
            assert np.array_equal(r.cache_keys, np.sort(r.cache_keys))
        assert all(r.cache_keys is None for r in baseline_results)

    def test_one_stream_per_worker(self, monkeypatch):
        # each rapid worker builds one Prefetcher, for the run's lookahead
        # pulls, which run on its producer thread; every cache lookup and
        # swap runs on the worker's own thread, which runs its loop
        made = {}  # Prefetcher -> the thread that built it

        class Spy(train.Prefetcher):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made[self] = threading.current_thread()

        callers = {"lookup": set(), "swap": set()}
        for name in callers:
            def spy(self, *args, _orig=getattr(cache.FeatureCache, name),
                    _seen=callers[name], **kwargs):
                _seen.add(threading.current_thread())
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(cache.FeatureCache, name, spy)
        pulls = []  # (client, pull, thread) of every store pull, in order
        for name in ("sync_pull", "vector_pull"):
            def pull_spy(self, *args, _orig=getattr(StoreClient, name),
                         _name=name, **kwargs):
                pulls.append((self, _name, threading.current_thread()))
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(StoreClient, name, pull_spy)
        started = count_thread_starts(monkeypatch)
        monkeypatch.setattr(train, "Prefetcher", Spy)
        cfg = small_cfg(mode="rapid")
        run(cfg)
        main = threading.current_thread()
        lookaheads = list(made)
        producer_of = {made[pf]: pf._producer for pf in lookaheads}
        owners = set(producer_of)
        assert main not in owners
        assert len(lookaheads) == 2 and len(owners) == 2
        assert len(set(producer_of.values())) == 2
        assert callers["lookup"] == owners
        assert callers["swap"] == owners
        # each worker fills its cache once on its own thread; then its
        # producer alone pulls, in plan order: before each later epoch's
        # first window that epoch's cache fill, then the epoch's windows,
        # each fill and window only when it needs a row it does not hold
        orders = []
        for part in range(2):
            order = []
            for fill, windows in request_shards(cfg, part):
                order += (["vector_pull"] * bool(fill)
                          + ["sync_pull"] * sum(map(bool, windows)))
            orders.append(order)
        clients = {c for c, _, _ in pulls}
        assert len(clients) == 2
        for client in clients:
            mine = [(name, by) for c, name, by in pulls if c is client]
            owner = mine[0][1]
            assert owner in owners
            assert [name for name, _ in mine] in orders
            assert {by for _, by in mine[1:]} == {producer_of[owner]}
        # per worker: its own thread and one producer
        assert len(started) == 2 * 2

    def test_failed_run_leaves_no_thread(self, monkeypatch):
        # the loop fails at epoch 0's last batch while worker 0's producer
        # is in epoch 1's slow cache fill; at depth 1 that fill pulls a row
        cfg = small_cfg(mode="rapid", prefetch_depth=1)
        assert request_shards(cfg, 0)[1][0]
        last = batches_per_epoch(cfg) - 1
        in_fill = threading.Event()
        loss_and_grad = model.loss_and_grad

        def boom(block, *args, **kwargs):
            if block.batch == last:
                assert in_fill.wait(10)
                raise RuntimeError("injected")
            return loss_and_grad(block, *args, **kwargs)

        pull = StoreClient.vector_pull
        filled = set()

        def slow_secondary_fill(self, ids, account=None):
            if id(self) in filled:  # every fill after the steady one
                in_fill.set()
                time.sleep(1.0)
            filled.add(id(self))
            return pull(self, ids, account)

        monkeypatch.setattr(model, "loss_and_grad", boom)
        monkeypatch.setattr(StoreClient, "vector_pull", slow_secondary_fill)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected"):
            run(cfg)
        assert set(threading.enumerate()) <= before

    def test_failed_cache_fill_fails_rapid_run(self, monkeypatch):
        # the lookahead pulls each epoch's misses for the hot set the plan
        # gives it, so a fill that cannot install that set ends the run;
        # at depth 1 worker 0's epoch 1 fill pulls a row, worker 1's none
        cfg = small_cfg(mode="rapid", prefetch_depth=1)
        assert request_shards(cfg, 0)[1][0] and not request_shards(cfg, 1)[1][0]
        pull = StoreClient.vector_pull
        filled = set()

        def fail_secondary_fill(self, ids, account=None):
            if id(self) in filled:  # every fill after the steady one
                raise ConnectionError("injected")
            filled.add(id(self))
            return pull(self, ids, account)

        monkeypatch.setattr(StoreClient, "vector_pull", fail_secondary_fill)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="cache fill for epoch 1 failed") as exc:
            run(cfg)
        assert isinstance(exc.value.__cause__, ConnectionError)
        assert "injected" in cause_chain(exc.value)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("mode, calls", [("rapid", SMALL["epochs"]),
                                             ("baseline", 0)])
    def test_access_counted_once_per_epoch(self, monkeypatch, mode, calls):
        # rapid: one count per epoch, which gives both that epoch's hot
        # set and, by their union, n_hot; baseline caches nothing and
        # counts nothing
        counts = {}
        for module in (train, cache):
            def counting(plan, book, part, *args, _orig=module.collect_access,
                         **kwargs):
                counts[part] = counts.get(part, 0) + 1
                return _orig(plan, book, part, *args, **kwargs)
            monkeypatch.setattr(module, "collect_access", counting)
        results = run(small_cfg(mode=mode))
        assert [counts.get(r.part, 0) for r in results] == [calls] * len(results)

    def test_failed_connect_fails_run(self, monkeypatch):
        # one worker's second connect fails after its first one succeeded
        opened, failed = fail_second_connect(monkeypatch)
        before = set(threading.enumerate())
        with pytest.raises(TransportError, match="connect to"):
            run(small_cfg(mode="rapid", transport="tcp"))
        (first,) = [t for me, t in opened if me is failed[0]]
        assert first._sock.fileno() == -1  # closed
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("mode", ["rapid", "baseline"])
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_each_block_sampled_once_at_plan_time(self, monkeypatch, mode,
                                                  partitions):
        # every (e, i) is expanded once, by generate_plan on the calling
        # thread; every worker trains on the stored, read-only block, the
        # same object
        sampled = []  # (e, i, thread, planned) of every expansion
        planned = threading.Event()
        sample_block = plan.sample_block
        generate_plan = train.generate_plan

        def counting(g, seeds, fanouts, rng_seed, e, i):
            sampled.append((e, i, threading.current_thread(), planned.is_set()))
            return sample_block(g, seeds, fanouts, rng_seed, e, i)

        def planning(*args, **kwargs):
            p = generate_plan(*args, **kwargs)
            planned.set()
            return p

        trained = {}  # worker thread -> the blocks it trained on
        loss_and_grad = model.loss_and_grad

        def keeping(block, *args, **kwargs):
            trained.setdefault(threading.current_thread(), []).append(block)
            return loss_and_grad(block, *args, **kwargs)

        monkeypatch.setattr(plan, "sample_block", counting)
        monkeypatch.setattr(train, "generate_plan", planning)
        monkeypatch.setattr(model, "loss_and_grad", keeping)
        cfg = small_cfg(mode=mode, partitions=partitions)
        results = run(cfg)
        me = threading.current_thread()
        assert len(results) == partitions
        assert sampled == [(e, i, me, False) for e in range(cfg.epochs)
                           for i in range(batches_per_epoch(cfg))]
        runs = list(trained.values())
        assert len(runs) == partitions and me not in trained
        first = runs[0]
        assert [(b.epoch, b.batch) for b in first] == [
            (e, i) for e, i, _, _ in sampled]
        for other in runs[1:]:
            assert len(other) == len(first)
            assert all(a is b for a, b in zip(first, other))
        for block in first:
            arrays = [*block.frontiers, *(a for hop in block.hops for a in hop)]
            assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            first[0].hops[0][0][0] = 0

    @pytest.mark.parametrize("mode", ["rapid", "baseline"])
    def test_failing_worker_stops_the_other_at_its_next_batch(self, monkeypatch,
                                                              mode):
        # both workers reach batch (1, 2); worker 0 fails there, and
        # worker 1 holds that batch until worker 0's thread has ended,
        # finishes it and stops before the next one
        cfg = small_cfg(mode=mode)
        n = batches_per_epoch(cfg)
        failing = n + 2  # run index of (epoch 1, batch 2)
        assert failing + 1 < cfg.epochs * n
        reached = {0: threading.Event(), 1: threading.Event()}
        threads = {}
        alive_after_join = []  # worker 0's thread, once worker 1 joined it
        assembled = {0: [], 1: []}
        assemble = train.assemble_bundle

        def failing_worker(block, owner, part, *args):
            at = block.epoch * n + block.batch
            assembled[part].append(at)
            if at == failing:
                threads[part] = threading.current_thread()
                reached[part].set()
                if not reached[1 - part].wait(10):
                    raise TimeoutError(f"worker {1 - part} never got here")
                if part == 0:
                    raise RuntimeError("worker 0 injected")
                threads[0].join(10)
                alive_after_join.append(threads[0].is_alive())
            return assemble(block, owner, part, *args)

        monkeypatch.setattr(train, "assemble_bundle", failing_worker)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="worker 0 injected"):
            run(cfg)
        assert alive_after_join == [False]
        assert assembled[1] == list(range(failing + 1))
        assert set(threading.enumerate()) <= before

    def test_failed_sampling_fails_the_plan_before_any_thread(self, monkeypatch):
        # sampling runs at plan time on the calling thread, so a sampling
        # error ends the run before any worker, producer or server starts
        sample_block = plan.sample_block

        def failing(g, seeds, fanouts, rng_seed, e, i):
            if (e, i) == (1, 3):
                raise ValueError("injected sampling error")
            return sample_block(g, seeds, fanouts, rng_seed, e, i)

        monkeypatch.setattr(plan, "sample_block", failing)
        started = count_thread_starts(monkeypatch)
        with pytest.raises(ValueError, match="injected sampling error"):
            run(small_cfg(mode="rapid", transport="tcp"))
        assert started == []

    @pytest.mark.parametrize("mode", ["rapid", "baseline"])
    def test_failing_worker_stops_the_others(self, monkeypatch, mode):
        fail_second_connect(monkeypatch)
        calls = []
        loss_and_grad = model.loss_and_grad

        def counting(*args, **kwargs):
            calls.append(1)
            return loss_and_grad(*args, **kwargs)

        monkeypatch.setattr(model, "loss_and_grad", counting)
        before = set(threading.enumerate())
        cfg = small_cfg(mode=mode, transport="tcp")
        with pytest.raises(TransportError, match="connect to"):
            run(cfg)
        assert len(calls) < batches_per_epoch(cfg)
        assert set(threading.enumerate()) <= before

    def test_failed_plan_leaves_no_server(self, tmp_path):
        g = synth_powerlaw(SMALL["gen_nodes"], SMALL["gen_edges_per_node"],
                           SMALL["feat_dim"], SMALL["num_classes"], SMALL["s0"])
        g.train_mask[:] = False
        path = tmp_path / "untrainable.rgf"
        save_graph(g, path)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="empty train set"):
            run(small_cfg(graph_path=str(path), transport="tcp"))
        assert set(threading.enumerate()) <= before

    def test_dying_shard_fails_rapid_run(self, monkeypatch):
        # only worker 0's producer sync-pulls from shard 1, in plan order,
        # so refusing sync pulls alone fixes which request fails first;
        # the cache fills' vector pulls are served throughout
        served = kill_shard_after(monkeypatch, part=1, n=5,
                                  refuse={wire.MSG_SYNC_PULL})
        before = set(threading.enumerate())
        cfg = small_cfg(mode="rapid", transport="tcp")
        with pytest.raises(PrefetchError) as exc:
            run(cfg)
        assert isinstance(exc.value.__cause__, TransportError)
        assert "shard died" in cause_chain(exc.value)
        # worker 0's lookahead sync-pulls from shard 1 once for each window
        # of prefetch_depth batches that needs a new row from it and yields
        # one item per batch, so the failing item is the first batch of the
        # sixth such window
        windows = window_sizes(cfg)
        shards = [s for epoch in window_shards(cfg, 0) for s in epoch]
        sending = [sum(windows[:w]) for w in range(len(windows)) if 1 in shards[w]]
        assert served.count(wire.MSG_SYNC_PULL) == 5
        assert exc.value.batch == sending[served.count(wire.MSG_SYNC_PULL)]
        assert set(threading.enumerate()) <= before

    def test_dying_shard_fails_rapid_cache_fill(self, monkeypatch):
        # shard 1 serves worker 0's steady fill, then refuses every vector
        # pull: the first later fill that needs a row from it fails and
        # the swap at its epoch's start ends the run. At small_cfg's depth
        # no later fill needs a new row; at depth 1 one does.
        cfg = small_cfg(mode="rapid", transport="tcp", prefetch_depth=1)
        e = next(e for e, (fill, _) in enumerate(request_shards(cfg, 0))
                 if e and 1 in fill)
        kill_shard_after(monkeypatch, part=1, n=1, refuse={wire.MSG_VECTOR_PULL})
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError,
                           match=f"cache fill for epoch {e} failed") as exc:
            run(cfg)
        assert isinstance(exc.value.__cause__, TransportError)
        assert "shard died" in cause_chain(exc.value)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("repeat", range(3))
    @pytest.mark.parametrize("n, fails", [(2, "window"), (8, "fill")])
    def test_dying_shard_fails_rapid_run_one_way(self, monkeypatch, n, fails,
                                                 repeat):
        # shard 1 refuses every request after its n-th; only worker 0
        # sends it any: its first cache fill on its own thread, then from
        # its producer, in plan order, each later epoch's fill and each
        # window pull that needs a row from it, so the same request
        # always fails first. At depth 1 epoch 1's fill needs one.
        served = kill_shard_after(monkeypatch, part=1, n=n, refuse=None)
        cfg = small_cfg(mode="rapid", transport="tcp", prefetch_depth=1)
        windows = window_sizes(cfg)
        requests = request_shards(cfg, 0)
        shards = [s for _, epoch in requests for s in epoch]
        per_epoch = len(windows) // cfg.epochs
        sent = [("fill", 0)]  # (request, epoch or first item of the window)
        for e in range(cfg.epochs):
            if e and 1 in requests[e][0]:
                sent.append(("fill", e))
            for w in range(e * per_epoch, (e + 1) * per_epoch):
                if 1 in shards[w]:
                    sent.append(("window", sum(windows[:w])))
        failing, at = sent[n]
        assert failing == fails
        before = set(threading.enumerate())
        if failing == "window":
            with pytest.raises(PrefetchError) as exc:
                run(cfg)
            assert exc.value.batch == at
        else:
            with pytest.raises(RuntimeError,
                               match=f"cache fill for epoch {at} failed") as exc:
                run(cfg)
            assert at == 1
        assert isinstance(exc.value.__cause__, TransportError)
        assert "shard died" in cause_chain(exc.value)
        assert len(served) == n
        assert set(threading.enumerate()) <= before

    def test_dying_shard_fails_baseline_run(self, monkeypatch):
        kill_shard_after(monkeypatch, part=1, n=5)
        before = set(threading.enumerate())
        with pytest.raises(TransportError) as exc:
            run(small_cfg(mode="baseline", transport="tcp"))
        assert "shard died" in cause_chain(exc.value)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_rapid_pulls_once_per_window(self, monkeypatch, depth):
        shards = []
        build = train.build_shards

        def keep_shards(*args, **kwargs):
            shards.extend(build(*args, **kwargs))
            return shards

        monkeypatch.setattr(train, "build_shards", keep_shards)
        served = {p: [] for p in range(2)}
        handle = StoreShard.handle

        def count_types(self, payload):
            served[self.part].append(wire.decode_request(payload)[0])
            return handle(self, payload)

        monkeypatch.setattr(StoreShard, "handle", count_types)
        cfg = small_cfg(mode="rapid", prefetch_depth=depth)
        results = run(cfg)
        for r in results:
            shard = shards[1 - r.part]  # the worker's one remote shard
            # one RPC per shard a window needs a new row from
            rpcs = [sum(map(len, epoch)) for epoch in window_shards(cfg, r.part)]
            assert [rec.rpc_calls for rec in r.records] == rpcs
            assert served[shard.part].count(wire.MSG_SYNC_PULL) == sum(rpcs)
            client = TransferAccount()
            for rec in r.records:
                client.add(TransferAccount(rec.rpc_calls, rec.nodes_pulled,
                                           rec.bytes_pulled))
            client.add(r.cache_fill)
            assert client.snapshot() == (shard.rpc_calls, shard.nodes_served,
                                         shard.payload_bytes)

    def test_baseline_pulls_per_batch_rapid_per_window(self, rapid_results,
                                                       baseline_results):
        cfg = small_cfg()
        n = batches_per_epoch(cfg)
        for r in baseline_results:
            assert [rec.rpc_calls for rec in r.records] == [n] * cfg.epochs
        for r in rapid_results:
            assert [rec.rpc_calls for rec in r.records] == [
                sum(map(len, epoch)) for epoch in window_shards(cfg, r.part)]

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

    @pytest.mark.parametrize("from_file", [False, True])
    def test_more_partitions_than_nodes_rejected_before_any_shard(
            self, tmp_path, monkeypatch, from_file):
        gpath = tmp_path / "tiny.rgf"
        save_graph(synth_powerlaw(6, 2, 4, 2, 7), gpath)
        cfg = small_cfg(graph_path=str(gpath), partitions=7)  # nodes + 1
        if from_file:
            ppath = tmp_path / "k7.rpb"
            save_partition(PartitionBook(k=7, owner=np.arange(6)), ppath)
            cfg = small_cfg(graph_path=str(gpath), partition_path=str(ppath))

        def no_shards(*args):
            raise AssertionError("shards were built")

        monkeypatch.setattr(train, "build_shards", no_shards)
        before = threading.enumerate()
        with pytest.raises(ValueError,
                           match="7 partitions for a graph of 6 nodes"):
            run(cfg)
        assert threading.enumerate() == before

    def test_metrics_out_in_missing_directory_rejected_before_any_shard(
            self, tmp_path, monkeypatch):
        def no_shards(*args):
            raise AssertionError("shards were built")

        monkeypatch.setattr(train, "build_shards", no_shards)
        before = threading.enumerate()
        with pytest.raises(FileNotFoundError, match="no such directory"):
            run(small_cfg(metrics_out=str(tmp_path / "missing" / "run.csv")))
        assert threading.enumerate() == before

    def test_loss_trends_down(self, rapid_results):
        for r in rapid_results:
            losses = [rec.loss for rec in r.records]
            assert losses[-1] < losses[0]
