"""End-to-end runner: partition, plan, caches, prefetch, SGD loop, metrics.

Each worker runs one loop over the plan's epochs and batches on its own
thread. For each batch it takes the batch's `Lookahead` and the plan's
stored block, assembles its feature rows and trains; at each epoch
boundary it swaps in the cache fill the lookahead staged. So only that
thread looks up or swaps the cache. The plan sampled every block once,
before any worker starts, so the run samples nothing: every worker
trains on the same read-only block object. Before training, each rapid
worker counts each epoch's remote accesses once and chooses every
epoch's hot set from those counts (`cache.epoch_hot_sets`); the first
cache fill and the lookahead read that list. The lookahead fills each
later epoch's cache just before its first window and gathers the cache misses of each
window of consecutive batches at once; the plan fixes every batch's
input nodes and every epoch's hot set, so the lookahead never waits for
the loop. The mode decides four things only: the size of the worker's
hot-node cache, how many batches a window holds, whether the lookahead
carries rows between its requests, and whether a prefetcher runs the
lookahead. `rapid` caches each epoch's n_hot most-accessed remote
nodes, gathers windows of Q = prefetch_depth batches, and keeps a carry
store of as many rows as the largest window misses: since the plan
fixes every later request, the store keeps the rows used soonest again
(Belady's MIN), and each window and each later hot set pulls, in one
request, only what the store and the previous hot set do not hold. It
runs the lookahead on a prefetcher's producer thread, at most Q+1
batches ahead of the loop. `baseline` has a cache with no rows, so
every remote row is a miss, and pulls each batch's misses on its own,
on the worker's thread, as the loop reaches the batch. Both modes
consume bit-identical feature rows in the same order, so they produce
bit-identical parameter trajectories for the same plan. An epoch's
columns sum its batches' cache hits and misses and the traffic of its
lookahead items; a window's first item carries the window's pull, the
others an empty account. A worker reads features only through its
shard and its store client. It keeps its parameters at the end of each
epoch, and `run()` evaluates them once the workers join: once per
distinct parameter set, not once per worker.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import json
import math
import os
import platform
import threading
import time
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from typing import get_type_hints

import numpy as np
import scipy

from . import cache as cache_mod
from . import model
from .graph import Graph, load_graph, synth_powerlaw
from .partition import (PartitionBook, halo_expand, load_partition,
                        partition_edgecut, partition_random)
# nothing here calls collect_access, but bench/layers.py wraps it by name
from .plan import BatchPlan, collect_access, generate_plan
from .prefetch import (CarryStore, Lookahead, Prefetcher, PulledRows,
                       assemble_bundle)
from .rng import mix64
from .store import (InprocTransport, StoreClient, StoreShard, TcpShardServer,
                    TcpTransport, TransferAccount)

_PARAM_SEED_TAG = 0x70617261


@dataclass
class MetricsRecord:
    epoch: int
    mode: str
    t_e_ms: float
    rpc_calls: int
    nodes_pulled: int
    bytes_pulled: int
    cache_hits: int
    cache_misses: int
    reuse_ratio: float | None
    loss: float
    train_acc: float


# the metrics CSV has one column per MetricsRecord field, in field order
CSV_HEADER = [f.name for f in fields(MetricsRecord)]


def write_metrics(records: list[MetricsRecord], path) -> None:
    """CSV with the fixed header; reuse_ratio is empty when undefined.
    csv writes None as an empty cell and a float as its repr."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        w.writerows(astuple(r) for r in records)


def read_metrics(path) -> list[MetricsRecord]:
    kinds = get_type_hints(MetricsRecord)

    def cell(name: str, text: str):
        if kinds[name] in (int, str, float):
            return kinds[name](text)
        return None if text == "" else float(text)  # float | None

    with open(path, newline="") as f:
        return [MetricsRecord(**{k: cell(k, row[k]) for k in CSV_HEADER})
                for row in csv.DictReader(f)]


@dataclass
class RunConfig:
    # graph source: a path to an RGF1 file or generator parameters
    graph_path: str | None = None
    gen_nodes: int = 20000
    gen_edges_per_node: int = 5
    feat_dim: int = 32
    num_classes: int = 8
    partitions: int = 2
    partitioner: str = "edgecut"  # random | edgecut
    partition_path: str | None = None
    s0: int = 7
    epochs: int = 5
    batch_size: int = 512
    fanouts: list[int] = field(default_factory=lambda: [10, 25])
    n_hot: int | None = None  # absolute count; None -> use n_hot_pct
    n_hot_pct: float = 15.0  # percent of each worker's remote node set
    prefetch_depth: int = 3
    mode: str = "rapid"  # baseline | rapid
    latency_ms: float = 0.0
    transport: str = "inproc"  # inproc | tcp
    lr: float = 0.05
    hidden_dim: int = 32
    metrics_out: str | None = None

    def validate(self) -> None:
        if self.mode not in ("baseline", "rapid"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.partitioner not in ("random", "edgecut"):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if not self.fanouts:
            raise ValueError("fanouts must list one value per layer")
        if min(self.fanouts) < 1:
            raise ValueError(f"fanouts must be >= 1, got {self.fanouts}")
        if self.s0 < 0:
            raise ValueError(f"seed must be >= 0, got {self.s0}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden dim must be >= 1")
        if not (math.isfinite(self.latency_ms) and self.latency_ms >= 0):
            raise ValueError(f"latency must be finite and >= 0 ms, "
                             f"got {self.latency_ms}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.feat_dim < 1:
            raise ValueError("feat dim must be >= 1")
        if self.num_classes < 1:
            raise ValueError("classes must be >= 1")
        if not self.graph_path and not (
                self.gen_nodes > self.gen_edges_per_node >= 1):
            raise ValueError(
                f"a generated graph needs nodes > edges per node >= 1, got "
                f"nodes={self.gen_nodes} edges_per_node={self.gen_edges_per_node}")
        if self.n_hot is not None and self.n_hot < 0:
            raise ValueError("n_hot must be >= 0")
        if not 0 <= self.n_hot_pct <= 100:
            raise ValueError("n_hot percent must be in [0, 100]")


@dataclass
class WorkerResult:
    part: int
    records: list[MetricsRecord]
    epoch_params: list[list[model.LayerParams]]  # at each epoch's end
    plan_digest: str
    cache_keys: np.ndarray | None = None  # final hot set; None in baseline
    cache_fill: TransferAccount = field(default_factory=TransferAccount)

    @property
    def params(self) -> list[model.LayerParams]:
        """The parameters at the last epoch's end."""
        return self.epoch_params[-1]


def _load_or_generate(cfg: RunConfig) -> Graph:
    if cfg.graph_path:
        return load_graph(cfg.graph_path)
    return synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                          cfg.num_classes, cfg.s0)


def _partition(g: Graph, cfg: RunConfig) -> PartitionBook:
    """The partition file's book, or the partitioner's; either has at
    most one partition per node of `g`."""
    book = load_partition(cfg.partition_path) if cfg.partition_path else None
    if book is not None and len(book.owner) != g.num_nodes:
        raise ValueError(f"partition file covers {len(book.owner)} nodes, "
                         f"graph has {g.num_nodes}")
    k = cfg.partitions if book is None else book.k
    if k > g.num_nodes:
        raise ValueError(f"{k} partitions for a graph of {g.num_nodes} "
                         f"nodes: at most one partition per node")
    if book is not None:
        return book
    if cfg.partitioner == "random":
        return partition_random(g, k, cfg.s0)
    return partition_edgecut(g, k)


def resolve_n_hot(cfg: RunConfig, num_remote: int) -> int:
    """The hot-set size: n_hot, or the floor of n_hot_pct percent of
    num_remote taken at the percentage's decimal value, so 2.3% of 3,000
    is 69 although 3000 * 2.3 / 100.0 is 68.99999999999999."""
    if cfg.n_hot is not None:
        return cfg.n_hot
    return Fraction(repr(float(cfg.n_hot_pct))) * num_remote // 100


def _lookahead(
    plan: BatchPlan,
    book: PartitionBook,
    part: int,
    client: StoreClient,
    hot_sets: list[np.ndarray],
    window: int,
    fcache: cache_mod.FeatureCache | None = None,
    fill: TransferAccount | None = None,
    carry_rows: np.ndarray | None = None,
) -> Iterator[Lookahead]:
    """One `Lookahead` per batch, in plan order; with `fcache`, each epoch
    e >= 1 first stages its hot set's rows there, charged to `fill`.

    Each epoch's batches go in windows of `window` consecutive batches;
    a window never crosses an epoch boundary. A window's cache misses
    are its batches' remote input nodes outside the epoch's hot set in
    `hot_sets`. Without `carry_rows` every miss is pulled. With
    `carry_rows`, epoch 0's hot rows, a `CarryStore` of B rows, B the
    largest window's miss count, serves every request after epoch 0's
    hot set: it keeps the rows used soonest again (Belady's MIN over
    the plan's requests), copies what it and, at a fill, the previous
    hot set hold, and pulls only the rest. A window's pull is one sync
    pull (one RPC per owning shard with a new row), a fill's one vector
    pull, and neither sends anything when no row is new. A window's
    traffic is charged to its first batch; the others carry an empty
    account.
    """
    fills = fcache is not None
    windows = [[range(first, min(first + window, n))
                for first in range(0, n, window)]
               for n in map(plan.num_batches, range(plan.epochs))]
    remote = book.owner != part
    narrow = np.min_scalar_type(len(remote) - 1)

    def reference_string() -> Iterator[tuple[np.ndarray, bool]]:
        """Every request after H_0, in order, and whether it is a hot
        set; window ids in the narrowest dtype, since a carry store
        holds all of them once it plans."""
        for e in range(plan.epochs):
            if fills and e > 0:
                yield hot_sets[e], True
            wanted = remote.copy()
            wanted[hot_sets[e]] = False
            for batches in windows[e]:
                mark = np.zeros_like(wanted)
                for i in batches:
                    mark[plan.input_sets[e][i]] = True
                yield np.flatnonzero(mark & wanted).astype(narrow), False

    hot = PulledRows(np.empty(0, dtype=np.int64),
                     np.empty((0, client.feat_dim), dtype=np.float32))
    if carry_rows is not None:
        hot = PulledRows(hot_sets[0], carry_rows)
    store = CarryStore(reference_string(), len(remote), hot,
                       carry=carry_rows is not None)
    for e in range(plan.epochs):
        if fills and e > 0 and fcache.start_secondary_build(
                lambda: store.serve(client.vector_pull, fill)) is None:
            return  # the worker raises at this epoch's swap
        for batches in windows[e]:
            account = TransferAccount()
            pulled = store.serve(client.sync_pull, account)
            for i in batches:
                yield Lookahead(e, i, pulled,
                                account if i == batches[0] else TransferAccount())


def _run_worker(
    part: int,
    labels: np.ndarray,
    num_classes: int,
    book: PartitionBook,
    plan: BatchPlan,
    shard: StoreShard,
    client: StoreClient,
    cfg: RunConfig,
    stop: threading.Event,
) -> WorkerResult:
    """Train worker `part` over the whole plan; raise once `stop` is set,
    which a check before every batch sees.

    Each batch trains on the plan's stored block, so the worker samples
    nothing, and takes its cache misses from its `Lookahead`. When any
    epoch has hot nodes, each epoch e >= 1 starts, inside its timed
    region, by swapping in the fill the lookahead's producer staged for
    it; only the producer writes `fill` until `pf.close()`. The
    lookahead pulled e's misses for e's hot set, so a failed fill
    raises.

    The worker reads features only through `shard` and `client`. It
    evaluates nothing: each record's `train_acc` is NaN until `run()`
    evaluates the parameters the worker held at that epoch's end.
    """
    params = model.init_params(client.feat_dim, cfg.hidden_dim, num_classes,
                               len(cfg.fanouts), mix64(cfg.s0 ^ _PARAM_SEED_TAG))
    fill = TransferAccount()
    rapid = cfg.mode == "rapid"

    hot_sets = [np.empty(0, dtype=np.int64)] * plan.epochs
    if rapid:
        hot_sets = cache_mod.epoch_hot_sets(
            plan, book, part, lambda num_remote: resolve_n_hot(cfg, num_remote))
    fcache = cache_mod.build_steady(hot_sets[0], client, fill)
    turn_over = any(len(hot) for hot in hot_sets)

    ahead = _lookahead(plan, book, part, client, hot_sets,
                       cfg.prefetch_depth if rapid else 1,
                       fcache if turn_over else None, fill,
                       fcache.rows if rapid else None)
    pf = None
    if rapid:
        pf = Prefetcher(ahead, cfg.prefetch_depth)
        ahead = iter(pf)
    records: list[MetricsRecord] = []
    epoch_params: list[list[model.LayerParams]] = []
    try:
        for e in range(plan.epochs):
            t_start = time.perf_counter()
            if turn_over and e > 0:
                try:
                    fcache.swap()
                except Exception as exc:
                    raise RuntimeError(
                        f"the cache fill for epoch {e} failed, and its "
                        f"lookahead pulls assume that fill's hot set") from exc
            loss_sum = 0.0
            hits = misses = 0
            pulled = TransferAccount()
            for i in range(plan.num_batches(e)):
                if stop.is_set():
                    raise RuntimeError(f"worker {part} stopped: another "
                                       f"worker failed")
                block = plan.block(e, i)
                la = next(ahead)
                bundle = assemble_bundle(block, book.owner, part, shard,
                                         fcache, la.pulled)
                loss, grads = model.loss_and_grad(block, bundle.rows, labels,
                                                  params)
                params = model.sgd_step(params, grads, cfg.lr)
                loss_sum += loss
                hits += bundle.n_cache_hit
                misses += bundle.n_fallback
                pulled.add(la.account)
            t_e_ms = (time.perf_counter() - t_start) * 1000.0
            records.append(MetricsRecord(
                epoch=e,
                mode=cfg.mode,
                t_e_ms=t_e_ms,
                rpc_calls=pulled.rpc_calls,
                nodes_pulled=pulled.nodes_pulled,
                bytes_pulled=pulled.bytes_pulled,
                cache_hits=hits,
                cache_misses=misses,
                reuse_ratio=hits / (hits + misses) if hits + misses else None,
                loss=loss_sum / plan.num_batches(e),
                train_acc=math.nan,
            ))
            epoch_params.append(params)
    finally:
        if pf is not None:
            pf.close()
    return WorkerResult(
        part=part,
        records=records,
        epoch_params=epoch_params,
        plan_digest=plan.digest_hex(),
        cache_keys=fcache.hot_ids if rapid else None,
        cache_fill=fill,
    )


def build_shards(g: Graph, book: PartitionBook, latency_ms: float = 0.0) -> list[StoreShard]:
    shards = []
    for p in range(book.k):
        owned = book.owned(p)
        shards.append(StoreShard(p, owned, g.features[owned], latency_ms))
    return shards


def _openblas_function(name: str, lib: str):
    """OpenBLAS function `name` of the OpenBLAS that numpy loaded, under
    any of its `scipy_` prefix and `64_` suffix variants, or None when
    numpy uses another BLAS. A numpy extension's own handle finds the
    symbols of every library it loaded."""
    handle = ctypes.CDLL(lib)
    for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
        try:
            return getattr(handle, f"{prefix}{name}{suffix}")
        except AttributeError:
            continue
    return None


def _openblas_threads(lib: str = np.linalg._umath_linalg.__file__):
    """The (set, get) thread-count functions of the OpenBLAS that numpy
    loaded, or None when numpy uses another BLAS."""
    set_n = _openblas_function("openblas_set_num_threads", lib)
    get_n = _openblas_function("openblas_get_num_threads", lib)
    if set_n is None or get_n is None:
        return None
    set_n.argtypes, set_n.restype = [ctypes.c_int], None
    get_n.argtypes, get_n.restype = [], ctypes.c_int
    return set_n, get_n


def _openblas_text(name: str, lib: str):
    """What OpenBLAS string function `name` of the OpenBLAS that numpy
    loaded returns, or None when numpy uses another BLAS."""
    get = _openblas_function(name, lib)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def _openblas_corename(lib: str = np.linalg._umath_linalg.__file__):
    """The name of the kernel the OpenBLAS that numpy loaded chose for
    this CPU, such as 'SkylakeX', or None when numpy uses another BLAS.
    The kernel fixes the summation order of the weight products, so it
    is an input to the parameters' bits."""
    return _openblas_text("openblas_get_corename", lib)


def _evaluate_epochs(g: Graph, results: list[WorkerResult]) -> None:
    """Set every record's `train_acc` to the accuracy of the parameters
    its worker held at that epoch's end, evaluating each distinct
    parameter set, by its bytes, once. Workers that agree share one
    evaluation per epoch; workers that differ each get their own."""
    acc: dict[bytes, float] = {}
    for r in results:
        for rec, params in zip(r.records, r.epoch_params):
            key = b"".join(a.tobytes() for p in params
                           for a in (p.w_self, p.w_neigh, p.bias))
            if key not in acc:
                acc[key] = model.evaluate(g, params, g.train_mask)
            rec.train_acc = acc[key]


def _write_manifest(cfg: RunConfig, plan_digest: str, blas_threads: int | None,
                    path: str) -> None:
    """The run's inputs beside its metrics: the config, the plan digest,
    the library versions and the BLAS kernel, configuration and thread
    count that fix the parameters' bits."""
    lib = np.linalg._umath_linalg.__file__
    manifest = {
        "config": asdict(cfg),
        "plan_digest": plan_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_corename": _openblas_corename(lib),
        "openblas_config": _openblas_text("openblas_get_config", lib),
        "blas_threads": blas_threads,
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def run(cfg: RunConfig) -> list[WorkerResult]:
    """Execute the pipeline for every partition's worker; write CSVs.

    Pins numpy's OpenBLAS to one thread first, so the parameters do not
    depend on `OPENBLAS_NUM_THREADS`. The pin holds for the whole
    process, not only this call, and is not undone. The plan samples
    every batch's block once, before any worker starts; the first worker
    to fail stops the others at their next batch. Once every
    worker has finished, this thread evaluates each epoch's parameters
    (`_evaluate_epochs`); a failed run evaluates nothing. With
    `metrics_out`, it then writes each worker's CSV and the run's
    manifest (`manifest_path`).
    """
    cfg.validate()
    blas = _openblas_threads()
    if blas is not None:  # before any thread starts
        blas[0](1)
    if cfg.metrics_out and not os.path.isdir(os.path.dirname(cfg.metrics_out) or "."):
        raise FileNotFoundError(f"metrics_out {cfg.metrics_out!r}: no such directory")
    g = _load_or_generate(cfg)
    book = halo_expand(g, _partition(g, cfg))
    train_nodes = np.flatnonzero(g.train_mask)
    plan = generate_plan(g, train_nodes, cfg.fanouts, cfg.batch_size,
                         cfg.epochs, cfg.s0)
    shards = build_shards(g, book, cfg.latency_ms)

    servers: list[TcpShardServer] = []
    stop = threading.Event()  # set by the first worker to fail

    def connect(p: int):
        if cfg.transport == "inproc":
            return InprocTransport(shards[p])
        return TcpTransport(*servers[p].address)

    results: list[WorkerResult | None] = [None] * book.k
    errors: list[BaseException] = []  # in the order the workers failed

    def worker(p: int) -> None:
        client = StoreClient(book.owner, [], g.feat_dim)
        try:  # after a failed connect, close() closes the ones made
            for q in range(book.k):
                client.transports.append(connect(q))
            results[p] = _run_worker(p, g.labels, g.num_classes, book, plan,
                                     shards[p], client, cfg, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()
        finally:
            client.close()

    try:
        if cfg.transport == "tcp":
            for s in shards:
                servers.append(TcpShardServer(s))
        threads = [threading.Thread(target=worker, args=(p,))
                   for p in range(book.k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for srv in servers:
            srv.close()
    if errors:
        raise errors[0]

    out = [r for r in results if r is not None]
    _evaluate_epochs(g, out)
    if cfg.metrics_out:
        for r in out:
            write_metrics(r.records, worker_metrics_path(cfg.metrics_out, r.part))
        _write_manifest(cfg, plan.digest_hex(), None if blas is None else 1,
                        manifest_path(cfg.metrics_out))
    return out


def worker_metrics_path(path: str, part: int) -> str:
    """Insert the worker id before the extension: out.csv -> out.w0.csv."""
    return labeled_path(path, f"w{part}")


def manifest_path(path: str) -> str:
    """The run's manifest beside its metrics: out.csv -> out.manifest.json."""
    if "." in path.rsplit("/", 1)[-1]:
        path = path.rsplit(".", 1)[0]
    return f"{path}.manifest.json"


def labeled_path(path: str, label: str) -> str:
    """Insert `label` before the extension: out.csv -> out.<label>.csv."""
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}.{label}.{ext}"
    return f"{path}.{label}"
