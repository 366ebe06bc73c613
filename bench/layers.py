"""Which program functions the traced run wraps, and the per-layer
metrics derived from their spans.

Each function is wrapped where the program looks it up, so a name
imported into two modules is wrapped in both. `model._forward_pass` is
the only private name: `loss_and_grad` has no public forward/backward
split, so backward is the self time of `loss_and_grad`.

Naming rule: a metric ending in `.p50` or `.p90` is per call; any other
`_ms` metric is the run's total over every thread of every worker.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, Tracer, self_times, summarize


def _block(args, kwargs, result):
    b = args[0]
    return {"epoch": b.epoch, "batch": b.batch}


def _assemble(args, kwargs, result):
    b = args[0]
    return {"epoch": b.epoch, "batch": b.batch, "worker": int(args[2])}


def _sample_block(args, kwargs, result):
    return {"epoch": result.epoch, "batch": result.batch}


def _plan_block(args, kwargs, result):
    return {"epoch": args[1], "batch": args[2]}


def _collect_access(args, kwargs, result):
    return {"worker": int(args[2])}


def _next_bundle(args, kwargs, result):
    return {} if result is None else {"epoch": result.epoch, "batch": result.batch}


def _pull_rows(args, kwargs, result):
    return {"items": len(args[1])}


def install(tracer: Tracer) -> None:
    from gnnpipe import cache, model, plan, prefetch, store, train, wire

    w = tracer.wrap
    w(train, "load_graph", "graph.load")
    w(train, "partition_edgecut", "partition.edgecut")
    w(train, "halo_expand", "partition.halo_expand")
    w(train, "build_shards", "store.build_shards")
    w(train, "generate_plan", "plan.generate")
    w(plan, "sample_block", "sampler.sample_block", _sample_block)
    w(plan.BatchPlan, "block", "plan.block", _plan_block)
    w(train, "collect_access", "plan.collect_access", _collect_access)
    w(cache, "collect_access", "plan.collect_access", _collect_access)
    w(model, "loss_and_grad", "model.loss_and_grad", _block)
    w(model, "_forward_pass", "model.forward", _block)
    w(model, "sgd_step", "model.sgd")
    w(model, "evaluate", "model.evaluate")
    w(train, "assemble_bundle", "prefetch.assemble", _assemble)
    w(prefetch, "assemble_bundle", "prefetch.assemble", _assemble)
    w(prefetch.Prefetcher, "next_bundle", "prefetch.wait", _next_bundle)
    w(store.StoreShard, "rows_for_local", "prefetch.local")
    w(cache.FeatureCache, "lookup", "cache.lookup")
    w(store.StoreClient, "sync_pull", "store.sync_pull", _pull_rows)
    w(store.StoreClient, "vector_pull", "store.vector_pull", _pull_rows)
    for fn in ("encode_request", "decode_request", "encode_response", "decode_response"):
        w(wire, fn, "wire.codec")
    w(cache, "build_steady", "cache.build_steady")
    w(cache.FeatureCache, "wait_secondary", "cache.wait_secondary")
    w(cache.FeatureCache, "swap", "cache.swap")


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "graph.load_ms": ("ms", "lower"),
    "partition.edgecut_ms": ("ms", "lower"),
    "store.build_shards_ms": ("ms", "lower"),
    "plan.generate_ms": ("ms", "lower"),
    "sampler.sample_block_ms.p50": ("ms", "lower"),
    "sampler.sample_block_ms.p90": ("ms", "lower"),
    "sampler.calls_per_trained_batch": ("calls/batch", "lower"),
    "plan.block_ms": ("ms", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.backward_ms": ("ms", "lower"),
    "model.sgd_ms": ("ms", "lower"),
    "model.evaluate_ms": ("ms", "lower"),
    "prefetch.assemble_ms.p50": ("ms", "lower"),
    "prefetch.assemble_ms.p90": ("ms", "lower"),
    "prefetch.local_ms": ("ms", "lower"),
    "cache.lookup_ms": ("ms", "lower"),
    "prefetch.wait_ms.p50": ("ms", "lower"),
    "prefetch.wait_ms.p90": ("ms", "lower"),
    "prefetch.stall_share": ("ratio", "lower"),
    "store.sync_pull_ms.p50": ("ms", "lower"),
    "store.sync_pull_ms.p90": ("ms", "lower"),
    "store.sync_pull_calls": ("count", "lower"),
    "store.sync_pull_rows": ("count", "lower"),
    "wire.codec_ms": ("ms", "lower"),
    "store.vector_pull_ms": ("ms", "lower"),
    "store.vector_pull_calls": ("count", "lower"),
    "cache.fill_mb": ("MB", "lower"),
    "cache.build_steady_ms": ("ms", "lower"),
    "cache.boundary_wait_ms": ("ms", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "store.shard_rpcs": ("count", "lower"),
    "store.shard_rows_served": ("count", "lower"),
    "store.shard_payload_mb": ("MB", "lower"),
    "train.batch_visits_per_plan_batch": ("visits/batch", "lower"),
    "train.worker_skew_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# per-call distributions whose sample counts the report lists
DISTRIBUTIONS = ("sampler.sample_block", "prefetch.assemble", "prefetch.wait",
                 "store.sync_pull")


def layer_metrics(spans: list[Span], facts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run (all but trace.overhead_pct),
    and the per-call distributions behind the p50/p90 ones.

    facts: plan_batches, epoch_ms_total (sum of every worker's t_e_ms),
    cache_hits, cache_misses, fill_bytes and shard (rpcs, rows, bytes).
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def total_ms(*names):
        return sum(s.dur_ns for n in names for s in by_name[n]) / 1e6

    dists = {n: summarize([s.dur_ns / 1e6 for s in by_name[n]]) for n in DISTRIBUTIONS}
    batches = facts["plan_batches"]
    swap_ids = {s.id for s in by_name["cache.swap"]}
    boundary_ns = sum(s.dur_ns for s in by_name["cache.swap"]) + sum(
        s.dur_ns for s in by_name["cache.wait_secondary"] if s.parent not in swap_ids)
    finish: dict[int, int] = {}
    for s in spans:
        if s.worker is not None:
            finish[s.worker] = max(finish.get(s.worker, 0), s.end_ns)
    hits, misses = facts["cache_hits"], facts["cache_misses"]
    rpcs, rows, payload = facts["shard"]
    wait_ms = total_ms("prefetch.wait")

    m = {
        "graph.load_ms": total_ms("graph.load"),
        "partition.edgecut_ms": total_ms("partition.edgecut", "partition.halo_expand"),
        "store.build_shards_ms": total_ms("store.build_shards"),
        "plan.generate_ms": total_ms("plan.generate"),
        "sampler.sample_block_ms.p50": dists["sampler.sample_block"]["p50"],
        "sampler.sample_block_ms.p90": dists["sampler.sample_block"]["p90"],
        "sampler.calls_per_trained_batch": len(by_name["sampler.sample_block"]) / batches,
        "plan.block_ms": total_ms("plan.block"),
        "model.forward_ms": total_ms("model.forward"),
        "model.backward_ms": sum(selfs[s.id] for s in by_name["model.loss_and_grad"]) / 1e6,
        "model.sgd_ms": total_ms("model.sgd"),
        "model.evaluate_ms": total_ms("model.evaluate"),
        "prefetch.assemble_ms.p50": dists["prefetch.assemble"]["p50"],
        "prefetch.assemble_ms.p90": dists["prefetch.assemble"]["p90"],
        "prefetch.local_ms": total_ms("prefetch.local"),
        "cache.lookup_ms": total_ms("cache.lookup"),
        "prefetch.wait_ms.p50": dists["prefetch.wait"]["p50"],
        "prefetch.wait_ms.p90": dists["prefetch.wait"]["p90"],
        "prefetch.stall_share": wait_ms / facts["epoch_ms_total"],
        "store.sync_pull_ms.p50": dists["store.sync_pull"]["p50"],
        "store.sync_pull_ms.p90": dists["store.sync_pull"]["p90"],
        "store.sync_pull_calls": len(by_name["store.sync_pull"]),
        "store.sync_pull_rows": sum(s.items for s in by_name["store.sync_pull"]),
        "wire.codec_ms": total_ms("wire.codec"),
        "store.vector_pull_ms": total_ms("store.vector_pull"),
        "store.vector_pull_calls": len(by_name["store.vector_pull"]),
        "cache.fill_mb": facts["fill_bytes"] / 1e6,
        "cache.build_steady_ms": total_ms("cache.build_steady"),
        "cache.boundary_wait_ms": boundary_ns / 1e6,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.shard_rpcs": rpcs,
        "store.shard_rows_served": rows,
        "store.shard_payload_mb": payload / 1e6,
        "train.batch_visits_per_plan_batch": len(by_name["model.loss_and_grad"]) / batches,
        "train.worker_skew_ms": (max(finish.values()) - min(finish.values())) / 1e6
        if finish else 0.0,
    }
    return m, dists
