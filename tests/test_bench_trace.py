"""The traced benchmark's wrappers still fit the program.

`bench/layers.py` wraps program functions by name and reads their
arguments and results. A renamed function, or a result of another shape,
would only show up as failed traced benchmark calls, so a small rapid run
goes through the same wrapping here.
"""

import sys
from pathlib import Path

import numpy as np

from gnnpipe import cache, plan, prefetch, train
from gnnpipe.graph import save_graph, synth_powerlaw

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

# every span name layers.install() registers; all of them run in a
# two-partition rapid run from a graph file
WRAPPED = {
    "graph.load", "partition.edgecut", "partition.halo_expand",
    "store.build_shards", "plan.generate", "sampler.sample_block", "plan.block",
    "plan.collect_access", "model.loss_and_grad", "model.forward", "model.sgd",
    "model.evaluate", "prefetch.assemble", "prefetch.wait", "prefetch.local",
    "cache.lookup", "store.sync_pull", "store.vector_pull", "wire.codec",
    "cache.build_steady", "cache.wait_secondary", "cache.swap",
}


def test_traced_run_fits_the_wrappers(tmp_path):
    g = synth_powerlaw(600, 3, 8, 4, 7)
    graph = tmp_path / "g.rgf"
    save_graph(g, graph)
    cfg = train.RunConfig(graph_path=str(graph), epochs=3, batch_size=64,
                          fanouts=[3, 5], mode="rapid", s0=7)
    originals = (train.assemble_bundle, prefetch.Prefetcher.next_bundle,
                 cache.FeatureCache.swap, plan.BatchPlan.block)
    tracer = Tracer()
    try:
        layers.install(tracer)
        results = train.run(cfg)
    finally:
        tracer.unwrap_all()
    assert (train.assemble_bundle, prefetch.Prefetcher.next_bundle,
            cache.FeatureCache.swap, plan.BatchPlan.block) == originals

    spans = tracer.resolved()
    assert {s.name for s in spans} == WRAPPED
    recs = [rec for r in results for rec in r.records]
    plan_batches = cfg.epochs * -(-int(np.count_nonzero(g.train_mask)) // cfg.batch_size)
    facts = {
        "plan_batches": plan_batches,
        "epoch_ms_total": sum(rec.t_e_ms for rec in recs),
        "cache_hits": sum(rec.cache_hits for rec in recs),
        "cache_misses": sum(rec.cache_misses for rec in recs),
        "fill_bytes": sum(r.cache_fill.bytes_pulled for r in results),
        "shard": (0, 0, 0),
    }
    metrics, _ = layers.layer_metrics(spans, facts)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_pct"}
    assert metrics["train.batch_visits_per_plan_batch"] == len(results)
    # the run samples each plan batch once, for every worker
    assert metrics["sampler.calls_per_trained_batch"] == 1.0
    # evaluation shares the layers but not `_forward_pass`, so every
    # `model.forward` span is one training step's forward
    names = [s.name for s in spans]
    assert names.count("model.forward") == names.count("model.loss_and_grad")
    assert metrics["store.sync_pull_rows"] == sum(rec.nodes_pulled for rec in recs)
    # every bundle the trainer waited for is tagged with its epoch and batch
    waits = [s for s in spans if s.name == "prefetch.wait"]
    assert len(waits) == len(results) * plan_batches
    assert all(s.epoch is not None and s.batch is not None for s in waits)
    assert metrics["cache.hits"] > 0
