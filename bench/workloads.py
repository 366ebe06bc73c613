"""Workload definitions and their seeded, cached inputs.

Every workload is a closed loop of `gnnpipe.train.run(RunConfig)` calls,
one at a time, each in a fresh process, over the in-process transport.
The graph comes from `synth_powerlaw` with the benchmark's seed and is
written once per (workload, seed) as an RGF1 file; the program only ever
receives `graph_path`. Generating it is not timed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # synth_powerlaw(n, m, feat_dim, num_classes, seed)
    nodes: int
    edges_per_node: int
    feat_dim: int
    num_classes: int
    # RunConfig fields; graph_path, s0 and metrics_out are set per call
    run: dict
    # workloads whose params digest must match for the same seed
    # (criterion 3: baseline and rapid train bit-identically)
    equivalence: str


_REPLAY_RUN = dict(partitions=2, partitioner="edgecut", epochs=5,
                   batch_size=512, fanouts=[10, 25], mode="rapid",
                   n_hot_pct=15.0, latency_ms=0.0, transport="inproc")

# Criterion 6's graph and model, with the default hot-set size: at
# n_hot 100% no pull is left on the training path to hide.
_REMOTE_RUN = dict(partitions=2, partitioner="edgecut", epochs=5,
                   batch_size=32, fanouts=[5, 10], hidden_dim=16,
                   latency_ms=5.0, prefetch_depth=3, n_hot_pct=15.0,
                   transport="inproc")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="replay",
            why=("Pinned replay config (20k nodes, 5 edges/node, feat 32, batch 512, "
                 "fanouts 10,25, rapid, n_hot 15%, no latency): compute-bound, "
                 "sampler, plan and model dominate."),
            nodes=20_000, edges_per_node=5, feat_dim=32, num_classes=8,
            run=_REPLAY_RUN, equivalence="replay",
        ),
        Workload(
            name="remote-rapid",
            why=("Criterion-6 graph (3k nodes, batch 32, fanouts 5,10) with 5 ms per "
                 "shard request, rapid, n_hot 15%, depth 3: fetch-bound, so cache "
                 "and prefetch queue matter."),
            nodes=3_000, edges_per_node=3, feat_dim=16, num_classes=4,
            run=dict(_REMOTE_RUN, mode="rapid"), equivalence="remote",
        ),
        Workload(
            name="remote-baseline",
            why=("Same inputs as remote-rapid in baseline mode: every remote row is a "
                 "sync pull on the training path, so cache and prefetcher are "
                 "bypassed and should show no change."),
            nodes=3_000, edges_per_node=3, feat_dim=16, num_classes=4,
            run=dict(_REMOTE_RUN, mode="baseline"), equivalence="remote",
        ),
    )
}

# Plan digests the program has always produced; ROADMAP pins the replay one.
KNOWN_PLAN_DIGESTS = {
    ("replay", 7): "31a0e51d3b2d9a8c",
    ("remote", 7): "55982d0d85e0b0cd",
}


def inputs_for(w: Workload, seed: int) -> dict:
    """Path and facts of the (workload, seed) graph, generating it once."""
    import numpy as np

    from gnnpipe.graph import save_graph, synth_powerlaw

    d = WORK / "inputs"
    d.mkdir(parents=True, exist_ok=True)
    graph = d / f"{w.name}-s{seed}.rgf"
    meta = d / f"{w.name}-s{seed}.json"
    if not (graph.exists() and meta.exists()):
        g = synth_powerlaw(w.nodes, w.edges_per_node, w.feat_dim,
                           w.num_classes, seed)
        tmp = graph.with_suffix(".tmp")
        save_graph(g, tmp)
        os.replace(tmp, graph)
        write_json(meta, {"train_nodes": int(np.count_nonzero(g.train_mask))})
    return {"graph_path": str(graph), **json.loads(meta.read_text())}


def expectations_path(w: Workload, seed: int) -> Path:
    """Digests a first passing run recorded, shared by equivalent workloads."""
    return WORK / "inputs" / f"{w.equivalence}-s{seed}.expect.json"


def write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)
