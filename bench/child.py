"""One call of `gnnpipe.train.run()` in a fresh process.

    python3 bench/child.py SPEC.json OUT.json

SPEC holds kind ("setup", "full" or "traced"), src, run (RunConfig
fields), train_nodes, metrics_csv and, for a traced call, trace_out.
OUT receives the call's timings and the facts the correctness gate
needs. A "setup" call stops at the first `loss_and_grad`, so it times
set-up alone.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


class SetupReached(Exception):
    """Raised at the first loss_and_grad of a set-up-only call."""


def params_digest(params) -> str:
    h = hashlib.blake2b(digest_size=8)
    for p in params:
        for a in (p.w_self, p.w_neigh, p.bias):
            h.update(a.tobytes())
    return h.hexdigest()


def _stopped_at_setup(exc: BaseException | None) -> bool:
    while exc is not None:
        if isinstance(exc, SetupReached):
            return True
        exc = exc.__cause__
    return False


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import gnnpipe
    if src not in Path(gnnpipe.__file__).resolve().parents:
        raise ImportError(f"gnnpipe imported from {gnnpipe.__file__}, not {src}")
    from gnnpipe import model, train

    kind = spec["kind"]
    first_step: list[float] = []
    shards: list = []
    plans: list = []

    build_shards = train.build_shards
    def capture_shards(*args, **kwargs):
        shards.extend(build_shards(*args, **kwargs))
        return shards

    generate_plan = train.generate_plan
    def capture_plan(*args, **kwargs):
        plans.append(generate_plan(*args, **kwargs))
        return plans[-1]

    loss_and_grad = model.loss_and_grad
    def probe(*args, **kwargs):
        if not first_step:
            first_step.append(time.perf_counter())
        if kind == "setup":
            raise SetupReached
        return loss_and_grad(*args, **kwargs)

    train.build_shards = capture_shards
    train.generate_plan = capture_plan
    model.loss_and_grad = probe
    tracer = None
    if kind == "traced":
        import layers
        from spans import Tracer
        tracer = Tracer()
        layers.install(tracer)

    cfg = train.RunConfig(**spec["run"], metrics_out=spec["metrics_csv"])
    results = None
    t0 = time.perf_counter()
    try:
        results = train.run(cfg)
    except Exception as exc:
        if not (kind == "setup" and _stopped_at_setup(exc)):
            raise
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.unwrap_all()

    out = {"kind": kind, "setup_s": first_step[0] - t0,
           "plan_digests": [plans[0].digest_hex()]}
    if kind != "setup":
        out.update(_full_facts(spec, cfg, results, shards, t1 - t0))
    if tracer is not None:
        out.update(_traced_facts(spec, tracer, plans[0], out))
    Path(out_path).write_text(json.dumps(out))
    return 0


def _full_facts(spec, cfg, results, shards, run_s) -> dict:
    from gnnpipe.train import read_metrics, worker_metrics_path

    records = [read_metrics(worker_metrics_path(cfg.metrics_out, r.part)) for r in results]
    client = [0, 0, 0]
    for r, recs in zip(results, records):
        for rec in recs:
            client[0] += rec.rpc_calls
            client[1] += rec.nodes_pulled
            client[2] += rec.bytes_pulled
        client[0] += r.cache_fill.rpc_calls
        client[1] += r.cache_fill.nodes_pulled
        client[2] += r.cache_fill.bytes_pulled
    return {
        "run_s": run_s,
        "epochs": cfg.epochs,
        "train_nodes": spec["train_nodes"],
        "epoch_ms": [rec.t_e_ms for recs in records for rec in recs],
        "pulled_bytes": client[2],
        "fill_bytes": sum(r.cache_fill.bytes_pulled for r in results),
        "cache_hits": sum(rec.cache_hits for recs in records for rec in recs),
        "cache_misses": sum(rec.cache_misses for recs in records for rec in recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "plan_digests": [r.plan_digest for r in results],
        "params_digests": [params_digest(r.params) for r in results],
        "losses": [rec.loss for recs in records for rec in recs],
        "client_traffic": client,
        "shard_traffic": [sum(s.rpc_calls for s in shards),
                          sum(s.nodes_served for s in shards),
                          sum(s.payload_bytes for s in shards)],
    }


def _traced_facts(spec, tracer, plan, out) -> dict:
    import layers
    from spans import dump_spans

    spans = tracer.resolved()
    facts = {
        "plan_batches": sum(plan.num_batches(e) for e in range(plan.epochs)),
        "epoch_ms_total": sum(out["epoch_ms"]),
        "cache_hits": out["cache_hits"],
        "cache_misses": out["cache_misses"],
        "fill_bytes": out["fill_bytes"],
        "shard": out["shard_traffic"],
    }
    per_layer, dists = layers.layer_metrics(spans, facts)
    dump_spans(spec["trace_out"], spans, tracer.thread_names)
    return {"per_layer": per_layer, "distributions": dists, "spans": len(spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
