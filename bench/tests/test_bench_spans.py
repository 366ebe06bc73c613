"""Span arithmetic of the benchmark: self time, percentiles, tracing."""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import layer_metrics  # noqa: E402
from spans import (Span, Tracer, chrome_trace, percentile, self_times,  # noqa: E402
                   summarize)


def test_self_time_nested_overlapping_and_clipped_children():
    spans = [
        Span(0, "parent", 0, 100, None, thread=0),
        Span(1, "a", 10, 30, 0, thread=0),
        Span(2, "b", 20, 50, 0, thread=0),  # overlaps a: union 10..50
        Span(3, "c", 90, 120, 0, thread=0),  # clipped to 90..100
        Span(4, "grandchild", 12, 14, 1, thread=0),
    ]
    st = self_times(spans)
    assert st[0] == 100 - 40 - 10
    assert st[1] == 20 - 2
    assert st[4] == 2


def test_self_time_ignores_concurrent_span_on_another_thread():
    spans = [
        Span(0, "trainer", 0, 100, None, thread=0),
        Span(1, "producer", 10, 90, 0, thread=1),  # mislinked across threads
        Span(2, "step", 40, 60, 0, thread=0),
    ]
    assert self_times(spans)[0] == 80


def test_percentile_and_sample_counts():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    s = summarize(xs)
    assert (s["n"], s["tail"]) == (100, 90)
    assert s["tail_value"] == pytest.approx(90.1)
    assert summarize(range(19))["tail"] is None
    assert summarize(range(20))["tail"] == 50
    assert summarize(range(1000))["tail"] == 99
    assert summarize([])["n"] == 0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tracer_records_parents_threads_workers_and_batches():
    block = types.SimpleNamespace(epoch=2, batch=5)
    ns = types.SimpleNamespace()
    ns.inner = lambda: None

    def outer(b, part):
        ns.inner()

    ns.outer = outer
    ns.setup = lambda: None
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer",
                lambda a, k, r: {"epoch": a[0].epoch, "batch": a[0].batch, "worker": a[1]})
    tracer.wrap(ns, "setup", "setup")

    def worker():
        ns.setup()  # before the thread's worker is known
        ns.outer(block, 1)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    ns.setup()
    tracer.unwrap_all()
    assert ns.outer is outer

    spans = {(s.name, s.thread): s for s in tracer.resolved()}
    main_setup = [s for s in spans.values() if s.name == "setup" and s.worker is None]
    assert len(main_setup) == 1
    w_setup, = [s for s in spans.values() if s.name == "setup" and s.worker == 1]
    o, = [s for s in spans.values() if s.name == "outer"]
    i, = [s for s in spans.values() if s.name == "inner"]
    assert i.parent == o.id and o.parent is None and i.thread == o.thread
    assert (i.worker, i.epoch, i.batch) == (1, 2, 5)
    assert w_setup.thread == o.thread != main_setup[0].thread
    assert i.start_ns >= o.start_ns and i.end_ns <= o.end_ns


def test_layer_metrics_backward_and_boundary_wait():
    spans = [
        Span(0, "model.loss_and_grad", 0, 100_000_000, None, 0, worker=0),
        Span(1, "model.forward", 0, 30_000_000, 0, 0, worker=0),
        Span(2, "cache.wait_secondary", 100_000_000, 102_000_000, None, 0, worker=0),
        Span(3, "cache.swap", 102_000_000, 105_000_000, None, 0, worker=0),
        Span(4, "cache.wait_secondary", 103_000_000, 104_000_000, 3, 0, worker=0),
        Span(5, "model.evaluate", 105_000_000, 110_000_000, None, 1, worker=1),
    ]
    facts = dict(plan_batches=1, epoch_ms_total=105.0, cache_hits=3, cache_misses=1,
                 fill_bytes=2_000_000, shard=(1, 2, 3_000_000))
    m, dists = layer_metrics(spans, facts)
    assert m["model.forward_ms"] == 30.0
    assert m["model.backward_ms"] == 70.0
    assert m["cache.boundary_wait_ms"] == 5.0
    assert m["train.batch_visits_per_plan_batch"] == 1.0
    assert m["train.worker_skew_ms"] == 5.0
    assert m["cache.hit_ratio"] == 0.75
    assert m["store.shard_payload_mb"] == 3.0
    assert dists["prefetch.wait"]["n"] == 0 and m["prefetch.wait_ms.p50"] == 0.0


def test_chrome_trace_has_one_process_per_worker_and_span_fields():
    spans = [
        Span(0, "plan.generate", 0, 5000, None, 0),
        Span(1, "model.loss_and_grad", 6000, 9000, None, 1, worker=0, epoch=0, batch=3),
        Span(2, "model.forward", 6000, 7000, 1, 1, worker=0, epoch=0, batch=3),
        Span(3, "prefetch.assemble", 5000, 6000, None, 2, worker=0, epoch=0, batch=4),
    ]
    events = chrome_trace(spans, {0: "MainThread", 1: "trainer", 2: "producer"})["traceEvents"]
    procs = [e["args"]["name"] for e in events if e["name"] == "process_name"]
    assert procs == ["setup", "worker 0"]
    threads = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert threads == ["MainThread", "trainer", "producer"]
    lg, = [e for e in events if e["name"] == "model.loss_and_grad"]
    assert (lg["pid"], lg["tid"], lg["ts"], lg["dur"]) == (1, 1, 6.0, 3.0)
    assert lg["args"] == {"id": 1, "parent": None, "worker": 0, "epoch": 0, "batch": 3,
                          "self_us": 2.0}
