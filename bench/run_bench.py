"""The gnnpipe benchmark.

    python3 bench/run_bench.py --workload all           # every workload, seed 7
    python3 bench/run_bench.py --workload replay --seed 3 --seconds 25 --trace 0

Each workload is a closed loop of `gnnpipe.train.run()` calls, one at a
time, each in a fresh process (bench/child.py). Untraced (--trace 0) a
run makes set-up-only calls while the next is expected to end within a
quarter of --seconds (at least one), then full calls while the next is
expected to end within --seconds (at least two), and reports the
end-to-end metrics. Traced (--trace 1) it makes pairs of an untraced and
a traced full call the same way (at least one pair) and reports the
per-layer metrics, the traced call's spans going to .bench_work/traces/
as Chrome Trace Event JSON.

Every call passes the correctness gate (bench/gate.py) or counts as
failed. The last line of stdout is one JSON object with correct,
attempted, failed and metrics; the full record of the run, with the
environment, goes to .bench_work/reports/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gate
import layers
from workloads import (KNOWN_PLAN_DIGESTS, ROOT, SRC, WORK, WORKLOADS,
                       expectations_path, inputs_for, write_json)

SETUP_SHARE = 0.25  # share of --seconds spent on set-up-only calls
MIN_FULL_CALLS = 2  # a replay call takes most of --seconds; one sample is too noisy
DEADLINE_S = 170.0  # a workload's calls are killed past this, so a run exits within 180 s

END_TO_END = {  # name -> (unit, better)
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "seeds_per_s": ("1/s", "higher"),
    "epoch_ms": ("ms", "lower"),
    "pulled_mb": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_revision": None,
    }
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["git_revision"] = rev.stdout.strip() or None
    return env


def call(kind: str, w, seed: int, inputs: dict, n: int, timeout: float) -> dict:
    """One run() call in a fresh process; its facts, or an error."""
    calls = WORK / "calls"
    calls.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-s{seed}-{n}"
    spec = {
        "kind": kind,
        "src": str(SRC),
        "run": dict(w.run, graph_path=inputs["graph_path"], s0=seed),
        "train_nodes": inputs["train_nodes"],
        "metrics_csv": str(calls / f"{tag}.csv"),
        "trace_out": str(WORK / "traces" / f"{w.name}-s{seed}.trace.json"),
    }
    if kind == "traced":
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
    spec_path, out_path = calls / f"{tag}.spec.json", calls / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"),
                               str(spec_path), str(out_path)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out_path.exists():
        return {"kind": kind, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    return json.loads(out_path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    inputs = inputs_for(w, seed)  # untimed
    exp_path = expectations_path(w, seed)
    expect = json.loads(exp_path.read_text()) if exp_path.exists() else {}
    pinned = KNOWN_PLAN_DIGESTS.get((w.equivalence, seed))
    if pinned:
        expect["plan_digest"] = pinned
    calls: list[dict] = []

    t0 = time.monotonic()
    def make(kind: str) -> float:
        t = time.monotonic()
        c = call(kind, w, seed, inputs, len(calls), max(1.0, deadline - t))
        c["problems"] = [c["error"]] if "error" in c else gate.check(c, expect)
        if not c["problems"] and gate.learn(c, expect):
            write_json(exp_path, expect)
        calls.append(c)
        return time.monotonic() - t

    def loop(kinds: tuple[str, ...], until: float, at_least: int) -> None:
        # repeat while the next round is expected to end by `until` seconds
        for n in itertools.count(1):
            took = sum(make(k) for k in kinds)
            if n >= at_least and time.monotonic() - t0 + took > until:
                return

    if trace:
        loop(("full", "traced"), seconds, 1)
    else:
        loop(("setup",), SETUP_SHARE * seconds, 1)
        loop(("full",), seconds, MIN_FULL_CALLS)

    failed = sum(1 for c in calls if c["problems"])
    report = {"workload": name, "why": w.why, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": len(calls), "failed": failed,
              "expect": expect, "calls": calls}
    report["metrics"] = per_layer(calls) if trace else end_to_end(calls)
    return report


def end_to_end(calls: list[dict]) -> dict:
    full = [c for c in calls if c["kind"] == "full" and "error" not in c]
    done = [c for c in calls if "error" not in c]
    if not full:
        return {}
    values = {
        "run_s": statistics.median(c["run_s"] for c in full),
        "setup_s": statistics.median(c["setup_s"] for c in done),
        "seeds_per_s": statistics.median(
            c["epochs"] * c["train_nodes"] / (c["run_s"] - c["setup_s"]) for c in full),
        "epoch_ms": statistics.median(x for c in full for x in c["epoch_ms"]),
        "pulled_mb": statistics.median(c["pulled_bytes"] / 1e6 for c in full),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in full),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def per_layer(calls: list[dict]) -> dict:
    traced = [c for c in calls if c["kind"] == "traced" and "error" not in c]
    untraced = [c for c in calls if c["kind"] == "full" and "error" not in c]
    if not (traced and untraced):
        return {}
    values = {k: statistics.median(c["per_layer"][k] for c in traced) for k in traced[0]["per_layer"]}
    traced_s = statistics.median(c["run_s"] for c in traced)
    untraced_s = statistics.median(c["run_s"] for c in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return {k: {"value": values[k], "unit": layers.PER_LAYER[k][0]} for k in layers.PER_LAYER}


def print_report(r: dict) -> None:
    print(f"== {r['workload']} (seed {r['seed']}, {'traced' if r['trace'] else 'untraced'}): "
          f"{r['failed']} failed of {r['attempted']} runs attempted; "
          f"plan digest {r['expect'].get('plan_digest')}")
    for c in r["calls"]:
        for p in c["problems"]:
            print(f"   FAILED {c['kind']} call: {p}")
    for k, m in r["metrics"].items():
        print(f"   {k:36s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gnnpipe" / "__init__.py").exists():
        print(f"no gnnpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    for r in reports:
        r["env"] = env
        write_json(WORK / "reports" / f"{r['workload']}-s{args.seed}-trace{args.trace}.json", r)
        print_report(r)
    if any(not r["metrics"] for r in reports):
        print("no run completed; see .bench_work/reports/", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
