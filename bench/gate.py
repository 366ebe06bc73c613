"""Correctness gate applied to every call of `run()` the benchmark makes.

A call fails when any check below fails; the benchmark counts it as a
failed run out of the runs attempted.
"""

from __future__ import annotations

import math


def check(call: dict, expect: dict) -> list[str]:
    """Problems with one call; empty when it passes.

    call: kind ("setup", "full" or "traced"), plan_digests (one per
    worker, or the one plan for a set-up call) and, unless kind is
    "setup", params_digests (one per worker), losses, client_traffic and
    shard_traffic as (rpc calls, rows, bytes).
    expect: plan_digest and params_digest, each None until known.
    """
    problems = []
    plans = set(call["plan_digests"])
    if len(plans) != 1:
        problems.append(f"workers disagree on the plan digest: {sorted(plans)}")
    elif expect.get("plan_digest") and plans != {expect["plan_digest"]}:
        problems.append(f"plan digest {plans.pop()} != expected {expect['plan_digest']}")
    if call["kind"] == "setup":
        return problems
    params = set(call["params_digests"])
    if len(params) != 1:
        problems.append("workers end with different parameters")
    elif expect.get("params_digest") and params != {expect["params_digest"]}:
        problems.append(f"params digest {params.pop()} != expected {expect['params_digest']}")
    if not all(math.isfinite(x) for x in call["losses"]):
        problems.append("non-finite loss")
    client, shard = list(call["client_traffic"]), list(call["shard_traffic"])
    if client != shard:
        problems.append(f"client traffic (rpcs, rows, bytes) {client} != shard side {shard}")
    return problems


def learn(call: dict, expect: dict) -> bool:
    """Fill in digests still unknown from a passing call; True if any was."""
    learned = False
    if expect.get("plan_digest") is None:
        expect["plan_digest"] = call["plan_digests"][0]
        learned = True
    if call["kind"] != "setup" and expect.get("params_digest") is None:
        expect["params_digest"] = call["params_digests"][0]
        learned = True
    return learned
