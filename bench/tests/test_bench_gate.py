"""The benchmark's correctness gate."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402


def full_call(**over):
    c = dict(kind="full", plan_digests=["31a0e51d3b2d9a8c"] * 2,
             params_digests=["aa"] * 2, losses=[2.1, 2.0],
             client_traffic=[670, 142372, 9111808], shard_traffic=[670, 142372, 9111808])
    c.update(over)
    return c


EXPECT = {"plan_digest": "31a0e51d3b2d9a8c", "params_digest": "aa"}


def test_passing_call():
    assert gate.check(full_call(), EXPECT) == []


def test_rejects_wrong_plan_digest():
    problems = gate.check(full_call(plan_digests=["0000000000000000"] * 2), EXPECT)
    assert len(problems) == 1 and "plan digest" in problems[0]
    setup = dict(kind="setup", plan_digests=["0000000000000000"])
    assert gate.check(setup, EXPECT)


def test_rejects_workers_that_disagree():
    assert gate.check(full_call(plan_digests=["31a0e51d3b2d9a8c", "x"]), EXPECT)
    assert gate.check(full_call(params_digests=["aa", "bb"]), EXPECT)


def test_rejects_params_digest_change_and_nonfinite_loss():
    assert gate.check(full_call(params_digests=["bb"] * 2), EXPECT)
    assert gate.check(full_call(losses=[2.0, float("nan")]), EXPECT)


def test_rejects_traffic_mismatch():
    problems = gate.check(full_call(shard_traffic=[670, 142372, 9111804]), EXPECT)
    assert len(problems) == 1 and "traffic" in problems[0]


def test_learn_fills_only_unknown_digests():
    expect = {}
    assert gate.learn(full_call(), expect)
    assert expect == EXPECT
    assert not gate.learn(full_call(params_digests=["cc"] * 2), expect)
    assert expect == EXPECT
