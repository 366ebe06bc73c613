"""Seeded mini-batch generation and multi-layer neighbor sampling.

Neighbor selection is keyed per (rng_seed, expansion step, node): every
neighbor entry of a hub (a frontier node whose degree exceeds the
fanout) gets a counter-derived 64-bit key and the fanout smallest keys
win. With i.i.d. keys every k-subset is equally likely, so the draw is
uniform without replacement, and because streams are keyed by node id
the result does not depend on frontier iteration order. A take-all node
(degree at most the fanout) keeps every entry and draws no keys; its
result is the same as if it had drawn them.

All hubs of a step pick their winners in one grouped sort by (hub,
key): an argsort of the keys, then a stable argsort of the hub index in
the narrowest unsigned dtype that holds it (numpy radix-sorts 8- and
16-bit integers), which gives np.lexsort's order because keys never tie
within a hub. The next frontier is the sorted union of the frontier and
the sampled sources; a position table over the graph's ids, written only
at that frontier's ids, gives every position in it. A step's edges are
then one sort of packed (dst position, src position) keys, so they come
out as one CSR row per frontier node, each row's sources ascending, and
the row offsets are the running sum of the kept counts min(deg, fanout).
A step costs what its frontier and edges cost, not the size of the
graph. The plan samples every batch, a few hundred small blocks on the
remote configurations, so the steps call ndarray methods (`argsort`,
`repeat`, `nonzero`, `cumsum`) rather than the np.* functions that
forward to them: on those blocks the forwarding costs about as much as
the work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, sorted_unique
from .rng import GOLDEN, MASK64, mix64, mix64_array, shuffled

_SHUFFLE_TAG = 0x73687566  # domain-separates batch shuffling from sampling


@dataclass(frozen=True)
class SeedSchedule:
    """Injective (epoch, batch) -> 64-bit seed map shared by all workers."""

    s0: int
    epochs: int
    batches_per_epoch: int


def seed_for(s: SeedSchedule, e: int, i: int) -> int:
    """Mixed seed for batch i of epoch e; injective over the run.

    The SplitMix64 finalizer is a bijection and e*2^32 + i is injective
    for e, i < 2^32, so no two (e, i) pairs share a seed.
    """
    if not (0 <= e < s.epochs and 0 <= i < s.batches_per_epoch):
        raise IndexError(f"(e={e}, i={i}) outside schedule")
    return mix64(s.s0 ^ ((e << 32) | i))


def epoch_batches(
    train_nodes: np.ndarray, batch_size: int, s: SeedSchedule, e: int
) -> list[np.ndarray]:
    """Shuffle the train set with this epoch's seed and chunk it.

    The batches partition the train set: every train node appears in
    exactly one batch per epoch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(train_nodes) == 0:
        raise ValueError("empty train set")
    perm = shuffled(np.asarray(train_nodes, dtype=np.int64),
                    seed_for(s, e, 0) ^ _SHUFFLE_TAG)
    return [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]


@dataclass
class ComputationBlock:
    """Layered subgraph for one mini-batch, in positions only.

    frontiers[0] is the sorted unique seed set; frontiers[d+1] extends
    frontiers[d] with the neighbors sampled at expansion step d, so the
    frontiers are nested and frontiers[-1] is the input node set.
    hops[d] = (src_pos, indptr, self_pos) is step d as a CSR from
    frontiers[d] into frontiers[d+1]: node i of frontiers[d] has the
    sampled neighbors frontiers[d+1][src_pos[indptr[i]:indptr[i+1]]],
    in ascending order so aggregation order is fixed, and is itself
    frontiers[d+1][self_pos[i]].
    """

    epoch: int
    batch: int
    frontiers: list[np.ndarray]
    hops: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def input_nodes(self) -> np.ndarray:
        return self.frontiers[-1]

    @property
    def num_layers(self) -> int:
        return len(self.hops)


def _group_order(group: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts by (group, key), as np.lexsort((keys, group)).

    Equal keys within one group must be interchangeable (equal values
    or distinct keys), since the first sort is not stable. group must be
    non-negative.
    """
    by_key = keys.argsort()
    grp = group[by_key]
    if len(grp):
        grp = grp.astype(np.min_scalar_type(int(grp.max())))
    return by_key[grp.argsort(kind="stable")]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) for each (s, n)."""
    offsets = lengths.cumsum() - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + (starts - offsets).repeat(lengths))


def _sample_neighbors(
    g: Graph, frontier: np.ndarray, fanout: int, step_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample min(fanout, deg(v)) distinct neighbor entries for each
    frontier node; returns (neighbor ids, frontier positions), unordered,
    and each frontier node's kept count min(fanout, deg(v)).

    A node with degree at most fanout keeps every entry and draws no
    keys. A hub's entries get keys and its fanout smallest win.
    """
    start = g.indptr[frontier]
    deg = g.indptr[frontier + 1] - start
    hub = deg > fanout
    few = (~hub).nonzero()[0]
    few_deg = deg[few]
    few_edges = _ranges(start[few], few_deg)
    few_pos = few.repeat(few_deg)
    hubs = hub.nonzero()[0]
    hub_deg = deg[hubs]
    hub_start = start[hubs]
    hub_edges = _ranges(hub_start, hub_deg)
    group = np.arange(len(hubs)).repeat(hub_deg)
    pos_in_slice = hub_edges - hub_start.repeat(hub_deg)
    node_key = mix64_array(
        (frontier[hubs].astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
        ^ np.uint64(step_seed & MASK64)
    )
    keys = mix64_array(
        node_key[group] + (pos_in_slice.astype(np.uint64) + np.uint64(1))
        * np.uint64(GOLDEN)
    )
    # keys are distinct within a hub (mix64 is a bijection, GOLDEN is
    # odd), so the grouped sort needs no tie-break; after it, an entry's
    # rank in its hub is the pos_in_slice of the entry at its place
    kept = _group_order(group, keys)[pos_in_slice < fanout]
    return (np.concatenate([g.indices[few_edges], g.indices[hub_edges[kept]]]),
            np.concatenate([few_pos, hubs[group[kept]]]),
            np.minimum(deg, fanout))


def _steps(fanouts: list[int], rng_seed: int) -> list[tuple[int, int]]:
    """(fanout, step seed) of each expansion step, seeds outward; step d
    uses fanouts[len(fanouts)-1-d]."""
    if len(fanouts) == 0:
        raise ValueError("fanouts must be nonempty")
    if min(fanouts) < 1:
        raise ValueError(f"fanouts must be >= 1, got {list(fanouts)}")
    num_layers = len(fanouts)
    return [(fanouts[num_layers - 1 - d], mix64(rng_seed ^ ((d + 1) * GOLDEN)))
            for d in range(num_layers)]


def _seed_frontier(seeds: np.ndarray) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.int64)
    if len(seeds) == 0:
        raise ValueError("seeds must be nonempty")
    return sorted_unique(seeds)


def sample_block(
    g: Graph,
    seeds: np.ndarray,
    fanouts: list[int],
    rng_seed: int,
    epoch: int = 0,
    batch: int = 0,
) -> ComputationBlock:
    """Build the computation block for one batch of seed nodes.

    fanouts are listed input layer first (the convention of the training
    CLI), so expansion step d away from the seeds uses
    fanouts[len(fanouts)-1-d]. Nodes whose degree is at or below the
    fanout keep their whole neighborhood; zero-degree nodes simply
    contribute no edges.
    """
    steps = _steps(fanouts, rng_seed)
    frontier = _seed_frontier(seeds)
    frontiers = [frontier]
    hops: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    at = np.empty(g.num_nodes, dtype=np.int64)  # node id -> position in nxt
    for fanout, step_seed in steps:
        src, dst_pos, counts = _sample_neighbors(g, frontier, fanout, step_seed)
        nxt = sorted_unique(np.concatenate([frontier, src]))
        n = len(nxt)
        at[nxt] = np.arange(n)
        # nxt is sorted, so ordering by (dst, src) is ordering by positions
        edge = dst_pos * n
        edge += at[src]
        edge.sort()
        indptr = np.zeros(len(frontier) + 1, dtype=np.int64)
        counts.cumsum(out=indptr[1:])
        hops.append((np.remainder(edge, n, out=edge), indptr, at[frontier]))
        frontier = nxt
        frontiers.append(frontier)
    return ComputationBlock(epoch=epoch, batch=batch, frontiers=frontiers, hops=hops)
