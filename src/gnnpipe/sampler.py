"""Seeded mini-batch generation and multi-layer neighbor sampling.

Neighbor selection is keyed per (rng_seed, expansion step, node): every
neighbor entry of a hub (a frontier node whose degree exceeds the
fanout) gets a counter-derived 64-bit key and the fanout smallest keys
win. With i.i.d. keys every k-subset is equally likely, so the draw is
uniform without replacement, and because streams are keyed by node id
the result does not depend on frontier iteration order. A take-all node
(degree at most the fanout) keeps every entry and draws no keys; its
result is the same as if it had drawn them.

All hubs of a step pick their winners in one grouped sort by (hub, key),
and each step's edges are ordered by (dst, src) the same way: an argsort
of the keys, then a stable argsort of the group index in the narrowest
unsigned dtype that holds it (numpy radix-sorts 8- and 16-bit integers),
which gives np.lexsort's order because keys never tie within a group
(or tie only between equal values). So a step's edges come out as one
CSR row per frontier node, each row's sources ascending, and the row
offsets are the running sum of the kept counts min(deg, fanout). The
next frontier and every position in it come from one np.unique over the
frontier and the sampled sources, so a step costs what its frontier and
edges cost, not the size of the graph. `input_nodes` runs the same
steps for callers that need only the input node set, and skips the edge
order and the positions.
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
    by_key = np.argsort(keys)
    grp = group[by_key]
    if len(grp):
        grp = grp.astype(np.min_scalar_type(int(grp.max())))
    return by_key[np.argsort(grp, kind="stable")]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) for each (s, n)."""
    offsets = np.cumsum(lengths) - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + np.repeat(starts - offsets, lengths))


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
    few = np.flatnonzero(~hub)
    few_edges = _ranges(start[few], deg[few])
    few_pos = np.repeat(few, deg[few])
    hubs = np.flatnonzero(hub)
    hub_deg = deg[hubs]
    hub_edges = _ranges(start[hubs], hub_deg)
    group = np.repeat(np.arange(len(hubs)), hub_deg)
    pos_in_slice = hub_edges - np.repeat(start[hubs], hub_deg)
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
    for fanout, step_seed in steps:
        src, dst_pos, counts = _sample_neighbors(g, frontier, fanout, step_seed)
        src = src[_group_order(dst_pos, src)]
        nxt, pos = np.unique(np.concatenate([frontier, src]), return_inverse=True)
        hops.append((pos[len(frontier):], np.concatenate(([0], np.cumsum(counts))),
                     pos[:len(frontier)]))
        frontier = nxt
        frontiers.append(frontier)
    return ComputationBlock(epoch=epoch, batch=batch, frontiers=frontiers, hops=hops)


def input_nodes(
    g: Graph, seeds: np.ndarray, fanouts: list[int], rng_seed: int
) -> np.ndarray:
    """sample_block(g, seeds, fanouts, rng_seed).input_nodes, without
    ordering the edges or locating positions: each step samples the
    same neighbors and the next frontier is their sorted union with the
    current one."""
    steps = _steps(fanouts, rng_seed)
    frontier = _seed_frontier(seeds)
    for fanout, step_seed in steps:
        src, _, _ = _sample_neighbors(g, frontier, fanout, step_seed)
        frontier = sorted_unique(np.concatenate([frontier, src]))
    return frontier
