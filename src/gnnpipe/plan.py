"""Offline precomputation: the full batch schedule, remote-access
frequency counting, and hot-set selection."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partition import PartitionBook
from .sampler import (ComputationBlock, SeedSchedule, epoch_batches, input_nodes,
                      sample_block, seed_for)


@dataclass
class FrequencyTable:
    """Access counts for remote node ids, one per batch appearance."""

    ids: np.ndarray  # sorted ascending
    counts: np.ndarray  # aligned with ids, all >= 1

    def as_dict(self) -> dict[int, int]:
        return {int(i): int(c) for i, c in zip(self.ids, self.counts)}

    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class BatchPlan:
    """The precomputed schedule: per-(epoch, batch) seed descriptors plus
    the materialized input-node sets.

    Full blocks are re-derived on demand from (seeds, rng_seed); a run
    derives each batch's block once, on one sampler thread, and every
    worker trains on that block. The stored input_nodes make frequency
    counting cheap and back the digest.
    """

    graph: Graph
    schedule: SeedSchedule
    fanouts: list[int]
    batch_seeds: list[list[np.ndarray]]  # [epoch][batch] -> seed node ids
    input_sets: list[list[np.ndarray]]  # [epoch][batch] -> sorted input nodes
    digest: int = 0

    @property
    def epochs(self) -> int:
        return self.schedule.epochs

    def num_batches(self, e: int) -> int:
        return len(self.batch_seeds[e])

    def block(self, e: int, i: int) -> ComputationBlock:
        """Re-derive the full block; bit-identical to the original."""
        return sample_block(
            self.graph,
            self.batch_seeds[e][i],
            self.fanouts,
            seed_for(self.schedule, e, i),
            epoch=e,
            batch=i,
        )

    def digest_hex(self) -> str:
        return f"{self.digest:016x}"


def generate_plan(
    g: Graph,
    train_nodes: np.ndarray,
    fanouts: list[int],
    batch_size: int,
    epochs: int,
    s0: int,
) -> BatchPlan:
    """Precompute every epoch's batches and their input-node sets."""
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    batches_per_epoch = -(-len(train_nodes) // batch_size)
    schedule = SeedSchedule(s0=s0, epochs=epochs, batches_per_epoch=batches_per_epoch)
    h = hashlib.blake2b(digest_size=8)
    batch_seeds: list[list[np.ndarray]] = []
    input_sets: list[list[np.ndarray]] = []
    for e in range(epochs):
        seeds_e = epoch_batches(train_nodes, batch_size, schedule, e)
        inputs_e = []
        for i, seeds in enumerate(seeds_e):
            inputs = input_nodes(g, seeds, fanouts, seed_for(schedule, e, i))
            inputs_e.append(inputs)
            h.update(np.array([e, i], dtype="<u8").tobytes())
            h.update(inputs.astype("<u8").tobytes())
        batch_seeds.append(seeds_e)
        input_sets.append(inputs_e)
    digest = int.from_bytes(h.digest(), "little")
    return BatchPlan(
        graph=g,
        schedule=schedule,
        fanouts=list(fanouts),
        batch_seeds=batch_seeds,
        input_sets=input_sets,
        digest=digest,
    )


def _count(chunks: list[np.ndarray]) -> FrequencyTable:
    if chunks:
        merged = np.concatenate(chunks)
    else:
        merged = np.empty(0, dtype=np.int64)
    ids, counts = np.unique(merged, return_counts=True)
    return FrequencyTable(ids=ids, counts=counts)


def collect_access(
    plan: BatchPlan, book: PartitionBook, my_part: int, epoch: int | None = None
) -> FrequencyTable:
    """Count remote input-node appearances, one per batch.

    With epoch=None the counts aggregate the whole plan: the worker's
    remote node set, whose size `n_hot_pct` is a percent of. Otherwise
    only that epoch's batches contribute.
    """
    epochs = range(plan.epochs) if epoch is None else [epoch]
    chunks = []
    for e in epochs:
        for ids in plan.input_sets[e]:
            chunks.append(ids[book.owner[ids] != my_part])
    return _count(chunks)


def top_hot(freq: FrequencyTable, n_hot: int) -> np.ndarray:
    """The n_hot most-accessed remote nodes, ties to the lower id,
    returned sorted ascending by id."""
    if n_hot < 0:
        raise ValueError("n_hot must be >= 0")
    if n_hot >= len(freq.ids):
        return freq.ids.copy()
    order = np.lexsort((freq.ids, -freq.counts))
    return np.sort(freq.ids[order[:n_hot]])
