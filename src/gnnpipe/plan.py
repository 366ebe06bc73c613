"""Offline precomputation: the full batch schedule, remote-access
frequency counting, and hot-set selection."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partition import PartitionBook
from .sampler import (ComputationBlock, SeedSchedule, epoch_batches, sample_block,
                      seed_for)


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
    """The precomputed schedule: every (epoch, batch)'s computation block,
    sampled once, and its input node set.

    A run trains every worker on the stored blocks, so it samples
    nothing. Each hop's position arrays are stored in the narrowest
    unsigned dtype that holds its next frontier's length, and every
    stored array is read-only, since every worker reads the same block
    object. input_sets[e][i] is blocks[e][i].input_nodes, the same
    array; it makes frequency counting cheap and backs the digest.
    """

    blocks: list[list[ComputationBlock]]  # [epoch][batch]
    input_sets: list[list[np.ndarray]]  # [epoch][batch] -> sorted input nodes
    digest: int = 0

    @property
    def epochs(self) -> int:
        return len(self.blocks)

    def num_batches(self, e: int) -> int:
        return len(self.blocks[e])

    def block(self, e: int, i: int) -> ComputationBlock:
        """The stored block of batch i of epoch e."""
        return self.blocks[e][i]

    def digest_hex(self) -> str:
        return f"{self.digest:016x}"


def _stored(block: ComputationBlock) -> ComputationBlock:
    """`block` with each hop's positions in the narrowest unsigned dtype
    that holds its next frontier's length and every array read-only.
    indptr stays int64: the model adds a row count to it, which would
    wrap silently in a narrow dtype."""
    hops = []
    for (src_pos, indptr, self_pos), nxt in zip(block.hops, block.frontiers[1:]):
        pos_type = np.min_scalar_type(len(nxt))
        hops.append((src_pos.astype(pos_type), indptr, self_pos.astype(pos_type)))
    block.hops = hops
    for a in (*block.frontiers, *(a for hop in hops for a in hop)):
        a.setflags(write=False)
    return block


def generate_plan(
    g: Graph,
    train_nodes: np.ndarray,
    fanouts: list[int],
    batch_size: int,
    epochs: int,
    s0: int,
) -> BatchPlan:
    """Sample every epoch's batches once and keep their blocks."""
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    batches_per_epoch = -(-len(train_nodes) // batch_size)
    schedule = SeedSchedule(s0=s0, epochs=epochs, batches_per_epoch=batches_per_epoch)
    h = hashlib.blake2b(digest_size=8)
    blocks: list[list[ComputationBlock]] = []
    input_sets: list[list[np.ndarray]] = []
    for e in range(epochs):
        blocks_e = []
        for i, seeds in enumerate(epoch_batches(train_nodes, batch_size, schedule, e)):
            block = _stored(sample_block(g, seeds, fanouts, seed_for(schedule, e, i),
                                         e, i))
            blocks_e.append(block)
            h.update(struct.pack("<QQ", e, i))
            h.update(block.input_nodes.astype("<u8"))
        blocks.append(blocks_e)
        input_sets.append([b.input_nodes for b in blocks_e])
    digest = int.from_bytes(h.digest(), "little")
    return BatchPlan(blocks=blocks, input_sets=input_sets, digest=digest)


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
