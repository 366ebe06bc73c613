"""Node-to-partition assignment, halo expansion, and RPB1 file I/O."""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, sorted_unique
from .rng import GOLDEN, mix64, mix64_array

RPB1_MAGIC = b"RPB1"


@dataclass
class PartitionBook:
    k: int
    owner: np.ndarray  # int64, len num_nodes, values in [0, k)
    halo: list[np.ndarray] = field(default_factory=list)  # per partition, sorted

    def owned(self, p: int) -> np.ndarray:
        return np.flatnonzero(self.owner == p)


def partition_random(g: Graph, k: int, seed: int) -> PartitionBook:
    """Hash each node id to a partition; deterministic in (seed, id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.arange(g.num_nodes, dtype=np.uint64)
    h = mix64_array((ids + np.uint64(1)) * np.uint64(GOLDEN) ^ np.uint64(mix64(seed)))
    owner = (h % np.uint64(k)).astype(np.int64)
    return PartitionBook(k=k, owner=owner)


def partition_edgecut(g: Graph, k: int) -> PartitionBook:
    """Streaming linear deterministic greedy partitioner.

    Nodes are visited in BFS order from node 0 (restarting at the lowest
    unvisited node per component). Each node goes to the non-full
    partition maximizing |assigned neighbors in p| * (1 - size_p/capacity)
    with capacity = ceil(1.05 * n / k); ties break to the least-loaded
    partition, then to the lowest index.

    The per-node work runs on Python scalars. Every count and size is
    below 2^53 and int/int division is correctly rounded, so each score
    is the same float64 a numpy evaluation of the formula gives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.num_nodes
    capacity = int(np.ceil(1.05 * n / k))
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    owner = [-1] * n
    sizes = [0] * k
    visited = [False] * n
    queue: deque[int] = deque()
    next_start = 0
    for _ in range(n):
        if not queue:
            while visited[next_start]:
                next_start += 1
            queue.append(next_start)
            visited[next_start] = True
        v = queue.popleft()
        nbrs = indices[indptr[v] : indptr[v + 1]]
        counts = [0] * k
        for u in nbrs:
            q = owner[u]
            if q >= 0:
                counts[q] += 1
        # ties (e.g. the zero-score start of a new component) go to the
        # least-loaded partition, then to the lowest index
        p, best = 0, -math.inf
        for q in range(k):
            size = sizes[q]
            score = counts[q] * (1.0 - size / capacity) if size < capacity else -math.inf
            if score > best or (score == best and size < sizes[p]):
                p, best = q, score
        owner[v] = p
        sizes[p] += 1
        for u in nbrs:
            if not visited[u]:
                visited[u] = True
                queue.append(u)
    return PartitionBook(k=k, owner=np.array(owner, dtype=np.int64))


def halo_expand(g: Graph, book: PartitionBook) -> PartitionBook:
    """Fill halo[p] with non-owned nodes one hop from p's owned nodes."""
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees())
    dst = g.indices
    halos = []
    for p in range(book.k):
        mask = (book.owner[src] == p) & (book.owner[dst] != p)
        halos.append(sorted_unique(dst[mask]))
    return PartitionBook(k=book.k, owner=book.owner, halo=halos)


def edge_cut(g: Graph, owner: np.ndarray) -> int:
    """Number of undirected edges crossing partitions."""
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees())
    return int(np.count_nonzero(owner[src] != owner[g.indices])) // 2


_RPB_HEADER = struct.Struct("<4sIQ")


def save_partition(book: PartitionBook, path) -> None:
    with open(path, "wb") as f:
        f.write(_RPB_HEADER.pack(RPB1_MAGIC, book.k, len(book.owner)))
        f.write(book.owner.astype("<u4").tobytes())


def load_partition(path) -> PartitionBook:
    """Read an RPB1 file. Halos are recomputed by the caller via halo_expand."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _RPB_HEADER.size:
        raise ValueError("file too short for RPB1 header")
    magic, k, num_nodes = _RPB_HEADER.unpack_from(data)
    if magic != RPB1_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    expected = _RPB_HEADER.size + 4 * num_nodes
    if len(data) < expected:
        raise OSError("truncated RPB1 payload")
    if len(data) > expected:
        raise ValueError(f"{len(data) - expected} bytes after the RPB1 payload")
    owner = np.frombuffer(data, dtype="<u4", count=num_nodes, offset=_RPB_HEADER.size)
    if num_nodes and int(owner.max()) >= k:
        raise ValueError(f"owner {int(owner.max())} out of range for k={k}")
    return PartitionBook(k=k, owner=owner.astype(np.int64))
