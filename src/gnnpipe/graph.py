"""CSR graph container, synthetic power-law generator, and RGF1 file I/O."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import mix64, shuffled

RGF1_MAGIC = b"RGF1"
RGF1_VERSION = 1


class GraphFormatError(ValueError):
    """Bad magic/version or otherwise unparseable container."""


class GraphValidationError(ValueError):
    """Structurally parseable file whose contents violate graph invariants."""


@dataclass
class Graph:
    """Directed CSR graph with dense node features, labels, and split masks.

    Undirected inputs are symmetrized at construction, so `indices` holds
    both directions of every undirected edge.
    """

    num_nodes: int
    num_edges: int
    indptr: np.ndarray  # int64, len num_nodes+1
    indices: np.ndarray  # int64, len num_edges
    features: np.ndarray  # float32, num_nodes x feat_dim
    labels: np.ndarray  # int64, len num_nodes
    feat_dim: int
    num_classes: int
    train_mask: np.ndarray  # bool, len num_nodes
    val_mask: np.ndarray
    test_mask: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def validate(self) -> None:
        if self.feat_dim < 1:
            raise GraphValidationError("feat dim must be >= 1")
        if self.num_classes < 1:
            raise GraphValidationError("classes must be >= 1")
        if not np.isfinite(self.features).all():
            raise GraphValidationError("features must be finite")
        if self.indptr[0] != 0 or self.indptr[-1] != self.num_edges:
            raise GraphValidationError("indptr endpoints do not match edge count")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphValidationError("indptr is not nondecreasing")
        if self.num_edges and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise GraphValidationError("neighbor id out of range")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise GraphValidationError(
                f"label out of range [0, {self.num_classes})")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise GraphValidationError("train/val/test masks overlap")

    def equals(self, other: "Graph") -> bool:
        return (
            self.num_nodes == other.num_nodes
            and self.num_edges == other.num_edges
            and self.feat_dim == other.feat_dim
            and self.num_classes == other.num_classes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.train_mask, other.train_mask)
            and np.array_equal(self.val_mask, other.val_mask)
            and np.array_equal(self.test_mask, other.test_mask)
        )


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """np.unique(ids) for a 1-d integer array: a sort, then a mask that
    keeps each value that differs from its left neighbour.

    numpy >= 2.3 answers a plain np.unique of integers from a hash
    table, several times slower than sorting on the id arrays here.
    `compress` applies the mask about four times faster than boolean
    indexing on them.
    """
    s = np.array(ids)  # a copy, sorted in place
    s.sort()
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s.compress(keep)


def from_edge_list(
    num_nodes: int,
    edges: list[tuple[int, int]],
    feat_dim: int = 4,
    num_classes: int = 2,
    features: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    symmetrize: bool = True,
) -> Graph:
    """Build a Graph from an undirected (or pre-directed) edge list.

    Convenience constructor for hand-built fixtures. Duplicate directed
    entries are collapsed.
    """
    if edges:
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
    else:
        src = dst = np.empty(0, dtype=np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    if features is None:
        features = np.zeros((num_nodes, feat_dim), dtype=np.float32)
    features = np.ascontiguousarray(features, dtype=np.float32)
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    train = np.ones(num_nodes, dtype=bool)
    g = Graph(
        num_nodes=num_nodes,
        num_edges=len(src),
        indptr=indptr,
        indices=dst,
        features=features,
        labels=labels,
        feat_dim=features.shape[1],
        num_classes=num_classes,
        train_mask=train,
        val_mask=np.zeros(num_nodes, dtype=bool),
        test_mask=np.zeros(num_nodes, dtype=bool),
    )
    g.validate()
    return g


def synth_powerlaw(
    n: int, m: int, feat_dim: int, num_classes: int, seed: int
) -> Graph:
    """Deterministic Barabasi-Albert graph with planted community labels.

    Preferential attachment: m initial nodes, each later node attaches to
    m distinct existing nodes chosen proportionally to degree. The result
    is stored as a symmetric directed CSR with exactly 2*m*(n-m) edge
    entries. Features are i.i.d. standard normal; labels start from
    node id mod num_classes and take one majority-over-neighborhood
    smoothing pass; masks split 70/15/15 by seeded shuffle.
    """
    if n <= m or m < 1:
        raise ValueError(f"need n > m >= 1, got n={n} m={m}")
    rng = np.random.Generator(np.random.Philox(seed))

    src_list = np.empty(m * (n - m), dtype=np.int64)
    dst_list = np.empty(m * (n - m), dtype=np.int64)
    # Each endpoint appears in `repeated` once per incident edge, so a
    # uniform draw from it is degree-proportional.
    repeated = np.empty(2 * m * (n - m), dtype=np.int64)
    rep_len = 0
    targets = np.arange(m, dtype=np.int64)  # first attachment: all seeds
    pos = 0
    for v in range(m, n):
        src_list[pos : pos + m] = v
        dst_list[pos : pos + m] = targets
        pos += m
        repeated[rep_len : rep_len + m] = targets
        repeated[rep_len + m : rep_len + 2 * m] = v
        rep_len += 2 * m
        if v == n - 1:
            break
        chosen: set[int] = set()
        while len(chosen) < m:
            draw = repeated[rng.integers(0, rep_len, size=m)]
            for t in draw:
                chosen.add(int(t))
                if len(chosen) == m:
                    break
        # sorted so the layout of `repeated` never depends on set iteration order
        targets = np.sort(np.fromiter(chosen, dtype=np.int64, count=m))

    src = np.concatenate([src_list, dst_list])
    dst = np.concatenate([dst_list, src_list])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)

    features = rng.standard_normal((n, feat_dim), dtype=np.float32)

    planted = np.arange(n, dtype=np.int64) % num_classes
    votes = np.zeros((n, num_classes), dtype=np.int64)
    np.add.at(votes, (src, planted[dst]), 1)
    votes[np.arange(n), planted] += 1  # self vote blends the planted rule in
    labels = np.argmax(votes, axis=1).astype(np.int64)  # ties -> lowest class

    perm = shuffled(np.arange(n, dtype=np.int64), mix64(seed ^ 0x6D61736B))
    n_train = int(0.70 * n)
    n_val = int(0.15 * n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True

    g = Graph(
        num_nodes=n,
        num_edges=len(src),
        indptr=indptr,
        indices=dst,
        features=features,
        labels=labels,
        feat_dim=feat_dim,
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )
    g.validate()
    return g


_HEADER = struct.Struct("<4sIQQII")  # magic, version, nodes, edges, dim, classes


def save_graph(g: Graph, path) -> None:
    """Write the RGF1 container (little-endian throughout)."""
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                RGF1_MAGIC,
                RGF1_VERSION,
                g.num_nodes,
                g.num_edges,
                g.feat_dim,
                g.num_classes,
            )
        )
        f.write(g.indptr.astype("<u8").tobytes())
        f.write(g.indices.astype("<u8").tobytes())
        f.write(np.ascontiguousarray(g.features, dtype="<f4").tobytes())
        f.write(g.labels.astype("<u4").tobytes())
        f.write(g.train_mask.astype("<u1").tobytes())
        f.write(g.val_mask.astype("<u1").tobytes())
        f.write(g.test_mask.astype("<u1").tobytes())


def load_graph(path) -> Graph:
    """Read an RGF1 container and validate the result."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _HEADER.size:
        raise GraphFormatError("file too short for RGF1 header")
    magic, version, num_nodes, num_edges, feat_dim, num_classes = _HEADER.unpack_from(
        data
    )
    if magic != RGF1_MAGIC:
        raise GraphFormatError(f"bad magic {magic!r}")
    if version != RGF1_VERSION:
        raise GraphFormatError(f"unsupported version {version}")

    off = _HEADER.size

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal off
        nbytes = np.dtype(dtype).itemsize * count
        if off + nbytes > len(data):
            raise OSError("truncated RGF1 payload")
        out = np.frombuffer(data, dtype=dtype, count=count, offset=off)
        off += nbytes
        return out

    indptr = take("<u8", num_nodes + 1).astype(np.int64)
    indices = take("<u8", num_edges).astype(np.int64)
    features = take("<f4", num_nodes * feat_dim).reshape(num_nodes, feat_dim).copy()
    labels = take("<u4", num_nodes).astype(np.int64)
    masks = take("<u1", 3 * num_nodes)
    if np.any(masks > 1):
        raise GraphFormatError(f"mask byte {masks[masks > 1][0]} is not 0 or 1")
    if off != len(data):
        raise GraphFormatError(f"{len(data) - off} bytes after the RGF1 payload")
    train, val, test = masks.astype(bool).reshape(3, num_nodes)
    g = Graph(
        num_nodes=num_nodes,
        num_edges=num_edges,
        indptr=indptr,
        indices=indices,
        features=features,
        labels=labels,
        feat_dim=feat_dim,
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )
    g.validate()
    return g
