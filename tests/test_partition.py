import itertools
from collections import deque

import numpy as np
import pytest

from gnnpipe.graph import from_edge_list, synth_powerlaw
from gnnpipe.partition import (PartitionBook, edge_cut, halo_expand,
                               load_partition, partition_edgecut,
                               partition_random, save_partition)
from conftest import two_cliques


def test_random_k1(small_graph):
    book = halo_expand(small_graph, partition_random(small_graph, 1, 7))
    assert (book.owner == 0).all()
    assert len(book.halo[0]) == 0


def test_random_deterministic(small_graph):
    a = partition_random(small_graph, 3, 42)
    b = partition_random(small_graph, 3, 42)
    assert np.array_equal(a.owner, b.owner)


def test_random_balance():
    g = synth_powerlaw(10000, 5, 4, 2, 7)
    book = partition_random(g, 2, 7)
    counts = np.bincount(book.owner, minlength=2)
    assert abs(counts[0] - 5000) <= 300
    assert abs(counts[1] - 5000) <= 300


def test_k_zero_rejected(small_graph):
    with pytest.raises(ValueError):
        partition_random(small_graph, 0, 7)
    with pytest.raises(ValueError):
        partition_edgecut(small_graph, 0)


def test_edgecut_k1(small_graph):
    book = partition_edgecut(small_graph, 1)
    assert edge_cut(small_graph, book.owner) == 0


def test_edgecut_two_cliques_optimal():
    g = two_cliques(6)
    book = partition_edgecut(g, 2)
    assert edge_cut(g, book.owner) == 0
    # brute force: zero really is the optimum for a balanced split
    best = min(
        edge_cut(g, np.array(assign))
        for assign in itertools.product([0, 1], repeat=g.num_nodes)
        if sum(assign) == g.num_nodes // 2
    )
    assert best == 0


def test_edgecut_beats_random_planted():
    # planted 2-community graph: dense inside, sparse across
    rng = np.random.Generator(np.random.Philox(3))
    n = 200
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            same = (a < n // 2) == (b < n // 2)
            p = 0.10 if same else 0.01
            if rng.random() < p:
                edges.append((a, b))
    g = from_edge_list(n, edges)
    cut_greedy = edge_cut(g, partition_edgecut(g, 2).owner)
    cut_rand = edge_cut(g, partition_random(g, 2, 7).owner)
    assert cut_greedy < cut_rand


def test_edgecut_beats_random_powerlaw():
    g = synth_powerlaw(10000, 5, 4, 2, 7)
    cut_greedy = edge_cut(g, partition_edgecut(g, 2).owner)
    cut_rand = edge_cut(g, partition_random(g, 2, 7).owner)
    assert cut_greedy < cut_rand


def test_edgecut_capacity(small_graph):
    for k in (2, 3, 7):
        book = partition_edgecut(small_graph, k)
        cap = int(np.ceil(1.05 * small_graph.num_nodes / k))
        assert np.bincount(book.owner, minlength=k).max() <= cap


def test_edgecut_deterministic(small_graph):
    a = partition_edgecut(small_graph, 4)
    b = partition_edgecut(small_graph, 4)
    assert np.array_equal(a.owner, b.owner)


def test_halo_path_graph(path_graph):
    book = partition_random(path_graph, 2, 0)
    book.owner = np.array([0, 0, 1])
    book = halo_expand(path_graph, book)
    assert book.halo[0].tolist() == [2]
    assert book.halo[1].tolist() == [1]


def test_halo_sound_and_complete(small_graph):
    g = small_graph
    book = halo_expand(g, partition_random(g, 3, 5))
    for p in range(book.k):
        halo = set(book.halo[p].tolist())
        expected = set()
        for v in range(g.num_nodes):
            if book.owner[v] != p:
                continue
            for u in g.neighbors(v):
                if book.owner[u] != p:
                    expected.add(int(u))
        assert halo == expected


def test_rpb_roundtrip(tmp_path, small_graph):
    book = partition_edgecut(small_graph, 3)
    p = tmp_path / "b.rpb"
    save_partition(book, p)
    loaded = load_partition(p)
    assert loaded.k == 3
    assert np.array_equal(loaded.owner, book.owner)


def test_rpb_bad_magic(tmp_path, small_graph):
    p = tmp_path / "b.rpb"
    save_partition(partition_random(small_graph, 2, 1), p)
    data = bytearray(p.read_bytes())
    data[:4] = b"NOPE"
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_partition(p)


def test_rpb_trailing_bytes_rejected(tmp_path, small_graph):
    p = tmp_path / "b.rpb"
    save_partition(partition_random(small_graph, 2, 1), p)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(ValueError, match="2 bytes after the RPB1 payload"):
        load_partition(p)


def test_rpb_owner_out_of_range_rejected(tmp_path):
    p = tmp_path / "b.rpb"
    save_partition(PartitionBook(k=2, owner=np.array([0, 1, 5, 0])), p)
    with pytest.raises(ValueError, match="out of range"):
        load_partition(p)


def test_rpb_k_zero_rejected(tmp_path):
    p = tmp_path / "b.rpb"
    save_partition(PartitionBook(k=0, owner=np.zeros(4, dtype=np.int64)), p)
    with pytest.raises(ValueError, match="k must be"):
        load_partition(p)


def _reference_edgecut(g, k):
    """The linear deterministic greedy rule with numpy arrays per node:
    bincount the assigned neighbours, score every partition, then pick
    the best score, the least-loaded, the lowest index."""
    n = g.num_nodes
    capacity = int(np.ceil(1.05 * n / k))
    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    queue = deque()
    next_start = 0
    for _ in range(n):
        if not queue:
            while visited[next_start]:
                next_start += 1
            queue.append(next_start)
            visited[next_start] = True
        v = queue.popleft()
        nbrs = g.neighbors(v)
        assigned = owner[nbrs]
        counts = np.bincount(assigned[assigned >= 0], minlength=k).astype(np.float64)
        scores = counts * (1.0 - sizes / capacity)
        scores[sizes >= capacity] = -np.inf
        best = np.flatnonzero(scores == scores.max())
        p = int(best[np.argmin(sizes[best])])
        owner[v] = p
        sizes[p] += 1
        for u in nbrs:
            if not visited[u]:
                visited[u] = True
                queue.append(int(u))
    return owner


def _random_graph(seed):
    """A few components of random edges, plus isolated nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    edges = []
    for lo, hi in ((0, n // 3), (n // 3, 2 * n // 3)):
        if hi - lo >= 2:
            a = rng.integers(lo, hi, size=2 * (hi - lo))
            b = rng.integers(lo, hi, size=2 * (hi - lo))
            edges += [(int(x), int(y)) for x, y in zip(a, b) if x != y]
    return from_edge_list(n, edges)


K_VALUES = (1, 2, 3, 4, 7)


def _assert_edgecut_matches_reference(g):
    for k in K_VALUES:
        got = partition_edgecut(g, k).owner
        want = _reference_edgecut(g, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), k


class TestEdgecutReferenceEquality:
    """partition_edgecut on Python scalars against the numpy-per-node
    loop it replaced: the same owner array, byte for byte."""

    @pytest.mark.parametrize("nodes, edges_per_node", [(20_000, 5), (3_000, 3)])
    def test_powerlaw(self, nodes, edges_per_node):
        g = synth_powerlaw(nodes, edges_per_node, 4, 2, 7)
        _assert_edgecut_matches_reference(g)

    def test_fixtures(self, small_graph, path_graph, star_graph):
        for g in (small_graph, path_graph, star_graph):
            _assert_edgecut_matches_reference(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_components_and_isolated_nodes(self, seed):
        _assert_edgecut_matches_reference(_random_graph(seed))
