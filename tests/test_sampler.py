import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import edge_ids
from gnnpipe.graph import Graph, from_edge_list, synth_powerlaw
from gnnpipe.rng import GOLDEN, MASK64, mix64, mix64_array
from gnnpipe.sampler import (SeedSchedule, _group_order, epoch_batches,
                             sample_block, seed_for)


def schedule(s0=0, epochs=10, batches=100):
    return SeedSchedule(s0=s0, epochs=epochs, batches_per_epoch=batches)


class TestSeedFor:
    def test_deterministic(self):
        s = schedule()
        assert seed_for(s, 3, 7) == seed_for(s, 3, 7)

    def test_injective_instance(self):
        s = schedule()
        assert seed_for(s, 0, 0) != seed_for(s, 1, 0)

    def test_unique_over_run(self):
        s = schedule(epochs=100, batches=1000)
        e, i = np.meshgrid(np.arange(100, dtype=np.uint64),
                           np.arange(1000, dtype=np.uint64), indexing="ij")
        seeds = mix64_array((e << np.uint64(32)) | i)
        assert len(np.unique(seeds)) == 100_000

    def test_out_of_range(self):
        s = schedule(epochs=2, batches=3)
        with pytest.raises(IndexError):
            seed_for(s, 2, 0)
        with pytest.raises(IndexError):
            seed_for(s, 0, 3)


class TestEpochBatches:
    def test_ceiling_batch_count(self):
        train = np.arange(153_431)
        s = SeedSchedule(s0=1, epochs=1, batches_per_epoch=154)
        batches = epoch_batches(train, 1000, s, 0)
        assert len(batches) == 154
        assert len(batches[-1]) == 431

    def test_single_batch_is_permutation(self):
        train = np.arange(50)
        s = SeedSchedule(s0=9, epochs=1, batches_per_epoch=1)
        (batch,) = epoch_batches(train, 100, s, 0)
        assert sorted(batch.tolist()) == list(range(50))

    def test_partition_of_train_set(self):
        train = np.arange(100, 400, 3)
        s = SeedSchedule(s0=5, epochs=2, batches_per_epoch=7)
        batches = epoch_batches(train, 16, s, 1)
        merged = np.concatenate(batches)
        assert len(merged) == len(train)
        assert np.array_equal(np.sort(merged), train)

    def test_epochs_differ(self):
        train = np.arange(64)
        s = SeedSchedule(s0=5, epochs=2, batches_per_epoch=4)
        a = np.concatenate(epoch_batches(train, 16, s, 0))
        b = np.concatenate(epoch_batches(train, 16, s, 1))
        assert not np.array_equal(a, b)

    def test_errors(self):
        s = SeedSchedule(s0=0, epochs=1, batches_per_epoch=1)
        with pytest.raises(ValueError):
            epoch_batches(np.empty(0, dtype=np.int64), 10, s, 0)
        with pytest.raises(ValueError):
            epoch_batches(np.arange(5), 0, s, 0)


class TestSampleBlock:
    def test_deterministic(self, small_graph):
        a = sample_block(small_graph, np.arange(10), [3, 5], 99)
        b = sample_block(small_graph, np.arange(10), [3, 5], 99)
        assert np.array_equal(a.input_nodes, b.input_nodes)
        for d in range(a.num_layers):
            (s1, d1), (s2, d2) = edge_ids(a, d), edge_ids(b, d)
            assert np.array_equal(s1, s2) and np.array_equal(d1, d2)

    def test_full_fanout_is_exact_neighborhood(self, small_graph):
        g = small_graph
        max_deg = int(g.degrees().max())
        seeds = np.array([0, 5, 9])
        block = sample_block(g, seeds, [max_deg, max_deg], 7)
        # BFS oracle for the 2-hop closure
        hop1 = set(seeds.tolist())
        for v in seeds:
            hop1.update(g.neighbors(v).tolist())
        hop2 = set(hop1)
        for v in hop1:
            hop2.update(g.neighbors(v).tolist())
        assert set(block.input_nodes.tolist()) == hop2
        # and every frontier node keeps all its neighbors
        src, dst = edge_ids(block, 0)
        for v in seeds:
            got = np.sort(src[dst == v])
            assert np.array_equal(got, np.sort(g.neighbors(v)))

    def test_star_fanout_two(self, star_graph):
        block = sample_block(star_graph, np.array([0]), [2], 17)
        src, dst = edge_ids(block, 0)
        assert len(src) == 2
        assert len(set(src.tolist())) == 2
        assert all(1 <= s <= 20 for s in src)

    def test_without_replacement(self, small_graph):
        block = sample_block(small_graph, np.arange(20), [4, 8], 3)
        for d in range(block.num_layers):
            src, dst = edge_ids(block, d)
            pairs = set(zip(src.tolist(), dst.tolist()))
            assert len(pairs) == len(src)

    def test_isolated_seed_retained(self):
        g = from_edge_list(4, [(0, 1)])  # nodes 2, 3 isolated
        block = sample_block(g, np.array([2]), [3], 1)
        assert block.input_nodes.tolist() == [2]
        assert len(edge_ids(block, 0)[0]) == 0

    def test_node_keyed_streams(self, star_graph):
        # node 0's draw does not depend on who else is in the frontier
        g = from_edge_list(
            22, [(0, i) for i in range(1, 21)] + [(21, 1), (21, 2), (21, 3)]
        )
        a = sample_block(g, np.array([0]), [2], 5)
        b = sample_block(g, np.array([0, 21]), [2], 5)
        sa, da = edge_ids(a, 0)
        sb, db = edge_ids(b, 0)
        assert np.array_equal(np.sort(sa[da == 0]), np.sort(sb[db == 0]))

    @pytest.mark.parametrize("name", ["small_graph", "multigraph"])
    def test_all_seeds_at_full_fanout_give_the_graph_csr(self, request, name):
        """With every node a seed and a fanout of at least the maximum
        degree, the one hop is the graph's own CSR, each row sorted: the
        lists full-graph evaluation aggregates over."""
        g = request.getfixturevalue(name)
        n = g.num_nodes
        block = sample_block(g, np.arange(n), [int(g.degrees().max())], 3)
        ((src_pos, indptr, self_pos),) = block.hops
        rows = np.split(g.indices, g.indptr[1:-1])
        assert np.array_equal(indptr, g.indptr)
        assert np.array_equal(block.frontiers[1][src_pos],
                              np.concatenate([np.sort(r) for r in rows]))
        assert np.array_equal(self_pos, np.arange(n))

    def test_frontiers_nested(self, small_graph):
        block = sample_block(small_graph, np.arange(8), [3, 5], 11)
        for inner, outer in zip(block.frontiers, block.frontiers[1:]):
            assert np.all(np.isin(inner, outer))
        assert np.array_equal(block.input_nodes, np.unique(block.input_nodes))

    def test_errors(self, small_graph):
        with pytest.raises(ValueError, match="seeds must be nonempty"):
            sample_block(small_graph, np.array([]), [3], 0)
        with pytest.raises(ValueError, match="fanouts must be nonempty"):
            sample_block(small_graph, np.array([0]), [], 0)

    @pytest.mark.parametrize("fanouts", [[3, 0], [-3, 5], [0]])
    def test_fanout_below_one_rejected(self, small_graph, fanouts):
        with pytest.raises(ValueError, match="fanouts must be >= 1"):
            sample_block(small_graph, np.arange(4), fanouts, 0)


def _reference_sample_neighbors(g, frontier, fanout, step_seed):
    """Keys for every neighbor entry and one lexsort by (node, key)."""
    start = g.indptr[frontier]
    deg = (g.indptr[frontier + 1] - start).astype(np.int64)
    take = np.minimum(deg, fanout)
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    group_starts = np.concatenate([[0], np.cumsum(deg)[:-1]])
    rep = np.repeat(np.arange(len(frontier)), deg)
    pos_in_slice = np.arange(total, dtype=np.int64) - np.repeat(group_starts, deg)
    nbrs = g.indices[np.repeat(start, deg) + pos_in_slice]
    node_key = mix64_array(
        (frontier.astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
        ^ np.uint64(step_seed & MASK64)
    )
    keys = mix64_array(
        node_key[rep] + (pos_in_slice.astype(np.uint64) + np.uint64(1))
        * np.uint64(GOLDEN)
    )
    order = np.lexsort((keys, rep))
    rank = np.arange(total, dtype=np.int64) - np.repeat(group_starts, deg)
    kept = order[rank < np.repeat(take, deg)]
    return nbrs[kept], frontier[rep[kept]]


def _reference_block(g, seeds, fanouts, rng_seed):
    """(frontiers, edges) by the reference sampler, lexsort and union1d."""
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    frontiers, edges = [frontier], []
    for d in range(len(fanouts)):
        step_seed = mix64(rng_seed ^ ((d + 1) * GOLDEN))
        src, dst = _reference_sample_neighbors(
            g, frontier, fanouts[len(fanouts) - 1 - d], step_seed)
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        edges.append((src, dst))
        frontier = np.union1d(frontier, src)
        frontiers.append(frontier)
    return frontiers, edges


def _assert_same(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_matches_reference(g, seeds, fanouts, rng_seed):
    block = sample_block(g, seeds, fanouts, rng_seed)
    frontiers, edges = _reference_block(g, seeds, fanouts, rng_seed)
    assert len(block.frontiers) == len(frontiers)
    for got, want in zip(block.frontiers, frontiers):
        _assert_same(got, want)
    assert len(block.hops) == len(edges)
    for d, (ref_src, ref_dst) in enumerate(edges):
        src, dst = edge_ids(block, d)
        _assert_same(src, ref_src)
        _assert_same(dst, ref_dst)
        src_pos, indptr, self_pos = block.hops[d]
        counts = np.bincount(np.searchsorted(frontiers[d], ref_dst),
                             minlength=len(frontiers[d]))
        _assert_same(src_pos, np.searchsorted(frontiers[d + 1], ref_src))
        _assert_same(indptr, np.concatenate(([0], np.cumsum(counts))))
        _assert_same(self_pos, np.searchsorted(frontiers[d + 1], frontiers[d]))
    return block


@st.composite
def sampled_multigraphs(draw):
    """A small multigraph with unsorted rows, duplicate entries and
    zero-degree nodes, a seed list with repeats, fanouts and a step seed."""
    n = draw(st.integers(1, 12))
    lists = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=9),
                          min_size=n, max_size=n))
    indptr = np.cumsum([0] + [len(x) for x in lists]).astype(np.int64)
    g = Graph(
        num_nodes=n, num_edges=int(indptr[-1]), indptr=indptr,
        indices=np.array([v for x in lists for v in x], dtype=np.int64),
        features=np.zeros((n, 1), dtype=np.float32),
        labels=np.zeros(n, dtype=np.int64), feat_dim=1, num_classes=1,
        train_mask=np.ones(n, dtype=bool), val_mask=np.zeros(n, dtype=bool),
        test_mask=np.zeros(n, dtype=bool))
    g.validate()
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    fanouts = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    return g, np.array(seeds, dtype=np.int64), fanouts, draw(
        st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(sampled_multigraphs())
def test_random_multigraphs_match_reference(case):
    _assert_matches_reference(*case)


class TestReferenceEquality:
    """sample_block against the plain keys-for-every-entry sampler it
    replaced: same frontiers, edges and dtypes, bit for bit."""

    def test_replay_sized_power_law(self):
        g = synth_powerlaw(20_000, 5, 4, 8, seed=7)
        train = np.flatnonzero(g.train_mask)
        s = SeedSchedule(s0=7, epochs=1, batches_per_epoch=-(-len(train) // 512))
        for i, seeds in enumerate(epoch_batches(train, 512, s, 0)[:3]):
            _assert_matches_reference(g, seeds, [10, 25], seed_for(s, 0, i))

    @pytest.mark.parametrize("fanouts", [[1, 1], [2, 2], [2, 3, 1], [6, 6]])
    def test_duplicate_entries_and_zero_degree(self, multigraph, fanouts):
        g = multigraph
        for rng_seed in range(20):
            block = _assert_matches_reference(g, [0, 2, 5], fanouts, rng_seed)
        if min(fanouts) >= 6:  # take-all keeps every duplicate entry
            assert edge_ids(block, 0)[0].tolist() == [1, 1, 3, 3, 3, 4]

    @pytest.mark.parametrize("fanout", [1, 5, 19])
    def test_star_hub(self, star_graph, fanout):
        for rng_seed in range(20):
            _assert_matches_reference(star_graph, [0], [fanout, fanout], rng_seed)

    def test_fanout_at_least_max_degree(self, small_graph):
        max_deg = int(small_graph.degrees().max())
        for fanout in (max_deg, max_deg + 7):
            _assert_matches_reference(small_graph, np.arange(0, 1000, 37),
                                      [fanout, fanout], 5)


@pytest.mark.parametrize("num_groups", [1, 256, 257, 65_535, 65_536, 65_537, 196_608])
def test_group_order_matches_lexsort(num_groups):
    """Group indices on both sides of the uint8 and uint16 limits."""
    rng = np.random.default_rng(num_groups)
    group = rng.integers(0, num_groups, size=4 * num_groups)
    group[:2] = [0, num_groups - 1]
    keys = rng.permutation(np.arange(len(group), dtype=np.uint64) * np.uint64(GOLDEN))
    assert np.array_equal(_group_order(group, keys), np.lexsort((keys, group)))


def test_group_order_empty():
    empty = np.zeros(0, dtype=np.int64)
    assert _group_order(empty, empty.astype(np.uint64)).tolist() == []


def test_stream_independence(star_graph):
    """Leaf-1 selection under seed s is independent of selection under s+1."""
    table = np.zeros((2, 2), dtype=np.int64)
    sel = []
    for s in range(20_000):
        block = sample_block(star_graph, np.array([0]), [5], s)
        sel.append(1 in edge_ids(block, 0)[0])
    for a, b in zip(sel, sel[1:]):
        table[int(a), int(b)] += 1
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.01
