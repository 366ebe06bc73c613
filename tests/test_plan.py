import functools
import hashlib

import numpy as np
import pytest

from gnnpipe.graph import sorted_unique, synth_powerlaw
from gnnpipe.partition import PartitionBook, partition_edgecut
from gnnpipe.model import init_params, loss_and_grad
from gnnpipe.plan import (FrequencyTable, _stored, collect_access, generate_plan,
                          top_hot)
from gnnpipe.sampler import (ComputationBlock, SeedSchedule, epoch_batches,
                             sample_block, seed_for)
from gnnpipe.train import RunConfig, _openblas_corename, run


@pytest.fixture(scope="module")
def plan(small_graph):
    train = np.flatnonzero(small_graph.train_mask)
    return generate_plan(small_graph, train, [3, 5], 64, 3, s0=7)


@pytest.fixture(scope="module")
def book(small_graph):
    return partition_edgecut(small_graph, 2)


class TestGeneratePlan:
    def test_digest_stable(self, small_graph, plan):
        train = np.flatnonzero(small_graph.train_mask)
        again = generate_plan(small_graph, train, [3, 5], 64, 3, s0=7)
        assert again.digest == plan.digest
        assert len(plan.digest_hex()) == 16

    def test_digest_sensitive(self, small_graph, plan):
        train = np.flatnonzero(small_graph.train_mask)
        other = generate_plan(small_graph, train, [3, 5], 64, 3, s0=8)
        assert other.digest != plan.digest
        other = generate_plan(small_graph, train, [3, 6], 64, 3, s0=7)
        assert other.digest != plan.digest

    def test_shape(self, small_graph, plan):
        n_train = int(small_graph.train_mask.sum())
        expected_batches = -(-n_train // 64)
        assert plan.epochs == 3
        for e in range(3):
            assert plan.num_batches(e) == expected_batches
            merged = np.concatenate([plan.block(e, i).frontiers[0]
                                     for i in range(plan.num_batches(e))])
            assert np.array_equal(
                np.sort(merged), np.flatnonzero(small_graph.train_mask)
            )

    def test_stored_blocks_back_the_input_sets(self, plan):
        for e in range(plan.epochs):
            for i in range(plan.num_batches(e)):
                block = plan.block(e, i)
                assert plan.block(e, i) is block is plan.blocks[e][i]
                assert plan.input_sets[e][i] is block.input_nodes
                assert block.epoch == e and block.batch == i

    def test_stored_blocks_equal_fresh_samples(self, small_graph, plan):
        train = np.flatnonzero(small_graph.train_mask)
        s = SeedSchedule(s0=7, epochs=3, batches_per_epoch=plan.num_batches(0))
        for e in range(plan.epochs):
            for i, seeds in enumerate(epoch_batches(train, 64, s, e)):
                block, fresh = plan.block(e, i), sample_block(
                    small_graph, seeds, [3, 5], seed_for(s, e, i), e, i)
                assert np.array_equal(block.frontiers[0], sorted_unique(seeds))
                for a, b in zip(block.frontiers, fresh.frontiers):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                for hop, fresh_hop in zip(block.hops, fresh.hops):
                    for a, b in zip(hop, fresh_hop):
                        assert np.array_equal(a, b)


    def test_stored_blocks_train_like_fresh_samples(self, small_graph, plan):
        # narrow positions index the same rows, so a step on a stored
        # block gives the bits of a step on the int64 block
        train = np.flatnonzero(small_graph.train_mask)
        s = SeedSchedule(s0=7, epochs=3, batches_per_epoch=plan.num_batches(0))
        params = init_params(small_graph.feat_dim, 8, small_graph.num_classes,
                             2, seed=3)
        for i, seeds in enumerate(epoch_batches(train, 64, s, 2)):
            fresh = sample_block(small_graph, seeds, [3, 5], seed_for(s, 2, i))
            rows = small_graph.features[fresh.input_nodes]
            got, want = (loss_and_grad(b, rows, small_graph.labels, params)
                         for b in (plan.block(2, i), fresh))
            assert got[0] == want[0]
            for g_got, g_want in zip(got[1], want[1]):
                for x, y in zip(vars(g_got).values(), vars(g_want).values()):
                    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("length, narrow", [
    (1, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
    (65_536, np.uint32)])
def test_stored_positions_take_the_narrowest_dtype(length, narrow):
    nxt = np.arange(length, dtype=np.int64)
    pos = np.array([0, length - 1], dtype=np.int64)
    block = _stored(ComputationBlock(0, 0, [pos[:1], nxt],
                                     [(pos, np.array([0, 2]), pos[:1])]))
    ((src_pos, indptr, self_pos),) = block.hops
    assert src_pos.dtype == self_pos.dtype == narrow
    assert indptr.dtype == np.int64
    assert src_pos.tolist() == [0, length - 1] and self_pos.tolist() == [0]
    assert not any(a.flags.writeable for a in (*block.frontiers, *block.hops[0]))


def _unique_count(plan, book, my_part, epoch=None):
    """Reference counts: np.unique over every batch's remote input ids."""
    epochs = range(plan.epochs) if epoch is None else [epoch]
    chunks = [ids[book.owner[ids] != my_part]
              for e in epochs for ids in plan.input_sets[e]]
    return np.unique(np.concatenate(chunks), return_counts=True)


class TestCollectAccess:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_unique_count(self, plan, small_graph, k):
        book = partition_edgecut(small_graph, k)
        for part in range(k):
            for epoch in [*range(plan.epochs), None]:
                ids, counts = _unique_count(plan, book, part, epoch)
                freq = collect_access(plan, book, part, epoch)
                assert freq.ids.dtype == ids.dtype == np.int64
                assert freq.counts.dtype == counts.dtype
                assert np.array_equal(freq.ids, ids)
                assert np.array_equal(freq.counts, counts)
                # one partition: no remote node, an empty table
                assert (len(freq) == 0) == (k == 1)

    def test_hand_counted(self, plan, book, small_graph):
        # brute-force oracle: count per-batch remote appearances directly
        expected: dict[int, int] = {}
        for e in range(plan.epochs):
            for ids in plan.input_sets[e]:
                for v in ids[book.owner[ids] != 0]:
                    expected[int(v)] = expected.get(int(v), 0) + 1
        freq = collect_access(plan, book, 0)
        assert freq.as_dict() == expected

    def test_epoch_scope_sums_to_global(self, plan, book):
        total = collect_access(plan, book, 0)
        per_epoch = [collect_access(plan, book, 0, epoch=e) for e in range(3)]
        merged: dict[int, int] = {}
        for f in per_epoch:
            for k, v in f.as_dict().items():
                merged[k] = merged.get(k, 0) + v
        assert total.as_dict() == merged

    def test_no_local_ids(self, plan, book):
        freq = collect_access(plan, book, 1)
        assert np.all(book.owner[freq.ids] != 1)

    def test_single_partition_empty(self, plan, small_graph):
        book = PartitionBook(
            k=1,
            owner=np.zeros(small_graph.num_nodes, dtype=np.uint32),
            halo=[np.empty(0, dtype=np.int64)],
        )
        freq = collect_access(plan, book, 0)
        assert len(freq) == 0 and freq.total() == 0


class TestTopHot:
    def test_highest_counts_win(self):
        freq = FrequencyTable(
            ids=np.array([2, 5, 9, 11]), counts=np.array([4, 1, 7, 4])
        )
        assert top_hot(freq, 2).tolist() == [2, 9]

    def test_tie_breaks_to_lower_id(self):
        freq = FrequencyTable(ids=np.array([3, 8, 12]), counts=np.array([5, 5, 5]))
        assert top_hot(freq, 2).tolist() == [3, 8]

    def test_n_hot_clamped(self):
        freq = FrequencyTable(ids=np.array([1, 2]), counts=np.array([1, 2]))
        assert top_hot(freq, 10).tolist() == [1, 2]
        assert top_hot(freq, 0).tolist() == []

    def test_negative_rejected(self):
        freq = FrequencyTable(ids=np.array([1]), counts=np.array([1]))
        with pytest.raises(ValueError):
            top_hot(freq, -1)

    def test_monotone_in_n_hot(self, plan, book):
        freq = collect_access(plan, book, 0, epoch=0)
        prev: set[int] = set()
        for n in (5, 20, 80):
            cur = set(top_hot(freq, n).tolist())
            assert prev <= cur
            prev = cur


def test_skewed_access_histogram(small_graph):
    """Hub-heavy graphs concentrate remote traffic: with full-neighborhood
    expansion ruled out by small fanouts, the top 15 percent of remote ids
    should carry well over their uniform share of accesses."""
    train = np.flatnonzero(small_graph.train_mask)
    plan = generate_plan(small_graph, train, [2, 3], 16, 3, s0=11)
    book = partition_edgecut(small_graph, 2)
    freq = collect_access(plan, book, 0)
    n_hot = max(1, int(0.15 * len(freq)))
    order = np.argsort(-freq.counts, kind="stable")
    share = freq.counts[order[:n_hot]].sum() / freq.total()
    assert share >= 0.25


# The graph and model of the benchmark's remote workloads.
REMOTE_MODEL = dict(gen_nodes=3000, gen_edges_per_node=3, feat_dim=16,
                    num_classes=4, batch_size=32, fanouts=[5, 10], hidden_dim=16)

# The replay config and the remote config of the benchmark, with the
# edge-cut owner digest (blake2b-8 of the owner array as <i8) and the plan
# digest the program has always produced for them.
PINNED = [
    (RunConfig(), "ba387ee1fcb85f85", "31a0e51d3b2d9a8c"),
    (RunConfig(**REMOTE_MODEL), "b742876f4534a2d6", "55982d0d85e0b0cd"),
]


@pytest.mark.parametrize("cfg, owner_digest, plan_digest", PINNED,
                         ids=["replay", "remote"])
def test_pinned_config_digests(cfg, owner_digest, plan_digest):
    g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                       cfg.num_classes, cfg.s0)
    owner = partition_edgecut(g, cfg.partitions).owner
    assert hashlib.blake2b(owner.astype("<i8").tobytes(),
                           digest_size=8).hexdigest() == owner_digest
    plan = generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                         cfg.batch_size, cfg.epochs, cfg.s0)
    assert plan.digest_hex() == plan_digest


# The params digest (blake2b-8 over each layer's w_self, w_neigh and bias
# bytes) every worker ends a run of the benchmark's replay and remote
# configs with, at no latency, for each OpenBLAS kernel measured. The
# kernel, which numpy's OpenBLAS chooses from the CPU at load time, fixes
# the summation order of the weight products; baseline and rapid train
# bit-identically on any kernel.
PINNED_PARAMS = {  # kernel -> (replay, remote)
    "SkylakeX": ("e472956e68a32da6", "6110f5b6fe925eb6"),
    "Haswell": ("a5dbb8be4eb16b32", "eaa3a0652cbfe32d"),
    "Sandybridge": ("2928df8e045fe278", "7f9ded6fd292daba"),
    "Nehalem": ("655c000c5389fb86", "7f9ded6fd292daba"),
}

PARAMS_RUNS = {  # name -> (config, column of PINNED_PARAMS)
    "replay": (RunConfig(), 0),
    "remote-rapid": (RunConfig(**REMOTE_MODEL, mode="rapid"), 1),
    "remote-baseline": (RunConfig(**REMOTE_MODEL, mode="baseline"), 1),
}


@functools.cache
def params_digests(name: str) -> tuple[str, ...]:
    """Each worker's params digest at the end of run `name`."""
    cfg = PARAMS_RUNS[name][0]
    results = run(cfg)
    assert len(results) == cfg.partitions
    digests = []
    for r in results:
        h = hashlib.blake2b(digest_size=8)
        for p in r.params:
            for a in (p.w_self, p.w_neigh, p.bias):
                h.update(a.tobytes())
        digests.append(h.hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("name", PARAMS_RUNS)
def test_pinned_params_digests(name):
    digests = params_digests(name)
    assert len(set(digests)) == 1, f"workers disagree: {digests}"
    if name.startswith("remote-"):
        assert params_digests("remote-rapid") == params_digests("remote-baseline")
    kernel = _openblas_corename()
    if kernel not in PINNED_PARAMS:
        pytest.skip(f"no params digest recorded for OpenBLAS kernel {kernel!r}; "
                    f"this run's is {digests[0]}")
    assert digests[0] == PINNED_PARAMS[kernel][PARAMS_RUNS[name][1]], kernel


def test_replay_plan_stores_compact_read_only_blocks():
    """The replay plan keeps every block: each hop's positions in the
    narrowest unsigned dtype that holds its next frontier's length,
    indptr in int64, every array read-only, 42 MB at most in all (int64
    positions would take about 73 MB)."""
    cfg = PINNED[0][0]
    g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                       cfg.num_classes, cfg.s0)
    plan = generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                         cfg.batch_size, cfg.epochs, cfg.s0)
    stored = 0
    for e in range(plan.epochs):
        for i in range(plan.num_batches(e)):
            block = plan.block(e, i)
            for (src_pos, indptr, self_pos), nxt in zip(block.hops,
                                                       block.frontiers[1:]):
                narrow = np.min_scalar_type(len(nxt))
                assert narrow.kind == "u"
                assert src_pos.dtype == self_pos.dtype == narrow
                assert indptr.dtype == np.int64
            arrays = [*block.frontiers, *(a for hop in block.hops for a in hop)]
            assert not any(a.flags.writeable for a in arrays)
            stored += sum(a.nbytes for a in arrays)
    assert stored <= 42e6, f"{stored / 1e6:.1f} MB of stored blocks"
