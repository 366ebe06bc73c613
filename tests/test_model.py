import numpy as np
import pytest

from conftest import edge_ids
from gnnpipe.graph import from_edge_list, synth_powerlaw
from gnnpipe.model import (LayerParams, _softmax_ce, evaluate, forward,
                           full_forward, init_params, layer_dims,
                           loss_and_grad, sgd_step)
from gnnpipe.sampler import sample_block


def dense_reference(block, rows, params):
    """Slow per-node oracle: loop-based mean aggregation, same math."""
    h = {int(v): rows[i].astype(params[0].w_self.dtype)
         for i, v in enumerate(block.input_nodes)}
    num_layers = len(params)
    for l, p in enumerate(params):
        d = num_layers - 1 - l
        src, dst = edge_ids(block, d)
        nbrs: dict[int, list] = {int(v): [] for v in block.frontiers[d]}
        for s, t in zip(src, dst):
            nbrs[int(t)].append(h[int(s)])
        new_h = {}
        for v in block.frontiers[d]:
            v = int(v)
            mean = (np.mean(nbrs[v], axis=0) if nbrs[v]
                    else np.zeros(p.w_neigh.shape[0], dtype=p.w_self.dtype))
            z = h[v] @ p.w_self + mean @ p.w_neigh + p.bias
            new_h[v] = np.maximum(z, 0) if l < num_layers - 1 else z
        h = new_h
    return np.stack([h[int(v)] for v in block.frontiers[0]])


def flatten(params):
    return np.concatenate([np.concatenate([p.w_self.ravel(), p.w_neigh.ravel(),
                                           p.bias.ravel()]) for p in params])


def unflatten(vec, params):
    out = []
    i = 0
    for p in params:
        pieces = []
        for a in (p.w_self, p.w_neigh, p.bias):
            pieces.append(vec[i:i + a.size].reshape(a.shape))
            i += a.size
        out.append(LayerParams(*pieces))
    return out


def fd_check(block, rows, labels, params, tol, floor):
    """Central finite differences in f64 against the analytic gradient."""
    params64 = [p.astype(np.float64) for p in params]
    rows64 = rows.astype(np.float64)
    _, grads = loss_and_grad(block, rows64, labels, params64)
    theta = flatten(params64)
    g_analytic = flatten(grads)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(theta), size=min(60, len(theta)), replace=False)
    eps = 1e-6
    for j in idx:
        tp = theta.copy()
        tp[j] += eps
        lp, _ = loss_and_grad(block, rows64, labels, unflatten(tp, params64))
        tm = theta.copy()
        tm[j] -= eps
        lm, _ = loss_and_grad(block, rows64, labels, unflatten(tm, params64))
        numeric = (lp - lm) / (2 * eps)
        rel = abs(g_analytic[j] - numeric) / max(abs(numeric), floor)
        assert rel < tol, f"param {j}: analytic {g_analytic[j]} vs fd {numeric}"


@pytest.fixture()
def block_setup(small_graph):
    g = small_graph
    seeds = np.flatnonzero(g.train_mask)[:24]
    block = sample_block(g, seeds, [3, 5], 13)
    params = init_params(g.feat_dim, 16, g.num_classes, 2, seed=5)
    rows = g.features[block.input_nodes]
    return g, block, rows, params


class TestForward:
    def test_matches_dense_reference(self, block_setup):
        g, block, rows, params = block_setup
        logits = forward(block, rows, params)
        ref = dense_reference(block, rows, params)
        np.testing.assert_allclose(logits, ref, rtol=1e-5, atol=1e-5)

    def test_logit_shape(self, block_setup):
        g, block, rows, params = block_setup
        logits = forward(block, rows, params)
        assert logits.shape == (len(block.frontiers[0]), g.num_classes)

    def test_empty_neighborhood_uses_zero_vector(self):
        g = from_edge_list(3, [(0, 1)])
        g.features[:] = np.eye(3, g.feat_dim, dtype=np.float32)[:3]
        params = init_params(g.feat_dim, 8, g.num_classes, 2, seed=1)
        block = sample_block(g, np.array([2]), [2, 2], 0)
        logits = forward(block, g.features[block.input_nodes], params)
        # isolated node: aggregate term vanishes at every layer
        h = g.features[2] @ params[0].w_self + params[0].bias
        h = np.maximum(h, 0)
        expected = h @ params[1].w_self + params[1].bias
        np.testing.assert_allclose(logits[0], expected, rtol=1e-6)

    def test_deterministic(self, block_setup):
        g, block, rows, params = block_setup
        a = forward(block, rows, params)
        b = forward(block, rows, params)
        assert np.array_equal(a, b)


class TestInit:
    def test_layer_dims(self):
        assert layer_dims(32, 64, 7, 3) == [(32, 64), (64, 64), (64, 7)]
        assert layer_dims(10, 16, 4, 1) == [(10, 4)]

    def test_seeded(self):
        a = init_params(8, 16, 4, 2, seed=9)
        b = init_params(8, 16, 4, 2, seed=9)
        c = init_params(8, 16, 4, 2, seed=10)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.w_self, pb.w_self)
        assert not np.array_equal(a[0].w_self, c[0].w_self)

    def test_dtype(self):
        p = init_params(8, 16, 4, 2, seed=1, dtype=np.float64)
        assert p[0].w_self.dtype == np.float64
        assert init_params(8, 16, 4, 2, seed=1)[0].w_self.dtype == np.float32


class TestGradients:
    def test_fd_f32_params(self, block_setup):
        g, block, rows, params = block_setup
        fd_check(block, rows, g.labels, params, tol=1e-4, floor=1e-3)

    def test_fd_f64_params(self, block_setup):
        g, block, rows, params = block_setup
        params64 = init_params(g.feat_dim, 16, g.num_classes, 2, seed=5,
                               dtype=np.float64)
        fd_check(block, rows, g.labels, params64, tol=1e-6, floor=1e-3)

    def test_fd_single_layer(self, small_graph):
        g = small_graph
        block = sample_block(g, np.arange(10), [4], 2)
        params = init_params(g.feat_dim, 16, g.num_classes, 1, seed=3)
        fd_check(block, g.features[block.input_nodes], g.labels, params,
                 tol=1e-4, floor=1e-3)

    def test_loss_decreases_under_sgd(self, block_setup):
        g, block, rows, params = block_setup
        loss0, grads = loss_and_grad(block, rows, g.labels, params)
        for _ in range(20):
            loss, grads = loss_and_grad(block, rows, g.labels, params)
            params = sgd_step(params, grads, 0.1)
        loss_final, _ = loss_and_grad(block, rows, g.labels, params)
        assert loss_final < loss0

    def test_grad_shapes_match_params(self, block_setup):
        g, block, rows, params = block_setup
        _, grads = loss_and_grad(block, rows, g.labels, params)
        for p, gr in zip(params, grads):
            assert gr.w_self.shape == p.w_self.shape
            assert gr.w_neigh.shape == p.w_neigh.shape
            assert gr.bias.shape == p.bias.shape


class TestFullForward:
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float32, 2e-4, 2e-5), (np.float64, 1e-12, 1e-13)])
    @pytest.mark.parametrize("graph", ["small_graph", "multigraph"])
    def test_agrees_with_full_fanout_block(self, request, graph, dtype, rtol,
                                           atol):
        """The multigraph adds zero-degree nodes and repeated neighbours,
        which both passes must count alike. allclose, not equality: BLAS
        may block the rows of the two products differently."""
        g = request.getfixturevalue(graph)
        max_deg = int(g.degrees().max())
        params = [p.astype(dtype)
                  for p in init_params(g.feat_dim, 16, g.num_classes, 2, seed=5)]
        seeds = np.arange(min(12, g.num_nodes))
        block = sample_block(g, seeds, [max_deg, max_deg], 1)
        sampled = forward(block, g.features[block.input_nodes].astype(dtype),
                          params)
        dense = full_forward(g, params)[block.frontiers[0]]
        assert sampled.dtype == dense.dtype == dtype
        np.testing.assert_allclose(sampled, dense, rtol=rtol, atol=atol)

    def test_evaluate_bounds_and_empty(self, small_graph):
        g = small_graph
        params = init_params(g.feat_dim, 16, g.num_classes, 2, seed=5)
        acc = evaluate(g, params, g.val_mask)
        assert 0.0 <= acc <= 1.0
        assert evaluate(g, params, np.zeros(g.num_nodes, dtype=bool)) is None


def test_training_learns_planted_labels(small_graph):
    """End-to-end sanity: label smoothing plants community structure the
    model can fit well above chance."""
    g = small_graph
    train = np.flatnonzero(g.train_mask)
    params = init_params(g.feat_dim, 32, g.num_classes, 2, seed=0)
    rng = np.random.default_rng(1)
    for step in range(200):
        seeds = rng.choice(train, size=128, replace=False)
        block = sample_block(g, seeds, [5, 10], 1000 + step)
        _, grads = loss_and_grad(block, g.features[block.input_nodes],
                                 g.labels, params)
        params = sgd_step(params, grads, 0.1)
    acc = evaluate(g, params, g.train_mask)
    assert acc > 1.5 / g.num_classes


def reference_loss_and_grad(block, rows, labels, params):
    """(logits, loss, grads) with positions found by searchsorted and
    every scatter a 2-D np.add.at over rows, in edge order."""
    num_layers = len(params)
    h = rows
    saved = []
    for l, p in enumerate(params):
        d = num_layers - 1 - l
        dst_front, src_front = block.frontiers[d], block.frontiers[d + 1]
        src, dst = edge_ids(block, d)
        src_pos = np.searchsorted(src_front, src)
        dst_pos = np.searchsorted(dst_front, dst)
        counts = np.bincount(dst_pos, minlength=len(dst_front)).astype(h.dtype)
        sums = np.zeros((len(dst_front), h.shape[1]), dtype=h.dtype)
        np.add.at(sums, dst_pos, h[src_pos])
        denom = np.maximum(counts, 1)[:, None]
        mean = sums / denom
        h_self = h[np.searchsorted(src_front, dst_front)]
        z = h_self @ p.w_self + mean @ p.w_neigh + p.bias
        saved.append((h, h_self, mean, z, src_pos, dst_pos, denom))
        h = np.maximum(z, 0) if l < num_layers - 1 else z
    logits = h
    loss, dz = _softmax_ce(logits, labels[block.frontiers[0]])
    grads = [None] * num_layers
    for l in range(num_layers - 1, -1, -1):
        p = params[l]
        h, h_self, mean, z, src_pos, dst_pos, denom = saved[l]
        if l < num_layers - 1:
            dz = dz * (z > 0)
        grads[l] = LayerParams(h_self.T @ dz, mean.T @ dz, dz.sum(axis=0))
        if l > 0:
            d = num_layers - 1 - l
            dh = np.zeros_like(h)
            np.add.at(dh, np.searchsorted(block.frontiers[d + 1], block.frontiers[d]),
                      dz @ p.w_self.T)
            np.add.at(dh, src_pos, ((dz @ p.w_neigh.T) / denom)[dst_pos])
            dz = dh
    return logits, loss, grads


def _reference_cases():
    """(graph, seeds, fanouts): duplicate edges and empty neighborhoods,
    hubs next to take-all nodes, and a replay-like batch."""
    yield "multigraph", [0, 2, 5], [2, 2]
    yield "multigraph", [0, 2, 5, 6], [1, 6, 2]
    yield "small", np.arange(0, 1000, 41), [3, 5]
    yield "small", np.arange(0, 1000, 7), [10, 25]


def _assert_matches_reference(block, rows, labels, params):
    logits, loss, grads = reference_loss_and_grad(block, rows, labels, params)
    assert forward(block, rows, params).tobytes() == logits.tobytes()
    got_loss, got_grads = loss_and_grad(block, rows, labels, params)
    assert got_loss == loss
    for got, want in zip(got_grads, grads):
        for a, b in zip((got.w_self, got.w_neigh, got.bias),
                        (want.w_self, want.w_neigh, want.bias)):
            assert a.dtype == b.dtype == params[0].w_self.dtype
            assert a.tobytes() == b.tobytes()


class TestReferenceEquality:
    """logits and every gradient tensor, byte for byte, against the 2-D
    np.add.at + searchsorted reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bytes(self, small_graph, multigraph, dtype):
        graphs = {"multigraph": multigraph, "small": small_graph}
        for name, seeds, fanouts in _reference_cases():
            g = graphs[name]
            params = init_params(g.feat_dim, 16, g.num_classes, len(fanouts),
                                 seed=3, dtype=dtype)
            for rng_seed in range(3):
                block = sample_block(g, seeds, fanouts, rng_seed)
                rows = g.features[block.input_nodes].astype(dtype)
                _assert_matches_reference(block, rows, g.labels, params)

    def test_blocks_have_duplicate_edges_and_empty_neighborhoods(self, multigraph):
        block = sample_block(multigraph, [0, 2, 5], [2, 6], 0)
        src, dst = edge_ids(block, 0)
        assert len(set(zip(src.tolist(), dst.tolist()))) < len(src)
        assert {2, 5} <= set(block.frontiers[0].tolist()) - set(dst.tolist())

    def test_replay_sized_batch(self):
        g = synth_powerlaw(20_000, 5, 32, 8, seed=7)
        params = init_params(g.feat_dim, 32, g.num_classes, 2, seed=5)
        block = sample_block(g, np.flatnonzero(g.train_mask)[:512], [10, 25], 11)
        _assert_matches_reference(block, g.features[block.input_nodes],
                                  g.labels, params)
