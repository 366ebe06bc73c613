"""Mean-aggregator GNN with analytic gradients.

Per layer: h_v' = relu(W_self h_v + W_neigh mean_{u in N(v)} h_u + b),
with the relu dropped on the output layer; an empty N(v) has a zero
mean. Training and evaluation run the same layers over one CSR triple
per layer: a block's hop as the sampler emits it, or the graph's own
lists. A forward neighbor sum is a unit-weight CSR product; the
backward is one unit-weight CSC product, the forward operator
transposed beside the self-row selection. Each adds the terms one by
one from zero in the order listed, and a block's rows list their
sources in ascending order, so every neighbor sum is bit-reproducible;
the baseline/pipelined mode-equivalence guarantee rests on that. The
weight gradients (`h.T @ dz`) sum over thousands of block rows, and a
multi-threaded BLAS splits that sum across threads, so their bits also
depend on the BLAS thread count; `train.run()` pins numpy's OpenBLAS
to one thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .sampler import ComputationBlock


@dataclass
class LayerParams:
    w_self: np.ndarray  # d_in x d_out
    w_neigh: np.ndarray  # d_in x d_out
    bias: np.ndarray  # d_out

    def astype(self, dtype) -> "LayerParams":
        return LayerParams(self.w_self.astype(dtype), self.w_neigh.astype(dtype),
                           self.bias.astype(dtype))


def layer_dims(feat_dim: int, hidden_dim: int, num_classes: int,
               num_layers: int) -> list[tuple[int, int]]:
    dims = [feat_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
    return list(zip(dims[:-1], dims[1:]))


def init_params(feat_dim: int, hidden_dim: int, num_classes: int,
                num_layers: int, seed: int, dtype=np.float32) -> list[LayerParams]:
    """Glorot-scaled normal init from a Philox stream keyed by seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    params = []
    for d_in, d_out in layer_dims(feat_dim, hidden_dim, num_classes, num_layers):
        scale = np.sqrt(2.0 / (d_in + d_out))
        params.append(LayerParams(
            w_self=(rng.standard_normal((d_in, d_out)) * scale).astype(dtype),
            w_neigh=(rng.standard_normal((d_in, d_out)) * scale).astype(dtype),
            bias=np.zeros(d_out, dtype=dtype),
        ))
    return params


def _layers(h: np.ndarray, params: list[LayerParams], hops):
    """Run every layer from input rows h; returns the output plus backprop
    state. hops[l] = (src_pos, indptr, self_pos): layer l's row i averages
    rows src_pos[indptr[i]:indptr[i+1]] of its input h, and h[self_pos]
    holds each row's own input row."""
    saved = []
    for l, (p, hop) in enumerate(zip(params, hops)):
        src_pos, indptr, self_pos = hop
        adj = sp.csr_array((np.ones(len(src_pos), h.dtype), src_pos, indptr),
                           shape=(len(indptr) - 1, len(h)))
        denom = np.maximum(np.diff(indptr), 1).astype(h.dtype)[:, None]
        mean = (adj @ h) / denom
        h_self = h[self_pos]
        z = h_self @ p.w_self + mean @ p.w_neigh + p.bias
        saved.append((h, h_self, mean, z, denom, hop))
        h = np.maximum(z, 0) if l < len(params) - 1 else z
    return h, saved


def _forward_pass(block: ComputationBlock, rows: np.ndarray,
                  params: list[LayerParams]):
    """Run the layers; returns logits for frontiers[0] plus backprop state."""
    if len(params) != block.num_layers:
        raise ValueError(
            f"block has {block.num_layers} layers, params have {len(params)}")
    if rows.shape[0] != len(block.input_nodes):
        raise ValueError("rows not aligned to block.input_nodes")
    return _layers(rows, params, block.hops[::-1])


def forward(block: ComputationBlock, rows: np.ndarray,
            params: list[LayerParams]) -> np.ndarray:
    """Logits aligned to frontiers[0] (the sorted unique seed set)."""
    logits, _ = _forward_pass(block, rows, params)
    return logits


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    nll = -(shifted[np.arange(n), labels] - np.log(exp.sum(axis=1)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1
    dlogits /= n
    return float(nll.mean()), dlogits.astype(logits.dtype)


def loss_and_grad(block: ComputationBlock, rows: np.ndarray, labels: np.ndarray,
                  params: list[LayerParams]) -> tuple[float, list[LayerParams]]:
    """Mean softmax cross-entropy over the block's seeds and its exact
    reverse-mode gradient for every parameter tensor."""
    logits, saved = _forward_pass(block, rows, params)
    seed_labels = labels[block.frontiers[0]]
    loss, dz = _softmax_ce(logits, seed_labels)
    num_layers = len(params)
    grads: list[LayerParams | None] = [None] * num_layers
    for l in range(num_layers - 1, -1, -1):
        p = params[l]
        h, h_self, mean, z, denom, (src_pos, indptr, self_pos) = saved[l]
        if l < num_layers - 1:
            dz = dz * (z > 0)
        grads[l] = LayerParams(
            w_self=h_self.T @ dz,
            w_neigh=mean.T @ dz,
            bias=dz.sum(axis=0),
        )
        if l > 0:
            # Column i sends row i's self term to h[self_pos[i]], column
            # n + i its neighbor terms to h[src_pos[indptr[i]:indptr[i+1]]].
            # The product adds column by column: each input row gets its
            # self term first, then its neighbor terms in edge order.
            n = len(indptr) - 1
            back = sp.csc_array(
                (np.ones(n + len(src_pos), h.dtype),
                 np.concatenate([self_pos, src_pos]),
                 np.concatenate([np.arange(n), n + indptr])),
                shape=(len(h), 2 * n))
            dz = back @ np.vstack([dz @ p.w_self.T, (dz @ p.w_neigh.T) / denom])
    return loss, grads  # type: ignore[return-value]


def sgd_step(params: list[LayerParams], grads: list[LayerParams],
             lr: float) -> list[LayerParams]:
    lr = np.asarray(lr, dtype=params[0].w_self.dtype)
    return [
        LayerParams(p.w_self - lr * g.w_self, p.w_neigh - lr * g.w_neigh,
                    p.bias - lr * g.bias)
        for p, g in zip(params, grads)
    ]


def full_forward(g: Graph, params: list[LayerParams]) -> np.ndarray:
    """Full-neighborhood (no sampling) forward over every node."""
    hop = (g.indices, g.indptr, slice(None))  # each node is its own self row
    return _layers(g.features.astype(params[0].w_self.dtype), params,
                   [hop] * len(params))[0]


def evaluate(g: Graph, params: list[LayerParams], mask: np.ndarray) -> float | None:
    """argmax accuracy on the masked nodes; None for an empty mask."""
    sel = np.flatnonzero(mask)
    if len(sel) == 0:
        return None
    logits = full_forward(g, params)[sel]
    return float(np.mean(np.argmax(logits, axis=1) == g.labels[sel]))
