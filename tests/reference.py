"""Dense reference implementation of the classifier's forward pass.

The program never forms a row's normalized adjacency: its batched
forward (``gap._forward_pass``) convolves only each row's active nodes,
in K slots per row, applying the adjacency as per-row degree scalings
around the row's block of one edge mask shared by every row of a
topology, and pools the inactive nodes as one constant per node role.
This module computes the same quantities the plain way, over every node
of the block-diagonal disjoint union of the graphs, so tests can compare
the two: node features counted from each graph's edges, one dense
(N, N) adjacency, two graph convolutions, a membership-indexed mean pool
and a softmax head.
It also holds the central-difference gradient check the gradient tests
use.  Nothing here is fast; it is meant to be obviously right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphica.errors import DomainError, EmptyInputError, NumericError, ShapeError


def node_features(graph) -> np.ndarray:
    """Per-node rows [is_app, is_param, is_kpi, state,
    degree / max(1, N - 1)], where a node's degree counts every edge at
    each of its ends."""
    n = graph.n_nodes
    feats = np.zeros((n, 5))
    feats[np.arange(n), graph.kinds] = 1.0
    feats[:, 3] = graph.states
    degree = (np.bincount(graph.edge_src, minlength=n)
              + np.bincount(graph.edge_dst, minlength=n))
    feats[:, 4] = degree / max(1, n - 1)
    return feats


@dataclass(eq=False)
class GraphBatch:
    """Disjoint union of several graphs.

    Node ids are offset per graph so the implied adjacency is block
    diagonal; ``membership`` maps each node to its graph, contiguous from
    0 to ``n_graphs - 1``.
    """

    features: np.ndarray         # (N_total, F)
    membership: np.ndarray       # (N_total,)
    edge_src: np.ndarray         # (E_total,)
    edge_dst: np.ndarray
    edge_kind: np.ndarray
    nodes_per_graph: np.ndarray  # (B,)
    n_graphs: int
    labels: np.ndarray | None    # (B,) or None when any graph is unlabeled


def batch_graphs(graphs) -> GraphBatch:
    """Stack graphs into one disjoint-union batch, no cross-graph edges."""
    if not graphs:
        raise EmptyInputError("no graphs to batch")
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    if all(g.label is not None for g in graphs):
        labels = np.array([g.label for g in graphs], dtype=np.int64)
    else:
        labels = None
    return GraphBatch(
        features=np.concatenate([node_features(g) for g in graphs], axis=0),
        membership=np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
        edge_src=np.concatenate([g.edge_src + off for g, off in zip(graphs, offsets)]),
        edge_dst=np.concatenate([g.edge_dst + off for g, off in zip(graphs, offsets)]),
        edge_kind=np.concatenate([g.edge_kind for g in graphs]),
        nodes_per_graph=sizes,
        n_graphs=len(graphs),
        labels=labels,
    )


def normalize_adjacency(batch: GraphBatch, kind_weights) -> np.ndarray:
    """Symmetric degree-normalized adjacency with unit self-loops.

    An edge of kind t contributes kind_weights[t] to both (u, v) and
    (v, u).  With A the weighted adjacency plus identity and D its degree
    diagonal, the result is D^{-1/2} A D^{-1/2}.  The row of an isolated
    node reduces to a single self-loop entry of 1.
    """
    kw = np.asarray(kind_weights, dtype=np.float64)
    if kw.shape != (3,):
        raise ShapeError(f"kind_weights must have shape (3,), got {kw.shape}")
    if np.any(kw <= 0) or not np.all(np.isfinite(kw)):
        raise DomainError("edge kind weights must be strictly positive")
    n = batch.features.shape[0]
    adj = np.zeros((n, n))
    if batch.edge_src.size:
        w = kw[batch.edge_kind]
        np.add.at(adj, (batch.edge_src, batch.edge_dst), w)
        np.add.at(adj, (batch.edge_dst, batch.edge_src), w)
    adj[np.diag_indices(n)] += 1.0
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_layer(ahat: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One graph convolution: ReLU(ahat @ h @ w + b).

    Returns (activated, pre_activation).
    """
    if ahat.ndim != 2 or ahat.shape[0] != ahat.shape[1]:
        raise ShapeError(f"ahat must be square, got {ahat.shape}")
    if h.ndim != 2 or h.shape[0] != ahat.shape[0]:
        raise ShapeError(f"node features {h.shape} do not match ahat {ahat.shape}")
    if w.ndim != 2 or w.shape[0] != h.shape[1]:
        raise ShapeError(f"weights {w.shape} do not match features {h.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias {b.shape} does not match weights {w.shape}")
    pre = ahat @ h @ w + b
    return np.maximum(pre, 0.0), pre


def global_mean_pool(h: np.ndarray, membership: np.ndarray, n_graphs: int) -> np.ndarray:
    """Arithmetic mean of node rows per graph, shape (n_graphs, F)."""
    membership = np.asarray(membership, dtype=np.int64)
    if membership.shape != (h.shape[0],):
        raise ShapeError(f"membership {membership.shape} does not match h {h.shape}")
    if membership.size and (membership.min() < 0 or membership.max() >= n_graphs):
        raise DomainError("membership indices outside [0, n_graphs)")
    counts = np.bincount(membership, minlength=n_graphs)
    if np.any(counts == 0):
        raise DomainError("every graph needs at least one node")
    acc = np.zeros((n_graphs, h.shape[1]))
    np.add.at(acc, membership, h)
    return acc / counts[:, None]


def dense_probs(model, graphs) -> np.ndarray:
    """Class probabilities per graph from the block-diagonal batch."""
    batch = batch_graphs(graphs)
    ahat = normalize_adjacency(batch, model.kind_weights)
    h1, _ = gcn_layer(ahat, batch.features, model.w1, model.b1)
    h2, _ = gcn_layer(ahat, h1, model.w2, model.b2)
    logits = global_mean_pool(h2, batch.membership, batch.n_graphs) @ model.wc + model.bc
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def grad_check(loss_fn, params: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients.

    ``loss_fn`` maps a flat parameter vector to (loss, gradient).  The
    relative error per coordinate is |a - n| / max(1e-8, |a| + |n|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise DomainError(f"eps {eps} outside [1e-7, 1e-3]")
    loss, analytic = loss_fn(params)
    if not np.isfinite(loss) or not np.all(np.isfinite(analytic)):
        raise NumericError("loss or analytic gradient is non-finite")
    worst = 0.0
    for i in range(params.size):
        bumped = params.astype(np.float64).copy()
        bumped[i] += eps
        hi = loss_fn(bumped)[0]
        bumped[i] -= 2.0 * eps
        lo = loss_fn(bumped)[0]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite loss while perturbing index {i}")
        numeric = (hi - lo) / (2.0 * eps)
        denom = max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
