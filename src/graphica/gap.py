"""Graph-level conflict classifier and its training loop.

The model is two graph-convolution layers over the symmetric
degree-normalized adjacency, global mean pooling, and a linear head with
softmax.  Edge kinds enter the propagation as three learned positive
scalar weights on one (n, n) edge mask shared by every row.  A batch
convolves only each row's active nodes, in K slots per row: the row's
(K, K) block of the normalized adjacency (its block of the mask scaled
by its degrees, self-loops on the diagonal) is formed once per pass,
and every propagation is one batched matmul.  An inactive node has no
edge, so every inactive node of one role computes the same hidden
vectors, and those enter the pool as one constant per role weighted by
the row's inactive count.  Training minimizes focal loss with Adam
under coupled weight decay, stratified k-fold cross-validation,
per-epoch shuffled mini-batches, and early stopping on the validation
loss.  All gradients are computed analytically, including the part that
flows through the adjacency normalization into the edge-kind weights.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conflict_sim import ConflictLabel, Dataset, Topology
from .errors import (
    CompatibilityError,
    DomainError,
    NumericError,
    ShapeError,
    StratificationError,
    TrainingError,
)
from .gsc import ConflictGraph, build_graph
from .metrics import NUM_CLASSES, confusion, prf
from .numerics import AdamState, adam_step

#: Node feature layout: role one-hot (3) + state bit + normalized degree.
NUM_FEATURES = 5
HIDDEN_DIM = 16

#: Edge-kind weights stay at or above this after every optimizer step so
#: the adjacency normalization keeps strictly positive degrees.
KIND_WEIGHT_FLOOR = 1e-3

# Distinct seed streams so folds, inits and shuffles never correlate.
_FOLD_STREAM = 11
_INIT_STREAM = 13
_SHUFFLE_STREAM = 17

#: Planned training work, in row-epochs (the sum over fold jobs of
#: max_epochs x training rows), below which fold jobs run in this
#: process instead of a worker pool: the measured break-even.  On 2 vCPUs
#: with the reference data (n = 33 nodes, 570 rows, 5 folds, median of 7)
#: at 22.8k / 45.6k / 68.4k / 91.2k / 114k / 137k row-epochs, train took
#: 0.21 / 0.58 / 0.64 / 0.82 / 1.08 / 1.45 s in this process and 0.42 /
#: 0.68 / 0.83 / 0.83 / 0.88 / 1.14 s in a 2-worker spawn pool.  Only
#: n = 33 was measured; a row-epoch costs more on larger topologies, so
#: there the pool should pay off at fewer row-epochs.
_POOL_MIN_WORK = 90_000
#: Fold jobs drawn per worker ahead of the oldest unfinished one.
_JOBS_PER_WORKER = 2


@dataclass
class ModelParams:
    """All trainable arrays of the classifier."""

    w1: np.ndarray            # (F, H)
    b1: np.ndarray            # (H,)
    w2: np.ndarray            # (H, H)
    b2: np.ndarray            # (H,)
    wc: np.ndarray            # (H, C)
    bc: np.ndarray            # (C,)
    kind_weights: np.ndarray  # (3,)

    @classmethod
    def init(cls, seed) -> "ModelParams":
        """Fan-scaled uniform init for weights, zeros for biases, ones for
        the edge-kind weights."""
        rng = np.random.default_rng(seed)

        def fan_uniform(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        return cls(
            w1=fan_uniform(NUM_FEATURES, HIDDEN_DIM),
            b1=np.zeros(HIDDEN_DIM),
            w2=fan_uniform(HIDDEN_DIM, HIDDEN_DIM),
            b2=np.zeros(HIDDEN_DIM),
            wc=fan_uniform(HIDDEN_DIM, NUM_CLASSES),
            bc=np.zeros(NUM_CLASSES),
            kind_weights=np.ones(3),
        )

    def to_flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel()
                               for name, _, _ in _layout()])

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "ModelParams":
        if flat.shape != (flat_size(),):
            raise ShapeError(
                f"flat vector has {flat.shape[0]} entries, expected {flat_size()}")
        return cls(**{name: flat[sl].reshape(shape) for name, sl, shape in _layout()})


def block_shapes():
    """Fixed serialization order of the parameter blocks."""
    return (
        ("w1", (NUM_FEATURES, HIDDEN_DIM)),
        ("b1", (HIDDEN_DIM,)),
        ("w2", (HIDDEN_DIM, HIDDEN_DIM)),
        ("b2", (HIDDEN_DIM,)),
        ("wc", (HIDDEN_DIM, NUM_CLASSES)),
        ("bc", (NUM_CLASSES,)),
        ("kind_weights", (3,)),
    )


@functools.cache
def _layout():
    """(name, slice, shape) of each block in the flat vector, worked out
    once: a training step converts twice."""
    out, offset = [], 0
    for name, shape in block_shapes():
        out.append((name, slice(offset, offset + math.prod(shape)), shape))
        offset += math.prod(shape)
    return tuple(out)


def flat_size() -> int:
    return _layout()[-1][1].stop


@dataclass
class FocalConfig:
    """Focusing parameter gamma and the per-class weight vector."""

    gamma: float
    alpha: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (NUM_CLASSES,):
            raise ShapeError(
                f"alpha must have {NUM_CLASSES} entries, got {self.alpha.shape}")
        if not np.all(np.isfinite(self.alpha) & (self.alpha >= 0)):
            raise DomainError("alpha entries must be finite and >= 0")


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 128
    n_folds: int = 5
    max_epochs: int = 2000
    # The validation focal loss on a few rare-class rows is noisy from
    # epoch to epoch; a shorter patience lets one lucky low epoch end
    # training long before the model converges.
    patience: int = 200
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed so a frozen model can exercise the
        # early stopping machinery.
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise DomainError("learning_rate and weight_decay must be >= 0")
        if self.batch_size < 1 or self.n_folds < 2 or self.max_epochs < 1:
            raise DomainError("batch_size, n_folds and max_epochs must be positive")
        if self.patience < 1 or self.min_delta <= 0:
            raise DomainError("patience and min_delta must be positive")
        if self.patience >= self.max_epochs:
            raise DomainError(f"patience {self.patience} must be smaller than "
                              f"max_epochs {self.max_epochs}")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


@dataclass
class TrainHistory:
    """Loss curves and outcomes, one entry per fold."""

    train_losses: list[list[float]]
    val_losses: list[list[float]]
    stop_epochs: list[int]
    best_epochs: list[int]
    fold_metrics: list[tuple[float, float, float]]
    #: Pooled held-out argmax: every row as predicted by the best model
    #: of the fold that held it out.
    predictions: np.ndarray


def compute_alpha(labels) -> np.ndarray:
    """Inverse class frequency weights, alpha_c = N / (C * n_c); a
    balanced label set yields all ones."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
        raise DomainError(f"labels outside 0..{NUM_CLASSES - 1}")
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    for c in range(NUM_CLASSES):
        if counts[c] == 0:
            raise DomainError(f"class {c} has no samples")
    return labels.size / (NUM_CLASSES * counts.astype(np.float64))


def focal_loss(probs, labels, cfg: FocalConfig):
    """Mean focal loss over the batch and its gradient w.r.t. the logits.

    Per sample with true class y: -alpha_y * (1 - p_y)^gamma * log(p_y),
    evaluated on probabilities clamped to [1e-12, 1].  With gamma 0 and
    unit alpha this is exactly mean cross-entropy.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != NUM_CLASSES:
        raise ShapeError(f"probs must be (B, {NUM_CLASSES}), got {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ShapeError(f"labels {labels.shape} do not match probs {probs.shape}")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise DomainError("probability rows must sum to 1")
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise DomainError(f"labels outside 0..{NUM_CLASSES - 1}")

    batch = probs.shape[0]
    p = np.clip(probs, 1e-12, 1.0)
    rows = np.arange(batch)
    pt = p[rows, labels]
    log_pt = np.log(pt)
    alpha = cfg.alpha[labels]
    gap_term = 1.0 - pt
    if cfg.gamma == 0.0:
        focal = np.ones_like(pt)
        focal_slope = np.zeros_like(pt)
    else:
        focal = gap_term ** cfg.gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            focal_slope = np.where(
                gap_term > 0.0,
                cfg.gamma * gap_term ** (cfg.gamma - 1.0) * log_pt,
                0.0,
            )
    loss = float((-alpha * focal * log_pt).sum() / batch)
    # d loss_i / d pt, then through softmax: dz = u * pt * (onehot - p).
    dpt = alpha * (focal_slope - focal / pt)
    scale = dpt * pt
    grad = -scale[:, None] * p
    grad[rows, labels] += scale
    grad /= batch
    return loss, grad


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(eq=False)
class RowTensors:
    """Packed per-row model inputs for one topology.

    ``states`` (R, n) are the node state bits x.  ``kind_masks``
    (3, n, n) holds, per edge kind t, the union M_t of the packed graphs'
    directed edges plus its transpose, so a mutual pair counts 2.  A
    row's symmetrized kind-t adjacency is then M_t * outer(x, x): in a
    graph of one topology an edge exists iff it is declared and both
    endpoints are active.  ``kind_degrees`` (R, 3, n) is the per-kind
    degree x * (M_t x).  ``features`` (R, n, F) are the node features,
    formed from those: [role one-hot, x, sum_t kind_degrees_t / (n - 1)].
    ``slots`` (R, S) lists each row's node ids in slot order, its active
    nodes ascending and then its inactive ones ascending, where S is the
    largest active-node count of any packed row (``_gather_batch``), in
    the smallest unsigned integer type that holds n.

    ``buffers`` owns the scratch arrays that every batched pass over
    these rows writes its intermediates into: each row's (K, K) block of
    the normalized adjacency, one (B, K, F) array and six (B, K, H)
    ones.  They are allocated on first use, grow to the largest batch
    seen and live as long as the packed rows, so thousands of training
    steps reuse the same memory instead of faulting in fresh pages per
    step.
    """

    features: np.ndarray
    states: np.ndarray
    kind_masks: np.ndarray
    kind_degrees: np.ndarray
    slots: np.ndarray
    labels: np.ndarray | None
    buffers: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __getstate__(self):
        # Scratch memory stays with its process: a copy sent to a worker
        # starts with no buffers.
        return {**self.__dict__, "buffers": {}}


@dataclass(eq=False)
class Batch:
    """Selected rows of a packing, each cut down to K slots: the row's
    active nodes in ascending id, then inactive nodes as padding, where K
    is the batch's largest active-node count.

    ``features`` (B, K, F), ``states`` (B, K) and ``kind_degrees``
    (B, 3, K) are the packed values at the slots' nodes; a padding slot
    has state 0.  ``pairs`` (B, K, K) indexes each row's block of an
    (n, n) mask flattened, and ``idle`` (B, 3) counts each row's inactive
    nodes per role, padding slots included.  ``kind_masks`` and
    ``buffers`` are the packing's own.
    """

    features: np.ndarray
    states: np.ndarray
    kind_degrees: np.ndarray
    pairs: np.ndarray
    idle: np.ndarray
    n_nodes: int
    kind_masks: np.ndarray
    labels: np.ndarray | None
    buffers: dict[str, np.ndarray]


def _scratch(batch: Batch, name: str, shape) -> np.ndarray:
    """Contiguous view of ``shape`` into the reusable buffer ``name``,
    which grows when a batch needs more than it holds."""
    size = math.prod(shape)
    buf = batch.buffers.get(name)
    if buf is None or buf.size < size:
        buf = batch.buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _pack(graphs, count: int, n: int) -> RowTensors:
    """Pack an iterable of ``count`` graphs with ``n`` nodes each, all
    with the same node kinds."""
    states = np.zeros((count, n))
    directed = np.zeros((3, n, n))
    kinds = np.zeros(n, dtype=np.int8)
    labels = []
    for i, g in enumerate(graphs):
        states[i] = g.states
        directed[g.edge_kind, g.edge_src, g.edge_dst] = 1.0
        kinds = g.kinds
        labels.append(-1 if g.label is None else g.label)
    masks = directed + directed.transpose(0, 2, 1)
    degrees = np.matmul(states, masks).transpose(1, 0, 2) * states[:, None, :]
    feats = np.empty((count, n, NUM_FEATURES))
    feats[:, :, :3] = np.eye(3)[kinds]
    feats[:, :, 3] = states
    feats[:, :, 4] = degrees.sum(axis=1) / max(1, n - 1)
    width = int(states.sum(axis=1).max(initial=0))
    # In the smallest type that holds a node id: every fold job sent to a
    # worker process carries a copy of the packing.
    slots = np.argsort(states == 0, axis=1, kind="stable")[:, :width].astype(
        np.min_scalar_type(n))
    label_arr = np.array(labels, dtype=np.int64)
    return RowTensors(
        features=feats,
        states=states,
        kind_masks=masks,
        kind_degrees=np.ascontiguousarray(degrees),
        slots=slots,
        labels=None if np.any(label_arr < 0) else label_arr,
    )


def row_tensors(topology: Topology, rows) -> RowTensors:
    """Pack rows of one topology, building each row's graph in turn."""
    return _pack((build_graph(topology, row) for row in rows), len(rows),
                 topology.width)


def _gather_batch(tensors: RowTensors, indices) -> Batch:
    """The selected rows, compacted to the batch's K slots per row."""
    indices = np.asarray(indices, dtype=np.int64)
    states = tensors.states[indices]
    n = states.shape[1]
    width = int(states.sum(axis=1).max(initial=0))
    # Widened, so the flat indices below cannot overflow the stored type.
    slots = tensors.slots[indices, :width].astype(np.int64)
    at = indices[:, None] * n + slots
    kinds = (indices[:, None, None] * 3 + np.arange(3)[:, None]) * n + slots[:, None, :]
    return Batch(
        features=tensors.features.reshape(-1, NUM_FEATURES).take(at, axis=0),
        states=tensors.states.take(at),
        kind_degrees=tensors.kind_degrees.take(kinds),
        pairs=slots[:, :, None] * n + slots[:, None, :],
        idle=(1.0 - states) @ tensors.features[0, :, :3],
        n_nodes=n,
        kind_masks=tensors.kind_masks,
        labels=None if tensors.labels is None else tensors.labels[indices],
        buffers=tensors.buffers,
    )


def _forward_pass(model: ModelParams, batch: Batch) -> dict:
    """Batched forward over (B, K, ...) slot blocks plus one constant per
    node role; caches every intermediate the backward pass needs.

    The adjacency is A = M * outer(x, x) + I with the shared mask
    M = sum_t w_t M_t, and ahat = D^-1/2 A D^-1/2 with the degree
    D = 1 + sum_t w_t kind_degrees_t.  With s = D^-1/2 and xs = x s,
    ahat = diag(xs) M diag(xs) + diag(s^2).  Each row's (K, K) block of
    ahat over its slots is formed once per pass: its block of M, scaled
    by outer(xs, xs), with s^2 added to its diagonal.  Every
    propagation is then one batched matmul, and the weight matmuls run
    on (B K, .) views.  Layer 1 propagates the F < H feature columns
    first: z1 = (ahat X) w1 + b1.

    An inactive node has no edge, so its row of ahat is its self-loop
    and its features are its role one-hot: every inactive node of one
    role has z1c = w1[role] + b1, h1c = relu(z1c), z2c = h1c w2 + b2 and
    h2c = relu(z2c).  The pool adds h2 over the active slots (padding
    slots are masked out by their state bit) and h2c weighted by each
    row's inactive count per role, then divides by n.  The slot axis is
    reduced by ``einsum("bkh->bh")``, which adds slot after slot, so a
    row's result does not depend on how many padding slots the batch
    gives it.

    The large cached arrays are views into the batch's reusable buffers
    (``RowTensors.buffers``), so a cache is valid only until the next
    pass over the same packed rows; ``probs`` and ``pooled`` are fresh
    arrays.  Buffer names follow their first occupant; arrays whose
    lifetimes do not overlap share one buffer.
    """
    feats, kw, states = batch.features, model.kind_weights, batch.states
    rows, k = states.shape
    shape, flat = (rows, k, HIDDEN_DIM), (rows * k, HIDDEN_DIM)
    deg = 1.0 + np.einsum("t,btn->bn", kw, batch.kind_degrees)
    s2 = 1.0 / deg
    xs = states / np.sqrt(deg)
    block = np.take(kw @ batch.kind_masks.reshape(3, -1), batch.pairs,
                    out=_scratch(batch, "block", (rows, k, k)))
    block *= np.einsum("bi,bj->bij", xs, xs)
    block.reshape(rows, k * k)[:, ::k + 1] += s2

    ax = np.matmul(block, feats, out=_scratch(batch, "ax", feats.shape))
    z1 = np.matmul(ax.reshape(-1, NUM_FEATURES), model.w1,
                   out=_scratch(batch, "z1", flat))
    z1 += model.b1
    h1 = np.maximum(z1, 0.0, out=_scratch(batch, "h1", flat))
    hw2 = np.matmul(h1, model.w2, out=_scratch(batch, "hw2", flat)).reshape(shape)
    ahw2 = np.matmul(block, hw2, out=_scratch(batch, "ahw2", shape))
    z2 = np.add(ahw2, model.b2, out=_scratch(batch, "z2", shape))
    h2 = np.maximum(z2, 0.0, out=_scratch(batch, "h2", shape))
    h2 *= states[:, :, None]

    z1c = model.w1[:3] + model.b1
    h1c = np.maximum(z1c, 0.0)
    z2c = h1c @ model.w2 + model.b2
    pooled = np.einsum("bkh->bh", h2)
    pooled += batch.idle @ np.maximum(z2c, 0.0)
    pooled /= batch.n_nodes
    probs = _softmax(pooled @ model.wc + model.bc)
    return {"batch": batch, "block": block, "s2": s2, "ax": ax, "z1": z1,
            "h1": h1, "hw2": hw2, "ahw2": ahw2, "z2": z2, "h2": h2, "z1c": z1c,
            "h1c": h1c, "z2c": z2c, "pooled": pooled, "probs": probs}


def _backward_pass(model: ModelParams, cache: dict, dlogits: np.ndarray) -> ModelParams:
    """Analytic gradients for every block, returned in a ModelParams
    container with the same shapes as the parameters.  Overwrites the
    buffers behind ``cache``, which is spent afterwards.

    ahat is symmetric, so dy = ahat dz; layer 1 works on the features,
    dy = dz1 w1^T.  Per node, summed over both layers' propagated y:
    ghat = <dy, ahat y> + <y, ahat dy> and e = <dy, y>.  Through
    s = D^-1/2, with ds/dw_t = -s^3 kind_degrees_t / 2, the kind-weight
    gradient is -s^2 ghat kind_degrees_t / 2.  Through M it comes from
    the off-diagonal part g = ghat - 2 s^2 e: the sum of g over a node
    role (feature columns 0-2) is sum_t w_t G_t over the kinds t it
    touches, with G_t the kind-t gradient; apps touch PA, KPIs touch
    KP, and parameters touch PA and KP once and PP from both ends.

    Padding slots get a zero gradient at the pool, and so contribute
    nothing.  The role constants' gradients, summed over each row's
    inactive count per role, go into dw1[:3], db1, dw2 and db2; they add
    nothing to the kind-weight gradient, since an inactive node's
    degree is 1 whatever the weights.
    """
    batch, block, s2 = cache["batch"], cache["block"], cache["s2"]
    feats, hw2 = batch.features, cache["hw2"]

    dwc = cache["pooled"].T @ dlogits
    dbc = dlogits.sum(axis=0)
    dmean = dlogits @ model.wc.T
    dmean /= batch.n_nodes

    # h2 > 0 only at active slots, so this also masks out the padding.
    dz2 = np.multiply(dmean[:, None, :], cache["h2"] > 0,
                      out=_scratch(batch, "h2", hw2.shape))
    dhw2 = np.matmul(block, dz2, out=_scratch(batch, "z2", hw2.shape))
    ghat = np.vecdot(dz2, cache["ahw2"]) + np.vecdot(hw2, dhw2)
    e = np.vecdot(dz2, hw2)
    dhw2 = dhw2.reshape(-1, HIDDEN_DIM)
    dw2 = cache["h1"].T @ dhw2
    db2 = np.einsum("bkh->h", dz2)

    dz1 = np.matmul(dhw2, model.w2.T, out=_scratch(batch, "h1", dhw2.shape))
    dz1 *= cache["z1"] > 0
    ax = cache["ax"]
    dw1 = ax.reshape(-1, NUM_FEATURES).T @ dz1
    db1 = np.einsum("nh->h", dz1)
    dx = _scratch(batch, "z1", feats.shape)
    np.matmul(dz1, model.w1.T, out=dx.reshape(-1, NUM_FEATURES))
    ghat += np.vecdot(dx, ax)
    ghat += np.vecdot(feats, np.matmul(block, dx, out=ax))
    e += np.vecdot(dx, feats)

    dz2c = batch.idle.T @ dmean
    dz2c *= cache["z2c"] > 0
    dw2 += cache["h1c"].T @ dz2c
    db2 += dz2c.sum(axis=0)
    dz1c = dz2c @ model.w2.T
    dz1c *= cache["z1c"] > 0
    dw1[:3] += dz1c
    db1 += dz1c.sum(axis=0)

    g = ghat - 2.0 * s2 * e
    app, param, kpi = (g.reshape(-1) @ feats.reshape(-1, NUM_FEATURES))[:3]
    kind_grad = (np.array([app, kpi, 0.5 * (param - app - kpi)]) / model.kind_weights
                 + np.einsum("bn,btn->t", -0.5 * s2 * ghat, batch.kind_degrees))
    return ModelParams(w1=dw1, b1=db1, w2=dw2, b2=db2, wc=dwc, bc=dbc,
                       kind_weights=kind_grad)


def loss_and_grad(model: ModelParams, tensors: RowTensors, indices,
                  focal: FocalConfig):
    """Focal loss of the selected rows and its gradient for every
    parameter block."""
    if tensors.labels is None:
        raise DomainError("rows must carry labels to compute a loss")
    batch = _gather_batch(tensors, indices)
    cache = _forward_pass(model, batch)
    loss, dlogits = focal_loss(cache["probs"], batch.labels, focal)
    return loss, _backward_pass(model, cache, dlogits)


def predict(model: ModelParams, graph: ConflictGraph):
    """Most probable label for one graph; ties resolve to the smaller
    class index."""
    batch = _gather_batch(_pack([graph], 1, graph.n_nodes), [0])
    probs = _forward_pass(model, batch)["probs"][0]
    return ConflictLabel(int(np.argmax(probs))), probs


def predict_rows(model: ModelParams, topology: Topology, rows,
                 chunk_size: int = 512) -> np.ndarray:
    """Class probabilities for many rows of one topology, shape (R, C).

    Rows are packed one chunk at a time, so the packed tensors never
    hold more than ``chunk_size`` rows; every chunk's passes share one
    set of scratch buffers.
    """
    if len(rows) == 0:
        return np.zeros((0, NUM_CLASSES))
    buffers: dict[str, np.ndarray] = {}
    parts = []
    for i in range(0, len(rows), chunk_size):
        chunk = rows[i:i + chunk_size]
        tensors = row_tensors(topology, chunk)
        tensors.buffers = buffers
        parts.append(_probs_in_chunks(model, tensors, np.arange(len(chunk)),
                                      chunk_size))
    return np.concatenate(parts, axis=0)


def _probs_in_chunks(model, tensors: RowTensors, indices,
                     chunk_size: int = 512) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    parts = [
        _forward_pass(model, _gather_batch(tensors, indices[i:i + chunk_size]))["probs"]
        for i in range(0, indices.size, chunk_size)
    ]
    return np.concatenate(parts, axis=0)


def stratified_kfold(labels, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices into k folds whose class counts deviate from an
    exact proportional split by at most one sample per class."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise DomainError("need at least 2 folds")
    rng = np.random.default_rng([seed, _FOLD_STREAM])
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            raise StratificationError(
                f"class {int(c)} has {idx.size} samples, fewer than {k} folds")
        for j, i in enumerate(rng.permutation(idx)):
            folds[(j + offset) % k].append(int(i))
        offset = (offset + idx.size) % k
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def _train_fold(tensors: RowTensors, train_idx, val_idx, cfg: TrainConfig,
                focal: FocalConfig, fold_id: int):
    model = ModelParams.init([cfg.seed, fold_id, _INIT_STREAM])
    flat = model.to_flat()
    state = AdamState.initial(flat.size, cfg.learning_rate,
                              weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng([cfg.seed, fold_id, _SHUFFLE_STREAM])
    layout = _layout()
    kw_slice = layout[-1][1]  # the kind weights come last

    val_batch = _gather_batch(tensors, val_idx)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_flat = flat.copy()
    best_epoch = 0
    plateau_ref = np.inf
    stale_epochs = 0
    epoch = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(train_idx)
        running = 0.0
        for start in range(0, order.size, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            model = ModelParams.from_flat(flat)
            loss, grads = loss_and_grad(model, tensors, chunk, focal)
            if not np.isfinite(loss):
                raise TrainingError(f"training loss diverged at epoch {epoch}")
            grad_flat = grads.to_flat()
            if not np.all(np.isfinite(grad_flat)):
                bad = next(name for name, sl, _ in layout
                           if not np.all(np.isfinite(grad_flat[sl])))
                raise NumericError(
                    f"non-finite gradient in block {bad} at epoch {epoch}")
            flat, state = adam_step(flat, grad_flat, state)
            np.maximum(flat[kw_slice], KIND_WEIGHT_FLOOR, out=flat[kw_slice])
            running += loss * chunk.size
        train_losses.append(running / order.size)

        model = ModelParams.from_flat(flat)
        val_probs = _forward_pass(model, val_batch)["probs"]
        val_loss, _ = focal_loss(val_probs, val_batch.labels, focal)
        if not np.isfinite(val_loss):
            raise TrainingError(f"validation loss diverged at epoch {epoch}")
        val_losses.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_flat = flat.copy()
            best_epoch = epoch
        if val_loss < plateau_ref - cfg.min_delta:
            plateau_ref = val_loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= cfg.patience:
                break

    return (ModelParams.from_flat(best_flat), train_losses,
            val_losses, epoch, best_epoch)


def _fold_job(tensors: RowTensors, train_idx, val_idx, cfg: TrainConfig,
              focal: FocalConfig, fold_id: int):
    """Train one fold, then take the argmax of its best model over the
    fold's held-out rows."""
    model, train_losses, val_losses, stop_epoch, best_epoch = _train_fold(
        tensors, train_idx, val_idx, cfg, focal, fold_id)
    preds = _probs_in_chunks(model, tensors, val_idx).argmax(axis=1)
    return model, train_losses, val_losses, stop_epoch, best_epoch, preds


def _use_warning_filters(filters) -> None:
    """Pool initializer: a spawned worker takes the caller's warning
    filters, so a warning in a fold is handled as it would be in the
    caller (an error where the caller made it one)."""
    warnings.resetwarnings()
    warnings.filters[:] = filters


def _run_fold_jobs(jobs, n_jobs: int, work: int):
    """Yield ``_fold_job(*job)`` for each of the ``n_jobs`` jobs, in
    submission order.

    The jobs run in a pool of spawned worker processes, one per
    available CPU at most, unless only one CPU is available, there is
    only one job, or the planned ``work`` (row-epochs) is below
    ``_POOL_MIN_WORK``; then they run here, one after another.  A fold
    draws its init and shuffle from its own seed streams, so both ways
    give the same numbers.  At most ``_JOBS_PER_WORKER`` jobs per worker
    are drawn from ``jobs`` before the oldest result is taken, so a
    lazy ``jobs`` never has every run's packed rows in memory.  Every
    worker has exited when the generator finishes or is closed.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if cpus == 1 or n_jobs == 1 or work < _POOL_MIN_WORK:
        for job in jobs:
            yield _fold_job(*job)
        return
    # Imported here: the pool's modules add about 2 MiB to a process,
    # which one that never starts a pool need not carry.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(n_jobs, cpus)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_use_warning_filters,
                             initargs=(list(warnings.filters),)) as pool:
        pending = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(_fold_job, *job))
                if len(pending) == _JOBS_PER_WORKER * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # After an error, drop the jobs not yet started and wait for
            # the running ones.
            pool.shutdown(cancel_futures=True)


def _cross_validate(runs):
    """Cross-validated training of each run of ``runs``, a list of
    (n_rows, cfg, make) where ``make()`` returns the run's (dataset,
    focal) and the dataset has ``n_rows`` rows: yields (dataset, models,
    history) per run, in order.

    Every fold of every run is one job of a single ``_run_fold_jobs``
    call, planned from the runs' sizes and configs.  A run's dataset is
    made and its rows packed when its first fold job is drawn, and its
    folds share that packing (and, in this process, its scratch
    buffers).
    """
    n_jobs = sum(cfg.n_folds for _, cfg, _ in runs)
    work = sum(cfg.max_epochs * n_rows * (cfg.n_folds - 1) for n_rows, cfg, _ in runs)
    drawn = deque()  # (dataset, labels, folds) of each run whose jobs were drawn

    def jobs():
        for _, cfg, make in runs:
            dataset, focal = make()
            labels = dataset.labels()
            folds = stratified_kfold(labels, cfg.n_folds, cfg.seed)
            tensors = row_tensors(dataset.topology, dataset.rows)
            if tensors.labels is None:
                raise DomainError("every training row needs a label")
            drawn.append((dataset, labels, folds))
            all_idx = np.arange(labels.size)
            for fold_id, val_idx in enumerate(folds):
                yield (tensors, np.setdiff1d(all_idx, val_idx), val_idx, cfg,
                       focal, fold_id)

    results = _run_fold_jobs(jobs(), n_jobs, work)
    for first in results:
        dataset, labels, folds = drawn.popleft()
        models: list[ModelParams] = []
        history = TrainHistory([], [], [], [], [],
                               predictions=np.zeros(labels.size, dtype=np.int64))
        fold_results = itertools.chain([first], itertools.islice(results, len(folds) - 1))
        for val_idx, (model, fold_train, fold_val, stop_epoch, best_epoch,
                      preds) in zip(folds, fold_results):
            models.append(model)
            history.train_losses.append(fold_train)
            history.val_losses.append(fold_val)
            history.stop_epochs.append(stop_epoch)
            history.best_epochs.append(best_epoch)
            history.predictions[val_idx] = preds
            history.fold_metrics.append(prf(confusion(preds, labels[val_idx])))
        yield dataset, models, history


def train(dataset: Dataset, cfg: TrainConfig, focal: FocalConfig):
    """Cross-validated training.

    Each fold trains on the other k-1 folds and validates on its own;
    the parameters returned per fold are those of its best validation
    epoch.  The folds are independent jobs, run in worker processes when
    the work is large enough (``_run_fold_jobs``); the numbers do not
    depend on where they run.  Returns (models, history).
    """
    (_, models, history), = _cross_validate(
        [(len(dataset.rows), cfg, lambda: (dataset, focal))])
    return models, history


def fold_predictions(dataset: Dataset, models: list[ModelParams],
                     cfg: TrainConfig) -> np.ndarray:
    """Pooled cross-validation predictions: every row is predicted by the
    model of the fold that held it out."""
    labels = dataset.labels()
    folds = stratified_kfold(labels, cfg.n_folds, cfg.seed)
    if len(models) != len(folds):
        raise ShapeError(f"{len(models)} models for {len(folds)} folds")
    tensors = row_tensors(dataset.topology, dataset.rows)
    preds = np.zeros(len(dataset.rows), dtype=np.int64)
    for fold_id, val_idx in enumerate(folds):
        probs = _probs_in_chunks(models[fold_id], tensors, val_idx)
        preds[val_idx] = probs.argmax(axis=1)
    return preds


def save_checkpoint(model: ModelParams, path, seed: int, focal: FocalConfig,
                    binary: bool = False) -> None:
    """Write a checkpoint: a JSON header plus the flat parameter vector.

    With ``binary=True`` the weights go to a little-endian float64
    sidecar next to the file instead of inline JSON.
    """
    path = Path(path)
    header = {
        "F": NUM_FEATURES,
        "H": HIDDEN_DIM,
        "C": NUM_CLASSES,
        "seed": int(seed),
        "gamma": float(focal.gamma),
        "alpha": [float(a) for a in focal.alpha],
    }
    flat = model.to_flat()
    if binary:
        sidecar = path.with_name(path.name + ".bin")
        sidecar.write_bytes(flat.astype("<f8").tobytes())
        header["weights_file"] = sidecar.name
    else:
        header["weights"] = [float(w) for w in flat]
    path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8",
                    newline="\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, focal config, training seed).
    A header that cannot be read, or that is not for this model's
    F, H and C, is a ``CompatibilityError`` naming the file."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        for key in ("F", "H", "C", "seed", "gamma", "alpha"):
            if key not in obj:
                raise CompatibilityError(f"{path}: checkpoint is missing key {key!r}")
        shape = (int(obj["F"]), int(obj["H"]), int(obj["C"]))
        if shape != (NUM_FEATURES, HIDDEN_DIM, NUM_CLASSES):
            raise CompatibilityError(
                f"{path}: checkpoint is for F={shape[0]}, H={shape[1]}, C={shape[2]}; "
                f"this model uses F={NUM_FEATURES}, H={HIDDEN_DIM}, C={NUM_CLASSES}")
        if "weights_file" in obj:
            source = path.parent / obj["weights_file"]
            raw = source.read_bytes()
            if len(raw) % 8:
                raise CompatibilityError(
                    f"{source}: {len(raw)} bytes is not a whole number of "
                    f"float64 weights")
            flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        elif "weights" in obj:
            source = path
            flat = np.asarray(obj["weights"], dtype=np.float64)
        else:
            raise CompatibilityError(f"{path}: checkpoint carries no weights")
        if not np.all(np.isfinite(flat)):
            raise CompatibilityError(f"{source}: checkpoint weights are not all finite")
        if flat.shape != (flat_size(),):
            raise CompatibilityError(
                f"{source}: checkpoint has {flat.size} weights, expected {flat_size()}")
        focal = FocalConfig(gamma=float(obj["gamma"]),
                            alpha=np.asarray(obj["alpha"], dtype=np.float64))
        seed = int(obj["seed"])
    except (DomainError, ShapeError, TypeError, ValueError) as exc:
        # ValueError covers malformed JSON and fields that are not numbers.
        raise CompatibilityError(f"{path}: {exc}") from exc
    return ModelParams.from_flat(flat.copy()), focal, seed


def history_to_csv(history: TrainHistory, path) -> None:
    lines = ["epoch,fold,train_loss,val_loss"]
    for fold_id, (train_curve, val_curve) in enumerate(
            zip(history.train_losses, history.val_losses)):
        for epoch0, (tl, vl) in enumerate(zip(train_curve, val_curve)):
            lines.append(f"{epoch0 + 1},{fold_id},{tl:.12g},{vl:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
