"""Graph-level conflict classifier and its training loop.

The model is two graph-convolution layers over the symmetric
degree-normalized adjacency, global mean pooling, and a linear head with
softmax.  Edge kinds enter the propagation as three learned positive
scalar weights on the adjacency, which is never formed per row: one
(n, n) edge mask serves every row, scaled by each row's degrees.  A
batch convolves only each row's active nodes, in K slots per row: an
inactive node has no edge, so every inactive node of one role computes
the same hidden vectors, and those enter the pool as one constant per
role weighted by the row's inactive count.  Training minimizes focal
loss with Adam under coupled weight decay, stratified k-fold
cross-validation, per-epoch shuffled mini-batches, and early stopping on
the validation loss.  All gradients are computed analytically, including
the part that flows through the adjacency normalization into the
edge-kind weights.
"""

from __future__ import annotations

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
from .gsc import NUM_NODE_FEATURES, ConflictGraph, build_graph
from .metrics import confusion, prf
from .numerics import AdamState, adam_step

NUM_FEATURES = NUM_NODE_FEATURES
HIDDEN_DIM = 16
NUM_CLASSES = 4

#: Edge-kind weights stay at or above this after every optimizer step so
#: the adjacency normalization keeps strictly positive degrees.
KIND_WEIGHT_FLOOR = 1e-3

# Distinct seed streams so folds, inits and shuffles never correlate.
_FOLD_STREAM = 11
_INIT_STREAM = 13
_SHUFFLE_STREAM = 17

#: Planned training work, in row-epochs (the sum over fold jobs of
#: max_epochs x training rows), below which fold jobs run in this
#: process instead of a worker pool: the measured break-even.  Measured
#: on 2 vCPUs with the reference data (n = 33 nodes, 570 rows, 5 folds,
#: median of 5): train took 0.41 / 0.52 / 0.67 / 0.80 s in this process
#: against 0.49 / 0.60 / 0.63 / 0.73 s in a 2-worker spawn pool at
#: 13,680 / 18,240 / 22,800 / 27,360 row-epochs.  Only n = 33 was
#: measured; a row-epoch costs more on larger topologies, so there the
#: pool should pay off at fewer row-epochs.
_POOL_MIN_WORK = 20_000
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

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @classmethod
    def init(cls, seed, hidden_dim: int = HIDDEN_DIM) -> "ModelParams":
        """Fan-scaled uniform init for weights, zeros for biases, ones for
        the edge-kind weights."""
        rng = np.random.default_rng(seed)

        def fan_uniform(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        return cls(
            w1=fan_uniform(NUM_FEATURES, hidden_dim),
            b1=np.zeros(hidden_dim),
            w2=fan_uniform(hidden_dim, hidden_dim),
            b2=np.zeros(hidden_dim),
            wc=fan_uniform(hidden_dim, NUM_CLASSES),
            bc=np.zeros(NUM_CLASSES),
            kind_weights=np.ones(3),
        )

    def to_flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel()
                               for name, _ in block_shapes(self.hidden_dim)])

    @classmethod
    def from_flat(cls, flat: np.ndarray, hidden_dim: int = HIDDEN_DIM) -> "ModelParams":
        expected = flat_size(hidden_dim)
        if flat.shape != (expected,):
            raise ShapeError(
                f"flat vector has {flat.shape[0]} entries, expected {expected}")
        slices = block_slices(hidden_dim)
        return cls(**{name: flat[slices[name]].reshape(shape)
                      for name, shape in block_shapes(hidden_dim)})


def block_shapes(hidden_dim: int = HIDDEN_DIM):
    """Fixed serialization order of the parameter blocks."""
    return (
        ("w1", (NUM_FEATURES, hidden_dim)),
        ("b1", (hidden_dim,)),
        ("w2", (hidden_dim, hidden_dim)),
        ("b2", (hidden_dim,)),
        ("wc", (hidden_dim, NUM_CLASSES)),
        ("bc", (NUM_CLASSES,)),
        ("kind_weights", (3,)),
    )


def block_slices(hidden_dim: int = HIDDEN_DIM) -> dict[str, slice]:
    out = {}
    offset = 0
    for name, shape in block_shapes(hidden_dim):
        size = int(np.prod(shape))
        out[name] = slice(offset, offset + size)
        offset += size
    return out


def flat_size(hidden_dim: int = HIDDEN_DIM) -> int:
    return sum(int(np.prod(shape)) for _, shape in block_shapes(hidden_dim))


@dataclass
class FocalConfig:
    """Focusing parameter gamma and the per-class weight vector."""

    gamma: float
    alpha: np.ndarray
    n_classes: int = NUM_CLASSES

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (self.n_classes,):
            raise ShapeError(
                f"alpha must have {self.n_classes} entries, got {self.alpha.shape}")
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


def compute_alpha(labels, n_classes: int = NUM_CLASSES) -> np.ndarray:
    """Inverse class frequency weights, alpha_c = N / (C * n_c); a
    balanced label set yields all ones."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DomainError(f"labels outside 0..{n_classes - 1}")
    counts = np.bincount(labels, minlength=n_classes)
    for c in range(n_classes):
        if counts[c] == 0:
            raise DomainError(f"class {c} has no samples")
    return labels.size / (n_classes * counts.astype(np.float64))


def focal_loss(probs, labels, cfg: FocalConfig):
    """Mean focal loss over the batch and its gradient w.r.t. the logits.

    Per sample with true class y: -alpha_y * (1 - p_y)^gamma * log(p_y),
    evaluated on probabilities clamped to [1e-12, 1].  With gamma 0 and
    unit alpha this is exactly mean cross-entropy.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != cfg.n_classes:
        raise ShapeError(f"probs must be (B, {cfg.n_classes}), got {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ShapeError(f"labels {labels.shape} do not match probs {probs.shape}")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise DomainError("probability rows must sum to 1")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise DomainError(f"labels outside 0..{cfg.n_classes - 1}")

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
    loss = float(np.mean(-alpha * focal * log_pt))
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

    ``features`` (R, n, F) are the node features and ``states`` (R, n)
    the node state bits x.  ``kind_masks`` (3, n, n) holds, per edge
    kind t, the union M_t of the packed graphs' directed edges plus its
    transpose, so a mutual pair counts 2.  A row's symmetrized kind-t
    adjacency is then M_t * outer(x, x): in a graph of one topology an
    edge exists iff it is declared and both endpoints are active.
    ``kind_degrees`` (R, 3, n) is the per-kind degree x * (M_t x).
    ``slots`` (R, S) lists each row's node ids in slot order, its active
    nodes ascending and then its inactive ones ascending, where S is the
    largest active-node count of any packed row (``_gather_batch``), in
    the smallest unsigned integer type that holds n.

    ``buffers`` owns the scratch arrays that every batched pass over
    these rows writes its (B, K, K), (B, K, H) and (B, K, F)
    intermediates into.  They are allocated on first use, grow to the
    largest batch seen and live as long as the packed rows, so thousands
    of training steps reuse the same memory instead of faulting in fresh
    pages per step.
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
    """Pack an iterable of ``count`` graphs with ``n`` nodes each."""
    feats = np.zeros((count, n, NUM_FEATURES))
    states = np.zeros((count, n))
    directed = np.zeros((3, n, n))
    labels = []
    for i, g in enumerate(graphs):
        feats[i] = g.features
        states[i] = g.states
        directed[g.edge_kind, g.edge_src, g.edge_dst] = 1.0
        labels.append(-1 if g.label is None else g.label)
    masks = directed + directed.transpose(0, 2, 1)
    degrees = np.matmul(states, masks).transpose(1, 0, 2) * states[:, None, :]
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


def _propagate(scale, y, out, inner):
    """Write ahat y = P y + s2 * y into ``out`` for every row, with
    ``scale`` = (P, s2) and P = diag(xs) M diag(xs) the row's scaled
    block; return the first term, written into ``inner``."""
    block, s2 = scale
    np.matmul(block, y, out=inner)
    np.multiply(y, s2, out=out)
    out += inner
    return inner


def _forward_pass(model: ModelParams, batch: Batch) -> dict:
    """Batched forward over (B, K, ...) slot blocks plus one constant per
    node role; caches every intermediate the backward pass needs.

    The adjacency is A = M * outer(x, x) + I with the shared mask
    M = sum_t w_t M_t, and ahat = D^-1/2 A D^-1/2 with the degree
    D = 1 + sum_t w_t kind_degrees_t.  With s = D^-1/2 and xs = x s,
    ahat = diag(xs) M diag(xs) + diag(s^2).  Each row's (K, K) block of
    M over its slots, scaled by xs on both sides, is taken once per
    pass; ``_propagate`` adds the diagonal without forming ahat.  Layer
    1 propagates the F < H feature columns first: z1 = (ahat X) w1 + b1.

    An inactive node has no edge, so its row of ahat is its self-loop
    and its features are its role one-hot: every inactive node of one
    role has z1c = w1[role] + b1, h1c = relu(z1c), z2c = h1c w2 + b2 and
    h2c = relu(z2c).  The pool adds h2 over the active slots (padding
    slots are masked out by their state bit) and h2c weighted by each
    row's inactive count per role, then divides by n.  The slot axis is
    reduced by ``sum(axis=1)``, which adds slot after slot, so a row's
    result does not depend on how many padding slots the batch gives it.

    The large cached arrays are views into the batch's reusable buffers
    (``RowTensors.buffers``), so a cache is valid only until the next
    pass over the same packed rows; ``probs`` and ``pooled`` are fresh
    arrays.  Buffer names follow their first occupant; arrays whose
    lifetimes do not overlap share one buffer.
    """
    feats, kw = batch.features, model.kind_weights
    shape = (*batch.states.shape, model.hidden_dim)
    deg = 1.0 + np.einsum("t,btn->bn", kw, batch.kind_degrees)
    xs = batch.states / np.sqrt(deg)
    block = np.take(np.tensordot(kw, batch.kind_masks, axes=1), batch.pairs,
                    out=_scratch(batch, "block", batch.pairs.shape))
    block *= xs[:, :, None]
    block *= xs[:, None, :]
    scale = (block, (1.0 / deg)[:, :, None])

    ax = _scratch(batch, "ax", feats.shape)
    inner1 = _propagate(scale, feats, ax, _scratch(batch, "inner1", feats.shape))
    z1 = np.matmul(ax, model.w1, out=_scratch(batch, "z1", shape))
    z1 += model.b1
    h1 = np.maximum(z1, 0.0, out=_scratch(batch, "h1", shape))
    hw2 = np.matmul(h1, model.w2, out=_scratch(batch, "hw2", shape))
    z2 = _scratch(batch, "z2", shape)
    inner2 = _propagate(scale, hw2, z2, _scratch(batch, "inner2", shape))
    z2 += model.b2
    h2 = np.maximum(z2, 0.0, out=_scratch(batch, "h2", shape))
    h2 *= batch.states[:, :, None]

    z1c = model.w1[:3] + model.b1
    h1c = np.maximum(z1c, 0.0)
    z2c = h1c @ model.w2 + model.b2
    pooled = h2.sum(axis=1)
    pooled += batch.idle @ np.maximum(z2c, 0.0)
    pooled /= batch.n_nodes
    probs = _softmax(pooled @ model.wc + model.bc)
    return {"batch": batch, "scale": scale, "ax": ax, "inner1": inner1, "z1": z1,
            "h1": h1, "hw2": hw2, "inner2": inner2, "z2": z2, "z1c": z1c,
            "h1c": h1c, "z2c": z2c, "pooled": pooled, "probs": probs}


def _backward_pass(model: ModelParams, cache: dict, dlogits: np.ndarray) -> ModelParams:
    """Analytic gradients for every block, returned in a ModelParams
    container with the same shapes as the parameters.  Overwrites the
    buffers behind ``cache``, which is spent afterwards.

    ahat is symmetric, so dy = ahat dz; layer 1 works on the features,
    dy = dz1 w1^T.  Per node, summed over both layers' propagated y,
    with the scaled block P = diag(xs) M diag(xs):
    g = <dy, P y> + <y, P dy> and e = <dy, y>.
    Through s = D^-1/2: dL/ds = g / s + 2 s e, ds/dw_t =
    -s^3 kind_degrees_t / 2.  Through M: the sum of g over a node role
    (feature columns 0-2) is sum_t w_t G_t over the kinds t it touches,
    with G_t the kind-t gradient; apps touch PA, KPIs touch KP, and
    parameters touch PA and KP once and PP from both ends.

    Padding slots get a zero gradient at the pool, and so contribute
    nothing.  The role constants' gradients, summed over each row's
    inactive count per role, go into dw1[:3], db1, dw2 and db2; they add
    nothing to the kind-weight gradient, since an inactive node's
    degree is 1 whatever the weights.
    """
    batch, scale = cache["batch"], cache["scale"]
    feats, hw2 = batch.features, cache["hw2"]
    hidden = hw2.shape[2]

    dwc = cache["pooled"].T @ dlogits
    dbc = dlogits.sum(axis=0)
    dmean = dlogits @ model.wc.T
    dmean /= batch.n_nodes

    dz2 = np.multiply(dmean[:, None, :], cache["z2"] > 0,
                      out=_scratch(batch, "h2", hw2.shape))
    dz2 *= batch.states[:, :, None]
    dhw2 = _scratch(batch, "dhw2", hw2.shape)
    inner = _propagate(scale, dz2, dhw2, _scratch(batch, "z2", hw2.shape))
    g = np.vecdot(dz2, cache["inner2"]) + np.vecdot(hw2, inner)
    e = np.vecdot(dz2, hw2)
    dw2 = cache["h1"].reshape(-1, hidden).T @ dhw2.reshape(-1, hidden)
    db2 = dz2.reshape(-1, hidden).sum(axis=0)

    dz1 = np.matmul(dhw2, model.w2.T, out=_scratch(batch, "h1", hw2.shape))
    dz1 *= cache["z1"] > 0
    dw1 = cache["ax"].reshape(-1, NUM_FEATURES).T @ dz1.reshape(-1, hidden)
    db1 = dz1.reshape(-1, hidden).sum(axis=0)
    dx = np.matmul(dz1, model.w1.T, out=_scratch(batch, "dx", feats.shape))
    inner = _propagate(scale, dx, _scratch(batch, "ax", feats.shape),
                       _scratch(batch, "dx_inner", feats.shape))
    g += np.vecdot(dx, cache["inner1"]) + np.vecdot(feats, inner)
    e += np.vecdot(dx, feats)

    dz2c = batch.idle.T @ dmean
    dz2c *= cache["z2c"] > 0
    dw2 += cache["h1c"].T @ dz2c
    db2 += dz2c.sum(axis=0)
    dz1c = dz2c @ model.w2.T
    dz1c *= cache["z1c"] > 0
    dw1[:3] += dz1c
    db1 += dz1c.sum(axis=0)

    app, param, kpi = np.einsum("bn,bnk->k", g, feats[:, :, :3])
    s2 = scale[1][:, :, 0]
    kind_grad = (np.array([app, kpi, 0.5 * (param - app - kpi)]) / model.kind_weights
                 + np.einsum("bn,btn->t", -0.5 * s2 * (g + 2.0 * s2 * e),
                             batch.kind_degrees))
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
    hidden = model.hidden_dim
    flat = model.to_flat()
    state = AdamState.initial(flat.size, cfg.learning_rate,
                              weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng([cfg.seed, fold_id, _SHUFFLE_STREAM])
    slices = block_slices(hidden)
    kw_slice = slices["kind_weights"]

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
            model = ModelParams.from_flat(flat, hidden)
            loss, grads = loss_and_grad(model, tensors, chunk, focal)
            if not np.isfinite(loss):
                raise TrainingError(f"training loss diverged at epoch {epoch}")
            grad_flat = grads.to_flat()
            if not np.all(np.isfinite(grad_flat)):
                bad = next(name for name, sl in slices.items()
                           if not np.all(np.isfinite(grad_flat[sl])))
                raise NumericError(
                    f"non-finite gradient in block {bad} at epoch {epoch}")
            flat, state = adam_step(flat, grad_flat, state)
            np.maximum(flat[kw_slice], KIND_WEIGHT_FLOOR, out=flat[kw_slice])
            running += loss * chunk.size
        train_losses.append(running / order.size)

        model = ModelParams.from_flat(flat, hidden)
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

    return (ModelParams.from_flat(best_flat, hidden), train_losses,
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
        "F": int(model.w1.shape[0]),
        "H": int(model.hidden_dim),
        "C": int(model.wc.shape[1]),
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
    """Read a checkpoint; returns (model, focal config, training seed)."""
    path = Path(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    for key in ("F", "H", "C", "seed", "gamma", "alpha"):
        if key not in obj:
            raise CompatibilityError(f"checkpoint is missing key {key!r}")
    if int(obj["F"]) != NUM_FEATURES or int(obj["C"]) != NUM_CLASSES:
        raise CompatibilityError(
            f"checkpoint is for F={obj['F']}, C={obj['C']}; this model uses "
            f"F={NUM_FEATURES}, C={NUM_CLASSES}")
    hidden = int(obj["H"])
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
        raise CompatibilityError("checkpoint carries no weights")
    if not np.all(np.isfinite(flat)):
        raise CompatibilityError(f"{source}: checkpoint weights are not all finite")
    if flat.shape != (flat_size(hidden),):
        raise CompatibilityError(
            f"checkpoint has {flat.shape[0]} weights, expected "
            f"{flat_size(hidden)} for H={hidden}")
    model = ModelParams.from_flat(flat.copy(), hidden)
    try:
        focal = FocalConfig(gamma=float(obj["gamma"]),
                            alpha=np.asarray(obj["alpha"], dtype=np.float64))
    except (DomainError, ShapeError) as exc:
        raise CompatibilityError(f"{path}: {exc}") from exc
    return model, focal, int(obj["seed"])


def history_to_csv(history: TrainHistory, path) -> None:
    lines = ["epoch,fold,train_loss,val_loss"]
    for fold_id, (train_curve, val_curve) in enumerate(
            zip(history.train_losses, history.val_losses)):
        for epoch0, (tl, vl) in enumerate(zip(train_curve, val_curve)):
            lines.append(f"{epoch0 + 1},{fold_id},{tl:.12g},{vl:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
