"""Graph-level conflict classifier and its training loop.

The model is two graph-convolution layers over the symmetric
degree-normalized adjacency, global mean pooling, and a linear head with
softmax.  Edge kinds enter the propagation as three learned positive
scalar weights on the adjacency.  Training minimizes focal loss with
Adam under coupled weight decay, stratified k-fold cross-validation,
per-epoch shuffled mini-batches, and early stopping on the validation
loss.  All gradients are computed analytically, including the part that
flows through the adjacency normalization into the edge-kind weights.
"""

from __future__ import annotations

import json
import math
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
        parts = {}
        offset = 0
        for name, shape in block_shapes(hidden_dim):
            size = int(np.prod(shape))
            parts[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return cls(**parts)


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
        if self.gamma < 0:
            raise DomainError("gamma must be >= 0")
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (self.n_classes,):
            raise ShapeError(
                f"alpha must have {self.n_classes} entries, got {self.alpha.shape}")
        if np.any(self.alpha < 0):
            raise DomainError("alpha entries must be >= 0")


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

    Node features are dense, shape (R, n, F); edges are kept as flat
    arrays with local node ids plus a CSR-style pointer per row, since a
    typical graph has only a handful of edges.  ``kind_degrees`` holds
    the per-kind symmetric degree of every node, shape (R, 3, n).

    ``buffers`` owns the scratch arrays that every batched pass over
    these rows writes its (B, n, n) and (B, n, H) intermediates into.
    They are allocated on first use, grow to the largest batch seen and
    live as long as the packed rows, so thousands of training steps
    reuse the same memory instead of faulting in fresh pages per step.
    """

    features: np.ndarray
    edge_ptr: np.ndarray
    edge_kind: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    kind_degrees: np.ndarray
    labels: np.ndarray | None
    buffers: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


@dataclass(eq=False)
class _Batch:
    feats: np.ndarray   # (B, n, F)
    eb: np.ndarray      # (E,) batch-local graph index per edge
    ek: np.ndarray      # (E,) edge kind
    eu: np.ndarray      # (E,) local source node
    ev: np.ndarray      # (E,) local target node
    degt: np.ndarray    # (B, 3, n)
    n: int
    buffers: dict[str, np.ndarray]  # RowTensors.buffers of the source rows


def _scratch(batch: _Batch, name: str, shape) -> np.ndarray:
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
    degt = np.zeros((count, 3, n))
    ptr = np.zeros(count + 1, dtype=np.int64)
    kinds, srcs, dsts = [], [], []
    labels = []
    for i, g in enumerate(graphs):
        feats[i] = g.features
        kinds.append(g.edge_kind)
        srcs.append(g.edge_src)
        dsts.append(g.edge_dst)
        ptr[i + 1] = ptr[i] + g.n_edges
        if g.edge_src.size:
            np.add.at(degt[i], (g.edge_kind, g.edge_src), 1.0)
            np.add.at(degt[i], (g.edge_kind, g.edge_dst), 1.0)
        labels.append(-1 if g.label is None else g.label)
    label_arr = np.array(labels, dtype=np.int64)
    return RowTensors(
        features=feats,
        edge_ptr=ptr,
        edge_kind=np.concatenate(kinds) if kinds else np.zeros(0, dtype=np.int64),
        edge_src=np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64),
        edge_dst=np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64),
        kind_degrees=degt,
        labels=None if np.any(label_arr < 0) else label_arr,
    )


def row_tensors(topology: Topology, rows) -> RowTensors:
    """Pack rows of one topology, building each row's graph in turn."""
    return _pack((build_graph(topology, row) for row in rows), len(rows),
                 topology.width)


def _gather_batch(tensors: RowTensors, indices: np.ndarray) -> _Batch:
    indices = np.asarray(indices, dtype=np.int64)
    counts = tensors.edge_ptr[indices + 1] - tensors.edge_ptr[indices]
    total = int(counts.sum())
    if total:
        before = np.concatenate([[0], np.cumsum(counts)[:-1]])
        flat = np.arange(total) + np.repeat(tensors.edge_ptr[indices] - before,
                                            counts)
        eb = np.repeat(np.arange(indices.size, dtype=np.int64), counts)
        ek = tensors.edge_kind[flat]
        eu = tensors.edge_src[flat]
        ev = tensors.edge_dst[flat]
    else:
        eb = ek = eu = ev = np.zeros(0, dtype=np.int64)
    return _Batch(
        feats=tensors.features[indices],
        eb=eb, ek=ek, eu=eu, ev=ev,
        degt=tensors.kind_degrees[indices],
        n=tensors.features.shape[1],
        buffers=tensors.buffers,
    )


def _forward_pass(model: ModelParams, batch: _Batch) -> dict:
    """Batched forward over (B, n, ...) blocks; caches every intermediate
    the backward pass needs.

    The large cached arrays are views into the batch's reusable buffers
    (``RowTensors.buffers``), so a cache is valid only until the next
    pass over the same packed rows; ``probs`` and ``pooled`` are fresh
    arrays.  Buffer names follow their first occupant; arrays whose
    lifetimes do not overlap share one buffer.
    """
    b, n = batch.feats.shape[0], batch.n
    hidden = model.hidden_dim
    kw = model.kind_weights
    a = _scratch(batch, "a", (b, n, n))
    if batch.eb.size:
        lin = (batch.eb * n + batch.eu) * n + batch.ev
        directed = _scratch(batch, "directed", (b, n, n))
        directed.fill(0.0)
        np.add.at(directed.reshape(-1), lin, kw[batch.ek])
        np.add(directed, directed.transpose(0, 2, 1), out=a)
    else:
        a.fill(0.0)
    idx = np.arange(n)
    a[:, idx, idx] += 1.0
    deg = 1.0 + np.einsum("t,btn->bn", kw, batch.degt)
    inv_sqrt = 1.0 / np.sqrt(deg)
    ahat = np.multiply(a, inv_sqrt[:, :, None], out=_scratch(batch, "ahat", (b, n, n)))
    ahat *= inv_sqrt[:, None, :]

    xw1 = np.matmul(batch.feats, model.w1, out=_scratch(batch, "xw1", (b, n, hidden)))
    z1 = np.matmul(ahat, xw1, out=_scratch(batch, "z1", (b, n, hidden)))
    z1 += model.b1
    h1 = np.maximum(z1, 0.0, out=_scratch(batch, "h1", (b, n, hidden)))
    hw2 = np.matmul(h1, model.w2, out=_scratch(batch, "hw2", (b, n, hidden)))
    z2 = np.matmul(ahat, hw2, out=_scratch(batch, "z2", (b, n, hidden)))
    z2 += model.b2
    h2 = np.maximum(z2, 0.0, out=_scratch(batch, "h2", (b, n, hidden)))
    pooled = h2.mean(axis=1)
    logits = pooled @ model.wc + model.bc
    probs = _softmax(logits)
    return {
        "batch": batch, "deg": deg, "inv_sqrt": inv_sqrt, "ahat": ahat,
        "xw1": xw1, "z1": z1, "h1": h1, "hw2": hw2, "z2": z2,
        "pooled": pooled, "probs": probs,
    }


def _kind_weight_grad(cache: dict, dahat: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. the three edge-kind weights.

    With s = deg^{-1/2} and degt the per-kind degree,
    d ahat_uv / d w_t = M_t,uv s_u s_v
                        - ahat_uv (degt_u / deg_u + degt_v / deg_v) / 2,
    where M_t is the symmetrized per-kind adjacency.
    """
    batch = cache["batch"]
    s = cache["inv_sqrt"]
    if batch.eb.size:
        n = batch.n
        flat = dahat.ravel()
        lin_uv = (batch.eb * n + batch.eu) * n + batch.ev
        lin_vu = (batch.eb * n + batch.ev) * n + batch.eu
        val = ((flat[lin_uv] + flat[lin_vu])
               * s[batch.eb, batch.eu] * s[batch.eb, batch.ev])
        term1 = np.bincount(batch.ek, weights=val, minlength=3)
    else:
        term1 = np.zeros(3)
    ratio = batch.degt / cache["deg"][:, None, :]
    weighted = np.multiply(dahat, cache["ahat"], out=_scratch(batch, "a", dahat.shape))
    term2 = 0.5 * (np.einsum("bn,btn->t", weighted.sum(axis=2), ratio)
                   + np.einsum("bn,btn->t", weighted.sum(axis=1), ratio))
    return term1 - term2


def _backward_pass(model: ModelParams, cache: dict, dlogits: np.ndarray) -> ModelParams:
    """Analytic gradients for every block, returned in a ModelParams
    container with the same shapes as the parameters.  Overwrites the
    buffers behind ``cache``, which is spent afterwards."""
    batch = cache["batch"]
    ahat = cache["ahat"]
    b, n = batch.feats.shape[0], batch.n
    hidden = model.w2.shape[0]

    dwc = cache["pooled"].T @ dlogits
    dbc = dlogits.sum(axis=0)
    dpooled = dlogits @ model.wc.T

    # np.where, not a multiply by the mask: masked entries stay +0.0.
    dz2 = _scratch(batch, "h2", (b, n, hidden))
    dz2.fill(0.0)
    np.copyto(dz2, dpooled[:, None, :] / n, where=cache["z2"] > 0)
    # ahat is symmetric.
    dhw2 = np.matmul(ahat, dz2, out=_scratch(batch, "dhw2", (b, n, hidden)))
    dw2 = cache["h1"].reshape(-1, hidden).T @ dhw2.reshape(-1, hidden)
    db2 = dz2.sum(axis=(0, 1))
    dh1 = np.matmul(dhw2, model.w2.T, out=_scratch(batch, "dh1", (b, n, hidden)))
    dahat = np.matmul(dz2, cache["hw2"].transpose(0, 2, 1),
                      out=_scratch(batch, "directed", (b, n, n)))

    dz1 = _scratch(batch, "dhw2", (b, n, hidden))
    dz1.fill(0.0)
    np.copyto(dz1, dh1, where=cache["z1"] > 0)
    dxw1 = np.matmul(ahat, dz1, out=_scratch(batch, "dh1", (b, n, hidden)))
    dw1 = batch.feats.reshape(-1, batch.feats.shape[2]).T @ dxw1.reshape(-1, hidden)
    db1 = dz1.sum(axis=(0, 1))
    dahat += np.matmul(dz1, cache["xw1"].transpose(0, 2, 1),
                       out=_scratch(batch, "a", (b, n, n)))

    return ModelParams(
        w1=dw1, b1=db1, w2=dw2, b2=db2, wc=dwc, bc=dbc,
        kind_weights=_kind_weight_grad(cache, dahat),
    )


def loss_and_grad(model: ModelParams, tensors: RowTensors, indices,
                  focal: FocalConfig):
    """Focal loss of the selected rows and its gradient for every
    parameter block."""
    if tensors.labels is None:
        raise DomainError("rows must carry labels to compute a loss")
    indices = np.asarray(indices, dtype=np.int64)
    cache = _forward_pass(model, _gather_batch(tensors, indices))
    loss, dlogits = focal_loss(cache["probs"], tensors.labels[indices], focal)
    return loss, _backward_pass(model, cache, dlogits)


def predict(model: ModelParams, graph: ConflictGraph):
    """Most probable label for one graph; ties resolve to the smaller
    class index."""
    tensors = _pack([graph], 1, graph.n_nodes)
    probs = _forward_pass(model, _gather_batch(tensors, [0]))["probs"][0]
    return ConflictLabel(int(np.argmax(probs))), probs


def predict_rows(model: ModelParams, topology: Topology, rows,
                 chunk_size: int = 512) -> np.ndarray:
    """Class probabilities for many rows of one topology, shape (R, C).

    Rows are packed one chunk at a time, so the packed tensors never
    hold more than ``chunk_size`` rows.
    """
    if len(rows) == 0:
        return np.zeros((0, NUM_CLASSES))
    parts = []
    for i in range(0, len(rows), chunk_size):
        chunk = rows[i:i + chunk_size]
        parts.append(_probs_in_chunks(model, row_tensors(topology, chunk),
                                      np.arange(len(chunk)), chunk_size))
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
    val_labels = tensors.labels[val_idx]

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
        val_loss, _ = focal_loss(val_probs, val_labels, focal)
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


def train(dataset: Dataset, cfg: TrainConfig, focal: FocalConfig):
    """Cross-validated training.

    Each fold trains on the other k-1 folds and validates on its own;
    the parameters returned per fold are those of its best validation
    epoch.  Every fold's steps and validation passes share one packing
    of the rows and its scratch buffers.  Returns (models, history).
    """
    labels = dataset.labels()
    folds = stratified_kfold(labels, cfg.n_folds, cfg.seed)
    tensors = row_tensors(dataset.topology, dataset.rows)
    if tensors.labels is None:
        raise DomainError("every training row needs a label")

    models: list[ModelParams] = []
    history = TrainHistory([], [], [], [], [],
                           predictions=np.zeros(len(dataset.rows), dtype=np.int64))
    all_idx = np.arange(len(dataset.rows))
    for fold_id, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        model, fold_train, fold_val, stop_epoch, best_epoch = _train_fold(
            tensors, train_idx, val_idx, cfg, focal, fold_id)
        models.append(model)
        history.train_losses.append(fold_train)
        history.val_losses.append(fold_val)
        history.stop_epochs.append(stop_epoch)
        history.best_epochs.append(best_epoch)

        val_probs = _probs_in_chunks(model, tensors, val_idx)
        preds = val_probs.argmax(axis=1)
        history.predictions[val_idx] = preds
        history.fold_metrics.append(prf(confusion(preds, labels[val_idx])))
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
        sidecar = path.parent / obj["weights_file"]
        raw = sidecar.read_bytes()
        if len(raw) % 8:
            raise CompatibilityError(
                f"{sidecar}: {len(raw)} bytes is not a whole number of "
                f"float64 weights")
        flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    elif "weights" in obj:
        flat = np.asarray(obj["weights"], dtype=np.float64)
    else:
        raise CompatibilityError("checkpoint carries no weights")
    if flat.shape != (flat_size(hidden),):
        raise CompatibilityError(
            f"checkpoint has {flat.shape[0]} weights, expected "
            f"{flat_size(hidden)} for H={hidden}")
    model = ModelParams.from_flat(flat.copy(), hidden)
    focal = FocalConfig(gamma=float(obj["gamma"]),
                        alpha=np.asarray(obj["alpha"], dtype=np.float64))
    return model, focal, int(obj["seed"])


def history_to_csv(history: TrainHistory, path) -> None:
    lines = ["epoch,fold,train_loss,val_loss"]
    for fold_id, (train_curve, val_curve) in enumerate(
            zip(history.train_losses, history.val_losses)):
        for epoch0, (tl, vl) in enumerate(zip(train_curve, val_curve)):
            lines.append(f"{epoch0 + 1},{fold_id},{tl:.12g},{vl:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
