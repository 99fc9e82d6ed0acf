"""Checks computed apart from the program.

Every function here works from the files the program writes (topology
JSON, dataset CSV, checkpoint JSON) or from plain arrays, and none of
them calls the ``graphica`` function whose output it checks:

* ``label_rows``: the three conflict rules as mask algebra over a whole
  (R, W) bit matrix, against the stored labels;
* ``declared_counts`` and ``all_normal_f1``: the class counts a declared
  mix must have, and the weighted F1 of predicting "normal" everywhere;
* ``forward``: a plain dense GCN forward,
  A_hat = D^-1/2 (sum_t w_t A_t + I) D^-1/2, two ReLU convolutions, a mean
  pool and softmax, against the program's probabilities;
* ``focal_loss`` and ``finite_difference_grad``: central differences of
  that forward's focal loss, against the program's analytic gradient;
* ``confusion_counts`` and ``weighted_prf``: confusion matrix and
  support-weighted precision, recall and F1 from predictions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CLASSES = 4
N_KINDS = 3  # control (app -> parameter), drive (parameter -> KPI), parameter -> parameter
PARAM_BLOCKS = ("w1", "b1", "w2", "b2", "wc", "bc", "kind_weights")
FORWARD_CHUNK = 128  # rows per dense forward, to bound the (R, 3, W, W) adjacencies
FD_EPS = 1e-6


# ---------------------------------------------------------------------------
# topology and data files


@dataclass(frozen=True)
class Masks:
    """Static structure of one topology as dense 0/1 matrices.

    ``ctrl[p, a]``: app a controls parameter p; ``kdep[k, p]``: parameter p
    drives KPI k; ``pdep[t, s]``: parameter s drives parameter t.
    ``directed[t]`` is the (W, W) directed edge mask of edge kind t over
    the node order apps, parameters, KPIs.
    """

    n_apps: int
    n_params: int
    n_kpis: int
    ctrl: np.ndarray
    kdep: np.ndarray
    pdep: np.ndarray
    directed: np.ndarray

    @property
    def width(self) -> int:
        return self.n_apps + self.n_params + self.n_kpis


def masks_from_json(obj: dict) -> Masks:
    a, p, k = int(obj["n_apps"]), int(obj["n_params"]), int(obj["n_kpis"])
    ctrl = np.zeros((p, a), dtype=np.int64)
    kdep = np.zeros((k, p), dtype=np.int64)
    pdep = np.zeros((p, p), dtype=np.int64)
    for par, app in obj["controls"]:
        ctrl[par, app] = 1
    for kpi, par in obj["kpi_deps"]:
        kdep[kpi, par] = 1
    for tgt, src in obj["param_deps"]:
        pdep[tgt, src] = 1
    w = a + p + k
    directed = np.zeros((N_KINDS, w, w), dtype=np.int64)
    directed[0, :a, a:a + p] = ctrl.T
    directed[1, a:a + p, a + p:] = kdep.T
    directed[2, a:a + p, a:a + p] = pdep.T
    return Masks(a, p, k, ctrl, kdep, pdep, directed)


def read_masks(path) -> Masks:
    return masks_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """(bits (R, W) int64, labels (R,)) from a dataset CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        table = np.array([[int(x) for x in rec] for rec in reader], dtype=np.int64)
    return table[:, :-1], table[:, -1]


@dataclass(frozen=True)
class Checkpoint:
    params: dict
    gamma: float
    alpha: np.ndarray


def read_checkpoint(path) -> Checkpoint:
    """Parameter blocks of an inline-JSON checkpoint, in its fixed order."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    f, h, c = int(obj["F"]), int(obj["H"]), int(obj["C"])
    shapes = {"w1": (f, h), "b1": (h,), "w2": (h, h), "b2": (h,),
              "wc": (h, c), "bc": (c,), "kind_weights": (N_KINDS,)}
    flat = np.asarray(obj["weights"], dtype=np.float64)
    return Checkpoint(unflatten(flat, shapes), float(obj["gamma"]),
                      np.asarray(obj["alpha"], dtype=np.float64))


def flatten(params: dict) -> np.ndarray:
    return np.concatenate([np.ravel(params[name]) for name in PARAM_BLOCKS])


def unflatten(flat: np.ndarray, shapes: dict) -> dict:
    out, offset = {}, 0
    for name in PARAM_BLOCKS:
        size = int(np.prod(shapes[name]))
        out[name] = flat[offset:offset + size].reshape(shapes[name])
        offset += size
    if offset != flat.size:
        raise ValueError(f"{flat.size} weights for {offset} parameter entries")
    return out


# ---------------------------------------------------------------------------
# labels and class mix


def label_rows(m: Masks, bits: np.ndarray) -> np.ndarray:
    """Rule labels of every row: direct (a changed parameter with two
    active controlling apps) before implicit (a changed KPI with two
    changed source parameters) before indirect (a changed parameter with
    two changed source parameters); otherwise normal."""
    a, p = m.n_apps, m.n_params
    app, par, kpi = bits[:, :a], bits[:, a:a + p], bits[:, a + p:]
    direct = ((par * (app @ m.ctrl.T)) >= 2).any(axis=1)
    implicit = ((kpi * (par @ m.kdep.T)) >= 2).any(axis=1)
    indirect = ((par * (par @ m.pdep.T)) >= 2).any(axis=1)
    return np.select([direct, implicit, indirect], [1, 2, 3], 0)


def declared_counts(n_rows: int, conflict_fraction: float) -> np.ndarray:
    """Rows per class of a declared mix: the conflict share rounded to
    whole rows, split evenly over the three conflict classes with any
    remainder going to the lower class numbers first."""
    n_conflict = int(round(n_rows * conflict_fraction))
    per = np.full(3, n_conflict // 3)
    per[:n_conflict % 3] += 1
    return np.concatenate([[n_rows - n_conflict], per]).astype(np.int64)


def all_normal_f1(counts) -> float:
    """Weighted F1 of predicting class 0 for every row: only class 0 has
    nonzero F1, 2 n0 / (N + n0), and it is weighted by its share n0 / N."""
    counts = np.asarray(counts, dtype=np.float64)
    total, n0 = counts.sum(), counts[0]
    return float((n0 / total) * (2.0 * n0 / (total + n0)))


# ---------------------------------------------------------------------------
# metrics


def confusion_counts(truth, pred, n_classes: int = N_CLASSES) -> np.ndarray:
    """Entry (t, p) counts rows of true class t predicted as p."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truth.tolist(), pred.tolist()):
        cm[t][p] += 1
    return cm


def weighted_prf(cm: np.ndarray) -> tuple[float, float, float]:
    """Support-weighted one-vs-rest precision, recall and F1; a class with
    no predictions (or no support) scores 0."""
    total = float(cm.sum())
    prec = rec = f1 = 0.0
    for c in range(cm.shape[0]):
        tp = float(cm[c, c])
        support = float(cm[c, :].sum())
        predicted = float(cm[:, c].sum())
        p_c = tp / predicted if predicted else 0.0
        r_c = tp / support if support else 0.0
        f_c = 2.0 * p_c * r_c / (p_c + r_c) if p_c + r_c else 0.0
        weight = support / total
        prec += weight * p_c
        rec += weight * r_c
        f1 += weight * f_c
    return prec, rec, f1


# ---------------------------------------------------------------------------
# dense forward and focal loss


def node_inputs(m: Masks, bits: np.ndarray):
    """Per-row symmetric kind adjacencies (R, 3, W, W) and node features
    (R, W, 5): role one-hot, state bit, incident edge count / (W - 1)."""
    x = bits.astype(np.float64)
    both = x[:, :, None] * x[:, None, :]
    adj = (m.directed + m.directed.transpose(0, 2, 1))[None] * both[:, None]
    w = m.width
    feats = np.zeros((bits.shape[0], w, 5))
    feats[:, :m.n_apps, 0] = 1.0
    feats[:, m.n_apps:m.n_apps + m.n_params, 1] = 1.0
    feats[:, m.n_apps + m.n_params:, 2] = 1.0
    feats[:, :, 3] = x
    feats[:, :, 4] = adj.sum(axis=(1, 3)) / max(1, w - 1)
    return adj, feats


def forward(params: dict, m: Masks, bits: np.ndarray) -> np.ndarray:
    """Class probabilities (R, 4) of every row."""
    out = []
    for start in range(0, bits.shape[0], FORWARD_CHUNK):
        adj, feats = node_inputs(m, bits[start:start + FORWARD_CHUNK])
        out.append(_forward_dense(params, adj, feats))
    return np.concatenate(out, axis=0)


def _forward_dense(params, adj, feats):
    n = feats.shape[1]
    a = np.einsum("t,rtuv->ruv", params["kind_weights"], adj) + np.eye(n)
    s = 1.0 / np.sqrt(a.sum(axis=2))
    a_hat = s[:, :, None] * a * s[:, None, :]
    h1 = np.maximum(a_hat @ feats @ params["w1"] + params["b1"], 0.0)
    h2 = np.maximum(a_hat @ h1 @ params["w2"] + params["b2"], 0.0)
    logits = h2.mean(axis=1) @ params["wc"] + params["bc"]
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def focal_loss(probs, labels, gamma: float, alpha) -> float:
    """Mean of -alpha_y (1 - p_y)^gamma log p_y, p clamped to [1e-12, 1]."""
    labels = np.asarray(labels, dtype=np.int64)
    p = np.clip(probs[np.arange(labels.size), labels], 1e-12, 1.0)
    return float(np.mean(-np.asarray(alpha)[labels] * (1.0 - p) ** gamma * np.log(p)))


def finite_difference_grad(params: dict, m: Masks, bits, labels, gamma, alpha) -> np.ndarray:
    """Central differences of the focal loss for every flat coordinate."""
    shapes = {name: np.shape(params[name]) for name in PARAM_BLOCKS}
    flat = flatten(params)
    adj, feats = node_inputs(m, bits)

    def loss(vec):
        return focal_loss(_forward_dense(unflatten(vec, shapes), adj, feats),
                          labels, gamma, alpha)

    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += FD_EPS
        hi = loss(bumped)
        bumped[i] -= 2.0 * FD_EPS
        grad[i] = (hi - loss(bumped)) / (2.0 * FD_EPS)
    return grad


def block_relative_errors(analytic: np.ndarray, numeric: np.ndarray,
                          shapes: dict) -> dict:
    """Per parameter block, |a - n| / max(|a|, |n|) in the 2-norm."""
    out, offset = {}, 0
    for name in PARAM_BLOCKS:
        size = int(np.prod(shapes[name]))
        a = analytic[offset:offset + size]
        n = numeric[offset:offset + size]
        scale = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        out[name] = float(np.linalg.norm(a - n) / scale)
        offset += size
    return out
