"""Confusion matrices and support-weighted precision/recall/F1."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .conflict_sim import ConflictLabel
from .errors import DomainError, EmptyInputError, ShapeError

NUM_CLASSES = len(ConflictLabel)


def confusion(preds, truth) -> np.ndarray:
    """Count matrix with entry (t, p) = samples of true class t predicted
    as p."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.ndim != 1 or preds.shape != truth.shape:
        raise ShapeError(
            f"predictions {preds.shape} and truth {truth.shape} must be "
            f"equal-length vectors")
    if preds.size == 0:
        raise EmptyInputError("no predictions to score")
    for name, arr in (("predictions", preds), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= NUM_CLASSES:
            raise DomainError(f"{name} contain labels outside 0..{NUM_CLASSES - 1}")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


def prf(cm: np.ndarray):
    """Support-weighted one-vs-rest precision, recall and F1.

    Per class, precision = TP/(TP+FP) and recall = TP/(TP+FN); a zero
    denominator yields 0.  Classes are then averaged weighted by support,
    so zero-support classes contribute nothing.
    """
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    total = cm.sum()
    if total == 0:
        raise DomainError("confusion matrix is empty")
    tp = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    prec = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    rec = np.divide(tp, support, out=np.zeros_like(tp), where=support > 0)
    both = prec + rec
    f1 = np.divide(2.0 * prec * rec, both, out=np.zeros_like(tp), where=both > 0)
    weights = support / total
    return float(weights @ prec), float(weights @ rec), float(weights @ f1)


def metrics_to_csv(triple, path) -> None:
    prec, rec, f1 = triple
    Path(path).write_text(
        f"precision,recall,f1\n{prec:.4f},{rec:.4f},{f1:.4f}\n",
        encoding="utf-8", newline="\n")


def confusion_to_csv(cm: np.ndarray, path) -> None:
    lines = [",".join(str(int(x)) for x in row) for row in np.asarray(cm)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
