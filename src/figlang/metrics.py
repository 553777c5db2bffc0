"""Evaluation metrics.

Classification: accuracy, positive-class precision/recall/F1 plus macro
variants, the confusion counts, and AUC computed as a rank statistic
(equivalent to the pairwise win fraction, ties worth half). Regression:
cosine similarity between the prediction and gold vectors, and MSE.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError, UndefinedMetricError


def auc(scores, golds) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting 0.5. Average ranks make this exactly the pairwise value.
    """
    scores = np.asarray(scores, dtype=np.float64)
    golds = np.asarray(golds)
    if scores.shape != golds.shape or scores.ndim != 1:
        raise DataError("scores and golds must be 1-d and the same length")
    n = len(scores)
    n_pos = int((golds == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes in the gold labels")

    # a tie block's average 1-based rank is its last rank minus (count - 1) / 2
    _, block, counts = np.unique(scores, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[block]
    rank_sum = float(ranks[golds == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _prf(tp: int, fp: int, fn: int):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def classification_metrics(preds, golds, scores=None) -> dict:
    """preds/golds: 0/1 arrays. scores: positive-class scores for AUC
    (omitted or single-class gold -> auc is None)."""
    preds = np.asarray(preds, dtype=np.int64)
    golds = np.asarray(golds, dtype=np.int64)
    if preds.shape != golds.shape or preds.ndim != 1 or len(preds) == 0:
        raise DataError("preds and golds must be equal-length nonempty 1-d arrays")
    for arr, what in ((preds, "prediction"), (golds, "gold")):
        bad = np.setdiff1d(np.unique(arr), [0, 1])
        if bad.size:
            raise DataError(f"{what} labels must be 0/1, found {bad.tolist()}")

    tp = int(((preds == 1) & (golds == 1)).sum())
    fp = int(((preds == 1) & (golds == 0)).sum())
    tn = int(((preds == 0) & (golds == 0)).sum())
    fn = int(((preds == 0) & (golds == 1)).sum())
    precision, recall, f1 = _prf(tp, fp, fn)
    # negative class scored the same way, for the macro average
    n_precision, n_recall, n_f1 = _prf(tn, fn, fp)

    auc_value = None
    if scores is not None and 0 < int((golds == 1).sum()) < len(golds):
        auc_value = auc(scores, golds)

    return {
        "task": "binary",
        "n": int(len(preds)),
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "accuracy": (tp + tn) / len(preds),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_precision": (precision + n_precision) / 2.0,
        "macro_recall": (recall + n_recall) / 2.0,
        "macro_f1": (f1 + n_f1) / 2.0,
        "auc": auc_value,
    }


def regression_metrics(preds, golds) -> dict:
    preds = np.asarray(preds, dtype=np.float64)
    golds = np.asarray(golds, dtype=np.float64)
    if preds.shape != golds.shape or preds.ndim != 1 or len(preds) == 0:
        raise DataError("preds and golds must be equal-length nonempty 1-d arrays")
    pn = float(np.linalg.norm(preds))
    gn = float(np.linalg.norm(golds))
    if pn == 0.0 or gn == 0.0:
        raise UndefinedMetricError("cosine similarity undefined for a zero vector")
    return {
        "task": "score",
        "n": int(len(preds)),
        "cosine": float(preds @ golds) / (pn * gn),
        "mse": float(np.mean((preds - golds) ** 2)),
    }


def report_json(report: dict) -> str:
    """Stable, human-readable serialization (insertion order is the fixed
    key order)."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
