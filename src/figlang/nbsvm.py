"""Naive-Bayes-weighted logistic baseline over uni+bi-gram presence features.

Features are binarized indicators of whitespace-token n-grams (lowercased
text), each scaled by its log-count ratio r_i between the two classes.
A logistic layer on top is trained by the step loop all three trainers
share, `training._fit`: the same seeded batches, finite-loss check and Adam
step as pretraining and finetuning, with the gradient built by autodiff.
Strong for the cost; used to sanity-check the neural numbers.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import normalize
from .config import TrainConfig
from .errors import ConfigError, DataError
from .training import TrainLog, _fit, rng_streams


def ngrams(text: str) -> list[str]:
    toks = normalize(text).split()
    return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]


@dataclass
class NbsvmModel:
    vocab: dict            # ngram -> column
    r: np.ndarray          # log-count ratios, one per ngram
    weights: np.ndarray
    bias: float
    alpha: float


def _features(texts, vocab, r) -> np.ndarray:
    x = np.zeros((len(texts), len(vocab)))
    for row, text in enumerate(texts):
        for g in set(ngrams(text)):
            col = vocab.get(g)
            if col is not None:
                x[row, col] = r[col]
    return x


def nbsvm_train(examples, *, alpha: float = 1.0, lr: float = 1e-3,
                epochs: int = 5, batch_size: int = 10, seed: int = 42) -> NbsvmModel:
    """examples: objects with .text and .target in {0, 1}."""
    # the smoothing prior: at 0 an n-gram seen in one class only gets an
    # infinite log ratio, below 0 a count can go negative
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
            or not 0 < alpha < math.inf):
        raise ConfigError(f"alpha must be a finite number > 0, got {alpha!r}")
    cfg = TrainConfig(batch_size=batch_size, epochs=epochs, learning_rate=lr,
                      weight_decay=0.0, seed=seed)
    texts = [ex.text for ex in examples]
    y = np.asarray([int(ex.target) for ex in examples], dtype=np.int64)
    if len(texts) == 0:
        raise DataError("empty training set")
    if not (0 < y.sum() < len(y)):
        raise DataError("training set must contain both classes")

    vocab = {g: i for i, g in enumerate(sorted({g for t in texts for g in ngrams(t)}))}
    pos = np.full(len(vocab), alpha)
    neg = np.full(len(vocab), alpha)
    for text, label in zip(texts, y):
        counts = pos if label == 1 else neg
        for g in set(ngrams(text)):
            counts[vocab[g]] += 1.0
    r = np.log((pos / pos.sum()) / (neg / neg.sum()))

    x = _features(texts, vocab, r)
    params = {"w": Tensor(np.zeros((len(vocab), 1)), requires_grad=True),
              "b": Tensor(np.zeros(1), requires_grad=True)}

    def batch_loss(idx):
        # binary logistic loss as a two-class softmax whose class-0 logit
        # is fixed at 0: the class-1 gradient is (sigmoid(z) - y) / n
        z = ad.linear(x[idx], params["w"], params["b"])
        return ad.cross_entropy(ad.concat([np.zeros((len(idx), 1)), z]), y[idx])

    _fit(params, len(texts), batch_loss, cfg, rng_streams(seed)["shuffle"], TrainLog())
    return NbsvmModel(vocab=vocab, r=r, weights=params["w"].data[:, 0].copy(),
                      bias=float(params["b"].data[0]), alpha=alpha)


def nbsvm_predict(model: NbsvmModel, texts):
    """Returns (labels, scores): sigmoid scores thresholded at 0.5.
    N-grams unseen in training are ignored; empty text scores at the bias."""
    x = _features(texts, model.vocab, model.r)
    scores = ad.sigmoid(x @ model.weights + model.bias).data
    return (scores > 0.5).astype(np.int64), scores


def save_nbsvm(path, model: NbsvmModel) -> None:
    blob = {"alpha": model.alpha,
            "bias": model.bias,
            "vocab": model.vocab,
            "r": model.r.tolist(),
            "weights": model.weights.tolist()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(blob, f)
        f.write("\n")


def load_nbsvm(path) -> NbsvmModel:
    with open(path, encoding="utf-8") as f:
        blob = json.load(f)
    return NbsvmModel(vocab=blob["vocab"],
                      r=np.asarray(blob["r"], dtype=np.float64),
                      weights=np.asarray(blob["weights"], dtype=np.float64),
                      bias=float(blob["bias"]),
                      alpha=float(blob["alpha"]))
