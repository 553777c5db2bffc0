"""Naive-Bayes-weighted logistic baseline over uni+bi-gram presence features.

Features are binarized indicators of whitespace-token n-grams (lowercased
text), each scaled by its log-count ratio r_i between the two classes.
A logistic layer on top is trained with Adam, on the same seeded batches
as the neural trainers (`training._batches`). Strong for the cost; used to
sanity-check the neural numbers.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, zero_grads
from .bpe import normalize
from .config import TrainConfig
from .errors import ConfigError, DataError
from .training import AdamState, _batches, adam_step, rng_streams


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
    y = np.asarray([int(ex.target) for ex in examples], dtype=np.float64)
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
    params = {"w": Tensor(np.zeros(len(vocab)), requires_grad=True),
              "b": Tensor(np.zeros(()), requires_grad=True)}
    state = AdamState()
    shuffle = rng_streams(seed)["shuffle"]
    for _ in range(epochs):
        for idx in _batches(len(texts), batch_size, shuffle):
            xb, yb = x[idx], y[idx]
            p = 1.0 / (1.0 + np.exp(-(xb @ params["w"].data + params["b"].data)))
            err = (p - yb) / len(idx)
            params["w"].grad = xb.T @ err
            params["b"].grad = np.asarray(err.sum())
            adam_step(params, state, cfg)
            zero_grads(params.values())
    return NbsvmModel(vocab=vocab, r=r, weights=params["w"].data.copy(),
                      bias=float(params["b"].data), alpha=alpha)


def nbsvm_predict(model: NbsvmModel, texts):
    """Returns (labels, scores): sigmoid scores thresholded at 0.5.
    N-grams unseen in training are ignored; empty text scores at the bias."""
    x = _features(texts, model.vocab, model.r)
    scores = 1.0 / (1.0 + np.exp(-(x @ model.weights + model.bias)))
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
