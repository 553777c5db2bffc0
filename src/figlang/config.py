"""Architecture and optimization hyperparameter dataclasses.

`paper_scale()` carries the published recipe (12 layers, 12 heads, 64 LSTM
units, dropout 0.1, batch 10, 5 epochs, lr 2e-5, eps 1e-6, weight decay
1e-5); `toy_scale()` is the desk-size preset the test suite trains.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import ConfigError

BINARY = "binary"
REGRESSION = "regression"

# Task label (CLI `--task`, checkpoint manifest `task`) -> model head.
TASK_NAMES = {"binary": BINARY, "score": REGRESSION}

SCORE_MIN = -5.0
SCORE_MAX = 5.0


def _require_int(cfg, name: str, low: int = 1) -> None:
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_number(cfg, name: str, ok, rule: str) -> None:
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ConfigError(f"{name} must be a number {rule}, got {value!r}")


def _fraction(v) -> bool:
    return 0 <= v < 1


@dataclass
class ModelConfig:
    n_layers: int = 12
    n_heads: int = 12
    d_model: int = 768
    d_ff: int = 3072
    max_seq_len: int = 128
    vocab_size: int = 50265
    dropout: float = 0.1
    lstm_units: int = 64
    d_proj: int = 128
    task_head: str = BINARY

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size",
                     "lstm_units", "d_proj"):
            _require_int(self, name)
        _require_int(self, "max_seq_len", 2)
        _require_number(self, "dropout", _fraction, "in [0, 1)")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.task_head not in (BINARY, REGRESSION):
            raise ConfigError(f"unknown task head {self.task_head!r}")

    @property
    def n_outputs(self) -> int:
        return 2 if self.task_head == BINARY else 1


def paper_scale(**overrides) -> ModelConfig:
    return ModelConfig(**overrides)


def toy_scale(**overrides) -> ModelConfig:
    base = dict(n_layers=2, n_heads=2, d_model=64, d_ff=128, max_seq_len=32,
                vocab_size=1000, dropout=0.1, lstm_units=16, d_proj=32)
    base.update(overrides)
    return ModelConfig(**base)


@dataclass
class TrainConfig:
    batch_size: int = 10
    epochs: int = 5
    learning_rate: float = 2e-5
    adam_eps: float = 1e-6
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 42
    grad_clip_norm: float | None = None
    max_steps: int | None = None       # cap for step-budgeted runs; None = epochs only
    freeze_encoder: bool = False

    def __post_init__(self):
        _require_int(self, "batch_size")
        _require_int(self, "epochs")
        if self.max_steps is not None:
            _require_int(self, "max_steps")
        _require_int(self, "seed", 0)
        for name in ("learning_rate", "adam_eps"):
            _require_number(self, name, lambda v: v > 0, "> 0")
        # None turns clipping off; a ceiling <= 0 would flip or zero every gradient
        if self.grad_clip_norm is not None:
            _require_number(self, "grad_clip_norm", lambda v: v > 0, "> 0")
        _require_number(self, "weight_decay", lambda v: v >= 0, ">= 0")
        for name in ("beta1", "beta2"):
            _require_number(self, name, _fraction, "in [0, 1)")
        if not isinstance(self.freeze_encoder, bool):
            raise ConfigError(f"freeze_encoder must be true or false, "
                              f"got {self.freeze_encoder!r}")
