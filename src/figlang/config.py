"""Architecture and optimization hyperparameter dataclasses.

`paper_scale()` carries the published recipe (12 layers, 12 heads, 64 LSTM
units, dropout 0.1, batch 10, 5 epochs, lr 2e-5, eps 1e-6, weight decay
1e-5); `toy_scale()` is the desk-size preset the test suite trains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

BINARY = "binary"
REGRESSION = "regression"

SCORE_MIN = -5.0
SCORE_MAX = 5.0


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
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.task_head not in (BINARY, REGRESSION):
            raise ConfigError(f"unknown task head {self.task_head!r}")
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2, got {self.max_seq_len}")

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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be positive, got {self.max_steps}")
