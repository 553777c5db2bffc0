"""Optimization and training: masked-LM pretraining and task fine-tuning.

These two and `nbsvm.nbsvm_train` run one step loop, `_fit` (shuffle,
`max_steps` cap, finite-loss check, Adam step, log); each trainer only
prepares its data and parameters and hands `_fit` a closure from a batch of
example indices to its loss.

Adam uses decoupled weight decay: the decay term is added to the update
after the moment step, never folded into the gradient. Only `.weight`
tensors are decayed, never biases or layer-norm gains. All randomness flows
from one seed through named sub-streams so reruns are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, zero_grads
from .bpe import TokenizerModel, encode, pad_batch
from .config import BINARY, ModelConfig, TrainConfig
from .encoder import collate_mlm, dynamic_mask, mlm_forward
from .errors import ConfigError, DataError, NumericError
from .rcnn import full_forward, head_param_shapes, init_model_params

STREAMS = ("init", "shuffle", "mask", "dropout")


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent named generators derived from one seed. Consumption in one
    stream never perturbs another."""
    return {name: np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i, name in enumerate(STREAMS)}


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, cfg: TrainConfig) -> None:
    """One update over every parameter that has a gradient."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    lr, eps, wd = cfg.learning_rate, cfg.adam_eps, cfg.weight_decay
    for name, p in params.items():
        if p.grad is None or not p.requires_grad:
            continue
        g = p.grad
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        if wd and name.endswith(".weight"):
            update = update + lr * wd * p.data
        p.data -= update


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.
    Returns the pre-clip norm. A non-finite norm is a NumericError: scaling
    by max_norm / inf would zero gradients whose squared sum overflowed."""
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None and p.requires_grad]
    for g in grads:
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericError(f"non-finite gradient norm: {norm!r}")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def _optim_step(params, state, cfg: TrainConfig, loss: Tensor) -> float:
    val = loss.item()
    if not np.isfinite(val):
        raise NumericError(f"non-finite training loss: {val!r}")
    backward(loss)
    if cfg.grad_clip_norm is not None:
        clip_grad_norm(params, cfg.grad_clip_norm)
    adam_step(params, state, cfg)
    zero_grads(params.values())
    return val


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle; the trailing partial batch is kept."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _fit(params, n: int, batch_loss, cfg: TrainConfig, shuffle: np.random.Generator,
         log: TrainLog) -> None:
    """One Adam step and one `log.add` per batch of the n examples, over
    `cfg.epochs` seeded shuffles or until `cfg.max_steps`. The loss goes
    straight into the step, so no local keeps its graph alive into the next
    forward. The log is closed however the loop ends. numpy's overflow and
    invalid-value warnings are off in the loop: the finite checks report a
    diverging run, once."""
    state = AdamState()
    batches = ((epoch, idx) for epoch in range(cfg.epochs)
               for idx in _batches(n, cfg.batch_size, shuffle))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step, (epoch, idx) in enumerate(batches, start=1):
                log.add(step, epoch, _optim_step(params, state, cfg, batch_loss(idx)))
                if cfg.max_steps is not None and step >= cfg.max_steps:
                    break
    finally:
        log.close()


class TrainLog:
    """Collects {"step", "epoch", "loss"} records; optionally mirrors them to
    a JSONL file."""

    def __init__(self, path=None):
        self.records: list[dict] = []
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def add(self, step: int, epoch: int, loss: float) -> None:
        rec = {"step": step, "epoch": epoch, "loss": loss}
        self.records.append(rec)
        if self._fh:
            self._fh.write(json.dumps(rec) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


def _check_vocab(tokenizer: TokenizerModel, cfg: ModelConfig) -> None:
    if tokenizer.size != cfg.vocab_size:
        raise DataError(f"tokenizer has {tokenizer.size} ids but the model "
                        f"expects vocab_size={cfg.vocab_size}")


def pretrain_mlm(lines: list[str], tokenizer: TokenizerModel, model_cfg: ModelConfig,
                 train_cfg: TrainConfig, *, params: dict[str, Tensor] | None = None,
                 log: TrainLog | None = None):
    """Masked-LM pretraining over raw lines. Masks are resampled every epoch.

    Returns (params, log). Lines that tokenize to zero content tokens are
    skipped (nothing to mask).
    """
    if train_cfg.freeze_encoder:
        raise ConfigError("freeze_encoder applies to finetuning only: pretraining "
                          "trains the encoder")
    _check_vocab(tokenizer, model_cfg)
    streams = rng_streams(train_cfg.seed)
    seqs = [encode(tokenizer, line, model_cfg.max_seq_len) for line in lines]
    seqs = [s for s in seqs if len(s) > 2]
    if not seqs:
        raise DataError("pretraining corpus has no usable lines")

    if params is None:
        params = init_model_params(model_cfg, streams["init"])

    def batch_loss(idx):
        batch_seqs = [seqs[i] for i in idx]
        outcome = dynamic_mask(batch_seqs, streams["mask"], model_cfg.vocab_size)
        return mlm_forward(params, model_cfg, collate_mlm(batch_seqs, outcome),
                           rng=streams["dropout"])[1]

    log = log or TrainLog()
    _fit(params, len(seqs), batch_loss, train_cfg, streams["shuffle"], log)
    return params, log


def finetune(examples, tokenizer: TokenizerModel, model_cfg: ModelConfig,
             train_cfg: TrainConfig, *, params: dict[str, Tensor] | None = None,
             log: TrainLog | None = None):
    """Supervised training of the full stack (or the head alone when
    train_cfg.freeze_encoder is set). Returns (params, log)."""
    _check_vocab(tokenizer, model_cfg)
    if not examples:
        raise DataError("empty training set")
    streams = rng_streams(train_cfg.seed)
    if params is None:
        params = init_model_params(model_cfg, streams["init"])
    forward_params = params
    if train_cfg.freeze_encoder:
        # the encoder runs on untracked tensors that share its arrays: no
        # gradient reaches it, and the caller's tensors keep their flags
        head = head_param_shapes(model_cfg)
        forward_params = {name: p if name in head else Tensor(p.data)
                          for name, p in params.items()}

    task = model_cfg.task_head
    seqs = [encode(tokenizer, ex.text, model_cfg.max_seq_len) for ex in examples]
    targets = np.asarray([ex.target for ex in examples],
                         dtype=np.int64 if task == BINARY else np.float64)

    def batch_loss(idx):
        ids, mask = pad_batch([seqs[i] for i in idx])
        out = full_forward(forward_params, model_cfg, ids, mask, rng=streams["dropout"])
        if task == BINARY:
            return ad.cross_entropy(out, targets[idx])
        return ad.mse_loss(out, targets[idx, None])

    log = log or TrainLog()
    _fit(params, len(examples), batch_loss, train_cfg, streams["shuffle"], log)
    return params, log
