"""Whole-model gradient verification.

Builds a tiny model whose combined loss (classification + masked-LM) touches
every parameter tensor, then compares backward-pass gradients against central
finite differences on sampled coordinates. Dropout stays off: the check
needs a deterministic loss surface.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .bpe import CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID
from .config import ModelConfig
from .encoder import MlmBatch, mlm_forward
from .rcnn import full_forward, init_model_params

TINY = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq_len=8,
                   vocab_size=280, dropout=0.0, lstm_units=3, d_proj=4)


def _tiny_batch(rng):
    """Two rows, one padded, with two masked-LM targets."""
    T = 6
    ids = np.full((2, T), PAD_ID, dtype=np.int64)
    ids[0, 0] = ids[1, 0] = CLS_ID
    ids[0, 1:5] = rng.integers(N_SPECIALS, TINY.vocab_size, size=4)
    ids[0, 5] = SEP_ID
    ids[1, 1:3] = rng.integers(N_SPECIALS, TINY.vocab_size, size=2)
    ids[1, 3] = SEP_ID
    mask = np.array([[True] * 6, [True] * 4 + [False] * 2])

    flat_positions = np.array([2, T + 1], dtype=np.int64)
    targets = np.array([ids[0, 2], ids[1, 1]], dtype=np.int64)
    ids_masked = ids.copy()
    ids_masked[0, 2] = MASK_ID
    ids_masked[1, 1] = MASK_ID
    mlm = MlmBatch(ids=ids_masked, mask=mask,
                   flat_positions=flat_positions, targets=targets)
    labels = np.array([0, 1], dtype=np.int64)
    return ids, mask, labels, mlm


def check_full_model(seed: int, *, coords_per_tensor: int = 2, h: float = 1e-5) -> float:
    """Max relative error over sampled coordinates of every parameter."""
    rng = np.random.default_rng(seed)
    params = init_model_params(TINY, rng)
    # production init (std 0.02) leaves the query/key path with ~1e-9
    # gradients, below what central differences at h=1e-5 can resolve on a
    # ~6.0 loss; the check needs a well-conditioned point, so re-draw
    for t in params.values():
        t.data = rng.normal(0.0, 0.3, size=t.shape)
    ids, mask, labels, mlm = _tiny_batch(rng)

    def build():
        logits = full_forward(params, TINY, ids, mask)
        cls_loss = ad.cross_entropy(logits, labels)
        _, mlm_loss = mlm_forward(params, TINY, mlm)
        return ad.add(cls_loss, mlm_loss)

    return ad.grad_check(build, list(params.values()), h=h,
                         max_coords=coords_per_tensor,
                         rng=np.random.default_rng(seed + 7919))


def run_suite(n_seeds: int = 20, *, coords_per_tensor: int = 2) -> float:
    worst = 0.0
    for seed in range(n_seeds):
        worst = max(worst, check_full_model(seed, coords_per_tensor=coords_per_tensor))
    return worst
