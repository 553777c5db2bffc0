"""Whole-model gradient verification.

Builds a tiny model whose combined loss (classification + masked-LM) touches
every parameter tensor, then compares backward-pass gradients against central
finite differences on sampled coordinates. Dropout stays off: the check
needs a deterministic loss surface. The batch comes from the trainers' own
builders, `pad_batch` and `collate_mlm` (on a fixed `MaskingOutcome`, not a
draw), so the check follows their layout.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .bpe import CLS_ID, MASK_ID, N_SPECIALS, SEP_ID, pad_batch
from .config import ModelConfig
from .encoder import MaskingOutcome, collate_mlm, mlm_forward
from .rcnn import full_forward, init_model_params

TINY = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq_len=8,
                   vocab_size=280, dropout=0.0, lstm_units=3, d_proj=4)


def _tiny_batch(rng):
    """Three texts, two of one length and padded, masked at rows 2, 7 and 12."""
    seqs = [np.array([CLS_ID, *rng.integers(N_SPECIALS, TINY.vocab_size, size=n), SEP_ID])
            for n in (4, 2, 2)]
    ids, mask = pad_batch(seqs)
    rows = np.array([2, 7, 12])
    masked = MaskingOutcome(rows, ids[rows], np.full(len(rows), MASK_ID))
    return ids, mask, np.array([0, 1, 1], dtype=np.int64), collate_mlm(seqs, masked)


def check_full_model(seed: int) -> float:
    """Max relative error over two sampled coordinates of every parameter."""
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

    return ad.grad_check(build, list(params.values()), max_coords=2,
                         rng=np.random.default_rng(seed + 7919))


def run_suite(n_seeds: int) -> float:
    """Worst error over seeds 0..n_seeds-1; NaN if any seed gives NaN."""
    return float(np.max([check_full_model(seed) for seed in range(n_seeds)]))
