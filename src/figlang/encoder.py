"""Transformer encoder with a tied-projection masked-language-model head.

Post-norm blocks: self-attention -> residual -> layer norm -> GELU
feed-forward -> residual -> layer norm. The self-attention is one fused
`autodiff.attention` node between two `autodiff.linear` nodes (the q/k/v
projection, on one (d, 3d) q | k | v weight, and the output projection),
and the feed-forward two `linear` nodes, the first with its GELU. A batch is
the (N,) real-token ids and (B, T) padding mask of `bpe.pad_batch`; the
hidden states, output included, are the (N, d_model) rows of those tokens
(`x[mask]`, row-major), so every position-wise op runs on real tokens only.
Attention scores each text over its own rows, in one unpadded block per
text length, so padding can never leak into a real token's state. Given
`rows`, the output is those rows alone, and the last layer runs everything
after its attention on them only: MLM pretraining reads just the masked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import MASK_ID, N_SPECIALS, pad_batch
from .config import ModelConfig
from .errors import ConfigError, ContractError, MaskingError, ShapeError

MASK_RATE = 0.15


def encoder_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in initialization order
    (`rcnn.init_params` draws them)."""
    d = cfg.d_model
    shapes = {"embed.token.weight": (cfg.vocab_size, d),
              "embed.position.weight": (cfg.max_seq_len, d)}
    for i in range(cfg.n_layers):
        shapes[f"layer{i}.attn.qkv.weight"] = (d, 3 * d)
        shapes[f"layer{i}.attn.qkv.bias"] = (3 * d,)
        shapes[f"layer{i}.attn.o.weight"] = (d, d)
        shapes[f"layer{i}.attn.o.bias"] = (d,)
        shapes[f"layer{i}.ln1.gain"] = (d,)
        shapes[f"layer{i}.ln1.bias"] = (d,)
        shapes[f"layer{i}.ff.fc1.weight"] = (d, cfg.d_ff)
        shapes[f"layer{i}.ff.fc1.bias"] = (cfg.d_ff,)
        shapes[f"layer{i}.ff.fc2.weight"] = (cfg.d_ff, d)
        shapes[f"layer{i}.ff.fc2.bias"] = (d,)
        shapes[f"layer{i}.ln2.gain"] = (d,)
        shapes[f"layer{i}.ln2.bias"] = (d,)
    shapes["mlm.bias"] = (cfg.vocab_size,)
    return shapes


def _attention(p, i, h, mask, cfg, rows=None):
    """Layer i's self-attention: q | k | v from one `linear` node on the
    layer's (d, 3d) `qkv` weight, `ad.attention`, then the output `linear`.
    With `rows`, the context is gathered at those rows first, so the output
    projection runs on them alone; keys and values still come from every
    row."""
    qkv = ad.linear(h, p[f"layer{i}.attn.qkv.weight"], p[f"layer{i}.attn.qkv.bias"])
    ctx = ad.attention(qkv, mask, cfg.n_heads)
    if rows is not None:
        ctx = ad.gather_rows(ctx, rows)
    return ad.linear(ctx, p[f"layer{i}.attn.o.weight"], p[f"layer{i}.attn.o.bias"])


def encoder_forward(params, cfg: ModelConfig, ids, attn_mask, *, rng=None,
                    rows=None) -> Tensor:
    """The (N, d_model) rows of the (N,) real-token `ids` of the (B, T)
    mask `attn_mask`, both as `bpe.pad_batch` returns them; with `rows`,
    indices into those N rows, only the (R, d_model) rows at `rows`.

    Every op of the last layer after its attention is row-wise, so with
    `rows` it runs on the R rows alone: the attention context and the
    residual input are gathered there before the output projection.

    Dropout at `cfg.dropout` runs exactly when a generator `rng` is passed:
    one (N, d_model) draw after the embedding and two per layer, the last
    layer's two (R, d_model) with `rows`.
    """
    ids = np.asarray(ids, dtype=np.int64)
    attn_mask = np.asarray(attn_mask, dtype=bool)
    if attn_mask.ndim != 2 or ids.shape != (attn_mask.sum(),):
        raise ShapeError(f"encoder ids {ids.shape} are not the real tokens of a (B, T) "
                         f"mask, got a mask of shape {attn_mask.shape}")
    T = attn_mask.shape[1]
    if T > cfg.max_seq_len:
        raise ConfigError(f"sequence length {T} exceeds max_seq_len {cfg.max_seq_len}")

    tok = ad.embedding(params["embed.token.weight"], ids)
    pos = ad.embedding(params["embed.position.weight"], np.nonzero(attn_mask)[1])
    h = ad.dropout(ad.add(tok, pos), cfg.dropout, rng)
    for i in range(cfg.n_layers):
        at = rows if i == cfg.n_layers - 1 else None
        a = ad.dropout(_attention(params, i, h, attn_mask, cfg, at), cfg.dropout, rng)
        if at is not None:
            h = ad.gather_rows(h, at)
        h = ad.layer_norm(ad.add(h, a), params[f"layer{i}.ln1.gain"], params[f"layer{i}.ln1.bias"])
        f = ad.linear(h, params[f"layer{i}.ff.fc1.weight"], params[f"layer{i}.ff.fc1.bias"],
                      gelu=True)
        f = ad.dropout(ad.linear(f, params[f"layer{i}.ff.fc2.weight"],
                                 params[f"layer{i}.ff.fc2.bias"]), cfg.dropout, rng)
        h = ad.layer_norm(ad.add(h, f), params[f"layer{i}.ln2.gain"], params[f"layer{i}.ln2.bias"])
    return h


# ---------------------------------------------------------------------------
# dynamic masking


@dataclass
class MaskingOutcome:
    """One fresh masking draw: where, what was there, what replaced it."""

    positions: np.ndarray        # sorted indices into the sequence
    original_ids: np.ndarray
    replacement_ids: np.ndarray
    categories: list[str]        # "mask" | "random" | "unchanged", parallel


def _mask_count(n_content: int) -> int:
    # Half-up rounding of the 15% rate, at least one position.
    return max(1, int(np.floor(MASK_RATE * n_content + 0.5)))


def dynamic_mask(seq: np.ndarray, rng: np.random.Generator,
                 vocab_size: int) -> MaskingOutcome:
    """Sample a fresh mask over `encode` ids: 80% mask token, 10% random, 10% unchanged.

    Only content positions are candidates; cls/sep are never masked.
    """
    n_content = len(seq) - 2
    if n_content < 1:
        raise MaskingError("sequence has no maskable content position")
    candidates = np.arange(1, len(seq) - 1)
    count = _mask_count(n_content)
    positions = np.sort(rng.choice(candidates, size=count, replace=False))
    original = seq[positions].copy()
    replacement = original.copy()
    categories = []
    for j in range(count):
        roll = rng.random()
        if roll < 0.8:
            replacement[j] = MASK_ID
            categories.append("mask")
        elif roll < 0.9:
            replacement[j] = int(rng.integers(N_SPECIALS, vocab_size))
            categories.append("random")
        else:
            categories.append("unchanged")
    return MaskingOutcome(positions=positions, original_ids=original,
                          replacement_ids=replacement, categories=categories)


@dataclass
class MlmBatch:
    ids: np.ndarray         # (N,) real-token ids with replacements applied
    mask: np.ndarray        # (B, T) padding mask
    rows: np.ndarray        # masked positions as indices into the N rows
    targets: np.ndarray     # original ids at the masked positions


def collate_mlm(sequences: list[np.ndarray],
                outcomes: list[MaskingOutcome]) -> MlmBatch:
    """`pad_batch` of the sequences, each outcome's replacements written at
    its rows: its positions offset by its sequence's first row."""
    ids, mask = pad_batch(sequences)
    starts = np.cumsum([0] + [len(s) for s in sequences[:-1]])
    rows = np.concatenate([start + o.positions for start, o in zip(starts, outcomes)])
    ids[rows] = np.concatenate([o.replacement_ids for o in outcomes])
    return MlmBatch(ids=ids, mask=mask, rows=rows,
                    targets=np.concatenate([o.original_ids for o in outcomes]))


def mlm_forward(params, cfg: ModelConfig, batch: MlmBatch, *,
                rng=None) -> tuple[Tensor, Tensor]:
    """Logits at masked positions plus cross-entropy over those positions.

    The encoder returns the masked rows alone (`encoder_forward`'s `rows`),
    so its last layer after attention and the output projection, which is
    tied to the token embedding matrix, run only where the loss reads.
    """
    if batch.rows.size == 0:
        raise ContractError("mlm_forward requires at least one masked position in the batch")
    h = encoder_forward(params, cfg, batch.ids, batch.mask, rng=rng, rows=batch.rows)
    logits = ad.linear(h, ad.swap_axes(params["embed.token.weight"], 0, 1),
                       params["mlm.bias"])
    loss = ad.cross_entropy(logits, batch.targets)
    return logits, loss
