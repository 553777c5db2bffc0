"""Encoder stack: shapes, padding invariance, attention normalization,
multi-head consistency, dynamic masking statistics, and the MLM objective."""

import numpy as np
import pytest

from figlang import autodiff as ad
from figlang.autodiff import Tensor, backward
from figlang.bpe import CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID, encode
from figlang.config import ModelConfig, toy_scale
from figlang.encoder import (MASK_RATE, _mask_count, collate_mlm, dynamic_mask,
                             encoder_forward, init_encoder_params, mlm_forward)
from figlang.errors import ConfigError, ContractError, MaskingError

V = 300


def tiny_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=16, d_ff=32, max_seq_len=12,
                vocab_size=V, dropout=0.0, lstm_units=4, d_proj=8)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(rng, cfg, lengths):
    B, T = len(lengths), max(lengths) + 2
    ids = np.full((B, T), PAD_ID, dtype=np.int64)
    mask = np.zeros((B, T), dtype=bool)
    for b, n in enumerate(lengths):
        ids[b, 0] = CLS_ID
        ids[b, 1:1 + n] = rng.integers(N_SPECIALS, cfg.vocab_size, size=n)
        ids[b, 1 + n] = SEP_ID
        mask[b, :n + 2] = True
    return ids, mask


def test_output_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [5, 3, 7])
    h = encoder_forward(params, cfg, ids, mask)
    assert h.shape == (3, 9, cfg.d_model)


def test_too_long_sequence_rejected():
    cfg = tiny_cfg(max_seq_len=6)
    rng = np.random.default_rng(0)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [8])
    with pytest.raises(ConfigError):
        encoder_forward(params, cfg, ids, mask)


def test_init_is_deterministic():
    cfg = tiny_cfg()
    a = init_encoder_params(cfg, np.random.default_rng(3))
    b = init_encoder_params(cfg, np.random.default_rng(3))
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_padding_invariance_per_layer():
    cfg = tiny_cfg()
    rng = np.random.default_rng(1)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [7, 4])
    mutated = ids.copy()
    mutated[~mask] = rng.integers(N_SPECIALS, V, size=(~mask).sum())

    layers_a, layers_b = [], []
    encoder_forward(params, cfg, ids, mask, collect_hidden=layers_a)
    encoder_forward(params, cfg, mutated, mask, collect_hidden=layers_b)
    assert len(layers_a) == cfg.n_layers
    for la, lb in zip(layers_a, layers_b):
        diff = np.abs(la.data - lb.data)[mask]
        assert diff.max() < 1e-9


def test_attention_rows_sum_to_one_and_pads_get_zero():
    cfg = tiny_cfg()
    rng = np.random.default_rng(2)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [6, 2, 4])
    probs = []
    encoder_forward(params, cfg, ids, mask, collect_attn=probs)
    assert len(probs) == cfg.n_layers
    for p in probs:
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-9)
        # masked keys carry exactly zero attention
        for b in range(len(mask)):
            if (~mask[b]).any():
                assert p.data[b][:, :, ~mask[b]].max() == 0.0


def test_batch_permutation_consistency():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [5, 3, 6])
    perm = np.array([2, 0, 1])
    h = encoder_forward(params, cfg, ids, mask).data
    hp = encoder_forward(params, cfg, ids[perm], mask[perm]).data
    np.testing.assert_array_equal(h[perm], hp)


def test_multihead_equals_per_head_bruteforce():
    # d_model=8, n_heads=2: compute each head by hand from the same weights,
    # concat, project, compare to the module's attention output
    cfg = tiny_cfg(n_layers=1, n_heads=2, d_model=8, d_ff=16)
    rng = np.random.default_rng(5)
    params = init_encoder_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [4, 6])
    B, T = ids.shape

    tok = params["embed.token.weight"].data[ids]
    pos = params["embed.position.weight"].data[:T]
    h = tok + pos

    def lin(name):
        return h @ params[f"layer0.attn.{name}.weight"].data + params[f"layer0.attn.{name}.bias"].data

    q, k, v = lin("q"), lin("k"), lin("v")
    dk = 4
    outs = []
    for head in range(2):
        sl = slice(head * dk, (head + 1) * dk)
        ctx = np.zeros((B, T, dk))
        for b in range(B):
            scores = q[b][:, sl] @ k[b][:, sl].T / np.sqrt(dk)
            scores[:, ~mask[b]] = -np.inf
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            ctx[b] = p @ v[b][:, sl]
        outs.append(ctx)
    want = np.concatenate(outs, axis=-1) @ params["layer0.attn.o.weight"].data \
        + params["layer0.attn.o.bias"].data

    from figlang.encoder import _attention
    key_bias = Tensor(np.where(mask, 0.0, ad.MASK_BIAS)[:, None, None, :])
    got = _attention(params, 0, Tensor(h), key_bias, cfg).data
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# dynamic masking


def content_seq(rng, n_content, T=None):
    T = T or (n_content + 2)
    ids = np.full(T, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + n_content] = rng.integers(N_SPECIALS, V, size=n_content)
    ids[1 + n_content] = SEP_ID
    return ids[:n_content + 2]


@pytest.mark.parametrize("n,want", [(1, 1), (3, 1), (6, 1), (7, 1),
                                    (10, 2), (20, 3), (30, 5), (100, 15)])
def test_mask_count_rounding(n, want):
    # nearest with halves up, floored at one position
    assert _mask_count(n) == want


def test_mask_rate_constant():
    assert MASK_RATE == 0.15


def test_dynamic_mask_basics():
    rng = np.random.default_rng(0)
    seq = content_seq(rng, 20, T=32)
    out = dynamic_mask(seq, rng, V)
    assert len(out.positions) == 3
    assert all(1 <= p <= 20 for p in out.positions)
    assert len(set(out.positions)) == 3
    for pos, orig, repl, cat in zip(out.positions, out.original_ids,
                                    out.replacement_ids, out.categories):
        assert orig == seq[pos]
        if cat == "mask":
            assert repl == MASK_ID
        elif cat == "random":
            assert repl >= N_SPECIALS
        else:
            assert cat == "unchanged" and repl == orig


def test_dynamic_mask_category_split():
    rng = np.random.default_rng(1)
    seq = content_seq(rng, 50, T=64)
    cats = {"mask": 0, "random": 0, "unchanged": 0}
    total = 0
    for _ in range(3000):
        out = dynamic_mask(seq, rng, V)
        for c in out.categories:
            cats[c] += 1
            total += 1
    assert abs(cats["mask"] / total - 0.8) < 0.02
    assert abs(cats["random"] / total - 0.1) < 0.02
    assert abs(cats["unchanged"] / total - 0.1) < 0.02


def test_dynamic_mask_never_touches_specials():
    rng = np.random.default_rng(2)
    seq = content_seq(rng, 5, T=12)
    for _ in range(2000):
        out = dynamic_mask(seq, rng, V)
        assert all(1 <= p <= 5 for p in out.positions)


def test_dynamic_mask_contentless_rejected():
    rng = np.random.default_rng(3)
    seq = content_seq(rng, 0)
    with pytest.raises(MaskingError):
        dynamic_mask(seq, rng, V)


def test_masks_differ_across_draws():
    rng = np.random.default_rng(4)
    seq = content_seq(rng, 20, T=24)
    a = [tuple(dynamic_mask(seq, rng, V).positions) for _ in range(500)]
    b = [tuple(dynamic_mask(seq, rng, V).positions) for _ in range(500)]
    differ = sum(x != y for x, y in zip(a, b))
    assert differ / 500 > 0.99


# ---------------------------------------------------------------------------
# masked-LM objective


def mlm_batch_for(cfg, rng, lengths):
    seqs = [content_seq(rng, n, T=cfg.max_seq_len) for n in lengths]
    outs = [dynamic_mask(s, rng, cfg.vocab_size) for s in seqs]
    return seqs, outs, collate_mlm(seqs, outs)


def test_collate_applies_replacements():
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    seqs, outs, batch = mlm_batch_for(cfg, rng, [8, 5])
    T = batch.ids.shape[1]
    k = 0
    for b, (seq, out) in enumerate(zip(seqs, outs)):
        for pos, orig, repl in zip(out.positions, out.original_ids,
                                   out.replacement_ids):
            flat = b * T + pos
            assert batch.flat_positions[k] == flat
            assert batch.targets[k] == orig
            assert batch.ids[b, pos] == repl
            k += 1
    # everything off the masked positions is untouched
    for b, (seq, out) in enumerate(zip(seqs, outs)):
        keep = np.ones(len(seq), dtype=bool)
        keep[list(out.positions)] = False
        np.testing.assert_array_equal(batch.ids[b, :len(seq)][keep], seq[keep])


def test_mlm_batch_padding_matches_max_seq_len_padding():
    # collate_mlm pads to the longest sequence in the batch; the loss and
    # logits equal those of the same batch padded to max_seq_len by hand
    from figlang.encoder import MlmBatch
    cfg = tiny_cfg()
    rng = np.random.default_rng(9)
    params = init_encoder_params(cfg, rng)
    seqs, outs, batch = mlm_batch_for(cfg, rng, [6, 3, 5])
    T = cfg.max_seq_len
    assert batch.ids.shape[1] == 8 < T
    ids = np.full((len(seqs), T), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), T), dtype=bool)
    flat = []
    for b, (seq, out) in enumerate(zip(seqs, outs)):
        ids[b, :len(seq)] = seq
        ids[b, out.positions] = out.replacement_ids
        mask[b, :len(seq)] = True
        flat.extend(b * T + out.positions)
    ref = MlmBatch(ids=ids, mask=mask, flat_positions=np.array(flat, dtype=np.int64),
                   targets=batch.targets)
    got_logits, got = mlm_forward(params, cfg, batch)
    want_logits, want = mlm_forward(params, cfg, ref)
    np.testing.assert_allclose(got_logits.data, want_logits.data, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.item(), want.item(), rtol=1e-12, atol=0)


def test_mlm_initial_loss_near_log_vocab():
    cfg = tiny_cfg()
    rng = np.random.default_rng(6)
    params = init_encoder_params(cfg, rng)
    _, _, batch = mlm_batch_for(cfg, rng, [9, 9, 9, 9])
    logits, loss = mlm_forward(params, cfg, batch)
    assert logits.shape[0] == len(batch.targets)
    assert logits.shape[1] == cfg.vocab_size
    lnv = np.log(cfg.vocab_size)
    assert abs(loss.item() - lnv) / lnv < 0.10


def test_mlm_grads_ignore_pad_slots():
    # pad positions contribute nothing to any gradient: overwriting the ids
    # parked there must leave every parameter grad bit-identical. (The token
    # table itself still gets grad at every row through the tied projection.)
    cfg = tiny_cfg()
    rng = np.random.default_rng(7)
    params = init_encoder_params(cfg, rng)
    seqs, outs, batch = mlm_batch_for(cfg, rng, [6, 3])
    _, loss = mlm_forward(params, cfg, batch)
    backward(loss)
    assert np.abs(params["embed.token.weight"].grad).sum() > 0
    grads = {k: t.grad.copy() for k, t in params.items()}
    ad.zero_grads(params.values())

    junk = batch.ids.copy()
    junk[~batch.mask] = rng.integers(N_SPECIALS, V, size=(~batch.mask).sum())
    from figlang.encoder import MlmBatch
    batch2 = MlmBatch(ids=junk, mask=batch.mask,
                      flat_positions=batch.flat_positions, targets=batch.targets)
    _, loss2 = mlm_forward(params, cfg, batch2)
    assert loss2.item() == loss.item()
    backward(loss2)
    for k, t in params.items():
        np.testing.assert_array_equal(t.grad, grads[k])

    # unused tail of the position table stays untouched
    assert np.abs(grads["embed.position.weight"][8:]).max() == 0.0


def test_mlm_overfits_single_sentence():
    # repeated dynamic masking of one sentence: 500 steps must pin every
    # masked token exactly
    from figlang.config import TrainConfig
    from figlang.training import pretrain_mlm
    from figlang.bpe import bpe_train

    lines = ["the cat sees the ball ."]
    tok = bpe_train(lines * 3, 280)
    cfg = toy_scale(vocab_size=tok.size, max_seq_len=16, dropout=0.0,
                    n_layers=1, d_model=32, n_heads=2, d_ff=64)
    tc = TrainConfig(batch_size=1, epochs=500, learning_rate=1e-3, seed=0)
    params, log = pretrain_mlm(lines, tok, cfg, tc)
    assert len(log.records) == 500

    rng = np.random.default_rng(11)
    seq = encode(tok, lines[0], cfg.max_seq_len)
    hits = total = 0
    for _ in range(20):
        out = dynamic_mask(seq, rng, tok.size)
        batch = collate_mlm([seq], [out])
        logits, _ = mlm_forward(params, cfg, batch)
        pred = logits.data.argmax(axis=1)
        hits += (pred == batch.targets).sum()
        total += len(batch.targets)
    assert hits == total


def test_mlm_requires_masked_positions():
    cfg = tiny_cfg()
    rng = np.random.default_rng(8)
    params = init_encoder_params(cfg, rng)
    seqs = [content_seq(rng, 4, T=cfg.max_seq_len)]
    from figlang.encoder import MlmBatch
    empty = MlmBatch(ids=np.stack([seqs[0]]), mask=np.ones((1, len(seqs[0])), dtype=bool),
                     flat_positions=np.array([], dtype=np.int64),
                     targets=np.array([], dtype=np.int64))
    with pytest.raises(ContractError):
        mlm_forward(params, cfg, empty)
