"""Encoder stack: shapes, padding invariance, attention normalization,
multi-head consistency, dynamic masking statistics, and the MLM objective."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from figlang import autodiff as ad
from figlang.autodiff import Tensor, backward
from figlang.bpe import CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID, encode, pad_batch
from figlang.config import ModelConfig, toy_scale
from figlang.encoder import (MASK_RATE, _attention, _mask_count, collate_mlm, dynamic_mask,
                             encoder_forward, encoder_param_shapes, mlm_forward)
from figlang.errors import ConfigError, ContractError, MaskingError, ShapeError
from figlang.rcnn import init_params

V = 300


def tiny_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=16, d_ff=32, max_seq_len=12,
                vocab_size=V, dropout=0.0, lstm_units=4, d_proj=8)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(rng, cfg, lengths):
    """`pad_batch` of random texts with `lengths` content tokens: (N,) ids
    and the (B, T) mask, T the longest text."""
    return pad_batch([np.array([CLS_ID, *rng.integers(N_SPECIALS, cfg.vocab_size, size=n),
                                SEP_ID]) for n in lengths])


def widen(mask, T):
    """`mask` with all-False columns appended out to width T: the same
    texts, padded further."""
    return np.pad(mask, ((0, 0), (0, T - mask.shape[1])))


def test_output_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [5, 3, 7])
    h = encoder_forward(params, cfg, ids, mask)
    assert h.shape == (mask.sum(), cfg.d_model)


def test_too_long_sequence_rejected():
    cfg = tiny_cfg(max_seq_len=6)
    rng = np.random.default_rng(0)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [8])
    with pytest.raises(ConfigError):
        encoder_forward(params, cfg, ids, mask)


def test_mask_must_match_ids():
    # ids are the (N,) real tokens of the mask: a narrower mask, a padded
    # (B, T) id matrix, or one id too few or too many is a shape error
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [5, 3])
    padded = np.zeros(mask.shape, dtype=np.int64)
    padded[mask] = ids
    for bad_ids, bad_mask in ((ids, mask[:, :-1]), (padded, mask), (ids[:-1], mask),
                              (np.append(ids, SEP_ID), mask)):
        with pytest.raises(ShapeError, match="not the real tokens"):
            encoder_forward(params, cfg, bad_ids, bad_mask)


def test_init_is_deterministic():
    cfg = tiny_cfg()
    a = init_params(encoder_param_shapes(cfg), np.random.default_rng(3))
    b = init_params(encoder_param_shapes(cfg), np.random.default_rng(3))
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def _layers(params, cfg, ids, mask, rng_seed=None):
    """Each layer's output, from encoder forwards cut after that layer;
    with a generator seed, each forward draws the same dropout as a full one."""
    return [encoder_forward(params, dataclasses.replace(cfg, n_layers=i + 1), ids, mask,
                            rng=None if rng_seed is None else np.random.default_rng(rng_seed))
            for i in range(cfg.n_layers)]


def test_padding_invariance_per_layer():
    cfg = tiny_cfg()
    rng = np.random.default_rng(1)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [7, 4])
    wide = widen(mask, cfg.max_seq_len)

    for la, lb in zip(_layers(params, cfg, ids, mask), _layers(params, cfg, ids, wide)):
        diff = np.abs(la.data - lb.data)
        assert diff.max() < 1e-9


def test_attention_rows_sum_to_one_and_pads_get_zero():
    # each layer's attention on the q and k of the rows it reads, with v = 1,
    # so every output entry is one query's weight sum; padded positions have
    # no row, so the weight is all on real tokens
    cfg = tiny_cfg()
    rng = np.random.default_rng(2)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [6, 2, 4, 2])
    inputs = [params["embed.token.weight"].data[ids]
              + params["embed.position.weight"].data[np.nonzero(mask)[1]]]
    inputs += [h.data for h in _layers(params, cfg, ids, mask)[:-1]]
    for i, h in enumerate(inputs):
        d = cfg.d_model        # q | k: the first 2d columns of the qkv projection
        qk = (h @ params[f"layer{i}.attn.qkv.weight"].data[:, :2 * d]
              + params[f"layer{i}.attn.qkv.bias"].data[:2 * d])
        sums = ad.attention(np.concatenate([qk, np.ones((len(h), d))], axis=1),
                            mask, cfg.n_heads).data
        assert sums.shape == (mask.sum(), cfg.d_model)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_batch_permutation_consistency():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    params = init_params(encoder_param_shapes(cfg), rng)
    seqs = [np.array([CLS_ID, *rng.integers(N_SPECIALS, V, size=n), SEP_ID]) for n in (5, 3, 6)]
    ids, mask = pad_batch(seqs)
    perm = np.array([2, 0, 1])
    h = encoder_forward(params, cfg, ids, mask).data
    ids_p, mask_p = pad_batch([seqs[i] for i in perm])
    np.testing.assert_array_equal(mask_p, mask[perm])
    hp = encoder_forward(params, cfg, ids_p, mask_p).data
    row_at = np.zeros(mask.shape, dtype=np.int64)
    row_at[mask] = np.arange(mask.sum())
    np.testing.assert_array_equal(h[row_at[perm][mask[perm]]], hp)


def test_multihead_equals_per_head_bruteforce():
    # d_model=8, n_heads=2: compute each head by hand from the same weights,
    # concat, project, compare to the module's attention output
    cfg = tiny_cfg(n_layers=1, n_heads=2, d_model=8, d_ff=16)
    rng = np.random.default_rng(5)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [4, 6])
    B, T = mask.shape

    h = params["embed.position.weight"].data[:T] + np.zeros((B, T, 1))
    h[mask] += params["embed.token.weight"].data[ids]

    # the qkv weight and bias hold q | k | v in their columns
    w = np.split(params["layer0.attn.qkv.weight"].data, 3, axis=1)
    b = np.split(params["layer0.attn.qkv.bias"].data, 3)
    q, k, v = (h @ w[j] + b[j] for j in range(3))
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
    got = _attention(params, 0, Tensor(h[mask]), mask, cfg).data
    np.testing.assert_allclose(got, want[mask], atol=1e-12)


def _composed_attention(params, i, h, mask, cfg):
    """Self-attention as the composed graph `ad.attention` replaced: the
    q | k | v projection sliced into q, k and v, head split, scaled scores, a
    -1e30 additive bias at masked keys, softmax, merge, output projection,
    one node per op."""
    B, T, d = h.shape
    H = cfg.n_heads
    dk = d // H

    def proj(x, name):
        return ad.add(ad.matmul(x, params[f"layer{i}.attn.{name}.weight"]),
                      params[f"layer{i}.attn.{name}.bias"])

    def heads(x):
        return ad.swap_axes(ad.reshape(x, (B, T, H, dk)), 1, 2)   # (B, H, T, dk)

    qkv = proj(h, "qkv")
    q, k, v = (heads(ad.slice_last(qkv, j * d, (j + 1) * d)) for j in range(3))
    scores = ad.mul(ad.matmul(q, ad.swap_axes(k, -1, -2)), 1.0 / np.sqrt(dk))
    key_bias = np.where(mask, 0.0, -1e30)[:, None, None, :]
    probs = ad.softmax(ad.add(scores, Tensor(key_bias)))
    ctx = ad.reshape(ad.swap_axes(ad.matmul(probs, v), 1, 2), (B, T, d))
    return proj(ctx, "o")


def _composed_pad(rows, mask):
    """The rows laid out as (B, T, d), zeros at padded positions, as a
    composed gather, mask multiply and reshape."""
    at = np.maximum(np.cumsum(mask) - 1, 0)        # a padded slot reads any row
    keep = mask.reshape(-1, 1).astype(np.float64)
    return ad.reshape(ad.mul(ad.gather_rows(rows, at), keep), mask.shape + rows.shape[1:])


def _composed_ffn(params, i, h):
    """The feed-forward block as composed matmul, add and gelu nodes."""
    f = ad.gelu(ad.add(ad.matmul(h, params[f"layer{i}.ff.fc1.weight"]),
                       params[f"layer{i}.ff.fc1.bias"]))
    return ad.add(ad.matmul(f, params[f"layer{i}.ff.fc2.weight"]),
                  params[f"layer{i}.ff.fc2.bias"])


def _fused_ffn(params, i, h):
    f = ad.linear(h, params[f"layer{i}.ff.fc1.weight"], params[f"layer{i}.ff.fc1.bias"],
                  gelu=True)
    return ad.linear(f, params[f"layer{i}.ff.fc2.weight"], params[f"layer{i}.ff.fc2.bias"])


def _parity_case(seed, prefix):
    """Unit-scale parameters (so softmax and GELU leave their linear range),
    a padded batch of texts of lengths 8, 6, 6 and 4, the second 6 with a
    hole, and the leaves whose gradients are compared."""
    cfg = tiny_cfg(n_layers=1, n_heads=2, d_model=8, d_ff=16)
    rng = np.random.default_rng(seed)
    params = init_params(encoder_param_shapes(cfg), rng)
    for t in params.values():
        t.data = rng.normal(size=t.shape)
    _, mask = make_batch(rng, cfg, [6, 4, 4, 2])
    mask[2, 2], mask[2, 6] = False, True
    h = Tensor(rng.normal(size=mask.shape + (cfg.d_model,)), requires_grad=True)
    leaves = [h] + [params[k] for k in params if k.startswith(prefix)]
    return cfg, params, mask, h, leaves


def _run(build, leaves, weight):
    ad.zero_grads(leaves)
    out = build()
    backward(ad.sum_all(ad.mul(out, weight)))
    return [out.data] + [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for t in leaves]


def _per_projection(names, arrays, d):
    """Names and arrays with each qkv tensor cut into its q, k and v column
    blocks, so each block is compared at its own scale."""
    out_names, out = [], []
    for name, a in zip(names, arrays):
        if ".attn.qkv." in name:
            for j, x in enumerate("qkv"):
                out_names.append(name.replace(".qkv.", f".{x}."))
                out.append(a[..., j * d:(j + 1) * d])
        else:
            out_names.append(name)
            out.append(a)
    return out_names, out


def _assert_close(got, want, rtol=1e-12):
    # relative to each array's largest entry: entries that cancel to ~0
    # carry only rounding, whatever their relative error
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


def test_fused_attention_matches_composed_reference():
    # the encoder's attention block (q | k | v linear, attention, output
    # linear) on the real-token rows of a batch of three lengths, one of
    # them shared by two texts, against the composed graph on the padded
    # layout read at the real rows: forward values and the gradients of the
    # rows and all four weights, the qkv ones compared per q, k and v block
    cfg, params, mask, h, leaves = _parity_case(40, "layer0.attn.")
    rows = Tensor(h.data[mask], requires_grad=True)
    leaves[0] = rows
    real = np.flatnonzero(mask)
    weight = Tensor(np.random.default_rng(41).normal(size=rows.shape))
    got = _run(lambda: _attention(params, 0, rows, mask, cfg), leaves, weight)
    want = _run(lambda: ad.gather_rows(ad.reshape(_composed_attention(
        params, 0, _composed_pad(rows, mask), mask, cfg), (mask.size, cfg.d_model)), real),
        leaves, weight)
    names = ["out", "h"] + [k for k in params if k.startswith("layer0.attn.")]
    _, got = _per_projection(names, got, cfg.d_model)
    names, want = _per_projection(names, want, cfg.d_model)
    scale = np.abs(want[names.index("layer0.attn.q.bias")]).max()
    # the key bias (columns d:2d of the qkv bias) shifts every score of a row
    # equally, which softmax ignores: its true gradient is 0 and both paths
    # return rounding noise
    for arrays in (got, want):
        assert np.abs(arrays.pop(names.index("layer0.attn.k.bias"))).max() < 1e-12 * scale
    _assert_close(got, want)


def test_fused_ffn_matches_composed_reference():
    # on the real-token rows, as the encoder runs it
    cfg, params, mask, h, leaves = _parity_case(42, "layer0.ff.")
    rows = Tensor(h.data[mask], requires_grad=True)
    leaves[0] = rows
    weight = Tensor(np.random.default_rng(43).normal(size=rows.shape))
    got = _run(lambda: _fused_ffn(params, 0, rows), leaves, weight)
    want = _run(lambda: _composed_ffn(params, 0, rows), leaves, weight)
    _assert_close(got, want)


def test_fused_encoder_matches_composed_reference():
    # a whole padded two-layer forward and every parameter gradient, against
    # the layers rebuilt from the composed reference blocks
    cfg = tiny_cfg()
    rng = np.random.default_rng(44)
    params = init_params(encoder_param_shapes(cfg), rng)
    for t in params.values():
        t.data = t.data + rng.normal(0.0, 0.3, size=t.shape)
    ids, mask = make_batch(rng, cfg, [9, 3, 6])
    # only real positions are compared: the encoder outputs their rows only
    weight = rng.normal(size=mask.shape + (cfg.d_model,)) * mask[..., None]
    leaves = list(params.values())

    def composed():
        # the token rows laid out as (B, T, d), zeros at padded positions,
        # plus the position embedding of every position
        T = mask.shape[1]
        h = ad.add(_composed_pad(ad.embedding(params["embed.token.weight"], ids), mask),
                   ad.embedding(params["embed.position.weight"], np.arange(T)))
        for i in range(cfg.n_layers):
            h = ad.layer_norm(ad.add(h, _composed_attention(params, i, h, mask, cfg)),
                              params[f"layer{i}.ln1.gain"], params[f"layer{i}.ln1.bias"])
            h = ad.layer_norm(ad.add(h, _composed_ffn(params, i, h)),
                              params[f"layer{i}.ln2.gain"], params[f"layer{i}.ln2.bias"])
        return h

    names = ["out"] + list(params)
    _, got = _per_projection(names, _run(lambda: encoder_forward(params, cfg, ids, mask),
                                         leaves, Tensor(weight[mask])), cfg.d_model)
    names, want = _per_projection(names, _run(composed, leaves, Tensor(weight)), cfg.d_model)
    want[0] = want[0][mask]
    # mlm.bias takes no gradient here; the k biases (columns d:2d of each
    # qkv bias) get rounding noise only
    skip = {i for i, k in enumerate(names) if k == "mlm.bias" or k.endswith("attn.k.bias")}
    _assert_close([a for i, a in enumerate(got) if i not in skip],
                  [b for i, b in enumerate(want) if i not in skip])


def test_padded_positions_are_zero_and_pass_no_gradient():
    cfg = tiny_cfg(dropout=0.1)
    rng = np.random.default_rng(47)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [7, 2, 4])
    mask = widen(mask, cfg.max_seq_len)
    h = encoder_forward(params, cfg, ids, mask, rng=np.random.default_rng(0))
    # padded positions have no row at all: one nonzero row per real token
    for out in [h] + _layers(params, cfg, ids, mask, rng_seed=0):
        assert out.shape == (mask.sum(), cfg.d_model)
        assert (out.data != 0.0).all()
    # a loss on every row reaches exactly the token embedding rows of the
    # batch's ids, and no position embedding row past its longest text
    backward(ad.sum_all(ad.mul(h, rng.normal(size=h.shape))))
    grad = params["embed.token.weight"].grad
    used = np.unique(ids)
    assert grad[used].any(axis=1).all()
    assert not np.delete(grad, used, axis=0).any()
    pos_grad = params["embed.position.weight"].grad
    assert pos_grad[:9].any(axis=1).all() and not pos_grad[9:].any()


def test_encoder_graph_uses_fused_blocks():
    # each layer is one attention node and four linear nodes (q | k | v,
    # output, and the two feed-forward ones), each linear on its stored
    # weight and bias with no concat; none of the composed ops they replaced
    # may come back into the encoder
    cfg = tiny_cfg(n_layers=3, dropout=0.1)
    rng = np.random.default_rng(45)
    params = init_params(encoder_param_shapes(cfg), rng)
    ids, mask = make_batch(rng, cfg, [5, 2])
    h = encoder_forward(params, cfg, ids, mask, rng=np.random.default_rng(0))
    ops = Counter(t.op for t in ad.ComputationGraph.trace(h).nodes)
    for op in ("matmul", "softmax", "gelu", "swap_axes", "reshape"):
        assert ops[op] == 0, op
    assert ops["attention"] == cfg.n_layers
    assert ops["linear"] == 4 * cfg.n_layers
    assert ops["concat"] == 0


def test_mlm_head_is_one_linear_node():
    # the tied output projection and its bias are one linear node on top of
    # the encoder's, so no matmul or bias add enters the MLM loss graph
    cfg = tiny_cfg(dropout=0.1)
    rng = np.random.default_rng(46)
    params = init_params(encoder_param_shapes(cfg), rng)
    _, _, batch = mlm_batch_for(cfg, rng, [6, 3])
    _, loss = mlm_forward(params, cfg, batch, rng=np.random.default_rng(0))
    ops = Counter(t.op for t in ad.ComputationGraph.trace(loss).nodes)
    assert ops["matmul"] == 0
    assert ops["linear"] == 4 * cfg.n_layers + 1
    assert ops["concat"] == 0


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
    seqs, outs, batch = mlm_batch_for(cfg, rng, [10, 6, 10, 1])
    # mask and random replacements both, so a replacement written at
    # another masked row shows
    assert {"mask", "random"} <= {c for o in outs for c in o.categories}
    T = batch.mask.shape[1]
    k = 0
    for b, (seq, out) in enumerate(zip(seqs, outs)):
        for pos, orig in zip(out.positions, out.original_ids):
            assert np.flatnonzero(batch.mask)[batch.rows[k]] == b * T + pos
            assert batch.targets[k] == orig
            k += 1
    # the ids are the joined sequences with each replacement at its row
    # and everything off the masked rows untouched
    assert batch.ids.shape == (batch.mask.sum(),)
    np.testing.assert_array_equal(batch.ids[batch.rows],
                                  np.concatenate([o.replacement_ids for o in outs]))
    keep = np.ones(len(batch.ids), dtype=bool)
    keep[batch.rows] = False
    np.testing.assert_array_equal(batch.ids[keep], np.concatenate(seqs)[keep])


def test_mlm_batch_padding_matches_max_seq_len_padding():
    # collate_mlm's mask is as wide as the longest sequence in the batch;
    # the loss and logits equal those of the same batch under its mask
    # widened to max_seq_len
    from figlang.encoder import MlmBatch
    cfg = tiny_cfg()
    rng = np.random.default_rng(9)
    params = init_params(encoder_param_shapes(cfg), rng)
    seqs, outs, batch = mlm_batch_for(cfg, rng, [6, 3, 5])
    assert batch.mask.shape[1] == 8 < cfg.max_seq_len
    ref = MlmBatch(ids=batch.ids, mask=widen(batch.mask, cfg.max_seq_len), rows=batch.rows,
                   targets=batch.targets)
    got_logits, got = mlm_forward(params, cfg, batch)
    want_logits, want = mlm_forward(params, cfg, ref)
    np.testing.assert_allclose(got_logits.data, want_logits.data, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.item(), want.item(), rtol=1e-12, atol=0)


def test_mlm_initial_loss_near_log_vocab():
    cfg = tiny_cfg()
    rng = np.random.default_rng(6)
    params = init_params(encoder_param_shapes(cfg), rng)
    _, _, batch = mlm_batch_for(cfg, rng, [9, 9, 9, 9])
    logits, loss = mlm_forward(params, cfg, batch)
    assert logits.shape[0] == len(batch.targets)
    assert logits.shape[1] == cfg.vocab_size
    lnv = np.log(cfg.vocab_size)
    assert abs(loss.item() - lnv) / lnv < 0.10


def test_mlm_grads_ignore_pad_slots():
    # pad positions contribute nothing to any gradient: the same batch under
    # its mask widened to max_seq_len must give the same loss and leave every
    # parameter grad bit-identical. (The token table itself still gets grad
    # at every row through the tied projection.)
    cfg = tiny_cfg()
    rng = np.random.default_rng(7)
    params = init_params(encoder_param_shapes(cfg), rng)
    seqs, outs, batch = mlm_batch_for(cfg, rng, [6, 3])
    _, loss = mlm_forward(params, cfg, batch)
    backward(loss)
    assert np.abs(params["embed.token.weight"].grad).sum() > 0
    grads = {k: t.grad.copy() for k, t in params.items()}
    ad.zero_grads(params.values())

    from figlang.encoder import MlmBatch
    batch2 = MlmBatch(ids=batch.ids, mask=widen(batch.mask, cfg.max_seq_len),
                      rows=batch.rows, targets=batch.targets)
    _, loss2 = mlm_forward(params, cfg, batch2)
    assert loss2.item() == loss.item()
    backward(loss2)
    for k, t in params.items():
        np.testing.assert_array_equal(t.grad, grads[k])

    # unused tail of the position table stays untouched
    assert np.abs(grads["embed.position.weight"][8:]).max() == 0.0


def _mlm_reference(params, cfg, batch):
    """The MLM head composed on the full encoder: every row through every
    layer, then the masked rows gathered, then the tied projection."""
    h = ad.gather_rows(encoder_forward(params, cfg, batch.ids, batch.mask), batch.rows)
    logits = ad.linear(h, ad.swap_axes(params["embed.token.weight"], 0, 1), params["mlm.bias"])
    return logits, ad.cross_entropy(logits, batch.targets)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_mlm_forward_matches_full_encoder_then_gather(n_layers):
    # the last layer run on the masked rows alone against the full encoder
    # read at those rows, on ragged texts, one of them a single content
    # token: logits, loss and every parameter gradient
    cfg = tiny_cfg(n_layers=n_layers)
    rng = np.random.default_rng(60 + n_layers)
    params = init_params(encoder_param_shapes(cfg), rng)
    for t in params.values():
        t.data = t.data + rng.normal(0.0, 0.3, size=t.shape)
    _, _, batch = mlm_batch_for(cfg, rng, [9, 1, 5, 5, 3])

    def run(forward):
        ad.zero_grads(params.values())
        logits, loss = forward(params, cfg, batch)
        backward(loss)
        return logits.data, loss.item(), {k: t.grad.copy() for k, t in params.items()}

    got_logits, got_loss, got = run(mlm_forward)
    want_logits, want_loss, want = run(_mlm_reference)
    assert np.abs(got_logits - want_logits).max() <= 1e-12 * np.abs(want_logits).max()
    assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    # one bound for all: the key biases' true gradient is 0, so theirs is
    # rounding noise whose relative error means nothing
    scale = max(np.abs(g).max() for g in want.values())
    for k in params:
        assert np.abs(got[k] - want[k]).max() <= 1e-12 * scale, k


@pytest.mark.parametrize("n_layers", [1, 2])
def test_mlm_last_layer_draws_dropout_for_masked_rows(n_layers):
    # one (N, d) draw after the embedding and two per layer before the
    # last; the last layer's two are (R, d), one per masked row
    cfg = tiny_cfg(n_layers=n_layers, dropout=0.1)
    rng = np.random.default_rng(64)
    params = init_params(encoder_param_shapes(cfg), rng)
    _, _, batch = mlm_batch_for(cfg, rng, [9, 1, 5])
    g = np.random.default_rng(3)
    mlm_forward(params, cfg, batch, rng=g)
    want = np.random.default_rng(3)
    N, R, d = len(batch.ids), len(batch.rows), cfg.d_model
    for _ in range(1 + 2 * (n_layers - 1)):
        want.random((N, d))
    for _ in range(2):
        want.random((R, d))
    assert g.bit_generator.state == want.bit_generator.state


def test_mlm_last_layer_feed_forward_runs_on_masked_rows():
    # in the MLM graph the first layer's fc1 runs on all N rows and the
    # last layer's on the R masked rows; the encoder without rows still
    # returns all N
    cfg = tiny_cfg(n_layers=2, dropout=0.1)
    rng = np.random.default_rng(65)
    params = init_params(encoder_param_shapes(cfg), rng)
    _, _, batch = mlm_batch_for(cfg, rng, [9, 1, 5])
    N, R = len(batch.ids), len(batch.rows)
    assert R < N
    _, loss = mlm_forward(params, cfg, batch, rng=np.random.default_rng(0))
    nodes = ad.ComputationGraph.trace(loss).nodes

    def fc1_rows(i):
        w = params[f"layer{i}.ff.fc1.weight"]
        [node] = [t for t in nodes if t.op == "linear" and any(p is w for p in t.parents)]
        return node.shape[0]

    assert fc1_rows(0) == N
    assert fc1_rows(1) == R
    assert sum(t.op == "gather_rows" for t in nodes) == 2
    assert encoder_forward(params, cfg, batch.ids, batch.mask).shape == (N, cfg.d_model)


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
    params = init_params(encoder_param_shapes(cfg), rng)
    seqs = [content_seq(rng, 4, T=cfg.max_seq_len)]
    from figlang.encoder import MlmBatch
    empty = MlmBatch(ids=np.stack([seqs[0]]), mask=np.ones((1, len(seqs[0])), dtype=bool),
                     rows=np.array([], dtype=np.int64),
                     targets=np.array([], dtype=np.int64))
    with pytest.raises(ContractError):
        mlm_forward(params, cfg, empty)
