"""BiLSTM + recurrent-convolutional head: hand recurrences, mask gating,
pooling semantics, an independent end-to-end forward oracle, and the
prediction API."""

import tracemalloc

import numpy as np
import pytest

from figlang import autodiff as ad
from figlang import rcnn
from figlang.autodiff import Tensor
from figlang.bpe import CLS_ID, N_SPECIALS, SEP_ID, bpe_train, encode, pad_batch
from figlang.config import BINARY, REGRESSION, ModelConfig, TrainConfig, toy_scale
from figlang.encoder import (MlmBatch, collate_mlm, dynamic_mask, encoder_param_shapes,
                             mlm_forward)
from figlang.rcnn import (bilstm_forward, full_forward, head_param_shapes,
                          init_model_params, init_params, model_param_shapes,
                          predict, rcnn_forward)

V = 290


def head_cfg(**kw):
    base = dict(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq_len=10,
                vocab_size=V, dropout=0.0, lstm_units=3, d_proj=4)
    base.update(kw)
    return ModelConfig(**base)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_param_inventory_and_split():
    cfg = head_cfg()
    rng = np.random.default_rng(0)
    head = init_params(head_param_shapes(cfg), rng)
    d, u = cfg.d_model, cfg.lstm_units
    assert head["lstm.fw.w_in.weight"].shape == (d, 4 * u)
    assert head["lstm.bw.w_rec.weight"].shape == (u, 4 * u)
    assert head["proj.weight"].shape == (d + 2 * u, cfg.d_proj)
    assert head["out.weight"].shape == (cfg.d_proj, 2)
    assert {k.split(".")[0] for k in head} == {"lstm", "proj", "out"}

    full = init_model_params(cfg, np.random.default_rng(0))
    enc = init_params(encoder_param_shapes(cfg), np.random.default_rng(0))
    assert set(full) == set(enc) | set(head)
    assert not set(enc) & set(head)
    assert list(full)[-len(head):] == list(head)


@pytest.mark.parametrize("head", [BINARY, REGRESSION])
def test_param_shapes_match_init(head):
    # checkpoint loading checks tensors against these shapes, without drawing weights
    cfg = head_cfg(task_head=head)
    params = init_model_params(cfg, np.random.default_rng(0))
    assert model_param_shapes(cfg) == {k: p.shape for k, p in params.items()}
    assert list(model_param_shapes(cfg)) == list(params)


def test_qkv_weight_is_drawn_as_its_q_k_v_blocks_in_turn():
    # the same numbers as three (d, d) q, k and v weights drawn one after
    # another, so joining them into one tensor left every init unchanged
    joined = init_params({"attn.qkv.weight": (8, 24), "attn.qkv.bias": (24,),
                          "attn.o.weight": (8, 8)}, np.random.default_rng(2))
    apart = init_params({f"attn.{x}.weight": (8, 8) for x in "qkvo"},
                        np.random.default_rng(2))
    np.testing.assert_array_equal(joined["attn.qkv.weight"].data, np.hstack(
        [apart[f"attn.{x}.weight"].data for x in "qkv"]))
    np.testing.assert_array_equal(joined["attn.o.weight"].data, apart["attn.o.weight"].data)
    np.testing.assert_array_equal(joined["attn.qkv.bias"].data, 0.0)


def test_forget_gate_bias_starts_open():
    cfg = head_cfg()
    head = init_params(head_param_shapes(cfg), np.random.default_rng(1))
    u = cfg.lstm_units
    for direction in ("fw", "bw"):
        b = head[f"lstm.{direction}.bias"].data
        np.testing.assert_array_equal(b[u:2 * u], 1.0)
        np.testing.assert_array_equal(b[:u], 0.0)
        np.testing.assert_array_equal(b[2 * u:], 0.0)


def test_scalar_lstm_matches_hand_recurrence():
    # units=1, d=1, T=2: run the gate equations by hand in both directions
    cfg = head_cfg(d_model=1, n_heads=1, lstm_units=1)
    rng = np.random.default_rng(2)
    params = {}
    for direction in ("fw", "bw"):
        params[f"lstm.{direction}.w_in.weight"] = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        params[f"lstm.{direction}.w_rec.weight"] = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        params[f"lstm.{direction}.bias"] = Tensor(rng.normal(size=4), requires_grad=True)
    x = rng.normal(size=(1, 2, 1))
    mask = np.ones((1, 2), dtype=bool)
    out = bilstm_forward(params, Tensor(x[mask]), mask).data  # (2, 2): one row a step

    def sweep(direction, order):
        w_in = params[f"lstm.{direction}.w_in.weight"].data
        w_rec = params[f"lstm.{direction}.w_rec.weight"].data
        bias = params[f"lstm.{direction}.bias"].data
        h = c = 0.0
        res = {}
        for t in order:
            z = x[0, t, 0] * w_in[0] + h * w_rec[0] + bias
            i, f, g, o = sigmoid(z[0]), sigmoid(z[1]), np.tanh(z[2]), sigmoid(z[3])
            c = f * c + i * g
            h = o * np.tanh(c)
            res[t] = h
        return res

    fw, bw = sweep("fw", [0, 1]), sweep("bw", [1, 0])
    for t in (0, 1):
        assert abs(out[t, 0] - fw[t]) < 1e-12
        assert abs(out[t, 1] - bw[t]) < 1e-12


def test_zero_weights_give_zero_lstm_output():
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(3))
    for k in params:
        if k.startswith("lstm."):
            params[k].data[:] = 0.0
    mask = np.ones((2, 5), dtype=bool)
    x = Tensor(np.random.default_rng(4).normal(size=(2, 5, cfg.d_model))[mask])
    out = bilstm_forward(params, x, mask)
    # all gates at sigmoid(0)=0.5, candidate tanh(0)=0 -> c=0 -> h=0
    np.testing.assert_array_equal(out.data, 0.0)


def test_single_step_width():
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(5))
    # tie the sweeps: with one step both directions see the same input and
    # zero state, so their halves must coincide
    for n in ("w_in.weight", "w_rec.weight", "bias"):
        params[f"lstm.bw.{n}"].data[:] = params[f"lstm.fw.{n}"].data
    mask = np.ones((3, 1), dtype=bool)
    x = Tensor(np.random.default_rng(6).normal(size=(3, 1, cfg.d_model))[mask])
    out = bilstm_forward(params, x, mask)
    assert out.shape == (3, 2 * cfg.lstm_units)
    half = cfg.lstm_units
    np.testing.assert_array_equal(out.data[..., :half], out.data[..., half:])


def test_mask_gating_zeroes_pad_outputs():
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 6, cfg.d_model))
    mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]], dtype=bool)
    out = bilstm_forward(params, Tensor(x[mask]), mask).data
    # one output row per real step: padded steps output nothing
    assert out.shape == (mask.sum(), 2 * cfg.lstm_units)
    assert np.abs(out[:4]).min() >= 0.0 and np.abs(out[:4]).sum() > 0


def test_mask_gating_blocks_pad_content():
    # garbage in the rows after a text's last step (the next text's) must
    # not change any of its outputs, in either sweep direction
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(9))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 6, cfg.d_model))
    mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=bool)
    a = bilstm_forward(params, Tensor(x[mask]), mask).data
    x2 = x.copy()
    x2[1] = rng.normal(size=(6, cfg.d_model)) * 50
    b = bilstm_forward(params, Tensor(x2[mask]), mask).data
    np.testing.assert_array_equal(a[:4], b[:4])


def test_zero_proj_pools_to_tanh_bias():
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(11))
    params["proj.weight"].data[:] = 0.0
    params["proj.bias"].data[:] = np.array([0.3, -0.2, 1.5, 0.0])
    rng = np.random.default_rng(12)
    mask = np.ones((2, 4), dtype=bool)
    hidden = Tensor(rng.normal(size=(2, 4, cfg.d_model))[mask])
    lstm_out = Tensor(rng.normal(size=(2, 4, 2 * cfg.lstm_units))[mask])
    out = rcnn_forward(params, hidden, lstm_out, mask).data
    want = np.tanh(params["proj.bias"].data) @ params["out.weight"].data \
        + params["out.bias"].data
    np.testing.assert_allclose(out, np.broadcast_to(want, (2, 2)), atol=1e-12)


def test_duplicated_timestep_is_pool_idempotent():
    # max over time ignores multiplicity: repeating a column of features
    # cannot change the pooled vector
    cfg = head_cfg()
    params = init_params(head_param_shapes(cfg), np.random.default_rng(13))
    rng = np.random.default_rng(14)
    h1 = rng.normal(size=(1, 3, cfg.d_model))
    l1 = rng.normal(size=(1, 3, 2 * cfg.lstm_units))
    h2 = np.concatenate([h1, h1[:, -1:]], axis=1)
    l2 = np.concatenate([l1, l1[:, -1:]], axis=1)
    m1 = np.ones((1, 3), dtype=bool)
    m2 = np.ones((1, 4), dtype=bool)
    a = rcnn_forward(params, Tensor(h1[m1]), Tensor(l1[m1]), m1).data
    b = rcnn_forward(params, Tensor(h2[m2]), Tensor(l2[m2]), m2).data
    np.testing.assert_array_equal(a, b)


def _lstm_direction(params, prefix: str, hidden: Tensor, mask: np.ndarray,
                    units: int, reverse: bool) -> list:
    """One LSTM sweep. A padded step zeroes its cell state, so it outputs
    zeros and hands a zero state on: pad content cannot reach any unmasked
    position."""
    B, T, _ = hidden.shape
    w_in = params[f"{prefix}.w_in.weight"]
    w_rec = params[f"{prefix}.w_rec.weight"]
    bias = params[f"{prefix}.bias"]
    h = Tensor(np.zeros((B, units)))
    c = Tensor(np.zeros((B, units)))
    outs: list = [None] * T
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        m_t = Tensor(mask[:, t:t + 1].astype(np.float64))
        x_t = ad.time_slice(hidden, t)
        z = ad.add(ad.add(ad.matmul(x_t, w_in), ad.matmul(h, w_rec)), bias)
        gi = ad.sigmoid(ad.slice_last(z, 0, units))
        gf = ad.sigmoid(ad.slice_last(z, units, 2 * units))
        gg = ad.tanh(ad.slice_last(z, 2 * units, 3 * units))
        go = ad.sigmoid(ad.slice_last(z, 3 * units, 4 * units))
        c = ad.mul(m_t, ad.add(ad.mul(gf, c), ad.mul(gi, gg)))
        h = ad.mul(go, ad.tanh(c))
        outs[t] = h
    return outs


@pytest.mark.parametrize("reverse", [False, True])
def test_fused_lstm_matches_unrolled_reference(reverse):
    # the input projection's linear node and the fused sweep against the
    # per-step graph they replaced: same output and same gradients of x and
    # all three weights under a padded mask; the last row's holes make a
    # real step start from a padded step's zero state
    cfg = head_cfg(d_model=6, lstm_units=4)
    params = init_params(head_param_shapes(cfg), np.random.default_rng(25))
    rng = np.random.default_rng(26)
    # unit-scale recurrence and bias, so the gates leave their linear range
    for k in ("lstm.fw.w_rec.weight", "lstm.fw.bias"):
        params[k].data[:] = rng.normal(size=params[k].shape)
    x = Tensor(rng.normal(size=(3, 6, cfg.d_model)), requires_grad=True)
    mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0], [0, 1, 1, 0, 1, 0]], dtype=bool)
    weight = Tensor(rng.normal(size=(3, 6, cfg.lstm_units)))
    names = ["lstm.fw.w_in.weight", "lstm.fw.w_rec.weight", "lstm.fw.bias"]
    rows = Tensor(x.data[mask], requires_grad=True)

    def run(build, x, weight):
        leaves = [x] + [params[k] for k in names]
        ad.zero_grads(leaves)
        out = build()
        ad.backward(ad.sum_all(ad.mul(out, weight)))
        return [out.data] + [t.grad.copy() for t in leaves]

    got = run(lambda: ad.lstm(ad.linear(rows, params["lstm.fw.w_in.weight"],
                                        params["lstm.fw.bias"]),
                              params["lstm.fw.w_rec.weight"], mask, reverse=reverse),
              rows, Tensor(weight.data[mask]))
    want = run(lambda: ad.stack_time(_lstm_direction(params, "lstm.fw", x, mask,
                                                     cfg.lstm_units, reverse)), x, weight)
    # the reference is padded: compare its output and x gradient at the real rows
    want[0], want[1] = want[0][mask], want[1][mask]
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_restarts_from_zero_state_after_a_hole(reverse):
    # a padded step hands on a zero state: beyond a hole at step k, in sweep
    # order, the outputs are those of a fresh sweep over that side alone
    T, k, d, u = 7, 3, 5, 4
    rng = np.random.default_rng(28)
    x = rng.normal(size=(1, T, d))
    w_in, w_rec, bias = (rng.normal(size=s) for s in ((d, 4 * u), (u, 4 * u), (4 * u,)))
    z = x @ w_in + bias
    mask = np.ones((1, T), dtype=bool)
    mask[0, k] = False
    side = slice(None, k) if reverse else slice(k + 1, None)
    on_side = np.zeros_like(mask)
    on_side[:, side] = True
    out = ad.lstm(z[mask], w_rec, mask, reverse=reverse).data[on_side[mask]]
    fresh = ad.lstm(z[:, side][mask[:, side]], w_rec, mask[:, side], reverse=reverse).data
    assert np.abs(out).min() > 0
    np.testing.assert_allclose(out, fresh, rtol=1e-12, atol=0)


def test_lstm_saturated_gates_are_exact_and_raise_nothing():
    # pre-activations of +-1e3 (+-500 after the halving): the tanh-form gates
    # need no overflow guard, and every sigmoid gate is exactly 0 or 1 and
    # every candidate exactly -1 or 1, so a plain recurrence on those values
    # gives the sweep's output bit for bit
    B, T, u = 3, 6, 4
    rng = np.random.default_rng(29)
    mask = np.ones((B, T), dtype=bool)
    mask[1, 4:] = False
    signs = rng.choice([-1.0, 1.0], size=(B, T, 4 * u))
    x = Tensor(signs[mask], requires_grad=True)
    w_in = Tensor(1e3 * np.eye(4 * u), requires_grad=True)
    w_rec = Tensor(rng.normal(size=(u, 4 * u)), requires_grad=True)   # |h @ w_rec| << 1e3
    bias = Tensor(np.zeros(4 * u), requires_grad=True)
    with np.errstate(all="raise"):
        out = ad.lstm(ad.linear(x, w_in, bias), w_rec, mask)
        ad.backward(ad.sum_all(out))
    want = np.zeros((B, T, u))
    c = np.zeros((B, u))
    for t in range(T):
        i, f, g, o = np.split(signs[:, t], 4, axis=-1)
        i, f, o = (i > 0) * 1.0, (f > 0) * 1.0, (o > 0) * 1.0
        c = (f * c + i * g) * mask[:, t, None]
        want[:, t] = o * np.tanh(c)
    np.testing.assert_array_equal(out.data, want[mask])
    assert np.abs(out.data).max() > 0
    for p in (x, w_in, w_rec, bias):
        assert np.isfinite(p.grad).all()


def test_untracked_lstm_saves_nothing_for_backward():
    # with no input requiring a gradient, the sweep must not hold the gates,
    # tanh(c) and previous h and c of every step: (B, T, 4u + 3u) float64
    B, T, u = 16, 40, 8
    rng = np.random.default_rng(27)
    arrays = [rng.normal(size=s) for s in ((B, T, 4 * u), (u, 4 * u))]
    mask = np.ones((B, T), dtype=bool)
    arrays[0] = arrays[0][mask]

    def sweep(requires_grad):
        tensors = [Tensor(a, requires_grad=requires_grad) for a in arrays]
        tracemalloc.start()
        try:
            out = ad.lstm(*tensors, mask).data
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracked, tracked_peak = sweep(True)
    untracked, untracked_peak = sweep(False)
    np.testing.assert_array_equal(untracked, tracked)
    assert tracked_peak - untracked_peak >= B * T * 7 * u * 8


def test_finetune_graph_reads_weights_only_through_linear_nodes():
    # every weight GEMM is a linear node on one stored weight: attention
    # reads only its q | k | v rows, an LSTM sweep only its input
    # pre-activation rows and w_rec, and the only other ops that read a
    # parameter are the embeddings and the layer norms
    cfg = head_cfg(n_layers=2, dropout=0.1)
    rng = np.random.default_rng(30)
    params = init_model_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [5, 2, 5])
    loss = ad.cross_entropy(full_forward(params, cfg, ids, mask,
                                         rng=np.random.default_rng(0)), [0, 1, 1])
    nodes = ad.ComputationGraph.trace(loss).nodes
    param_ids = {id(t) for t in params.values()}
    readers = {t.op for t in nodes if any(id(p) in param_ids for p in t.parents)}
    assert readers == {"linear", "embedding", "layer_norm", "lstm"}
    attention = [t for t in nodes if t.op == "attention"]
    assert len(attention) == cfg.n_layers
    for t in attention:
        assert [p.op for p in t.parents] == ["linear"]
    lstm = [t for t in nodes if t.op == "lstm"]
    assert [len(t.parents) for t in lstm] == [2, 2]
    for t, d in zip(lstm, ("fw", "bw")):
        assert t.parents[0].op == "linear"
        assert t.parents[1] is params[f"lstm.{d}.w_rec.weight"]


# ---------------------------------------------------------------------------
# end-to-end forward


def make_batch(rng, cfg, lengths):
    """`pad_batch` of random texts with `lengths` content tokens: (N,) ids
    and the (B, T) mask, T the longest text."""
    return pad_batch([np.array([CLS_ID, *rng.integers(N_SPECIALS, cfg.vocab_size, size=n),
                                SEP_ID]) for n in lengths])


def split_texts(ids, mask):
    """The batch's ids cut back into one array per text."""
    return np.split(ids, np.cumsum(mask.sum(axis=1))[:-1])


def numpy_reference_forward(params, cfg, ids, mask):
    """Straight-line float64 forward pass sharing no code with the package,
    on the (B, T) layout: padded positions hold the position embedding only."""
    P = {k: t.data for k, t in params.items()}
    B, T = mask.shape
    h = P["embed.position.weight"][:T] + np.zeros((B, T, 1))
    h[mask] += P["embed.token.weight"][ids]

    def layernorm(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))

    d = cfg.d_model
    dk = d // cfg.n_heads
    for i in range(cfg.n_layers):
        w, bias = P[f"layer{i}.attn.qkv.weight"], P[f"layer{i}.attn.qkv.bias"]
        q, k, v = (h @ w[:, j * d:(j + 1) * d] + bias[j * d:(j + 1) * d] for j in range(3))
        ctx = np.zeros_like(h)
        for b in range(B):
            for head in range(cfg.n_heads):
                sl = slice(head * dk, (head + 1) * dk)
                s = q[b][:, sl] @ k[b][:, sl].T / np.sqrt(dk)
                s[:, ~mask[b]] = -np.inf
                e = np.exp(s - s.max(-1, keepdims=True))
                p = e / e.sum(-1, keepdims=True)
                ctx[b][:, sl] = p @ v[b][:, sl]
        a = ctx @ P[f"layer{i}.attn.o.weight"] + P[f"layer{i}.attn.o.bias"]
        h = layernorm(h + a, P[f"layer{i}.ln1.gain"], P[f"layer{i}.ln1.bias"])
        f = gelu(h @ P[f"layer{i}.ff.fc1.weight"] + P[f"layer{i}.ff.fc1.bias"])
        f = f @ P[f"layer{i}.ff.fc2.weight"] + P[f"layer{i}.ff.fc2.bias"]
        h = layernorm(h + f, P[f"layer{i}.ln2.gain"], P[f"layer{i}.ln2.bias"])

    u = cfg.lstm_units
    lstm = np.zeros((B, T, 2 * u))
    for col, (direction, order) in enumerate(
            [("fw", range(T)), ("bw", range(T - 1, -1, -1))]):
        w_in = P[f"lstm.{direction}.w_in.weight"]
        w_rec = P[f"lstm.{direction}.w_rec.weight"]
        bias = P[f"lstm.{direction}.bias"]
        hs = np.zeros((B, u))
        cs = np.zeros((B, u))
        for t in order:
            m = mask[:, t:t + 1].astype(float)
            z = h[:, t] @ w_in + hs @ w_rec + bias
            gi, gf = sigmoid(z[:, :u]), sigmoid(z[:, u:2 * u])
            gg, go = np.tanh(z[:, 2 * u:3 * u]), sigmoid(z[:, 3 * u:])
            c_new = gf * cs + gi * gg
            h_new = go * np.tanh(c_new)
            cs = m * c_new + (1 - m) * cs
            hs = m * h_new + (1 - m) * hs
            lstm[:, t, col * u:(col + 1) * u] = hs * m

    feats = np.concatenate([h, lstm], axis=-1)
    z = np.tanh(feats @ P["proj.weight"] + P["proj.bias"])
    z = np.where(mask[:, :, None], z, -np.inf)
    pooled = z.max(axis=1)
    return pooled @ P["out.weight"] + P["out.bias"]


def test_full_forward_matches_independent_reference():
    cfg = head_cfg()
    rng = np.random.default_rng(15)
    params = init_model_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [4, 6, 2])
    got = full_forward(params, cfg, ids, mask).data
    want = numpy_reference_forward(params, cfg, ids, mask)
    np.testing.assert_allclose(got, want, atol=1e-10)
    assert got.shape == (3, 2)


def test_full_forward_padding_invariance():
    cfg = head_cfg()
    rng = np.random.default_rng(16)
    params = init_model_params(cfg, rng)
    # the same texts under a mask widened to max_seq_len give the same logits
    ids, mask = make_batch(rng, cfg, [5, 2])
    wide = np.pad(mask, ((0, 0), (0, cfg.max_seq_len - mask.shape[1])))
    a = full_forward(params, cfg, ids, mask).data
    b = full_forward(params, cfg, ids, wide).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("extra", [1, 6])
def test_dropout_training_forwards_ignore_padding_width(extra):
    # with dropout on, the same batch padded `extra` columns wider gives the
    # same logits and loss and leaves the dropout generator where it was
    cfg = toy_scale()
    rng = np.random.default_rng(25)
    params = init_model_params(cfg, rng)
    seqs = [np.concatenate([[CLS_ID], rng.integers(N_SPECIALS, cfg.vocab_size, size=n - 2),
                            [SEP_ID]]) for n in (9, 4, 12)]
    batch = collate_mlm(seqs, [dynamic_mask(s, rng, cfg.vocab_size) for s in seqs])

    def forwards(mask):
        drop = np.random.default_rng(26)
        logits = full_forward(params, cfg, batch.ids, mask, rng=drop).data
        mlm_logits, loss = mlm_forward(params, cfg, MlmBatch(batch.ids, mask, batch.rows,
                                                             batch.targets), rng=drop)
        return [logits, mlm_logits.data, loss.data], drop.bit_generator.state

    narrow, narrow_state = forwards(batch.mask)
    wide, wide_state = forwards(np.pad(batch.mask, ((0, 0), (0, extra))))
    for a, b in zip(narrow, wide):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    assert narrow_state == wide_state
    # dropout was on: the logits differ from the deterministic forward's
    assert np.abs(narrow[0] - full_forward(params, cfg, batch.ids, batch.mask).data).max() > 1e-6


def test_batch_equals_one_by_one():
    cfg = head_cfg()
    rng = np.random.default_rng(17)
    params = init_model_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [4, 4, 4])
    together = full_forward(params, cfg, ids, mask).data
    singles = np.concatenate([full_forward(params, cfg, *pad_batch([s])).data
                              for s in split_texts(ids, mask)])
    np.testing.assert_allclose(together, singles, atol=1e-9)


def test_ragged_batch_equals_one_by_one():
    # three lengths in one padded batch against each text alone, unpadded
    cfg = head_cfg(n_layers=2)
    rng = np.random.default_rng(18)
    params = init_model_params(cfg, rng)
    for t in params.values():      # unit-scale logits, so 1e-12 is relative
        t.data = rng.normal(0.0, 0.3, size=t.shape)
    ids, mask = make_batch(rng, cfg, [6, 1, 3])
    together = full_forward(params, cfg, ids, mask).data
    singles = np.concatenate([full_forward(params, cfg, *pad_batch([s])).data
                              for s in split_texts(ids, mask)])
    assert np.abs(together - singles).max() <= 1e-12 * np.abs(singles).max()


def test_word_order_reaches_the_logits():
    # frozen random model: swapping two content tokens changes the output
    # (position embeddings + recurrence make the head order-aware)
    cfg = head_cfg()
    rng = np.random.default_rng(18)
    params = init_model_params(cfg, rng)
    ids, mask = make_batch(rng, cfg, [5])
    swapped = ids.copy()
    swapped[1], swapped[2] = ids[2], ids[1]
    assert ids[1] != ids[2]
    a = full_forward(params, cfg, ids, mask).data
    b = full_forward(params, cfg, swapped, mask).data
    assert np.abs(a - b).max() > 1e-9


def test_order_blindness_without_positions_or_recurrence():
    # kill position embeddings and both LSTM sweeps: the remaining pipeline
    # (per-position affines + max pool) cannot see token order
    cfg = head_cfg()
    rng = np.random.default_rng(19)
    params = init_model_params(cfg, rng)
    params["embed.position.weight"].data[:] = 0.0
    for k in params:
        if k.startswith("lstm."):
            params[k].data[:] = 0.0
    ids, mask = make_batch(rng, cfg, [5])
    perm = ids.copy()
    perm[1:6] = ids[[3, 1, 5, 2, 4]]
    a = full_forward(params, cfg, ids, mask).data
    b = full_forward(params, cfg, perm, mask).data
    np.testing.assert_allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------------------
# predict


@pytest.fixture(scope="module")
def tok():
    lines = ["the cat sees the ball .", "a dry remark about rain .",
             "what a lovely day to be stuck inside ."]
    return bpe_train(lines, 280)


def test_batch_padding_matches_max_seq_len_padding(tok):
    # padding to the longest sequence in the batch gives the logits that
    # padding to max_seq_len gives
    cfg = head_cfg(vocab_size=tok.size, max_seq_len=32)
    params = init_model_params(cfg, np.random.default_rng(24))
    texts = ["the cat sees the ball .", "rain", "a dry remark"]
    seqs = [encode(tok, text, cfg.max_seq_len) for text in texts]
    ids, mask = pad_batch(seqs)
    assert mask.shape == (3, max(len(s) for s in seqs))
    assert ids.shape == (mask.sum(),)
    assert mask.shape[1] < cfg.max_seq_len
    ref_mask = np.zeros((3, cfg.max_seq_len), dtype=bool)
    for b, s in enumerate(seqs):
        ref_mask[b, :len(s)] = True
    got = full_forward(params, cfg, ids, mask).data
    want = full_forward(params, cfg, ids, ref_mask).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_predict_binary_records(tok):
    cfg = head_cfg(vocab_size=tok.size, max_seq_len=16)
    params = init_model_params(cfg, np.random.default_rng(20))
    texts = ["the cat sees the ball .", "what a lovely day ."]
    recs = predict(params, cfg, tok, texts, batch_size=1)
    assert [r["text"] for r in recs] == texts
    for r in recs:
        assert r["label"] in (0, 1)
        assert abs(sum(r["probs"]) - 1.0) < 1e-9
        assert all(0.0 <= p <= 1.0 for p in r["probs"])
        assert r["label"] == int(np.argmax(r["probs"]))


def test_predict_batching_is_transparent(tok):
    cfg = head_cfg(vocab_size=tok.size, max_seq_len=16)
    params = init_model_params(cfg, np.random.default_rng(21))
    texts = ["the cat", "a dry remark", "lovely day", "rain", "ball"]
    one = predict(params, cfg, tok, texts, batch_size=1)
    five = predict(params, cfg, tok, texts, batch_size=5)
    for a, b in zip(one, five):
        np.testing.assert_allclose(a["probs"], b["probs"], atol=1e-9)
        assert a["label"] == b["label"]


def test_predict_records_no_tape(tok, monkeypatch):
    cfg = head_cfg(vocab_size=tok.size, max_seq_len=16)
    params = init_model_params(cfg, np.random.default_rng(23))
    want = predict(params, cfg, tok, ["the cat sees the ball ."])
    seen = []
    real = rcnn.rcnn_forward

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(rcnn, "rcnn_forward", spy)
    got = predict(params, cfg, tok, ["the cat sees the ball ."])
    assert got == want
    assert len(seen) == 1
    assert seen[0].parents == () and not seen[0].requires_grad
    assert all(p.requires_grad and p.grad is None for p in params.values())


def test_predict_regression_clamps(tok):
    cfg = head_cfg(vocab_size=tok.size, max_seq_len=16, task_head=REGRESSION)
    params = init_model_params(cfg, np.random.default_rng(22))
    assert params["out.weight"].shape == (cfg.d_proj, 1)
    params["out.bias"].data[:] = 1000.0
    high = predict(params, cfg, tok, ["the cat"])
    assert high[0]["score"] == 5.0
    params["out.bias"].data[:] = -1000.0
    low = predict(params, cfg, tok, ["the cat"])
    assert low[0]["score"] == -5.0
    assert "label" not in low[0] and "probs" not in low[0]


def test_trained_model_separates_order_sensitive_classes(tok):
    # same bag of words, label decided purely by order: "cat sees ball" vs
    # "ball sees cat" style pairs. A few epochs must fit the training set.
    from figlang.data import LabeledExample
    from figlang.training import finetune

    a = ["the cat sees the ball .", "the cat wants the ball .",
         "the cat finds the ball ."]
    b = ["the ball sees the cat .", "the ball wants the cat .",
         "the ball finds the cat ."]
    lines = a + b
    tok2 = bpe_train(lines * 2, 280)
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=64,
                      max_seq_len=16, vocab_size=tok2.size, dropout=0.0,
                      lstm_units=8, d_proj=16)
    examples = ([LabeledExample(id=f"a{i}", text=t, target=0) for i, t in enumerate(a)]
                + [LabeledExample(id=f"b{i}", text=t, target=1) for i, t in enumerate(b)])
    tc = TrainConfig(batch_size=6, epochs=80, learning_rate=1e-3, seed=0)
    params, _ = finetune(examples, tok2, cfg, tc)
    recs = predict(params, cfg, tok2, lines)
    preds = [r["label"] for r in recs]
    assert preds == [0, 0, 0, 1, 1, 1]
