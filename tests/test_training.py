"""Optimizer math against closed forms and a straight-line reference,
seeded-stream reproducibility, and behavior of the two training loops."""

import gc
import json
import weakref

import numpy as np
import pytest

from figlang import training
from figlang.autodiff import Tensor
from figlang.bpe import bpe_train, encode
from figlang.config import ModelConfig, TrainConfig, toy_scale
from figlang.data import LabeledExample
from figlang.errors import DataError, NumericError
from figlang.rcnn import head_param_shapes, model_param_shapes
from figlang.training import (STREAMS, AdamState, TrainLog, adam_step,
                              clip_grad_norm, finetune, pretrain_mlm,
                              rng_streams)


def tensor_with_grad(data, grad):
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float64)
    return t


def test_first_step_closed_form():
    # bias-corrected moments cancel on step one: update = lr * g/(|g|+eps)
    lr, eps = 1e-3, 1e-6
    cfg = TrainConfig(learning_rate=lr, adam_eps=eps, weight_decay=0.0)
    p = {"w.weight": tensor_with_grad([2.0], [1.0])}
    adam_step(p, AdamState(), cfg)
    want = 2.0 - lr * 1.0 / (1.0 + eps)
    assert abs(p["w.weight"].data[0] - want) < 1e-15


def test_first_step_sign_only_depends_on_grad_sign():
    cfg = TrainConfig(learning_rate=0.1, adam_eps=1e-6, weight_decay=0.0)
    p = {"w.weight": tensor_with_grad([0.0, 0.0], [3.0, -0.004])}
    adam_step(p, AdamState(), cfg)
    # per-coordinate normalization: both move by ~lr regardless of magnitude
    np.testing.assert_allclose(p["w.weight"].data, [-0.1, 0.1], atol=1e-4)


def test_zero_grad_zero_decay_is_identity():
    cfg = TrainConfig(learning_rate=0.5, weight_decay=0.0)
    p = {"w.weight": tensor_with_grad([1.0, -2.0], [0.0, 0.0])}
    adam_step(p, AdamState(), cfg)
    np.testing.assert_array_equal(p["w.weight"].data, [1.0, -2.0])


def test_decay_is_decoupled_and_exact():
    # zero gradient, nonzero decay: the parameter shrinks by exactly
    # lr * wd * theta, untouched by the moment machinery
    lr, wd = 0.1, 0.01
    cfg = TrainConfig(learning_rate=lr, weight_decay=wd)
    theta = np.array([4.0, -8.0])
    p = {"w.weight": tensor_with_grad(theta.copy(), [0.0, 0.0])}
    adam_step(p, AdamState(), cfg)
    np.testing.assert_allclose(p["w.weight"].data, theta * (1 - lr * wd),
                               rtol=0, atol=1e-15)


def test_decay_exclusion_by_name():
    # every model parameter but the biases and layer-norm parameters decays
    names = list(model_param_shapes(toy_scale()))
    names += ["a.bias", "a.weight"]
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
    p = {name: tensor_with_grad([2.0], [0.0]) for name in names}
    adam_step(p, AdamState(), cfg)
    for name in names:
        if name.endswith(".bias") or ".ln" in name:
            assert p[name].data[0] == 2.0, name
        else:
            assert p[name].data[0] == pytest.approx(2.0 * (1 - 0.05), abs=1e-15), name
    assert p["layer0.ln1.gain"].data[0] == 2.0
    assert p["embed.token.weight"].data[0] < 2.0


def test_gradless_and_frozen_params_are_skipped():
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.1)
    no_grad = Tensor(np.array([1.0]), requires_grad=True)       # grad is None
    frozen = tensor_with_grad([1.0], [5.0])
    frozen.requires_grad = False
    p = {"a.weight": no_grad, "b.weight": frozen}
    adam_step(p, AdamState(), cfg)
    assert no_grad.data[0] == 1.0
    assert frozen.data[0] == 1.0


def test_nonfinite_grad_names_the_parameter():
    cfg = TrainConfig()
    p = {"lstm.fw.bias": tensor_with_grad([1.0], [np.nan])}
    with pytest.raises(NumericError, match="lstm.fw.bias"):
        adam_step(p, AdamState(), cfg)


def test_adam_trajectory_matches_reference():
    # five steps on a fixed gradient sequence vs an independent numpy Adam
    rng = np.random.default_rng(0)
    cfg = TrainConfig(learning_rate=3e-2, adam_eps=1e-6, weight_decay=0.02,
                      beta1=0.9, beta2=0.999)
    theta0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]

    p = {"w.weight": Tensor(theta0.copy(), requires_grad=True)}
    state = AdamState()
    for g in grads:
        p["w.weight"].grad = g.copy()
        adam_step(p, state, cfg)
        p["w.weight"].grad = None

    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        theta = theta - (cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
                         + cfg.learning_rate * cfg.weight_decay * theta)
    np.testing.assert_allclose(p["w.weight"].data, theta, atol=1e-12)


def test_clip_grad_norm():
    p = {"a.weight": tensor_with_grad([0.0], [3.0]),
         "b.weight": tensor_with_grad([0.0], [4.0])}
    norm = clip_grad_norm(p, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert p["a.weight"].grad[0] == pytest.approx(0.6)
    assert p["b.weight"].grad[0] == pytest.approx(0.8)
    # under the ceiling: untouched, norm still reported
    p2 = {"a.weight": tensor_with_grad([0.0], [0.3])}
    norm2 = clip_grad_norm(p2, max_norm=1.0)
    assert norm2 == pytest.approx(0.3)
    assert p2["a.weight"].grad[0] == 0.3


def test_clip_grad_norm_rejects_an_overflowing_norm():
    # finite gradients whose squared sum overflows: scaling by max_norm / inf
    # would zero every one of them, and Adam would step on the zeros
    p = {"a.weight": tensor_with_grad([0.0, 0.0, 0.0], [1e160, -2e160, 3.0])}
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="gradient norm"):
        clip_grad_norm(p, max_norm=1.0)
    np.testing.assert_array_equal(p["a.weight"].grad, [1e160, -2e160, 3.0])


def test_rng_streams_are_deterministic_and_independent():
    assert STREAMS == ("init", "shuffle", "mask", "dropout")
    a = rng_streams(7)
    b = rng_streams(7)
    for name in STREAMS:
        np.testing.assert_array_equal(a[name].random(8), b[name].random(8))
    # draining one stream leaves the others' draws unchanged
    c = rng_streams(7)
    c["shuffle"].random(10_000)
    d = rng_streams(7)
    np.testing.assert_array_equal(c["mask"].random(8), d["mask"].random(8))
    # different seeds give different draws
    e = rng_streams(8)
    assert not np.array_equal(e["init"].random(8), d["init"].random(8))


# ---------------------------------------------------------------------------
# training loops (small configs throughout)


@pytest.fixture(scope="module")
def small():
    lines = [f"the {a} {v} the {b} ." for a in ("cat", "dog", "bird")
             for v in ("sees", "wants") for b in ("rain", "ball")]
    tok = bpe_train(lines, 280)
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                      max_seq_len=16, vocab_size=tok.size, dropout=0.0,
                      lstm_units=4, d_proj=8)
    return lines, tok, cfg


def labeled(lines):
    return [LabeledExample(id=str(i), text=t, target=i % 2)
            for i, t in enumerate(lines)]


def test_pretrain_is_seed_deterministic(small):
    lines, tok, cfg = small
    tc = TrainConfig(batch_size=4, epochs=2, learning_rate=1e-3, seed=5)
    p1, log1 = pretrain_mlm(lines, tok, cfg, tc)
    p2, log2 = pretrain_mlm(lines, tok, cfg, tc)
    assert [r["loss"] for r in log1.records] == [r["loss"] for r in log2.records]
    for k in p1:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)

    p3, log3 = pretrain_mlm(lines, tok, cfg,
                            TrainConfig(batch_size=4, epochs=2,
                                        learning_rate=1e-3, seed=6))
    assert [r["loss"] for r in log3.records] != [r["loss"] for r in log1.records]


def test_pretrain_resamples_masks_each_batch(small, monkeypatch):
    # one dynamic_mask and one collate_mlm call a step, both from training
    # and both given that step's sequences: the draw stays where the
    # benchmark's encoder.mask span wraps it
    lines, tok, cfg = small
    calls = []
    import figlang.training as tr
    real_mask, real_collate = tr.dynamic_mask, tr.collate_mlm

    def mask_spy(seqs, rng, vocab):
        out = real_mask(seqs, rng, vocab)
        calls.append(("mask", seqs, out))
        return out

    def collate_spy(seqs, outcome):
        calls.append(("collate", seqs, outcome))
        return real_collate(seqs, outcome)

    monkeypatch.setattr(tr, "dynamic_mask", mask_spy)
    monkeypatch.setattr(tr, "collate_mlm", collate_spy)
    tc = TrainConfig(batch_size=len(lines), epochs=4, learning_rate=1e-4, seed=0)
    _, log = pretrain_mlm(lines, tok, cfg, tc)
    encoded = sorted(s.tobytes() for s in (encode(tok, line, cfg.max_seq_len)
                                           for line in lines) if len(s) > 2)
    assert len(calls) == 2 * len(log.records) == 8
    by_seq = {}
    for (kind_m, seqs, out), (kind_c, seqs_c, out_c) in zip(calls[::2], calls[1::2]):
        assert (kind_m, kind_c) == ("mask", "collate")
        assert seqs_c is seqs and out_c is out
        assert sorted(s.tobytes() for s in seqs) == encoded     # one batch a step
        ends = np.cumsum([len(s) for s in seqs])
        for seq, start, end in zip(seqs, ends - [len(s) for s in seqs], ends):
            mine = (out.rows >= start) & (out.rows < end)
            by_seq.setdefault(seq.tobytes(), []).append(
                (tuple(out.rows[mine] - start), tuple(out.replacement_ids[mine])))
    # same sequence, four epochs: the draws must not repeat wholesale
    assert all(len(v) == 4 for v in by_seq.values())
    changed = sum(len(set(v)) > 1 for v in by_seq.values())
    assert changed >= len(by_seq) - 1


def test_pretrain_loss_drops(small):
    lines, tok, cfg = small
    tc = TrainConfig(batch_size=4, epochs=8, learning_rate=1e-3, seed=1)
    _, log = pretrain_mlm(lines, tok, cfg, tc)
    first = np.mean([r["loss"] for r in log.records[:3]])
    last = np.mean([r["loss"] for r in log.records[-3:]])
    assert last < first


def test_pretrain_rejects_empty_and_mismatched(small):
    lines, tok, cfg = small
    with pytest.raises(DataError):
        pretrain_mlm([""], tok, cfg, TrainConfig())
    bad_cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                          max_seq_len=16, vocab_size=999, dropout=0.0,
                          lstm_units=4, d_proj=8)
    with pytest.raises(DataError):
        pretrain_mlm(lines, tok, bad_cfg, TrainConfig())


def train_on(train, lines, tok, cfg, tc, **kwargs):
    """Run the named trainer on the small corpus (finetune labels it)."""
    if train == "pretrain":
        return pretrain_mlm(lines, tok, cfg, tc, **kwargs)
    return finetune(labeled(lines), tok, cfg, tc, **kwargs)


@pytest.mark.parametrize("train", ["pretrain", "finetune"])
def test_max_steps_caps_exactly(small, train):
    lines, tok, cfg = small   # 12 lines
    tc = TrainConfig(batch_size=4, epochs=50, learning_rate=1e-3, seed=2,
                     max_steps=7)
    _, log = train_on(train, lines, tok, cfg, tc)
    assert len(log.records) == 7
    assert log.records[-1]["step"] == 7
    # a cap inside the second epoch, after a partial trailing batch
    tc = TrainConfig(batch_size=5, epochs=50, learning_rate=1e-3, seed=2,
                     max_steps=4)
    _, log = train_on(train, lines, tok, cfg, tc)
    assert [r["step"] for r in log.records] == [1, 2, 3, 4]
    assert [r["epoch"] for r in log.records] == [0, 0, 0, 1]


@pytest.mark.parametrize("train", ["pretrain", "finetune"])
def test_partial_trailing_batch_is_trained(small, train):
    lines, tok, cfg = small   # 12 lines
    tc = TrainConfig(batch_size=5, epochs=1, learning_rate=1e-3, seed=3)
    _, log = train_on(train, lines, tok, cfg, tc)
    assert len(log.records) == 3    # 5 + 5 + 2


def test_trainlog_jsonl_mirror(tmp_path, small):
    lines, tok, cfg = small
    path = tmp_path / "log.jsonl"
    tc = TrainConfig(batch_size=6, epochs=1, learning_rate=1e-3, seed=4)
    _, log = pretrain_mlm(lines, tok, cfg, tc, log=TrainLog(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == log.records
    assert [r["step"] for r in rows] == [1, 2]
    assert all(set(r) == {"step", "epoch", "loss"} for r in rows)


@pytest.mark.parametrize("train", ["pretrain", "finetune"])
def test_trainlog_closed_when_training_raises(tmp_path, small, monkeypatch, train):
    lines, tok, cfg = small
    tc = TrainConfig(batch_size=6, epochs=1, learning_rate=1e-3, seed=4)
    log = TrainLog(tmp_path / "log.jsonl")
    fh = log._fh

    def boom(*args, **kwargs):
        raise RuntimeError("optimizer failed")
    monkeypatch.setattr(training, "adam_step", boom)
    with pytest.raises(RuntimeError, match="optimizer failed"):
        train_on(train, lines, tok, cfg, tc, log=log)
    assert fh.closed


@pytest.mark.parametrize("train", ["pretrain", "finetune"])
def test_previous_step_graph_is_freed_before_next_forward(small, monkeypatch, train):
    # with the cycle collector off, only reference counting can free the
    # previous step's graph; it must be gone when the next forward starts
    lines, tok, cfg = small
    tc = TrainConfig(batch_size=4, epochs=1, learning_rate=1e-3, seed=4)
    name = "mlm_forward" if train == "pretrain" else "full_forward"
    real = getattr(training, name)
    refs, alive_at_start = [], []

    def spy(*args, **kwargs):
        alive_at_start.append(bool(refs) and refs[-1]() is not None)
        out = real(*args, **kwargs)
        refs.append(weakref.ref((out[0] if train == "pretrain" else out).data))
        return out
    monkeypatch.setattr(training, name, spy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train_on(train, lines, tok, cfg, tc)
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) == 3
    assert alive_at_start == [False, False, False]


def test_finetune_determinism_and_learning(small):
    lines, tok, cfg = small
    examples = labeled(lines)
    tc = TrainConfig(batch_size=6, epochs=10, learning_rate=1e-3, seed=0)
    p1, log1 = finetune(examples, tok, cfg, tc)
    p2, log2 = finetune(examples, tok, cfg, tc)
    assert [r["loss"] for r in log1.records] == [r["loss"] for r in log2.records]
    for k in p1:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)
    assert log1.records[-1]["loss"] < log1.records[0]["loss"]


def test_finetune_freeze_encoder(small):
    lines, tok, cfg = small
    examples = labeled(lines)
    from figlang.rcnn import init_model_params
    start = init_model_params(cfg, np.random.default_rng(0))
    snapshot = {k: t.data.copy() for k, t in start.items()}
    tc = TrainConfig(batch_size=6, epochs=2, learning_rate=1e-3, seed=0,
                     freeze_encoder=True)
    params, _ = finetune(examples, tok, cfg, tc, params=start)
    for k, t in params.items():
        if k in head_param_shapes(cfg):
            assert not np.array_equal(t.data, snapshot[k]), k
        else:
            np.testing.assert_array_equal(t.data, snapshot[k])


def test_frozen_finetune_leaves_no_trace(small):
    # a later finetune on the same params, unfrozen, trains the encoder too
    lines, tok, cfg = small
    examples = labeled(lines)
    from figlang.rcnn import init_model_params
    params = init_model_params(cfg, np.random.default_rng(0))
    frozen = TrainConfig(batch_size=6, epochs=1, learning_rate=1e-3, seed=0,
                         freeze_encoder=True)
    finetune(examples, tok, cfg, frozen, params=params)
    assert all(t.requires_grad for t in params.values())
    snapshot = {k: t.data.copy() for k, t in params.items()}
    tc = TrainConfig(batch_size=6, epochs=1, learning_rate=1e-3, seed=0)
    finetune(examples, tok, cfg, tc, params=params)
    encoder_weights = [k for k in params
                       if k not in head_param_shapes(cfg) and k.endswith(".weight")]
    for k in encoder_weights:
        assert not np.array_equal(params[k].data, snapshot[k]), k


def test_finetune_regression_targets(small):
    lines, tok, cfg = small
    from figlang.config import REGRESSION
    rcfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                       max_seq_len=16, vocab_size=tok.size, dropout=0.0,
                       lstm_units=4, d_proj=8, task_head=REGRESSION)
    examples = [LabeledExample(id=str(i), text=t, target=float((-1) ** i) * 2.0)
                for i, t in enumerate(lines)]
    tc = TrainConfig(batch_size=6, epochs=10, learning_rate=1e-3, seed=0)
    _, log = finetune(examples, tok, rcfg, tc)
    assert log.records[-1]["loss"] < log.records[0]["loss"]


def test_finetune_empty_set_rejected(small):
    _, tok, cfg = small
    with pytest.raises(DataError):
        finetune([], tok, cfg, TrainConfig())


def test_nonfinite_loss_aborts(small):
    lines, tok, cfg = small
    from figlang.rcnn import init_model_params
    params = init_model_params(cfg, np.random.default_rng(0))
    params["out.bias"].data[:] = np.nan
    with pytest.raises(NumericError, match="loss"):
        finetune(labeled(lines), tok, cfg, TrainConfig(batch_size=4),
                 params=params)


def test_loss_drops_in_first_epoch_across_seeds(small):
    # one epoch on a tiny model: the last batch of the epoch should already
    # beat the first for nearly every seed
    lines, tok, cfg = small
    examples = labeled(lines)
    wins = 0
    seeds = range(10)
    for seed in seeds:
        tc = TrainConfig(batch_size=3, epochs=1, learning_rate=1e-3, seed=seed)
        _, log = finetune(examples, tok, cfg, tc)
        if log.records[-1]["loss"] < log.records[0]["loss"]:
            wins += 1
    assert wins >= 9
