"""Acceptance gate: the eleven properties this package promises.

Each test states its tolerance as a module constant, checks one promised
behavior end to end, and prints a [PASS] line (visible under pytest -s).
Budgeted variants of the training criteria run in seconds; the stated
ceilings are asserted with wall-clock checks.
"""

import dataclasses
import time

import numpy as np

import figlang
from figlang import autodiff as ad
from figlang.autodiff import Tensor
from figlang.bpe import (CLS_ID, N_SPECIALS, PAD_ID, SEP_ID, bpe_train, decode, encode,
                         normalize, pad_batch)
from figlang.config import ModelConfig, TrainConfig, paper_scale, toy_scale
from figlang.data import LabeledExample
from figlang.encoder import dynamic_mask, encoder_forward
from figlang.gradsuite import run_suite
from figlang.metrics import auc, classification_metrics
from figlang.nbsvm import ngrams, nbsvm_predict, nbsvm_train
from figlang.rcnn import bilstm_forward, init_model_params, predict
from figlang.training import finetune, pretrain_mlm

GRAD_TOL = 1e-4          # relative error ceiling, central differences, h=1e-5
GRAD_SEEDS = 20
GRAD_TIME_LIMIT = 120.0  # seconds

PAD_TOL = 1e-9           # padding leakage ceiling at every stage
ATTN_TOL = 1e-9          # attention row-sum deviation ceiling

MASK_TRIALS = 10_000
MASK_DIFFER_FRACTION = 0.99

MLM_SEEDS = 3
MLM_STEPS = 200
MLM_LOSS_RATIO = 0.7     # mean final / mean initial
MLM_INIT_WINDOW = 0.10   # initial loss within 10% of ln(vocab)
MLM_TIME_LIMIT = 300.0

OVERFIT_EPOCH_BUDGET = 200
OVERFIT_TIME_LIMIT = 300.0

AUC_SETS = 1000
CONFUSION_TRIALS = 100
ROUND_TRIP_STRINGS = 1000
NBSVM_RATIO_TOL = 1e-10


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. gradient suite


def _primitive_cases(rng):
    """Tiny differentiable builds, one per public primitive. Constants fold
    random weights in so plateau gradients cannot mask a broken backward."""
    leaf = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    cases = []

    def case(name, build, *tensors):
        cases.append((name, build, list(tensors)))

    a, b = leaf(3, 4), leaf(3, 4)
    case("add", lambda: ad.sum_all(ad.add(a, b)), a, b)
    c = leaf(4)
    case("mul.broadcast", lambda: ad.sum_all(ad.mul(a, c)), a, c)
    m1, m2 = leaf(2, 3, 4), leaf(4, 5)
    case("matmul.batched", lambda: ad.sum_all(ad.matmul(m1, m2)), m1, m2)
    lx, lb5 = leaf(6, 4), leaf(5)
    wlin = Tensor(rng.normal(size=(6, 5)))
    for gelu in (False, True):
        case("linear.gelu" if gelu else "linear",
             lambda gelu=gelu: ad.sum_all(ad.mul(ad.linear(lx, m2, lb5, gelu=gelu), wlin)),
             lx, m2, lb5)

    aqkv = leaf(8, 12)                                  # q | k | v rows of amask
    # lengths 3, 3 and 2: two texts share a score block, one through a hole
    amask = np.array([[True, True, True, False], [True, False, True, True],
                      [True, True, False, False]])
    wat = Tensor(rng.normal(size=(8, 4)))
    case("attention", lambda: ad.sum_all(ad.mul(ad.attention(aqkv, amask, 2), wat)), aqkv)

    x = leaf(3, 5)
    w = Tensor(rng.normal(size=(3, 5)))
    for name, op in (("tanh", ad.tanh), ("sigmoid", ad.sigmoid), ("gelu", ad.gelu)):
        case(name, lambda op=op: ad.sum_all(ad.mul(op(x), w)), x)
    case("softmax", lambda: ad.sum_all(ad.mul(ad.softmax(x), w)), x)

    g, bsh = leaf(5), leaf(5)
    case("layer_norm", lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, bsh), w)),
         x, g, bsh)

    table = leaf(7, 4)
    ids = rng.integers(0, 7, size=6)
    wt = Tensor(rng.normal(size=(6, 4)))
    case("embedding", lambda: ad.sum_all(ad.mul(ad.embedding(table, ids), wt)),
         table)

    rows = leaf(6, 4)
    idx = np.array([0, 2, 2, 5])
    wr = Tensor(rng.normal(size=(4, 4)))
    case("gather_rows", lambda: ad.sum_all(ad.mul(ad.gather_rows(rows, idx), wr)),
         rows)

    r = leaf(2, 6)
    wrs = Tensor(rng.normal(size=(2, 3, 2)))
    case("reshape", lambda: ad.sum_all(ad.mul(ad.reshape(r, (2, 3, 2)), wrs)), r)
    s3 = leaf(2, 3, 4)
    ws = Tensor(rng.normal(size=(2, 4, 3)))
    case("swap_axes", lambda: ad.sum_all(ad.mul(ad.swap_axes(s3, 1, 2), ws)), s3)

    p1, p2 = leaf(2, 3), leaf(2, 2)
    wc = Tensor(rng.normal(size=(2, 5)))
    case("concat", lambda: ad.sum_all(ad.mul(ad.concat([p1, p2]), wc)),
         p1, p2)
    sl = leaf(2, 6)
    wsl = Tensor(rng.normal(size=(2, 3)))
    case("slice_last", lambda: ad.sum_all(ad.mul(ad.slice_last(sl, 1, 4), wsl)), sl)

    ts = leaf(2, 4, 3)
    wts = Tensor(rng.normal(size=(2, 3)))
    case("time_slice", lambda: ad.sum_all(ad.mul(ad.time_slice(ts, 2), wts)), ts)
    wst = Tensor(rng.normal(size=(2, 4, 3)))
    case("stack_time",
         lambda: ad.sum_all(ad.mul(ad.stack_time(
             [ad.time_slice(ts, t) for t in range(4)]), wst)), ts)

    pool_mask = np.array([[True] * 5, [True, True, True, False, False]])
    mt = Tensor(leaf(2, 5, 3).data[pool_mask], requires_grad=True)     # (8, 3) rows
    wm = Tensor(rng.normal(size=(2, 3)))
    case("max_over_time",
         lambda: ad.sum_all(ad.mul(ad.max_over_time(mt, pool_mask), wm)), mt)

    logits = leaf(4, 6)
    targets = rng.integers(0, 6, size=4)
    case("cross_entropy", lambda: ad.cross_entropy(logits, targets), logits)
    pr, gd = leaf(5), Tensor(rng.normal(size=5))
    case("mse_loss", lambda: ad.mse_loss(pr, gd), pr)
    case("sum_all", lambda: ad.sum_all(ad.mul(x, x)), x)

    dx = leaf(4, 6)
    wd = Tensor(rng.normal(size=(4, 6)))
    case("dropout",
         lambda: ad.sum_all(ad.mul(ad.dropout(dx, 0.4, np.random.default_rng(1234)), wd)), dx)

    lz, lw_rec = leaf(3, 4, 8), leaf(2, 8)
    lmask = np.array([[True] * 4, [True, True, True, False], [False, True, False, True]])
    lz = Tensor(lz.data[lmask], requires_grad=True)                    # (9, 8) rows
    wl = Tensor(rng.normal(size=(3, 4, 2))[lmask])
    for rev in (False, True):
        case(f"lstm.{'reverse' if rev else 'forward'}",
             lambda rev=rev: ad.sum_all(ad.mul(ad.lstm(lz, lw_rec, lmask, reverse=rev), wl)),
             lz, lw_rec)
    return cases


def test_c01_gradient_suite():
    t0 = time.monotonic()
    worst_prim = 0.0
    for seed in range(GRAD_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        for name, build, tensors in _primitive_cases(rng):
            err = ad.grad_check(build, tensors, max_coords=3,
                                rng=np.random.default_rng(seed))
            assert err < GRAD_TOL, (name, seed, err)
            worst_prim = max(worst_prim, err)
    worst_model = run_suite(n_seeds=GRAD_SEEDS)
    elapsed = time.monotonic() - t0
    assert worst_model < GRAD_TOL
    assert elapsed < GRAD_TIME_LIMIT
    report(1, f"gradients: primitives {worst_prim:.2e}, full stack "
              f"{worst_model:.2e} < {GRAD_TOL:.0e} over {GRAD_SEEDS} seeds "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. padding invariance


def _random_batch(rng, cfg, lengths):
    """`pad_batch` of random texts with `lengths` content tokens."""
    return pad_batch([np.array([CLS_ID, *rng.integers(N_SPECIALS, cfg.vocab_size, size=n),
                                SEP_ID]) for n in lengths])


def test_c02_padding_invariance():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                      max_seq_len=16, vocab_size=300, dropout=0.0,
                      lstm_units=4, d_proj=8)
    rng = np.random.default_rng(0)
    params = init_model_params(cfg, rng)
    ids, tight = _random_batch(rng, cfg, [9, 4, 6])
    # all-False columns out to max_seq_len: the same texts, padded wider
    wide = np.pad(tight, ((0, 0), (0, cfg.max_seq_len - tight.shape[1])))

    def stages(mask):
        # each layer's output, from an encoder cut after that layer
        layers = [encoder_forward(params, dataclasses.replace(cfg, n_layers=i + 1),
                                  ids, mask) for i in range(cfg.n_layers)]
        h = layers[-1]
        lstm = bilstm_forward(params, h, mask)
        feats = ad.concat([h, lstm])
        z = ad.tanh(ad.add(ad.matmul(feats, params["proj.weight"]),
                           params["proj.bias"]))
        pooled = ad.max_over_time(z, mask)
        return layers, lstm, pooled

    layers_a, lstm_a, pooled_a = stages(tight)
    layers_b, lstm_b, pooled_b = stages(wide)

    worst = 0.0
    for la, lb in zip(layers_a, layers_b):
        worst = max(worst, float(np.abs(la.data - lb.data).max()))
    worst_lstm = float(np.abs(lstm_a.data - lstm_b.data).max())
    worst_pool = float(np.abs(pooled_a.data - pooled_b.data).max())
    assert worst < PAD_TOL
    assert worst_lstm < PAD_TOL
    assert worst_pool < PAD_TOL
    report(2, f"padding leakage: layers {worst:.1e}, lstm {worst_lstm:.1e}, "
              f"pooled {worst_pool:.1e} < {PAD_TOL:.0e}")


# ---------------------------------------------------------------------------
# 3. attention normalization


def test_c03_attention_rows_normalized():
    # each layer's attention on the q and k of the rows it reads, with v = 1:
    # every output entry is one query's weight sum, and padded positions
    # have no row to take weight
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(5):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                          max_seq_len=16, vocab_size=300, dropout=0.0,
                          lstm_units=4, d_proj=8)
        params = init_model_params(cfg, rng)
        lengths = rng.integers(1, 13, size=4).tolist()
        ids, mask = _random_batch(rng, cfg, lengths)
        inputs = [params["embed.token.weight"].data[ids]
                  + params["embed.position.weight"].data[np.nonzero(mask)[1]]]
        inputs += [encoder_forward(params, dataclasses.replace(cfg, n_layers=i), ids,
                                   mask).data for i in range(1, cfg.n_layers)]
        for i, h in enumerate(inputs):
            d = cfg.d_model        # q | k: the first 2d columns of the qkv projection
            qk = (h @ params[f"layer{i}.attn.qkv.weight"].data[:, :2 * d]
                  + params[f"layer{i}.attn.qkv.bias"].data[:2 * d])
            sums = ad.attention(np.concatenate([qk, np.ones((len(h), d))], axis=1),
                                mask, cfg.n_heads).data
            assert sums.shape == (mask.sum(), cfg.d_model)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst <= ATTN_TOL
    report(3, f"attention row sums within {worst:.1e} of 1 "
              f"(tolerance {ATTN_TOL:.0e}); padding takes no row")


# ---------------------------------------------------------------------------
# 4. dynamic masking statistics


def test_c04_dynamic_masking():
    rng = np.random.default_rng(2)
    n_content = 20
    T = n_content + 2
    differ = 0
    for _ in range(MASK_TRIALS):
        ids = np.full(T, PAD_ID, dtype=np.int64)
        ids[0] = CLS_ID
        ids[1:1 + n_content] = rng.integers(N_SPECIALS, 300, size=n_content)
        ids[1 + n_content] = SEP_ID
        seq = ids
        # a batch of the one text: its rows are its positions
        first = dynamic_mask([seq], rng, 300)
        second = dynamic_mask([seq], rng, 300)
        for out in (first, second):
            assert len(out.rows) == 3
            assert all(1 <= p <= n_content for p in out.rows)
            assert len(set(out.rows)) == 3
        if (tuple(first.rows), tuple(first.replacement_ids)) != \
           (tuple(second.rows), tuple(second.replacement_ids)):
            differ += 1
    fraction = differ / MASK_TRIALS
    assert fraction > MASK_DIFFER_FRACTION
    report(4, f"masking: count always 3/20, specials untouched, "
              f"{fraction:.2%} of re-draws differ (> {MASK_DIFFER_FRACTION:.0%})")


# ---------------------------------------------------------------------------
# 5. masked-LM pretraining progress


def test_c05_mlm_pretraining_progress():
    lines = figlang.toy_corpus()
    assert len(lines) == 100
    tok = bpe_train(lines, 280)
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=32, d_ff=64,
                      max_seq_len=16, vocab_size=tok.size, dropout=0.0,
                      lstm_units=4, d_proj=8)
    lnv = np.log(tok.size)
    t0 = time.monotonic()
    initials, finals = [], []
    for seed in range(MLM_SEEDS):
        tc = TrainConfig(batch_size=10, epochs=20, learning_rate=1e-3, seed=seed)
        _, log = pretrain_mlm(lines, tok, cfg, tc)
        assert len(log.records) == MLM_STEPS
        initials.append(log.records[0]["loss"])
        finals.append(log.records[-1]["loss"])
    elapsed = time.monotonic() - t0
    for init in initials:
        assert abs(init - lnv) / lnv < MLM_INIT_WINDOW
    ratio = np.mean(finals) / np.mean(initials)
    assert ratio <= MLM_LOSS_RATIO
    assert elapsed < MLM_TIME_LIMIT
    report(5, f"masked-LM: initial ~ln({tok.size})={lnv:.3f} (within "
              f"{MLM_INIT_WINDOW:.0%}), {MLM_STEPS} steps shrink loss to "
              f"{ratio:.2f}x <= {MLM_LOSS_RATIO}x over {MLM_SEEDS} seeds "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. overfit oracle


def test_c06_overfit_oracle():
    subjects = ["cat", "dog", "bird", "fish"]
    verbs = ["sees", "wants", "finds", "hates"]
    objs = ["rain", "sun", "snow", "ball"]
    pos = [f"oh {s} just {v}" for s in subjects for v in verbs]
    neg = [f"the {s} {v} the {o}" for s, (v, o) in
           zip(subjects * 4, [(v, o) for v in verbs for o in objs[:4]])][:16]
    lines = (pos + neg)[:32]
    assert len(lines) == 32
    tok = bpe_train(lines * 2, 300)
    cfg = toy_scale(vocab_size=tok.size, max_seq_len=16)
    examples = [LabeledExample(id=str(i), text=t, target=1 if i < 16 else 0)
                for i, t in enumerate(lines)]
    epochs = 80
    assert epochs <= OVERFIT_EPOCH_BUDGET
    t0 = time.monotonic()
    tc = TrainConfig(batch_size=10, epochs=epochs, learning_rate=1e-3, seed=0)
    params, _ = finetune(examples, tok, cfg, tc)
    recs = predict(params, cfg, tok, lines)
    elapsed = time.monotonic() - t0
    acc = float(np.mean([r["label"] == e.target for r, e in zip(recs, examples)]))
    assert acc == 1.0
    assert elapsed < OVERFIT_TIME_LIMIT
    report(6, f"overfit: train accuracy {acc} on 32 separable examples in "
              f"{epochs} epochs (budget {OVERFIT_EPOCH_BUDGET}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. metric oracles


def _pairwise_auc(scores, golds):
    pos = scores[golds == 1]
    neg = scores[golds == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _confusion_oracle(preds, golds):
    tp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 0)
    tn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 0)
    fn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 1)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    acc = (tp + tn) / len(preds)
    return tp, fp, tn, fn, acc, prec, rec, f1


def test_c07_metric_oracles():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < AUC_SETS:
        n = int(rng.integers(2, 40))
        golds = rng.integers(0, 2, size=n)
        if golds.min() == golds.max():
            continue
        # quantized scores force tie blocks
        scores = rng.integers(0, 8, size=n) / 7.0
        assert auc(scores, golds) == _pairwise_auc(scores, golds)
        checked += 1

    for _ in range(CONFUSION_TRIALS):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, size=n)
        golds = rng.integers(0, 2, size=n)
        rep = classification_metrics(preds, golds)
        tp, fp, tn, fn, acc, prec, rec, f1 = _confusion_oracle(preds, golds)
        assert (rep["tp"], rep["fp"], rep["tn"], rep["fn"]) == (tp, fp, tn, fn)
        assert rep["accuracy"] == acc
        assert rep["precision"] == prec
        assert rep["recall"] == rec
        assert rep["f1"] == f1

    assert auc([0.9, 0.3, 0.4, 0.2], [1, 1, 0, 0]) == 0.75
    rep = classification_metrics([1, 1, 0, 0], [1, 0, 1, 0])
    assert (rep["precision"], rep["recall"], rep["f1"]) == (0.5, 0.5, 0.5)
    report(7, f"metrics: AUC == pairwise oracle on {AUC_SETS} sets, confusion "
              f"metrics == oracle on {CONFUSION_TRIALS} trials, worked "
              f"examples exact")


# ---------------------------------------------------------------------------
# 8. tokenizer round trip


def test_c08_tokenizer_round_trip():
    tok = bpe_train(["seed corpus for the round trip tokenizer"], 280)
    rng = np.random.default_rng(4)
    checked = 0
    while checked < ROUND_TRIP_STRINGS:
        length = int(rng.integers(0, 25))
        cps = rng.integers(1, 0x110000, size=length)
        cps = [int(c) for c in cps if not (0xD800 <= c <= 0xDFFF)]
        s = "".join(chr(c) for c in cps)
        want = normalize(s)
        seq = encode(tok, want, 256)
        assert decode(tok, seq) == want
        checked += 1

    m = bpe_train(["aaaa"], 260)
    assert m.merges == [(b"a", b"a")]
    m2 = bpe_train(["abab abab"], 300)
    assert m2.merges[:2] == [(b"a", b"b"), (b"ab", b"ab")]
    assert len(encode(m2, "abab", 6)) == 3     # cls + one merged token + sep
    report(8, f"tokenizer: {ROUND_TRIP_STRINGS} random strings decode "
              f"losslessly; merge traces match hand tables")


# ---------------------------------------------------------------------------
# 9. NBSVM baseline


def test_c09_nbsvm_baseline():
    train = [LabeledExample(id="0", text="good good movie", target=1),
             LabeledExample(id="1", text="truly good", target=1),
             LabeledExample(id="2", text="bad movie", target=0),
             LabeledExample(id="3", text="truly bad", target=0)]
    model = nbsvm_train(train, alpha=1.0, epochs=1)
    grams = sorted({g for e in train for g in ngrams(e.text)})
    p = np.ones(len(grams))
    q = np.ones(len(grams))
    for e in train:
        counts = p if e.target == 1 else q
        for g in set(ngrams(e.text)):
            counts[grams.index(g)] += 1.0
    want = np.log((p / p.sum()) / (q / q.sum()))
    got = np.array([model.r[model.vocab[g]] for g in grams])
    worst = float(np.abs(got - want).max())
    assert worst < NBSVM_RATIO_TOL

    pos = [f"oh {w} just {v}" for w in ("great", "wonderful", "perfect", "splendid")
           for v in ("great", "lovely")]
    neg = [f"the {w} was {v}" for w in ("report", "meeting", "train", "memo")
           for v in ("fine", "late")]
    sep_train = [LabeledExample(id=f"p{i}", text=t, target=1)
                 for i, t in enumerate(pos)] + \
                [LabeledExample(id=f"n{i}", text=t, target=0)
                 for i, t in enumerate(neg)]
    fitted = nbsvm_train(sep_train, lr=1e-3, epochs=5)
    labels, _ = nbsvm_predict(fitted, [e.text for e in sep_train])
    acc = float(np.mean(labels == np.array([e.target for e in sep_train])))
    assert acc == 1.0
    report(9, f"nbsvm: ratios within {worst:.1e} of hand counts "
              f"(< {NBSVM_RATIO_TOL:.0e}); separable accuracy 1.0 in 5 epochs")


# ---------------------------------------------------------------------------
# 10. determinism


def test_c10_determinism(tmp_path):
    from figlang.bpe import save_tokenizer
    from figlang.checkpoint import load_checkpoint, save_checkpoint
    from figlang.metrics import report_json

    lines = [f"the {a} {v} the {b} ." for a in ("cat", "dog", "bird")
             for v in ("sees", "wants") for b in ("rain", "ball")]
    tok = bpe_train(lines, 280)
    tok_path = tmp_path / "tok.json"
    save_tokenizer(tok, tok_path)
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                      max_seq_len=16, vocab_size=tok.size, dropout=0.1,
                      lstm_units=4, d_proj=8)
    examples = [LabeledExample(id=str(i), text=t, target=i % 2)
                for i, t in enumerate(lines)]
    tc = TrainConfig(batch_size=6, epochs=4, learning_rate=1e-3, seed=11)

    dirs, reports = [], []
    for run in ("a", "b"):
        params, _ = finetune(examples, tok, cfg, tc)
        out = save_checkpoint(tmp_path / run, params, model_config=cfg,
                              task="binary", tokenizer_path=tok_path,
                              train_config=tc)
        recs = predict(params, cfg, tok, [e.text for e in examples])
        rep = classification_metrics([r["label"] for r in recs],
                                     [e.target for e in examples],
                                     scores=[r["probs"][1] for r in recs])
        reports.append(report_json(rep))
        dirs.append(out)

    a, b = dirs
    assert (a / "weights.bin").read_bytes() == (b / "weights.bin").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert reports[0] == reports[1]

    bundle = load_checkpoint(a)
    resaved = save_checkpoint(tmp_path / "c", bundle.params, model_config=cfg,
                              task="binary", tokenizer_path=bundle.tokenizer_path,
                              train_config=tc)
    for name in ("weights.bin", "manifest.json", "tokenizer.json"):
        assert (a / name).read_bytes() == (resaved / name).read_bytes()
    report(10, "determinism: same seed -> bit-identical checkpoints and "
               "reports; save/load round trip bit-exact")


# ---------------------------------------------------------------------------
# 11. configuration fidelity


def test_c11_configuration_fidelity():
    m = paper_scale()
    t = TrainConfig()
    published = {
        "n_layers": (m.n_layers, 12),
        "n_heads": (m.n_heads, 12),
        "lstm_units": (m.lstm_units, 64),
        "dropout": (m.dropout, 0.1),
        "batch_size": (t.batch_size, 10),
        "adam_eps": (t.adam_eps, 1e-6),
        "epochs": (t.epochs, 5),
        "learning_rate": (t.learning_rate, 2e-5),
        "weight_decay": (t.weight_decay, 1e-5),
    }
    for key, (got, want) in published.items():
        assert got == want, key
    assert dataclasses.asdict(m)["n_layers"] == 12
    assert ModelConfig(**dataclasses.asdict(m)) == m
    report(11, "configuration: paper-scale defaults serialize the published "
               "recipe (12 layers, 12 heads, 64 LSTM units, dropout 0.1, "
               "batch 10, eps 1e-6, epochs 5, lr 2e-5, decay 1e-5)")
