"""Recurrent-convolutional classification head over encoder hidden states.

A BiLSTM contextualizes the final hidden states. Each of its two sweeps is
an `autodiff.linear` node (the input projection of every token, as one
GEMM) and a fused `autodiff.lstm` node (the recurrence, with a hand-written
backward through time). Its output is concatenated per token with those
states, pushed through a shared token-wise affine + tanh (a width-1
"convolution" over the full feature stack, one fused `autodiff.linear`
node), max-pooled over each text's tokens, and mapped by a second `linear`
node to two logits (binary head) or one linear unit (regression head,
clamped to the score range at predict time). Like the encoder's, every
state here is the (N, ·) rows of a batch's real tokens (`x[mask]`,
row-major): only `lstm` and `max_over_time` lay them out in time, inside
their nodes.

`model_param_shapes` is the model's one parameter table: the encoder's
parameters, then the head's. Initialization, the encoder freeze, the
cross-task head redraw and weight decay all read their policy from it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import TokenizerModel, encode, pad_batch
from .config import ModelConfig, BINARY, SCORE_MAX, SCORE_MIN
from .encoder import encoder_forward, encoder_param_shapes

INIT_STD = 0.02


def head_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every head parameter, in initialization order. A
    parameter belongs to the head exactly when its name is a key here."""
    d, u = cfg.d_model, cfg.lstm_units
    shapes = {}
    for direction in ("fw", "bw"):
        shapes[f"lstm.{direction}.w_in.weight"] = (d, 4 * u)
        shapes[f"lstm.{direction}.w_rec.weight"] = (u, 4 * u)
        shapes[f"lstm.{direction}.bias"] = (4 * u,)
    shapes["proj.weight"] = (d + 2 * u, cfg.d_proj)
    shapes["proj.bias"] = (cfg.d_proj,)
    shapes["out.weight"] = (cfg.d_proj, cfg.n_outputs)
    shapes["out.bias"] = (cfg.n_outputs,)
    return shapes


def model_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model parameter: encoder, then head."""
    return {**encoder_param_shapes(cfg), **head_param_shapes(cfg)}


def init_params(shapes: dict[str, tuple[int, ...]],
                rng: np.random.Generator) -> dict[str, Tensor]:
    """One trainable tensor per name, in order, drawn by its suffix:
    `.weight` ~ normal(0, 0.02) (a `.qkv.weight` as its q, k and v blocks
    in turn), `.gain` ones, biases zero but the forget gate quarter of an
    LSTM bias, which starts open at one."""
    p: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith(".qkv.weight"):
            data = np.hstack([rng.normal(0.0, INIT_STD, size=(shape[0], shape[0]))
                              for _ in "qkv"])
        elif name.endswith(".weight"):
            data = rng.normal(0.0, INIT_STD, size=shape)
        elif name.endswith(".gain"):
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
            if name.startswith("lstm."):
                u = shape[0] // 4
                data[u:2 * u] = 1.0
        p[name] = Tensor(data, requires_grad=True)
    return p


def init_model_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Encoder and head parameters in one flat, stably ordered dict."""
    return init_params(model_param_shapes(cfg), rng)


def bilstm_forward(params, hidden: Tensor, mask) -> Tensor:
    """(N, d_model) rows -> (N, 2*units), units fixed by the LSTM weights:
    forward and backward sweeps, each an input-projection `ad.linear` node
    and a fused `ad.lstm` node, concatenated per token. A padded step hands
    a zero state on, so no text's state reaches another's."""
    fw, bw = (ad.lstm(ad.linear(hidden, params[f"lstm.{d}.w_in.weight"],
                                params[f"lstm.{d}.bias"]),
                      params[f"lstm.{d}.w_rec.weight"], mask, reverse=d == "bw")
              for d in ("fw", "bw"))
    return ad.concat([fw, bw])


def rcnn_forward(params, hidden: Tensor, lstm_out: Tensor, mask) -> Tensor:
    """Concat -> token-wise affine + tanh -> max over each text's rows ->
    output layer."""
    feats = ad.concat([hidden, lstm_out])
    z = ad.tanh(ad.linear(feats, params["proj.weight"], params["proj.bias"]))
    pooled = ad.max_over_time(z, mask)
    return ad.linear(pooled, params["out.weight"], params["out.bias"])


def full_forward(params, cfg: ModelConfig, ids, mask, *, rng=None) -> Tensor:
    """Encoder -> BiLSTM -> RCNN head; logits (B, 2) or scores (B, 1).

    Dropout runs exactly when `rng` is given: in the encoder and on the
    BiLSTM's input and output; the concat keeps the raw encoder states.
    """
    h = encoder_forward(params, cfg, ids, mask, rng=rng)
    lstm_out = bilstm_forward(params, ad.dropout(h, cfg.dropout, rng), mask)
    return rcnn_forward(params, h, ad.dropout(lstm_out, cfg.dropout, rng), mask)


def predict(params, cfg: ModelConfig, tokenizer: TokenizerModel,
            texts: list[str], batch_size: int = 32) -> list[dict]:
    """Per-text prediction records: {"text", "label", "probs"} for the binary
    head, {"text", "score"} (clamped to the score range) for regression.

    The forward pass runs on untracked tensors that share the parameter
    arrays, so no op records a backward graph and `params` is left as it is.
    """
    params = {name: Tensor(p.data) for name, p in params.items()}
    results = []
    for start in range(0, len(texts), batch_size):
        chunk = texts[start:start + batch_size]
        ids, mask = pad_batch([encode(tokenizer, t, cfg.max_seq_len) for t in chunk])
        out = full_forward(params, cfg, ids, mask)
        if cfg.task_head == BINARY:
            probs = ad.softmax(out).data
            labels = probs.argmax(axis=1)          # ties resolve to class 0
            for text, lab, pr in zip(chunk, labels, probs):
                results.append({"text": text, "label": int(lab),
                                "probs": [float(pr[0]), float(pr[1])]})
        else:
            scores = np.clip(out.data[:, 0], SCORE_MIN, SCORE_MAX)
            for text, s in zip(chunk, scores):
                results.append({"text": text, "score": float(s)})
    return results
