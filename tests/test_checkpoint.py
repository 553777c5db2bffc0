"""Checkpoint round trips, manifest integrity checks, corruption handling."""

import json
from dataclasses import replace

import numpy as np
import pytest

from figlang.bpe import bpe_train, save_tokenizer
from figlang.checkpoint import (DTYPE, FORMAT_VERSION, load_checkpoint,
                                save_checkpoint, sha256_file)
from figlang.config import REGRESSION, ModelConfig, TrainConfig
from figlang.errors import ContractError, DataError, NumericError
from figlang.rcnn import init_model_params

CFG = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq_len=8,
                  vocab_size=280, dropout=0.0, lstm_units=2, d_proj=4)


@pytest.fixture(scope="module")
def tok_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tok") / "tokenizer.json"
    save_tokenizer(bpe_train(["tiny corpus for checkpoint tests"], 280), path)
    return path


def fresh_params(seed=0):
    return init_model_params(CFG, np.random.default_rng(seed))


def test_load_restores_f4_quantized_values(tmp_path, tok_path):
    params = fresh_params()
    out = save_checkpoint(tmp_path / "ckpt", params, model_config=CFG,
                          task="binary", tokenizer_path=tok_path,
                          train_config=TrainConfig(seed=9))
    bundle = load_checkpoint(out)
    assert list(bundle.params) == list(params)
    for k, t in params.items():
        want = t.data.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(bundle.params[k].data, want)
        assert bundle.params[k].data.dtype == np.float64
        assert bundle.params[k].requires_grad
    assert bundle.model_config == CFG
    assert bundle.train_config.seed == 9
    assert bundle.tokenizer_path == out / "tokenizer.json"


def test_save_load_save_is_bit_identical(tmp_path, tok_path):
    a = save_checkpoint(tmp_path / "a", fresh_params(), model_config=CFG,
                        task="binary", tokenizer_path=tok_path)
    bundle = load_checkpoint(a)
    b = save_checkpoint(tmp_path / "b", bundle.params, model_config=CFG,
                        task="binary", tokenizer_path=bundle.tokenizer_path)
    for name in ("weights.bin", "manifest.json", "tokenizer.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_structure(tmp_path, tok_path):
    cfg = replace(CFG, task_head=REGRESSION)
    params = init_model_params(cfg, np.random.default_rng(0))
    out = save_checkpoint(tmp_path / "ckpt", params, model_config=cfg,
                          task="score", tokenizer_path=tok_path)
    man = json.loads((out / "manifest.json").read_text())
    assert man["format_version"] == FORMAT_VERSION == 1
    assert man["dtype"] == DTYPE == "float32-le"
    assert man["task"] == "score"
    assert man["train_config"] is None
    assert man["tokenizer_sha256"] == sha256_file(out / "tokenizer.json")
    assert ModelConfig(**man["model_config"]) == cfg

    names = [e["name"] for e in man["tensors"]]
    assert names == list(params)            # dict order is the pack order
    offset = 0
    for e in man["tensors"]:
        assert e["offset"] == offset
        assert e["nbytes"] == int(np.prod(e["shape"])) * 4
        offset += e["nbytes"]
    assert (out / "weights.bin").stat().st_size == offset


def test_task_that_does_not_match_the_head_writes_nothing(tmp_path, tok_path):
    # load_checkpoint would refuse a "score" label on a binary head
    with pytest.raises(ContractError, match="'score' does not match"):
        save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                        task="score", tokenizer_path=tok_path)
    assert list(tmp_path.iterdir()) == []


def test_tokenizer_tamper_detected(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    tok = out / "tokenizer.json"
    tok.write_text(tok.read_text() + " ")
    with pytest.raises(DataError, match="hash mismatch"):
        load_checkpoint(out)


def test_truncated_weights_detected(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    blob = (out / "weights.bin").read_bytes()
    (out / "weights.bin").write_bytes(blob[:-16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(out)


def test_trailing_bytes_detected(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    with open(out / "weights.bin", "ab") as f:
        f.write(b"\0" * 4)
    with pytest.raises(DataError, match="tensors end at byte"):
        load_checkpoint(out)


def test_shape_that_disagrees_with_nbytes_detected(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    man = json.loads((out / "manifest.json").read_text())
    man["tensors"][0]["shape"][0] += 1
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(DataError, match="bytes, manifest says"):
        load_checkpoint(out)


def _offsets_aliasing_q_into_k(man):
    # k's weight would be read from q's bytes: an overlap, and a gap where
    # k's own bytes sit
    by_name = {e["name"]: e for e in man["tensors"]}
    by_name["layer0.attn.k.weight"]["offset"] = by_name["layer0.attn.q.weight"]["offset"]


def _offset_past_a_gap(man):
    man["tensors"][1]["offset"] += 4


@pytest.mark.parametrize("edit", [_offsets_aliasing_q_into_k, _offset_past_a_gap],
                         ids=["overlap", "gap"])
def test_unpacked_tensor_offsets_rejected(tmp_path, tok_path, edit):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    man = json.loads((out / "manifest.json").read_text())
    edit(man)
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(DataError, match="but the tensor before it ends at byte"):
        load_checkpoint(out)


def test_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_checkpoint(tmp_path)


def test_missing_tokenizer(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    (out / "tokenizer.json").unlink()
    with pytest.raises(DataError, match="tokenizer"):
        load_checkpoint(out)


def test_missing_weights(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    (out / "weights.bin").unlink()
    with pytest.raises(DataError, match="weights.bin"):
        load_checkpoint(out)


def test_unsupported_version_rejected(tmp_path, tok_path):
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    man = json.loads((out / "manifest.json").read_text())
    man["format_version"] = 99
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(DataError, match="format_version"):
        load_checkpoint(out)

    man["format_version"] = 1
    man["dtype"] = "float16-le"
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(DataError, match="dtype"):
        load_checkpoint(out)


def test_resave_into_same_directory(tmp_path, tok_path):
    # saving a loaded bundle back into its own directory must not trip on
    # copying tokenizer.json onto itself
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    before = (out / "weights.bin").read_bytes()
    bundle = load_checkpoint(out)
    save_checkpoint(out, bundle.params, model_config=CFG, task="binary",
                    tokenizer_path=bundle.tokenizer_path)
    assert (out / "weights.bin").read_bytes() == before
    load_checkpoint(out)


def test_interrupted_resave_leaves_no_manifest(tmp_path, tok_path, monkeypatch):
    # a save cut short between weights.bin and manifest.json must not leave
    # the new weights under the old manifest
    from figlang import checkpoint
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(0), model_config=CFG,
                          task="binary", tokenizer_path=tok_path,
                          train_config=TrainConfig(seed=1))

    def interrupted(path):
        raise KeyboardInterrupt
    monkeypatch.setattr(checkpoint, "sha256_file", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(out, fresh_params(1), model_config=CFG, task="binary",
                        tokenizer_path=tok_path, train_config=TrainConfig(seed=2))
    monkeypatch.undo()
    with pytest.raises(DataError, match="no manifest.json"):
        load_checkpoint(out)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_weight_rejected(tmp_path, tok_path, value):
    # training refuses a non-finite loss or gradient, so such a weight can only
    # come from a damaged or edited weights.bin
    out = save_checkpoint(tmp_path / "ckpt", fresh_params(), model_config=CFG,
                          task="binary", tokenizer_path=tok_path)
    man = json.loads((out / "manifest.json").read_text())
    entry = next(e for e in man["tensors"] if e["name"] == "out.bias")
    with open(out / "weights.bin", "r+b") as f:
        f.seek(entry["offset"] + 4)
        f.write(np.array([value], dtype="<f4").tobytes())
    with pytest.raises(DataError, match="tensor 'out.bias' in weights.bin has a non-finite"):
        load_checkpoint(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e300, -1e39, np.nan, np.inf], ids=["1e300", "-1e39", "nan", "inf"])
def test_weight_not_finite_as_float32_writes_nothing(tmp_path, tok_path, value):
    # load_checkpoint would refuse such a tensor, so save refuses it first,
    # without the cast's overflow warning and before any file exists
    params = fresh_params()
    params["out.bias"].data[1] = value
    with pytest.raises(NumericError, match="tensor 'out.bias' has an entry that is not finite"):
        save_checkpoint(tmp_path / "ckpt", params, model_config=CFG, task="binary",
                        tokenizer_path=tok_path)
    assert not (tmp_path / "ckpt").exists()
