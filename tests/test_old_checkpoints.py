"""Format 1 and 2 checkpoints, which store separate q, k and v tensors,
still load, predict and finetune: loading joins each layer's q, k and v in
q | k | v column order. The fixture is a format 2 checkpoint and the
predictions it gave when it was written (see fixtures/README.md)."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from figlang import cli
from figlang.bpe import load_tokenizer
from figlang.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from figlang.rcnn import model_param_shapes, predict

FIXTURES = Path(__file__).parent / "fixtures"
FORMAT2 = FIXTURES / "format2_ckpt"
RECORDS = json.loads((FIXTURES / "format2_records.json").read_text(encoding="utf-8"))


def _manifest(ckpt):
    return json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))


def _write_manifest(ckpt, man):
    (ckpt / "manifest.json").write_text(json.dumps(man), encoding="utf-8")


def _raw_arrays(ckpt):
    """Each tensor of weights.bin as its manifest places it, read directly."""
    blob = (ckpt / "weights.bin").read_bytes()
    return {e["name"]: np.frombuffer(blob[e["offset"]:e["offset"] + e["nbytes"]], "<f4")
            .reshape(e["shape"]).astype(np.float64) for e in _manifest(ckpt)["tensors"]}


def _copy(tmp_path, edit=None):
    ckpt = tmp_path / "old"
    shutil.copytree(FORMAT2, ckpt)
    if edit is not None:
        man = _manifest(ckpt)
        edit(man)
        _write_manifest(ckpt, man)
    return ckpt


def _as_format1(man):
    man["format_version"] = 1
    del man["weights_sha256"]


def _predict(ckpt):
    bundle = load_checkpoint(ckpt)
    return predict(bundle.params, bundle.model_config, load_tokenizer(bundle.tokenizer_path),
                   [r["text"] for r in RECORDS])


def test_fixture_is_format_2_with_separate_q_k_v():
    man = _manifest(FORMAT2)
    names = [e["name"] for e in man["tensors"]]
    assert man["format_version"] == 2 and man["model_config"]["n_layers"] == 2
    for i in range(2):
        for x in "qkv":
            assert f"layer{i}.attn.{x}.weight" in names and f"layer{i}.attn.{x}.bias" in names


@pytest.mark.parametrize("edit", [None, _as_format1], ids=["format2", "format1"])
def test_old_checkpoint_reproduces_its_records(tmp_path, edit):
    assert _predict(_copy(tmp_path, edit)) == RECORDS


def test_resave_writes_format_3_with_the_joined_arrays(tmp_path):
    bundle = load_checkpoint(FORMAT2)
    cfg = bundle.model_config
    new = save_checkpoint(tmp_path / "new", bundle.params, model_config=cfg, task="binary",
                          tokenizer_path=bundle.tokenizer_path)
    man = _manifest(new)
    assert man["format_version"] == FORMAT_VERSION == 3
    assert [e["name"] for e in man["tensors"]] == list(model_param_shapes(cfg))
    old, joined = _raw_arrays(FORMAT2), _raw_arrays(new)
    for name, arr in joined.items():
        if ".attn.qkv." in name:
            want = np.concatenate([old[name.replace(".qkv.", f".{x}.")] for x in "qkv"],
                                  axis=-1)
        else:
            want = old[name]
        np.testing.assert_array_equal(arr, want)
    assert _predict(new) == RECORDS
    # format 3 round trips byte for byte
    again = save_checkpoint(tmp_path / "again", load_checkpoint(new).params, model_config=cfg,
                            task="binary", tokenizer_path=new / "tokenizer.json")
    for f in ("weights.bin", "manifest.json", "tokenizer.json"):
        assert (new / f).read_bytes() == (again / f).read_bytes(), f


def test_finetune_from_an_old_checkpoint_writes_format_3(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text("id\tlabel\ttext\n" + "".join(
        f"{i}\t{i % 2}\t{r['text']}\n" for i, r in enumerate(RECORDS)), encoding="utf-8")
    out = tmp_path / "fine"
    assert cli.main(["finetune", "--train", str(train), "--init", str(FORMAT2),
                     "--out", str(out), "--task", "binary", "--epochs", "1",
                     "--batch-size", "4", "--seed", "0"]) == 0
    man = _manifest(out)
    assert man["format_version"] == 3
    assert [e["name"] for e in man["tensors"]] == list(model_param_shapes(
        load_checkpoint(out).model_config))


def _drop_tensor(ckpt, name):
    """Remove one tensor from a checkpoint, repacking weights.bin and its
    offsets and hash, so that only the missing tensor is wrong."""
    man = _manifest(ckpt)
    blob = (ckpt / "weights.bin").read_bytes()
    kept, parts, offset = [], [], 0
    for e in man["tensors"]:
        if e["name"] != name:
            parts.append(blob[e["offset"]:e["offset"] + e["nbytes"]])
            kept.append({**e, "offset": offset})
            offset += e["nbytes"]
    data = b"".join(parts)
    (ckpt / "weights.bin").write_bytes(data)
    man.update(tensors=kept, weights_sha256=hashlib.sha256(data).hexdigest())
    _write_manifest(ckpt, man)


def _predict_exit(ckpt, tmp_path):
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    return cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])


def test_old_checkpoint_without_a_k_tensor_is_a_data_error(tmp_path, capsys):
    ckpt = _copy(tmp_path)
    _drop_tensor(ckpt, "layer1.attn.k.weight")
    assert _predict_exit(ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "data error" in err and "'layer1.attn.k.weight'" in err


def test_format_3_with_separate_q_k_v_is_a_data_error(tmp_path, capsys):
    ckpt = _copy(tmp_path, lambda man: man.update(format_version=3))
    assert _predict_exit(ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert "do not match its model config" in err and "layer0.attn.q.weight" in err
