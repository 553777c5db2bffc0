"""Checkpoint directories: manifest.json + weights.bin + tokenizer.json.

weights.bin is raw little-endian float32, row-major, tensors packed in the
parameter-dict order recorded by the manifest: each entry's offset is where
the entry before it ends (0 for the first), and loading rejects any other.
Saving refuses, and loading rejects, a weight that is not finite as float32;
loading restores float64 working copies, and save(load(x)) of a format 3
checkpoint is bit-identical to x. The manifest records the sha256 of
tokenizer.json and, from format version 2 on, of weights.bin; loading
rejects a file that does not match.

Format 3 stores each layer's q/k/v projection as one (d, 3d) weight and
(3d,) bias, `layer{i}.attn.qkv.*`. Formats 1 and 2 stored separate q, k and
v tensors, which loading joins in q | k | v column order where q was, so
they still load (version 1 without a weights hash) and save as format 3.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import TASK_NAMES, ModelConfig, TrainConfig
from .errors import ConfigError, ContractError, DataError, NumericError
from .rcnn import model_param_shapes

FORMAT_VERSION = 3
DTYPE = "float32-le"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def save_checkpoint(out_dir, params: dict[str, Tensor], *, model_config: ModelConfig,
                    task: str, tokenizer_path, train_config: TrainConfig | None = None) -> Path:
    if TASK_NAMES.get(task) != model_config.task_head:
        # load_checkpoint would refuse it: write nothing
        raise ContractError(f"task {task!r} does not match the model's "
                            f"{model_config.task_head!r} head (task -> head: {TASK_NAMES})")
    tensors, blobs, offset = [], [], 0
    weights_sha256 = hashlib.sha256()
    for name, t in params.items():
        with np.errstate(over="ignore", invalid="ignore"):   # checked on the next line
            arr = np.ascontiguousarray(t.data, dtype="<f4")
        if not np.isfinite(arr).all():
            # load_checkpoint would refuse it: write nothing
            raise NumericError(f"tensor {name!r} has an entry that is not finite as float32")
        raw = arr.tobytes()
        tensors.append({"name": name, "shape": list(t.shape),
                        "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        weights_sha256.update(raw)
        offset += len(raw)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the manifest is the commit marker: written last, after the old one is
    # gone, so a save cut short leaves no manifest rather than a mixed checkpoint
    (out / "manifest.json").unlink(missing_ok=True)

    tok_dst = out / "tokenizer.json"
    src = Path(tokenizer_path)
    if src.resolve() != tok_dst.resolve():
        shutil.copyfile(src, tok_dst)
    with open(out / "weights.bin", "wb") as f:
        for raw in blobs:
            f.write(raw)

    manifest = {
        "format_version": FORMAT_VERSION,
        "dtype": DTYPE,
        "task": task,
        "model_config": asdict(model_config),
        "train_config": asdict(train_config) if train_config is not None else None,
        "tokenizer_sha256": sha256_file(tok_dst),
        "weights_sha256": weights_sha256.hexdigest(),
        "tensors": tensors,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return out


@dataclass
class CheckpointBundle:
    params: dict[str, Tensor]
    model_config: ModelConfig
    train_config: TrainConfig | None
    tokenizer_path: Path


def _naturals(xs) -> bool:
    # type(), not isinstance: JSON true and false load as bools, ints equal to 1 and 0
    return isinstance(xs, list) and all(type(n) is int and n >= 0 for n in xs)


def _check_fields(manifest: dict) -> None:
    """The manifest fields `load_checkpoint` reads, with the types it needs."""
    for key, kind in (("task", str), ("model_config", dict), ("tensors", list)):
        if not isinstance(manifest.get(key), kind):
            raise DataError(f"checkpoint manifest field {key!r} is missing or not a {kind.__name__}")
    if not isinstance(manifest.get("train_config"), (dict, type(None))):
        raise DataError("checkpoint manifest field 'train_config' is not an object")
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _naturals(entry.get("shape"))
                and _naturals([entry.get("offset"), entry.get("nbytes")])):
            raise DataError(f"malformed checkpoint tensor entry: {entry!r}")
    names = [entry["name"] for entry in manifest["tensors"]]
    if len(set(names)) != len(names):
        raise DataError("checkpoint manifest names a tensor twice")


def check_params(params: dict[str, Tensor], cfg: ModelConfig) -> None:
    """The tensors must be exactly those the model config calls for."""
    want = model_param_shapes(cfg)
    got = {name: t.shape for name, t in params.items()}
    if got == want:
        return
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    wrong = sorted(n for n in want.keys() & got.keys() if want[n] != got[n])
    raise DataError("checkpoint tensors do not match its model config: "
                    f"missing {missing}, unexpected {extra}, wrong shape {wrong}")


def _join_qkv(params: dict[str, Tensor], version: int) -> dict[str, Tensor]:
    """A format 1 or 2 checkpoint's q, k and v tensors of each layer, joined
    in q | k | v column order where the q tensor was."""
    joined = {}
    for name, t in params.items():
        if ".attn.k." in name or ".attn.v." in name:
            continue
        if ".attn.q." in name:
            parts = [name.replace(".attn.q.", f".attn.{x}.") for x in "qkv"]
            missing = [n for n in parts if n not in params]
            if missing:
                raise DataError(f"format {version} checkpoint has {name!r} but no {missing[0]!r}")
            name = name.replace(".attn.q.", ".attn.qkv.")
            t = Tensor(np.concatenate([params[n].data for n in parts], axis=-1),
                       requires_grad=True)
        joined[name] = t
    return joined


def load_checkpoint(ckpt_dir) -> CheckpointBundle:
    root = Path(ckpt_dir)
    man_path = root / "manifest.json"
    if not man_path.is_file():
        raise DataError(f"not a checkpoint directory (no manifest.json): {root}")
    try:
        manifest = json.loads(man_path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataError(f"{man_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{man_path} is not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):   # not a bool
        raise DataError(f"unsupported checkpoint format_version: {version!r}")
    if manifest.get("dtype") != DTYPE:
        raise DataError(f"unsupported checkpoint dtype: {manifest.get('dtype')!r}")
    _check_fields(manifest)

    tok_path = root / "tokenizer.json"
    if not tok_path.is_file():
        raise DataError(f"checkpoint missing tokenizer.json: {root}")
    got = sha256_file(tok_path)
    want = manifest.get("tokenizer_sha256")
    if got != want:
        raise DataError(f"tokenizer hash mismatch: manifest says {want}, file is {got}")

    weights_path = root / "weights.bin"
    if not weights_path.is_file():
        raise DataError(f"checkpoint missing weights.bin: {root}")
    blob = weights_path.read_bytes()
    params: dict[str, Tensor] = {}
    end = 0
    for entry in manifest["tensors"]:
        n = entry["nbytes"]
        start = entry["offset"]
        if start != end:
            raise DataError(f"tensor {entry['name']!r} starts at byte {start}, "
                            f"but the tensor before it ends at byte {end}")
        want = 4 * int(np.prod(entry["shape"]))
        if n != want:
            raise DataError(f"tensor {entry['name']!r}: shape {entry['shape']} needs "
                            f"{want} bytes, manifest says {n}")
        end = start + n
        raw = blob[start:end]
        if len(raw) != n:
            raise DataError(f"weights.bin truncated at tensor {entry['name']!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise DataError(f"tensor {entry['name']!r} in weights.bin has a non-finite entry")
        params[entry["name"]] = Tensor(arr.astype(np.float64), requires_grad=True)
    if len(blob) != end:
        raise DataError(f"weights.bin is {len(blob)} bytes but its tensors end at byte {end}")
    if version >= 2:
        got, want = hashlib.sha256(blob).hexdigest(), manifest.get("weights_sha256")
        if got != want:
            raise DataError(f"weights.bin hash mismatch: manifest says {want}, file is {got}")
    if version < 3:
        params = _join_qkv(params, version)

    try:
        model_config = ModelConfig(**manifest["model_config"])
        tc = manifest.get("train_config")
        train_config = TrainConfig(**tc) if tc else None
        check_params(params, model_config)
    except (TypeError, ConfigError) as e:
        raise DataError(f"{man_path}: bad model or train config: {e}") from None
    task = manifest["task"]
    if TASK_NAMES.get(task) != model_config.task_head:
        raise DataError(f"{man_path}: task {task!r} does not match the model's "
                        f"{model_config.task_head!r} head (task -> head: {TASK_NAMES})")
    return CheckpointBundle(params, model_config, train_config, tok_path)
