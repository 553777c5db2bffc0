"""Command-line interface.

Subcommands: bpe-train, pretrain, finetune, evaluate, predict, gradcheck,
baseline-nbsvm. A subcommand only does its work; `main` does the rest. All
but predict and gradcheck return a run record, which `main` writes as a JSON
run manifest (argv, config, seed, input paths, output hashes, timestamps)
next to their primary artifact, or wherever --manifest points.

`main` maps every fault to an exit code: 0 success, 1 usage or configuration
error, 2 data error (including unreadable, non-UTF-8 or unwritable files),
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, toy_corpus
from .bpe import bpe_train, load_tokenizer, save_tokenizer
from .checkpoint import check_params, load_checkpoint, save_checkpoint, sha256_file
from .config import (BINARY, TASK_NAMES, ModelConfig, TrainConfig, paper_scale,
                     toy_scale)
from .data import corpus_lines, load_dataset, read_text, split_lines
from .errors import ConfigError, DataError, FiglangError, NumericError
from .gradsuite import run_suite
from .metrics import classification_metrics, regression_metrics, report_json
from .nbsvm import nbsvm_predict, nbsvm_train, save_nbsvm
from .rcnn import head_param_shapes, init_params, predict as model_predict
from .training import TrainLog, finetune, pretrain_mlm, rng_streams

TASK_LABELS = {v: k for k, v in TASK_NAMES.items()}
PRESETS = {"paper": paper_scale, "toy": toy_scale}

GRAD_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this project reserves 2 for data
    errors, so usage problems are rethrown as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _peak_rss_mib() -> float | None:
    """This process's peak resident set size, or None where the platform
    has no `resource` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _write_run_manifest(args, argv, started, *, manifest, seed, config, inputs,
                        outputs):
    doc = {
        "tool": f"figlang {__version__}",
        "subcommand": args.command,
        "argv": argv,
        "seed": seed,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {str(p): sha256_file(p) for p in outputs if Path(p).is_file()},
        "started": started,
        "finished": _utc_now(),
        "peak_rss_mib": _peak_rss_mib(),
    }
    path = Path(args.manifest or manifest)
    path.parent.mkdir(parents=True, exist_ok=True)
    # written beside the target and renamed over it: a failed or interrupted
    # dump leaves the previous manifest as it was, and no partial file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _resolve_configs(args, tokenizer, base: ModelConfig | None = None
                     ) -> tuple[ModelConfig, TrainConfig]:
    """The one precedence chain of every training command, later wins: the
    base model config (`base`, an --init checkpoint's, else the --preset),
    then the --config file, then the flags. vocab_size is always the
    tokenizer's; a config file that sets another value is a data error."""
    doc: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - {"model", "train"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    if base is None:
        base = PRESETS[args.preset or "paper"]()
    elif args.preset:
        raise ConfigError("--preset does not apply with --init: the checkpoint's "
                          "model config is the base")
    layers = {"model": dataclasses.asdict(base),
              "train": dataclasses.asdict(TrainConfig())}
    for section, kwargs in layers.items():
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object, "
                              f"got {given!r}")
        for key in given:
            if key not in kwargs:
                raise ConfigError(f"unknown {section} config field: {key!r}")
        kwargs.update(given)
        for field in kwargs:        # a flag's dest is the field it sets
            value = getattr(args, field, None)
            if value is not None:
                kwargs[field] = value
    if getattr(args, "task", None):
        layers["model"]["task_head"] = TASK_NAMES[args.task]
    file_vocab = doc.get("model", {}).get("vocab_size", tokenizer.size)
    layers["model"]["vocab_size"] = tokenizer.size

    try:
        model_cfg = ModelConfig(**layers["model"])
        train_cfg = TrainConfig(**layers["train"])
    except TypeError as e:
        raise ConfigError(str(e)) from None
    if file_vocab != tokenizer.size:
        raise DataError(f"config vocab_size={file_vocab} does not match "
                        f"tokenizer ({tokenizer.size} ids)")
    return model_cfg, train_cfg


def _checkpoint_record(out, model_cfg, train_cfg, inputs) -> dict:
    """Run record of a training command that wrote its checkpoint to `out`."""
    files = ("manifest.json", "weights.bin", "tokenizer.json", "train_log.jsonl")
    return dict(manifest=out / "run.json", seed=train_cfg.seed,
                config={"model": dataclasses.asdict(model_cfg),
                        "train": dataclasses.asdict(train_cfg)},
                inputs=inputs, outputs=[out / name for name in files])


@contextlib.contextmanager
def _checkpoint_dir(path):
    """Create the checkpoint directory `path` and yield it with its open
    training log. If the body fails in any way (a FiglangError, a full disk,
    Ctrl-C), whatever this call created is removed again and the exception
    goes on, so a failed run leaves no half-written checkpoint. A directory
    that existed before is not removed."""
    out = Path(path)
    created = next((p for p in reversed([out, *out.parents]) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.closing(TrainLog(out / "train_log.jsonl")) as log:
            yield out, log
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _write_report(path, report) -> Path:
    text = report_json(report)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return out


def _cmd_bpe_train(args):
    lines = corpus_lines(read_text(args.corpus, "corpus"))
    model = bpe_train(lines, args.vocab_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tokenizer(model, out)
    print(f"tokenizer: {model.size} ids ({len(model.merges)} merges) -> {out}")
    return dict(manifest=f"{out}.run.json", seed=None,
                config={"vocab_size": args.vocab_size},
                inputs={"corpus": args.corpus}, outputs=[out])


def _cmd_pretrain(args):
    tokenizer = load_tokenizer(args.tokenizer)
    model_cfg, train_cfg = _resolve_configs(args, tokenizer)
    lines = toy_corpus() if args.corpus == "toy" else corpus_lines(read_text(args.corpus, "corpus"))

    with _checkpoint_dir(args.out) as (out, log):
        params, log = pretrain_mlm(lines, tokenizer, model_cfg, train_cfg, log=log)
        save_checkpoint(out, params, model_config=model_cfg, train_config=train_cfg,
                        task=TASK_LABELS[model_cfg.task_head],
                        tokenizer_path=args.tokenizer)
    first, last = log.records[0]["loss"], log.records[-1]["loss"]
    print(f"pretrained {len(log.records)} steps; loss {first:.4f} -> {last:.4f}; "
          f"checkpoint at {out}")
    return _checkpoint_record(out, model_cfg, train_cfg,
                              {"corpus": args.corpus, "tokenizer": args.tokenizer})


def _cmd_finetune(args):
    start = base = None
    tokenizer_path = args.tokenizer
    if args.init:
        # its embedding rows are indexed by its own tokenizer's ids
        bundle = load_checkpoint(args.init)
        start, base, tokenizer_path = (bundle.params, bundle.model_config,
                                       bundle.tokenizer_path)
    tokenizer = load_tokenizer(tokenizer_path)
    model_cfg, train_cfg = _resolve_configs(args, tokenizer, base)
    if args.init:
        if base.task_head != model_cfg.task_head:
            # head shape may differ across tasks; encoder weights carry over
            start.update(init_params(head_param_shapes(model_cfg),
                                     rng_streams(train_cfg.seed)["init"]))
        try:
            check_params(start, model_cfg)
        except DataError as e:
            raise DataError(f"--init {args.init}: --config or flag values change "
                            f"its tensor shapes; {e}") from None

    dataset = load_dataset(args.train, model_cfg.task_head)
    with _checkpoint_dir(args.out) as (out, log):
        params, log = finetune(dataset.examples, tokenizer, model_cfg, train_cfg,
                               params=start, log=log)
        save_checkpoint(out, params, model_config=model_cfg, train_config=train_cfg,
                        task=args.task, tokenizer_path=tokenizer_path)
    print(f"finetuned {len(log.records)} steps on {len(dataset)} examples; "
          f"final loss {log.records[-1]['loss']:.4f}; checkpoint at {out}")
    return _checkpoint_record(out, model_cfg, train_cfg,
                              {"train": args.train, "tokenizer": str(tokenizer_path),
                               "init": args.init or ""})


def _evaluate_checkpoint(bundle, dataset):
    tokenizer = load_tokenizer(bundle.tokenizer_path)
    texts = [ex.text for ex in dataset]
    records = model_predict(bundle.params, bundle.model_config, tokenizer, texts)
    if bundle.model_config.task_head == BINARY:
        preds = [r["label"] for r in records]
        scores = [r["probs"][1] for r in records]
        golds = [int(ex.target) for ex in dataset]
        return classification_metrics(preds, golds, scores=scores)
    preds = [r["score"] for r in records]
    golds = [float(ex.target) for ex in dataset]
    return regression_metrics(preds, golds)


def _cmd_evaluate(args):
    bundle = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.test, bundle.model_config.task_head)
    out = _write_report(args.report, _evaluate_checkpoint(bundle, dataset))
    return dict(manifest=f"{out}.run.json", seed=None,
                config={"checkpoint": str(args.checkpoint)},
                inputs={"test": args.test, "checkpoint": str(args.checkpoint)},
                outputs=[out])


def _cmd_predict(args):
    bundle = load_checkpoint(args.checkpoint)
    tokenizer = load_tokenizer(bundle.tokenizer_path)
    # every line, blank ones too, so output record N answers input line N
    texts = split_lines(read_text(args.input, "input") if args.input
                        else sys.stdin.read())
    records = model_predict(bundle.params, bundle.model_config, tokenizer, texts)
    for rec in records:
        sys.stdout.write(json.dumps(rec) + "\n")


def _cmd_gradcheck(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    worst = run_suite(args.seeds)
    print(f"max relative error: {worst:.3e} over {args.seeds} seeds "
          f"(tolerance {GRAD_TOL:.0e})")
    if not (worst < GRAD_TOL):
        raise NumericError(f"gradient check failed: {worst:.3e} >= {GRAD_TOL:.0e}")


def _cmd_baseline_nbsvm(args):
    train_set = load_dataset(args.train, BINARY)
    test_set = load_dataset(args.test, BINARY)
    model = nbsvm_train(train_set.examples, alpha=args.alpha, lr=args.lr,
                        epochs=args.epochs, batch_size=args.batch_size,
                        seed=args.seed)
    labels, scores = nbsvm_predict(model, [ex.text for ex in test_set])
    golds = [int(ex.target) for ex in test_set]
    outputs = []
    if args.model_out:
        # before the report, so a model that cannot be saved leaves no report
        model_out = Path(args.model_out)
        model_out.parent.mkdir(parents=True, exist_ok=True)
        save_nbsvm(model_out, model)
        outputs.append(model_out)
    out = _write_report(args.report, classification_metrics(labels, golds, scores=scores))
    return dict(manifest=f"{out}.run.json", seed=args.seed,
                config={"alpha": args.alpha, "lr": args.lr, "epochs": args.epochs,
                        "batch_size": args.batch_size},
                inputs={"train": args.train, "test": args.test}, outputs=[out, *outputs])


def _add_config_flags(p, *, with_task=False):
    d = TrainConfig()
    m = ModelConfig()
    p.add_argument("--config", help="JSON file with {'model': {...}, 'train': {...}}")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help=f"base model size (default: paper = {m.n_layers} layers, "
                        f"{m.n_heads} heads, {m.lstm_units} LSTM units, "
                        f"dropout {m.dropout})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master random seed (default {d.seed})")
    p.add_argument("--epochs", type=int, default=None,
                   help=f"training epochs (default {d.epochs})")
    p.add_argument("--batch-size", type=int, default=None,
                   help=f"examples per step (default {d.batch_size})")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                   help=f"Adam learning rate (default {d.learning_rate}; "
                        f"eps {d.adam_eps}, weight decay {d.weight_decay})")
    p.add_argument("--max-steps", type=int, default=None,
                   help="stop after this many optimizer steps")
    p.add_argument("--grad-clip", dest="grad_clip_norm", metavar="GRAD_CLIP",
                   type=float, default=None,
                   help="global gradient-norm ceiling (default: off)")
    p.add_argument("--max-seq-len", type=int, default=None,
                   help=f"token window including specials (default {m.max_seq_len})")
    if with_task:
        p.add_argument("--task", choices=sorted(TASK_NAMES), required=True,
                       help="binary label or -5..5 score regression")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="figlang", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("bpe-train", help="learn a byte-level BPE tokenizer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_bpe_train)

    p = sub.add_parser("pretrain", help="masked-LM pretraining")
    p.add_argument("--corpus", required=True,
                   help="text file, one sentence per line ('toy' = bundled corpus)")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--manifest")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised training")
    p.add_argument("--train", required=True, help="TSV: id<TAB>label<TAB>text")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--init", help="checkpoint directory to start from: its model "
                                      "config is the base layer (in place of --preset) "
                                      "and its tokenizer is used")
    start.add_argument("--tokenizer", help="tokenizer of a from-scratch run")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--freeze-encoder", action="store_const", const=True, default=None)
    p.add_argument("--manifest")
    _add_config_flags(p, with_task=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled TSV")
    p.add_argument("--test", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True, help="metrics JSON output path")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="JSONL predictions to stdout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", help="text file, one input per line (default: stdin)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seeds", type=int, default=3,
                   help="number of seeds to check (default 3)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("baseline-nbsvm", help="n-gram logistic baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--model-out")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_baseline_nbsvm)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        started = _utc_now()
        record = args.func(args)
        if record is not None:
            _write_run_manifest(args, argv, started, **record)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (DataError, OSError, UnicodeDecodeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except FiglangError as e:
        # internal contract violations surface as data problems
        print(f"error: {e}", file=sys.stderr)
        return 2
