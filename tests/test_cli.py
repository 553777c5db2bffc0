"""End-to-end CLI: the full pipeline in a temp workspace, exit-code
contract, run manifests, and config precedence. All invocations go through
cli.main() in process."""

import io
import json
import shutil
import sys

import numpy as np
import pytest

from figlang import autodiff as ad
from figlang import cli, gradsuite, training
from figlang.checkpoint import sha256_file

TINY_MODEL = {"n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32,
              "max_seq_len": 16, "dropout": 0.0, "lstm_units": 4, "d_proj": 8}

POS = ["oh great, rain again", "what a joy, more delays",
       "sure, love working weekends", "fantastic, the printer died",
       "wonderful, another meeting", "perfect, i needed that spill"]
NEG = ["the train arrives at nine", "please send the report today",
       "lunch is in the fridge", "the meeting moved to room four",
       "it rained for an hour", "the printer needs more paper"]


def tsv(rows):
    return "id\tlabel\ttext\n" + "".join(f"{i}\t{l}\t{t}\n" for i, l, t in rows)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with corpus, datasets, tokenizer, and both checkpoints,
    built once through the CLI itself."""
    root = tmp_path_factory.mktemp("ws")
    corpus = root / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in POS + NEG), encoding="utf-8")

    train = root / "train.tsv"
    train.write_text(tsv([(f"p{i}", 1, t) for i, t in enumerate(POS)]
                         + [(f"n{i}", 0, t) for i, t in enumerate(NEG)]),
                     encoding="utf-8")
    test = root / "test.tsv"
    test.write_text(tsv([("tp0", 1, POS[0]), ("tp1", 1, POS[3]),
                         ("tn0", 0, NEG[0]), ("tn1", 0, NEG[3])]),
                    encoding="utf-8")

    cfg = root / "tiny.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL}), encoding="utf-8")

    tok = root / "tok.json"
    assert cli.main(["bpe-train", "--corpus", str(corpus),
                     "--vocab-size", "280", "--out", str(tok)]) == 0

    pre = root / "pre"
    assert cli.main(["pretrain", "--corpus", str(corpus), "--tokenizer", str(tok),
                     "--out", str(pre), "--config", str(cfg),
                     "--epochs", "2", "--batch-size", "6", "--lr", "1e-3",
                     "--seed", "0"]) == 0

    fine = root / "fine"
    assert cli.main(["finetune", "--train", str(train), "--init", str(pre),
                     "--out", str(fine), "--task", "binary", "--config", str(cfg),
                     "--epochs", "80", "--batch-size", "6", "--lr", "1e-3",
                     "--seed", "0"]) == 0
    return {"root": root, "corpus": corpus, "train": train, "test": test,
            "cfg": cfg, "tok": tok, "pre": pre, "fine": fine}


def test_artifact_inventory(ws):
    for ckpt in (ws["pre"], ws["fine"]):
        for name in ("manifest.json", "weights.bin", "tokenizer.json",
                     "train_log.jsonl", "run.json"):
            assert (ckpt / name).is_file(), (ckpt, name)
    man = json.loads((ws["fine"] / "manifest.json").read_text())
    assert man["task"] == "binary"
    assert man["model_config"]["n_layers"] == 1
    # vocab adopted from the tokenizer, not the config default
    tok_blob = json.loads(ws["tok"].read_text())
    assert man["model_config"]["vocab_size"] == 256 + 4 + len(tok_blob["merges"])


def test_run_manifest_contents(ws):
    run = json.loads((ws["fine"] / "run.json").read_text())
    assert run["subcommand"] == "finetune"
    assert run["seed"] == 0
    assert "--task" in run["argv"] and "binary" in run["argv"]
    assert run["config"]["train"]["learning_rate"] == 1e-3
    assert run["config"]["train"]["epochs"] == 80
    assert run["config"]["model"]["d_model"] == 16
    assert run["inputs"]["train"] == str(ws["train"])
    for path, digest in run["outputs"].items():
        assert sha256_file(path) == digest
    assert run["started"] <= run["finished"]
    assert run["tool"].startswith("figlang ")
    # MiB: a KiB count read as bytes, or bytes read as KiB, lands far outside
    assert 10 < run["peak_rss_mib"] < 100_000


def test_peak_rss_is_null_without_resource(ws, capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)    # import raises
    argv, manifest = MANIFEST_RUNS["evaluate"](ws, tmp_path)
    assert cli.main(["evaluate", *argv]) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text())["peak_rss_mib"] is None


# argv after the subcommand, and where run.json goes without --manifest
MANIFEST_RUNS = {
    "bpe-train": lambda ws, out: (
        ["--corpus", str(ws["corpus"]), "--vocab-size", "280",
         "--out", str(out / "tok.json")], out / "tok.json.run.json"),
    "pretrain": lambda ws, out: (
        ["--corpus", str(ws["corpus"]), "--tokenizer", str(ws["tok"]),
         "--out", str(out), "--config", str(ws["cfg"]), "--epochs", "1"],
        out / "run.json"),
    "finetune": lambda ws, out: (
        ["--train", str(ws["train"]), "--init", str(ws["pre"]), "--out", str(out),
         "--task", "binary", "--config", str(ws["cfg"]), "--epochs", "1"],
        out / "run.json"),
    "evaluate": lambda ws, out: (
        ["--test", str(ws["test"]), "--checkpoint", str(ws["fine"]),
         "--report", str(out / "r.json")], out / "r.json.run.json"),
    "baseline-nbsvm": lambda ws, out: (
        ["--train", str(ws["train"]), "--test", str(ws["test"]),
         "--report", str(out / "r.json"), "--model-out", str(out / "m.json")],
        out / "r.json.run.json"),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_flag_places_run_record(ws, capsys, tmp_path, command):
    argv, default = MANIFEST_RUNS[command](ws, tmp_path / "out")
    manifest = tmp_path / "records" / "run.json"
    assert cli.main([command, *argv, "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert manifest.is_file() and not default.exists()
    run = json.loads(manifest.read_text())
    assert list(run) == ["tool", "subcommand", "argv", "seed", "config", "inputs",
                         "outputs", "started", "finished", "peak_rss_mib"]
    assert run["subcommand"] == command
    assert run["outputs"]
    for path, digest in run["outputs"].items():
        assert sha256_file(path) == digest


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_failed_training_run_removes_the_out_dir_it_made(ws, capsys, tmp_path, command):
    made = tmp_path / "new"
    argv, _ = MANIFEST_RUNS[command](ws, made / "out")
    assert cli.main([command, *argv, "--lr", "1e12", "--epochs", "30"]) == 3
    assert "non-finite training loss" in capsys.readouterr().err
    assert tmp_path.is_dir() and not made.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_failed_training_run_keeps_an_existing_out_dir(ws, capsys, tmp_path, command):
    (tmp_path / "keep.txt").write_text("kept", encoding="utf-8")
    argv, _ = MANIFEST_RUNS[command](ws, tmp_path)
    assert cli.main([command, *argv, "--lr", "1e12", "--epochs", "30"]) == 3
    capsys.readouterr()
    assert (tmp_path / "keep.txt").read_text(encoding="utf-8") == "kept"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_that_overflow_float32_are_not_saved(ws, capsys, tmp_path):
    # one step at lr 1e308 leaves float64 weights near 1e308, past float32's
    # range: saving them would write a checkpoint that every command refuses
    made = tmp_path / "new"
    argv, _ = MANIFEST_RUNS["finetune"](ws, made / "out")
    assert cli.main(["finetune", *argv, "--lr", "1e308", "--max-steps", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: tensor '") and "not finite as float32" in err
    assert tmp_path.is_dir() and not made.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gradient_norm_is_a_numeric_exit(ws, capsys, tmp_path, monkeypatch):
    # finite gradients whose squared sum overflows float64: clipping cannot
    # scale them, so the run stops instead of stepping on zeroed gradients
    def huge_backward(loss):
        ad.backward(loss)
        for t in ad.ComputationGraph.trace(loss).nodes:
            if t.grad is not None:
                t.grad *= 1e160

    monkeypatch.setattr(training, "backward", huge_backward)
    made = tmp_path / "new"
    argv, _ = MANIFEST_RUNS["finetune"](ws, made / "out")
    assert cli.main(["finetune", *argv, "--grad-clip", "1.0", "--max-steps", "1"]) == 3
    assert "numeric failure: non-finite gradient norm: inf" in capsys.readouterr().err
    assert tmp_path.is_dir() and not made.exists()


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   KeyboardInterrupt()], ids=["disk-full", "ctrl-c"])
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_any_failure_removes_the_out_dir_it_made(ws, capsys, tmp_path, monkeypatch,
                                                 command, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "save_checkpoint", fail)

    def run(out):
        argv, _ = MANIFEST_RUNS[command](ws, out)
        if isinstance(error, OSError):
            assert cli.main([command, *argv]) == 2
            assert "No space left on device" in capsys.readouterr().err
        else:
            with pytest.raises(KeyboardInterrupt):
                cli.main([command, *argv])

    made = tmp_path / "new"
    run(made / "out")
    assert tmp_path.is_dir() and not made.exists()
    (tmp_path / "keep.txt").write_text("kept", encoding="utf-8")
    run(tmp_path)
    assert (tmp_path / "keep.txt").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   KeyboardInterrupt()], ids=["disk-full", "ctrl-c"])
def test_failed_manifest_write_keeps_the_previous_one(ws, capsys, tmp_path, monkeypatch,
                                                      error):
    argv, manifest = MANIFEST_RUNS["evaluate"](ws, tmp_path)
    assert cli.main(["evaluate", *argv]) == 0
    before = manifest.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    dumps = json.dumps

    def partial_dump(obj, f, **kwargs):
        # evaluate's only json.dump is its run manifest
        f.write(dumps(obj, **kwargs)[:40])
        raise error

    monkeypatch.setattr(json, "dump", partial_dump)
    if isinstance(error, OSError):
        assert cli.main(["evaluate", *argv]) == 2
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            cli.main(["evaluate", *argv])
    assert manifest.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_pretrain_loss_trajectory(ws):
    rows = [json.loads(l) for l in (ws["pre"] / "train_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == list(range(1, len(rows) + 1))
    assert rows[0]["epoch"] == 0 and rows[-1]["epoch"] == 1


def test_evaluate_report(ws, capsys):
    report = ws["root"] / "eval.json"
    assert cli.main(["evaluate", "--test", str(ws["test"]),
                     "--checkpoint", str(ws["fine"]),
                     "--report", str(report)]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert json.loads(printed) == doc
    assert doc["task"] == "binary"
    assert doc["n"] == 4
    assert doc["accuracy"] == 1.0          # training texts, separable set
    assert doc["auc"] == 1.0
    assert (report.parent / (report.name + ".run.json")).is_file()


def test_predict_jsonl(ws, capsys):
    inp = ws["root"] / "inputs.txt"
    inp.write_text("oh great, rain again\nthe train arrives at nine\n",
                   encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ws["fine"]),
                     "--input", str(inp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 2
    assert recs[0]["label"] == 1 and recs[1]["label"] == 0
    for r in recs:
        assert abs(sum(r["probs"]) - 1.0) < 1e-9


def test_predict_stdin(ws, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("sure, love working weekends\n"))
    assert cli.main(["predict", "--checkpoint", str(ws["fine"])]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(recs) == 1 and recs[0]["label"] == 1


@pytest.mark.parametrize("source", ["input", "stdin"])
def test_predict_keeps_blank_lines(ws, capsys, monkeypatch, tmp_path, source):
    argv = ["predict", "--checkpoint", str(ws["fine"])]
    if source == "input":
        inp = tmp_path / "inputs.txt"
        inp.write_text("a\n\nb\n", encoding="utf-8")
        argv += ["--input", str(inp)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n\nb\n"))
    assert cli.main(argv) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["text"] for r in recs] == ["a", "", "b"]


@pytest.mark.parametrize("source", ["input", "stdin"])
def test_predict_splits_at_newlines_only(ws, capsys, monkeypatch, tmp_path, source):
    # a form feed, U+2028 or lone "\r" inside a line is text, not a line
    # break; "\r\n" ends a line as "\n" does, read from a file or from stdin
    text = "yeah right\x0cgreat\nplain line\u2028too\nends in crlf\r\noh\rsure\n"
    argv = ["predict", "--checkpoint", str(ws["fine"])]
    if source == "input":
        inp = tmp_path / "inputs.txt"
        inp.write_bytes(text.encode("utf-8"))
        argv += ["--input", str(inp)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(argv) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.split("\n")[:-1]]
    assert [r["text"] for r in recs] == ["yeah right\x0cgreat", "plain line\u2028too",
                                         "ends in crlf", "oh\rsure"]


def test_corpus_line_with_a_form_feed_is_one_line(ws, tmp_path):
    # one pretraining step a line at batch size 1
    corpus = tmp_path / "ff.txt"
    corpus.write_text("oh great\x0crain again\nthe train arrives\n", encoding="utf-8")
    out = tmp_path / "ffrun"
    assert cli.main(["pretrain", "--corpus", str(corpus), "--tokenizer", str(ws["tok"]),
                     "--out", str(out), "--config", str(ws["cfg"]),
                     "--epochs", "1", "--batch-size", "1", "--lr", "1e-3"]) == 0
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 2


def test_same_seed_same_artifacts(ws):
    outs = []
    for sub in ("rep1", "rep2"):
        out = ws["root"] / sub
        assert cli.main(["finetune", "--train", str(ws["train"]),
                         "--init", str(ws["pre"]), "--out", str(out),
                         "--task", "binary", "--config", str(ws["cfg"]),
                         "--epochs", "3", "--batch-size", "6", "--lr", "1e-3",
                         "--seed", "7"]) == 0
        outs.append(out)
    a, b = outs
    assert sha256_file(a / "weights.bin") == sha256_file(b / "weights.bin")
    assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_task_swap_reinitializes_head(ws, capsys):
    score_train = ws["root"] / "scores.tsv"
    score_train.write_text(tsv([(f"s{i}", -4 if i % 2 else 4, t)
                                for i, t in enumerate(POS + NEG)]),
                           encoding="utf-8")
    out = ws["root"] / "reg"
    assert cli.main(["finetune", "--train", str(score_train), "--init", str(ws["fine"]),
                     "--out", str(out), "--task", "score", "--config", str(ws["cfg"]),
                     "--epochs", "10", "--batch-size", "6", "--lr", "1e-3",
                     "--seed", "1"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["task"] == "score"
    shapes = {e["name"]: e["shape"] for e in man["tensors"]}
    assert shapes["out.weight"] == [8, 1]

    report = ws["root"] / "reg_eval.json"
    assert cli.main(["evaluate", "--test", str(score_train),
                     "--checkpoint", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert doc["task"] == "score"
    assert "cosine" in doc and "mse" in doc


def test_freeze_encoder_flag(ws):
    out = ws["root"] / "frozen"
    assert cli.main(["finetune", "--train", str(ws["train"]), "--init", str(ws["pre"]),
                     "--out", str(out), "--task", "binary", "--config", str(ws["cfg"]),
                     "--epochs", "1", "--batch-size", "6", "--lr", "1e-3",
                     "--seed", "0", "--freeze-encoder"]) == 0
    frozen = np.frombuffer((out / "weights.bin").read_bytes(), dtype="<f4")
    base = np.frombuffer((ws["pre"] / "weights.bin").read_bytes(), dtype="<f4")
    man = json.loads((out / "manifest.json").read_text())
    moved = {}
    base_man = json.loads((ws["pre"] / "manifest.json").read_text())
    base_off = {e["name"]: (e["offset"], e["nbytes"]) for e in base_man["tensors"]}
    for e in man["tensors"]:
        if e["name"] not in base_off:
            continue
        o, n = e["offset"] // 4, e["nbytes"] // 4
        bo, bn = base_off[e["name"]]
        same = np.array_equal(frozen[o:o + n], base[bo // 4:bo // 4 + bn // 4])
        moved[e["name"]] = not same
    assert not any(moved[k] for k in moved if not k.startswith(("lstm.", "proj.", "out.")))
    assert any(moved[k] for k in moved if k.startswith(("lstm.", "proj.", "out.")))
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["train"]["freeze_encoder"] is True


def test_finetune_from_scratch(ws, capsys, tmp_path):
    out = tmp_path / "scratch"
    assert cli.main(["finetune", "--train", str(ws["train"]), "--tokenizer", str(ws["tok"]),
                     "--out", str(out), "--task", "binary", "--config", str(ws["cfg"]),
                     "--epochs", "1", "--batch-size", "6", "--seed", "0"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    tok_blob = json.loads(ws["tok"].read_text())
    assert man["model_config"]["vocab_size"] == 256 + 4 + len(tok_blob["merges"])
    assert cli.main(["evaluate", "--test", str(ws["test"]), "--checkpoint", str(out),
                     "--report", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


# an --init checkpoint brings its own tokenizer, so exactly one of the two
@pytest.mark.parametrize("start", [["--init", "pre", "--tokenizer", "tok"], []],
                         ids=["both", "neither"])
def test_finetune_needs_init_or_tokenizer(ws, capsys, tmp_path, start):
    start = [str(ws[a]) if a in ws else a for a in start]
    assert cli.main(["finetune", "--train", str(ws["train"]), *start,
                     "--out", str(tmp_path / "o"), "--task", "binary",
                     "--config", str(ws["cfg"]), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--init" in err and "--tokenizer" in err
    assert not (tmp_path / "o").exists()


def test_init_shape_change_is_data_error(ws, capsys, tmp_path):
    # the --init checkpoint is the base layer; flags may not reshape its tensors
    assert cli.main(["finetune", "--train", str(ws["train"]), "--init", str(ws["pre"]),
                     "--out", str(tmp_path / "o"), "--task", "binary",
                     "--max-seq-len", "8", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ws["pre"]) in err
    assert "wrong shape ['embed.position.weight']" in err
    assert not (tmp_path / "o").exists()


def test_init_run_takes_config_file_fields(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"dropout": 0.25}}), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["finetune", "--train", str(ws["train"]), "--init", str(ws["pre"]),
                     "--out", str(out), "--task", "binary", "--config", str(cfg),
                     "--epochs", "1"]) == 0
    model = json.loads((out / "manifest.json").read_text())["model_config"]
    assert model["dropout"] == 0.25
    assert model["d_model"] == TINY_MODEL["d_model"]     # the rest from --init


def test_preset_with_init_is_usage_error(ws, capsys, tmp_path):
    assert cli.main(["finetune", "--train", str(ws["train"]), "--init", str(ws["pre"]),
                     "--out", str(tmp_path / "o"), "--task", "binary",
                     "--preset", "toy", "--epochs", "1"]) == 1
    assert "--preset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_baseline_nbsvm(ws, capsys):
    report = ws["root"] / "nbsvm.json"
    model_out = ws["root"] / "nbsvm_model.json"
    assert cli.main(["baseline-nbsvm", "--train", str(ws["train"]),
                     "--test", str(ws["test"]), "--report", str(report),
                     "--model-out", str(model_out), "--epochs", "5"]) == 0
    doc = json.loads(report.read_text())
    assert doc["task"] == "binary" and doc["n"] == 4
    assert doc["accuracy"] == 1.0
    from figlang.nbsvm import load_nbsvm, nbsvm_predict
    model = load_nbsvm(model_out)
    labels, _ = nbsvm_predict(model, [POS[0], NEG[0]])
    assert list(labels) == [1, 0]
    # the run record names the seed the model was trained with, default too
    assert json.loads((ws["root"] / "nbsvm.json.run.json").read_text())["seed"] == 42
    capsys.readouterr()


def test_baseline_nbsvm_creates_the_model_out_dir(ws, capsys, tmp_path):
    report, model_out = tmp_path / "a" / "report.json", tmp_path / "b" / "model.json"
    assert cli.main(["baseline-nbsvm", "--train", str(ws["train"]),
                     "--test", str(ws["test"]), "--report", str(report),
                     "--model-out", str(model_out)]) == 0
    capsys.readouterr()
    run = json.loads((tmp_path / "a" / "report.json.run.json").read_text())
    assert run["outputs"][str(model_out)] == sha256_file(model_out)


def test_baseline_nbsvm_unsaveable_model_leaves_no_report(ws, capsys, tmp_path):
    report, model_out = tmp_path / "report.json", tmp_path / "model"
    model_out.mkdir()
    assert cli.main(["baseline-nbsvm", "--train", str(ws["train"]),
                     "--test", str(ws["test"]), "--report", str(report),
                     "--model-out", str(model_out)]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not report.exists()
    assert not (tmp_path / "report.json.run.json").exists()


def test_gradcheck_quick(capsys):
    assert cli.main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "1e-04" in out


def test_gradcheck_failure_is_numeric_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda n_seeds: 1.0)
    assert cli.main(["gradcheck", "--seeds", "2"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err


def test_gradcheck_nan_is_numeric_exit(monkeypatch, capsys):
    # a NaN error on one seed fails the audit, whatever the other seeds give
    monkeypatch.setattr(gradsuite, "check_full_model",
                        lambda seed: float("nan") if seed == 1 else 1e-9)
    assert cli.main(["gradcheck", "--seeds", "3"]) == 3
    assert "nan" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-2"],
                                  ["--full"]])
def test_gradcheck_must_check_a_gradient(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "run_suite", lambda n_seeds: 0.0)
    assert cli.main(["gradcheck", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
def test_nbsvm_alpha_must_be_finite_and_positive(ws, capsys, tmp_path, alpha):
    report = tmp_path / "r.json"
    assert cli.main(["baseline-nbsvm", "--train", str(ws["train"]),
                     "--test", str(ws["test"]), "--report", str(report),
                     "--alpha", alpha]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err
    assert not report.exists()


# ---------------------------------------------------------------------------
# exit codes and config resolution


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["pretrain", "--corpus", "x"]) == 1
    capsys.readouterr()


def test_missing_data_file_is_data_error(ws, capsys):
    assert cli.main(["bpe-train", "--corpus", "/nonexistent/corpus.txt",
                     "--vocab-size", "280", "--out", "/tmp/never.json"]) == 2
    assert "data error" in capsys.readouterr().err


def test_weights_with_trailing_bytes_are_data_error(ws, capsys, tmp_path):
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    with open(ckpt / "weights.bin", "ab") as f:
        f.write(b"\0" * 4)
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 2
    assert "tensors end at byte" in capsys.readouterr().err


def test_changed_weights_byte_is_data_error(ws, capsys, tmp_path):
    # one flipped bit that leaves every weight finite and every shape right:
    # only the manifest's weights hash can tell, and predict prints no record
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    with open(ckpt / "weights.bin", "r+b") as f:
        f.seek(4003)
        byte = f.read(1)[0]
        f.seek(4003)
        f.write(bytes([byte ^ 0x10]))
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "weights.bin hash mismatch" in err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_non_finite_weight_is_data_error(ws, capsys, tmp_path, command):
    # a NaN head bias must reach neither predict's records (bare NaN is not
    # JSON) nor an evaluate report
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    man = json.loads((ckpt / "manifest.json").read_text())
    entry = next(e for e in man["tensors"] if e["name"] == "out.bias")
    with open(ckpt / "weights.bin", "r+b") as f:
        f.seek(entry["offset"])
        f.write(np.array([np.nan], dtype="<f4").tobytes())
    inp = tmp_path / "inputs.txt"
    inp.write_text("hello\n", encoding="utf-8")
    report = tmp_path / "eval.json"
    argv = {"predict": ["predict", "--checkpoint", str(ckpt), "--input", str(inp)],
            "evaluate": ["evaluate", "--test", str(ws["test"]), "--checkpoint", str(ckpt),
                         "--report", str(report)]}[command]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "'out.bias'" in err and "non-finite" in err
    assert not report.exists()


def test_missing_weights_is_data_error(ws, capsys, tmp_path):
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    (ckpt / "weights.bin").unlink()
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "weights.bin" in err


# Each case names a path under a regular file (so no directory can be made
# there, even as root) or feeds a Latin-1 file where UTF-8 is required.
FILE_FAULTS = {
    "bpe-train-out-under-file": lambda ws, blocker, latin1: [
        "bpe-train", "--corpus", str(ws["corpus"]), "--vocab-size", "280",
        "--out", str(blocker / "tok.json")],
    "pretrain-out-under-file": lambda ws, blocker, latin1: [
        "pretrain", "--corpus", str(ws["corpus"]), "--tokenizer", str(ws["tok"]),
        "--out", str(blocker / "o"), "--config", str(ws["cfg"]), "--epochs", "1"],
    "evaluate-report-under-file": lambda ws, blocker, latin1: [
        "evaluate", "--test", str(ws["test"]), "--checkpoint", str(ws["fine"]),
        "--report", str(blocker / "r.json")],
    "bpe-train-manifest-under-file": lambda ws, blocker, latin1: [
        "bpe-train", "--corpus", str(ws["corpus"]), "--vocab-size", "280",
        "--out", str(blocker.parent / "tok.json"), "--manifest", str(blocker / "run.json")],
    "bpe-train-latin1-corpus": lambda ws, blocker, latin1: [
        "bpe-train", "--corpus", str(latin1), "--vocab-size", "280",
        "--out", str(blocker.parent / "tok.json")],
    "predict-latin1-input": lambda ws, blocker, latin1: [
        "predict", "--checkpoint", str(ws["fine"]), "--input", str(latin1)],
    "finetune-latin1-train": lambda ws, blocker, latin1: [
        "finetune", "--train", str(latin1), "--init", str(ws["pre"]),
        "--out", str(blocker.parent / "o"), "--task", "binary",
        "--config", str(ws["cfg"]), "--epochs", "1"],
    "baseline-nbsvm-latin1-test": lambda ws, blocker, latin1: [
        "baseline-nbsvm", "--train", str(ws["train"]), "--test", str(latin1),
        "--report", str(blocker.parent / "r.json")],
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
def test_file_faults_are_data_errors(ws, capsys, tmp_path, fault):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(tsv([("p0", 1, "un café, génial"),
                            ("n0", 0, "le café est froid")]).encode("latin-1"))
    assert cli.main(FILE_FAULTS[fault](ws, blocker, latin1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    if "latin1" in fault:
        assert str(latin1) in err


def test_manifest_shape_that_disagrees_with_nbytes_is_data_error(ws, capsys, tmp_path):
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    man = json.loads((ckpt / "manifest.json").read_text())
    man["tensors"][0]["shape"][0] += 1
    (ckpt / "manifest.json").write_text(json.dumps(man))
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 2
    assert "bytes, manifest says" in capsys.readouterr().err


def test_manifest_that_is_not_json_is_data_error(ws, capsys, tmp_path):
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    text = (ckpt / "manifest.json").read_text()
    (ckpt / "manifest.json").write_text(text[:len(text) // 2])
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def _checkpoint_with_manifest(ws, tmp_path, edit):
    ckpt = tmp_path / "fine"
    shutil.copytree(ws["fine"], ckpt)
    man = json.loads((ckpt / "manifest.json").read_text())
    edit(man)
    (ckpt / "manifest.json").write_text(json.dumps(man))
    return ckpt


def _predict_with_manifest(ws, tmp_path, edit):
    ckpt = _checkpoint_with_manifest(ws, tmp_path, edit)
    inp = tmp_path / "inputs.txt"
    inp.write_text("oh great, rain again\n", encoding="utf-8")
    return cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])


MANIFEST_FIELD_FAULTS = {
    "no-tensors": lambda man: man.pop("tensors"),
    "no-model-config": lambda man: man.pop("model_config"),
    "task-not-string": lambda man: man.update(task=1),
    "tensor-entry-not-object": lambda man: man["tensors"].__setitem__(3, "proj.weight"),
    "tensor-named-twice": lambda man: man["tensors"].append(man["tensors"][0]),
    "unknown-config-field": lambda man: man["model_config"].update(n_experts=4),
    "model-config-zero-heads": lambda man: man["model_config"].update(n_heads=0),
    "train-config-beta1-one": lambda man: man["train_config"].update(beta1=1.0),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FIELD_FAULTS))
def test_manifest_field_faults_are_data_errors(ws, capsys, tmp_path, fault):
    assert _predict_with_manifest(ws, tmp_path, MANIFEST_FIELD_FAULTS[fault]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["renamed", "config-disagrees"])
def test_manifest_tensors_must_match_model_config(ws, capsys, tmp_path, fault):
    def edit(man):
        if fault == "renamed":
            entry = next(e for e in man["tensors"] if e["name"] == "layer0.attn.qkv.weight")
            entry["name"] = "layer0.attn.in_proj.weight"
        else:
            man["model_config"]["d_ff"] *= 2
    assert _predict_with_manifest(ws, tmp_path, edit) == 2
    assert "do not match its model config" in capsys.readouterr().err


def test_overlapping_tensor_offsets_are_data_error(ws, capsys, tmp_path):
    def alias_o_to_qkv(man):
        by_name = {e["name"]: e for e in man["tensors"]}
        by_name["layer0.attn.o.weight"]["offset"] = by_name["layer0.attn.qkv.weight"]["offset"]
    assert _predict_with_manifest(ws, tmp_path, alias_o_to_qkv) == 2
    assert "'layer0.attn.o.weight' starts at byte" in capsys.readouterr().err


def test_unknown_checkpoint_task_is_data_error(ws, capsys, tmp_path):
    ckpt = _checkpoint_with_manifest(ws, tmp_path, lambda man: man.update(task="sarcasm"))
    assert cli.main(["evaluate", "--test", str(ws["test"]), "--checkpoint", str(ckpt),
                     "--report", str(tmp_path / "eval.json")]) == 2
    assert "'sarcasm'" in capsys.readouterr().err


def test_checkpoint_task_must_match_its_head(ws, capsys, tmp_path):
    # a binary model labelled "score" would read the test set as scores
    ckpt = _checkpoint_with_manifest(ws, tmp_path, lambda man: man.update(task="score"))
    assert cli.main(["evaluate", "--test", str(ws["test"]), "--checkpoint", str(ckpt),
                     "--report", str(tmp_path / "eval.json")]) == 2
    assert "'score'" in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("fault", ["missing", "vocab-disagrees"])
def test_tokenizer_file_faults_are_data_errors(ws, capsys, tmp_path, fault):
    tok = tmp_path / "tok.json"
    if fault == "vocab-disagrees":
        doc = json.loads(ws["tok"].read_text(encoding="utf-8"))
        a, b = list(doc["vocab"])[-2:]
        doc["vocab"][a], doc["vocab"][b] = doc["vocab"][b], doc["vocab"][a]
        tok.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(tok), "--out", str(tmp_path / "o"),
                     "--config", str(ws["cfg"]), "--epochs", "1"]) == 2
    assert "data error" in capsys.readouterr().err


def test_mismatched_labels_are_data_errors(ws, capsys):
    bad = ws["root"] / "bad_labels.tsv"
    bad.write_text(tsv([("x", 3, "some text")]), encoding="utf-8")
    # binary checkpoint forces the binary schema; label 3 is out of range
    assert cli.main(["evaluate", "--test", str(bad),
                     "--checkpoint", str(ws["fine"]),
                     "--report", str(ws["root"] / "bad.json")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_bad_config_json(ws, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(broken)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_fields(ws, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"layers": 2}}), encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1
    assert "unknown model config field" in capsys.readouterr().err

    bad.write_text(json.dumps({"train": {"momentum": 0.9}}), encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1
    assert "unknown train config field" in capsys.readouterr().err

    bad.write_text(json.dumps({"optimizer": {}}), encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1
    assert "unknown config sections" in capsys.readouterr().err


def test_vocab_conflict_is_data_error(ws, capsys, tmp_path):
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"model": {**TINY_MODEL, "vocab_size": 999}}),
                      encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(pinned), "--epochs", "1"]) == 2
    assert "vocab_size" in capsys.readouterr().err


def test_flags_beat_config_file(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL,
                               "train": {"epochs": 50, "seed": 99}}),
                   encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(out),
                     "--config", str(cfg), "--epochs", "1", "--batch-size", "12",
                     "--lr", "1e-3"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["train"]["epochs"] == 1      # flag wins
    assert run["config"]["train"]["seed"] == 99       # file beats default
    rows = (out / "train_log.jsonl").read_text().splitlines()
    assert len(rows) == 1


def test_zero_epochs_rejected(ws, capsys, tmp_path):
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(ws["cfg"]), "--epochs", "0"]) == 1
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_max_steps_below_one_rejected(ws, capsys, tmp_path, steps):
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(ws["cfg"]), "--max-steps", steps]) == 1
    assert "max_steps" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("clip", ["0", "-1"])
def test_grad_clip_at_or_below_zero_rejected(ws, capsys, tmp_path, clip):
    # a ceiling of -1 would flip the sign of every gradient, 0 would zero it
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(ws["cfg"]), "--grad-clip", clip]) == 1
    assert "grad_clip_norm" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BAD_CONFIG_VALUES = {
    "zero-heads": {"model": {"n_heads": 0}},
    "fractional-layers": {"model": {"n_layers": 1.5}},
    "bool-layers": {"model": {"n_layers": True}},
    "negative-lstm-units": {"model": {"lstm_units": -2}},
    "string-d-proj": {"model": {"d_proj": "8"}},
    "dropout-above-one": {"model": {"dropout": 1.5}},
    "beta1-one": {"train": {"beta1": 1.0}},
    "negative-beta2": {"train": {"beta2": -0.1}},
    "zero-adam-eps": {"train": {"adam_eps": 0}},
    "negative-weight-decay": {"train": {"weight_decay": -1e-5}},
    "fractional-batch": {"train": {"batch_size": 2.5}},
    "string-seed": {"train": {"seed": "7"}},
    "negative-seed": {"train": {"seed": -1}},
    "string-freeze": {"train": {"freeze_encoder": "yes"}},
    "pretrain-freeze": {"train": {"freeze_encoder": True}},   # pretraining trains the encoder
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_malformed_config_values_are_config_errors(ws, capsys, tmp_path, case):
    doc = BAD_CONFIG_VALUES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {**TINY_MODEL, **doc.get("model", {})},
                               "train": doc.get("train", {})}), encoding="utf-8")
    assert cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
                     "--config", str(bad), "--max-steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert next(iter({**doc.get("model", {}), **doc.get("train", {})})) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [{"model": None}, {"model": [1, 2]},
                                 {"train": "ab"}],
                         ids=["model-null", "model-list", "train-string"])
def test_config_sections_must_be_objects(ws, capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    cli.main(["pretrain", "--corpus", str(ws["corpus"]),
              "--tokenizer", str(ws["tok"]), "--out", str(tmp_path / "o"),
              "--config", str(bad), "--max-steps", "1"])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "must be a JSON object" in err
    assert not (tmp_path / "o").exists()


def test_help_shows_published_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["finetune", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "2e-05" in text          # published fine-tuning learning rate
    assert "default 10" in text     # batch size
    assert "default 5" in text      # epochs
    assert "12 layers" in text


def test_toy_corpus_pretrain(tmp_path, ws):
    out = tmp_path / "toyrun"
    assert cli.main(["pretrain", "--corpus", "toy", "--tokenizer", str(ws["tok"]),
                     "--out", str(out), "--config", str(ws["cfg"]),
                     "--epochs", "1", "--max-steps", "2", "--batch-size", "10",
                     "--lr", "1e-3"]) == 0
    rows = (out / "train_log.jsonl").read_text().splitlines()
    assert len(rows) == 2
