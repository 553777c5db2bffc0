#!/usr/bin/env python3
"""Drive the whole stack at toy scale: synthesize data, train a tokenizer,
pretrain with the masked-LM objective, fine-tune the classifier, evaluate,
predict, and fit the NBSVM baseline for comparison. A few minutes on one CPU
core.

Every step goes through the same CLI entry points a user would call, so this
doubles as a smoke test of the command surface."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from figlang import cli
from figlang.config import BINARY
from figlang.data import load_dataset

TINY = {"n_layers": 2, "n_heads": 2, "d_model": 32, "d_ff": 64,
        "max_seq_len": 24, "dropout": 0.1, "lstm_units": 8, "d_proj": 16}


def run(argv, stdout=None):
    print(f"$ figlang {' '.join(argv)}")
    with contextlib.redirect_stdout(stdout or sys.stdout):
        code = cli.main(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work-dir", default="toy_run")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--epochs", type=int, default=40,
                    help="fine-tuning epochs (pretraining uses 10)")
    args = ap.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    data = work / "data"
    subprocess.run([sys.executable,
                    str(Path(__file__).with_name("make_synthetic_data.py")),
                    "--out-dir", str(data), "--seed", str(args.seed)],
                   check=True)

    cfg = work / "tiny.json"
    cfg.write_text(json.dumps({"model": TINY}, indent=2), encoding="utf-8")

    tok = work / "tokenizer.json"
    run(["bpe-train", "--corpus", str(data / "corpus.txt"),
         "--vocab-size", "320", "--out", str(tok)])

    pre = work / "pretrained"
    run(["pretrain", "--corpus", str(data / "corpus.txt"),
         "--tokenizer", str(tok), "--out", str(pre), "--config", str(cfg),
         "--epochs", "10", "--batch-size", "10", "--lr", "1e-3",
         "--seed", str(args.seed)])

    fine = work / "finetuned"
    run(["finetune", "--train", str(data / "train.tsv"), "--init", str(pre),
         "--out", str(fine), "--task", "binary", "--config", str(cfg),
         "--epochs", str(args.epochs), "--batch-size", "10", "--lr", "1e-3",
         "--seed", str(args.seed)])

    report = work / "eval.json"
    run(["evaluate", "--test", str(data / "test.tsv"),
         "--checkpoint", str(fine), "--report", str(report)])

    # one JSON record per input line, each answering its own line, through
    # --input and through stdin alike; a form feed, U+2028 or lone "\r"
    # inside a line does not break it, and "\r\n" ends a line as "\n" does
    texts = [ex.text for ex in load_dataset(data / "test.tsv", BINARY)]
    texts += ["yeah right\x0cgreat", "what a day\u2028for it"]
    raw = "".join(t + "\n" for t in texts) + "ends in crlf\r\n" + "oh\rsure\n"
    texts += ["ends in crlf", "oh\rsure"]
    inputs = work / "test_texts.txt"
    inputs.write_bytes(raw.encode("utf-8"))
    captured = io.StringIO()
    predict = ["predict", "--checkpoint", str(fine)]
    run(predict + ["--input", str(inputs)], stdout=captured)
    print(f"$ figlang {' '.join(predict)} < {inputs}")
    piped = subprocess.run([sys.executable, "-m", "figlang", *predict], input=raw.encode("utf-8"),
                           stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)})
    if piped.returncode != 0:
        sys.exit(piped.returncode)
    records = [json.loads(line) for line in captured.getvalue().splitlines()]
    if [json.loads(line) for line in piped.stdout.decode("utf-8").splitlines()] != records:
        sys.exit("predict gave different records from --input and from stdin")
    if [r.get("text") for r in records] != texts:
        sys.exit(f"predict gave {len(records)} records for {len(texts)} input lines, "
                 "or a record that does not carry its line")

    baseline = work / "nbsvm.json"
    run(["baseline-nbsvm", "--train", str(data / "train.tsv"),
         "--test", str(data / "test.tsv"), "--report", str(baseline)])

    neural = json.loads(report.read_text())
    linear = json.loads(baseline.read_text())
    print("\nsummary")
    print(f"  neural   acc={neural['accuracy']:.3f} f1={neural['f1']:.3f} "
          f"auc={neural['auc']}")
    print(f"  nbsvm    acc={linear['accuracy']:.3f} f1={linear['f1']:.3f} "
          f"auc={linear['auc']}")
    print(f"artifacts under {work}/")


if __name__ == "__main__":
    main()
