"""The three benchmark workloads and the clock that times them.

Each workload is one closed loop: a single caller that waits for each
optimizer step or predict batch before issuing the next. Inputs come only
from the workload seed, through the generators in
scripts/make_synthetic_data.py. README.md says why each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from figlang import checkpoint, data, metrics, nbsvm, rcnn, training
from figlang.bpe import bpe_train, load_tokenizer, save_tokenizer
from figlang.config import BINARY, TrainConfig, toy_scale
from figlang.errors import FiglangError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_generators():
    path = ROOT / "scripts" / "make_synthetic_data.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


synthetic = _load_generators()

# A fresh interpreter that imports what a run imports and then does one
# set-up through its first step; appended: workload, seed, work directory.
SETUP_CHILD = [sys.executable, "-c", f"import sys; sys.path[:0] = "
               f"{[str(ROOT / 'src'), str(HERE)]!r}; import workloads; "
               f"workloads.child_set_up(*sys.argv[1:])"]
SETUP_CHILDREN = 10     # cold set-ups per run: 5 before the timed phase, 5 after
BPE_VOCAB = 1000        # the toy preset's vocab; merges whole phrases
BATCH = 10              # the paper's training batch size
LOSS_WINDOW = 10        # steps averaged at each end for the loss-decrease check
RERUN_STEPS = 8         # steps retrained from scratch for the determinism check
EVAL_STEPS = 60         # finetune-short is evaluated on the params after this step
EVAL_FLOOR = 0.9        # held-out accuracy finetune-short must reach by EVAL_STEPS


class StopLoop(Exception):
    """Raised from the training log callback to end a training call."""


class Meter:
    """Times a closed loop from outside, one `step` call per finished step.

    The first step is the warm-up and ends set-up. Steps that end within
    `seconds` after it are timed; the loop then stops, but not before
    `min_steps` steps. With a tracer, half the timed steps are traced, chosen
    by the Thue-Morse sequence, so one traced run gives both the per-layer
    numbers and the tracing overhead. Unlike plain alternation, that choice
    does not line up with steps whose cost alternates (as predict batches
    do, with the collector's rhythm).
    """

    def __init__(self, seconds: float, min_steps: int = 1, *, warmup_only=False,
                 tracer: tracing.Tracer | None = None):
        self.seconds = seconds
        self.min_steps = min_steps
        self.warmup_only = warmup_only
        self.tracer = tracer
        self.begin = perf_counter()
        self.setup_s = None
        self.steps = 0
        self.failed = 0
        self.step_s: list[float] = []          # untraced timed steps
        self.traced_step_s: list[float] = []
        self.examples = 0
        self.elapsed_s = 0.0
        self.setup_trace = None
        self.traced_steps = 0
        self.traced_nodes = 0
        self._nodes_at_install = None

    def step(self, examples: int, ok: bool) -> bool:
        """Record one finished step and whether its output passed its
        checks; False means issue no more."""
        now = perf_counter()
        self.steps += 1
        self.failed += not ok
        if self.setup_s is None:
            self.setup_s = now - self.begin
            self.t0 = self.last = now
            self.deadline = now + self.seconds
            if self.tracer is not None:
                self.tracer.remove()
                self.setup_trace = self.tracer.snapshot()
                self.tracer.reset()
            return not self.warmup_only
        traced = self.finish()
        if now <= self.deadline:
            (self.traced_step_s if traced else self.step_s).append(now - self.last)
            self.examples += examples
            self.elapsed_s = now - self.t0
            if self.tracer is not None and bin(self.steps).count("1") % 2:
                self._nodes_at_install = tracing.node_counter()
                self.tracer.install()
        self.last = now
        return now < self.deadline or self.steps < self.min_steps

    def finish(self) -> bool:
        """Close the traced step if one is open; True if one was."""
        if self.tracer is None or not self.tracer.installed:
            return False
        self.tracer.remove()
        self.traced_steps += 1
        self.traced_nodes += tracing.node_counter() - self._nodes_at_install
        return True


class MeteredLog(training.TrainLog):
    """TrainLog whose per-step callback drives a Meter; `before_step(step)`
    runs just before the Meter records the step."""

    def __init__(self, meter: Meter, before_step):
        super().__init__()
        self.meter = meter
        self.before_step = before_step

    def add(self, step: int, epoch: int, loss: float) -> None:
        super().add(step, epoch, loss)
        self.before_step(step)
        if not self.meter.step(BATCH, math.isfinite(loss)):
            raise StopLoop

    @property
    def losses(self) -> list[float]:
        return [r["loss"] for r in self.records]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _long_lines(rng, n: int) -> list[str]:
    """Lines of 10 to 16 synthetic sentences drawn from a pool of 512,
    joined with ". ": about 78 tokens each, and no two alike."""
    pool = [text for _, _, text in synthetic.binary_rows(rng, 512)]
    return [". ".join(pool[i] for i in rng.integers(0, len(pool), size=k))
            for k in rng.integers(10, 17, size=n)]


def _timed(layer: dict, key: str, fn, *args, **kwargs):
    t = perf_counter()
    out = fn(*args, **kwargs)
    layer[key] = perf_counter() - t
    return out


class Workload:
    """`prepare` builds inputs and model from the seed, `loop` runs the
    closed loop under a Meter, `verify` runs the checks that need the
    finished loop. `layer` holds per-layer numbers from the benchmark's own
    timed calls into figlang (set-up side and post-loop evaluation)."""

    name = ""
    graph_at = ""
    min_steps = 2 * LOSS_WINDOW

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.checks: dict[str, bool] = {}
        self.info: dict = {}
        self.after: dict[str, float] = {}   # per-layer numbers from verify

    def run(self, seconds: float, tracer: tracing.Tracer | None = None) -> Meter:
        """The timed phase, after this process's own set-up, between
        SETUP_CHILDREN set-ups in fresh processes: half before it and half
        after it, so the set-up times sample the machine's speed at both
        ends of the run rather than in one burst."""
        self.setup_runs, self.start_runs, self.setup_layers, self.firsts = [], [], [], []
        for _ in range(SETUP_CHILDREN // 2):
            self.set_up_in_child()
        meter = Meter(seconds, self.min_steps, tracer=tracer)
        self.set_up(meter)
        self.setup_layers.append(self.layer)
        self.firsts.append(self.first_output())
        meter.finish()
        self.attempted, self.failed = meter.steps, meter.failed
        self.verify(meter)
        # Free the timed phase's graphs, so the children's memory does not
        # stack on top of them.
        gc.collect()
        for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2):
            self.set_up_in_child()
        self.layer = {k: float(np.median([lay[k] for lay in self.setup_layers]))
                      for k in self.setup_layers[0]}
        self.layer.update(self.after)
        self.checks["set-ups agree"] = len(set(self.firsts)) == 1
        return meter

    def set_up(self, meter: Meter) -> None:
        """One set-up in this process, from a clean work directory through
        the first step, which ends it."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.layer = {}
        meter.begin = perf_counter()
        if meter.tracer is not None:
            meter.tracer.reset()
            meter.tracer.install()
        self.prepare()
        try:
            self.loop(meter)
        except StopLoop:
            pass
        except FiglangError as exc:
            if meter.setup_s is None:
                raise
            meter.steps += 1
            meter.failed += 1
            self.info["error"] = f"{type(exc).__name__}: {exc}"

    def set_up_in_child(self) -> None:
        """One cold set-up: a fresh interpreter imports what a run imports
        and runs `set_up`. Its time is from spawning the child to the line
        it prints at the end of its first step."""
        t = perf_counter()
        with subprocess.Popen(SETUP_CHILD + [self.name, str(self.seed), str(self.workdir)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t
        if child.returncode != 0 or not line:
            raise RuntimeError(f"{self.name} set-up child exited {child.returncode}")
        out = json.loads(line)
        self.setup_runs.append(elapsed)
        self.start_runs.append(elapsed - out["in_process_s"])
        self.setup_layers.append(out["layer"])
        self.firsts.append(out["first"])


def child_set_up(name: str, seed: str, workdir: str) -> None:
    """Body of a set-up child (see Workload.set_up_in_child)."""
    wl = WORKLOADS[name](int(seed), Path(workdir))
    meter = Meter(0.0, warmup_only=True)
    wl.set_up(meter)
    print(json.dumps({"in_process_s": meter.setup_s, "layer": wl.layer,
                      "first": wl.first_output()}), flush=True)


class _Training(Workload):
    graph_at = "autodiff.backward"

    def train_config(self, max_steps=None) -> TrainConfig:
        return TrainConfig(batch_size=BATCH, epochs=10**6, learning_rate=1e-3,
                           seed=self.seed, max_steps=max_steps)

    def fresh_params(self):
        return rcnn.init_model_params(self.cfg, training.rng_streams(self.seed)["init"])

    def loop(self, meter: Meter) -> None:
        self.log = MeteredLog(meter, self.before_step)
        self.train(self.train_config(), self.params, self.log)

    def before_step(self, step: int) -> None:
        pass

    def first_output(self):
        return digest(self.log.losses[:1])

    def verify(self, meter: Meter) -> None:
        losses = self.log.losses
        head = float(np.mean(losses[:LOSS_WINDOW]))
        tail = float(np.mean(losses[-LOSS_WINDOW:]))
        self.info["loss first/last window"] = [head, tail]
        self.checks["loss decreases"] = tail < head
        rerun = training.TrainLog()
        self.train(self.train_config(RERUN_STEPS), self.fresh_params(), rerun)
        self.checks["rerun bit-identical"] = (
            [r["loss"] for r in rerun.records] == losses[:RERUN_STEPS])
        self.info["loss digest"] = digest(losses[:self.min_steps])


class FinetuneShort(_Training):
    """Binary finetuning, toy preset, max_seq_len 64, texts of ~8 tokens."""

    name = "finetune-short"
    min_steps = EVAL_STEPS
    n_train = 200
    n_test = 100
    encodes_per_setup = n_train     # finetune encodes its whole set up front
    encodes_per_step = 0

    def prepare(self) -> None:
        rng = _rng(self.seed, 0)
        train_tsv, test_tsv = self.workdir / "train.tsv", self.workdir / "test.tsv"
        data.write_dataset(train_tsv, synthetic.binary_rows(rng, self.n_train))
        data.write_dataset(test_tsv, synthetic.binary_rows(rng, self.n_test))
        self.train_set = _timed(self.layer, "data.load_s", data.load_dataset, train_tsv, BINARY)
        self.test_set = data.load_dataset(test_tsv, BINARY)
        self.tok = _timed(self.layer, "bpe.train_s", bpe_train,
                          [ex.text for ex in self.train_set], BPE_VOCAB)
        self.cfg = toy_scale(vocab_size=self.tok.size, max_seq_len=64)
        self.params = self.fresh_params()
        self.snapshot = None

    def train(self, train_cfg, params, log) -> None:
        training.finetune(self.train_set.examples, self.tok, self.cfg, train_cfg,
                          params=params, log=log)

    def before_step(self, step: int) -> None:
        if step == EVAL_STEPS:
            self.snapshot = {k: p.data.copy() for k, p in self.params.items()}

    def verify(self, meter: Meter) -> None:
        super().verify(meter)
        if self.snapshot is None:
            self.checks[f"reached step {EVAL_STEPS}"] = False
            return
        for name, arr in self.snapshot.items():
            self.params[name].data = arr
        texts = [ex.text for ex in self.test_set]
        golds = np.asarray([int(ex.target) for ex in self.test_set])
        t = perf_counter()
        records = rcnn.predict(self.params, self.cfg, self.tok, texts)
        report = metrics.classification_metrics(
            [r["label"] for r in records], golds, scores=[r["probs"][1] for r in records])
        self.after["metrics.eval_s"] = perf_counter() - t
        self.after["metrics.eval_accuracy"] = report["accuracy"]
        self.checks[f"eval accuracy >= {EVAL_FLOOR}"] = report["accuracy"] >= EVAL_FLOOR
        model = _timed(self.after, "nbsvm.train_s", nbsvm.nbsvm_train, self.train_set.examples)
        labels, _ = _timed(self.after, "nbsvm.predict_s", nbsvm.nbsvm_predict, model, texts)
        self.after["nbsvm.accuracy"] = float(np.mean(labels == golds))
        self.info["held-out accuracy (neural, nbsvm)"] = [report["accuracy"],
                                                          self.after["nbsvm.accuracy"]]


class PretrainLong(_Training):
    """MLM pretraining at toy width, max_seq_len 128, lines of ~78 tokens."""

    name = "pretrain-long"
    # Unfreed graphs pile up until the first full collection, near step 115;
    # every run passes it, so peak_rss_mib always includes that pile-up.
    min_steps = 130
    n_lines = 100
    encodes_per_setup = n_lines
    encodes_per_step = 0

    def prepare(self) -> None:
        corpus = self.workdir / "corpus.txt"
        corpus.write_text("\n".join(_long_lines(_rng(self.seed, 1), self.n_lines)) + "\n",
                          encoding="utf-8")
        self.lines = corpus.read_text(encoding="utf-8").splitlines()
        self.tok = _timed(self.layer, "bpe.train_s", bpe_train, self.lines, BPE_VOCAB)
        self.cfg = toy_scale(vocab_size=self.tok.size, max_seq_len=128)
        self.params = self.fresh_params()

    def train(self, train_cfg, params, log) -> None:
        training.pretrain_mlm(self.lines, self.tok, self.cfg, train_cfg,
                              params=params, log=log)


class PredictMixed(Workload):
    """rcnn.predict on 32-text batches alternating short and long texts,
    from a checkpoint saved and loaded during set-up."""

    name = "predict-mixed"
    graph_at = "rcnn.head"
    min_steps = 1
    batch = 32
    encodes_per_setup = encodes_per_step = batch
    # Long texts are all distinct, but binary_rows has only 128 distinct
    # short texts, so about half of what a run predicts repeats an earlier
    # text; verify reports the share, and how often the loop wrapped.
    n_texts = 4096
    n_vocab_texts = 256     # tokenizer corpus: the first texts of the input

    def prepare(self) -> None:
        rng = _rng(self.seed, 2)
        short = synthetic.binary_rows(rng, self.n_texts // 2)
        long = _long_lines(rng, self.n_texts // 2)
        rows = []   # labels go unused; the TSV format just needs one
        for i, ((_, label, text), line) in enumerate(zip(short, long)):
            rows += [(f"s{i}", label, text), (f"l{i}", 0, line)]
        tsv = self.workdir / "input.tsv"
        data.write_dataset(tsv, rows)
        self.texts = [ex.text for ex in
                      _timed(self.layer, "data.load_s", data.load_dataset, tsv, BINARY)]
        tok = _timed(self.layer, "bpe.train_s", bpe_train,
                     self.texts[:self.n_vocab_texts], BPE_VOCAB)
        tok_path = self.workdir / "tokenizer.json"
        save_tokenizer(tok, tok_path)
        cfg = toy_scale(vocab_size=tok.size, max_seq_len=128)
        params = rcnn.init_model_params(cfg, training.rng_streams(self.seed)["init"])
        ckpt = self.workdir / "ckpt"
        _timed(self.layer, "checkpoint.save_s", checkpoint.save_checkpoint, ckpt, params,
               model_config=cfg, task="binary", tokenizer_path=tok_path)
        self.layer["checkpoint.bytes"] = sum(f.stat().st_size for f in ckpt.iterdir())
        bundle = _timed(self.layer, "checkpoint.load_s", checkpoint.load_checkpoint, ckpt)
        self.params, self.cfg = bundle.params, bundle.model_config
        self.tok = load_tokenizer(bundle.tokenizer_path)

    def loop(self, meter: Meter) -> None:
        self.outputs = []
        for i in itertools.count():
            start = i * self.batch % len(self.texts)
            texts = self.texts[start:start + self.batch]
            records = rcnn.predict(self.params, self.cfg, self.tok, texts)
            self.predicted = (i + 1) * self.batch
            if len(self.outputs) < 3:
                self.outputs.append((texts, records))
            if not meter.step(len(texts), _records_ok(texts, records)):
                return

    def first_output(self):
        return digest(self.outputs[0][1])

    def verify(self, meter: Meter) -> None:
        again = [rcnn.predict(self.params, self.cfg, self.tok, texts)
                 for texts, _ in self.outputs]
        self.checks["rerun bit-identical"] = again == [r for _, r in self.outputs]
        self.info["prediction digest"] = digest([r for _, r in self.outputs])
        passes = self.predicted / len(self.texts)
        distinct = len(set(self.texts[:self.predicted]))
        self.info["texts predicted"] = self.predicted
        self.info["share repeating an earlier text"] = round(1 - distinct / self.predicted, 4)
        self.info["passes over the input"] = round(passes, 3) if passes <= 1 else (
            f"{passes:.3f}: the loop wrapped around the {len(self.texts)} input texts")


def _records_ok(texts, records) -> bool:
    """One record per input, in input order; probs sum to 1 within 1e-9 and
    label is the argmax (ties resolve to class 0)."""
    if len(records) != len(texts):
        return False
    return all(rec["text"] == text and abs(p0 + p1 - 1.0) <= 1e-9
               and rec["label"] == (1 if p1 > p0 else 0)
               for text, rec in zip(texts, records) for p0, p1 in [rec["probs"]])


WORKLOADS = {w.name: w for w in (FinetuneShort, PretrainLong, PredictMixed)}
