"""Freed array memory stays in the process: importing figlang raises glibc's
mmap and trim thresholds, so a training step reuses the heap instead of
faulting in and zeroing fresh pages for its large temporaries."""

import ctypes
import sys

import pytest

import figlang
from figlang import training
from figlang.config import TrainConfig, toy_scale


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _has_mallopt()),
                    reason="needs Linux with glibc's mallopt")
def test_pretrain_steps_do_not_fault_in_fresh_pages(toy_tok):
    import resource

    corpus = figlang.toy_corpus()
    # every line outruns the 128-token window, so every batch is (10, 128)
    lines = [" ".join(corpus[i:i + 15]) for i in range(0, 100, 5)]
    cfg = toy_scale(vocab_size=toy_tok.size, max_seq_len=128)
    warmup, counted = 3, 8
    faults = []

    class FaultLog(training.TrainLog):
        def add(self, step, epoch, loss):
            super().add(step, epoch, loss)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    train_cfg = TrainConfig(batch_size=10, epochs=100, seed=0,
                            max_steps=warmup + counted)
    training.pretrain_mlm(lines, toy_tok, cfg, train_cfg, log=FaultLog())
    per_step = (faults[-1] - faults[warmup - 1]) / counted
    # without the thresholds a step faults in thousands of pages
    assert per_step < 100, per_step


class _Lib:
    """Stands in for the C library: records mallopt calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_freed_memory_sets_both_thresholds(monkeypatch):
    lib = _Lib()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    figlang._keep_freed_memory()
    assert lib.calls == [(-3, 32 << 20), (-1, 1 << 30)]


@pytest.mark.parametrize("cdll", ["raises", "no mallopt"])
def test_keep_freed_memory_is_a_quiet_no_op_without_mallopt(monkeypatch, cdll):
    def fake(name):
        if cdll == "raises":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", fake)
    figlang._keep_freed_memory()      # raises nothing
