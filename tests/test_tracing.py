"""The benchmark's tracer wraps figlang names from outside the program.

perfbench/tracing.py patches bindings by name (`training.encode`,
`rcnn.encode`, `TokenizerModel._ranks`, the autodiff ops, ...). This test
imports it read-only and checks that every name it patches exists, that
install wraps each one and that remove puts each original back, so a
rename in figlang that would silently blind the benchmark fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from figlang import autodiff
from figlang.bpe import TokenizerModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it(tracing):
    bindings = [(owner, name) for owner, name, _ in tracing.SPANS]
    bindings += [(autodiff, op) for op in tracing.OPS]
    for owner, name in bindings:
        assert hasattr(owner, name), f"{owner.__name__}.{name} no longer exists"
    originals = [getattr(owner, name) for owner, name in bindings]

    tracer = tracing.Tracer("rcnn.head")
    tracer.install()
    try:
        for (owner, name), fn in zip(bindings, originals):
            assert getattr(owner, name).__wrapped__ is fn, f"{name} not wrapped"
        TokenizerModel([(b"a", b"b")])
        assert tracer.calls["bpe.ranks"] == 1
    finally:
        tracer.remove()
    for (owner, name), fn in zip(bindings, originals):
        assert getattr(owner, name) is fn, f"{name} not restored"
