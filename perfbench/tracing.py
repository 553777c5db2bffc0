"""Per-layer tracing from outside the program.

Every layer is measured by wrapping the public name that its caller looks
up. figlang modules bind each other with ``from ... import``, so a wrapper
has to replace the name in the module that *calls* it: ``training.backward``,
not ``autodiff.backward``. The autodiff ops are the exception: callers reach
them as ``ad.<op>``, so the wrapper goes on ``figlang.autodiff`` itself.

Layer spans never nest inside each other (the forward pass is encoder, then
BiLSTM, then head; backward and Adam follow), so a span's duration is its
self time. The one exception, bpe.ranks, is a named part of bpe.encode. Op times are a second breakdown of the same seconds by autodiff
op type, nested inside the layer spans, and are not added to them.

While a Tracer is installed it also listens to ``gc.callbacks``.
"""

from __future__ import annotations

import gc
from collections import Counter, defaultdict
from time import perf_counter

from figlang import autodiff, encoder, rcnn, training
from figlang.bpe import TokenizerModel

# The autodiff ops some workload's graph uses (sub, mse_loss, mean_all and
# sum_all never run here). Graph nodes of any other op count as "other".
OPS = ("add", "mul", "matmul", "tanh", "sigmoid", "gelu", "softmax",
       "layer_norm", "embedding", "gather_rows", "reshape", "swap_axes",
       "concat", "slice_last", "time_slice", "stack_time", "max_over_time",
       "cross_entropy", "dropout")

# (module or class, name, span key). encoder.encoder_forward is the binding
# mlm_forward uses; rcnn.encoder_forward is the one full_forward uses.
# TokenizerModel._ranks nests inside bpe.encode: it is the merge-rank table
# that bpe._segment rebuilds on every call.
SPANS = (
    (training, "backward", "autodiff.backward"),
    (training, "adam_step", "training.adam"),
    (training, "dynamic_mask", "encoder.mask"),
    (training, "collate_mlm", "encoder.mask"),
    (training, "encode", "bpe.encode"),
    (rcnn, "encode", "bpe.encode"),
    (encoder, "encoder_forward", "encoder.forward"),
    (rcnn, "encoder_forward", "encoder.forward"),
    (rcnn, "bilstm_forward", "rcnn.bilstm"),
    (rcnn, "rcnn_forward", "rcnn.head"),
    (TokenizerModel, "_ranks", "bpe.ranks"),
)


def node_counter() -> int:
    """Next autodiff node id, read without consuming one."""
    return int(repr(autodiff._NODE_IDS)[len("count("):-1])


class Tracer:
    """Accumulates span times, call counts and graph op counts while
    installed. `graph_at` names the span whose tensor argument (backward's
    loss) or result (the head's logits) is traced for graph op counts."""

    def __init__(self, graph_at: str):
        self.graph_at = graph_at
        self.installed = False
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.span_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.op_s: defaultdict[str, float] = defaultdict(float)
        self.graph_ops: Counter[str] = Counter()
        self.graphs = 0
        self.real_tokens = 0
        self.positions = 0
        self.gc_collections = Counter()
        self.gc_collected = 0
        self.gc_pause_s = 0.0
        self._gc_start = None

    def snapshot(self) -> dict:
        return {"span_s": dict(self.span_s), "calls": dict(self.calls)}

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        for module, name, key in SPANS:
            self._patch(module, name, self._span(key, getattr(module, name)))
        for op in OPS:
            self._patch(autodiff, op, self._op(op, getattr(autodiff, op)))
        gc.callbacks.append(self._on_gc)
        self.installed = True

    def remove(self) -> None:
        if not self.installed:
            return
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None
        self.installed = False

    def _patch(self, module, name, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn):
        span_s, calls = self.span_s, self.calls
        graph_in = key == self.graph_at == "autodiff.backward"
        graph_out = key == self.graph_at == "rcnn.head"
        utilization = key == "encoder.forward"

        def wrapper(*args, **kwargs):
            if graph_in:
                self._count_graph(args[0])
            if utilization:
                mask = args[3]
                self.real_tokens += int(mask.sum())
                self.positions += mask.size
            t = perf_counter()
            out = fn(*args, **kwargs)
            span_s[key] += perf_counter() - t
            calls[key] += 1
            if graph_out:
                self._count_graph(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, name, fn):
        op_s = self.op_s

        def wrapper(*args, **kwargs):
            t = perf_counter()
            out = fn(*args, **kwargs)
            op_s[name] += perf_counter() - t
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_graph(self, root) -> None:
        nodes = autodiff.ComputationGraph.trace(root).nodes
        self.graph_ops.update(t.op if t.op in OPS or t.op == "leaf" else "other"
                              for t in nodes)
        self.graphs += 1

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1
            self.gc_collected += info["collected"]
            self._gc_start = None
