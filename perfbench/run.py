#!/usr/bin/env python3
"""figlang benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload finetune-short --seed 1 --seconds 30 --trace 0

Prints the environment, every metric with its unit and the output checks,
then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json; `--trace 1` reports its per-layer metrics from a
run in which half the timed steps are traced, plus the tracing overhead.
Run it from the repository root; it builds nothing and needs figlang's
sources in `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import tracing
    import workloads
except (ImportError, OSError) as exc:
    sys.exit(f"perfbench: cannot load figlang from {ROOT / 'src'} "
             f"and {ROOT / 'scripts'}: {exc}")


def environment(seed: int) -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": config.get("name"),
            "blas_version": config.get("version"), "blas_threads": _blas_threads(),
            "seed": seed, "commit": _git_commit()}


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def _ms(seconds) -> float:
    return 1000.0 * seconds


def end_to_end(wl, meter) -> dict:
    steps = meter.step_s
    return {
        "examples_per_s": (meter.examples / meter.elapsed_s, "1/s"),
        "step_ms_p50": (_ms(np.percentile(steps, 50)), "ms"),
        "step_ms_p90": (_ms(np.percentile(steps, 90)), "ms"),
        "setup_s": (statistics.median(wl.setup_runs), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(wl, meter, tracer) -> dict:
    n = meter.traced_steps
    span, calls = tracer.span_s, tracer.calls
    setup = meter.setup_trace
    out = {
        "autodiff.nodes_per_step": (meter.traced_nodes / n, "count/step"),
        "autodiff.backward_s": (span["autodiff.backward"] / n, "s/step"),
    }
    for op in ("leaf", "other") + tracing.OPS:
        out[f"autodiff.graph_ops.{op}"] = (tracer.graph_ops[op] / n, "count/step")
    for op in tracing.OPS:
        out[f"autodiff.op_s.{op}"] = (tracer.op_s[op] / n, "s/step")
    out.update({
        "rcnn.bilstm_s": (span["rcnn.bilstm"] / n, "s/step"),
        "rcnn.head_s": (span["rcnn.head"] / n, "s/step"),
        "encoder.forward_s": (span["encoder.forward"] / n, "s/step"),
        "encoder.forward_calls": (calls["encoder.forward"] / n, "count/step"),
        "encoder.token_utilization": (tracer.real_tokens / tracer.positions, "ratio"),
        "encoder.mask_s": (span["encoder.mask"] / n, "s/step"),
        "bpe.train_s": (wl.layer["bpe.train_s"], "s"),
        "bpe.encode_calls": (calls["bpe.encode"] / n, "count/step"),
        "bpe.encode_s": (span["bpe.encode"] / n, "s/step"),
        "bpe.ranks_s": (span["bpe.ranks"] / n, "s/step"),
        "bpe.setup_encode_calls": (setup["calls"].get("bpe.encode", 0), "count"),
        "bpe.setup_encode_s": (setup["span_s"].get("bpe.encode", 0.0), "s"),
        "training.adam_s": (span["training.adam"] / n, "s/step"),
    })
    for key, unit in (("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"),
                      ("checkpoint.bytes", "bytes"), ("data.load_s", "s"),
                      ("metrics.eval_s", "s"), ("metrics.eval_accuracy", "ratio"),
                      ("nbsvm.train_s", "s"), ("nbsvm.predict_s", "s"),
                      ("nbsvm.accuracy", "ratio")):
        out[key] = (wl.layer.get(key, 0.0), unit)
    traced_p50 = statistics.median(meter.traced_step_s)
    untraced_p50 = statistics.median(meter.step_s)
    out.update({
        "runtime.gc_collections": (sum(tracer.gc_collections.values()) / n, "count/step"),
        "runtime.gc_gen2_collections": (tracer.gc_collections[2] / n, "count/step"),
        "runtime.gc_pause_s": (tracer.gc_pause_s / n, "s/step"),
        "runtime.gc_collected": (tracer.gc_collected / n, "count/step"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    })
    return out


def trace_checks(wl, meter, tracer) -> dict:
    """Counts the traced run must reproduce exactly."""
    n, setup = meter.traced_steps, meter.setup_trace["calls"]
    return {
        "encoder calls == steps": tracer.calls["encoder.forward"] == n,
        "encode calls == texts encoded": tracer.calls["bpe.encode"] == n * wl.encodes_per_step,
        "set-up encoder calls == 1": setup.get("encoder.forward", 0) == 1,
        "set-up encode calls == texts encoded":
            setup.get("bpe.encode", 0) == wl.encodes_per_setup,
        "one graph per step": tracer.graphs == n,
        "backward and adam only when training":
            (tracer.calls["autodiff.backward"] == tracer.calls["training.adam"]
             == (n if wl.graph_at == "autodiff.backward" else 0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer(wl.graph_at) if args.trace else None
    try:
        meter = wl.run(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if not meter.step_s or (tracer is not None and not meter.traced_step_s):
        sys.exit(f"perfbench: too few steps in {args.seconds:g} s to report on")
    checks = dict(wl.checks)
    if tracer is not None:
        metrics = per_layer(wl, meter, tracer)
        checks.update(trace_checks(wl, meter, tracer))
    else:
        metrics = end_to_end(wl, meter)

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s timed, "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    print(f"timed steps: {len(meter.step_s)} untraced, {len(meter.traced_step_s)} traced; "
          f"set-up runs (s): {[round(s, 4) for s in wl.setup_runs]}, "
          f"of which start-up: {[round(s, 4) for s in wl.start_runs]}")
    if tracer is not None:
        print(f"step p50 (ms): {_ms(statistics.median(meter.step_s)):.2f} untraced, "
              f"{_ms(statistics.median(meter.traced_step_s)):.2f} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<34} {wl.failed / wl.attempted:>14.6g} "
          f"({wl.failed} of {wl.attempted} steps)")
    for name, value in wl.info.items():
        print(f"  {name}: {value}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    result = {
        "correct": wl.failed == 0 and all(checks.values()),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
