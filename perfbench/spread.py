#!/usr/bin/env python3
"""Run one or more workloads over several seeds and report, per end-to-end
metric, the median and the quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) next to a third of the metric's bound.

    python3 perfbench/spread.py --workload pretrain-long --seeds 1-5 \
        --out runs.jsonl
    python3 perfbench/spread.py --compare before.jsonl after.jsonl

Runs go one at a time, each in its own process, untraced and with the run
length of BENCHMARK.json. `--out` appends every run's result line as JSON, so two sets
of runs can be compared later: `--compare` prints, per workload and metric,
both medians and the share by which the second is worse than the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"workload": workload, "seed": seed, **json.loads(lines[-1]), "env": env}


def spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(name: str, before: float, after: float) -> float:
    change = (after - before) / before
    return -change if METRICS[name]["better"] == "higher" else change


def summarize(runs: list[dict]) -> dict:
    by_wl = defaultdict(lambda: defaultdict(list))
    for r in runs:
        for name, m in r["metrics"].items():
            by_wl[r["workload"]][name].append(m["value"])
    return by_wl


def report(runs: list[dict]) -> None:
    for wl, metrics in summarize(runs).items():
        mine = [r for r in runs if r["workload"] == wl]
        failed, attempted = sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)
        print(f"{wl}: {len(mine)} runs, all correct: {all(r['correct'] for r in mine)}, "
              f"failed_ratio {failed / attempted:g} ({failed} of {attempted} steps)")
        for name, values in metrics.items():
            med, sp = spread(values)
            third = METRICS[name]["bound"] / 3
            flag = "" if sp < third else "   <-- above a third of the bound"
            print(f"  {name:<16} median {med:12.5g}  spread {sp:7.2%}  "
                  f"(bound/3 {third:.2%}){flag}")


def compare(first: list[dict], second: list[dict]) -> None:
    a, b = summarize(first), summarize(second)
    for wl in a:
        print(wl)
        for name in a[wl]:
            m1, m2 = statistics.median(a[wl][name]), statistics.median(b[wl][name])
            w = worse_by(name, m1, m2)
            flag = "   <-- worse than the bound" if w > METRICS[name]["bound"] else ""
            print(f"  {name:<16} {m1:12.5g} -> {m2:12.5g}  worse by {w:7.2%}{flag}")


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--out", help="append each run's result to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    if args.compare:
        compare(load(args.compare[0]), load(args.compare[1]))
        return 0
    runs = []
    for wl in args.workload or [w["name"] for w in BENCH["workloads"]]:
        for seed in seeds(args.seeds):
            r = run_once(wl, seed)
            print(json.dumps(r), flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(r) + "\n")
            runs.append(r)
    report(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
