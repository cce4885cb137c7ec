"""Traced-run report: where each workload's time goes, layer by layer.

    python3 perfbench/report.py --seed 1 --seconds 30 [--workload sat-wide ...]

For each workload this runs ``run.py`` twice with the same seed, once with
tracing off and once with it on.  It prints the self time of every layer
and of the heaviest spans, names the layer that dominates next to the one
the workload is meant to stress, and gives the tracing overhead: the drop
in ``norm.ops_per_s`` from the untraced to the traced run.  Exits 1 if a run
failed or the oracle rejected an answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from spans import LAYERS  # noqa: E402

# the spans each workload is meant to spend its time in
INTENDED = {
    "maxsat-oracle": ("cdcl.search",),
    "maxsat-budget": ("cnf.at_most_k", "cnf.copy", "cdcl.construct"),
    "sat-wide": ("encode.encode", "cdcl.construct", "cdcl.search"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, int]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        return {}, proc.returncode or 1
    return json.loads(lines[-1]), proc.returncode


def span_self_times(workload: str, seed: int) -> dict[str, float]:
    """Self time per span name, read back from the traced run's span file."""
    spans = []
    with open(HERE / "out" / f"spans-{workload}-seed{seed}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
    return out


def report(workload: str, seed: int, seconds: float) -> int:
    plain, rc0 = run(workload, seed, seconds, 0)
    traced, rc1 = run(workload, seed, seconds, 1)
    if rc0 or rc1 or not plain.get("correct") or not traced.get("correct"):
        print(f"{workload}: run failed (exit {rc0}/{rc1})")
        return 1
    m = traced["metrics"]
    layers = {name: m[f"layer.{name}.self_s"]["value"] for name in LAYERS + ("bench",)}
    total = sum(layers.values())
    print(f"\n== {workload}  seed {seed}  {traced['attempted']} ops traced")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  layer {name:12s} {value:10.3f} s  {100 * value / total:5.1f} %")
    by_span = span_self_times(workload, seed)
    print("  heaviest spans (self time):")
    for name, value in sorted(by_span.items(), key=lambda kv: -kv[1])[:6]:
        print(f"    {name:26s} {value:10.3f} s  {100 * value / total:5.1f} %")
    dominant = max(layers, key=layers.get)
    intended = sum(by_span.get(name, 0.0) for name in INTENDED[workload])
    print(f"  dominant layer: {dominant}")
    print(f"  intended spans {', '.join(INTENDED[workload])}: "
          f"{100 * intended / total:.1f} % of traced time")
    base = plain["metrics"]["norm.ops_per_s"]["value"]
    with_trace = m["trace.norm.ops_per_s"]["value"]
    print(f"  tracing overhead: norm.ops_per_s {base:.4g} untraced, {with_trace:.4g} traced "
          f"({100 * (base - with_trace) / base:+.1f} %)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOAD_NAMES:
        status |= report(workload, args.seed, args.seconds)
    return status


if __name__ == "__main__":
    sys.exit(main())
