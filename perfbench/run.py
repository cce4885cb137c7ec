"""Run one benchmark workload against the sources in ``src/`` and print metrics.

    python3 perfbench/run.py --workload maxsat-oracle --seed 1 --seconds 30 --trace 0

The inputs come from ``--seed`` alone.  Ops run one after another in this
process, each timed on its own, until the ops have taken ``--seconds`` in
total; every answer is then checked against the benchmark's exact oracle.
The lines before the last list every metric by name with its unit.  The
last line is one JSON object: with ``--trace 0`` it holds the gated
end-to-end metrics (CPU times scaled to a nominal machine speed, see
:mod:`speed`), with ``--trace 1`` the per-layer metrics of a run through
the timing shims of :mod:`spans`, whose spans go to ``perfbench/out/``.
The exit code is 1 when the oracle rejected any answer, 2 when the
sources are missing, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

WORKLOAD_NAMES = ("maxsat-oracle", "maxsat-budget", "sat-wide")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of --seconds")
    ap.add_argument("--counts", type=Path, default=None,
                    help="with --trace 1, write each op's solver and size counts here")
    return ap.parse_args(argv)


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile).  Below twenty samples no percentile above
    the median qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_time() -> float:
    """CPU time of a fresh interpreter that imports the program."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bddlearn.cli"
    start = cpu_children()
    subprocess.run([sys.executable, "-c", code], check=True)
    return cpu_children() - start


def run_ops(wl, pool, args, tracer, speed):
    """Run ops until their walls add up to ``--seconds`` (or ``--ops`` ops).

    Each op is timed twice: wall time, and the CPU time of this process.
    The program runs on one thread and waits on nothing, so the two agree
    on an idle machine; on a shared one, wall time also counts the time the
    machine gave to other tenants, which moved one seed's throughput by up
    to a third between runs.
    """
    expected: dict[int, object] = {}
    records = []
    measured = 0.0
    next_sample = 1.0
    i = 0
    while (measured < args.seconds) if args.ops is None else (i < args.ops):
        slot = i % len(pool)
        inst = pool[slot]
        if tracer is not None:
            tracer.op = i
            span = tracer.open("bench.op")
        start, cpu = time.perf_counter(), time.process_time()
        try:
            answer, error = wl.op(inst, i), None
        except Exception as exc:  # a failed op is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if tracer is not None:
            tracer.close(span)
        measured += wall
        if answer is not None:
            if slot not in expected:
                expected[slot] = wl.expect(inst)
            outcome = wl.check(inst, expected[slot], answer, wall)
        else:
            outcome = None
        records.append((wall, cpu, error, outcome))
        i += 1
        if measured >= next_sample:  # outside the op: one sample per second of ops
            speed.sample()
            next_sample = measured + 1.0
    speed.sample()
    return records, measured


def end_to_end(wl, records, measured, setup_s, factor):
    """Every end-to-end metric that applies to the workload: name -> (value, unit).

    ``norm.*`` and ``setup_s`` are CPU times scaled by ``factor``, the
    machine's speed relative to the nominal one (see :mod:`speed`).
    """
    walls = [w for w, _, _, _ in records]
    cpus = [c for _, c, _, _ in records]
    done = [o for _, _, e, o in records if e is None]
    n = len(records)
    tail_s, tail_pct = tail(walls)
    failed = sum(1 for _, _, e, o in records if e is not None or o.wrong)
    metrics = {
        "setup_s": (setup_s * factor, "s"),
        "norm.ops_per_s": (n / (sum(cpus) * factor), "1/s"),
        "norm.op_s.p50": (statistics.median(cpus) * factor, "s"),
        "machine_speed": (factor, "ratio"),
        "ops_per_s": (n / measured, "1/s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (tail_s, "s"),
        "op_s.tail_percentile": (tail_pct, "%"),
        "op_s.samples": (n, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "train_accuracy": (
            statistics.fmean(o.train_accuracy for o in done) if done else 0.0, "ratio"),
        "optimal_rate": (sum(o.optimal for o in done) / n, "ratio"),
        "failed_rate": (failed / n, "ratio"),
    }
    if done:
        metrics.update(wl.summary(done))
    return metrics, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bddlearn" / "__init__.py").is_file():
        print("error: the bddlearn sources (src/bddlearn) are not next to perfbench/",
              file=sys.stderr)
        return 2
    if args.counts is not None and not args.trace:
        print("error: --counts needs --trace 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports the program

    speed = Speed()
    speed.sample()
    import_s = statistics.median(import_time() for _ in range(SETUP_REPEATS))
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)

    with contextlib.ExitStack() as stack:
        setups = []
        for _ in range(SETUP_REPEATS):
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=OUT)))
            start = time.process_time()
            pool = wl.setup(random.Random(args.seed), workdir)
            setups.append(time.process_time() - start)
            speed.sample()
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        records, measured = run_ops(wl, pool, args, tracer, speed)

    metrics, failed = end_to_end(wl, records, measured, setup_s, speed.factor)
    wrong = [(i, o.wrong) for i, (*_, o) in enumerate(records) if o is not None and o.wrong]
    errors = [(i, e) for i, (_, _, e, _) in enumerate(records) if e is not None]
    for i, reasons in wrong:
        print(f"WRONG op {i}: {'; '.join(reasons)}")
    for i, error in errors:
        print(f"FAILED op {i}: {error}")

    if tracer is not None:
        layer = spans.layer_metrics(tracer)
        layer["trace.norm.ops_per_s"] = metrics["norm.ops_per_s"]
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if args.counts is not None:
            args.counts.write_text(json.dumps(spans.op_counts(tracer, len(records))))
        listing = {**metrics, **layer}
        reported = {name: layer[name] for name in spans.PER_LAYER}
    else:
        listing = metrics
        reported = {name: metrics[name] for name in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in listing.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
    }))
    return 1 if wrong else 0


# the gated metrics; the others in the listing are 0 by design on some
# workload or spread too much between seeds to hold a bound
END_TO_END = ("setup_s", "norm.ops_per_s", "norm.op_s.p50", "peak_rss_mb", "train_accuracy")

if __name__ == "__main__":
    sys.exit(main())
