"""Determinism check: two runs with one seed give exactly the same counts.

    python3 perfbench/determinism.py --seed 1 [--workload maxsat-oracle ...]

Each workload runs twice, in two processes, for a fixed number of ops
with tracing on.  Per op the solver counters (conflicts, decisions,
propagations), the encoding sizes, ``cnf.card_vars`` and ``bdd.nodes``
must agree exactly.  When a solver call in the op hit its wall budget, the
work done depends on the clock, so only the encoding sizes are compared
for that op.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

OPS = {"maxsat-oracle": 12, "maxsat-budget": 4, "sat-wide": 3}
CLOCK_FREE = ("encode.encode.vars", "encode.encode.clauses", "encode.encode.literals")


def counts(workload: str, seed: int, ops: int, path: Path) -> list[dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1", "--ops", str(ops), "--counts", str(path)]
    subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(path.read_text())


def differences(first: list[dict], second: list[dict]) -> list[str]:
    out = []
    for i, (a, b) in enumerate(zip(first, second)):
        keys = CLOCK_FREE if a["budget_hits"] or b["budget_hits"] else a.keys()
        out.extend(f"op {i}: {key} {a[key]} != {b[key]}" for key in keys if a[key] != b[key])
    return out


def check(workload: str, seed: int, ops: int | None = None) -> list[str]:
    ops = ops or OPS[workload]
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        first = counts(workload, seed, ops, Path(tmp) / "a.json")
        second = counts(workload, seed, ops, Path(tmp) / "b.json")
    return differences(first, second)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOAD_NAMES:
        diffs = check(workload, args.seed)
        print(f"{workload}: {'same counts' if not diffs else 'DIFFERENT counts'}")
        for line in diffs:
            print(f"  {line}")
        status |= bool(diffs)
    return status


if __name__ == "__main__":
    sys.exit(main())
