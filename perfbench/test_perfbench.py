"""Tests of the benchmark's own oracle, correctness gate and determinism.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "tests", HERE.parent / "src"):
    sys.path.insert(0, str(path))

import determinism  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import best_split_error, random_dataset  # noqa: E402


def test_best_error_matches_exhaustive_permutation_oracle():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(2, 6)
        m = rng.randint(1, 20)
        depth = rng.randint(1, min(3, k))
        ds = random_dataset(rng, k, m, consistent=rng.random() < 0.3)
        assert oracle.best_error(ds.features, ds.labels, depth) == best_split_error(ds, depth)


def test_min_perfect_depth_matches_exhaustive_permutation_oracle():
    rng = random.Random(12)
    for _ in range(100):
        k = rng.randint(2, 5)
        ds = random_dataset(rng, k, rng.randint(2, 14), consistent=True)
        want = next(
            (d for d in range(1, k + 1) if best_split_error(ds, d) == 0), None
        )
        if len(set(ds.labels)) < 2:
            want = 0
        assert oracle.min_perfect_depth(ds.features, ds.labels, k) == want


def test_best_error_needs_enough_features():
    assert oracle.best_error([(0, 1), (1, 0)], [0, 1], 3) is None


def test_tail_has_ten_samples_beyond_it():
    walls = [float(x) for x in range(1, 101)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.fixture(scope="module")
def solved():
    wl = workloads.MaxSatOracle()
    inst = wl.setup(random.Random(3), HERE)[0]
    model = wl.op(inst, 0)
    return wl, inst, wl.expect(inst), model


def test_gate_accepts_a_correct_answer(solved):
    wl, inst, best, model = solved
    assert wl.check(inst, best, model, 0.1).wrong == []


def test_gate_rejects_an_optimum_with_the_wrong_cost(solved):
    wl, inst, best, model = solved
    assert wl.check(inst, best + 1, model, 0.1).wrong


def test_gate_rejects_a_feasible_cost_below_the_optimum(solved):
    wl, inst, best, model = solved
    feasible = replace(model, optimal=False)
    assert wl.check(inst, best + 1, feasible, 0.1).wrong
    assert wl.check(inst, best, feasible, 0.1).wrong == []


def test_gate_rejects_a_diagram_that_disagrees_with_its_table(solved):
    wl, inst, best, model = solved
    flipped = "".join("1" if c == "0" else "0" for c in model.table.cells)
    bad = replace(model, table=replace(model.table, cells=flipped))
    assert wl.check(inst, best, bad, 0.1).wrong


def test_maxsat_oracle_counts_repeat_exactly():
    assert determinism.check("maxsat-oracle", seed=5, ops=6) == []


def test_gate_rejects_a_wrong_min_depth(tmp_path):
    wl = workloads.SatWide()
    wl.pool_size = 1
    session = wl.setup(random.Random(4), tmp_path)[0]
    answer = wl.op(session, 0)
    best = wl.expect(session)
    assert wl.check(session, best, answer, 1.0).wrong == []
    assert wl.check(session, best + 1, answer, 1.0).wrong
