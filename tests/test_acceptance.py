"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either computed by an independent oracle
(exhaustive enumeration, semantic bitset evaluation, structural audits)
or asserted directly against the worked examples.
"""

import random
import time

from bddlearn import cnf
from bddlearn.bdd import (
    SINK_ONE,
    SINK_ZERO,
    beads,
    classify,
    classify_table,
    gen_bdd,
    node_count,
)
from bddlearn.data import dataset_from_bits
from bddlearn.encode import decode, encode_bdd1, encode_bdd2, encode_maxsat
from bddlearn.postprocess import apply_bias_C, apply_bias_P, apply_bias_S, mark_unknown
from bddlearn.search import min_depth
from bddlearn.solve import sat_solve
from conftest import DEMO8_LABELS, DEMO8_ROWS
from oracles import (
    audit_bdd,
    best_split_error,
    certified_optimum,
    enumerate_sat,
    random_dataset,
    random_formula,
)


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def _demo8():
    return dataset_from_bits(DEMO8_ROWS, DEMO8_LABELS)


def test_criterion_01_three_variable_golden_example():
    expected_beads = {"00010111", "0001", "0111", "01", "0", "1"}
    gen_bdd("00010111", (0, 1, 2))  # warm-up outside the timed run
    t0 = time.perf_counter()
    got_beads = set(beads("00010111"))
    b = gen_bdd("00010111", (0, 1, 2))
    elapsed = time.perf_counter() - t0

    ok = got_beads == expected_beads
    # node multiset {x1, x2, x2, x3, sink0, sink1} with the shared x3 child
    ok &= sorted(b.levels.values()) == [1, 2, 2, 3]
    ok &= b.used_sinks() == {SINK_ONE, SINK_ZERO}
    root = b.root
    ok &= b.levels.get(root) == 1
    n_left, n_right = b.left.get(root), b.right.get(root)
    ok &= b.tables.get(n_left) == "0001" and b.tables.get(n_right) == "0111"
    n_shared = b.right.get(n_left)
    ok &= b.tables.get(n_shared) == "01"
    ok &= b.left.get(n_left) == SINK_ZERO
    ok &= b.left.get(n_right) == n_shared and b.right.get(n_right) == SINK_ONE
    ok &= b.left.get(n_shared) == SINK_ZERO and b.right.get(n_shared) == SINK_ONE
    ok &= node_count(b) == 6
    ok &= elapsed < 1e-3
    _criterion(1, "beads and diagram of 00010111", ok, f"{elapsed * 1e6:.0f}us")


def test_criterion_02_depth_two_perfect_classifier():
    ds = _demo8()
    t0 = time.perf_counter()
    formula, ctx = encode_bdd2(ds, 2)
    res = sat_solve(formula, budget=10)
    elapsed = time.perf_counter() - t0
    ok = res.status == "SAT" and elapsed < 1.0

    ordering, table = decode(res.model, ctx)
    hits = sum(
        classify_table(table, ordering, row) == label
        for row, label in zip(ds.features, ds.labels)
    )
    ok &= hits == 8

    # the reference solution (ordering [f1, f2], table 1000) satisfies the
    # formula: force every semantic variable and the instance stays SAT
    forced = formula.copy()
    placements = {(0, 0), (1, 1)}  # feature r at ordering position i
    for r in range(ctx.n_features):
        for i in range(ctx.depth):
            var = ctx.a[r][i]
            forced.add_hard([var] if (r, i) in placements else [-var])
    reference_cells = "1000"
    for j, var in enumerate(ctx.c):
        forced.add_hard([var] if reference_cells[j] == "1" else [-var])
    reference_ordering = (0, 1)
    for i in range(ctx.depth):
        for q, row in enumerate(ds.features):
            var = ctx.d[i][q]
            forced.add_hard([var] if row[reference_ordering[i]] else [-var])
    ok &= sat_solve(forced, budget=10).status == "SAT"
    _criterion(2, "depth-2 perfect classifier on the 8-example set", ok,
               f"{elapsed:.3f}s, {hits}/8")


def test_criterion_03_merge_golden_example():
    # five training examples route past cells 1, 3, and 8 of table 00010111
    rows = [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    labels = [0, 1, 0, 1, 1]
    ds = dataset_from_bits(rows, labels)
    ext = mark_unknown("00010111", (0, 1, 2), ds)
    ok = ext.cells == "u0u1011u"

    table, b = apply_bias_C(ext, (0, 1, 2))
    ok &= table.cells == "10010110"
    under_root = set(beads(table.cells)) - {table.cells}
    ok &= under_root == {"1001", "0110", "10", "01", "0", "1"}

    # merged diagram: root over two second-level nodes that share the two
    # swapped third-level children, both sinks in use
    ok &= sorted(b.levels.values()) == [1, 2, 2, 3, 3]
    root = b.root
    n1001, n0110 = b.left.get(root), b.right.get(root)
    ok &= b.tables.get(n1001) == "1001" and b.tables.get(n0110) == "0110"
    n10, n01 = b.left.get(n1001), b.right.get(n1001)
    ok &= b.tables.get(n10) == "10" and b.tables.get(n01) == "01"
    ok &= b.left.get(n0110) == n01 and b.right.get(n0110) == n10
    ok &= b.left.get(n10) == SINK_ONE and b.right.get(n10) == SINK_ZERO
    ok &= b.left.get(n01) == SINK_ZERO and b.right.get(n01) == SINK_ONE
    ok &= node_count(b) == 7
    _criterion(3, "compatible-subtree merge of u0u1011u", ok,
               f"table {table.cells}, {node_count(b)} nodes")


def test_criterion_04_maxsat_matches_exhaustive_oracle():
    rng = random.Random(7)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(100):
        k = rng.choice([4, 5, 6])
        m = rng.randint(8, 24)
        depth = rng.choice([2, 3])
        ds = random_dataset(rng, k=k, m=m)
        formula, _ = encode_maxsat(ds, depth)
        try:  # the certificate proves the optimum and finds a model of it
            certified_optimum(formula, best_split_error(ds, depth), budget=90)
        except AssertionError:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120
    _criterion(4, "optimum equals brute-force oracle on 100 instances", ok,
               f"{elapsed:.1f}s, {mismatches} mismatches")


def test_criterion_05_encodings_equisatisfiable():
    rng = random.Random(19)
    t0 = time.monotonic()
    disagreements = 0
    trials = 0
    while trials < 50:
        k = rng.randint(2, 5)
        m = rng.randint(2, 12)
        ds = random_dataset(rng, k=k, m=m, consistent=True)
        if len(set(ds.labels)) < 2:
            continue
        depth = rng.randint(1, min(3, k))
        trials += 1
        r1 = sat_solve(encode_bdd1(ds, depth)[0], budget=30)
        r2 = sat_solve(encode_bdd2(ds, depth)[0], budget=30)
        if r1.status != r2.status:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60
    _criterion(5, "direct and improved encodings agree on 50 instances", ok,
               f"{elapsed:.1f}s, {disagreements} disagreements")


def test_criterion_06_encoding_size_ordering():
    rng = random.Random(5)
    ds = random_dataset(rng, k=20, m=100)
    ok = True
    for depth in (3, 4, 5):
        wide = cnf.literal_count(encode_bdd1(ds, depth)[0])
        tight = cnf.literal_count(encode_bdd2(ds, depth)[0])
        ok &= tight < wide
    ratios = []
    for k in (20, 40, 80):
        dsk = random_dataset(random.Random(5), k=k, m=100)
        wide = cnf.literal_count(encode_bdd1(dsk, 3)[0])
        tight = cnf.literal_count(encode_bdd2(dsk, 3)[0])
        ratios.append(wide / tight)
    ok &= ratios[0] < ratios[1] < ratios[2]
    _criterion(6, "improved encoding is smaller and the gap grows with width",
               ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_07_structural_invariants():
    rng = random.Random(101)
    violations = 0
    for _ in range(1000):
        order = rng.randint(1, 5)
        cells = "".join(rng.choice("01") for _ in range(1 << order))
        features = list(range(order))
        rng.shuffle(features)
        ordering = tuple(features)
        b = gen_bdd(cells, ordering)
        if audit_bdd(b):
            violations += 1
            continue
        if node_count(b) != len(beads(cells)):
            violations += 1
            continue
        for point in range(1 << order):
            example = [0] * order
            for pos in range(order):
                example[ordering[pos]] = (point >> (order - 1 - pos)) & 1
            if classify(b, example) != classify_table(cells, ordering, example):
                violations += 1
                break
    _criterion(7, "1000 random diagrams pass ordered/reduced/bead audits",
               violations == 0, f"{violations} violations")


def test_criterion_08_min_depth_search():
    t0 = time.monotonic()
    demo = min_depth(_demo8(), 7, budget=60)
    ok = demo.depth == 2 and demo.unsat_depth == 1
    ok &= demo.model.train_accuracy == 1.0

    rows, labels = [], []
    for a in range(8):
        p1, p2, p3 = (a >> 2) & 1, (a >> 1) & 1, a & 1
        rows.append((p1, p2, p3, p1 & p2, p2 | p3))
        labels.append(p1 ^ p2 ^ p3)
    parity = dataset_from_bits(rows, labels)
    ok &= best_split_error(parity, 2) > 0  # oracle: depth 2 cannot be perfect
    ok &= best_split_error(parity, 3) == 0
    result = min_depth(parity, 1, budget=60)
    ok &= result.depth == 3 and result.unsat_depth == 2
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    _criterion(8, "minimum-depth search with SAT witness and UNSAT certificate",
               ok, f"{elapsed:.1f}s")


def test_criterion_09_bias_safety():
    rng = random.Random(11)
    prediction_changes = 0
    size_violations = 0
    for _ in range(50):
        k = rng.choice([4, 5, 6])
        m = rng.randint(8, 24)
        depth = rng.choice([2, 3])
        ds = random_dataset(rng, k=k, m=m)
        formula, ctx = encode_maxsat(ds, depth)
        model = certified_optimum(formula, best_split_error(ds, depth), budget=90)
        ordering, table = decode(model, ctx)
        ext = mark_unknown(table, ordering, ds)
        tables = {
            "S": apply_bias_S(ext),
            "P": apply_bias_P(ext),
        }
        tables["C"], merged = apply_bias_C(ext, ordering)
        for cells in tables.values():
            for row in ds.features:
                if classify_table(cells, ordering, row) != classify_table(
                    table, ordering, row
                ):
                    prediction_changes += 1
                    break
        plain = gen_bdd(tables["S"], ordering)
        if node_count(merged) > node_count(plain):
            size_violations += 1
    ok = prediction_changes == 0 and size_violations == 0
    _criterion(9, "biases preserve training predictions; merging never grows",
               ok, f"{prediction_changes} prediction changes, "
                   f"{size_violations} size violations")


def test_criterion_10_solver_agrees_with_enumeration():
    rng = random.Random(2024)
    t0 = time.monotonic()
    disagreements = 0
    for _ in range(500):
        clauses, n = random_formula(rng, max_vars=20, max_clauses=90)
        expected = enumerate_sat(clauses, n)
        formula = cnf.Formula(n)
        for clause in clauses:
            formula.add_hard(clause)
        res = sat_solve(formula, budget=30)
        if expected is None:
            if res.status != "UNSAT":
                disagreements += 1
        else:
            if res.status != "SAT" or not cnf.verify_model(formula, res.model):
                disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60
    _criterion(10, "embedded solver matches semantic enumeration on 500 formulas",
               ok, f"{elapsed:.1f}s, {disagreements} disagreements")
