import random
import time
from dataclasses import replace
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bddlearn import cnf, search, solve
from bddlearn.bdd import SINK_ONE, TruthTable, classify_table, node_count
from bddlearn.data import DataError, cell_counts, dataset_from_bits
from bddlearn.search import (
    DepthInsufficientError,
    LearnConfig,
    PreselectConfig,
    SolverTimeoutError,
    cross_validate,
    evaluate,
    learn,
    min_depth,
    preselect_features,
    training_accuracy,
)
from oracles import best_split_error, greedy_classifier, random_dataset


def parity_dataset():
    """3-bit parity hidden among five features; depth 3 is necessary."""
    rows, labels = [], []
    for a in range(8):
        p1, p2, p3 = (a >> 2) & 1, (a >> 1) & 1, a & 1
        rows.append((p1, p2, p3, p1 & p2, p2 | p3))
        labels.append(p1 ^ p2 ^ p3)
    return dataset_from_bits(rows, labels)


def test_min_depth_demo8(demo8):
    result = min_depth(demo8, 7, budget=60)
    assert result.depth == 2
    assert result.unsat_depth == 1
    assert result.model.train_accuracy == 1.0
    assert ("1", "UNSAT") not in result.probes  # probes are (depth, status) ints
    assert (1, "UNSAT") in result.probes
    assert (2, "SAT") in result.probes


def test_min_depth_single_feature_dataset():
    ds = dataset_from_bits([(0, 1), (1, 0), (0, 0), (1, 1)], [0, 1, 0, 1])
    result = min_depth(ds, 2, budget=30)
    assert result.depth == 1
    assert result.model.ordering == (0,)


def test_min_depth_parity_needs_three():
    result = min_depth(parity_dataset(), 1, budget=120)
    assert result.depth == 3
    assert result.unsat_depth == 2
    assert result.model.train_accuracy == 1.0


def test_min_depth_binary_strategy_agrees(demo8):
    linear = min_depth(demo8, 4, budget=60)
    binary = min_depth(demo8, 4, budget=60, strategy="binary")
    assert linear.depth == binary.depth == 2


def test_min_depth_rejects_inconsistent_data():
    ds = dataset_from_bits([(0,), (0,)], [0, 1])
    with pytest.raises(DataError):
        min_depth(ds, 3, budget=10)


def test_min_depth_on_two_labels_without_features_is_a_data_error():
    # both rows share the empty feature vector; no depth can separate them,
    # and depth 0 is no probe, so the consistency check must answer
    ds = dataset_from_bits([(), ()], [0, 1])
    with pytest.raises(DataError, match="inconsistent.*no depth admits"):
        min_depth(ds, 1, budget=10)


def test_min_depth_single_class_short_circuit():
    ds = dataset_from_bits([(0, 1), (1, 0)], [1, 1])
    result = min_depth(ds, 5, budget=10)
    assert result.depth == 0
    assert result.model.bdd.root == SINK_ONE


def test_preselect_pure_dataset_is_empty():
    ds = dataset_from_bits([(0, 1), (1, 0)], [1, 1])
    assert preselect_features(ds, 3) == ()


def test_preselect_demo8_root_is_first_feature(demo8):
    selected = preselect_features(demo8, 2)
    assert 0 in selected  # f1 alone separates half the data perfectly
    assert selected == (0, 1)  # f2 finishes the job on the f1=0 side


def test_preselect_respects_tree_node_bound():
    rng = random.Random(19)
    for _ in range(10):
        ds = random_dataset(rng, k=8, m=30)
        for depth in (1, 2, 3):
            assert len(preselect_features(ds, depth)) <= (1 << depth) - 1


def test_preselect_min_leaf_stops_splits(demo8):
    assert preselect_features(demo8, 4, min_leaf=9) == ()


def test_learn_demo8_maxsat(demo8):
    model = learn(demo8, LearnConfig(depth=2, mode="maxsat", bias="S", budget=60))
    assert model.train_accuracy == 1.0
    assert model.optimal
    assert node_count(model.bdd) <= 4
    assert model.literal_count > 0
    assert model.solver_stats["cost"] == 0
    assert model.solver_stats["learned_deleted"] >= 0


def test_learn_single_class_short_circuit():
    ds = dataset_from_bits([(0, 1), (1, 1)], [1, 1])
    model = learn(ds, LearnConfig(depth=3))
    assert model.train_accuracy == 1.0
    assert model.bdd.root == SINK_ONE
    assert model.solver_stats.get("solver") == "none"
    assert model.literal_count == 0


def test_learn_matches_oracle_optimum():
    rng = random.Random(37)
    for _ in range(4):
        ds = random_dataset(rng, k=6, m=24)
        model = learn(ds, LearnConfig(depth=2, mode="maxsat", bias="S", budget=120))
        assert model.optimal
        errors = round((1 - model.train_accuracy) * ds.m)
        assert errors == best_split_error(ds, 2)


def test_learn_sat_mode_rejects_inconsistent_data():
    ds = dataset_from_bits([(1, 0), (1, 0)], [0, 1])
    with pytest.raises(DataError):
        learn(ds, LearnConfig(depth=2, mode="sat"))


def test_learn_sat_mode_depth_insufficient(demo8):
    with pytest.raises(DepthInsufficientError):
        learn(demo8, LearnConfig(depth=1, mode="sat", budget=30))


@pytest.mark.parametrize("mode", ["sat", "maxsat"])
@pytest.mark.parametrize("k", [0, 1])
def test_a_depth_above_the_feature_count_is_a_data_error(monkeypatch, mode, k):
    rows = [tuple((a >> s) & 1 for s in range(k)) for a in range(4)]
    ds = dataset_from_bits(rows, [0, 1, 0, 1])
    _no_solver(monkeypatch)
    with pytest.raises(DataError, match="depth 2 is above the number of features"):
        learn(ds, LearnConfig(depth=2, mode=mode, budget=60))


def test_learn_timeout(monkeypatch):
    # the clock reads 0 when the budget starts and 1 s on every later look,
    # so the budget runs out before the walk tries its first feature
    ticks = iter([0.0])
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks, 1.0)))
    ds = random_dataset(random.Random(3), k=16, m=60)
    with pytest.raises(SolverTimeoutError):
        learn(ds, LearnConfig(depth=4, mode="maxsat", budget=0.5))


@pytest.mark.parametrize("mode", ["sat", "maxsat"])
def test_bool_cells_learn_the_model_of_their_int_twin(mode):
    ds = parity_dataset() if mode == "sat" else random_dataset(random.Random(4), k=6, m=30)
    as_bools = dataset_from_bits(
        [list(map(bool, row)) for row in ds.features], list(map(bool, ds.labels))
    )
    cfg = LearnConfig(depth=3, mode=mode)

    def untimed(model):
        stats = {key: v for key, v in model.solver_stats.items() if key != "elapsed"}
        return replace(model, solver_stats=stats)

    assert untimed(learn(as_bools, cfg)) == untimed(learn(ds, cfg))


def test_learn_counts_the_seed_inside_the_budget(monkeypatch):
    ds = random_dataset(random.Random(3), k=6, m=20)
    walk = search.best_subset

    def slow_walk(dataset, depth, stop, **kwargs):
        time.sleep(0.05)
        return walk(dataset, depth, stop, **kwargs)

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran with no budget left")

    monkeypatch.setattr(search, "best_subset", slow_walk)
    monkeypatch.setattr(search.solve, "maxsat_solve", no_solve)
    with pytest.raises(SolverTimeoutError):
        learn(ds, LearnConfig(depth=2, mode="maxsat", budget=0.04))


def _optimal_erring_seeds(rng, count):
    """Datasets whose greedy classifier at depth 2 errs and is optimal."""
    found = []
    while len(found) < count:
        ds = random_dataset(rng, k=4, m=12)
        cost = greedy_classifier(ds, 2)[2]
        if cost and cost == best_split_error(ds, 2):
            found.append(ds)
    return found


def test_an_optimal_erring_seed_costs_one_sat_call(monkeypatch):
    built = _count_solvers(monkeypatch)
    for ds in _optimal_erring_seeds(random.Random(37), 3):
        ordering, _, cost = greedy_classifier(ds, 2)
        built.clear()
        model = learn(ds, LearnConfig(depth=2, mode="maxsat", budget=60))
        assert model.optimal
        assert model.solver_stats["iterations"] == 1 == len(built)
        assert model.solver_stats["cost"] == cost
        assert model.ordering == ordering


def test_a_seed_that_misreports_its_cost_is_an_internal_error(monkeypatch):
    # the seed's table errs on ``cost`` rows, the optimum; claiming one
    # fewer, nothing beats the claim, and the row count catches it
    for ds in _optimal_erring_seeds(random.Random(41), 2):
        walk = search.best_subset(ds, 2, cost_core=True)
        best = walk.best
        lying = replace(walk, best=replace(best, cost=best.cost - 1))
        with monkeypatch.context() as m:
            m.setattr(search, "best_subset", lambda *args, **kwargs: lying)
            with pytest.raises(
                RuntimeError, match="internal error: model fails hard-clause check"
            ):
                learn(ds, LearnConfig(depth=2, mode="maxsat", budget=60))


def test_learn_short_budget_on_a_large_dataset_is_feasible():
    ds = random_dataset(random.Random(1), k=40, m=500)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=0.3))
    assert not model.optimal
    cost = model.solver_stats["cost"]
    assert cost <= model.solver_stats["seed_cost"]
    assert round((1 - model.train_accuracy) * ds.m) == cost


@pytest.mark.parametrize("budget", [0.3, 1.0])
def test_learn_returns_within_its_budget_on_a_large_dataset(budget):
    # the walk, the proof's encoding and its solver all look at the one
    # deadline; what is left is a single propagation or a model check
    ds = random_dataset(random.Random(1), k=40, m=500)
    start = time.monotonic()
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=budget))
    assert time.monotonic() - start <= budget + 0.5
    assert round((1 - model.train_accuracy) * ds.m) == model.solver_stats["cost"]


def _suboptimal_seeds(rng, count, k, m, depth):
    """Datasets whose greedy classifier errs more than the optimum."""
    found = []
    while len(found) < count:
        ds = random_dataset(rng, k=k, m=m)
        if greedy_classifier(ds, depth)[2] > best_split_error(ds, depth):
            found.append(ds)
    return found


def test_under_the_cap_the_descent_starts_at_the_optimum(monkeypatch):
    # the walk's optimum is the incumbent, so the one SAT call of the
    # descent is the UNSAT proof below it
    uppers = []
    descend = solve.maxsat_solve

    def recorded(formula, budget, **kwargs):
        uppers.append(kwargs["upper"])
        return descend(formula, budget, **kwargs)

    monkeypatch.setattr(search.solve, "maxsat_solve", recorded)
    built = _count_solvers(monkeypatch)
    # the instance of the budget-stop test above: seed 7, optimum 5
    instances = [(random_dataset(random.Random(23), k=6, m=30), 3)]
    instances += [(ds, 2) for ds in _suboptimal_seeds(random.Random(31), 3, 6, 24, 2)]
    for ds, depth in instances:
        uppers.clear()
        built.clear()
        model = learn(ds, LearnConfig(depth=depth, mode="maxsat", budget=60))
        best = best_split_error(ds, depth)
        assert model.optimal
        assert uppers == [best] == [model.solver_stats["cost"]]
        assert model.solver_stats["iterations"] == 1 == len(built)
        assert model.solver_stats["seed_cost"] > best
        assert round((1 - model.train_accuracy) * ds.m) == best


def test_a_budget_stop_returns_the_exact_optimum():
    # the proof at (120, 16, 3) outlasts the budget; the model returned is
    # the walk's optimum, five errors below the greedy classifier
    ds = random_dataset(random.Random(1), k=16, m=120)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=2))
    cost = model.solver_stats["cost"]
    assert cost == best_split_error(ds, 3) == 35
    assert model.solver_stats["seed_cost"] == greedy_classifier(ds, 3)[2] > cost
    assert round((1 - model.train_accuracy) * ds.m) == cost


def test_a_solver_model_below_the_walk_is_an_internal_error(monkeypatch):
    # a walk that reports one error above the optimum leaves the solver a
    # model below the incumbent, which an exact walk cannot
    [ds] = _suboptimal_seeds(random.Random(37), 1, 6, 24, 2)
    walk = search.best_subset

    def off_by_one(*args, **kwargs):
        found = walk(*args, **kwargs)
        return replace(found, best=replace(found.best, cost=found.best.cost + 1))

    monkeypatch.setattr(search, "best_subset", off_by_one)
    with pytest.raises(RuntimeError, match="the solver beat the subset walk"):
        learn(ds, LearnConfig(depth=2, mode="maxsat", budget=60))


def _stop_after(asks: int):
    """A walk's ``stop`` that lets ``asks`` features be tried, then stops."""
    left = iter(range(asks))
    return lambda: next(left, None) is None


def test_a_budget_spent_inside_the_walk_returns_its_best_leaf(monkeypatch):
    # MaxSAT mode keeps an anytime model: the walk stops after five
    # features, past its first leaf, the greedy classifier, and its best
    # leaf so far comes back without a solver
    ds = random_dataset(random.Random(1), k=16, m=120)
    ordering, cells, greedy_cost = greedy_classifier(ds, 3)
    walk = search.best_subset

    def stopped(dataset, depth, stop, **kwargs):
        return walk(dataset, depth, _stop_after(5), **kwargs)

    monkeypatch.setattr(search, "best_subset", stopped)
    _no_solver(monkeypatch)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=60))
    assert not model.optimal
    stats = model.solver_stats
    assert best_split_error(ds, 3) < stats["cost"] <= stats["seed_cost"] == greedy_cost
    assert stats["iterations"] == 0
    assert round((1 - model.train_accuracy) * ds.m) == stats["cost"]
    first = walk(ds, 3, _stop_after(3))  # stopped at its first leaf
    assert first.core is None
    assert (first.best.ordering, first.best.table.cells) == (ordering, cells)


def test_a_budget_spent_after_the_walk_returns_its_optimum(monkeypatch):
    # the walk finishes; the encoding of the proof formula then outlasts
    # the budget, and the walk's optimum comes back, not proven, without
    # a solver
    ds = random_dataset(random.Random(1), k=16, m=120)
    encode_fn = search.encode.encode_maxsat

    def slow_encode(*args, **kwargs):
        time.sleep(0.5)
        return encode_fn(*args, **kwargs)

    monkeypatch.setattr(search.encode, "encode_maxsat", slow_encode)
    built = _count_solvers(monkeypatch)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=0.5))
    assert not model.optimal
    assert model.solver_stats["cost"] == best_split_error(ds, 3) == 35
    assert round((1 - model.train_accuracy) * ds.m) == 35
    assert model.solver_stats["iterations"] == 0 == len(built)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(2, 24), st.data())
def test_the_walk_finds_the_oracle_optimum(depth, k, m, data):
    k = max(k, depth)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    assume(len(set(labels)) == 2)
    ds = dataset_from_bits(rows, labels)
    best = search.best_subset(ds, depth).best
    assert best.cost == best_split_error(ds, depth)
    search._check_witness(ds, best, depth)  # distinct features, a bead, its cost


def test_learn_reports_the_seed_cost():
    rng = random.Random(29)
    for _ in range(4):
        ds = random_dataset(rng, k=5, m=20)
        model = learn(ds, LearnConfig(depth=2, mode="maxsat", budget=120))
        assert model.solver_stats["seed_cost"] == greedy_classifier(ds, 2)[2]
        assert model.solver_stats["seed_cost"] >= model.solver_stats["cost"]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(2, 24), st.data())
def test_the_first_leaf_is_the_greedy_classifier(depth, k, m, data):
    # the walk stopped after one feature per level holds its first leaf
    k = max(k, depth)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    assume(len(set(labels)) == 2)
    ds = dataset_from_bits(rows, labels)
    ordering, cells, cost = greedy_classifier(ds, depth)
    first = search.best_subset(ds, depth, _stop_after(depth))
    assert (first.best.ordering, first.best.table.cells) == (ordering, cells)
    assert first.best.cost == first.first_cost == cost
    search._check_witness(ds, first.best, depth)  # distinct features, a bead, its cost
    walk = search.best_subset(ds, depth)
    assert walk.first_cost == cost >= walk.best.cost == best_split_error(ds, depth)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 24), st.data())
def test_training_accuracy_from_cell_counts_matches_row_routing(depth, k, m, data):
    k = max(k, depth)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    ordering = tuple(data.draw(st.permutations(range(k)))[:depth])
    cells = data.draw(st.text("01", min_size=1 << depth, max_size=1 << depth))
    ds = dataset_from_bits(rows, labels)
    table = TruthTable(cells)
    hits = sum(
        classify_table(table, ordering, row) == label
        for row, label in zip(ds.features, ds.labels)
    )
    assert training_accuracy(cell_counts(ds, ordering), table) == hits / m


def test_learn_biases_only_touch_untrafficked_cells(demo8):
    for bias in ("P", "C", "S"):
        model = learn(demo8, LearnConfig(depth=2, bias=bias, budget=60))
        assert model.train_accuracy == 1.0
        assert model.bias == bias


def test_learn_with_preselection(demo8):
    cfg = LearnConfig(
        depth=2, mode="maxsat", preselect=PreselectConfig(max_depth=4), budget=60
    )
    model = learn(demo8, cfg)
    assert model.train_accuracy == 1.0
    assert set(model.ordering) <= {0, 1}  # drawn from the preselected features


def test_learn_preselection_falls_back_when_too_small():
    # min_leaf so large the tree cannot split: preselection yields nothing,
    # the learner must fall back to the full feature set
    rng = random.Random(41)
    ds = random_dataset(rng, k=5, m=12)
    cfg = LearnConfig(
        depth=2,
        mode="maxsat",
        preselect=PreselectConfig(max_depth=3, min_leaf=100),
        budget=60,
    )
    model = learn(ds, cfg)
    assert model.optimal


def test_preselection_cannot_beat_full_feature_set():
    rng = random.Random(43)
    for _ in range(3):
        ds = random_dataset(rng, k=6, m=18)
        full = learn(ds, LearnConfig(depth=2, budget=120))
        pre = learn(
            ds,
            LearnConfig(
                depth=2, preselect=PreselectConfig(max_depth=4), budget=120
            ),
        )
        if full.optimal and pre.optimal:
            assert pre.train_accuracy <= full.train_accuracy + 1e-9


def test_oracle_optimum_improves_with_depth():
    rng = random.Random(47)
    for _ in range(5):
        ds = random_dataset(rng, k=5, m=16)
        errors = [best_split_error(ds, h) for h in (1, 2, 3)]
        assert errors[0] >= errors[1] >= errors[2]


def test_evaluate_on_training_data(demo8):
    model = learn(demo8, LearnConfig(depth=2, budget=60))
    assert evaluate(model, demo8) == 1.0


def test_evaluate_empty_test_set(demo8):
    model = learn(demo8, LearnConfig(depth=2, budget=60))
    empty = dataset_from_bits([], [], feature_names=demo8.feature_names)
    with pytest.raises(DataError, match="empty test set"):
        evaluate(model, empty)


def test_evaluate_constant_model_accuracy():
    train = dataset_from_bits([(0,), (1,)], [1, 1])
    model = learn(train, LearnConfig(depth=1))
    rows = [(i % 2,) for i in range(20)]
    labels = [1] * 13 + [0] * 7
    test = dataset_from_bits(rows, labels)
    assert evaluate(model, test) == pytest.approx(0.65)


def test_evaluate_feature_mismatch(demo8):
    model = learn(demo8, LearnConfig(depth=2, budget=60))
    narrow = dataset_from_bits([(1,)], [0])
    with pytest.raises(DataError):
        evaluate(model, narrow)


def _strip_timing(doc):
    doc = dict(doc)
    doc["runs"] = [
        {k: v for k, v in run.items() if k != "solve_seconds"} for run in doc["runs"]
    ]
    doc["aggregates"] = {
        k: v for k, v in doc["aggregates"].items() if k != "solve_seconds"
    }
    return doc


def test_cross_validate_run_count_and_determinism(demo8):
    cfg = LearnConfig(depth=2, mode="maxsat", budget=60)
    a = cross_validate(demo8, cfg, k=4, seeds=[1, 2])
    b = cross_validate(demo8, cfg, k=4, seeds=[1, 2])
    assert len(a.runs) == 8
    assert _strip_timing(a.to_json()) == _strip_timing(b.to_json())


def test_cross_validate_perfect_regime():
    rows = [(0, 0), (0, 1), (1, 0), (1, 1)] * 3
    labels = [r[0] for r in rows]
    ds = dataset_from_bits(rows, labels)
    report = cross_validate(ds, LearnConfig(depth=2, budget=60), k=3, seeds=[1])
    assert report.aggregates["failed"] == 0
    assert report.aggregates["optimal_rate"] == 1.0
    assert report.aggregates["train_accuracy"] == 1.0


def test_cross_validate_records_failures():
    # identical feature vectors with mixed labels: SAT-mode folds fail with
    # a diagnostic instead of aborting the whole protocol
    ds = dataset_from_bits([(0,)] * 8, [0, 1] * 4)
    report = cross_validate(
        ds, LearnConfig(depth=1, mode="sat", budget=60), k=2, seeds=[5]
    )
    assert len(report.runs) == 2
    assert any(r.status == "error" for r in report.runs)
    assert all(r.error for r in report.runs if r.status == "error")


def test_cross_validate_parallel_matches_serial(demo8):
    cfg = LearnConfig(depth=2, mode="maxsat", budget=60)
    serial = cross_validate(demo8, cfg, k=3, seeds=[4])
    parallel = cross_validate(demo8, cfg, k=3, seeds=[4], jobs=2)
    assert _strip_timing(serial.to_json()) == _strip_timing(parallel.to_json())


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(depth=0)
    with pytest.raises(ValueError):
        LearnConfig(depth=1, mode="other")
    with pytest.raises(ValueError):
        LearnConfig(depth=1, bias="X")
    with pytest.raises(ValueError):
        LearnConfig(depth=1, budget=0)


def cube_dataset(label):
    """Every row of three features, labelled by ``label(row)``."""
    rows = [((a >> 2) & 1, (a >> 1) & 1, a & 1) for a in range(8)]
    return dataset_from_bits(rows, [label(r) for r in rows])


def _no_solver(monkeypatch):
    """Fail the test if a solver, or a formula for one, is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solver or its formula was built")

    for owner in (solve.cdcl, solve):
        monkeypatch.setattr(owner, "CdclSolver", refuse)
    for encoder in ("encode_bdd2", "encode_maxsat"):
        monkeypatch.setattr(search.encode, encoder, refuse)


@pytest.mark.parametrize("mode", ["sat", "maxsat"])
def test_a_perfect_seed_is_returned_without_a_solver(monkeypatch, demo8, mode):
    ordering, _, cost = greedy_classifier(demo8, 2)
    assert cost == 0
    _no_solver(monkeypatch)
    model = learn(demo8, LearnConfig(depth=2, mode=mode, budget=60))
    assert model.optimal
    assert model.train_accuracy == 1.0
    assert model.ordering == ordering
    stats = model.solver_stats
    counters = ("decisions", "conflicts", "propagations", "restarts", "learned_deleted")
    assert all(stats[key] == 0 for key in counters)
    assert stats["seed_cost"] == 0
    if mode == "maxsat":
        assert stats["cost"] == stats["iterations"] == 0


def _count_solvers(monkeypatch) -> list:
    built = []
    cls = solve.cdcl.CdclSolver

    def counted(*args, **kwargs):
        built.append(1)
        return cls(*args, **kwargs)

    monkeypatch.setattr(solve.cdcl, "CdclSolver", counted)
    return built


@pytest.mark.parametrize(
    "ordering, cells",
    [
        ((1, 2), "1100"),  # misclassifies every row
        ((1, 1), "0011"),  # right on every row, but a feature placed twice
        ((0, 1), "0101"),  # right on every row, but not a bead
    ],
)
@pytest.mark.parametrize("mode", ["sat", "maxsat"])
def test_a_false_zero_cost_seed_is_an_internal_error(
    monkeypatch, mode, ordering, cells
):
    # labels are f1; each seed above claims cost 0 and breaks exactly one
    # of the witness checks
    ds = cube_dataset(lambda r: r[1])
    lying = search.Walk(search.Leaf(ordering, TruthTable(cells), 0), 0, ())
    monkeypatch.setattr(search, "best_subset", lambda *args, **kwargs: lying)
    with pytest.raises(RuntimeError, match="internal error"):
        learn(ds, LearnConfig(depth=2, mode=mode, budget=60))


def test_maxsat_witness_matches_the_solver_on_separable_data():
    # the solver finds a perfect model of each formula; the witness, the
    # perfect greedy classifier, answers with no solver call
    rng = random.Random(5)
    witnessed = 0
    for i in range(12):
        # labels follow a random depth-2 rule on two random features
        depth = 2 + i % 2
        f, g = rng.sample(range(6), 2)
        rule = rng.choice(["0001", "0111", "0110", "1000", "0010", "1011"])
        rows = [tuple(rng.randint(0, 1) for _ in range(6)) for _ in range(20)]
        ds = dataset_from_bits(rows, [int(rule[2 * r[f] + r[g]]) for r in rows])
        ordering, _, cost = greedy_classifier(ds, depth)
        if cost:
            continue
        witnessed += 1
        formula, _ = search.encode.encode_maxsat(ds, depth)
        assert solve.maxsat_solve(formula, budget=60).cost == 0
        model = learn(ds, LearnConfig(depth=depth, mode="maxsat", bias="S", budget=60))
        assert model.solver_stats["iterations"] == 0
        assert model.ordering == ordering
        assert model.optimal and model.solver_stats["cost"] == 0
        assert model.train_accuracy == 1.0
    assert witnessed >= 3


@pytest.mark.parametrize(
    "mode, step", [("sat", "check_consistency"), ("maxsat", "literal_count")]
)
def test_the_budget_runs_from_the_call(monkeypatch, demo8, mode, step):
    # demo8's seed is perfect at depth 2, so only the budget stops the
    # witness after a step before it that outlasts the budget: the
    # encoder's consistency check or the literal count (no formula is
    # built before the witness)
    step_fn = getattr(search.encode, step)

    def slow_step(*args):
        time.sleep(0.06)
        return step_fn(*args)

    monkeypatch.setattr(search.encode, step, slow_step)
    _no_solver(monkeypatch)
    with pytest.raises(SolverTimeoutError):
        learn(demo8, LearnConfig(depth=2, mode=mode, budget=0.03))


def test_the_subset_search_answers_when_the_seed_errs(monkeypatch):
    # the greedy classifier errs on f1 xor f2; the subset search finds
    # {f1, f2}, roots it at f1, and no solver is built, in either mode
    ds = cube_dataset(lambda r: r[1] ^ r[2])
    assert greedy_classifier(ds, 2)[2] == 4
    _no_solver(monkeypatch)
    for mode in ("sat", "maxsat"):
        model = learn(ds, LearnConfig(depth=2, mode=mode, budget=60))
        assert model.optimal
        assert model.train_accuracy == 1.0
        assert (model.ordering, model.table.cells) == ((1, 2), "0110")
        assert model.solver_stats["seed_cost"] == 4
        assert model.solver_stats["conflicts"] == 0
    assert model.solver_stats["cost"] == model.solver_stats["iterations"] == 0


def test_with_no_perfect_subset_the_solver_proves_unsat(monkeypatch):
    # parity of three features: no two of them classify it
    ds = cube_dataset(lambda r: r[0] ^ r[1] ^ r[2])
    searched = []
    search_fn = search.best_subset

    def recorded(*args, **kwargs):
        searched.append(search_fn(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(search, "best_subset", recorded)
    built = _count_solvers(monkeypatch)
    with pytest.raises(DepthInsufficientError):
        learn(ds, LearnConfig(depth=2, mode="sat", budget=60))
    assert [walk.core for walk in searched] == [(0, 1, 2, 4)]  # the walk's row core
    assert built


def test_a_sat_answer_after_a_complete_search_is_an_internal_error(monkeypatch):
    # f1 xor f2 is separable at depth 2; a search that reports none, with
    # the greedy classifier as its best and every row as its core, left the
    # solver to find the model it missed
    ds = cube_dataset(lambda r: r[1] ^ r[2])
    ordering, cells, cost = greedy_classifier(ds, 2)
    leaf = search.Leaf(ordering, TruthTable(cells), cost)
    erring = search.Walk(leaf, cost, tuple(range(ds.m)))
    monkeypatch.setattr(search, "best_subset", lambda *args, **kwargs: erring)
    with pytest.raises(RuntimeError, match="internal error"):
        learn(ds, LearnConfig(depth=2, mode="sat", budget=60))


def test_a_budget_spent_inside_the_subset_search_times_out(monkeypatch):
    # each step of the walk takes 0.1 s; {f1, f2} is reached only after
    # the prefix f0 and its two extensions, past the 0.25 s budget
    ds = cube_dataset(lambda r: r[1] ^ r[2])
    search_fn = search.best_subset

    def slow(dataset, depth, stop, **kwargs):
        def slow_stop():
            time.sleep(0.1)
            return stop()

        return search_fn(dataset, depth, slow_stop, **kwargs)

    monkeypatch.setattr(search, "best_subset", slow)
    _no_solver(monkeypatch)
    with pytest.raises(SolverTimeoutError):
        learn(ds, LearnConfig(depth=2, mode="sat", budget=0.25))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 60), st.booleans(), st.data())
def test_sat_learn_is_perfect_exactly_when_the_oracle_errs_nowhere(
    k, m, planted, data
):
    # labels follow a rule on at most three features, or are random per
    # distinct row; SAT-mode learn is perfect at H exactly when the oracle
    # errs nowhere at H, and min_depth is the smallest such H
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    if planted:
        feats = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3))
        n_cells = 1 << len(feats)
        rule = data.draw(st.lists(bit, min_size=n_cells, max_size=n_cells))
        labels = [rule[int("".join(str(row[f]) for f in feats), 2)] for row in rows]
    else:
        truth = {row: data.draw(bit) for row in sorted(set(rows))}
        labels = [truth[row] for row in rows]
    assume(len(set(labels)) == 2)
    ds = dataset_from_bits(rows, labels)
    separable = []
    for depth in range(1, min(k, 3) + 1):
        cfg = LearnConfig(depth=depth, mode="sat", budget=60)
        if best_split_error(ds, depth) == 0:
            separable.append(depth)
            model = learn(ds, cfg)
            assert model.optimal
            assert all(
                classify_table(model.table, model.ordering, row) == label
                for row, label in zip(ds.features, ds.labels)
            )
        else:
            with pytest.raises(DepthInsufficientError):
                learn(ds, cfg)
    if separable:
        result = min_depth(ds, data.draw(st.integers(1, 3)), budget=60)
        assert result.depth == separable[0]
        assert result.depth == 1 or result.unsat_depth == result.depth - 1


def _planted_parity(flips: int):
    """64 random rows of 70 features, labelled by the parity of three of
    them with ``flips`` labels flipped: C(70, 3) = 54,740 subsets."""
    rng = random.Random(0)
    rows = [tuple(rng.randint(0, 1) for _ in range(70)) for _ in range(64)]
    planted = sorted(rng.sample(range(70), 3))
    labels = [row[planted[0]] ^ row[planted[1]] ^ row[planted[2]] for row in rows]
    for q in rng.sample(range(64), flips):
        labels[q] ^= 1
    return dataset_from_bits(rows, labels), planted


def test_a_planted_parity_among_70_features_is_found_without_a_solver(monkeypatch):
    ds, planted = _planted_parity(0)
    _no_solver(monkeypatch)
    model = learn(ds, LearnConfig(depth=3, mode="sat", budget=60))
    assert sorted(model.ordering) == planted
    assert model.optimal and model.train_accuracy == 1.0


def test_a_noisy_planted_parity_costs_its_flipped_labels(monkeypatch):
    # the whole walk finds the planted features at the three flipped
    # labels; the solver is asked only to prove that optimum, here with no
    # budget to do it
    ds, planted = _planted_parity(3)
    descend = solve.maxsat_solve
    uppers = []

    def out_of_budget(formula, budget, **kwargs):
        uppers.append(kwargs["upper"])
        return descend(formula, budget=-1.0, **kwargs)

    monkeypatch.setattr(search.solve, "maxsat_solve", out_of_budget)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=60))
    assert uppers == [3] == [model.solver_stats["cost"]]
    assert sorted(model.ordering) == planted
    assert not model.optimal
    assert round((1 - model.train_accuracy) * ds.m) == 3


def test_perfect_subset_roots_at_a_feature_the_table_reads():
    # labels are f2: f2 is picked first, and its first extension, f0, is
    # perfect; the table ignores f0, which stays in the tail
    walk = search.best_subset(cube_dataset(lambda r: r[2]), 2)
    found = walk.best
    assert (found.ordering, found.table.cells, found.cost) == ((2, 0), "0011", 0)
    assert walk.core == ()
    rows = [tuple((a >> s) & 1 for s in range(4)) for a in range(16)]
    found = search.best_subset(dataset_from_bits(rows, [r[3] for r in rows]), 3).best
    assert found.ordering == (3, 0, 1)  # the tail in pick order
    # f0 and f1 each err on one row, so f0 is picked first, on the lower
    # index; the majority table of (f0, f1) reads only f1, the new root
    ds = dataset_from_bits([(1, 0), (1, 1), (1, 0), (0, 1)], [0, 1, 1, 1])
    found = search.best_subset(ds, 2).best
    assert (found.ordering, found.table.cells, found.cost) == ((1, 0), "0011", 1)


def test_with_no_perfect_subset_the_walk_returns_a_row_core():
    # parity of three features: {f0, f1} pairs rows 0 and 1, {f0, f2} rows
    # 0 and 2, and {f1, f2} finds row 0 with no core partner, so adds 4;
    # every pair errs on half the rows
    ds = cube_dataset(lambda r: r[0] ^ r[1] ^ r[2])
    walk = search.best_subset(ds, 2)
    assert walk.core == (0, 1, 2, 4)
    assert walk.best.cost == 4


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(2, 40), st.integers(1, 3), st.data())
def test_a_row_core_admits_no_perfect_classifier(k, m, depth, data):
    # labels are a function of the row; whenever the walk finds no perfect
    # subset, the core rows alone already defeat every subset
    assume(depth <= k)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    truth = {row: data.draw(bit) for row in sorted(set(rows))}
    ds = dataset_from_bits(rows, [truth[row] for row in rows])
    assume(len(set(ds.labels)) == 2)
    walk = search.best_subset(ds, depth)
    best, found = walk.best, walk.core
    if best.cost == 0:
        assert best_split_error(ds, depth) == 0
        assert found == ()
        return
    assert list(found) == sorted(set(found))
    assert 2 <= len(found) <= 2 * comb(k, depth)
    assert best_split_error(ds.subset(found), depth) > 0


def _recorded_certificates(monkeypatch):
    """Record each ``encode_maxsat`` call of ``learn`` as ``(dataset,
    formula, ctx)`` and each ``maxsat_solve`` call as ``(formula, upper,
    result)``."""
    encoded, answers = [], []
    encode_fn, solve_fn = search.encode.encode_maxsat, search.solve.maxsat_solve

    def recorded_encode(dataset, depth, **kwargs):
        encoded.append((dataset, *encode_fn(dataset, depth, **kwargs)))
        return encoded[-1][1:]

    def recorded_solve(formula, **kwargs):
        answers.append((formula, kwargs["upper"], solve_fn(formula, **kwargs)))
        return answers[-1][2]

    monkeypatch.setattr(search.encode, "encode_maxsat", recorded_encode)
    monkeypatch.setattr(search.solve, "maxsat_solve", recorded_solve)
    return encoded, answers


def test_the_certificate_refutes_the_core_rows_only(monkeypatch):
    # no single feature classifies this data; the solver proves that no
    # model errs on fewer than one row, on a formula with d variables for
    # the core rows and no others
    ds = random_dataset(random.Random(4), k=6, m=40, consistent=True)
    core = search.best_subset(ds, 1).core
    assert len(core) < ds.m
    encoded, answers = _recorded_certificates(monkeypatch)
    with pytest.raises(DepthInsufficientError):
        learn(ds, LearnConfig(depth=1, mode="sat", budget=60))
    [(dataset, _, ctx)] = encoded
    assert dataset == ds.subset(core)
    assert ctx.n_examples == len(core)
    assert [len(row) for row in ctx.d] == [len(core)]
    assert [(upper, answer.status) for _, upper, answer in answers] == [
        (1, solve.OPTIMUM)
    ]


@pytest.mark.parametrize("seed, k, m, depth", [(11, 4, 12, 3), (1, 5, 16, 2)])
def test_core_rows_of_one_vector_share_the_certificates_links(
    monkeypatch, seed, k, m, depth
):
    # the core repeats a feature vector: with conflict groups (seed 11)
    # and with rows that repeat their label only (seed 1); the links run
    # over the distinct vectors, and the certificate proves the optimum
    ds = random_dataset(random.Random(seed), k=k, m=m)
    core = search.best_subset(ds, depth, cost_core=True).core
    distinct = len({ds.features[q] for q in core})
    assert distinct < len(core)
    encoded, answers = _recorded_certificates(monkeypatch)
    model = learn(ds, LearnConfig(depth=depth, mode="maxsat", budget=60))
    [(dataset, formula, ctx)] = encoded
    [links] = [p for p in formula.hard.parts if isinstance(p, cnf.ValueLinks)]
    assert dataset == ds.subset(core) and len(formula.soft) == len(core)
    assert len(links.rows) == distinct < len(core) == ctx.n_examples
    assert model.optimal
    assert model.solver_stats["cost"] == best_split_error(ds, depth)
    assert model.solver_stats["core_rows"] == len(core)
    [(_, upper, answer)] = answers
    assert (upper, answer.status) == (model.solver_stats["cost"], solve.OPTIMUM)


def _pair_clauses(formula):
    """The binary hard clauses over error variables only, as row pairs."""
    row = {-clause[0]: q for q, (clause, _) in enumerate(formula.soft)}
    return [
        tuple(row[lit] for lit in clause)
        for clause in formula.hard
        if len(clause) == 2 and all(lit in row for lit in clause)
    ]


def test_the_certificate_charges_each_conflict_pair_of_its_core_one_error(monkeypatch):
    # MaxSAT certificates over cores that repeat a vector with both labels
    # hold one clause e_p | e_n per disjoint opposite-label pair, and
    # report their count; a SAT-mode certificate (consistent data) holds none
    encoded, answers = _recorded_certificates(monkeypatch)
    rng = random.Random(5)
    total = 0
    for _ in range(40):
        ds = random_dataset(rng, k=4, m=12)
        model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=60))
        assert model.optimal and model.solver_stats["cost"] == best_split_error(ds, 3)
        if not model.solver_stats["core_rows"]:
            assert model.solver_stats["core_pairs"] == 0
            continue
        (dataset, formula, _), _ = encoded.pop(), answers.pop()
        groups: dict[tuple, list[int]] = {}
        for q, features in enumerate(dataset.features):
            groups.setdefault(features, [0, 0])[dataset.labels[q]] += 1
        floor = sum(min(counts) for counts in groups.values())
        pairs = _pair_clauses(formula)
        assert len(pairs) == floor == model.solver_stats["core_pairs"]
        for p, n in pairs:
            assert dataset.features[p] == dataset.features[n]
            assert dataset.labels[p] != dataset.labels[n]
        assert len({q for pair in pairs for q in pair}) == 2 * floor
        total += floor
    assert total > 10
    ds = random_dataset(random.Random(4), k=6, m=40, consistent=True)
    with pytest.raises(DepthInsufficientError):
        learn(ds, LearnConfig(depth=1, mode="sat", budget=60))
    [(_, formula, _)] = encoded
    assert _pair_clauses(formula) == []


def test_a_sat_mode_certificate_keeps_the_tail_sorted_orderings_only(monkeypatch):
    # at depth 3 the certificate of SAT mode carries the lex-leader
    # clauses of the tail positions, as MaxSAT mode's does
    ds = random_dataset(random.Random(0), k=6, m=30, consistent=True)
    assert best_split_error(ds, 3) > 0
    encoded, answers = _recorded_certificates(monkeypatch)
    with pytest.raises(DepthInsufficientError):
        learn(ds, LearnConfig(depth=3, mode="sat", budget=60))
    [(_, _, ctx)] = encoded
    [(formula, upper, _)] = answers
    tail = search.encode.ordered_tail(ctx)
    assert len(tail) == 6 * 7 // 2 and upper == 1
    hard = {tuple(clause) for clause in formula.hard}
    assert all(tuple(clause) in hard for clause in tail)


@pytest.mark.parametrize(
    "seed, k, m, depth, core",
    [
        (11, 5, 16, 2, (1, 2, 4)),
        (12, 6, 20, 2, (1, 3, 5, 6, 7, 15)),
        (13, 6, 24, 3, (1, 5, 8, 11, 13, 15, 17, 19, 21)),
        (14, 8, 40, 3, (0, 4, 6, 11, 13, 16, 22, 24)),
    ],
)
def test_sat_mode_keeps_its_row_core(seed, k, m, depth, core):
    # SAT mode keeps one witness pair per leaf left mixed; the pinned
    # cores hold wherever the walk's MaxSAT cost core goes
    ds = random_dataset(random.Random(seed), k=k, m=m)
    assert search.best_subset(ds, depth).core == core


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 6), st.integers(2, 24), st.data())
def test_a_cost_core_forces_the_optimum_that_learn_proves(depth, k, m, data):
    # every subset errs at least the optimum on the core rows alone, and
    # MaxSAT learn proves that optimum on the core's formula
    k = max(k, depth)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    assume(len(set(labels)) == 2)
    ds = dataset_from_bits(rows, labels)
    walk = search.best_subset(ds, depth, cost_core=True)
    least = walk.best.cost
    assert least == best_split_error(ds, depth)
    model = learn(ds, LearnConfig(depth=depth, mode="maxsat", budget=60))
    assert model.optimal
    assert model.solver_stats["cost"] == least
    if least == 0:
        assert walk.core == () and model.solver_stats["core_rows"] == 0
        return
    assert list(walk.core) == sorted(set(walk.core))
    assert best_split_error(ds.subset(walk.core), depth) >= least
    assert model.solver_stats["core_rows"] == len(walk.core)


def test_a_leaf_that_owes_its_cost_to_the_flip_puts_every_row_in_the_core(monkeypatch):
    # both cells of f1 hold two positives and one negative: the majority
    # table 11 is constant, so the only leaf pays one flip on top of its
    # two minority rows, and no choice of rows forces three errors
    ds = dataset_from_bits([(0,)] * 3 + [(1,)] * 3, [1, 1, 0, 1, 1, 0])
    walk = search.best_subset(ds, 1, cost_core=True)
    assert walk.best.cost == best_split_error(ds, 1) == 3
    assert walk.core == tuple(range(ds.m))
    built = _count_solvers(monkeypatch)
    model = learn(ds, LearnConfig(depth=1, mode="maxsat", budget=60))
    assert model.optimal and len(built) == 1
    assert model.solver_stats["cost"] == 3
    assert model.solver_stats["core_rows"] == ds.m
    assert model.solver_stats["core_pairs"] == 2  # one per vector
