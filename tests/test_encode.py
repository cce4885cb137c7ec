import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddlearn import cnf, encode
from bddlearn.bdd import classify_table, is_bead
from bddlearn.data import DataError, dataset_from_bits
from bddlearn.encode import (
    DecodeError,
    decode,
    encode_bdd1,
    encode_bdd2,
    encode_maxsat,
    ordered_tail,
)
from bddlearn.solve import sat_solve
from oracles import best_split_error, certified_optimum, dimacs_wcnf, random_dataset


def test_bdd1_emits_simplified_clause_for_first_negative_example(demo8):
    formula, ctx = encode_bdd1(demo8, 2)
    # example e1 = (1,0,1,0) is negative; its cell-1 clause keeps exactly
    # the placements of the features it sets to 1
    expected = [
        -ctx.c[0],
        ctx.a[0][0],
        ctx.a[2][0],
        ctx.a[0][1],
        ctx.a[2][1],
    ]
    assert expected in formula.hard


def test_bdd1_no_examples_only_structure():
    ds = dataset_from_bits([], [], feature_names=("f1", "f2", "f3"))
    formula, ctx = encode_bdd1(ds, 2)
    res = sat_solve(formula, budget=10)
    assert res.status == "SAT"
    ordering, table = decode(res.model, ctx)
    assert len(set(ordering)) == 2
    assert is_bead(table.cells)


def test_bdd1_literal_count_scales_with_classification_volume():
    rng = random.Random(0)
    ds = random_dataset(rng, k=20, m=60, consistent=False)
    counts = {}
    for depth in (2, 3, 4, 5):
        formula, _ = encode_bdd1(ds, depth)
        counts[depth] = cnf.literal_count(formula)
    # dominated by M * 2^H clauses of Theta(H*K) literals: growing H by one
    # roughly doubles the count (slightly more through the H factor)
    for depth in (2, 3, 4):
        ratio = counts[depth + 1] / counts[depth]
        assert 1.7 < ratio < 2.9, (depth, ratio)


def test_bdd1_rejects_inconsistent_data():
    ds = dataset_from_bits([(0, 0), (0, 0)], [0, 1])
    with pytest.raises(DataError):
        encode_bdd1(ds, 1)
    with pytest.raises(DataError):
        encode_bdd2(ds, 1)


def test_bdd2_classification_clauses_have_depth_plus_one_literals(demo8):
    for depth in (1, 2, 3):
        formula, ctx = encode_bdd2(demo8, depth)
        n_cls = demo8.m * (1 << depth)
        for clause in list(formula.hard)[-n_cls:]:
            assert len(clause) == depth + 1


def test_bdd2_single_positive_example_hand_model():
    ds = dataset_from_bits([(1,)], [1])
    formula, ctx = encode_bdd2(ds, 1)
    res = sat_solve(formula, budget=5)
    assert res.status == "SAT"
    model = res.model
    assert model[ctx.a[0][0]] == 1
    assert model[ctx.d[0][0]] == 1
    assert model[ctx.c[1]] == 1  # the example routes to cell 2
    assert model[ctx.c[0]] == 0  # the bead constraint forces the other cell down
    ordering, table = decode(model, ctx)
    assert ordering == (0,)
    assert table.cells == "01"


def test_bdd2_demo8_perfect_classifier(demo8):
    formula, ctx = encode_bdd2(demo8, 2)
    res = sat_solve(formula, budget=10)
    assert res.status == "SAT"
    ordering, table = decode(res.model, ctx)
    hits = sum(
        classify_table(table, ordering, row) == label
        for row, label in zip(demo8.features, demo8.labels)
    )
    assert hits == 8


def test_bdd1_models_decode_to_perfect_classifiers(demo8):
    formula, ctx = encode_bdd1(demo8, 2)
    res = sat_solve(formula, budget=10)
    assert res.status == "SAT"
    ordering, table = decode(res.model, ctx)
    for row, label in zip(demo8.features, demo8.labels):
        assert classify_table(table, ordering, row) == label


def test_encodings_equisatisfiable_small_random():
    rng = random.Random(17)
    for _ in range(12):
        ds = random_dataset(rng, k=rng.randint(2, 5), m=rng.randint(2, 10), consistent=True)
        if len(set(ds.labels)) < 2:
            continue
        depth = rng.randint(1, min(3, ds.k))
        f1, _ = encode_bdd1(ds, depth)
        f2, _ = encode_bdd2(ds, depth)
        r1 = sat_solve(f1, budget=30)
        r2 = sat_solve(f2, budget=30)
        assert r1.status == r2.status, (ds, depth)


def test_bdd2_smaller_than_bdd1_on_wide_data():
    rng = random.Random(5)
    ds = random_dataset(rng, k=20, m=100)
    for depth in (3, 4):
        fa, _ = encode_bdd1(ds, depth)
        fb, _ = encode_bdd2(ds, depth)
        assert cnf.literal_count(fb) < cnf.literal_count(fa)


def test_maxsat_consistent_data_reaches_cost_zero(demo8):
    formula, ctx = encode_maxsat(demo8, 2)
    certified_optimum(formula, 0, budget=30)


def test_maxsat_irreducible_conflict_costs_one():
    ds = dataset_from_bits([(0,), (0,)], [1, 0])
    formula, ctx = encode_maxsat(ds, 1)
    certified_optimum(formula, 1, budget=10)


def test_maxsat_matches_ordering_oracle():
    rng = random.Random(23)
    for _ in range(8):
        ds = random_dataset(rng, k=5, m=20)
        formula, ctx = encode_maxsat(ds, 2)
        certified_optimum(formula, best_split_error(ds, 2))


def test_maxsat_one_soft_unit_per_example(demo8):
    depth = 2
    formula, ctx = encode_maxsat(demo8, depth)
    assert all(len(clause) == 1 and w == 1 for clause, w in formula.soft)
    # one error variable per example, after every other variable
    errors = [-clause[0] for clause, _ in formula.soft]
    assert errors == list(range(formula.var_count - demo8.m + 1, formula.var_count + 1))
    # the classification clauses come last, one per example and cell
    n_cells = 1 << depth
    hard = list(formula.hard)
    clauses = hard[-demo8.m * n_cells :]
    for idx, clause in enumerate(clauses):
        q = idx // n_cells
        assert clause[-1] == errors[q]
        cell = ctx.c[idx % n_cells]
        assert clause[-2] in (cell, -cell)
        assert set(map(abs, clause[:-2])) == {ctx.d[i][q] for i in range(depth)}
    # the error variables occur in no other clause
    error_vars = set(errors)
    head = hard[: -len(clauses)]
    assert not any(abs(lit) in error_vars for clause in head for lit in clause)


def test_soft_unit_repair_clears_gratuitous_errors():
    rng = random.Random(17)
    ds = random_dataset(rng, k=4, m=12)
    depth = 2
    formula, ctx = encode_maxsat(ds, depth)
    cost = best_split_error(ds, depth)
    model = certified_optimum(formula, cost, budget=30)
    ordering, table = decode(model, ctx)
    wrong = [
        classify_table(table, ordering, row) != label
        for row, label in zip(ds.features, ds.labels)
    ]
    errors = [-clause[0] for clause, _ in formula.soft]
    assert sum(wrong) == cost
    assert all(model[e] == int(w) for e, w in zip(errors, wrong))
    right = [q for q in range(ds.m) if not wrong[q]]
    assert len(right) >= 3
    inflated = dict(model)
    for q in right[:3]:
        inflated[errors[q]] = 1
    assert cnf.verify_model(formula, inflated)
    assert cnf.falsified_soft_weight(formula, inflated) == cost + 3
    repaired = cnf.soft_unit_repair(formula)(inflated)
    assert cnf.verify_model(formula, repaired)
    assert all(repaired[errors[q]] == 0 for q in right)
    assert cnf.falsified_soft_weight(formula, repaired) == sum(wrong)
    assert inflated[errors[right[0]]] == 1  # the input is left as it was


def test_ordered_tail_size_and_shape():
    ds = random_dataset(random.Random(2), k=5, m=10)
    for depth in (1, 2):
        assert ordered_tail(encode_maxsat(ds, depth)[1]) == []
    for depth in (3, 4):
        _, ctx = encode_maxsat(ds, depth)
        clauses = ordered_tail(ctx)
        assert len(clauses) == (depth - 2) * 5 * 6 // 2
        # the root position is never constrained
        root = {ctx.a[r][0] for r in range(5)}
        assert all(len(c) == 2 and not root & {-x for x in c} for c in clauses)


def _sorted_tail_ok(ordering) -> bool:
    return all(x < y for x, y in zip(ordering[1:], ordering[2:]))


def test_ordered_tail_admits_exactly_the_sorted_tails():
    ds = random_dataset(random.Random(4), k=4, m=6)
    _, ctx = encode_maxsat(ds, 3)
    clauses = ordered_tail(ctx)
    for first in range(4):
        for second in range(4):
            for third in range(4):
                ordering = (first, second, third)
                if len(set(ordering)) < 3:
                    continue
                model = {
                    ctx.a[r][i]: int(ordering[i] == r)
                    for r in range(4)
                    for i in range(3)
                }
                ok = all(cnf.clause_satisfied(c, model) for c in clauses)
                assert ok == _sorted_tail_ok(ordering)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(3, 6), st.integers(1, 24), st.data())
def test_tail_order_keeps_the_optimum(depth, k, m, data):
    # the tail order, hard on the whole formula, keeps a model of the optimum
    k = max(k, depth)
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    ds = dataset_from_bits(rows, labels)
    formula, ctx = encode_maxsat(ds, depth)
    for clause in ordered_tail(ctx):
        formula.add_hard(clause)
    model = certified_optimum(formula, best_split_error(ds, depth), budget=120)
    assert _sorted_tail_ok(decode(model, ctx)[0])


def _repeating_dataset(rng: random.Random, k: int, m: int, conflicts: bool):
    """``m`` rows drawn from at most ``m // 2`` distinct vectors, so some
    vector repeats; without ``conflicts`` the label is a function of the
    vector, with them each row draws its own."""
    pool = rng.sample(range(1 << k), rng.randint(1, min(m // 2, 1 << k)))
    codes = [rng.choice(pool) for _ in range(m)]
    rows = [tuple(code >> r & 1 for r in range(k)) for code in codes]
    truth = {code: rng.randint(0, 1) for code in pool}
    labels = [rng.randint(0, 1) if conflicts else truth[code] for code in codes]
    return dataset_from_bits(rows, labels)


def _links(formula: cnf.Formula) -> cnf.ValueLinks:
    [links] = [p for p in formula.hard.parts if isinstance(p, cnf.ValueLinks)]
    return links


def _errors(ds, ctx, model) -> int:
    ordering, table = decode(model, ctx)
    return sum(
        classify_table(table, ordering, row) != label
        for row, label in zip(ds.features, ds.labels)
    )


def test_shared_d_variables_keep_the_optimum_of_the_per_example_formula():
    # on data with repeated rows, the certificate's formula answers every
    # bound as the per-example formula does: OPTIMUM at the optimum, and a
    # model of the optimum's cost one above it
    rng = random.Random(41)
    kinds = set()
    for trial in range(160):
        k = rng.randint(2, 5)
        ds = _repeating_dataset(rng, k, rng.randint(4, 24), conflicts=trial % 2 == 1)
        depth = rng.randint(1, min(3, k))
        kinds.add(bool(ds.conflict_groups))
        best = best_split_error(ds, depth)
        for share in (False, True):
            formula, ctx = encode_maxsat(ds, depth, share_vectors=share)
            formula.add_hard_clauses(ordered_tail(ctx))
            model = certified_optimum(formula, best, seed=trial)
            assert _errors(ds, ctx, model) == best
    assert kinds == {False, True}


def test_conflict_pair_clauses_keep_the_optimum_of_the_certificate():
    # the certificate's formula, with the tail order and one clause
    # e_p | e_n per conflict pair, answers every bound as before: OPTIMUM
    # at the optimum, and a model of the optimum's cost one above it
    rng = random.Random(47)
    n_pairs = 0
    for trial in range(120):
        k = rng.randint(2, 5)
        ds = _repeating_dataset(rng, k, rng.randint(4, 24), conflicts=True)
        depth = rng.randint(1, min(3, k))
        best = best_split_error(ds, depth)
        formula, ctx = encode_maxsat(ds, depth, share_vectors=True)
        formula.add_hard_clauses(ordered_tail(ctx))
        pairs = encode.conflict_pair_clauses(formula, ds)
        formula.add_hard_clauses(pairs)
        n_pairs += len(pairs)
        model = certified_optimum(formula, best, seed=trial)
        assert _errors(ds, ctx, model) == best
    assert n_pairs > 120


def test_rows_of_one_vector_share_their_d_variables():
    rng = random.Random(43)
    for trial in range(40):
        k, m, depth = rng.randint(2, 5), rng.randint(4, 24), rng.randint(1, 3)
        ds = _repeating_dataset(rng, k, m, conflicts=trial % 2 == 1)
        u = len(set(ds.features))
        formula, ctx = encode_maxsat(ds, depth, share_vectors=True)
        assert len(_links(formula)) == k * u * depth < k * m * depth
        d_vars = {v for row in ctx.d for v in row}
        assert len(d_vars) == u * depth
        # numbered right after the table cells, position by position
        first = ctx.c[-1] + 1
        assert sorted(d_vars) == list(range(first, first + u * depth))
        for i in range(depth):
            assert len(ctx.d[i]) == m
            for q in range(m):
                for p in range(m):
                    same = ds.features[q] == ds.features[p]
                    assert (ctx.d[i][q] == ctx.d[i][p]) == same
        # each row keeps its error variable, its soft unit and its
        # classification clauses
        per_example, _ = encode_maxsat(ds, depth)
        assert formula.var_count == per_example.var_count - (m - u) * depth
        assert len(formula.soft) == m
        assert len(formula.hard) == len(per_example.hard) - k * (m - u) * depth
    # with no repeated vector, the shared formula is the per-example one
    ds = random_dataset(random.Random(0), k=8, m=16)
    assert len(set(ds.features)) == ds.m
    shared, per_example = (
        dimacs_wcnf(encode_maxsat(ds, 3, share_vectors=share)[0])
        for share in (True, False)
    )
    assert shared == per_example


def test_decode_reference_model(demo8):
    formula, ctx = encode_bdd2(demo8, 2)
    model = {v: 0 for v in range(1, formula.var_count + 1)}
    model[ctx.a[0][0]] = 1  # f1 first
    model[ctx.a[1][1]] = 1  # f2 second
    model[ctx.c[0]] = 1  # table 1000
    ordering, table = decode(model, ctx)
    assert ordering == (0, 1)
    assert table.cells == "1000"


def test_decode_soft_clause_pattern_matches_classifier():
    rng = random.Random(31)
    ds = random_dataset(rng, k=5, m=16)
    formula, ctx = encode_maxsat(ds, 2)
    cost = best_split_error(ds, 2)
    model = certified_optimum(formula, cost, budget=30)
    ordering, table = decode(model, ctx)
    errors = sum(
        classify_table(table, ordering, row) != label
        for row, label in zip(ds.features, ds.labels)
    )
    assert errors == cnf.falsified_soft_weight(formula, model) == cost


def test_decode_rejects_corrupt_models(demo8):
    formula, ctx = encode_bdd2(demo8, 2)
    empty = {v: 0 for v in range(1, formula.var_count + 1)}
    with pytest.raises(DecodeError):
        decode(empty, ctx)
    doubled = dict(empty)
    doubled[ctx.a[0][0]] = 1
    doubled[ctx.a[1][0]] = 1
    with pytest.raises(DecodeError):
        decode(doubled, ctx)
    repeated = dict(empty)
    repeated[ctx.a[0][0]] = 1
    repeated[ctx.a[0][1]] = 1
    with pytest.raises(DecodeError):
        decode(repeated, ctx)


def test_decoded_table_is_always_a_bead():
    rng = random.Random(41)
    for _ in range(6):
        ds = random_dataset(rng, k=4, m=12)
        formula, ctx = encode_maxsat(ds, 2)
        model = certified_optimum(formula, best_split_error(ds, 2), budget=30)
        _, table = decode(model, ctx)
        assert is_bead(table.cells)


def test_context_json_round_trip(demo8):
    formula, ctx = encode_maxsat(demo8, 2)
    restored = encode.EncodingContext.from_json(json.loads(json.dumps(ctx.to_json())))
    assert restored == ctx
    model = certified_optimum(formula, 0, budget=30)
    assert decode(model, restored) == decode(model, ctx)


def test_depth_validation(demo8):
    with pytest.raises(ValueError):
        encode_bdd2(demo8, 0)
    with pytest.raises(ValueError):
        encode_maxsat(demo8, 40)


def test_feature_value_links_name_a_literal_outside_the_formula(demo8):
    # the links are range-checked as one batch: a context whose variables
    # the formula never allocated is refused at its first literal
    _, ctx = encode._new_context(demo8, 2, encode.BDD2)
    with pytest.raises(cnf.FormulaError, match="literal -1 outside"):
        encode._feature_value_links(cnf.Formula(), ctx, demo8)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 60), st.integers(1, 4), st.data())
def test_bdd2_literal_count_matches_the_built_formula(k, m, depth, data):
    # labels are a function of the row, so the data is consistent; the
    # closed form counts the bdd2 and the MaxSAT formula alike
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    truth = {row: data.draw(bit) for row in sorted(set(rows))}
    ds = dataset_from_bits(rows, [truth[row] for row in rows])
    for variant, encoder in [
        (encode.BDD2, encode_bdd2),
        (encode.MAXSAT, encode_maxsat),
    ]:
        formula, _ = encoder(ds, depth)
        assert encode.literal_count(ds, depth, variant) == cnf.literal_count(formula)


def test_bdd2_literal_count_runs_the_encoder_checks_in_order():
    inconsistent = dataset_from_bits([(1, 0), (1, 0)], [0, 1])
    for depth, message in [
        (0, "depth must be >= 1"),  # the depth is checked first
        (17, "exceeds the supported maximum"),
        (1, "inconsistent"),
    ]:
        for count in (encode.literal_count, encode_bdd2):
            with pytest.raises(ValueError, match=message):
                count(inconsistent, depth)
    # the MaxSAT count, like its encoder, checks the depth and accepts
    # inconsistent data
    for depth, message in [(0, "must be >= 1"), (17, "exceeds the supported")]:
        with pytest.raises(ValueError, match=message):
            encode.literal_count(inconsistent, depth, encode.MAXSAT)
        with pytest.raises(ValueError, match=message):
            encode_maxsat(inconsistent, depth)
    formula, _ = encode_maxsat(inconsistent, 1)
    count = encode.literal_count(inconsistent, 1, encode.MAXSAT)
    assert count == cnf.literal_count(formula)
