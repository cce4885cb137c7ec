import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddlearn.bdd import (
    SINK_ONE,
    SINK_ZERO,
    Bdd,
    BddError,
    TruthTable,
    bdd_from_json,
    bdd_to_json,
    beads,
    classify,
    classify_table,
    export_dot,
    gen_bdd,
    is_bead,
    node_count,
)
from oracles import audit_bdd


def test_truth_table_validation():
    assert TruthTable("1000").order == 2
    assert TruthTable("0").order == 0
    with pytest.raises(BddError):
        TruthTable("101")
    with pytest.raises(BddError):
        TruthTable("10u0")


def test_is_bead():
    assert not is_bead("00")
    assert not is_bead("11")
    assert is_bead("01")
    assert is_bead("0001")
    assert not is_bead("0101")
    assert is_bead("0") and is_bead("1")
    with pytest.raises(BddError):
        is_bead("011")


def test_beads_of_majority_like_function():
    assert set(beads("00010111")) == {"00010111", "0001", "0111", "01", "0", "1"}


def test_beads_levels_are_shallowest():
    got = beads("00010111")
    assert got["00010111"] == 1
    assert got["0001"] == 2 and got["0111"] == 2
    assert got["01"] == 3
    assert got["0"] == 4 and got["1"] == 4


def test_beads_of_depth2_solution():
    assert set(beads("1000")) == {"1000", "10", "0", "1"}


def test_beads_constant_table():
    assert set(beads("0000")) == {"0"}


def test_gen_bdd_three_variable_example():
    b = gen_bdd("00010111", (0, 1, 2))
    # one root at level 1, two level-2 nodes, one level-3 node, both sinks
    assert sorted(b.levels.values()) == [1, 2, 2, 3]
    assert node_count(b) == 6
    root = b.root
    assert b.levels[root] == 1
    n0001 = b.left[root]
    n0111 = b.right[root]
    assert b.tables[n0001] == "0001"
    assert b.tables[n0111] == "0111"
    n01 = b.right[n0001]
    assert b.tables[n01] == "01"
    assert b.left[n0001] == SINK_ZERO
    assert b.left[n0111] == n01  # the 01 subtree is shared
    assert b.right[n0111] == SINK_ONE
    assert b.left[n01] == SINK_ZERO
    assert b.right[n01] == SINK_ONE


def test_gen_bdd_depth2_solution_topology():
    b = gen_bdd("1000", (0, 1))
    assert sorted(b.levels.values()) == [1, 2]
    assert node_count(b) == 4
    root = b.root
    assert b.right[root] == SINK_ZERO
    n10 = b.left[root]
    assert b.tables[n10] == "10"
    assert b.left[n10] == SINK_ONE
    assert b.right[n10] == SINK_ZERO


def test_gen_bdd_constant_tables():
    ones = gen_bdd("1111", (0, 1))
    assert ones.root == SINK_ONE
    assert ones.levels == {}
    assert node_count(ones) == 1
    zeros = gen_bdd("0", ())
    assert zeros.root == SINK_ZERO


def test_gen_bdd_skips_irrelevant_first_variable():
    b = gen_bdd("0101", (3, 7))
    assert b.levels[b.root] == 2  # the level-1 split is vacuous
    for example_bit in (0, 1):
        example = {3: example_bit, 7: 0}, {3: example_bit, 7: 1}
        assert classify(b, [0, 0, 0, example_bit, 0, 0, 0, 0]) == 0
        assert classify(b, [0, 0, 0, example_bit, 0, 0, 0, 1]) == 1


def test_gen_bdd_input_validation():
    with pytest.raises(BddError):
        gen_bdd("10", (0, 1))  # ordering too long
    with pytest.raises(BddError):
        gen_bdd("1000", (2, 2))  # repeated feature
    with pytest.raises(BddError):
        gen_bdd("u0", (0,))  # undecided cell


def test_gen_bdd_deterministic():
    a = gen_bdd("00010111", (0, 1, 2))
    b = gen_bdd("00010111", (0, 1, 2))
    assert a.nodes() == b.nodes()
    assert a.edges() == b.edges()


def test_classify_table_lookup():
    # ordering [f1, f2]: example (f1=0, f2=0) reads cell 1
    assert classify_table("1000", (0, 1), (0, 0, 1, 0)) == 1
    assert classify_table("1000", (0, 1), (1, 1, 1, 1)) == 0
    assert classify_table("1011", (0, 1), (0, 0)) == 1


def test_classify_all_zero_example_reads_first_cell():
    for cells in ("1000", "0111", "1010"):
        assert classify_table(cells, (0, 1), (0, 0)) == int(cells[0])


def test_classify_walk_matches_table():
    b = gen_bdd("1000", (0, 1))
    assert classify(b, (0, 0, 1, 0)) == 1  # left-left to the 1 sink
    assert classify(b, (1, 0, 1, 0)) == 0  # right edge straight to 0


def test_classify_missing_edge_is_error():
    broken = Bdd(
        root=1,
        levels={1: 1},
        left={1: SINK_ZERO},
        right={},
        ordering=(0,),
    )
    with pytest.raises(BddError):
        classify(broken, (1,))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_walk_equals_lookup_on_full_cube(order, data):
    cells = "".join(
        data.draw(st.sampled_from("01")) for _ in range(1 << order)
    )
    ordering = tuple(data.draw(st.permutations(range(order))))
    b = gen_bdd(cells, ordering)
    for point in range(1 << order):
        example = [(point >> (order - 1 - i)) & 1 for i in range(order)]
        full = [0] * order
        for pos, feature in enumerate(ordering):
            full[feature] = example[pos]
        assert classify(b, full) == classify_table(cells, ordering, full)


def test_bead_count_equals_node_count_random():
    rng = random.Random(3)
    for _ in range(200):
        order = rng.randint(1, 5)
        cells = "".join(rng.choice("01") for _ in range(1 << order))
        b = gen_bdd(cells, tuple(range(order)))
        assert node_count(b) == len(beads(cells))
        assert audit_bdd(b) == []


def test_export_dot_style():
    buf = io.StringIO()
    export_dot(gen_bdd("1000", (0, 1)), buf, feature_names=("f1", "f2"))
    text = buf.getvalue()
    assert "digraph" in text
    assert text.count("style=dashed") == 2
    assert text.count("style=solid") == 2
    assert 'label="f1"' in text and 'label="f2"' in text
    assert text.count("shape=box") == 2


def test_json_round_trip():
    b = gen_bdd("00010111", (2, 0, 1))
    restored = bdd_from_json(bdd_to_json(b, feature_names=("a", "b", "c")))
    assert restored.root == b.root
    assert restored.levels == b.levels
    assert restored.left == b.left
    assert restored.right == b.right
    assert restored.ordering == b.ordering
    for point in range(8):
        example = [(point >> i) & 1 for i in range(3)]
        assert classify(restored, example) == classify(b, example)
