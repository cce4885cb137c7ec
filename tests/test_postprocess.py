import random

from bddlearn.bdd import SINK_ONE, SINK_ZERO, beads, classify_table, gen_bdd, node_count
from bddlearn.data import dataset_from_bits
from bddlearn.postprocess import (
    ExtTable,
    apply_bias_C,
    apply_bias_P,
    apply_bias_S,
    mark_unknown,
)
from oracles import random_dataset


def merge_scenario_dataset():
    """Five examples over three features leaving cells 1, 3, 8 untouched
    under the identity ordering, with labels matching table 00010111."""
    rows = [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    labels = [0, 1, 0, 1, 1]
    return dataset_from_bits(rows, labels)


def test_mark_unknown_merge_scenario():
    ds = merge_scenario_dataset()
    ext = mark_unknown("00010111", (0, 1, 2), ds)
    assert ext.cells == "u0u1011u"
    assert ext.solver_cells == "00010111"
    assert [p + n for p, n in ext.counts] == [0, 1, 0, 1, 1, 1, 1, 0]


def test_mark_unknown_full_coverage_keeps_table(demo8):
    # depth-2 table over (f1, f2): every cell captures at least one example
    ext = mark_unknown("1000", (0, 1), demo8)
    assert ext.cells == "1000"
    assert all(p + n > 0 for p, n in ext.counts)


def test_mark_unknown_empty_training_set():
    empty = dataset_from_bits([], [], feature_names=("f1", "f2"))
    ext = mark_unknown("1010", (0, 1), empty)
    assert ext.cells == "uuuu"


def test_bias_S_restores_solver_values():
    ds = merge_scenario_dataset()
    ext = mark_unknown("00010111", (0, 1, 2), ds)
    assert apply_bias_S(ext).cells == "00010111"


def test_bias_S_identity_without_unknowns(demo8):
    ext = mark_unknown("1000", (0, 1), demo8)
    assert apply_bias_S(ext).cells == "1000"


def test_bias_S_all_unknown_is_solver_verbatim():
    empty = dataset_from_bits([], [], feature_names=("f1", "f2"))
    ext = mark_unknown("0110", (0, 1), empty)
    assert apply_bias_S(ext).cells == "0110"


def _ext(cells, counts, solver=None):
    return ExtTable(
        cells=cells,
        solver_cells=solver or cells.replace("u", "0"),
        counts=tuple(counts),
    )


def test_bias_P_sibling_majority():
    ext = _ext("u1", [(0, 0), (3, 1)])
    assert apply_bias_P(ext).cells == "11"


def test_bias_P_all_unknown_falls_back_to_global_majority():
    ext = _ext("uuuu", [(0, 0)] * 4)
    assert apply_bias_P(ext).cells == "0000"  # no traffic at all: global tie -> 0
    mostly_negative = _ext("uu10", [(0, 0), (0, 0), (1, 0), (1, 3)])
    assert apply_bias_P(mostly_negative).cells == "0010"


def test_bias_P_ascends_to_quad_when_pair_is_empty():
    counts = [(0, 0), (0, 0), (2, 0), (1, 0), (0, 3), (0, 1), (0, 1), (0, 2)]
    ext = _ext("uu110000", counts)
    assert apply_bias_P(ext).cells[0] == "1"


def test_bias_P_tied_block_uses_global_majority():
    counts = [(0, 0), (1, 1), (0, 2), (0, 1)]
    ext = _ext("u100", counts)
    # sibling block ties 1-1; globally 1 positive vs 4 negatives
    assert apply_bias_P(ext).cells == "0100"


def test_bias_C_merge_scenario_matches_worked_example():
    ds = merge_scenario_dataset()
    ext = mark_unknown("00010111", (0, 1, 2), ds)
    table, diagram = apply_bias_C(ext, (0, 1, 2))
    assert table.cells == "10010110"
    under_root = set(beads(table.cells)) - {table.cells}
    assert under_root == {"1001", "0110", "10", "01", "0", "1"}
    # merged diagram: root, two level-2 nodes, two level-3 nodes, two sinks
    assert sorted(diagram.levels.values()) == [1, 2, 2, 3, 3]
    assert node_count(diagram) == 7
    root = diagram.root
    n1001 = diagram.left[root]
    n0110 = diagram.right[root]
    assert diagram.tables[n1001] == "1001"
    assert diagram.tables[n0110] == "0110"
    n10 = diagram.left[n1001]
    n01 = diagram.right[n1001]
    assert diagram.tables[n10] == "10"
    assert diagram.tables[n01] == "01"
    assert diagram.left[n0110] == n01
    assert diagram.right[n0110] == n10
    assert diagram.left[n10] == SINK_ONE and diagram.right[n10] == SINK_ZERO
    assert diagram.left[n01] == SINK_ZERO and diagram.right[n01] == SINK_ONE


def test_bias_C_can_build_a_larger_diagram_than_bias_S():
    # merging is not minimizing: the case the apply_bias_C docstring states
    cells, solver = "1010uu0u", "10100000"
    counts = tuple({"1": (1, 0), "0": (0, 1), "u": (0, 0)}[c] for c in cells)
    ext = ExtTable(cells, solver, counts)
    ordering = (1, 0, 4)
    table, diagram = apply_bias_C(ext, ordering)
    assert table.cells == "10101000"
    assert node_count(diagram) == 5
    assert node_count(gen_bdd(apply_bias_S(ext), ordering)) == 4


def test_bias_C_without_unknowns_is_plain_construction(demo8):
    ext = mark_unknown("1000", (0, 1), demo8)
    table, diagram = apply_bias_C(ext, (0, 1))
    reference = gen_bdd("1000", (0, 1))
    assert table.cells == "1000"
    assert diagram.nodes() == reference.nodes()
    assert diagram.edges() == reference.edges()


def test_bias_C_depth_one_has_nothing_to_pair():
    ds = dataset_from_bits([(1,)], [1])
    ext = mark_unknown("01", (0,), ds)
    assert ext.cells == "u1"
    table, diagram = apply_bias_C(ext, (0,))
    # single-cell subtables are sinks, not merge candidates; the leftover
    # unknown is decided like bias P (the sibling's traffic is positive)
    assert table.cells == "11"
    assert diagram.root == SINK_ONE


def test_biases_preserve_training_predictions_and_decide_everything():
    rng = random.Random(13)
    for _ in range(20):
        k = rng.randint(3, 5)
        order = rng.randint(1, min(3, k))
        ds = random_dataset(rng, k=k, m=rng.randint(2, 14))
        ordering = tuple(rng.sample(range(k), order))
        solver_cells = "".join(rng.choice("01") for _ in range(1 << order))
        ext = mark_unknown(solver_cells, ordering, ds)
        tS = apply_bias_S(ext)
        tP = apply_bias_P(ext)
        tC, diagram = apply_bias_C(ext, ordering)
        for table in (tS, tP, tC):
            assert set(table.cells) <= {"0", "1"}
            for row in ds.features:
                assert classify_table(table, ordering, row) == classify_table(
                    solver_cells, ordering, row
                )
        assert node_count(diagram) == len(beads(tC.cells))


def test_bias_C_merging_never_overwrites_concrete_cells():
    rng = random.Random(29)
    for _ in range(30):
        order = rng.randint(1, 4)
        n = 1 << order
        cells = "".join(rng.choice("01u") for _ in range(n))
        counts = tuple(
            (0, 0) if ch == "u" else ((1, 0) if rng.random() < 0.5 else (0, 1))
            for ch in cells
        )
        ext = ExtTable(cells=cells, solver_cells=cells.replace("u", "0"), counts=counts)
        table, _ = apply_bias_C(ext, tuple(range(order)))
        for before, after in zip(cells, table.cells):
            if before != "u":
                assert after == before
