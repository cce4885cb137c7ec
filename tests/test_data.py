import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddlearn.data import (
    DataError,
    Dataset,
    RawTable,
    bind_like,
    cell_counts,
    check_consistency,
    dataset_from_bits,
    kfold,
    load_csv,
    one_hot_binarize,
)
from oracles import random_dataset, route_counts


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_demo(demo8_csv):
    raw = load_csv(demo8_csv, "label")
    assert len(raw.rows) == 8
    assert raw.columns == ("f1", "f2", "f3", "f4", "label")
    assert raw.label_index == 4


def test_load_csv_trims_whitespace(tmp_path):
    path = _write(tmp_path, "a, label \n x , yes\n y ,no\n")
    raw = load_csv(path, "label")
    assert raw.columns == ("a", "label")
    assert raw.rows == (("x", "yes"), ("y", "no"))


def test_load_csv_empty_body(tmp_path):
    with pytest.raises(DataError, match="empty dataset"):
        load_csv(_write(tmp_path, "a,label\n"), "label")
    with pytest.raises(DataError, match="empty dataset"):
        load_csv(_write(tmp_path, ""), "label")


def test_load_csv_ragged_row(tmp_path):
    text = "a,b,c,d,label\n1,2,3,4,x\n1,2,3,4,y\n1,2,3\n"
    with pytest.raises(DataError, match="ragged row 3"):
        load_csv(_write(tmp_path, text), "label")


def test_load_csv_missing_label_column(tmp_path):
    with pytest.raises(DataError, match="missing label column"):
        load_csv(_write(tmp_path, "a,b\n0,1\n"), "label")


def test_one_hot_three_values():
    raw = RawTable(
        columns=("col", "label"),
        rows=(("a", "0"), ("b", "1"), ("c", "0"), ("a", "1")),
        label_column="label",
    )
    ds = one_hot_binarize(raw)
    assert ds.feature_names == ("col=a", "col=b", "col=c")
    assert ds.features == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_one_hot_binary_column_passes_through():
    raw = RawTable(
        columns=("col", "label"),
        rows=(("0", "n"), ("1", "y"), ("1", "n"), ("0", "y")),
        label_column="label",
    )
    ds = one_hot_binarize(raw)
    assert ds.feature_names == ("col",)
    assert [row[0] for row in ds.features] == [0, 1, 1, 0]


def test_one_hot_demo8(demo8_csv):
    ds = one_hot_binarize(load_csv(demo8_csv, "label"))
    assert ds.m == 8
    assert ds.k == 4
    assert ds.feature_names == ("f1", "f2", "f3", "f4")
    assert ds.labels == (0, 0, 1, 0, 1, 0, 0, 1)


def test_one_hot_label_mapping_is_lexicographic():
    raw = RawTable(
        columns=("col", "label"),
        rows=(("0", "yes"), ("1", "no")),
        label_column="label",
    )
    ds = one_hot_binarize(raw)
    assert ds.label_names == ("no", "yes")
    assert ds.labels == (1, 0)


def test_one_hot_rejects_nonbinary_label():
    raw = RawTable(
        columns=("col", "label"),
        rows=(("0", "a"), ("1", "b"), ("0", "c")),
        label_column="label",
    )
    with pytest.raises(DataError, match="label"):
        one_hot_binarize(raw)


def test_one_hot_indicator_rows_have_exactly_one_one():
    raw = RawTable(
        columns=("x", "y", "label"),
        rows=tuple(
            (v, w, lab)
            for v, w, lab in [
                ("r", "0", "0"),
                ("g", "1", "1"),
                ("b", "0", "0"),
                ("r", "1", "1"),
                ("w", "0", "0"),
            ]
        ),
        label_column="label",
    )
    ds = one_hot_binarize(raw)
    x_cols = [i for i, name in enumerate(ds.feature_names) if name.startswith("x=")]
    assert len(x_cols) == 4
    for row in ds.features:
        assert sum(row[i] for i in x_cols) == 1


def test_one_hot_drops_constant_columns():
    raw = RawTable(
        columns=("const", "col", "label"),
        rows=(("z", "0", "0"), ("z", "1", "1")),
        label_column="label",
    )
    ds = one_hot_binarize(raw)
    assert ds.feature_names == ("col",)


def test_bind_like_on_a_table_without_rows():
    ds = one_hot_binarize(RawTable(("col", "label"), (("a", "0"), ("b", "1")), "label"))
    bound = bind_like(RawTable(("col", "label"), (), "label"), ds.feature_specs, ds.label_names)
    assert bound == Dataset((), (), ("col=b",), ("0", "1"), (("col", "b"),))


def test_bind_like_matches_training_encoding(tmp_path):
    train_raw = RawTable(
        columns=("col", "label"),
        rows=(("a", "0"), ("b", "1"), ("c", "0")),
        label_column="label",
    )
    ds = one_hot_binarize(train_raw)
    test_raw = RawTable(
        columns=("col", "label"),
        rows=(("b", "0"), ("zzz", "1")),
        label_column="label",
    )
    bound = bind_like(test_raw, ds.feature_specs, ds.label_names, ds.feature_names)
    assert bound.feature_names == ds.feature_names
    assert bound.features == ((0, 1, 0), (0, 0, 0))  # unseen value: all zeros
    with pytest.raises(DataError, match="unknown label"):
        bind_like(
            RawTable(("col", "label"), (("a", "maybe"),), "label"),
            ds.feature_specs,
            ds.label_names,
        )


def test_kfold_partitions():
    ds = dataset_from_bits([(i % 2,) for i in range(10)], [i % 2 for i in range(10)])
    splits = kfold(ds, 5, seed=3)
    assert len(splits) == 5
    assert sorted(len(s.test) for s in splits) == [2, 2, 2, 2, 2]
    covered = sorted(q for s in splits for q in s.test)
    assert covered == list(range(10))
    for s in splits:
        assert sorted(set(s.train) | set(s.test)) == list(range(10))
        assert not set(s.train) & set(s.test)


def test_kfold_uneven_sizes(demo8):
    sizes = sorted(len(s.test) for s in kfold(demo8, 5, seed=0))
    assert sizes == [1, 1, 2, 2, 2]


def test_kfold_validation(demo8):
    with pytest.raises(DataError):
        kfold(demo8, 1, seed=0)
    with pytest.raises(DataError):
        kfold(demo8, 9, seed=0)


def test_kfold_deterministic(demo8):
    assert kfold(demo8, 4, seed=7) == kfold(demo8, 4, seed=7)


def test_check_consistency_clean(demo8):
    assert check_consistency(demo8) == []


def test_check_consistency_conflict_group():
    ds = dataset_from_bits([(0, 0), (0, 0), (1, 0)], [1, 0, 1])
    assert check_consistency(ds) == [[0, 1]]


def test_check_consistency_allows_equal_duplicates():
    ds = dataset_from_bits([(0, 1), (0, 1)], [1, 1])
    assert check_consistency(ds) == []


def test_conflict_groups_are_computed_once_per_dataset():
    ds = dataset_from_bits([(0, 0), (1, 0), (0, 0), (1, 0)], [1, 0, 0, 1])
    assert ds.conflict_groups == ((0, 2), (1, 3))
    assert ds.conflict_groups is ds.conflict_groups
    first = check_consistency(ds)
    first[0].append(9)  # every call gets its own lists
    assert check_consistency(ds) == [[0, 2], [1, 3]]
    assert ds == dataset_from_bits(ds.features, ds.labels)  # not in equality


def test_conflict_pairs_join_the_lowest_rows_of_opposite_labels_first():
    # (0, 0): positives 0, 3, 5 and negatives 2, 4; (1, 1) holds one label
    rows = [(0, 0), (1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (1, 1), (1, 0), (1, 0)]
    ds = dataset_from_bits(rows, [1, 1, 0, 1, 0, 1, 1, 0, 1])
    assert ds.conflict_pairs == ((0, 2), (3, 4), (8, 7))
    assert ds.conflict_pairs is ds.conflict_pairs
    assert dataset_from_bits([(0,), (1,)], [0, 1]).conflict_pairs == ()


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(features=((0, 1), (1,)), labels=(0, 1), feature_names=("a", "b"))
    with pytest.raises(DataError):
        Dataset(features=((0, 2),), labels=(0,), feature_names=("a", "b"))
    with pytest.raises(DataError):
        Dataset(features=((0, 1),), labels=(2,), feature_names=("a", "b"))


@pytest.mark.parametrize("cell", [1.0, 0.0, "1", None, [1], 256, -1])
def test_a_cell_the_bitsets_cannot_read_is_a_data_error(cell):
    with pytest.raises(DataError, match="feature cells"):
        Dataset(features=((0, cell),), labels=(0,), feature_names=("a", "b"))
    with pytest.raises(DataError, match="labels"):
        Dataset(features=((0, 1),), labels=(cell,), feature_names=("a", "b"))


def test_bool_cells_read_as_bits():
    rows, labels = [[True, False], [False, True], [True, True]], [True, False, False]
    ds = dataset_from_bits(rows, labels)
    assert (ds.column_bits, ds.label_bits) == ((0b101, 0b110), 0b001)


def test_subset_and_restrict(demo8):
    sub = demo8.subset([0, 2, 4])
    assert sub.m == 3
    assert sub.labels == (0, 1, 1)
    narrow = demo8.restrict_features([1, 3])
    assert narrow.k == 2
    assert narrow.feature_names == ("f2", "f4")
    assert narrow.features[0] == (0, 0)


def test_cell_counts_match_oracle_routing():
    rng = random.Random(5)
    for _ in range(20):
        ds = random_dataset(rng, k=5, m=rng.randint(0, 30))
        ordering = tuple(rng.sample(range(5), rng.randint(0, 3)))
        pos, neg = route_counts(ds, ordering, 1 << len(ordering))
        assert cell_counts(ds, ordering) == tuple(zip(pos, neg))


def test_cell_counts_empty_ordering_is_one_cell(demo8):
    assert cell_counts(demo8, ()) == ((3, 5),)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 30), st.data())
def test_cell_counts_stay_right_on_derived_datasets(k, m, data):
    # the bitsets are cached per instance: a dataset made by subset() or
    # restrict_features() from one whose bitsets were read routes anew
    bit = st.integers(0, 1)
    rows = data.draw(st.lists(st.tuples(*[bit] * k), min_size=m, max_size=m))
    labels = data.draw(st.lists(bit, min_size=m, max_size=m))
    ds = dataset_from_bits(rows, labels, [f"f{r}" for r in range(k)])
    parents = (ds, ds.restrict_features(range(k)[::-1]))
    derived = list(parents)
    for parent in parents:
        assert len(parent.column_bits) == parent.k  # fills the caches first
        assert parent.label_bits.bit_count() == sum(parent.labels)
        picked = data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=m))
        derived.append(parent.subset(picked if m else []))
        kept = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k))
        derived.append(parent.restrict_features(kept))
    for d in derived:
        ordering = tuple(
            data.draw(st.permutations(range(d.k)))[: data.draw(st.integers(0, 3))]
        )
        pos, neg = route_counts(d, ordering, 1 << len(ordering))
        assert cell_counts(d, ordering) == tuple(zip(pos, neg))
