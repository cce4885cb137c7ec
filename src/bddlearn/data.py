"""Dataset ingestion, one-hot binarization, and split utilities.

All types are immutable after construction; indices are 0-based
throughout the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Iterable, Sequence


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class RawTable:
    """A rectangular string table with a declared label column."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    label_column: str

    def __post_init__(self):
        if self.label_column not in self.columns:
            raise DataError(f"missing label column {self.label_column!r}")
        width = len(self.columns)
        for i, row in enumerate(self.rows, start=1):
            if len(row) != width:
                raise DataError(f"ragged row {i}")

    @property
    def label_index(self) -> int:
        return self.columns.index(self.label_column)


@dataclass(frozen=True)
class Dataset:
    """Binary feature matrix with binary labels.

    Every cell and label is the integer 0 or 1; a bool counts as one.

    ``feature_specs`` records how each feature was derived from the raw
    table as ``(source column, indicator value)`` pairs so a test set can
    be bound to the same feature space later; it is empty for datasets
    built directly from bits.

    ``column_bits`` and ``label_bits`` hold the same matrix as Python-int
    bitsets, row ``q`` at bit ``q``.  They, ``conflict_groups`` and
    ``conflict_pairs`` are computed on first use and cached on the
    instance; they take no part in equality.
    """

    features: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    feature_names: tuple[str, ...]
    label_names: tuple[str, str] = ("0", "1")
    feature_specs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        k = len(self.feature_names)
        if len(self.labels) != len(self.features):
            raise DataError("labels and feature rows disagree in length")
        if any(len(row) != k for row in self.features):
            raise DataError("feature matrix is not rectangular")
        if not _are_bits(self.features):
            raise DataError("feature cells must be 0 or 1")
        if not _are_bits((self.labels,)):
            raise DataError("labels must be 0 or 1")
        if self.feature_specs and len(self.feature_specs) != k:
            raise DataError("feature_specs length must match feature count")

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def k(self) -> int:
        return len(self.feature_names)

    @cached_property
    def column_bits(self) -> tuple[int, ...]:
        """Per feature, the bitset of the rows where it is 1."""
        if not self.features:
            return (0,) * self.k
        return tuple(_bits(column) for column in zip(*self.features))

    @cached_property
    def label_bits(self) -> int:
        """The bitset of the rows labelled 1."""
        return _bits(self.labels)

    @cached_property
    def conflict_groups(self) -> tuple[tuple[int, ...], ...]:
        """Groups of examples sharing a feature vector but carrying both
        labels, each sorted, in order of their first example."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for q, row in enumerate(self.features):
            groups.setdefault(row, []).append(q)
        return tuple(
            tuple(indices)
            for indices in groups.values()
            if len({self.labels[q] for q in indices}) == 2
        )

    @cached_property
    def conflict_pairs(self) -> tuple[tuple[int, int], ...]:
        """Disjoint ``(positive, negative)`` row pairs of one feature
        vector: in each of ``conflict_groups``, its lowest positive row
        with its lowest negative row, then the next two, ``min(pos, neg)``
        pairs a group.  Every classifier errs on one row of each pair."""
        pairs: list[tuple[int, int]] = []
        for group in self.conflict_groups:
            pos = [q for q in group if self.labels[q] == 1]
            neg = [q for q in group if self.labels[q] == 0]
            pairs += zip(pos, neg)
        return tuple(pairs)

    def subset(self, indices: Iterable[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            features=tuple(self.features[q] for q in idx),
            labels=tuple(self.labels[q] for q in idx),
            feature_names=self.feature_names,
            label_names=self.label_names,
            feature_specs=self.feature_specs,
        )

    def restrict_features(self, feature_indices: Sequence[int]) -> "Dataset":
        sel = list(feature_indices)
        return Dataset(
            features=tuple(tuple(row[r] for r in sel) for row in self.features),
            labels=self.labels,
            feature_names=tuple(self.feature_names[r] for r in sel),
            label_names=self.label_names,
            feature_specs=tuple(self.feature_specs[r] for r in sel)
            if self.feature_specs
            else (),
        )


# byte 0 or 1 to its binary digit
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _are_bits(rows: Iterable[Iterable[int]]) -> bool:
    """Whether every cell is an integer 0 or 1, as :func:`_bits` reads it.

    A bool counts as an integer; a float, a string or a list does not.
    """
    try:
        return not b"".join(map(bytes, rows)).translate(None, b"\0\1")
    except (TypeError, ValueError):  # not an integer, or not a byte
        return False


def _bits(values: Sequence[int]) -> int:
    # row q is bit q, so the first row is the last digit
    return int(b"0" + bytes(values[::-1]).translate(_DIGITS), 2)


def dataset_from_bits(
    features: Sequence[Sequence[int]],
    labels: Sequence[int],
    feature_names: Sequence[str] | None = None,
) -> Dataset:
    k = len(features[0]) if features else 0
    names = tuple(feature_names) if feature_names else tuple(
        f"f{r + 1}" for r in range(k)
    )
    return Dataset(
        features=tuple(tuple(row) for row in features),
        labels=tuple(labels),
        feature_names=names,
    )


def cell_counts(dataset: Dataset, ordering: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Per-cell ``(positives, negatives)`` of the examples routed by ``ordering``.

    An example lands in the cell whose index its values of the ordered
    features spell in binary, the first feature being the most significant
    bit; there are ``2 ** len(ordering)`` cells.
    """
    cells = [(1 << dataset.m) - 1]  # row bitsets, split once per feature
    columns = dataset.column_bits
    for feature in ordering:
        on = columns[feature]
        off = ~on
        cells = [half for cell in cells for half in (cell & off, cell & on)]
    labels = dataset.label_bits
    counts = []
    for cell in cells:
        pos = (cell & labels).bit_count()
        counts.append((pos, cell.bit_count() - pos))
    return tuple(counts)


@dataclass(frozen=True)
class Split:
    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


def load_csv(path, label_column: str) -> RawTable:
    """Read a comma-separated UTF-8 file with a header row.

    Cells are whitespace-trimmed.  Raises :class:`DataError` on an empty
    body, a ragged row, or a missing label column.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise DataError("empty dataset")
    header = tuple(rows[0])
    body = rows[1:]
    if not body:
        raise DataError("empty dataset")
    return RawTable(
        columns=header,
        rows=tuple(tuple(row) for row in body),
        label_column=label_column,
    )


def _indicator_rows(
    raw: RawTable, encoders: Sequence[tuple[int, str]]
) -> tuple[tuple[int, ...], ...]:
    """Per row of ``raw``, the indicators ``cell == value`` of the encoders.

    Each ``(column index, value)`` encoder gives one 0/1 column, built over
    the transposed table; the columns are zipped back into rows.  A table
    without encoders still gives one empty row per row.
    """
    if not (raw.rows and encoders):
        return ((),) * len(raw.rows)
    columns = tuple(zip(*raw.rows))
    return tuple(
        zip(*([1 if v == value else 0 for v in columns[c]] for c, value in encoders))
    )


def one_hot_binarize(raw: RawTable) -> Dataset:
    """Turn every non-label column into binary indicator features.

    A column with v > 2 distinct values becomes v indicators named
    ``column=value``; a two-valued column becomes a single feature (the
    lexicographically larger value maps to 1); constant columns are
    dropped.  The lexicographically smaller label value maps to 0.
    """
    label_idx = raw.label_index
    label_values = sorted({row[label_idx] for row in raw.rows})
    if len(label_values) != 2:
        raise DataError(
            f"label column {raw.label_column!r} has {len(label_values)} distinct "
            "values, need exactly 2"
        )
    labels = tuple(label_values.index(row[label_idx]) for row in raw.rows)

    names: list[str] = []
    specs: list[tuple[str, str]] = []
    encoders: list[tuple[int, str]] = []  # (column index, value mapped to 1)
    for col_idx, column in enumerate(raw.columns):
        if col_idx == label_idx:
            continue
        values = sorted({row[col_idx] for row in raw.rows})
        if len(values) == 1:
            continue
        if len(values) == 2:
            positive = values[1]
            name = column if values == ["0", "1"] else f"{column}={positive}"
            names.append(name)
            specs.append((column, positive))
            encoders.append((col_idx, positive))
        else:
            for value in values:
                names.append(f"{column}={value}")
                specs.append((column, value))
                encoders.append((col_idx, value))

    return Dataset(
        features=_indicator_rows(raw, encoders),
        labels=labels,
        feature_names=tuple(names),
        label_names=(label_values[0], label_values[1]),
        feature_specs=tuple(specs),
    )


def bind_like(
    raw: RawTable,
    feature_specs: Sequence[tuple[str, str]],
    label_names: tuple[str, str],
    feature_names: Sequence[str] | None = None,
) -> Dataset:
    """Bind a raw table to a previously learned feature space.

    Used to evaluate on a test CSV: each ``(column, value)`` spec becomes
    the indicator ``cell == value`` and labels are mapped through
    ``label_names``.  Unknown label values are an error; unseen feature
    values simply produce all-zero indicators.
    """
    columns = {name: i for i, name in enumerate(raw.columns)}
    label_idx = raw.label_index
    encoders: list[tuple[int, str]] = []
    for column, positive in feature_specs:
        if column not in columns:
            raise DataError(f"test data is missing column {column!r}")
        encoders.append((columns[column], positive))
    labels = []
    for i, row in enumerate(raw.rows, start=1):
        value = row[label_idx]
        if value not in label_names:
            raise DataError(f"row {i} has unknown label value {value!r}")
        labels.append(label_names.index(value))
    if feature_names is None:
        feature_names = [f"{column}={positive}" for column, positive in feature_specs]
    return Dataset(
        features=_indicator_rows(raw, encoders),
        labels=tuple(labels),
        feature_names=tuple(feature_names),
        label_names=(label_names[0], label_names[1]),
        feature_specs=tuple((c, p) for c, p in feature_specs),
    )


def kfold(dataset: Dataset, k: int, seed: int) -> list[Split]:
    """k deterministic folds whose test sets partition the example indices."""
    m = dataset.m
    if k < 2 or k > m:
        raise DataError(f"k={k} outside 2..{m}")
    order = list(range(m))
    Random(seed).shuffle(order)
    base, extra = divmod(m, k)
    splits: list[Split] = []
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test = order[start : start + size]
        train = order[:start] + order[start + size :]
        splits.append(Split(tuple(sorted(train)), tuple(sorted(test)), seed))
        start += size
    return splits


def check_consistency(dataset: Dataset) -> list[list[int]]:
    """Groups of examples sharing a feature vector but carrying both labels.

    An empty result means feature vector -> label is a function.  The
    groups are computed once per dataset (:attr:`Dataset.conflict_groups`);
    every call returns fresh lists.
    """
    return [list(group) for group in dataset.conflict_groups]
