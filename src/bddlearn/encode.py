"""SAT and partial MaxSAT encodings of depth-bounded diagram learning.

Two Boolean variable families are shared by all encodings: ``a[r][i]``
places feature ``r`` at position ``i`` of the feature ordering, and
``c[j]`` holds the ``j``-th truth-table cell.  The improved encoding adds
``d[i][q]``, the value of the ``i``-th selected feature on example ``q``,
which shrinks the classification clauses to ``depth + 1`` literals each.

Structure shared by every variant:

* each feature is used at most once and each position picks exactly one
  feature (sequential-counter cardinality clauses);
* the table must be a bead, i.e. some cell pair ``(j, j + 2**(H-1))``
  differs, so the root split is never vacuous (one Tseitin equivalence
  variable per XOR plus a covering clause).

Auxiliary variables always come after the semantic ones, so the context
maps stay contiguous and can be serialized to a JSON sidecar for models
produced by an external solver in a later process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from . import cnf
from .bdd import TruthTable
from .data import DataError, Dataset, check_consistency

BDD1 = "bdd1"
BDD2 = "bdd2"
MAXSAT = "maxsat"

_MAX_DEPTH = 16


class DecodeError(ValueError):
    """Model does not describe a well-formed ordering/table pair."""


@dataclass(frozen=True)
class EncodingContext:
    """Variable maps tying solver variables to their roles."""

    variant: str
    depth: int
    n_features: int
    n_examples: int
    a: tuple[tuple[int, ...], ...]  # a[r][i], 0-based
    c: tuple[int, ...]  # c[j], 0-based
    # d[i][q], 0-based; rows with one feature vector may hold one variable
    # (encode_maxsat's share_vectors)
    d: tuple[tuple[int, ...], ...] | None
    feature_names: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        doc = {
            "format": "bddlearn-context/1",
            "variant": self.variant,
            "depth": self.depth,
            "n_features": self.n_features,
            "n_examples": self.n_examples,
            "a": [list(row) for row in self.a],
            "c": list(self.c),
            "d": [list(row) for row in self.d] if self.d is not None else None,
        }
        if self.feature_names is not None:
            doc["feature_names"] = list(self.feature_names)
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "EncodingContext":
        names = doc.get("feature_names")
        return cls(
            variant=doc["variant"],
            depth=int(doc["depth"]),
            n_features=int(doc["n_features"]),
            n_examples=int(doc["n_examples"]),
            a=tuple(tuple(int(v) for v in row) for row in doc["a"]),
            c=tuple(int(v) for v in doc["c"]),
            d=tuple(tuple(int(v) for v in row) for row in doc["d"])
            if doc.get("d") is not None
            else None,
            feature_names=tuple(names) if names is not None else None,
        )


def rel(i: int, j: int, depth: int) -> int:
    """Value of the ``i``-th ordering position in the ``j``-th table cell.

    Both arguments are 1-based: ``i`` in ``[1, depth]``, ``j`` in
    ``[1, 2**depth]``.
    """
    if not 1 <= i <= depth:
        raise ValueError(f"position {i} outside 1..{depth}")
    if not 1 <= j <= (1 << depth):
        raise ValueError(f"cell {j} outside 1..{1 << depth}")
    return ((j - 1) >> (depth - i)) & 1


def check_depth(depth: int) -> None:
    """Raise ValueError unless ``depth`` is one the encoders support."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the supported maximum {_MAX_DEPTH}")


def _require_consistent(dataset: Dataset) -> None:
    conflicts = check_consistency(dataset)
    if conflicts:
        raise DataError(
            "dataset is inconsistent (identical feature vectors carry both "
            f"labels) in example groups {conflicts}; perfect classification "
            "is impossible at any depth"
        )


def _vector_slots(dataset: Dataset) -> tuple[list[int], list[int]]:
    """Each row's slot, the index of its feature vector in the order of
    first appearance, and the first row of each slot."""
    first: dict[tuple[int, ...], int] = {}
    for q, row in enumerate(dataset.features):
        first.setdefault(row, q)
    slot = {row: s for s, row in enumerate(first)}
    return [slot[row] for row in dataset.features], list(first.values())


def _new_context(
    dataset: Dataset, depth: int, variant: str, slots: list[int] | None = None
):
    """Fresh ``a``, ``c`` and (but for ``BDD1``) ``d`` variables, in that
    order.  Row ``q`` takes the ``d`` variables of slot ``slots[q]``, one
    set per slot; by default each row is its own slot."""
    k, m = dataset.k, dataset.m
    formula = cnf.Formula()
    a = tuple(
        tuple(formula.fresh_var() for _ in range(depth)) for _ in range(k)
    )
    c = tuple(formula.fresh_var() for _ in range(1 << depth))
    d = None
    if variant != BDD1:
        slots = range(m) if slots is None else slots
        n_slots = max(slots, default=-1) + 1
        fresh = [[formula.fresh_var() for _ in range(n_slots)] for _ in range(depth)]
        d = tuple(tuple(row[s] for s in slots) for row in fresh)
    ctx = EncodingContext(
        variant=variant,
        depth=depth,
        n_features=k,
        n_examples=m,
        a=a,
        c=c,
        d=d,
        feature_names=dataset.feature_names,
    )
    return formula, ctx


def _structural_constraints(formula: cnf.Formula, ctx: EncodingContext) -> None:
    depth, k = ctx.depth, ctx.n_features
    # each feature selected at most once
    for r in range(k):
        cnf.at_most_k(formula, [ctx.a[r][i] for i in range(depth)], 1)
    # exactly one feature per ordering position
    for i in range(depth):
        cnf.exactly_one(formula, [ctx.a[r][i] for r in range(k)])
    # the table is a bead: some cell differs from its opposite-half twin
    half = 1 << (depth - 1)
    xors = [formula.fresh_var() for _ in range(half)]
    bead: list[list[int]] = []
    for t, x, y in zip(xors, ctx.c, ctx.c[half:]):
        bead += [-t, x, y], [-t, -x, -y], [t, -x, y], [t, x, -y]
    bead.append(xors)
    formula.add_hard_clauses(bead)


def encode_bdd1(dataset: Dataset, depth: int) -> tuple[cnf.Formula, EncodingContext]:
    """Direct encoding: one wide clause per example and table cell.

    The clause for example ``q`` and cell ``j`` keeps ``c[j]`` (positive
    example) or ``-c[j]`` (negative) plus every ``a[r][i]`` whose placement
    would route ``q`` away from cell ``j``; placements that agree with the
    cell are dropped up front.
    """
    check_depth(depth)
    _require_consistent(dataset)
    formula, ctx = _new_context(dataset, depth, BDD1)
    _structural_constraints(formula, ctx)
    n_cells = 1 << depth
    clauses: list[list[int]] = []
    for q, row in enumerate(dataset.features):
        sign = 1 if dataset.labels[q] == 1 else -1
        for j in range(n_cells):
            clause = [sign * ctx.c[j]]
            for i in range(depth):
                bit = (j >> (depth - 1 - i)) & 1
                for r in range(ctx.n_features):
                    if row[r] != bit:
                        clause.append(ctx.a[r][i])
            clauses.append(clause)
    formula.add_hard_clauses(clauses)
    return formula, ctx


def _classification_clauses(ctx: EncodingContext, dataset: Dataset, errors=None):
    """Clauses of the improved encoding, one per example and cell.

    Cell ``j`` is reached when the selected-feature values spell out the
    binary expansion of ``j``; the clause is that implication's CNF form,
    ``depth + 1`` literals wide.  With ``errors``, example ``q``'s clauses
    end in ``errors[q]`` as well.
    """
    assert ctx.d is not None
    signed = (tuple(-c for c in ctx.c), ctx.c)  # by label
    clauses: list[list[int]] = []
    for q, label in enumerate(dataset.labels):
        # cell j's clause holds d[i][q] where bit i of j, from the top, is 0
        routes = itertools.product(*((d[q], -d[q]) for d in ctx.d))
        tail = () if errors is None else (errors[q],)
        clauses += [[*lits, c, *tail] for lits, c in zip(routes, signed[label])]
    return clauses


def _feature_value_links(
    formula: cnf.Formula,
    ctx: EncodingContext,
    dataset: Dataset,
    rows: list[int] | None = None,
):
    """Placing feature ``r`` at position ``i`` fixes ``d[i][q]`` to row ``q``'s value.

    The ``k * m * depth`` clauses ``-a[r][i] | ±d[i][q]`` go to the
    formula as one :class:`cnf.ValueLinks` family, in the order example,
    position, feature; given ``rows``, over those examples only, in
    their order.  Counting and emitting the formula, and the embedded
    solver, read the family as it is; a model check that iterates
    ``formula.hard`` expands it once.
    """
    assert ctx.d is not None
    val, features = ctx.d, dataset.features
    if rows is not None:
        val = tuple(tuple(d[q] for q in rows) for d in val)
        features = tuple(features[q] for q in rows)
    formula.add_value_links(cnf.ValueLinks(ctx.a, val, features))


def encode_bdd2(dataset: Dataset, depth: int) -> tuple[cnf.Formula, EncodingContext]:
    """Improved encoding with per-example selected-feature values."""
    check_depth(depth)
    _require_consistent(dataset)
    formula, ctx = _new_context(dataset, depth, BDD2)
    _structural_constraints(formula, ctx)
    _feature_value_links(formula, ctx, dataset)
    formula.add_hard_clauses(_classification_clauses(ctx, dataset))
    return formula, ctx


def literal_count(dataset: Dataset, depth: int, variant: str = BDD2) -> int:
    """``cnf.literal_count`` of the ``variant`` formula, without building it.

    ``variant`` is :data:`BDD2` or :data:`MAXSAT`.  Runs the checks of
    that variant's encoder first, raising the same errors in the same
    order: the depth, then consistency for ``BDD2`` only.  The count sums
    the clause families term by term: a sequential at-most-one over ``n``
    literals has ``6n - 4`` (none for ``n <= 1``), the bead constraint
    twelve per cell pair plus its covering clause, each feature-value
    link two, and each classification clause ``depth + 1``.  MaxSAT adds
    ``e[q]`` to each of the ``m * 2**depth`` classification clauses and
    one soft unit per example.
    """
    if variant not in (BDD2, MAXSAT):
        raise ValueError(f"no closed-form literal count for {variant!r}")
    check_depth(depth)
    if variant == BDD2:
        _require_consistent(dataset)
    k, m = dataset.k, dataset.m

    def at_most_one(n: int) -> int:
        return 6 * n - 4 if n > 1 else 0

    half = 1 << (depth - 1)
    count = (
        k * at_most_one(depth)
        + depth * (k + at_most_one(k))
        + 13 * half
        + 2 * k * m * depth
        + m * (2 * half) * (depth + 1)
    )
    if variant == MAXSAT:
        count += m * (2 * half + 1)
    return count


def encode_maxsat(
    dataset: Dataset, depth: int, *, share_vectors: bool = False
) -> tuple[cnf.Formula, EncodingContext]:
    """Partial MaxSAT lift of the improved encoding.

    Structural clauses and the feature-value links stay hard.  Each
    example ``q`` gets an error variable ``e[q]``, allocated after every
    other variable so the context maps are unchanged; each of its
    ``2**depth`` classification clauses becomes the hard clause
    ``clause | e[q]``, and ``[-e[q]]`` is its one soft unit.  An example
    is classified correctly iff all of its classification clauses hold,
    and wrongly iff exactly one fails, which forces ``e[q]``; so the
    optimum cost counts misclassified examples, with ``m`` soft clauses.

    With ``share_vectors``, rows that share a feature vector share their
    ``d`` variables: ``ctx.d[i][q]`` keeps one entry per row, the rows of
    one vector hold one variable id, and the formula has ``u * depth``
    ``d`` variables for ``u`` distinct vectors, numbered in the order of
    each vector's first row.  The links run over those first rows only,
    ``k * u * depth`` clauses; every row keeps its classification
    clauses, its error variable and its soft unit, so the soft clauses
    and every cost stay the same.  This is sound: the links force
    ``d[i][q]`` to row ``q``'s value of the one feature placed at
    position ``i``, so equal rows hold equal ``d`` values in every model
    of the per-example formula, and merging their variables keeps every
    model, with its cost, and the optimum.  The default is the paper's
    per-example encoding, which ``bddlearn encode`` and the external
    solver path emit.  Neither form holds the clauses of
    :func:`conflict_pair_clauses`, which a caller adds, as
    ``search.learn`` does for its certificate.
    """
    check_depth(depth)
    slots, first = _vector_slots(dataset) if share_vectors else (None, None)
    formula, ctx = _new_context(dataset, depth, MAXSAT, slots)
    _structural_constraints(formula, ctx)
    _feature_value_links(formula, ctx, dataset, first)
    errors = [formula.fresh_var() for _ in range(dataset.m)]
    formula.add_hard_clauses(_classification_clauses(ctx, dataset, errors))
    for e in errors:
        formula.add_soft([-e])
    return formula, ctx


def ordered_tail(ctx: EncodingContext) -> list[list[int]]:
    """Clauses that sort the features below the root in increasing order.

    ``-a[r][i] | -a[r'][i+1]`` for every ``r' <= r`` and every pair of
    adjacent positions ``i, i+1`` from the second position on:
    ``(depth - 2) * k * (k + 1) / 2`` binary clauses, none for depth <= 2.
    Permuting the positions below the root, and the table cells with
    them, keeps every prediction, the root and the bead property, so any
    ordering and table can be tail-sorted at the same cost.  Added to a
    formula, the clauses keep one ordering per feature set and root.
    """
    k = ctx.n_features
    return [
        [-ctx.a[r][i], -ctx.a[s][i + 1]]
        for i in range(1, ctx.depth - 1)
        for r in range(k)
        for s in range(r + 1)
    ]


def conflict_pair_clauses(formula: cnf.Formula, dataset: Dataset) -> list[list[int]]:
    """Clauses that charge each conflict pair of ``dataset`` one error.

    ``formula`` is ``encode_maxsat(dataset, ...)``, whose soft units
    ``[-e[q]]`` name the error variables.  For every pair ``(p, n)`` of
    :attr:`Dataset.conflict_pairs` the binary clause ``e[p] | e[n]``:
    ``min(pos, neg)`` clauses per conflict group.  The formula implies
    them: the links force equal rows to equal ``d`` values, so both rows
    of a pair reach one cell, whose one label is wrong for one of them.
    Added to the formula, they keep every model and its cost, and hand
    the solver the error floor that it would otherwise find by search
    (OSDT's equivalent-points bound, Hu, Rudin & Seltzer, NeurIPS 2019).
    """
    errors = [-clause[0] for clause, _ in formula.soft]
    return [[errors[p], errors[n]] for p, n in dataset.conflict_pairs]


def decode(
    model: Mapping[int, int], ctx: EncodingContext
) -> tuple[tuple[int, ...], TruthTable]:
    """Read the feature ordering and truth table out of a solver model."""
    positions: list[int] = []
    for i in range(ctx.depth):
        selected = [r for r in range(ctx.n_features) if model.get(ctx.a[r][i])]
        if len(selected) != 1:
            raise DecodeError(
                f"corrupt model: position {i + 1} selects {len(selected)} features"
            )
        positions.append(selected[0])
    if len(set(positions)) != len(positions):
        raise DecodeError("corrupt model: a feature is placed twice")
    try:
        cells = "".join("1" if model[v] else "0" for v in ctx.c)
    except KeyError as exc:
        raise DecodeError(f"model is missing table variable {exc}") from None
    return tuple(positions), TruthTable(cells)
