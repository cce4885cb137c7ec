"""Truth tables, beads, and reduced ordered binary decision diagrams.

A truth table of order ``n`` is a string of ``2**n`` cells over ``{0,1}``;
cell ``j`` (1-based) holds the function value under the ``j``-th assignment
in the usual enumeration (first variable = most significant bit).  A bead
is a table whose two halves differ, and the beads of a table are in
one-to-one correspondence with the nodes of its reduced ordered diagram,
which is what :func:`gen_bdd` exploits: nodes are keyed on subtable string
equality, so the result is reduced by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence, TextIO

SINK_ONE = -1
SINK_ZERO = -2

LEFT = "left"
RIGHT = "right"


class BddError(ValueError):
    """Malformed table, ordering, or diagram."""


def _cells(table) -> str:
    return table.cells if isinstance(table, TruthTable) else str(table)


def _check_power_of_two(n: int) -> None:
    if n <= 0 or n & (n - 1):
        raise BddError(f"cell count {n} is not a power of two")


@dataclass(frozen=True)
class TruthTable:
    """Immutable 0/1 cell string of power-of-two length."""

    cells: str

    def __post_init__(self):
        _check_power_of_two(len(self.cells))
        if set(self.cells) - {"0", "1"}:
            raise BddError("cells must be over {0,1}")

    @property
    def order(self) -> int:
        return (len(self.cells) - 1).bit_length()

    def __str__(self) -> str:
        return self.cells


def is_bead(s: str) -> bool:
    """True iff the two halves differ; single cells are always beads."""
    _check_power_of_two(len(s))
    if len(s) == 1:
        return True
    half = len(s) // 2
    return s[:half] != s[half:]


def beads(table) -> dict[str, int]:
    """Bead subtables mapped to the shallowest level at which each occurs.

    The whole table sits at level 1; single cells at level ``order + 1``.
    """
    found: dict[str, int] = {}
    current = [_cells(table)]
    level = 1
    while current:
        nxt: list[str] = []
        for s in current:
            if s not in found and is_bead(s):
                found[s] = level
            if len(s) > 1:
                half = len(s) // 2
                nxt.append(s[:half])
                nxt.append(s[half:])
        current = nxt
        level += 1
    return found


@dataclass(frozen=True)
class Bdd:
    """Rooted DAG of decision nodes plus the two sinks.

    Branch nodes have positive ids and carry the 1-based level they test;
    the feature tested at level ``l`` is ``ordering[l - 1]``.  The sinks
    use the reserved ids -1 (value 1) and -2 (value 0).  ``tables`` keeps
    the subtable each branch node was built from.
    """

    root: int
    levels: dict[int, int]
    left: dict[int, int]
    right: dict[int, int]
    ordering: tuple[int, ...]
    tables: dict[int, str] = field(default_factory=dict)

    def branch_ids(self) -> list[int]:
        return sorted(self.levels)

    def used_sinks(self) -> set[int]:
        sinks = {c for c in self.left.values() if c < 0}
        sinks |= {c for c in self.right.values() if c < 0}
        if self.root < 0:
            sinks.add(self.root)
        return sinks

    def nodes(self) -> list[tuple[int, int]]:
        """(id, payload) pairs: level for branch nodes, value for sinks."""
        out = [(i, self.levels[i]) for i in self.branch_ids()]
        for sink in sorted(self.used_sinks(), reverse=True):
            out.append((sink, 1 if sink == SINK_ONE else 0))
        return out

    def edges(self) -> list[tuple[int, int, str]]:
        out = []
        for i in self.branch_ids():
            out.append((i, self.left[i], LEFT))
            out.append((i, self.right[i], RIGHT))
        return out


def gen_bdd(table, ordering: Sequence[int]) -> Bdd:
    """Build the reduced ordered diagram of ``table`` over ``ordering``.

    Breadth-first over subtables: a multi-cell bead becomes a node the
    first time its string is seen; a constant subtable wires a sink; a
    non-bead passes its parent through to the first half, skipping the
    level.  Constant tables yield a single-sink diagram.
    """
    cells = _cells(table)
    _check_power_of_two(len(cells))
    if set(cells) - {"0", "1"}:
        raise BddError("gen_bdd needs a fully decided table")
    order = (len(cells) - 1).bit_length()
    ordering = tuple(ordering)
    if len(ordering) != order:
        raise BddError(f"ordering length {len(ordering)} != table order {order}")
    if len(set(ordering)) != len(ordering):
        raise BddError("ordering features must be pairwise distinct")

    levels: dict[int, int] = {}
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    tables: dict[int, str] = {}
    index_of: dict[str, int] = {}
    root: int | None = None

    def set_child(parent: int, direction: str, child: int) -> None:
        (left if direction == LEFT else right)[parent] = child

    queue: deque[tuple[str, int, int, str | None]] = deque()
    queue.append((cells, 0, 1, None))
    while queue:
        s, parent, level, direction = queue.popleft()
        if len(s) > 1 and is_bead(s):
            idx = index_of.get(s)
            fresh = idx is None
            if fresh:
                idx = len(index_of) + 1
                index_of[s] = idx
                levels[idx] = level
                tables[idx] = s
            if parent >= 1:
                set_child(parent, direction, idx)
            else:
                root = idx
            if fresh:
                half = len(s) // 2
                queue.append((s[:half], idx, level + 1, LEFT))
                queue.append((s[half:], idx, level + 1, RIGHT))
        elif len(s) > 1:
            first = s[0]
            if s.count(first) == len(s):  # constant: wire a sink
                sink = SINK_ONE if first == "1" else SINK_ZERO
                if parent >= 1:
                    set_child(parent, direction, sink)
                else:
                    root = sink
            else:  # halves equal but mixed: skip this level
                queue.append((s[: len(s) // 2], parent, level + 1, direction))
        else:
            sink = SINK_ONE if s == "1" else SINK_ZERO
            if parent >= 1:
                set_child(parent, direction, sink)
            else:
                root = sink
    assert root is not None
    return Bdd(root, levels, left, right, ordering, tables)


def classify_table(table, ordering: Sequence[int], example: Sequence[int]) -> int:
    """Look the example up directly in the truth table."""
    cells = _cells(table)
    idx = 0
    for feature in ordering:
        idx = (idx << 1) | (1 if example[feature] else 0)
    return int(cells[idx])


def classify(bdd: Bdd, example: Sequence[int]) -> int:
    """Walk the diagram root-to-sink: left on 0, right on 1."""
    node = bdd.root
    while node >= 1:
        feature = bdd.ordering[bdd.levels[node] - 1]
        side = bdd.right if example[feature] else bdd.left
        try:
            node = side[node]
        except KeyError:
            raise BddError(f"node {node} is missing a child edge") from None
    return 1 if node == SINK_ONE else 0


def node_count(bdd: Bdd) -> int:
    """Branch nodes plus the sinks actually used."""
    return len(bdd.levels) + len(bdd.used_sinks())


def export_dot(
    bdd: Bdd, out: TextIO, feature_names: Sequence[str] | None = None
) -> None:
    """Graphviz rendering: dashed edges left (0), solid right (1), boxed sinks."""

    def label(i: int) -> str:
        feature = bdd.ordering[bdd.levels[i] - 1]
        if feature_names is not None:
            return feature_names[feature]
        return f"x{feature + 1}"

    def name(i: int) -> str:
        return f"n{i}" if i >= 1 else ("sink1" if i == SINK_ONE else "sink0")

    out.write("digraph bdd {\n")
    for i in bdd.branch_ids():
        out.write(f'  {name(i)} [label="{label(i)}", shape=circle];\n')
    for sink in sorted(bdd.used_sinks(), reverse=True):
        value = 1 if sink == SINK_ONE else 0
        out.write(f'  {name(sink)} [label="{value}", shape=box];\n')
    for parent, child, direction in bdd.edges():
        style = "dashed" if direction == LEFT else "solid"
        out.write(f"  {name(parent)} -> {name(child)} [style={style}];\n")
    out.write("}\n")


def bdd_to_json(bdd: Bdd, feature_names: Sequence[str] | None = None) -> dict:
    doc = {
        "root": bdd.root,
        "ordering": list(bdd.ordering),
        "nodes": [{"id": i, "level": bdd.levels[i]} for i in bdd.branch_ids()],
        "edges": [[p, c, d] for p, c, d in bdd.edges()],
    }
    if feature_names is not None:
        doc["feature_names"] = list(feature_names)
    return doc


def bdd_from_json(doc: dict) -> Bdd:
    levels = {int(n["id"]): int(n["level"]) for n in doc["nodes"]}
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for p, c, d in doc["edges"]:
        if d == LEFT:
            left[int(p)] = int(c)
        elif d == RIGHT:
            right[int(p)] = int(c)
        else:
            raise BddError(f"bad edge direction {d!r}")
    return Bdd(int(doc["root"]), levels, left, right, tuple(doc["ordering"]))
