"""Unknown-cell handling for learned truth tables.

Cells that capture no training example were decided arbitrarily by the
solver.  :func:`mark_unknown` replaces them with ``u``; the three biases
then resolve ``u`` differently: S keeps the solver values, P takes the
majority label of the nearest enclosing table block with traffic, and C
merges compatible subtables level by level before falling back to P.
None of them touches a cell with traffic, so training predictions are
preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bdd import Bdd, BddError, TruthTable, gen_bdd
from .data import Dataset, cell_counts


@dataclass(frozen=True)
class ExtTable:
    """A truth table extended with ``u`` cells and per-cell traffic counts."""

    cells: str  # over {0,1,u}
    solver_cells: str  # the original fully decided table
    counts: tuple[tuple[int, int], ...]  # per-cell (positives, negatives)

    def __post_init__(self):
        n = len(self.cells)
        if n <= 0 or n & (n - 1):
            raise BddError(f"cell count {n} is not a power of two")
        if set(self.cells) - {"0", "1", "u"}:
            raise BddError("extended cells must be over {0,1,u}")
        if len(self.solver_cells) != n or len(self.counts) != n:
            raise BddError("cells, solver_cells, and counts must align")

    @property
    def order(self) -> int:
        return (len(self.cells) - 1).bit_length()


def mark_unknown(table, ordering: Sequence[int], train: Dataset) -> ExtTable:
    """Route every training example to its cell and blank untouched cells."""
    cells = table.cells if isinstance(table, TruthTable) else str(table)
    counts = cell_counts(train, ordering)
    marked = "".join(
        ch if pos + neg > 0 else "u" for ch, (pos, neg) in zip(cells, counts)
    )
    return ExtTable(cells=marked, solver_cells=cells, counts=counts)


def apply_bias_S(ext: ExtTable) -> TruthTable:
    """Keep the solver's values: the identity on the underlying table."""
    return TruthTable(ext.solver_cells)


def _global_majority(ext: ExtTable) -> str:
    pos = sum(p for p, _ in ext.counts)
    neg = sum(n for _, n in ext.counts)
    return "1" if pos > neg else "0"  # ties fall to 0


def _block_majority_fill(cells: list[str], ext: ExtTable) -> list[str]:
    n = len(cells)
    fallback = _global_majority(ext)
    out = list(cells)
    for j, ch in enumerate(cells):
        if ch != "u":
            continue
        value = fallback
        size = 2
        while size <= n:
            start = (j // size) * size
            pos = sum(ext.counts[x][0] for x in range(start, start + size))
            neg = sum(ext.counts[x][1] for x in range(start, start + size))
            if pos + neg > 0:
                if pos != neg:
                    value = "1" if pos > neg else "0"
                break  # a tied block falls back to the global majority
            size <<= 1
        out[j] = value
    return out


def apply_bias_P(ext: ExtTable) -> TruthTable:
    """Fill each unknown cell with its nearest captured block's majority.

    The block hierarchy ascends from the sibling pair through quads up to
    the whole table; the first block with traffic decides, ties and the
    all-unknown case fall back to the global training majority (0 on a
    global tie).
    """
    return TruthTable("".join(_block_majority_fill(list(ext.cells), ext)))


def _compatible(s: str, t: str) -> bool:
    return all(a == "u" or b == "u" or a == b for a, b in zip(s, t))


def _unify(s: str, t: str) -> str:
    return "".join(a if a != "u" else b for a, b in zip(s, t))


def apply_bias_C(ext: ExtTable, ordering: Sequence[int]) -> tuple[TruthTable, Bdd]:
    """Merge compatible subtables, then build the diagram of the result.

    Level by level from the root: the subtables one level down are
    scanned pairwise left to right, and whenever two agree at every
    position where neither holds ``u`` they are unified in place, each
    ``u`` taking the partner's concrete value.  Unification is transitive
    within a level (union-find over the compatible classes), and rewriting
    the cells in place updates every enclosing subtable as well.  Cells
    still unknown after the sweep are resolved like bias P.

    The merge does not minimize the diagram, which can come out larger
    than bias S's: cells ``1010uu0u`` over solver values ``10100000``
    become ``10101000``, 5 nodes where S keeps 4.
    """
    cells = list(ext.cells)
    n = len(cells)
    order = ext.order
    # sweep the subtables of levels 2..order (block sizes 2**(order-1)..2)
    block_len = n // 2
    while block_len >= 2:
        m = n // block_len
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        strings = [
            "".join(cells[b * block_len : (b + 1) * block_len]) for b in range(m)
        ]
        for i in range(m):
            for j in range(i + 1, m):
                ri, rj = find(i), find(j)
                if ri == rj:
                    continue
                if _compatible(strings[ri], strings[rj]):
                    strings[ri] = _unify(strings[ri], strings[rj])
                    parent[rj] = ri
        for b in range(m):
            merged = strings[find(b)]
            cells[b * block_len : (b + 1) * block_len] = merged
        block_len //= 2
    cells = _block_majority_fill(cells, ext)
    table = TruthTable("".join(cells))
    return table, gen_bdd(table, ordering)
