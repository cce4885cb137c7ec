"""Exact answers for the benchmark, computed without the program under test.

A depth-``H`` classifier picks ``H`` distinct features and fills the
``2**H`` cells of a truth table.  The training error of a feature set
does not depend on the order of its features: every cell takes the
majority label of the examples routed to it.  The order matters only for
the bead rule the learner enforces (the two halves of the table differ,
so the root split is never vacuous); when no choice of root feature meets
it with the majority fill, the cheapest single-cell flip is paid.

Rows are held as column bitsets (Python ints, bit ``q`` for example
``q``), so routing a whole dataset into a cell is one ``&`` and counting
it one ``bit_count``.
"""

from __future__ import annotations

from typing import Sequence


def column_masks(rows: Sequence[Sequence[int]]) -> list[int]:
    """Bitset of the examples that set each feature."""
    k = len(rows[0]) if rows else 0
    masks = [0] * k
    for q, row in enumerate(rows):
        bit = 1 << q
        for r in range(k):
            if row[r]:
                masks[r] |= bit
    return masks


def label_mask(labels: Sequence[int]) -> int:
    mask = 0
    for q, label in enumerate(labels):
        if label:
            mask |= 1 << q
    return mask


def _cell_counts(cells: list[int], pos: int) -> list[tuple[int, int]]:
    return [((c & pos).bit_count(), (c & ~pos).bit_count()) for c in cells]


def _bead_penalty(counts: list[tuple[int, int]], depth: int) -> int:
    """Extra errors forced by the bead rule for the best root choice."""
    for b in range(depth):  # bit b of the cell index is one candidate root
        step = 1 << b
        for j in range(len(counts)):
            if j & step:
                continue
            (p0, n0), (p1, n1) = counts[j], counts[j | step]
            if p0 == n0 or p1 == n1 or (p0 > n0) != (p1 > n1):
                return 0
    return min(abs(p - n) for p, n in counts)


def _subsets(masks: list[int], full: int, depth: int):
    """Yield the cell bitsets of every ``depth``-subset of the features."""
    k = len(masks)

    def grow(start: int, cells: list[int], left: int):
        if left == 0:
            yield cells
            return
        for r in range(start, k - left + 1):
            m = masks[r]
            nxt = []
            for c in cells:
                nxt.append(c & ~m)
                nxt.append(c & m)
            yield from grow(r + 1, nxt, left - 1)

    yield from grow(0, [full], depth)


def best_error(rows, labels, depth: int) -> int | None:
    """Least training error of any depth-``depth`` table; None if k < depth."""
    masks = column_masks(rows)
    pos = label_mask(labels)
    full = (1 << len(rows)) - 1
    best = None
    for cells in _subsets(masks, full, depth):
        counts = _cell_counts(cells, pos)
        err = sum(min(p, n) for p, n in counts)
        if best is not None and err >= best:
            continue
        err += _bead_penalty(counts, depth)
        if best is None or err < best:
            best = err
            if best == 0:
                break
    return best


def min_perfect_depth(rows, labels, max_depth: int) -> int | None:
    """Smallest depth at which some table classifies every row correctly."""
    if len(set(labels)) < 2:
        return 0
    for depth in range(1, max_depth + 1):
        if best_error(rows, labels, depth) == 0:
            return depth
    return None


def majority_errors(labels: Sequence[int]) -> int:
    """Training errors of the constant majority-class classifier."""
    ones = sum(labels)
    return min(ones, len(labels) - ones)
