"""Independent oracles for differential testing.

Everything here recomputes answers from first principles (semantic
enumeration, exhaustive search, structural audits) without touching the
solver, encoder, or diagram-construction code paths it is used to check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations

from bddlearn.data import Dataset, dataset_from_bits


@lru_cache(maxsize=32)
def _var_masks(n: int) -> tuple[int, ...]:
    # masks[v-1] has bit a set iff assignment number a sets variable v
    total = 1 << n
    masks = []
    for v in range(1, n + 1):
        block = 1 << (v - 1)
        pattern = ((1 << block) - 1) << block
        length = 2 * block
        while length < total:
            pattern |= pattern << length
            length <<= 1
        masks.append(pattern)
    return tuple(masks)


def enumerate_sat(clauses, n: int) -> dict[int, int] | None:
    """Semantic check over all 2**n assignments using bitmask columns.

    Returns one satisfying assignment or None.  Exact for n <= ~22.
    """
    total = 1 << n
    full = (1 << total) - 1
    masks = _var_masks(n)
    sat_mask = full
    for clause in clauses:
        clause_mask = 0
        for lit in clause:
            column = masks[abs(lit) - 1]
            clause_mask |= column if lit > 0 else (full & ~column)
        sat_mask &= clause_mask
        if sat_mask == 0:
            return None
    a = (sat_mask & -sat_mask).bit_length() - 1
    return {v: (a >> (v - 1)) & 1 for v in range(1, n + 1)}


def _assign(clauses, lit: int):
    """``clauses`` with ``lit`` made true: satisfied clauses go, ``-lit`` is struck."""
    return [[x for x in clause if x != -lit] for clause in clauses if lit not in clause]


def _dpll(clauses) -> bool:
    """Satisfiability by unit propagation and branching on a clause's first literal."""
    while True:
        if not clauses:
            return True
        if not all(clauses):
            return False
        unit = next((clause[0] for clause in clauses if len(clause) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
    lit = clauses[0][0]
    return _dpll(_assign(clauses, lit)) or _dpll(_assign(clauses, -lit))


def unit_propagate(clauses, lits) -> set[int] | None:
    """Every literal unit propagation derives from ``clauses`` with ``lits``
    true, ``lits`` included; None when it falsifies a clause."""
    implied: set[int] = set()
    queue = list(lits) + [clause[0] for clause in clauses if len(clause) == 1]
    while queue:
        lit = queue.pop()
        if lit in implied:
            continue
        if -lit in implied:
            return None
        implied.add(lit)
        clauses = _assign(clauses, lit)
        if not all(clauses):
            return None
        queue.extend(clause[0] for clause in clauses if len(clause) == 1)
    return implied


def projected_models(clauses, onto: list[int]) -> set[tuple[int, ...]]:
    """All assignments of ``onto`` extendable to a model of ``clauses``.

    Each of the ``2**len(onto)`` assignments is fixed in turn and
    :func:`_dpll` decides whether the rest of the variables can follow.
    """
    out = set()
    for a in range(1 << len(onto)):
        bits = tuple((a >> i) & 1 for i in range(len(onto)))
        rest = clauses
        for v, bit in zip(onto, bits):
            rest = _assign(rest, v if bit else -v)
        if _dpll(rest):
            out.add(bits)
    return out


def route_counts(dataset: Dataset, ordering, n_cells: int):
    """Per-cell (positive, negative) training traffic under an ordering."""
    pos = [0] * n_cells
    neg = [0] * n_cells
    for row, label in zip(dataset.features, dataset.labels):
        idx = 0
        for feature in ordering:
            idx = (idx << 1) | row[feature]
        if label:
            pos[idx] += 1
        else:
            neg[idx] += 1
    return pos, neg


def best_split_error(dataset: Dataset, depth: int) -> int:
    """Exhaustive optimum of depth-bounded classification error.

    Enumerates every ordered selection of ``depth`` distinct features and
    majority-fills each truth-table cell.  The learner's table must have
    differing halves (the root split is never vacuous), so fills that
    would force identical halves pay the cheapest single-cell flip.
    """
    n_cells = 1 << depth
    half = n_cells >> 1
    best = dataset.m + 1
    for ordering in permutations(range(dataset.k), depth):
        pos, neg = route_counts(dataset, ordering, n_cells)
        err = sum(min(p, n) for p, n in zip(pos, neg))
        feasible = False
        for j in range(half):
            if pos[j] == neg[j] or pos[j + half] == neg[j + half]:
                feasible = True  # a tied or empty cell can break the tie freely
                break
            if (pos[j] > neg[j]) != (pos[j + half] > neg[j + half]):
                feasible = True
                break
        if not feasible:
            err += min(abs(p - n) for p, n in zip(pos, neg))
        if err < best:
            best = err
    return best


def greedy_classifier(dataset: Dataset, depth: int) -> tuple[tuple[int, ...], str, int]:
    """The greedy classifier of ``depth``: its ordering, table and errors.

    Positions are filled in order, each with the unused feature that
    minimizes the majority-fill errors of the ordering so far, ties going
    to the lowest index.  Each cell takes its majority label (0 on a tie or
    no traffic); a constant table flips its first cell of least
    ``|pos - neg|``.  When the table ignores the first feature, the first
    feature it reads becomes the root and the cells are filled again.
    """

    def errors(ordering) -> int:
        pos, neg = route_counts(dataset, ordering, 1 << len(ordering))
        return sum(min(p, n) for p, n in zip(pos, neg))

    def fill(ordering) -> tuple[list[str], int]:
        pos, neg = route_counts(dataset, ordering, 1 << len(ordering))
        cells = ["1" if p > n else "0" for p, n in zip(pos, neg)]
        cost = errors(ordering)
        if len(set(cells)) == 1:
            margins = [abs(p - n) for p, n in zip(pos, neg)]
            j = margins.index(min(margins))
            cells[j] = "1" if cells[j] == "0" else "0"
            cost += margins[j]
        return cells, cost

    ordering: tuple[int, ...] = ()
    for _ in range(depth):
        unused = [r for r in range(dataset.k) if r not in ordering]
        ordering += (min(unused, key=lambda r: errors(ordering + (r,))),)
    cells, cost = fill(ordering)
    read = [
        i
        for i in range(depth)
        if any(cells[j] != cells[j ^ (1 << (depth - 1 - i))] for j in range(len(cells)))
    ]
    if read[0]:
        root = ordering[read[0]]
        ordering = (root,) + tuple(r for r in ordering if r != root)
        cells, cost = fill(ordering)
    return ordering, "".join(cells), cost


def audit_bdd(bdd) -> list[str]:
    """Structural check of the ordered and reduced invariants.

    Canonical signatures are computed bottom-up from the graph alone, so
    the isomorphism check does not rely on the construction's bookkeeping.
    """
    problems: list[str] = []
    for i in bdd.levels:
        if i not in bdd.left or i not in bdd.right:
            problems.append(f"node {i} is missing a child")
            return problems
    for parent, child, _ in bdd.edges():
        if child >= 1 and bdd.levels[child] <= bdd.levels[parent]:
            problems.append(f"edge {parent}->{child} does not increase the level")
    for i in bdd.levels:
        if bdd.left[i] == bdd.right[i]:
            problems.append(f"node {i} has identical children")

    memo: dict[int, tuple] = {}

    def signature(node: int) -> tuple:
        if node < 0:
            return ("sink", node)
        if node not in memo:
            memo[node] = (
                bdd.levels[node],
                signature(bdd.left[node]),
                signature(bdd.right[node]),
            )
        return memo[node]

    seen: dict[tuple, int] = {}
    for i in bdd.levels:
        sig = signature(i)
        if sig in seen:
            problems.append(f"nodes {seen[sig]} and {i} root isomorphic subgraphs")
        seen[sig] = i

    reachable: set[int] = set()
    stack = [bdd.root]
    while stack:
        node = stack.pop()
        if node < 0 or node in reachable:
            continue
        reachable.add(node)
        stack.append(bdd.left[node])
        stack.append(bdd.right[node])
    if reachable != set(bdd.levels):
        problems.append("unreachable branch nodes present")
    return problems


def random_dataset(
    rng: random.Random, k: int, m: int, consistent: bool = False
) -> Dataset:
    rows = [tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(m)]
    if consistent:
        truth: dict[tuple, int] = {}
        labels = []
        for row in rows:
            if row not in truth:
                truth[row] = rng.randint(0, 1)
            labels.append(truth[row])
    else:
        labels = [rng.randint(0, 1) for _ in range(m)]
    return dataset_from_bits(rows, labels)


def random_formula(rng: random.Random, max_vars: int = 20, max_clauses: int = 90):
    n = rng.randint(3, max_vars)
    n_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, min(5, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses, n
