"""Learning pipelines: depth search, feature preselection, train/evaluate.

``learn`` wires the full path together: optional greedy feature
preselection, then, on the embedded path, one anytime walk over the
feature subsets, :func:`best_subset`, that the budget bounds and whose
first leaf is the greedy classifier.  The walk gives every answer, and
the solver only certifies it: a perfect leaf is returned without a
solver, so ``learn``, ``min_depth`` and cross-validation may return a
different perfect ordering and table than the solver would; with no
perfect leaf, the solver refutes one error below the mode's target, the
walk's optimum in MaxSAT mode and 1 in SAT mode, on the rows of the
walk's core instead of the whole dataset.  A walk the budget stops
returns its best leaf in MaxSAT mode as the anytime model.  The formula
is built once, after the walk, and only when a solver runs; the external
path encodes the whole dataset and decodes the external solver's model.
``model_from_table`` is the one way from an ordering and truth table to
a model: unknown-cell marking, the configured generalization bias, the
diagram and the training accuracy.  ``min_depth`` finds the smallest
depth admitting a perfect classifier by linear search, and
``cross_validate`` runs the k-fold protocol.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import encode, postprocess, solve
from .bdd import (
    Bdd,
    TruthTable,
    classify,
    classify_table,
    gen_bdd,
    is_bead,
    node_count,
)
from .data import DataError, Dataset, cell_counts, check_consistency, kfold

MODE_SAT = "sat"
MODE_MAXSAT = "maxsat"
BIASES = ("P", "C", "S")


class LearnError(RuntimeError):
    """Learning failed: no model could be produced."""


class DepthInsufficientError(LearnError):
    """No perfect classifier exists at the requested depth."""


class SolverTimeoutError(LearnError):
    """The solver budget ran out before any model was found."""


@dataclass(frozen=True)
class PreselectConfig:
    max_depth: int
    min_leaf: int = 1


@dataclass(frozen=True)
class LearnConfig:
    depth: int
    mode: str = MODE_MAXSAT
    bias: str = "S"
    preselect: PreselectConfig | None = None
    solver_cmd: str | None = None  # None = embedded solver
    budget: float = 900.0
    seed: int = 0

    def __post_init__(self):
        encode.check_depth(self.depth)
        if self.budget <= 0:
            raise ValueError("budget must be > 0")
        if self.mode not in (MODE_SAT, MODE_MAXSAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bias not in BIASES:
            raise ValueError(f"unknown bias {self.bias!r}")


@dataclass
class LearnedModel:
    depth: int
    mode: str
    bias: str
    ordering: tuple[int, ...]  # indices into the full feature list
    feature_names: tuple[str, ...]  # full feature list of the training data
    table: TruthTable
    bdd: Bdd
    train_accuracy: float
    optimal: bool
    literal_count: int
    solver_stats: dict = field(default_factory=dict)

    @property
    def ordering_names(self) -> tuple[str, ...]:
        return tuple(self.feature_names[r] for r in self.ordering)


def _gini_split_cost(indices, labels, rows, feature) -> float | None:
    n_pos = [0, 0]
    n_neg = [0, 0]
    for q in indices:
        side = rows[q][feature]
        if labels[q]:
            n_pos[side] += 1
        else:
            n_neg[side] += 1
    total = len(indices)
    sizes = (n_pos[0] + n_neg[0], n_pos[1] + n_neg[1])
    if 0 in sizes:
        return None
    cost = 0.0
    for side in (0, 1):
        p = n_pos[side] / sizes[side]
        cost += (sizes[side] / total) * 2.0 * p * (1.0 - p)
    return cost


def preselect_features(
    dataset: Dataset, max_depth: int, min_leaf: int = 1
) -> tuple[int, ...]:
    """Features used by a greedy Gini-impurity tree grown on the dataset.

    Splits stop on purity, at ``max_depth``, below ``min_leaf`` examples,
    or when no split lowers the weighted impurity; ties pick the lowest
    feature index.  A pure dataset yields the empty tuple.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = dataset.features
    labels = dataset.labels
    used: set[int] = set()

    def grow(indices: list[int], depth: int) -> None:
        pos = sum(labels[q] for q in indices)
        if pos == 0 or pos == len(indices):
            return
        if depth >= max_depth or len(indices) < min_leaf:
            return
        p = pos / len(indices)
        node_gini = 2.0 * p * (1.0 - p)
        best: tuple[float, int] | None = None
        for feature in range(dataset.k):
            cost = _gini_split_cost(indices, labels, rows, feature)
            if cost is None or cost >= node_gini - 1e-12:
                continue
            if best is None or cost < best[0]:
                best = (cost, feature)
        if best is None:
            return
        feature = best[1]
        used.add(feature)
        grow([q for q in indices if rows[q][feature] == 0], depth + 1)
        grow([q for q in indices if rows[q][feature] == 1], depth + 1)

    if dataset.m:
        grow(list(range(dataset.m)), 0)
    return tuple(sorted(used))


@dataclass(frozen=True)
class Leaf:
    ordering: tuple[int, ...]
    table: TruthTable
    cost: int  # training errors of the table


@dataclass(frozen=True)
class Walk:
    best: Leaf  # the least-error leaf the walk reached
    first_cost: int  # the first leaf's errors: the greedy classifier's
    core: tuple[int, ...] | None  # the row core; None when the walk was stopped


def _majority_fill(counts) -> tuple[list[str], int]:
    """Majority cells of per-cell ``(pos, neg)`` counts (0 on a tie), and their errors.

    A constant table is a bead under no root, so its cell with the
    smallest ``|pos - neg|`` is flipped at that many extra errors.
    """
    cells = ["1" if pos > neg else "0" for pos, neg in counts]
    errors = sum(min(pos, neg) for pos, neg in counts)
    if len(set(cells)) == 1:
        margins = [abs(pos - neg) for pos, neg in counts]
        j = margins.index(min(margins))
        cells[j] = "0" if cells[j] == "1" else "1"
        errors += margins[j]
    return cells, errors


def best_subset(
    dataset: Dataset,
    depth: int,
    stop: Callable[[], bool] = lambda: False,
    *,
    cost_core: bool = False,
) -> Walk | None:
    """The classifier of ``depth`` with the fewest training errors, found
    by one anytime walk over the feature subsets, and a row core.

    The errors of a feature subset do not depend on the order of its
    features: every cell takes its majority label, so the subset costs
    ``min(pos, neg)`` summed over its cells, plus the cheapest flip when
    that table is constant (no root split then gives a bead), the rule of
    :func:`_majority_fill`.  The walk is depth-first.  At each level it
    tries the candidate features cheapest first, ranked by the
    majority-fill error of the prefix they extend (ties go to the lower
    index), and each later sibling draws only on the candidates ranked
    after it, so every subset is visited once and the first leaf is the
    greedy classifier.  The cells of a prefix extended by one feature are
    an AND of the row bitsets per cell; only cells holding both labels
    are carried down, since only they err.  The first leaf of least cost
    wins, and a perfect one, with no mixed cell left, ends the walk.  The
    winner's table is its majority fill (an empty cell is 0) in the
    walk's pick order; when that table ignores the first pick, the first
    pick it reads becomes the root, so the table is a bead.

    The walk also builds a row core.  Every leaf it leaves mixed must err
    at least a target on the core rows, counted as ``min(pos, neg)``
    summed over its cells, a lower bound on the errors of any table of
    its subset there.  The target is 1, the SAT mode's, or with
    ``cost_core`` the walk's least cost so far, this leaf included.  A
    leaf below its target tops the core up: it walks its mixed cells in
    order and adds each cell's rows pair by pair, lowest positive and
    lowest negative row first, until the target is met; at target 1 that
    is the lowest pair of its first mixed cell.  A leaf that still falls short owes its cost to the
    flip of a constant table and puts every row in the core.  A finished
    walk with no perfect leaf returns the core's sorted row indices; one
    that ends on a perfect leaf, the empty tuple.  Every subset then errs
    at least the final target on the core rows, 1 or the walk's optimum.
    A model of the full ``encode_maxsat`` formula, restricted to them,
    errs no more on the core's formula, whose clauses are the full
    formula's for those rows up to a renaming of the ``d`` and error
    variables, with core rows of one feature vector sharing their ``d``
    variables (``share_vectors``, which every model of the full formula
    allows, since equal rows hold equal ``d`` values there), so refuting
    ``target - 1`` errors there refutes it on the full formula (the
    example-subset argument of Avellaneda, AAAI 2020).
    At target 1 the core holds at most ``2 * C(k, depth)`` rows.

    ``stop`` is asked before each feature is tried; once it answers true
    the walk ends with its best leaf so far and no core, or returns None
    when it has reached no leaf.  Needs ``dataset.k >= depth`` and both
    labels present.
    """
    columns, labels = dataset.column_bits, dataset.label_bits
    every = (1 << dataset.m) - 1
    core = 0  # bitset of the core rows
    best, least = None, dataset.m + 1  # the cheapest (picks, cells) so far, its cost
    first = 0  # the first leaf's cost, left 0 when that leaf is perfect
    stopped = False

    def split(mixed: list[int], r: int) -> tuple[list[int], int]:
        """The cells of ``mixed`` split on feature ``r`` that hold both
        labels, and their errors: a subset's cost without its flip."""
        on = columns[r]
        off = ~on
        out, errors = [], 0
        for cell in mixed:
            for half in (cell & off, cell & on):
                pos = (half & labels).bit_count()
                neg = half.bit_count() - pos
                if pos and neg:
                    out.append(half)
                    errors += pos if pos < neg else neg
        return out, errors

    def held(rows: int) -> int:
        """The errors a cell holding ``rows`` of the core forces."""
        pos = (rows & labels).bit_count()
        return min(pos, rows.bit_count() - pos)

    def top_up(mixed: list[int], target: int) -> None:
        """Add rows to the core until the leaf of the cells ``mixed``
        forces ``target`` errors on it, or make it every row."""
        nonlocal core
        total = sum(held(cell & core) for cell in mixed)
        for cell in mixed:
            pos, neg = cell & labels, cell & ~labels
            while total < target and pos and neg:
                low = pos & -pos | neg & -neg  # the cell's next pair
                total -= held(cell & core)
                core |= low
                total += held(cell & core)
                pos, neg = pos & ~low, neg & ~low
        if total < target:  # only a flip lifts the leaf's cost to ``target``
            core = every

    def walk(prefix: tuple[int, ...], mixed: list[int], cost: int, pool) -> bool:
        """Walk the subsets that extend ``prefix`` by the features of the
        ranked ``pool``; True once one is perfect or the walk is stopped.
        ``cost`` is the errors of ``mixed``, the prefix's cells that hold
        both labels."""
        nonlocal best, least, first, stopped
        if len(prefix) == depth:
            if not mixed:
                cells = _majority_fill(cell_counts(dataset, prefix))[0]
                best, least = (prefix, cells), 0
                return True
            if cost < least:  # the flip only adds to it
                cells, cost = _majority_fill(cell_counts(dataset, prefix))
                if best is None:
                    first = cost
                if cost < least:
                    best, least = (prefix, cells), cost
            if core != every:
                top_up(mixed, least if cost_core else 1)
            return False
        ranked = sorted((split(mixed, r)[1], r) for _, r in pool)
        for i in range(len(ranked) - depth + len(prefix) + 1):
            if stop():
                stopped = True
                return True
            cost, r = ranked[i]
            if walk(prefix + (r,), split(mixed, r)[0], cost, ranked[i + 1 :]):
                return True
        return False

    # the costs of the root and of its pool are never read
    walk((), [every], 0, [(0, r) for r in range(dataset.k)])
    if best is None:
        return None
    picks, cells = best
    half = len(cells) // 2  # the cell-index bit of the first pick
    root = next(
        r
        for i, r in enumerate(picks)
        if any(c != cells[j ^ (half >> i)] for j, c in enumerate(cells))
    )
    ordering = (root,) + tuple(r for r in picks if r != root)
    if root != picks[0]:  # the table ignores the first pick: reorder its cells
        cells = _majority_fill(cell_counts(dataset, ordering))[0]
    if stopped:
        rows = None
    else:
        rows = () if least == 0 else tuple(q for q in range(dataset.m) if core >> q & 1)
    return Walk(Leaf(ordering, TruthTable("".join(cells)), least), first, rows)


def training_accuracy(counts, table: TruthTable) -> float:
    """Share of the examples counted per cell as ``(pos, neg)`` that ``table`` predicts."""
    cells = table.cells
    hits = sum(pos if ch == "1" else neg for ch, (pos, neg) in zip(cells, counts))
    return hits / sum(pos + neg for pos, neg in counts)


def model_from_table(
    dataset: Dataset,
    ordering: Sequence[int],
    table: TruthTable,
    *,
    depth: int,
    mode: str,
    bias: str,
    optimal: bool,
    literal_count: int,
    solver_stats: dict,
) -> LearnedModel:
    """The model of a decoded ordering and table: cells that capture no
    example are re-decided by ``bias``, the diagram is built from the result,
    and the training accuracy is read off the per-cell counts of the marking.
    """
    ext = postprocess.mark_unknown(table, ordering, dataset)
    if bias == "C":
        final, diagram = postprocess.apply_bias_C(ext, ordering)
    else:
        fill = postprocess.apply_bias_S if bias == "S" else postprocess.apply_bias_P
        final = fill(ext)
        diagram = gen_bdd(final, ordering)
    return LearnedModel(
        depth=depth,
        mode=mode,
        bias=bias,
        ordering=tuple(ordering),
        feature_names=dataset.feature_names,
        table=final,
        bdd=diagram,
        train_accuracy=training_accuracy(ext.counts, final),
        optimal=optimal,
        literal_count=literal_count,
        solver_stats=solver_stats,
    )


def _constant_model(dataset: Dataset, cfg: LearnConfig | None) -> LearnedModel:
    return model_from_table(
        dataset,
        (),
        TruthTable("1" if dataset.labels[0] else "0"),
        depth=0,
        mode=cfg.mode if cfg else MODE_SAT,
        bias=cfg.bias if cfg else "S",
        optimal=True,
        literal_count=0,
        solver_stats={"elapsed": 0.0, "solver": "none"},
    )


def _stats_dict(stats: solve.SatStats, extra: dict | None = None) -> dict:
    doc = {
        "decisions": stats.decisions,
        "conflicts": stats.conflicts,
        "propagations": stats.propagations,
        "restarts": stats.restarts,
        "learned_deleted": stats.learned_deleted,
        "elapsed": stats.elapsed,
    }
    if extra:
        doc.update(extra)
    return doc


def _check_witness(dataset: Dataset, leaf: Leaf, depth: int) -> None:
    """Raise unless ``leaf`` orders ``depth`` distinct features of
    ``dataset`` over a bead that errs on exactly ``leaf.cost`` examples,
    counted row by row."""
    ordering, cells = leaf.ordering, leaf.table.cells
    if not (
        len(ordering) == depth == len(set(ordering))
        and all(0 <= r < dataset.k for r in ordering)
        and len(cells) == 1 << depth
        and is_bead(cells)
        and sum(
            classify_table(cells, ordering, row) != label
            for row, label in zip(dataset.features, dataset.labels)
        ) == leaf.cost
    ):
        raise RuntimeError("internal error: model fails hard-clause check")


def learn(dataset: Dataset, cfg: LearnConfig) -> LearnedModel:
    """Learn one classifier at the configured depth.

    SAT mode refuses inconsistent datasets up front (no depth can fix a
    feature-vector conflict) and reports UNSAT as "depth insufficient".
    A single-class dataset short-circuits to a sink-only diagram without
    touching a solver; otherwise a depth above the number of features is
    a data error.  The budget runs from the call on.  No formula is built
    before the answer: the checks of the mode's encoder run up front in
    :func:`encode.literal_count`, which gives ``literal_count`` on every
    path.

    On the embedded path the answer always comes from :func:`best_subset`,
    whose walk the budget bounds, and the solver only certifies it.  A
    perfect leaf is the witness: optimal, returned without a solver.  A
    finished walk with no perfect leaf hands over its core, the rows on
    which every subset errs at least a target: the walk's optimum in
    MaxSAT mode, 1 in SAT mode.  One certificate serves both modes: the
    solver refutes ``target - 1`` errors on the core's ``encode_maxsat``
    formula, which keeps the tail-sorted orderings only
    (:func:`encode.ordered_tail`) and gives core rows of one feature
    vector one set of ``d`` variables (``share_vectors``); its clauses
    are the full formula's for the core rows up to a renaming of the
    ``d`` and error variables.  It also holds ``e[p] | e[n]`` for each
    conflict pair of the core rows (:func:`encode.conflict_pair_clauses`),
    two rows of one vector with opposite labels: the formula implies
    these clauses, since both rows reach one cell, so they change no
    model or cost and only shorten the proof.  In MaxSAT mode that proves
    the optimum; ``core_rows`` reports the rows it encodes and
    ``core_pairs`` its pair clauses, both 0 when no proof is encoded.  In
    SAT mode it proves that no perfect classifier exists, and the
    consistent data leave it no pairs.  A walk stopped by the budget
    before its first leaf raises :class:`SolverTimeoutError`; after it,
    the walk's best leaf is returned in MaxSAT mode as the anytime model,
    not optimal and without a solver, and SAT mode times out.  A budget
    that runs out after the walk returns the same anytime model in MaxSAT
    mode and times out in SAT mode.  Every model returned is re-checked
    row by row against its cost, and a solver model is an internal error.
    ``seed_cost`` reports the walk's first leaf, the greedy classifier.
    The external path encodes the whole dataset and decodes the external
    solver's model.
    """
    deadline = time.monotonic() + cfg.budget

    def remaining() -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise SolverTimeoutError(f"no model within {cfg.budget}s")
        return left

    if dataset.m == 0:
        raise DataError("empty training set")
    if len(set(dataset.labels)) == 1:
        return _constant_model(dataset, cfg)

    work = dataset
    feature_map: Sequence[int] = range(dataset.k)
    if cfg.preselect is not None:
        selected = preselect_features(
            dataset, cfg.preselect.max_depth, cfg.preselect.min_leaf
        )
        # fall back to the full feature set when preselection leaves the
        # encoding without enough distinct features
        if len(selected) >= cfg.depth:
            work = dataset.restrict_features(selected)
            feature_map = selected
    if work.k < cfg.depth:
        raise DataError(f"depth {cfg.depth} is above the number of features, {work.k}")

    variant = encode.BDD2 if cfg.mode == MODE_SAT else encode.MAXSAT
    lits = encode.literal_count(work, cfg.depth, variant)

    def build(positions, table, optimal: bool, stats: dict) -> LearnedModel:
        return model_from_table(
            dataset,
            tuple(feature_map[r] for r in positions),
            table,
            depth=cfg.depth,
            mode=cfg.mode,
            bias=cfg.bias,
            optimal=optimal,
            literal_count=lits,
            solver_stats=stats,
        )

    if cfg.solver_cmd:
        encoder = encode.encode_bdd2 if cfg.mode == MODE_SAT else encode.encode_maxsat
        formula, ctx = encoder(work, cfg.depth)
        with tempfile.TemporaryDirectory(prefix="bddlearn-") as workdir:
            result = solve.external_solve(
                formula, cfg.solver_cmd, workdir, budget=remaining()
            )
        if isinstance(result, solve.SatResult):
            if result.status == solve.UNSAT:
                raise _insufficient(cfg.depth)
            optimal, extra = True, {}
        else:
            if result.model is None:
                raise SolverTimeoutError(f"no model within {cfg.budget}s")
            optimal = result.optimal
            extra = {"cost": result.cost, "iterations": result.iterations}
        stats = _stats_dict(result.stats, {**extra, "seed_cost": None})
        positions, table = encode.decode(result.model, ctx)
        return build(positions, table, optimal, stats)

    walk = best_subset(
        work,
        cfg.depth,
        lambda: time.monotonic() >= deadline,
        cost_core=cfg.mode == MODE_MAXSAT,
    )
    if walk is None:
        raise SolverTimeoutError(f"no model within {cfg.budget}s")
    best = walk.best

    def answer(
        optimal: bool, stats=solve.SatStats(), iterations=0, core_rows=0, core_pairs=0
    ) -> LearnedModel:
        extra = {"seed_cost": walk.first_cost}
        if cfg.mode == MODE_MAXSAT:
            extra = {
                "cost": best.cost,
                "iterations": iterations,
                **extra,
                "core_rows": core_rows,
                "core_pairs": core_pairs,
            }
        _check_witness(work, best, cfg.depth)
        return build(best.ordering, best.table, optimal, _stats_dict(stats, extra))

    if best.cost == 0:
        return answer(True)
    if walk.core is None:  # stopped by the budget
        if cfg.mode == MODE_SAT:
            raise SolverTimeoutError(f"no answer within {cfg.budget}s")
        return answer(False)  # the anytime model
    target = best.cost if cfg.mode == MODE_MAXSAT else 1
    core = work.subset(walk.core)
    formula, ctx = encode.encode_maxsat(core, cfg.depth, share_vectors=True)
    formula.add_hard_clauses(encode.ordered_tail(ctx))
    pairs = encode.conflict_pair_clauses(formula, core)
    formula.add_hard_clauses(pairs)
    # a budget spent by now builds no solver: MaxSAT mode returns the
    # walk's optimum as the anytime model, and SAT mode times out
    result = solve.maxsat_solve(
        formula, budget=deadline - time.monotonic(), seed=cfg.seed, upper=target
    )
    if result.model is not None:
        raise RuntimeError("internal error: the solver beat the subset walk")
    if cfg.mode == MODE_MAXSAT:
        return answer(
            result.optimal, result.stats, result.iterations, core.m, len(pairs)
        )
    if result.optimal:
        raise _insufficient(cfg.depth)
    raise SolverTimeoutError(f"no answer within {cfg.budget}s")


def _insufficient(depth: int) -> DepthInsufficientError:
    return DepthInsufficientError(f"depth {depth} insufficient for perfect classification")


@dataclass
class MinDepthResult:
    depth: int
    model: LearnedModel
    unsat_depth: int | None  # certificate: UNSAT at depth - 1 when probed
    probes: list[tuple[int, str]] = field(default_factory=list)


def min_depth(
    dataset: Dataset,
    h0: int,
    *,
    budget: float = 900.0,
    seed: int = 0,
    solver_cmd: str | None = None,
    strategy: str = "linear",
) -> MinDepthResult:
    """Smallest depth at which a perfect classifier exists.

    Starts at ``min(h0, K)`` and walks down on SAT answers or up on UNSAT
    until the boundary is bracketed; ``strategy="binary"`` bisects
    instead.  Consistent data is always separable at depth K, so the walk
    terminates.  Single-class data short-circuits to the constant model.
    A SAT probe answers with the first perfect leaf of the subset walk
    (see :func:`learn`).  UNSAT answers, and so the ``unsat_depth``
    certificate, come from the solver: it refutes a perfect classifier on
    the ``encode_maxsat`` formula of the finished walk's core, which
    refutes it on the whole dataset.  No probe goes above K, the number
    of features.
    """
    if h0 < 1:
        raise ValueError("h0 must be >= 1")
    if strategy not in ("linear", "binary"):
        raise ValueError(f"unknown strategy {strategy!r}")
    conflicts = check_consistency(dataset)
    if conflicts:
        raise DataError(
            f"dataset is inconsistent in example groups {conflicts}; "
            "no depth admits a perfect classifier"
        )
    if len(set(dataset.labels)) == 1:
        return MinDepthResult(0, _constant_model(dataset, None), None, [])

    probes: list[tuple[int, str]] = []
    models: dict[int, LearnedModel] = {}

    def probe(depth: int) -> bool:
        cfg = LearnConfig(
            depth=depth,
            mode=MODE_SAT,
            bias="S",
            solver_cmd=solver_cmd,
            budget=budget,
            seed=seed,
        )
        try:
            models[depth] = learn(dataset, cfg)
        except DepthInsufficientError:
            probes.append((depth, "UNSAT"))
            return False
        probes.append((depth, "SAT"))
        return True

    k = dataset.k
    depth = min(h0, k)
    if strategy == "binary":
        lo = 0  # largest known UNSAT depth
        while not probe(depth):
            lo = depth
            if depth >= k:
                raise LearnError("consistent data must be separable at depth K")
            depth = min(k, depth * 2)
        hi = depth  # smallest known SAT depth
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid):
                hi = mid
            else:
                lo = mid
        best = hi
    else:
        if probe(depth):
            while depth > 1 and probe(depth - 1):
                depth -= 1
            best = depth
        else:
            while True:
                if depth >= k:
                    raise LearnError("consistent data must be separable at depth K")
                depth += 1
                if probe(depth):
                    break
            best = depth
    unsat_depth = None
    if any(d == best - 1 and s == "UNSAT" for d, s in probes):
        unsat_depth = best - 1
    return MinDepthResult(best, models[best], unsat_depth, probes)


def evaluate(model: LearnedModel, test: Dataset) -> float:
    """Fraction of test examples the diagram classifies correctly."""
    if test.m == 0:
        raise DataError("empty test set")
    if model.ordering and max(model.ordering) >= test.k:
        raise DataError(
            f"model uses feature index {max(model.ordering)} but the test set "
            f"has only {test.k} features"
        )
    if model.feature_names and test.feature_names:
        for r in model.ordering:
            if model.feature_names[r] != test.feature_names[r]:
                raise DataError(
                    f"feature mismatch at index {r}: model has "
                    f"{model.feature_names[r]!r}, test set {test.feature_names[r]!r}"
                )
    hits = sum(
        1
        for row, label in zip(test.features, test.labels)
        if classify(model.bdd, row) == label
    )
    return hits / test.m


@dataclass
class CvRun:
    seed: int
    fold: int
    status: str  # "ok" | "error"
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    node_count: int | None = None
    literal_count: int | None = None
    solve_seconds: float | None = None
    optimal: bool | None = None
    error: str | None = None


@dataclass
class CvReport:
    runs: list[CvRun]
    aggregates: dict

    def to_json(self) -> dict:
        return {
            "runs": [run.__dict__ for run in self.runs],
            "aggregates": self.aggregates,
        }


def _fold_seed(base: int, split_seed: int, fold: int) -> int:
    return (base * 1_000_003 + split_seed * 1_009 + fold) & 0x7FFFFFFF


def _cv_one(args) -> CvRun:
    dataset, cfg, split_seed, fold, train_idx, test_idx = args
    run = CvRun(seed=split_seed, fold=fold, status="ok")
    try:
        fold_cfg = replace(cfg, seed=_fold_seed(cfg.seed, split_seed, fold))
        t0 = time.monotonic()
        model = learn(dataset.subset(train_idx), fold_cfg)
        run.solve_seconds = time.monotonic() - t0
        run.train_accuracy = model.train_accuracy
        run.test_accuracy = evaluate(model, dataset.subset(test_idx))
        run.node_count = node_count(model.bdd)
        run.literal_count = model.literal_count
        run.optimal = model.optimal
    except (DataError, LearnError, solve.SolverError) as exc:
        run.status = "error"
        run.error = str(exc)
    return run


def cross_validate(
    dataset: Dataset,
    cfg: LearnConfig,
    k: int,
    seeds: Sequence[int],
    jobs: int = 1,
) -> CvReport:
    """k-fold cross-validation repeated under each split seed.

    Per-run failures are recorded, not fatal.  With ``jobs > 1`` the runs
    execute in worker processes, each owning a private solver.
    """
    if k < 2:
        raise DataError("k must be >= 2")
    tasks = []
    for split_seed in seeds:
        for fold, split in enumerate(kfold(dataset, k, split_seed)):
            tasks.append((dataset, cfg, split_seed, fold, split.train, split.test))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_cv_one, tasks))
    else:
        runs = [_cv_one(task) for task in tasks]

    ok = [r for r in runs if r.status == "ok"]

    def mean(values) -> float | None:
        values = list(values)
        return sum(values) / len(values) if values else None

    aggregates = {
        "runs": len(runs),
        "failed": len(runs) - len(ok),
        "train_accuracy": mean(r.train_accuracy for r in ok),
        "test_accuracy": mean(r.test_accuracy for r in ok),
        "node_count": mean(r.node_count for r in ok),
        "literal_count": mean(r.literal_count for r in ok),
        "solve_seconds": mean(r.solve_seconds for r in ok),
        "optimal_rate": mean(1.0 if r.optimal else 0.0 for r in ok),
    }
    return CvReport(runs=runs, aggregates=aggregates)
