"""The benchmark's seeded workloads.

An op is one user-level call into the program.  ``setup`` builds a pool
of inputs from the seed alone; ``op`` runs one call on one input and is
timed on its own; ``check`` then judges the answer against the exact
oracle of :mod:`oracle`, which never imports the program.  Every answer
the oracle rejects is named in ``Outcome.wrong``.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from bddlearn import cnf, data, encode, search
from bddlearn.data import dataset_from_bits

BIASES = ("S", "P", "C")


@dataclass
class Outcome:
    wrong: list[str] = field(default_factory=list)
    optimal: bool = False
    cost_gap: int = 0
    below_majority: bool = False
    train_accuracy: float = 0.0
    test_accuracy: float | None = None
    overrun_s: float | None = None


def lookup(cells: str, ordering, bits) -> int:
    """Table lookup: the ordering's feature values spell the cell index."""
    idx = 0
    for feature in ordering:
        idx = (idx << 1) | bits[feature]
    return int(cells[idx])


def walk(diagram, bits) -> int:
    """Root-to-sink walk of a diagram: left on 0, right on 1; sink -1 is 1."""
    node = diagram.root
    while node >= 1:
        feature = diagram.ordering[diagram.levels[node] - 1]
        node = (diagram.right if bits[feature] else diagram.left)[node]
    return 1 if node == -1 else 0


def judge_model(model, rows, labels, out: Outcome) -> int:
    """Training errors of ``model``'s own table; flags diagram disagreements."""
    cells = model.table.cells
    errors = 0
    disagree = 0
    for bits, label in zip(rows, labels):
        pred = lookup(cells, model.ordering, bits)
        errors += pred != label
        disagree += walk(model.bdd, bits) != pred
    if disagree:
        out.wrong.append(f"diagram disagrees with its table on {disagree} rows")
    if model.train_accuracy != (len(rows) - errors) / len(rows):
        out.wrong.append(f"reported train accuracy {model.train_accuracy} is wrong")
    out.train_accuracy = (len(rows) - errors) / len(rows)
    return errors


def _planted_table(rng: random.Random, depth: int) -> str:
    """A random table of order ``depth`` that depends on every position."""
    n = 1 << depth
    while True:
        cells = "".join(rng.choice("01") for _ in range(n))
        if all(
            any(cells[j] != cells[j ^ (1 << b)] for j in range(n))
            for b in range(depth)
        ):
            return cells


@dataclass
class BitsInstance:
    rows: tuple
    labels: tuple
    depth: int
    dataset: object


def _noise_instance(rng: random.Random, m: int, k: int, depth: int) -> BitsInstance:
    """Random rows with random labels, redrawn until both classes occur.

    ``learn`` answers a one-class dataset without a solver, which is not
    the path the MaxSAT workloads measure.
    """
    rows = tuple(tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(m))
    labels: tuple = ()
    while len(set(labels)) < 2:
        labels = tuple(rng.randint(0, 1) for _ in range(m))
    return BitsInstance(rows, labels, depth, dataset_from_bits(rows, labels))


class MaxSatWorkload:
    """One ``search.learn`` call in MaxSAT mode per op, bias rotating S, P, C.

    The inputs cycle through ``shapes`` (m, k, H) in a fixed order, so every
    seed runs the same mix of sizes.
    """

    budget = 120.0
    pool_size = 600
    shapes: tuple = ()

    def setup(self, rng: random.Random, workdir: Path) -> list:
        return [
            _noise_instance(rng, *self.shapes[i % len(self.shapes)])
            for i in range(self.pool_size)
        ]

    def expect(self, inst: BitsInstance) -> int:
        return oracle.best_error(inst.rows, inst.labels, inst.depth)

    def op(self, inst: BitsInstance, i: int):
        cfg = search.LearnConfig(
            depth=inst.depth, mode="maxsat", bias=BIASES[i % 3], budget=self.budget
        )
        return search.learn(inst.dataset, cfg)

    def check(self, inst: BitsInstance, best: int, model, wall: float) -> Outcome:
        out = Outcome()
        errors = judge_model(model, inst.rows, inst.labels, out)
        cost = model.solver_stats["cost"]
        if errors != cost:
            out.wrong.append(f"model makes {errors} errors but reports cost {cost}")
        if model.optimal and cost != best:
            out.wrong.append(f"OPTIMUM cost {cost} differs from the optimum {best}")
        if cost < best:
            out.wrong.append(f"cost {cost} is below the optimum {best}")
        out.optimal = model.optimal
        out.cost_gap = cost - best
        out.below_majority = errors > oracle.majority_errors(inst.labels)
        out.overrun_s = wall - self.budget
        return out

    def summary(self, done: list[Outcome]) -> dict:
        return {
            "cost_gap": (sum(o.cost_gap for o in done), "count"),
            "below_majority": (sum(o.below_majority for o in done), "count"),
        }


class MaxSatOracle(MaxSatWorkload):
    """Pure-noise data of criterion-04 size, solved to optimality.

    One shape keeps the op times unimodal.  Shapes drawn over the whole
    criterion-04 range made a 30 s run's throughput and median depend on
    how many m=24, H=3 instances (up to 15 s each) a seed happened to draw.
    """

    shapes = ((12, 4, 3),)


class MaxSatBudget(MaxSatWorkload):
    """The ROADMAP's noisy shapes under a fixed wall budget, in rotation.

    Labels are pure noise: with a planted rule plus 15 % noise, the first
    MaxSAT bound of the (500, 40, 3) op, and with it the size of its
    cardinality network, varied by a third between seeds.
    """

    budget = 2.0
    shapes = ((60, 12, 3), (120, 16, 3), (200, 20, 2), (500, 40, 3))
    pool_size = 3 * len(shapes)

    def summary(self, done: list[Outcome]) -> dict:
        return super().summary(done) | {
            "budget_overrun_s": (max(o.overrun_s for o in done), "s"),
        }


@dataclass
class Session:
    train_csv: Path
    test_csv: Path
    h0: int


def read_rows(path: Path) -> tuple[tuple, list]:
    """Header and body of a CSV file the benchmark wrote."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return tuple(rows[0]), rows[1:]


@dataclass
class SessionAnswer:
    train: object
    result: object
    accuracy: float
    wcnf_header: str
    wcnf_lines: int
    formula_size: tuple


class SatWide:
    """Dataset sessions on wide, clean categorical data with a planted rule.

    Sessions are short (200 rows) so that a 30 s run holds about 80 of them:
    the SAT probe's search time varies several-fold between datasets, and
    with 1,200 rows a run held 13 sessions whose median moved by 29 %
    between seeds.  The pool keeps only file paths, so the process's peak
    memory is the program's and not the benchmark's.
    """

    probe_budget = 120.0
    pool_size = 96
    label = "label"
    arities = (2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6)  # 45 features after one-hot
    train_size = 200
    test_size = 200
    # min_depth starts at the planted depth, not above it: on the seed code a
    # depth-3 probe over 1,000 rows ran past 70 s, so the walk down is
    # depth 2 (SAT) then depth 1 (UNSAT, the certificate).
    depth = 2

    def _session(self, rng: random.Random, workdir: Path, i: int) -> Session:
        arity = rng.sample(self.arities, len(self.arities))
        n_cols, depth = len(arity), self.depth
        cols = rng.sample(range(n_cols), depth)
        values = [rng.randrange(arity[c]) for c in cols]
        table = _planted_table(rng, depth)
        columns = tuple(f"c{c}" for c in range(n_cols)) + (self.label,)

        def rows(n):
            out = []
            for _ in range(n):
                row = [rng.randrange(a) for a in arity]
                bits = [int(row[c] == v) for c, v in zip(cols, values)]
                label = "yes" if lookup(table, range(depth), bits) else "no"
                out.append(tuple(f"v{x}" for x in row) + (label,))
            return out

        train_rows: list = []
        while len({row[-1] for row in train_rows}) < 2:  # a rare class can miss
            train_rows = rows(self.train_size)
        test_rows = rows(self.test_size)
        paths = []
        for part, body in (("train", train_rows), ("test", test_rows)):
            path = workdir / f"session{i}-{part}.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns)
                writer.writerows(body)
            paths.append(path)
        return Session(paths[0], paths[1], depth)

    def setup(self, rng: random.Random, workdir: Path) -> list:
        return [self._session(rng, workdir, i) for i in range(self.pool_size)]

    def expect(self, s: Session) -> int:
        """Minimum perfect depth over every ``column == value`` split.

        One-hot binarization offers the same splits up to complements,
        which partition the rows alike.
        """
        columns, rows = read_rows(s.train_csv)
        splits = [
            (c, value)
            for c in range(len(columns) - 1)
            for value in sorted({row[c] for row in rows})
        ]
        bits = [[int(row[c] == value) for c, value in splits] for row in rows]
        labels = [int(row[-1] == "yes") for row in rows]
        return oracle.min_perfect_depth(bits, labels, s.h0)

    def op(self, s: Session, i: int) -> SessionAnswer:
        train = data.one_hot_binarize(data.load_csv(s.train_csv, self.label))
        result = search.min_depth(train, s.h0, budget=self.probe_budget)
        test = data.bind_like(
            data.load_csv(s.test_csv, self.label),
            train.feature_specs,
            train.label_names,
            train.feature_names,
        )
        accuracy = search.evaluate(result.model, test)
        formula, _ = encode.encode_maxsat(train, result.depth)
        buf = io.StringIO()
        cnf.emit_dimacs_wcnf(formula, buf)
        text = buf.getvalue()
        size = (formula.var_count, len(formula.hard) + len(formula.soft), len(formula.soft))
        return SessionAnswer(
            train, result, accuracy, text[: text.index("\n")], text.count("\n"), size
        )

    def check(self, s: Session, best: int, ans: SessionAnswer, wall: float) -> Outcome:
        out = Outcome()
        result, model, train = ans.result, ans.result.model, ans.train
        if train.label_names != ("no", "yes"):
            out.wrong.append(f"labels bound as {train.label_names}")
        if result.depth != best:
            out.wrong.append(f"min depth {result.depth}, the oracle says {best}")
        out.optimal = result.depth == best and (
            result.depth <= 1 or result.unsat_depth == result.depth - 1
        )
        columns, train_rows = read_rows(s.train_csv)
        index = {name: c for c, name in enumerate(columns)}
        specs = [(index[col], value) for col, value in train.feature_specs]

        def bits(row):
            return {r: int(row[specs[r][0]] == specs[r][1]) for r in model.ordering}

        def accuracy(rows):
            hits = 0
            for row in rows:
                b = bits(row)
                pred = lookup(model.table.cells, model.ordering, b)
                if walk(model.bdd, b) != pred:
                    out.wrong.append("diagram disagrees with its table")
                    break
                hits += pred == (row[-1] == "yes")
            return hits / len(rows)

        out.train_accuracy = accuracy(train_rows)
        if out.train_accuracy != 1.0:
            out.wrong.append(f"min-depth model is not perfect: {out.train_accuracy}")
        out.test_accuracy = accuracy(read_rows(s.test_csv)[1])
        if ans.accuracy != out.test_accuracy:
            out.wrong.append(
                f"evaluate says {ans.accuracy}, the table says {out.test_accuracy}"
            )
        n_vars, n_clauses, n_soft = ans.formula_size
        header = f"p wcnf {n_vars} {n_clauses} {n_soft + 1}"
        if ans.wcnf_header != header or ans.wcnf_lines != n_clauses + 1:
            out.wrong.append(f"WCNF header {ans.wcnf_header!r}, expected {header!r}")
        return out

    def summary(self, done: list[Outcome]) -> dict:
        return {"test_accuracy": (sum(o.test_accuracy for o in done) / len(done), "ratio")}


WORKLOADS = {
    "maxsat-oracle": MaxSatOracle,
    "maxsat-budget": MaxSatBudget,
    "sat-wide": SatWide,
}
