"""The MaxSAT certificate: one bounded call to the embedded CDCL solver.

The caller holds a model of cost ``upper`` and asks whether any model
falsifies fewer soft clauses.  Every soft clause is a unit ``[lit]`` of
weight 1, so ``-lit`` is its relaxation literal and no variable is
added.  A working formula holds the hard clauses and a cardinality bound
of ``upper - 1`` over the relaxation literals, and one SAT call decides
it: UNSAT proves that ``upper`` is the optimum, and SAT gives a model
that beats it.  The lex-leader clauses of a symmetry, such as
:func:`bddlearn.encode.ordered_tail`, belong in the hard clauses; they
must keep some model of each cost, and the UNSAT proof then refutes one
representative per symmetry class.  The bound is a
:class:`bddlearn.cnf.Totalizer` family once ``upper`` is 3 or more, which
costs O(n) to append; the solver reads it node by node under its
construction deadline and propagates its ternaries without building
them.  A bound appended only after the deadline gets no solver, and a
solver whose construction runs past the deadline does not search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import cnf
from .cdcl import TIMEOUT, UNSAT, SatStats, sat_solve

OPTIMUM = "OPTIMUM"
FEASIBLE = "FEASIBLE"
TIMEOUT_NO_SOLUTION = "TIMEOUT-NO-SOLUTION"


class SolverError(RuntimeError):
    """Solver-level failure: unsatisfiable hard clauses, bad integration."""


@dataclass
class MaxSatResult:
    status: str  # OPTIMUM | FEASIBLE | TIMEOUT-NO-SOLUTION
    model: dict[int, int] | None
    cost: int | None
    optimal: bool
    stats: SatStats = field(default_factory=SatStats)
    iterations: int = 0


def maxsat_solve(
    formula: cnf.Formula,
    budget: float | None = 900.0,
    seed: int = 0,
    *,
    upper: int,
) -> MaxSatResult:
    """Decide whether ``formula`` has a model of cost below ``upper``.

    ``formula``'s soft clauses must be units of weight 1, and ``upper``
    must lie in ``1..len(formula.soft)``; anything else raises
    :class:`ValueError`.  The answer is ``OPTIMUM`` with no model when no
    model falsifies fewer than ``upper`` soft clauses, and ``FEASIBLE``
    with a model over ``formula``'s variables and its cost when one does.
    A budget that runs out returns ``TIMEOUT_NO_SOLUTION``; when it is
    spent by the time the bound is built, no solver is built.
    ``iterations`` is 1 when the SAT call ran and 0 otherwise.
    """
    soft = formula.soft
    if any(len(clause) != 1 or w != 1 for clause, w in soft):
        raise ValueError("maxsat_solve takes soft units of weight 1 only")
    if not 1 <= upper <= len(soft):
        raise ValueError(f"upper {upper} outside 1..{len(soft)}")
    start = time.monotonic()
    # the solver copies every long clause it keeps and keeps a binary as
    # an implication only, so the working formula shares clause lists and
    # the feature-value family with ``formula`` instead of copying them
    working = cnf.Formula(formula.var_count)
    working.hard.extend(formula.hard)
    cnf.at_most_k(working, [-clause[0] for clause, _ in soft], upper - 1)
    left = None if budget is None else start + budget - time.monotonic()
    if left is not None and left < 0:
        stats = SatStats(elapsed=time.monotonic() - start)
        return MaxSatResult(TIMEOUT_NO_SOLUTION, None, None, False, stats)
    # a model comes back checked against the bound and every hard clause
    res = sat_solve(working, left, seed)
    stats = res.stats
    stats.elapsed = time.monotonic() - start
    if res.status == TIMEOUT:
        return MaxSatResult(TIMEOUT_NO_SOLUTION, None, None, False, stats, 1)
    if res.status == UNSAT:
        return MaxSatResult(OPTIMUM, None, None, True, stats, 1)
    model = {v: res.model[v] for v in range(1, formula.var_count + 1)}
    cost = cnf.falsified_soft_weight(formula, model)
    return MaxSatResult(FEASIBLE, model, cost, False, stats, 1)
