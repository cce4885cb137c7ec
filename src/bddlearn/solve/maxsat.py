"""Complete linear-search MaxSAT on top of the embedded CDCL solver.

Every soft clause has a relaxation literal that is true when the clause
may fail.  A soft unit ``[lit]`` needs no new variable: ``-lit`` is its
relaxation literal.  A longer soft clause gets a fresh variable ``b`` and
the hard clause ``clause | b``.  The search is one descent from an upper
bound on the number of falsified soft clauses: each SAT call asks for a
model that falsifies fewer than the best cost so far, through a
cardinality bound over the relaxation literals, until an UNSAT answer
proves optimality (model-improving linear search, as in QMaxSAT).  A
caller that holds a model of known cost passes that cost as ``upper``,
so the first call already asks for a better one; without it the first
bound excludes nothing.  Before it is counted, every model has its
falsified soft units made true wherever no clause breaks
(:func:`bddlearn.cnf.soft_unit_repair`).  The bound after every model is
the recomputed count of soft clauses the repaired model falsifies, which
is tighter than the number of true relaxation literals whenever the
solver set some of them gratuitously.  The lex-leader clauses of a
symmetry, such as :func:`bddlearn.encode.ordered_tail`, belong in the
hard clauses; they must keep some model of each cost, and the UNSAT
proof at the end then refutes one representative per symmetry class.
The cardinality bound is a :class:`bddlearn.cnf.Totalizer` family, which
costs O(n) to append; the solver reads it node by node under its
construction deadline and propagates its ternaries without building them.  A call whose bound is appended only
after the deadline gets no solver, and a solver whose construction runs
past the deadline does not search.
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


def _merge_stats(total: SatStats, part: SatStats) -> None:
    total.decisions += part.decisions
    total.conflicts += part.conflicts
    total.propagations += part.propagations
    total.restarts += part.restarts
    total.learned_deleted += part.learned_deleted


def maxsat_solve(
    formula: cnf.Formula,
    budget: float | None = 900.0,
    seed: int = 0,
    upper: int | None = None,
) -> MaxSatResult:
    """Minimize the falsified soft-clause weight of ``formula``.

    Only unit soft weights are supported.  ``upper`` is a cost the caller
    already holds a model for; only a model of lower cost is searched for.
    When none exists, or the budget runs out before one is found, the
    result has no model: ``OPTIMUM`` once a call proved that nothing beats
    ``upper``, ``TIMEOUT_NO_SOLUTION`` otherwise.  Without ``upper`` the
    first bound excludes nothing, and its UNSAT answer raises
    :class:`SolverError`: the hard clauses alone are unsatisfiable.
    """
    if any(w != 1 for _, w in formula.soft):
        raise ValueError("maxsat_solve supports unit soft weights only")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    stats = SatStats()

    def remaining() -> float | None:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    def result(proved: bool) -> MaxSatResult:
        stats.elapsed = time.monotonic() - start
        if proved:
            status = OPTIMUM
        else:
            status = TIMEOUT_NO_SOLUTION if best_model is None else FEASIBLE
        cost = None if best_model is None else best_cost
        return MaxSatResult(status, best_model, cost, proved, stats, iterations)

    # the solver copies every long clause it keeps and keeps a binary as
    # an implication only, so the formulas below share clause lists and
    # the feature-value family with ``formula`` instead of copying them
    orig_vars = formula.var_count
    relaxed = cnf.Formula(orig_vars)
    relaxed.hard.extend(formula.hard)
    relax: list[int] = []
    for clause, _weight in formula.soft:
        if len(clause) == 1:
            relax.append(-clause[0])
            continue
        b = relaxed.fresh_var()
        relaxed.add_hard(clause + [b])
        relax.append(b)
    repair = None  # built on the first model: a proof call returns none

    best_model: dict[int, int] | None = None
    best_cost = len(relax) + 1 if upper is None else upper
    iterations = 0

    while best_cost > 0:
        if expired():
            return result(False)
        # the relaxed base plus the current bound; stale looser bounds are
        # dropped, so iterations shrink as the bound tightens
        working = cnf.Formula(relaxed.var_count)
        working.hard.extend(relaxed.hard)
        if best_cost <= len(relax):  # a bound of len(relax) excludes nothing
            cnf.at_most_k(working, relax, best_cost - 1)
            # appending the bound is O(n); the solver's construction reads
            # it, under the same deadline
            if expired():
                return result(False)
        # a model comes back checked against the bound and every hard clause
        res = sat_solve(working, remaining(), seed)
        _merge_stats(stats, res.stats)
        iterations += 1
        if res.status == TIMEOUT:
            return result(False)
        if res.status == UNSAT:
            if best_cost > len(relax):
                raise SolverError("hard clauses are unsatisfiable")
            return result(True)
        if repair is None:
            repair = cnf.soft_unit_repair(formula)
        # drop the auxiliary variables, then clear gratuitous soft failures
        model = repair({v: res.model[v] for v in range(1, orig_vars + 1)})
        cost = cnf.falsified_soft_weight(formula, model)
        if cost >= best_cost:
            raise RuntimeError("internal error: descent failed to lower the cost")
        best_model, best_cost = model, cost
    return result(True)
