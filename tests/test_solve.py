import gc
import random
import sys
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from bddlearn import cnf
from bddlearn.data import dataset_from_bits
from bddlearn.encode import decode, encode_bdd2, encode_maxsat, ordered_tail
from bddlearn.solve import cdcl
from bddlearn.solve import (
    FEASIBLE,
    OPTIMUM,
    SAT,
    TIMEOUT,
    TIMEOUT_NO_SOLUTION,
    UNSAT,
    CdclSolver,
    IntegrationError,
    SolverError,
    external_solve,
    maxsat_solve,
    sat_solve,
)
from bddlearn.search import LearnConfig, learn, min_depth
from oracles import best_split_error, enumerate_sat, random_dataset, random_formula


def _formula(clauses, n):
    f = cnf.Formula(n)
    for clause in clauses:
        f.add_hard(clause)
    return f


def test_contradictory_units_unsat():
    res = sat_solve(_formula([[1], [-1]], 1), budget=5)
    assert res.status == UNSAT
    assert res.model is None


def test_empty_clause_set_sat_empty_model():
    res = sat_solve(cnf.Formula(), budget=5)
    assert res.status == SAT
    assert res.model == {}


def test_model_is_total_over_unconstrained_vars():
    res = sat_solve(_formula([[1, 2]], 4), budget=5)
    assert res.status == SAT
    assert set(res.model) == {1, 2, 3, 4}


def test_soft_clauses_ignored_with_warning():
    f = _formula([[1]], 1)
    f.add_soft([-1])
    with pytest.warns(UserWarning):
        res = sat_solve(f, budget=5)
    assert res.status == SAT


def test_differential_against_enumeration():
    rng = random.Random(42)
    for _ in range(150):
        clauses, n = random_formula(rng)
        expected = enumerate_sat(clauses, n)
        res = sat_solve(_formula(clauses, n), budget=30, seed=1)
        if expected is None:
            assert res.status == UNSAT
        else:
            assert res.status == SAT
            assert all(
                cnf.clause_satisfied(c, res.model) for c in clauses
            )


def test_fixed_seed_is_deterministic():
    rng = random.Random(5)
    clauses, n = random_formula(rng, max_vars=18, max_clauses=70)
    f = _formula(clauses, n)
    a = sat_solve(f, budget=30, seed=3)
    b = sat_solve(f, budget=30, seed=3)
    assert a.status == b.status
    assert a.model == b.model
    assert (a.stats.decisions, a.stats.conflicts, a.stats.propagations) == (
        b.stats.decisions,
        b.stats.conflicts,
        b.stats.propagations,
    )


def _pigeonhole(holes: int):
    """holes+1 pigeons into `holes` holes: classic UNSAT family."""
    f = cnf.Formula((holes + 1) * holes)

    def var(p, h):
        return p * holes + h + 1

    for p in range(holes + 1):
        f.add_hard([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                f.add_hard([-var(p1, h), -var(p2, h)])
    return f


def test_search_trajectory_is_pinned():
    # counts of the solver before its literal-indexed rewrite: the rewrite
    # made each step cheaper and must not change a single step
    f = _pigeonhole(6)  # learned-clause deletion at max_learnts=20
    st = CdclSolver(f.hard, f.var_count, seed=1, max_learnts=20).solve(60).stats
    assert (st.conflicts, st.decisions, st.propagations, st.learned_deleted) == (
        1132, 1358, 16857, 828
    )
    f = _pigeonhole(7)  # over 4.5 k conflicts: the activity rescale runs
    st = CdclSolver(f.hard, f.var_count, seed=0).solve(60).stats
    assert (st.conflicts, st.decisions, st.propagations, st.restarts) == (
        5287, 6240, 86875, 21
    )
    formula, _ = encode_maxsat(random_dataset(random.Random(7), k=6, m=24), 3)
    res = maxsat_solve(formula, budget=60)
    st = res.stats
    assert (res.cost, res.iterations) == (5, 11)
    # unlike the pigeonhole pins, these counts also follow the encoding of
    # the cost bound (cnf.at_most_k) and the order in which the solver
    # propagates its ternaries in place, not only the search
    assert (st.conflicts, st.decisions, st.propagations) == (1546, 2227, 112958)


def _wide_probe(seed: int):
    """The depth-2 SAT probe over 45 random bit columns and 200 rows whose
    labels follow a depth-2 rule on two of the columns."""
    rng = random.Random(seed)
    rows = [tuple(rng.randint(0, 1) for _ in range(45)) for _ in range(200)]
    a, b = rng.sample(range(45), 2)
    labels = [int("0110"[2 * row[a] + row[b]]) for row in rows]
    formula, _ = encode_bdd2(dataset_from_bits(rows, labels), 2)
    return formula


def test_wide_sat_probe_trajectory_is_pinned():
    # long binary watch lists over few decisions, as in a min_depth probe;
    # the counts are those of the solver before its one-entry heap and
    # in-place watch walk, which must not change a single step
    f = _wide_probe(18)
    res = CdclSolver(f.hard, f.var_count, seed=0).solve(60)
    st = res.stats
    assert res.status == SAT
    assert (st.conflicts, st.decisions, st.propagations, st.restarts) == (
        164, 581, 49567, 1
    )


def _assert_one_current_heap_entry(solver: CdclSolver) -> None:
    """Every free variable has exactly one heap entry (-act[v], v), and no
    variable has two; ``in_heap`` marks the variables that have one."""
    current = Counter(e for e in solver.heap if e == (-solver.act[e[1]], e[1]))
    for v in range(1, solver.n + 1):
        count = current[(-solver.act[v], v)]
        assert count <= 1
        assert solver.in_heap[v] == count
        if solver.val[v] < 0:
            assert count == 1


def _run(clauses, var_count, **kwargs) -> tuple:
    """Status, model and the five counters of one solver's search."""
    res = CdclSolver(clauses, var_count, **kwargs).solve(60)
    st = res.stats
    counters = (st.decisions, st.conflicts, st.propagations, st.restarts, st.learned_deleted)
    return res.status, res.model, counters


def _has_links(formula: cnf.Formula) -> bool:
    return any(isinstance(part, cnf.ValueLinks) for part in formula.hard.parts)


def _expanded(hard: cnf.Clauses) -> list[list[int]]:
    """The clauses of ``hard`` in order, leaving its families unexpanded."""
    return [c for part in hard.parts for c in (part if type(part) is list else part.clauses())]


def _links_expanded(hard: cnf.Clauses) -> cnf.Clauses:
    """``hard`` with its feature-value links as clause lists; a totalizer
    stays a family, which the solver reads in place either way."""
    flat = cnf.Clauses()
    for part in hard.parts:
        if isinstance(part, cnf.Totalizer):
            flat.add_family(part)
        else:
            flat.extend(part if type(part) is list else part.clauses())
    return flat


def test_the_link_family_solves_as_its_expanded_clauses():
    # the solver reads the family into its implication lists unbuilt; the
    # search must not differ by a single step from one over its clauses
    rng = random.Random(29)
    statuses = []
    for k, m, depth in ((4, 12, 2), (5, 16, 3), (6, 20, 3), (6, 24, 4)):
        ds = random_dataset(rng, k=k, m=m, consistent=True)
        if depth == 3:  # a rule on two features: a perfect classifier exists
            ds = dataset_from_bits(ds.features, [r[1] ^ r[k - 1] for r in ds.features])
        formula, ctx = encode_bdd2(ds, depth)
        formula.add_hard_clauses(ordered_tail(ctx))
        assert _has_links(formula)
        family = _run(formula.hard, formula.var_count, seed=k)
        assert family == _run(_links_expanded(formula.hard), formula.var_count, seed=k)
        statuses.append(family[0])

        ds = random_dataset(rng, k=k, m=m)
        opt = best_split_error(ds, depth)
        for bound, max_learnts in ((opt, None), (opt - 1, None), (opt - 1, 20)):
            formula, ctx = encode_maxsat(ds, depth)
            formula.add_hard_clauses(ordered_tail(ctx))
            cnf.at_most_k(formula, [-c[0] for c, _ in formula.soft], bound)
            family = _run(formula.hard, formula.var_count, max_learnts=max_learnts)
            assert _has_links(formula)  # the solver built none of its clauses
            flat = _links_expanded(formula.hard)
            assert family == _run(flat, formula.var_count, max_learnts=max_learnts)
            assert family[0] == (SAT if bound == opt else UNSAT)
    assert SAT in statuses and UNSAT in statuses


def _random_links(rng: random.Random, n: int, distinct: bool) -> cnf.ValueLinks:
    """A small family over the variables 1..n.  Unless ``distinct``, its
    tables may repeat a variable, so a clause may be a unit or a tautology."""
    k, h, m = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 4)
    while distinct and k * h + h * m > n:
        k, h, m = max(1, k - 1), max(1, h - 1), max(1, m - 1)
    if distinct:
        ids = rng.sample(range(1, n + 1), k * h + h * m)
    else:
        ids = [rng.randint(1, n) for _ in range(k * h + h * m)]
    sel = [ids[r * h : (r + 1) * h] for r in range(k)]
    val = [ids[k * h + i * m : k * h + (i + 1) * m] for i in range(h)]
    rows = [tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(m)]
    return cnf.ValueLinks(sel, val, rows)


def test_random_formulas_with_a_family_solve_as_their_expanded_clauses():
    rng = random.Random(31)
    for trial in range(150):
        clauses, n = random_formula(rng, max_vars=14, max_clauses=50)
        x, y = rng.sample(range(1, n + 1), 2)
        special = [[x, x], [y, -y]]  # a unit and a tautology
        refuted = trial % 3 == 0
        if refuted:  # x and y hold at level 0, where this binary fails
            special += [[y], [-x, -y]]
        head, tail = clauses[: len(clauses) // 2], clauses[len(clauses) // 2 :]
        links = _random_links(rng, n, distinct=trial % 2 == 0)
        hard = cnf.Clauses()
        hard.extend(head + special)
        hard.add_family(links)
        hard.extend(tail)
        flat = head + special + links.clauses() + tail
        result = _run(hard, n, seed=trial)
        assert result == _run(flat, n, seed=trial)
        status, model, counters = result
        if refuted:
            assert status == UNSAT and counters[:2] == (0, 0)  # no search
        elif enumerate_sat(flat, n) is None:
            assert status == UNSAT
        else:
            assert status == SAT
            assert all(cnf.clause_satisfied(c, model) for c in flat)


def test_a_problem_binary_is_kept_as_an_implication_only():
    formula, ctx = encode_maxsat(random_dataset(random.Random(3), k=5, m=16), 3)
    formula.add_hard_clauses(ordered_tail(ctx))
    solver = CdclSolver(formula.hard, formula.var_count)
    binaries = [c for c in _expanded(formula.hard) if len(c) == 2]
    assert binaries and solver.n_binary == len(binaries)
    assert solver.n_problem == len(solver.clauses)
    assert all(len(c) > 2 for c in solver.clauses)  # no list for a binary
    assert sum(map(len, solver.implied)) == 2 * len(binaries)
    for x, y in binaries:
        assert y in solver.implied[x] and x in solver.implied[y]

    f = _pigeonhole(6)  # learned binaries stay on the watch path
    solver = CdclSolver(f.hard, f.var_count, seed=1, max_learnts=20)
    implied = [list(lits) for lits in solver.implied]
    assert solver.solve(60).status == UNSAT
    assert any(len(c) == 2 for c in solver.clauses[solver.n_problem :])
    assert solver.implied == implied


def test_a_certificate_never_builds_the_link_family(monkeypatch):
    # the proof formulas carry the family by reference into the solver;
    # only a model check would expand it
    def unbuilt(self):
        raise AssertionError("the feature-value links were expanded")

    monkeypatch.setattr(cnf.ValueLinks, "clauses", unbuilt)
    built = []
    solver_cls = cdcl.CdclSolver

    def counting_solver(*args, **kwargs):
        built.append(1)
        return solver_cls(*args, **kwargs)

    monkeypatch.setattr(cdcl, "CdclSolver", counting_solver)
    ds = random_dataset(random.Random(7), k=6, m=24)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=60))
    assert model.optimal and built
    assert model.solver_stats["cost"] == best_split_error(ds, 3)

    built.clear()
    rows = [((a >> 2) & 1, (a >> 1) & 1, a & 1) for a in range(8)]
    parity = dataset_from_bits(rows, [sum(r) % 2 for r in rows])
    result = min_depth(parity, 2, budget=60)
    assert (result.depth, result.unsat_depth) == (3, 2)
    assert built  # the depth-2 probe's UNSAT certificate


def _unbuilt_totalizer(self):
    raise AssertionError("the totalizer was built as a list")


def _bounded_sat(clauses, n, lits, k) -> bool:
    """Whether some assignment of 1..n meets ``clauses`` with at most ``k``
    of ``lits`` true, by enumeration."""
    return any(
        all(cnf.clause_satisfied(c, a) for c in clauses)
        and sum(cnf.lit_true(x, a) for x in lits) <= k
        for a in ({v: bits >> (v - 1) & 1 for v in range(1, n + 1)} for bits in range(1 << n))
    )


def _in_place_ternaries(family: cnf.Totalizer) -> set[tuple[int, ...]]:
    """The ternaries, sorted, of the family's nodes that have an internal child."""
    return {
        tuple(sorted(clause))
        for not_a, not_b, out in family.nodes()
        if out and len(not_a) + len(not_b) > 2
        for i, x in enumerate(not_a)
        for clause in ([x, y, o] for y, o in zip(not_b, out[i + 1 :]))
    }


def test_the_solver_reads_a_totalizer_as_its_clauses(monkeypatch):
    # the solver reads the bound from the family; its answer must be the
    # one the clauses give, with repeated and complementary inputs
    rng = random.Random(37)
    for trial in range(60):
        clauses, n = random_formula(rng, max_vars=10, max_clauses=30)
        # repeated and complementary inputs give tautologies and duplicates
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(3, 9))]
        f = cnf.Formula(n)
        f.add_hard_clauses(clauses)
        k = rng.randint(2, len(lits) - 1)
        cnf.at_most_k(f, lits, k)
        with monkeypatch.context() as m:
            m.setattr(cnf.Totalizer, "clauses", _unbuilt_totalizer)
            result = _run(f.hard, f.var_count, seed=trial)
        # satisfiable iff some assignment of 1..n meets the clauses and the bound
        assert result[0] == (SAT if _bounded_sat(clauses, n, lits, k) else UNSAT)


def test_random_bounds_solve_as_their_expanded_clauses():
    # the ternaries of a node with an internal child are propagated in
    # place; initial activities, status and models must be those of the
    # expanded clauses, also when learned-clause deletion runs with ternary
    # reasons on the trail
    rng = random.Random(43)
    statuses = Counter()
    for trial in range(160):
        clauses, n = random_formula(rng, max_vars=10, max_clauses=24)
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(5, 14))]
        k = rng.randint(2, len(lits) - 1)
        f = cnf.Formula(n)
        f.add_hard_clauses(clauses)
        cnf.at_most_k(f, lits, k)
        family = f.hard.parts[-1]
        flat = _expanded(f.hard)
        max_learnts = 5 if trial % 3 == 0 else None
        solver = CdclSolver(f.hard, f.var_count, seed=trial, max_learnts=max_learnts)
        kept = {tuple(sorted(c)) for c in solver.clauses[: solver.n_problem]}
        assert not kept & _in_place_ternaries(family)
        # occurrences counted from the node sizes: the clauses' activities
        assert solver.act == CdclSolver(flat, f.var_count, seed=trial).act
        res = solver.solve(60)
        assert res.status == _run(flat, f.var_count, seed=trial)[0]
        assert res.status == (SAT if _bounded_sat(clauses, n, lits, k) else UNSAT)
        if res.status == SAT:
            assert all(cnf.clause_satisfied(c, res.model) for c in flat)
        statuses[res.status, max_learnts] += 1
    assert len(statuses) == 4  # SAT and UNSAT, with and without deletion


def test_every_ternary_reason_is_a_clause_of_its_family():
    rng = random.Random(47)
    reasons = 0
    for trial in range(30):
        n = rng.randint(12, 40)
        clauses = [
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(rng.randint(n, 3 * n))
        ]
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(n // 2, n))]
        f = cnf.Formula(n)
        f.add_hard_clauses(clauses)
        cnf.at_most_k(f, lits, rng.randint(2, len(lits) // 2))
        family = {tuple(sorted(c)) for c in f.hard.parts[-1].clauses()}
        solver = CdclSolver(f.hard, f.var_count, seed=trial, max_learnts=10)
        solver.solve(60)
        for lit in solver.trail:
            why = solver.reason[abs(lit)]
            if type(why) is tuple:
                reasons += 1
                assert why[0] == lit and tuple(sorted(why)) in family
                assert [solver.val[x] for x in why] == [1, 0, 0]
    assert reasons


def test_propagation_leaves_no_clause_of_the_bound_unit():
    # each ternary propagates on each of its three literals going false:
    # after every propagation without a conflict, no clause of the family
    # is false or has one free literal and the others false
    rng = random.Random(53)
    checked = 0
    for trial in range(40):
        n = rng.randint(10, 30)
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(6, 2 * n))]
        f = cnf.Formula(n)
        cnf.at_most_k(f, lits, rng.randint(2, len(lits) // 2))
        family = f.hard.parts[-1].clauses()
        solver = CdclSolver(f.hard, f.var_count, seed=trial)
        val = solver.val
        for lit in solver._units:
            if val[lit] == -1:
                solver._enqueue(lit, -1)
        free = list(range(1, f.var_count + 1))
        rng.shuffle(free)
        while solver._propagate() == -1:
            for clause in family:
                values = sorted(val[x] for x in clause)
                assert values[-1] == 1 or values[1] == -1, clause  # true or two free
            checked += 1
            free = [v for v in free if val[v] == -1]
            if not free:
                break
            solver.trail_lim.append(len(solver.trail))
            solver._enqueue(rng.choice((1, -1)) * free.pop(), -1)
    assert checked > 200


def test_a_solver_over_a_large_bound_holds_no_ternary():
    # the (500, 40, 3) MaxSAT bound alone: as 63,786 clauses the solver
    # held 10.9 MB; in place, its store keeps only the 244 ternaries of
    # leaf pairs, and construction leaves no cycle for the collector
    f = cnf.Formula(500)
    cnf.at_most_k(f, [v if v % 2 else -v for v in range(1, 501)], 198)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        solver = CdclSolver(f.hard, f.var_count)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        cycles = gc.collect()
        if was_enabled:
            gc.enable()
    assert held < 4 << 20, held
    assert peak < 5 << 20, peak
    assert cycles == 0
    assert solver.n_problem == 244 and all(len(c) == 3 for c in solver.clauses)
    assert solver.n_problem + solver.n_binary + solver.n_tern + len(solver._units) == len(f.hard)


def test_the_solver_keeps_29_attributes_at_most():
    # CPython 3.11 shares an instance's dict keys up to 30; a solver with 30
    # attributes searched 2 % slower, every attribute read losing its fast path
    f = cnf.Formula(6)
    cnf.at_most_k(f, range(1, 7), 2)
    assert len(vars(CdclSolver(f.hard, f.var_count))) <= 29


def test_the_solver_looks_at_the_deadline_while_it_reads_a_totalizer(monkeypatch):
    f = cnf.Formula(500)
    cnf.at_most_k(f, [v if v % 2 else -v for v in range(1, 501)], 198)
    ticks = []

    def clock():
        ticks.append(1)
        return len(ticks)

    monkeypatch.setattr(cdcl, "time", SimpleNamespace(monotonic=clock))
    solver = CdclSolver(f.hard, f.var_count, deadline=3.5)
    assert solver.expired and len(ticks) == 4  # the fourth look ends the read
    # a whole read looks once per _DEADLINE_CHUNK clauses' worth of nodes,
    # though a node may hold more (14,549 in the largest here)
    ticks.clear()
    solver = CdclSolver(f.hard, f.var_count, deadline=len(f.hard))
    chunks = -(-len(f.hard) // cdcl._DEADLINE_CHUNK)
    assert not solver.expired and chunks // 2 <= len(ticks) <= chunks


def test_a_certificate_never_builds_its_bound_as_lists(monkeypatch):
    monkeypatch.setattr(cnf.Totalizer, "clauses", _unbuilt_totalizer)
    bounds = []
    solver_cls = cdcl.CdclSolver

    def recording_solver(clauses, *args, **kwargs):
        bounds.extend(p for p in clauses.parts if isinstance(p, cnf.Totalizer))
        return solver_cls(clauses, *args, **kwargs)

    monkeypatch.setattr(cdcl, "CdclSolver", recording_solver)
    ds = random_dataset(random.Random(11), k=8, m=40)
    model = learn(ds, LearnConfig(depth=3, mode="maxsat", budget=60))
    assert model.optimal and bounds
    assert model.solver_stats["cost"] == best_split_error(ds, 3)
    assert [b.k for b in bounds] == [model.solver_stats["cost"] - 1]


def test_heap_holds_one_current_entry_per_free_variable():
    f = _pigeonhole(9)
    solver = CdclSolver(f.hard, f.var_count, seed=0)
    assert solver.solve(0.05).status == TIMEOUT
    assert solver.stats.conflicts > 0
    _assert_one_current_heap_entry(solver)

    f = _pigeonhole(7)
    solver = CdclSolver(f.hard, f.var_count, seed=0)
    rescale, rescales = solver._rescale_vars, []

    def counting_rescale():
        rescales.append(1)
        rescale()

    solver._rescale_vars = counting_rescale
    assert solver.solve(60).status == UNSAT
    assert rescales
    _assert_one_current_heap_entry(solver)


def test_heap_size_follows_the_variable_count_not_the_search():
    # 5,287 conflicts over 56 variables: without compaction the stale
    # entries pile up until the activity rescale
    f = _pigeonhole(7)
    solver = CdclSolver(f.hard, f.var_count, seed=0)
    cancel, sizes = solver._cancel_until, []

    def recording_cancel(lvl):
        cancel(lvl)
        sizes.append(len(solver.heap))

    solver._cancel_until = recording_cancel
    assert solver.solve(60).status == UNSAT
    assert solver.stats.conflicts == 5287
    assert max(sizes) <= 2 * solver.n + 64
    _assert_one_current_heap_entry(solver)


def test_construction_after_the_deadline_times_out():
    f = _pigeonhole(9)
    solver = CdclSolver(f.hard, f.var_count, deadline=time.monotonic() - 1.0)
    res = solver.solve(60)
    assert res.status == TIMEOUT
    assert res.model is None
    assert res.stats.conflicts == 0


def test_budget_exhaustion_times_out():
    res = sat_solve(_pigeonhole(9), budget=0.02)
    assert res.status == TIMEOUT
    assert res.model is None


def test_pigeonhole_unsat():
    res = sat_solve(_pigeonhole(5), budget=60)
    assert res.status == UNSAT


def test_learned_clause_deletion_triggers():
    f = _pigeonhole(6)
    solver = CdclSolver(f.hard, f.var_count, seed=0, max_learnts=20)
    res = solver.solve(60)
    assert res.status == UNSAT
    assert res.stats.learned_deleted > 0


def test_maxsat_all_hard_satisfiable():
    res = maxsat_solve(_formula([[1, 2], [-1, 2]], 2), budget=5)
    assert res.status == OPTIMUM
    assert res.cost == 0
    assert res.optimal


def test_maxsat_one_of_two_units_must_fail():
    f = cnf.Formula(1)
    f.add_soft([1])
    f.add_soft([-1])
    res = maxsat_solve(f, budget=5)
    assert res.status == OPTIMUM
    assert res.cost == 1


def test_maxsat_cost_matches_model_recount():
    rng = random.Random(9)
    for _ in range(25):
        clauses, n = random_formula(rng, max_vars=10, max_clauses=25)
        f = cnf.Formula(n)
        hard, soft = clauses[: len(clauses) // 2], clauses[len(clauses) // 2 :]
        for c in hard:
            f.add_hard(c)
        for c in soft:
            f.add_soft(c)
        if enumerate_sat(hard, n) is None:
            with pytest.raises(SolverError):
                maxsat_solve(f, budget=30)
            continue
        res = maxsat_solve(f, budget=30)
        assert res.status == OPTIMUM
        assert cnf.falsified_soft_weight(f, res.model) == res.cost
        # exhaustive optimum over all assignments
        best = min(
            cnf.falsified_soft_weight(f, {v: (a >> (v - 1)) & 1 for v in range(1, n + 1)})
            for a in range(1 << n)
            if all(
                cnf.clause_satisfied(c, {v: (a >> (v - 1)) & 1 for v in range(1, n + 1)})
                for c in hard
            )
        )
        assert res.cost == best


def test_an_optimal_upper_bound_needs_one_call(monkeypatch):
    # nothing beats the optimum, so the one call is the UNSAT proof, and
    # with no model to repair it builds no soft-unit repairer
    soft_unit_repair, repairers = cnf.soft_unit_repair, []

    def counting_repair(formula):
        repairers.append(1)
        return soft_unit_repair(formula)

    monkeypatch.setattr(cnf, "soft_unit_repair", counting_repair)
    rng = random.Random(13)
    for _ in range(3):
        formula, _ctx = encode_maxsat(random_dataset(rng, k=4, m=12), 2)
        plain = maxsat_solve(formula, budget=60)
        assert plain.status == OPTIMUM and plain.cost > 0
        assert len(repairers) == 1  # one repairer serves every model
        bounded = maxsat_solve(formula, budget=60, upper=plain.cost)
        assert bounded.status == OPTIMUM and bounded.optimal
        assert bounded.model is None and bounded.cost is None
        assert bounded.iterations == 1
        assert len(repairers) == 1
        repairers.clear()


def test_an_upper_bound_above_the_optimum_descends_to_it():
    rng = random.Random(17)
    for _ in range(3):
        formula, ctx = encode_maxsat(random_dataset(rng, k=5, m=16), 3)
        opt = maxsat_solve(formula, budget=60).cost
        sorted_tail = formula.copy()
        sorted_tail.add_hard_clauses(ordered_tail(ctx))
        res = maxsat_solve(sorted_tail, budget=60, upper=opt + 1)
        assert res.status == OPTIMUM and res.cost == opt
        assert res.iterations == 2  # a model of cost opt, then the proof
        assert cnf.verify_model(formula, res.model)
        assert cnf.falsified_soft_weight(formula, res.model) == opt
        tail = decode(res.model, ctx)[0][1:]
        assert tail == tuple(sorted(tail))  # every call gets the tail order


def test_a_budget_stop_under_an_upper_bound_has_no_model():
    # every assignment falsifies a clause of the unsatisfiable pigeonhole
    # formula, so beating cost 1 means refuting it: the budget ends first
    f = _pigeonhole(9)
    relaxed = cnf.Formula(f.var_count)
    for clause in f.hard:
        relaxed.add_soft(clause)
    res = maxsat_solve(relaxed, budget=0.05, upper=1)
    assert res.status == TIMEOUT_NO_SOLUTION
    assert res.model is None and res.cost is None
    assert not res.optimal


def test_unsatisfiable_hard_clauses_raise_under_a_bound_that_excludes_nothing():
    f = _formula([[1], [-1]], 1)
    f.add_soft([1])
    for upper in (None, 2):  # with one soft clause, 2 excludes nothing either
        with pytest.raises(SolverError):
            maxsat_solve(f, budget=5, upper=upper)


def test_no_solver_is_built_after_the_deadline(monkeypatch):
    formula, _ = encode_maxsat(random_dataset(random.Random(5), k=5, m=20), 2)
    build, solver_cls = cnf.at_most_k, cdcl.CdclSolver
    built = []

    def slow_at_most_k(*args):
        build(*args)
        time.sleep(0.5)

    def counting_solver(*args, **kwargs):
        built.append(1)
        return solver_cls(*args, **kwargs)

    monkeypatch.setattr(cnf, "at_most_k", slow_at_most_k)
    monkeypatch.setattr(cdcl, "CdclSolver", counting_solver)
    res = maxsat_solve(formula, budget=0.3)
    assert res.status == FEASIBLE and res.cost > 0
    assert len(built) == 1  # the first call's solver only
    assert res.iterations == 1


def test_maxsat_rejects_general_weights():
    f = cnf.Formula(1)
    f.add_soft([1], weight=2)
    with pytest.raises(ValueError):
        maxsat_solve(f)


def test_maxsat_timeout_before_any_model():
    f = _pigeonhole(9)
    f.add_soft([1])
    res = maxsat_solve(f, budget=0.02)
    assert res.status == TIMEOUT_NO_SOLUTION
    assert res.model is None


def test_maxsat_feasible_when_budget_dies_mid_descent():
    # soft-only instance with a slow hard core: the first model arrives,
    # the descent then runs out of time
    f = _pigeonhole(8)
    relaxed = cnf.Formula(f.var_count)
    for clause in f.hard:
        relaxed.add_soft(clause)
    res = maxsat_solve(relaxed, budget=0.3)
    if res.status == FEASIBLE:
        assert res.model is not None
        assert res.cost >= 1
        assert not res.optimal
    else:  # a fast machine may finish; then the answer must be optimal
        assert res.status == OPTIMUM


# --- external bridge -------------------------------------------------------


def test_external_differential_against_embedded(tmp_path, dimacs_shim):
    cmd = f"{sys.executable} {dimacs_shim} {{file}}"
    rng = random.Random(21)
    for i in range(6):
        clauses, n = random_formula(rng, max_vars=12, max_clauses=40)
        f = _formula(clauses, n)
        mine = sat_solve(f, budget=30)
        theirs = external_solve(f, cmd, tmp_path / f"run{i}", budget=60)
        assert theirs.status == mine.status
        if theirs.status == SAT:
            assert cnf.verify_model(f, theirs.model)


def test_external_requires_file_placeholder(tmp_path):
    with pytest.raises(ValueError):
        external_solve(_formula([[1]], 1), "solver", tmp_path)


def test_external_garbage_output_is_integration_error(tmp_path):
    script = tmp_path / "garbage.py"
    script.write_text("print('hello world')\n")
    with pytest.raises(IntegrationError):
        external_solve(
            _formula([[1]], 1), f"{sys.executable} {script} {{file}}", tmp_path
        )


def test_external_failure_quotes_solver_stderr(tmp_path):
    script = tmp_path / "crash.py"
    script.write_text(
        "import sys\nsys.stderr.write('first line\\nsolver crashed: bad input\\n')\n"
        "sys.exit(1)\n"
    )
    with pytest.raises(IntegrationError, match="solver crashed: bad input"):
        external_solve(
            _formula([[1]], 1), f"{sys.executable} {script} {{file}}", tmp_path
        )


def test_external_lying_model_is_rejected(tmp_path):
    script = tmp_path / "liar.py"
    script.write_text("print('s SATISFIABLE')\nprint('v -1 0')\n")
    with pytest.raises(IntegrationError):
        external_solve(
            _formula([[1]], 1), f"{sys.executable} {script} {{file}}", tmp_path
        )


def test_external_wcnf_optimum_with_cost_line(tmp_path):
    # three unit soft clauses forced false by hard clauses: cost 3
    f = cnf.Formula(3)
    for v in (1, 2, 3):
        f.add_hard([-v])
        f.add_soft([v])
    script = tmp_path / "maxsat.py"
    script.write_text(
        "print('o 5')\nprint('o 3')\nprint('s OPTIMUM FOUND')\nprint('v -1 -2 -3 0')\n"
    )
    res = external_solve(f, f"{sys.executable} {script} {{file}}", tmp_path)
    assert res.status == OPTIMUM
    assert res.cost == 3
    assert res.optimal


def test_external_wcnf_cost_mismatch_is_rejected(tmp_path):
    f = cnf.Formula(1)
    f.add_hard([-1])
    f.add_soft([1])
    script = tmp_path / "bad_cost.py"
    script.write_text("print('o 0')\nprint('s OPTIMUM FOUND')\nprint('v -1 0')\n")
    with pytest.raises(IntegrationError):
        external_solve(f, f"{sys.executable} {script} {{file}}", tmp_path)


def test_external_feasible_model_reports_real_error_count(tmp_path, demo8):
    formula, _ = encode_maxsat(demo8, 2)
    model = maxsat_solve(formula, budget=30).model
    error = -formula.soft[0][0][0]
    model[error] = 1  # an unneeded error literal: the example is classified right
    lits = " ".join(str(v if model[v] else -v) for v in sorted(model))
    script = tmp_path / "sloppy.py"
    script.write_text(f"print('s SATISFIABLE')\nprint('v {lits} 0')\n")
    res = external_solve(formula, f"{sys.executable} {script} {{file}}", tmp_path)
    assert res.status == FEASIBLE
    assert res.cost == 0
    assert res.model[error] == 0


def test_external_exit_code_hints(tmp_path):
    unsat = tmp_path / "exit20.py"
    unsat.write_text("import sys\nsys.exit(20)\n")
    res = external_solve(
        _formula([[1], [-1]], 1), f"{sys.executable} {unsat} {{file}}", tmp_path
    )
    assert res.status == UNSAT

    sat_script = tmp_path / "exit10.py"
    sat_script.write_text("import sys\nprint('v 1 0')\nsys.exit(10)\n")
    res = external_solve(
        _formula([[1]], 1), f"{sys.executable} {sat_script} {{file}}", tmp_path
    )
    assert res.status == SAT
    assert res.model[1] == 1
