import hashlib
import io
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddlearn import cnf, encode
from oracles import (
    dimacs_cnf,
    dimacs_wcnf,
    projected_models,
    random_dataset,
    random_formula,
    unit_propagate,
)


def test_fresh_var_counts_up():
    f = cnf.Formula()
    assert f.fresh_var() == 1
    assert f.fresh_var() == 2
    assert f.fresh_var() == 3
    assert f.fresh_var() == 4


def test_fresh_var_from_existing_count():
    f = cnf.Formula(10)
    assert f.fresh_var() == 11


def test_add_hard_rejects_empty_and_out_of_range():
    f = cnf.Formula(2)
    with pytest.raises(cnf.FormulaError):
        f.add_hard([])
    with pytest.raises(cnf.FormulaError):
        f.add_hard([3])
    with pytest.raises(cnf.FormulaError):
        f.add_hard([0])
    with pytest.raises(cnf.FormulaError):
        f.add_soft([1], weight=0)


@pytest.mark.parametrize("bad", [3, -3, 0])
def test_add_hard_clauses_names_a_bad_literal_and_adds_nothing(bad):
    f = cnf.Formula(2)
    f.add_hard([1])
    with pytest.raises(cnf.FormulaError, match=f"literal {bad} outside"):
        f.add_hard_clauses([[1, -2], [2, bad], [-1]])
    with pytest.raises(cnf.FormulaError, match="empty clause"):
        f.add_hard_clauses([[1, -2], []])
    assert list(f.hard) == [[1]]
    f.add_hard_clauses([[1, -2], [2]])
    assert list(f.hard) == [[1], [1, -2], [2]]


def _all_models(formula, onto):
    return projected_models(formula.hard, onto)


def test_at_most_one_excludes_pairs():
    f = cnf.Formula(2)
    cnf.at_most_k(f, [1, 2], 1)
    models = _all_models(f, [1, 2])
    assert (1, 1) not in models
    assert {(0, 0), (0, 1), (1, 0)} <= models


def test_at_most_k_vacuous_bound_adds_nothing():
    f = cnf.Formula(3)
    cnf.at_most_k(f, [1, 2, 3], 3)
    assert list(f.hard) == []
    assert f.var_count == 3


def test_at_most_k_zero_negates_everything():
    f = cnf.Formula(3)
    cnf.at_most_k(f, [1, 2, 3], 0)
    assert sorted(map(tuple, f.hard)) == [(-3,), (-2,), (-1,)]


def test_at_most_two_of_four_exact_projection():
    f = cnf.Formula(4)
    cnf.at_most_k(f, [1, 2, 3, 4], 2)
    # a totalizer: two leaf pairs with two outputs each, and a root that
    # keeps no outputs, only the clauses that forbid three true
    assert f.var_count == 4 + 2 * 2
    models = _all_models(f, [1, 2, 3, 4])
    expected = {
        bits
        for bits in [tuple((a >> i) & 1 for i in range(4)) for a in range(16)]
        if sum(bits) <= 2
    }
    assert models == expected


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_at_most_k_projection_property(data):
    for n in range(1, 9):  # trees over 3, 5, 6 and 7 literals split unevenly
        lits = [data.draw(st.sampled_from([v, -v])) for v in range(1, n + 1)]
        for k in range(n + 1):
            f = cnf.Formula(n)
            cnf.at_most_k(f, lits, k)
            models = _all_models(f, list(range(1, n + 1)))
            expected = set()
            for a in range(1 << n):
                bits = tuple((a >> i) & 1 for i in range(n))
                true_lits = sum(
                    1 for lit, bit in zip(lits, bits) if (lit > 0) == bool(bit)
                )
                if true_lits <= k:
                    expected.add(bits)
            assert models == expected, (lits, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_at_most_k_propagates_every_other_literal_false(n):
    # the solver sees the bound only through propagation: once k literals
    # are true, the others must follow false with no decision
    lits = [v if v % 3 else -v for v in range(1, n + 1)]
    for k in range(1, n):
        f = cnf.Formula(n)
        cnf.at_most_k(f, lits, k)
        for chosen in itertools.combinations(lits, k):
            implied = unit_propagate(f.hard, chosen)
            assert implied is not None, (k, chosen)
            assert {-x for x in lits if x not in chosen} <= implied, (k, chosen)


def test_at_most_k_memory_ceiling_at_a_large_bound():
    # the MaxSAT bound of a (500, 40, 3) learn: one relaxation literal per
    # example, at most 198 of them false; a sequential counter takes
    # 99,000 variables and 198,301 clauses here
    f = cnf.Formula(500)
    lits = [v if v % 2 else -v for v in range(1, 501)]
    cnf.at_most_k(f, lits, 198)
    assert (f.var_count - 500, len(f.hard)) == (3886, 63786)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_at_most_k_with_a_bad_literal_adds_nothing(k):
    # each bound goes in as one screened batch, so a literal outside the
    # formula fails it before any of its clauses is appended
    f = cnf.Formula(2)
    f.add_hard([1, 2])
    with pytest.raises(cnf.FormulaError, match="literal -99 outside variable range"):
        cnf.at_most_k(f, [1, 2, 99], k)
    assert list(f.hard) == [[1, 2]]


def test_at_most_one_screens_its_literals_before_reserving_registers():
    # a literal past var_count must fail as itself, not pass as the number
    # of a register reserved for the ladder, and must leave no register
    f = cnf.Formula(5)
    with pytest.raises(cnf.FormulaError, match="literal -7 outside variable range 1..5"):
        cnf.at_most_k(f, [1, 7], 1)
    assert (f.var_count, len(f.hard), list(f.hard)) == (5, 0, [])
    with pytest.raises(cnf.FormulaError, match="literal -99 outside"):
        cnf.at_most_k(f, [1, 99], 1)
    assert (f.var_count, len(f.hard), list(f.hard)) == (5, 0, [])


# sha256 of the DIMACS text of ``at_most_k`` formulas, taken while the
# totalizer was still built as clause lists; the solver's trajectory
# follows this clause order, so the family must keep it byte for byte
_BOUND_PINS = {
    (4, 2): "650e8d8cd1309e3d9d283ef23241cbbbc332d168cd00f58492886ada7bbbc396",
    (9, 4): "9827ecda291b711cc0f0c31f38f4ed5c0e5dc4bf14e1f531faa0161a12102349",
    (500, 198): "fcf60ebfad45266f9dd2e4959ffb743edcca7d84504e27cb091f79c3be962182",
}
# the same over every bound 2 <= k < n for n in 3..23, literals 2..n+1
_BOUND_GRID_PIN = "145c8b24f46fdbcc3aa4f11b37bf67ebd2acff60e113f386814c5e1b6557bd3a"


def _bound_lits(n):
    return {4: [1, 2, 3, 4], 9: [v if v % 3 else -v for v in range(1, 10)]}.get(
        n, [v if v % 2 else -v for v in range(1, n + 1)]
    )


@pytest.mark.parametrize("n, k", list(_BOUND_PINS))
def test_the_totalizer_text_is_pinned(n, k):
    f = cnf.Formula(n)
    cnf.at_most_k(f, _bound_lits(n), k)
    assert [type(part) for part in f.hard.parts] == [list, cnf.Totalizer]
    text = dimacs_cnf(f)
    assert hashlib.sha256(text.encode()).hexdigest() == _BOUND_PINS[n, k]


def test_the_totalizer_counts_itself_as_its_clauses():
    grid = hashlib.sha256()
    for n in range(3, 24):
        for k in range(2, n):
            f = cnf.Formula(n + 1)
            cnf.at_most_k(f, [v if v % 4 else -v for v in range(2, n + 2)], k)
            family = f.hard.parts[-1]
            clauses = list(family)
            assert len(family) == len(f.hard) == len(clauses), (n, k)
            assert family.literal_count() == cnf.literal_count(f) == sum(map(len, clauses))
            assert f.var_count == n + 1 + family.var_count
            assert max(abs(x) for c in clauses for x in c) == f.var_count
            grid.update(dimacs_cnf(f).encode())
    assert grid.hexdigest() == _BOUND_GRID_PIN


def test_a_large_bound_builds_no_clause():
    # the (500, 40, 3) MaxSAT bound: the formula holds the family, whose
    # clauses only a reader builds; as lists they took 5.3 MB
    f = cnf.Formula(500)
    lits = [v if v % 2 else -v for v in range(1, 501)]
    tracemalloc.start()
    try:
        cnf.at_most_k(f, lits, 198)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [part for part in f.hard.parts if type(part) is list and part]
    assert peak < 1 << 20, peak


def test_exactly_one_single_literal():
    f = cnf.Formula(1)
    cnf.exactly_one(f, [1])
    assert list(f.hard) == [[1]]


def test_exactly_one_two_literals_models():
    f = cnf.Formula(2)
    cnf.exactly_one(f, [1, 2])
    assert _all_models(f, [1, 2]) == {(1, 0), (0, 1)}


def test_exactly_one_empty_is_an_error():
    with pytest.raises(cnf.FormulaError):
        cnf.exactly_one(cnf.Formula(), [])


def test_literal_count():
    f = cnf.Formula(3)
    f.add_hard([1, -2])
    f.add_hard([3])
    assert cnf.literal_count(f) == 3
    assert cnf.literal_count(cnf.Formula()) == 0


def test_literal_count_additive_over_concatenation():
    a = cnf.Formula(4)
    a.add_hard([1, 2])
    a.add_soft([3], 1)
    b = cnf.Formula(4)
    b.add_hard([-4, 2, 1])
    merged = a.copy()
    for clause in b.hard:
        merged.add_hard(clause)
    for clause, w in b.soft:
        merged.add_soft(clause, w)
    assert cnf.literal_count(merged) == cnf.literal_count(a) + cnf.literal_count(b)


def test_emit_dimacs_cnf_exact():
    f = cnf.Formula(2)
    f.add_hard([1, -2])
    assert dimacs_cnf(f) == "p cnf 2 1\n1 -2 0\n"


def test_emit_dimacs_cnf_no_clauses():
    assert dimacs_cnf(cnf.Formula(5)) == "p cnf 5 0\n"


def test_emit_dimacs_cnf_rejects_soft():
    f = cnf.Formula(1)
    f.add_soft([1])
    with pytest.raises(cnf.FormulaError):
        dimacs_cnf(f)


def test_emit_dimacs_wcnf_top_weight():
    f = cnf.Formula(2)
    f.add_hard([1, 2])
    f.add_soft([1])
    f.add_soft([-2])
    text = dimacs_wcnf(f)
    lines = text.splitlines()
    assert lines[0] == "p wcnf 2 3 3"
    assert lines[1].startswith("3 ")
    assert lines[2] == "1 1 0"
    assert lines[3] == "1 -2 0"


def test_emit_dimacs_wcnf_all_hard():
    f = cnf.Formula(2)
    f.add_hard([1])
    f.add_hard([2])
    lines = dimacs_wcnf(f).splitlines()
    top = lines[0].split()[-1]
    assert top == "1"
    assert all(line.startswith(f"{top} ") for line in lines[1:])


def test_emit_dimacs_wcnf_empty():
    assert dimacs_wcnf(cnf.Formula(3)) == "p wcnf 3 0 1\n"


def _line_by_line_cnf(formula: cnf.Formula) -> str:
    out = io.StringIO()
    out.write(f"p cnf {formula.var_count} {len(formula.hard)}\n")
    for clause in formula.hard:
        out.write(" ".join(map(str, clause)))
        out.write(" 0\n")
    return out.getvalue()


def _line_by_line_wcnf(formula: cnf.Formula) -> str:
    top = 1 + sum(w for _, w in formula.soft)
    n_clauses = len(formula.hard) + len(formula.soft)
    out = io.StringIO()
    out.write(f"p wcnf {formula.var_count} {n_clauses} {top}\n")
    for clause in formula.hard:
        out.write(f"{top} " + " ".join(map(str, clause)) + " 0\n")
    for clause, weight in formula.soft:
        out.write(f"{weight} " + " ".join(map(str, clause)) + " 0\n")
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 40), st.integers(1, 5))
def test_emission_matches_a_line_by_line_writer(seed, n_soft, chunk):
    # the reference writers are the emitters as they were before chunking
    rng = random.Random(seed)
    clauses, n = random_formula(rng)
    hard = cnf.Formula(n)
    for clause in clauses:
        hard.add_hard(clause)
    weighted = hard.copy()
    for clause, _ in zip(clauses, range(n_soft)):
        weighted.add_soft(clause, rng.randint(1, 9))
    expected = (_line_by_line_cnf(hard), _line_by_line_wcnf(weighted))
    default = cnf._EMIT_CHUNK
    try:
        for size in (chunk, default):  # many chunks, then one
            cnf._EMIT_CHUNK = size
            assert (dimacs_cnf(hard), dimacs_wcnf(weighted)) == expected
    finally:
        cnf._EMIT_CHUNK = default


def _encoded(encoder, tail=False):
    ds = random_dataset(random.Random(2), k=5, m=12, consistent=True)
    formula, ctx = encoder(ds, 3)
    if tail:
        formula.add_hard_clauses(encode.ordered_tail(ctx))
    return formula


@pytest.mark.parametrize(
    "formula",
    [
        _encoded(encode.encode_bdd1),
        _encoded(encode.encode_bdd2),
        _encoded(encode.encode_maxsat),
        _encoded(encode.encode_maxsat, tail=True),
    ],
    ids=["bdd1", "bdd2", "maxsat", "maxsat-tail"],
)
def test_emission_of_encoded_formulas_matches_a_line_by_line_writer(formula):
    # the longest run of equal-length hard clauses ends at clause `end`, where
    # another run starts: a chunk of `end` clauses ends between two runs, and
    # one of `end - 1` inside a run
    runs = [len(list(g)) for _, g in itertools.groupby(map(len, formula.hard))]
    longest = runs.index(max(runs))
    end = sum(runs[: longest + 1])
    assert runs[longest] > 1 and longest + 1 < len(runs)
    default = cnf._EMIT_CHUNK
    try:
        for size in (end, end - 1, 1, 7, default):
            cnf._EMIT_CHUNK = size
            assert dimacs_wcnf(formula) == _line_by_line_wcnf(formula)
            if not formula.soft:
                assert dimacs_cnf(formula) == _line_by_line_cnf(formula)
    finally:
        cnf._EMIT_CHUNK = default


# sha256 of the emitted text, taken before the feature-value links became
# a clause family; a change of emitter or encoder must keep them
_TEXT_PINS = {
    (1, 45, 200, 2): {
        "bdd1": "1ad923574a76dba443d6858083b3e684a2617727c3a5aeec3d51cc47da9c8c88",
        "bdd2": "01ddb4be9a2a9363c3522a60cc24aa95f726c0abe0f412bf2b66a823611aa991",
        "maxsat": "e6edea4a2de5b1dd5f82a6045dd769bdcfc32df13ddfe22e0853f10bdaf6268f",
        "maxsat-tail": "e6edea4a2de5b1dd5f82a6045dd769bdcfc32df13ddfe22e0853f10bdaf6268f",
    },
    (3, 12, 60, 3): {
        "bdd1": "4d219fc4d5c6c48b3ec43ca41654d4e29f40140aaede99fe65e0416d3b0f9abc",
        "bdd2": "e40141163907cbda464e3a6ec09dc1cdd0eac81c77937d30b86f5d4bf4d0fcde",
        "maxsat": "0c5e9a848a9c8ecfe6db4f90a62b6d7a8e56506f5295186fbddf23d2e81c4f93",
        "maxsat-tail": "c41fbd9fca7a454e01fdd6e3d4a4b8905863757e7e1c2d0d7c57e43c37f998ff",
    },
}


@pytest.mark.parametrize("shape", list(_TEXT_PINS), ids=lambda s: "seed%d-k%d-m%d-H%d" % s)
def test_emitted_text_of_each_encoding_is_pinned(shape):
    seed, k, m, depth = shape
    ds = random_dataset(random.Random(seed), k=k, m=m, consistent=True)
    tail, ctx = encode.encode_maxsat(ds, depth)
    tail.add_hard_clauses(encode.ordered_tail(ctx))
    texts = {
        "bdd1": dimacs_cnf(encode.encode_bdd1(ds, depth)[0]),
        "bdd2": dimacs_cnf(encode.encode_bdd2(ds, depth)[0]),
        "maxsat": dimacs_wcnf(encode.encode_maxsat(ds, depth)[0]),
        "maxsat-tail": dimacs_wcnf(tail),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == _TEXT_PINS[shape]


def _reference_links(ctx, ds):
    # the feature-value links as the encoder built them, one list each
    return [
        [-ctx.a[r][i], ctx.d[i][q] if row[r] else -ctx.d[i][q]]
        for q, row in enumerate(ds.features)
        for i in range(ctx.depth)
        for r in range(ctx.n_features)
    ]


@pytest.mark.parametrize("encoder", [encode.encode_bdd2, encode.encode_maxsat])
@pytest.mark.parametrize("k, m, depth", [(45, 200, 2), (6, 30, 3), (1, 5, 1)])
def test_link_family_expands_to_the_reference_links(encoder, k, m, depth):
    ds = random_dataset(random.Random(k + m), k=k, m=m, consistent=True)
    formula, ctx = encoder(ds, depth)
    head, links, tail = formula.hard.parts
    assert isinstance(links, cnf.ValueLinks)
    reference = _reference_links(ctx, ds)
    assert list(links) == reference
    assert len(formula.hard) == len(head) + len(reference) + len(tail)
    assert list(formula.hard) == head + reference + tail
    assert formula.hard.parts == [head, links, tail]  # iterating keeps the parts


def test_counting_and_emitting_leave_the_link_family_unexpanded(monkeypatch):
    ds = random_dataset(random.Random(1), k=45, m=200, consistent=True)

    def no_lists(self):
        raise AssertionError("the link family was expanded")

    monkeypatch.setattr(cnf.ValueLinks, "__iter__", no_lists)
    for variant, encoder, emit in (
        (encode.MAXSAT, encode.encode_maxsat, cnf.emit_dimacs_wcnf),
        (encode.BDD2, encode.encode_bdd2, cnf.emit_dimacs_cnf),
    ):
        formula, _ = encoder(ds, 2)
        assert len(formula.hard) == 19257
        assert cnf.literal_count(formula) == encode.literal_count(ds, 2, variant)
        emit(formula, io.StringIO())
        repr(formula)
        assert any(isinstance(part, cnf.ValueLinks) for part in formula.hard.parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 9))
def test_rendered_link_family_matches_a_line_by_line_writer(seed, chunk):
    rng = random.Random(seed)
    k, depth, m = rng.randint(0, 5), rng.randint(0, 3), rng.randint(0, 6)
    sel = [[rng.randint(1, 40) for _ in range(depth)] for _ in range(k)]
    val = [[rng.randint(1, 40) for _ in range(m)] for _ in range(depth)]
    rows = [[rng.randint(0, 1) for _ in range(k)] for _ in range(m)]

    def build():
        f = cnf.Formula(40)
        f.add_hard([1, -2])
        f.add_value_links(cnf.ValueLinks(sel, val, rows))
        f.add_hard([-3])
        f.add_soft([4], 2)
        return f

    rendered = build()
    default = cnf._EMIT_CHUNK
    try:
        cnf._EMIT_CHUNK = chunk
        text = dimacs_wcnf(rendered)
    finally:
        cnf._EMIT_CHUNK = default
    assert isinstance(rendered.hard.parts[1], cnf.ValueLinks)
    assert cnf.literal_count(rendered) == sum(map(len, build().hard)) + 1
    assert text == _line_by_line_wcnf(build())


@pytest.mark.parametrize("where", ["sel", "val"])
def test_link_family_out_of_range_raises_the_checked_message_and_adds_nothing(where):
    ds = random_dataset(random.Random(4), k=3, m=4, consistent=True)
    formula, ctx = encode.encode_bdd2(ds, 2)
    n = formula.var_count
    sel = [list(row) for row in ctx.a]
    val = [list(row) for row in ctx.d]
    if where == "sel":
        sel[2][1] = n + 1
    else:
        val[1][3] = -(n + 2)
    links = cnf.ValueLinks(sel, val, ds.features)
    with pytest.raises(cnf.FormulaError) as expected:
        for clause in links:
            formula._checked(clause)
    before = (len(formula.hard), list(formula.hard))
    with pytest.raises(cnf.FormulaError) as raised:
        formula.add_value_links(links)
    assert str(raised.value) == str(expected.value)
    assert (len(formula.hard), list(formula.hard)) == before


def test_parse_model_signed_dialect():
    assert cnf.parse_model("s SATISFIABLE\nv 1 -2 0\n") == {1: 1, 2: 0}


def test_parse_model_unsat_raises():
    with pytest.raises(cnf.UnsatStatusError):
        cnf.parse_model("s UNSATISFIABLE\n")


def test_parse_model_bit_string_dialect():
    assert cnf.parse_model("s OPTIMUM FOUND\nv 10\n") == {1: 1, 2: 0}


def test_parse_model_signed_dialect_with_ids_of_0s_and_1s():
    # a solver that prints its true literals only: the lone final 0 marks
    # the signed dialect, though every id is written in 0s and 1s
    assert cnf.parse_solver_output("s SATISFIABLE\nv 1 10 0\n").model == {1: 1, 10: 1}


def test_parse_model_multiline_v():
    got = cnf.parse_model("c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
    assert got == {1: 1, 2: 0, 3: 1}


def test_parse_model_no_status():
    with pytest.raises(cnf.ModelParseError):
        cnf.parse_model("v 1 0\n")


def test_parse_solver_output_cost_line():
    parsed = cnf.parse_solver_output("o 7\no 3\ns OPTIMUM FOUND\nv 1 0\n")
    assert parsed.cost == 3
    assert parsed.status == "OPTIMUM"


def test_verify_model_and_soft_weight():
    f = cnf.Formula(2)
    f.add_hard([1, 2])
    f.add_soft([-1], 1)
    f.add_soft([2], 1)
    assert cnf.verify_model(f, {1: 1, 2: 0})
    assert not cnf.verify_model(f, {1: 0, 2: 0})
    assert cnf.falsified_soft_weight(f, {1: 1, 2: 0}) == 2
    assert cnf.falsified_soft_weight(f, {1: 0, 2: 1}) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_verify_model_matches_clause_evaluation(n, data):
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = data.draw(st.lists(st.lists(lit, min_size=1, max_size=4), max_size=8))
    # a partial assignment: a missing variable reads 0
    assignment = data.draw(st.dictionaries(st.integers(1, n), st.integers(0, 1)))
    f = cnf.Formula(n)
    for clause in clauses:
        f.add_hard(clause)
    expected = all(cnf.clause_satisfied(c, assignment) for c in clauses)
    assert cnf.verify_model(f, assignment) == expected
