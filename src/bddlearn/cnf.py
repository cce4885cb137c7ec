"""CNF/WCNF formulas, cardinality constraints, and DIMACS I/O.

:func:`at_most_k` bounds a count of literals: at a bound of one with a
sequential-counter ladder, which every at-most-one of the encodings
uses, and at a larger bound, the MaxSAT cost bound, with a totalizer.

Literals are signed DIMACS-style integers throughout the package: ``+v``
is the Boolean variable ``v`` and ``-v`` its negation, with ``v >= 1``.
A clause is a list of such literals.  A formula's hard clauses are a
:class:`Clauses` sequence, which may also hold two kinds of clause
family: the feature-value links, :class:`ValueLinks`, and the totalizer
of a cost bound, :class:`Totalizer`.  A family is counted and written
without its clauses being kept.  The solver takes the links into its
implication lists and reads the totalizer node by node, propagating its
ternaries in place, so it builds the clauses of neither.
"""

from __future__ import annotations

import io
import itertools
import operator
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, Mapping, TextIO


class FormulaError(ValueError):
    """Malformed clause or weight."""


class ModelParseError(ValueError):
    """Solver output that cannot be turned into an assignment."""


class UnsatStatusError(ModelParseError):
    """Solver output reports unsatisfiability instead of a model."""


class ValueLinks:
    """The two-literal clauses ``-sel[r][i] | ±val[i][q]``, one clause family.

    ``sel[r][i]`` places column ``r`` at position ``i``, ``val[i][q]`` is
    position ``i``'s value on row ``q``, and the ``val`` literal is
    positive where ``rows[q][r]`` is 1.  The clauses run over ``q``, then
    ``i``, then ``r``: ``len(rows) * len(val) * len(sel)`` of them.  The
    family holds its three tables only; :meth:`clauses` builds the lists
    and :meth:`write` renders the text without them.
    """

    __slots__ = ("sel", "val", "rows")

    def __init__(
        self,
        sel: Sequence[Sequence[int]],
        val: Sequence[Sequence[int]],
        rows: Sequence[Sequence[int]],
    ):
        self.sel, self.val, self.rows = sel, val, rows

    def __len__(self) -> int:
        return len(self.rows) * len(self.val) * len(self.sel)

    def literal_count(self) -> int:
        return 2 * len(self)

    def clauses(self) -> list[list[int]]:
        unplaced = [[-s[i] for s in self.sel] for i in range(len(self.val))]
        links: list[list[int]] = []
        for q, row in enumerate(self.rows):
            for not_here, val in zip(unplaced, self.val):
                signed = (-val[q], val[q])
                links += [[x, signed[bit]] for x, bit in zip(not_here, row)]
        return links

    def write(self, out: TextIO, prefix: str = "") -> None:
        """Write each clause as a DIMACS line led by ``prefix``.

        One ``%`` template per row fixes the text of every ``-sel``
        literal; only the signed ``val`` literals fill it, row by row.
        """
        per_row = len(self.val) * len(self.sel)
        if not per_row:
            return
        row_text = "".join(
            f"{prefix}{-s[i]} %s 0\n" for i in range(len(self.val)) for s in self.sel
        )
        # itemgetter of one index returns the item itself, not a 1-tuple
        picker = operator.itemgetter if len(self.sel) > 1 else lambda bit: lambda pair: (pair[bit],)
        step = max(1, _EMIT_CHUNK // per_row)
        for lo in range(0, len(self.rows), step):
            rows = self.rows[lo : lo + step]
            lits: list[str] = []
            for q, row in enumerate(rows, lo):
                pick = picker(*row)  # each column's literal out of (negative, positive)
                for val in self.val:
                    lits += pick((str(-val[q]), str(val[q])))
            out.write(row_text * len(rows) % tuple(lits))


def _pairs(a: int, b: int, s: int) -> int:
    """The pairs ``(i, j)`` with ``0 <= i <= a``, ``0 <= j <= b``, ``i + j <= s``."""

    def tri(x: int) -> int:  # the pairs with i + j <= x, unbounded
        return (x + 1) * (x + 2) // 2 if x >= 0 else 0

    return tri(s) - tri(s - a - 1) - tri(s - b - 1) + tri(s - a - b - 2)


def _subtree(size: int, cap: int) -> tuple[int, int, int]:
    """Variables, clauses and outputs of a totalizer node over ``size``
    literals; a leaf is its literal, its one output."""
    if size == 1:
        return 0, 0, 1
    va, ca, a = _subtree(size // 2, cap)
    vb, cb, b = _subtree(size - size // 2, cap)
    o = min(size, cap)
    # the pairs 1 <= i + j <= o; (0, 0) holds no clause
    return va + vb + o, ca + cb + _pairs(a, b, o) - 1, o


class Totalizer:
    """At most ``k`` of ``lits`` true, ``k >= 2``: a totalizer, one clause family.

    A totalizer (Bailleux & Boufkhad, CP 2003) is a balanced binary tree
    whose leaves are the literals; a node over ``lits[lo:hi]`` splits at
    ``(lo + hi) // 2``.  A node over ``m`` literals has ``min(m, k + 1)``
    outputs, ``o_j`` reading "at least ``j`` of my literals are true"; a
    leaf's one output is its literal.  Over the outputs ``a``, ``b`` of its
    two children, a node gets only the upward clauses
    ``-a_i | -b_j | o_(i+j)`` for ``1 <= i + j <= min(m, k + 1)``, where
    ``a_0`` and ``b_0`` stand for true and are left out.  Only the root's
    ``o_(k+1)`` would be read, by the unit ``-o_(k+1)``, so the root keeps
    no outputs: its children get the binary clauses ``-a_i | -b_j`` for
    ``i + j = k + 1``, the resolvents of that unit, which propagate as it
    did.  At ``n = 500``, ``k = 198`` that is 3,886 variables and 63,786
    clauses, against a sequential counter's ``n * k`` registers and about
    ``2nk`` clauses.

    The outputs are the ``var_count`` variables from ``first`` on,
    numbered in post order: both subtrees' outputs, then the node's own.
    The clauses run in the same post order, each node's by ``i``, then
    ``j``.  The family holds its literals only: ``len`` and ``var_count``
    come from the node sizes.  One walk, :meth:`nodes`, fixes the
    numbering and the order: iterating builds each clause from it as a
    fresh list, one node row at a time, and
    :class:`~bddlearn.solve.cdcl.CdclSolver` reads the same walk and
    propagates the ternaries of each node in place, without building them.
    """

    __slots__ = ("lits", "k", "first", "var_count", "_len")

    def __init__(self, lits: Sequence[int], k: int, first: int):
        self.lits, self.k, self.first = lits, k, first
        n = len(lits)
        va, ca, a = _subtree(n // 2, k + 1)
        vb, cb, b = _subtree(n - n // 2, k + 1)
        self.var_count = va + vb
        # the root's pairs i + j = k + 1, with 0 <= i <= a and 0 <= j <= b
        self._len = ca + cb + min(a, k + 1) - max(0, k + 1 - b) + 1

    def __len__(self) -> int:
        return self._len

    def literal_count(self) -> int:
        return sum(map(len, self))

    def nodes(self) -> Iterator[tuple[list[int], list[int], list[int]]]:
        """Each node over two or more literals, in post order, the root last.

        A node is ``(not_a, not_b, out)``: its children's outputs negated,
        as its clauses hold them (a leaf's is ``[-lit]``), and its own
        outputs, numbered as it is reached; the root's ``out`` is empty.
        Each int is made once per node and shared by every clause that
        holds it; an int made per clause would cost a store of the clauses
        about 32 bytes a literal.
        """
        lits, cap, top = self.lits, self.k + 1, self.first
        n = len(lits)
        done: list[list[int]] = []  # the finished subtrees' outputs, negated
        todo = [(0, n, False)]
        while todo:
            lo, hi, ready = todo.pop()
            if hi - lo == 1:
                done.append([-lits[lo]])
            elif not ready:
                mid = (lo + hi) // 2
                todo += (lo, hi, True), (mid, hi, False), (lo, mid, False)
            else:
                not_b = done.pop()
                not_a = done.pop()
                out = list(range(top, top + min(hi - lo, cap))) if hi - lo < n else []
                top += len(out)
                yield not_a, not_b, out
                done.append([-o for o in out])

    def root(self, not_a: list[int], not_b: list[int]) -> list[list[int]]:
        """The root's clauses ``-a_i | -b_j`` for ``i + j = k + 1``, by ``i``."""
        cap = self.k + 1
        lo, hi = max(0, cap - len(not_b)), min(len(not_a), cap)
        return [
            ([not_a[i - 1]] if i else []) + ([not_b[cap - i - 1]] if i < cap else [])
            for i in range(lo, hi + 1)
        ]

    def _rows(self) -> Iterator[list[list[int]]]:
        """The clauses, one row per node and ``i``: a node's ``j`` binaries
        ``-b_j | o_j``, then for each ``i`` the binary ``-a_i | o_i`` and
        the ternaries ``-a_i | -b_j | o_(i+j)``; the root's row last."""
        for not_a, not_b, out in self.nodes():
            if not out:
                yield self.root(not_a, not_b)
                continue
            yield [[y, o] for y, o in zip(not_b, out)]
            for i, x in enumerate(not_a):
                yield [[x, out[i]], *([x, y, o] for y, o in zip(not_b, out[i + 1 :]))]

    def __iter__(self) -> Iterator[list[int]]:
        return itertools.chain.from_iterable(self._rows())

    def clauses(self) -> list[list[int]]:
        return list(self)

    def write(self, out: TextIO, prefix: str = "") -> None:
        _write_clauses(out, self, prefix)


class Clauses(Sequence):
    """The hard clauses of a formula: clause lists and families, in order.

    ``parts`` holds lists of clauses and clause families: any part that is
    not a list is a :class:`ValueLinks` or a :class:`Totalizer`.  ``len``,
    :func:`literal_count` and the DIMACS emitters read a family without
    keeping its clauses, :class:`~bddlearn.solve.cdcl.CdclSolver` takes it
    into its own store, and :meth:`extend` with another ``Clauses`` shares
    its families by reference.  Every other read (iteration,
    indexing, slicing, ``in``, ``==``) goes through :meth:`as_list`, which
    expands the families once and keeps the result as the one part.
    """

    __slots__ = ("parts", "_len")

    def __init__(self):
        self.parts: list[list[list[int]] | ValueLinks | Totalizer] = [[]]
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def extend(self, clauses: Iterable[list[int]]) -> None:
        if type(clauses) is Clauses:  # its families join unexpanded
            for part in [*clauses.parts]:
                if type(part) is list:
                    self.extend(part)
                else:
                    self.add_family(part)
            return
        if type(self.parts[-1]) is not list:
            self.parts.append([])
        tail = self.parts[-1]
        before = len(tail)
        tail.extend(clauses)
        self._len += len(tail) - before

    def add_family(self, family: ValueLinks | Totalizer) -> None:
        self.parts.append(family)
        self._len += len(family)

    def as_list(self) -> list[list[int]]:
        """Every clause as a list, in order; the sequence's own storage."""
        if len(self.parts) > 1 or type(self.parts[0]) is not list:
            flat: list[list[int]] = []
            for part in self.parts:
                flat += part if type(part) is list else part.clauses()
            self.parts = [flat]
        return self.parts[0]

    def __iter__(self):
        return iter(self.as_list())

    def __getitem__(self, index):
        return self.as_list()[index]

    def __contains__(self, clause) -> bool:
        return clause in self.as_list()

    def __eq__(self, other) -> bool:
        if isinstance(other, Clauses):
            other = other.as_list()
        return self.as_list() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Clauses({self.as_list()!r})"


class Formula:
    """A CNF formula split into hard clauses and weighted soft clauses.

    ``hard`` is a :class:`Clauses` sequence: clause lists and two kinds of
    clause family, the links of :meth:`add_value_links` and the cost bound
    of :func:`at_most_k`, which stay unexpanded until a model check or
    :meth:`copy` iterates the clauses.  Construction is
    single-writer: build the formula, then treat it as immutable (``copy``
    before mutating a shared instance).
    """

    __slots__ = ("var_count", "hard", "soft")

    def __init__(self, var_count: int = 0):
        if var_count < 0:
            raise FormulaError("var_count must be >= 0")
        self.var_count = var_count
        self.hard = Clauses()
        self.soft: list[tuple[list[int], int]] = []

    def fresh_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def _checked(self, clause: Iterable[int]) -> list[int]:
        lits = list(clause)
        if not lits:
            raise FormulaError("empty clause")
        for lit in lits:
            if lit == 0 or abs(lit) > self.var_count:
                raise FormulaError(
                    f"literal {lit} outside variable range 1..{self.var_count}"
                )
        return lits

    def add_hard(self, clause: Iterable[int]) -> None:
        self.add_hard_clauses([list(clause)])

    def add_hard_clauses(self, clauses: list[list[int]]) -> None:
        """Append freshly built clauses, which the formula then owns.

        The set of the batch's distinct literals screens it; a batch that
        fails the screen goes through :meth:`_checked` clause by clause,
        which raises at the first fault.  On a failure nothing is appended.
        """
        n = self.var_count
        lits = set(itertools.chain.from_iterable(clauses))
        if clauses and (
            not all(clauses) or min(lits) < -n or max(lits) > n or 0 in lits
        ):
            for clause in clauses:
                self._checked(clause)
        self.hard.extend(clauses)

    def add_value_links(self, links: ValueLinks) -> None:
        """Append the clause family ``links`` unexpanded.

        Its variables screen it as in :meth:`add_hard_clauses`: when one
        lies outside ``1..var_count``, its clauses go through
        :meth:`_checked` one by one, and on a failure nothing is appended.
        """
        ids = [*itertools.chain(*links.sel), *itertools.chain(*links.val)]
        if ids and (min(ids) < 1 or max(ids) > self.var_count):
            for clause in links.clauses():
                self._checked(clause)
        self.hard.add_family(links)

    def add_soft(self, clause: Iterable[int], weight: int = 1) -> None:
        if weight < 1:
            raise FormulaError("soft weights must be >= 1")
        self.soft.append((self._checked(clause), weight))

    def copy(self) -> "Formula":
        dup = Formula(self.var_count)
        dup.hard.extend([list(c) for c in self.hard])
        dup.soft = [(list(c), w) for c, w in self.soft]
        return dup

    def __repr__(self) -> str:
        return (
            f"Formula(vars={self.var_count}, hard={len(self.hard)},"
            f" soft={len(self.soft)})"
        )


def at_most_k(formula: Formula, lits: Iterable[int], k: int) -> None:
    """Append clauses enforcing at most ``k`` true literals among ``lits``.

    Every total assignment satisfying the added clauses has at most ``k``
    true literals among ``lits``, every assignment of ``lits`` with at most
    ``k`` true extends to the auxiliary variables, and once ``k`` are true,
    unit propagation alone sets the others false.  Over ``n`` literals,
    ``k >= n`` appends nothing, ``k = 0`` one unit per literal, and
    ``k = 1`` a sequential-counter ladder: ``n`` registers and ``3n - 2``
    binary clauses.  ``k >= 2`` appends one :class:`Totalizer` family,
    which reserves its outputs here and builds no clause.

    A bad literal fails before any variable is reserved: the error names
    the first one, negated as the clauses hold it, and nothing is appended.
    """
    lits = list(lits)
    if not lits:
        raise FormulaError("at_most_k needs at least one literal")
    if k < 0:
        raise FormulaError("k must be >= 0")
    n = len(lits)
    if k >= n:
        return
    if k == 0:
        formula.add_hard_clauses([[-x] for x in lits])
        return
    if k == 1:
        # reg[i] reads "at least one of the first i+1 literals is true"
        reg = [formula.fresh_var() for _ in range(n)]
        ladder = [[-lits[0], reg[0]]]
        for i in range(1, n):
            ladder += [-lits[i], reg[i]], [-reg[i - 1], reg[i]], [-lits[i], -reg[i - 1]]
        formula.add_hard_clauses(ladder)
        return
    formula._checked([-x for x in lits])  # every clause holds inputs negated
    family = Totalizer(lits, k, formula.var_count + 1)
    formula.var_count += family.var_count
    formula.hard.add_family(family)


def exactly_one(formula: Formula, lits: Iterable[int]) -> None:
    """Exactly one of ``lits``: a covering clause plus ``at_most_k(lits, 1)``."""
    lits = list(lits)
    if not lits:
        raise FormulaError("exactly_one needs at least one literal")
    formula.add_hard(lits)
    at_most_k(formula, lits, 1)


def literal_count(formula: Formula) -> int:
    """Total number of literals over all hard and soft clauses.

    A clause family gives its own count, unexpanded.
    """
    hard = sum(
        sum(map(len, part)) if type(part) is list else part.literal_count()
        for part in formula.hard.parts
    )
    return hard + sum(len(c) for c, _ in formula.soft)


def lit_true(lit: int, assignment: Mapping[int, int]) -> bool:
    value = assignment.get(abs(lit), 0)
    return bool(value) if lit > 0 else not value


def clause_satisfied(clause: Iterable[int], assignment: Mapping[int, int]) -> bool:
    return any(lit_true(lit, assignment) for lit in clause)


def verify_model(formula: Formula, assignment: Mapping[int, int]) -> bool:
    """Check every hard clause against ``assignment`` (missing vars read 0)."""
    true = {v if value else -v for v, value in assignment.items()}
    for clause in formula.hard:
        for lit in clause:
            if lit in true or (lit < 0 and -lit not in assignment):
                break
        else:
            return False
    return True


def falsified_soft_weight(formula: Formula, assignment: Mapping[int, int]) -> int:
    return sum(w for c, w in formula.soft if not clause_satisfied(c, assignment))


def soft_unit_repair(
    formula: Formula,
) -> Callable[[Mapping[int, int]], dict[int, int]]:
    """A function that makes falsified soft units of ``formula`` true where it can.

    The returned ``repair(assignment)`` copies the assignment and, for each
    falsified soft unit ``[lit]`` in turn, flips ``lit`` to true when every
    clause of ``formula`` (hard or soft) containing ``-lit`` keeps another
    true literal.  A model of the hard clauses stays one, and its falsified
    soft weight never rises.  The occurrence lists are built once, here,
    so one repairer serves every model of a search.
    """
    units = [c[0] for c, _ in formula.soft if len(c) == 1]
    occurs: dict[int, list[list[int]]] = {-lit: [] for lit in units}
    for clause in itertools.chain(formula.hard, (c for c, _ in formula.soft)):
        for lit in clause:
            if lit in occurs:
                occurs[lit].append(clause)

    def repair(assignment: Mapping[int, int]) -> dict[int, int]:
        fixed = dict(assignment)
        for lit in units:
            if lit_true(lit, fixed):
                continue
            if all(
                any(x != -lit and lit_true(x, fixed) for x in clause)
                for clause in occurs[-lit]
            ):
                fixed[abs(lit)] = 1 if lit > 0 else 0
        return fixed

    return repair


# ---------------------------------------------------------------------------
# DIMACS


# Each chunk of clauses is written by one ``%`` format: the chunk's line
# templates, joined, applied to all of its literals at once.
# ``_EMIT_CHUNK`` clauses per write bounds the text held at once.
_EMIT_CHUNK = 4096


class _LineTemplates(dict):
    """``prefix + "%d " * n + "0\\n"`` for each clause length ``n``, built once."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, n: int) -> str:
        line = self[n] = self.prefix + "%d " * n + "0\n"
        return line


def _write_clauses(out: TextIO, clauses: Iterable[Sequence[int]], prefix: str = "") -> None:
    """Write each clause as one line: ``prefix``, its literals, then `` 0``.

    :class:`Clauses` are written part by part; a family renders itself.
    """
    if isinstance(clauses, Clauses):
        for part in clauses.parts:
            if type(part) is list:
                _write_clauses(out, part, prefix)
            else:
                part.write(out, prefix)
        return
    line = _LineTemplates(prefix).__getitem__
    clauses = iter(clauses)
    while chunk := list(itertools.islice(clauses, _EMIT_CHUNK)):
        text = "".join(map(line, map(len, chunk)))
        out.write(text % tuple(itertools.chain.from_iterable(chunk)))


def emit_dimacs_cnf(formula: Formula, out: TextIO) -> None:
    """Write ``formula`` in DIMACS CNF format; rejects soft clauses."""
    if formula.soft:
        raise FormulaError("formula has soft clauses; emit WCNF instead")
    out.write(f"p cnf {formula.var_count} {len(formula.hard)}\n")
    _write_clauses(out, formula.hard)


def emit_dimacs_wcnf(formula: Formula, out: TextIO) -> None:
    """Write ``formula`` in classic weighted DIMACS with a top weight.

    The top weight marking hard clauses is ``1 + sum of soft weights``.
    Hard clauses come first, each prefixed by the top weight, then the
    soft clauses, each prefixed by its own weight.
    """
    top = 1 + sum(w for _, w in formula.soft)
    n_clauses = len(formula.hard) + len(formula.soft)
    out.write(f"p wcnf {formula.var_count} {n_clauses} {top}\n")
    _write_clauses(out, formula.hard, f"{top} ")
    _write_clauses(out, ((w, *c) for c, w in formula.soft))


def dimacs_cnf(formula: Formula) -> str:
    buf = io.StringIO()
    emit_dimacs_cnf(formula, buf)
    return buf.getvalue()


def dimacs_wcnf(formula: Formula) -> str:
    buf = io.StringIO()
    emit_dimacs_wcnf(formula, buf)
    return buf.getvalue()


@dataclass(frozen=True)
class SolverOutput:
    """Status/model/cost triple parsed from a solver log."""

    status: str | None  # "SAT" | "OPTIMUM" | "UNSAT" | "UNKNOWN" | None
    model: dict[int, int] | None
    cost: int | None


_STATUS_MAP = {
    "SATISFIABLE": "SAT",
    "OPTIMUM FOUND": "OPTIMUM",
    "UNSATISFIABLE": "UNSAT",
    "UNKNOWN": "UNKNOWN",
}


def _assignment_from_tokens(tokens: list[str]) -> dict[int, int]:
    # Two v-line dialects: signed integers (0-terminated) and a plain
    # 0/1 bit string giving variables 1..n in order.
    if tokens and all(set(t) <= {"0", "1"} for t in tokens) and any(
        len(t) > 1 for t in tokens
    ):
        bits = "".join(tokens)
        return {i + 1: int(b) for i, b in enumerate(bits)}
    assignment: dict[int, int] = {}
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise ModelParseError(f"unparsable v-line token {tok!r}") from None
        if lit == 0:
            continue
        assignment[abs(lit)] = 1 if lit > 0 else 0
    if not assignment:
        raise ModelParseError("v-line carries no literals")
    return assignment


def parse_solver_output(text: str) -> SolverOutput:
    """Extract status, model, and cost from DIMACS-style solver output."""
    status: str | None = None
    cost: int | None = None
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s ") or line == "s":
            status = _STATUS_MAP.get(line[2:].strip(), "UNKNOWN")
        elif line.startswith("v "):
            tokens.extend(line[2:].split())
        elif line.startswith("o "):
            parts = line.split()
            try:
                cost = int(parts[-1])
            except (IndexError, ValueError):
                raise ModelParseError(f"unparsable o-line {line!r}") from None
    model = _assignment_from_tokens(tokens) if tokens else None
    return SolverOutput(status=status, model=model, cost=cost)


def parse_model(text: str) -> dict[int, int]:
    """Parse a satisfying assignment out of solver output text.

    Raises :class:`UnsatStatusError` on an UNSATISFIABLE status and
    :class:`ModelParseError` when no usable v-line is present.
    """
    parsed = parse_solver_output(text)
    if parsed.status == "UNSAT":
        raise UnsatStatusError("solver reported UNSATISFIABLE")
    if parsed.status not in ("SAT", "OPTIMUM"):
        raise ModelParseError(f"no satisfiable status line (got {parsed.status})")
    if parsed.model is None:
        raise ModelParseError("status line present but no v-line")
    return parsed.model
