"""Complete CDCL SAT solver for desk-scale instances.

Two-watched-literal propagation, first-UIP conflict learning, VSIDS
decisions with phase saving, Luby restarts, and activity-based deletion
of learned clauses.  Every model is re-checked against the input clauses
by the independent evaluator in :mod:`bddlearn.cnf` before it is returned.

Literal-indexed state lives in flat lists of length ``2n + 1`` indexed by
the signed literal itself: Python's negative indexing puts ``-v`` at
``2n + 1 - v``, so ``val[lit]`` is the literal's value (1, 0, or -1 when
unassigned) and ``watches[lit]`` its watch list, with no index arithmetic
on the hot path.  Variable-indexed state (level, reason, activity, saved
phase) stays indexed by ``v``.

Most problem clauses have two literals.  Each is kept only as its other
literal in the implication lists ``implied[lit]``, which a false ``lit``
propagates before its watch list (binary clauses apart from the general
store, as in Chu, Harwood & Stuckey, JSAT 2009).  A literal they imply
records the reason code ``bin_base - false_lit``, below -1, where a
clause reason is its index and a decision -1.  Learned clauses, binary or
not, stay on the watch path.

The VSIDS heap holds at most one current entry ``(-act[v], v)`` per
variable, flagged in ``in_heap``, and always one for a free variable.  A
bump of an assigned variable makes its entry stale and clears the flag
instead of pushing; the variable is pushed again only when it is freed
with the flag clear.  Stale entries are dropped when popped, so the heap
still yields the free variable of highest activity, lowest index on ties.
Once a backjump leaves more than ``2n + 64`` entries over ``n``
variables, the heap is rebuilt from the free variables, as after an
activity rescale; keys are unique and a stale one never wins, so no
decision changes, and the heap's size follows the formula rather than
the length of the search.
``_propagate`` walks a watch list in place and rebuilds it only when a
clause moved its watch away, keeping the other watchers in their order.

The two clause families of :mod:`bddlearn.cnf` are read in place: the
feature-value links go into the implication lists without their clauses
being built, and a totalizer is read node by node.  Its binaries go into
the implication lists.  Its ternaries ``x | y | o`` over a node with an
internal child, three distinct variables, are never built: ``tern[lit]``
lists, per literal, the node rows whose ternaries hold it, and a false
literal propagates them after its implications, each clause on each of
its three literals.  A literal they imply records the tuple of its
clause, the implied literal first, as its reason; a backjump drops it.
Construction looks at the caller's ``deadline`` every few thousand
clauses, a family's included; a solver whose construction ran past it
answers ``TIMEOUT`` from :meth:`CdclSolver.solve` without searching.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from operator import neg
from random import Random

from .. import cnf

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

_RESTART_BASE = 128
_ACT_RESCALE = 1e100
_VAR_DECAY = 0.95
_CLA_DECAY = 0.999
_DEADLINE_CHUNK = 4096  # clauses built between two looks at the deadline


@dataclass
class SatStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_deleted: int = 0
    elapsed: float = 0.0


@dataclass
class SatResult:
    status: str
    model: dict[int, int] | None
    stats: SatStats = field(default_factory=SatStats)


def _drop(watches: list[list[int]], lit: int, moved: list[int]) -> None:
    """Rebuild ``watches[lit]`` without the clauses whose watch moved away."""
    gone = set(moved)
    watches[lit] = [ci for ci in watches[lit] if ci not in gone]


def _all_binary(links: cnf.ValueLinks) -> bool:
    """Whether every clause of ``links`` holds two variables: no ``sel``
    variable is also a ``val`` variable, so no clause is a unit or a
    tautology."""
    return set(chain(*links.sel)).isdisjoint(chain(*links.val))


def _luby(i: int) -> int:
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class CdclSolver:
    """One solver instance owns its formula; not thread-safe.

    ``clauses`` is a :class:`cnf.Clauses` sequence, read part by part, or
    a list of clauses.  A problem clause of two literals is kept only in
    the implication lists; every longer clause kept is a fresh list, so
    the caller's clauses are never mutated and may be shared between
    solvers.  A :class:`cnf.ValueLinks` family goes into the implication
    lists without its clauses being built; a :class:`cnf.Totalizer`'s
    binaries go there too, and its ternaries are propagated in place
    (see :meth:`_bound`).  ``deadline``, a :func:`time.monotonic` value,
    bounds construction as ``solve``'s budget bounds the search.
    """

    def __init__(
        self,
        clauses: cnf.Clauses | list[list[int]],
        var_count: int,
        seed: int = 0,
        max_learnts: int | None = None,
        deadline: float | None = None,
    ):
        self.n = var_count
        n1 = var_count + 1
        self.val = [-1] * (2 * var_count + 1)  # by signed literal
        self.level = [0] * n1
        self.reason = [-1] * n1
        self.saved = [0] * n1  # phase saving, default polarity 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.cla_act: list[float] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * var_count + 1)]
        # implied[lit]: the other literal of each problem binary holding lit
        self.implied: list[list[int]] = [[] for _ in range(2 * var_count + 1)]
        # a binary's reason code ``bin_base - lit`` names its false literal
        self.bin_base = -2 - var_count
        # the false literals of a binary or totalizer conflict
        self.bin_conflict: tuple[int, ...] = (0, 0)
        # tern[lit]: the totalizer ternaries that a false lit propagates, as
        # (first, second, shift): the clauses (lit, u, w) for the pairs
        # u, w of zip(first, second[shift:])
        self.tern: list[tuple[tuple[list[int], list[int], int], ...]] = [()] * (
            2 * var_count + 1
        )
        self.act = [0.0] * n1
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        # 1 while the heap holds the entry (-act[v], v); at most one does
        self.in_heap = bytearray(b"\x01") * n1
        self.seen = bytearray(n1)
        self.stats = SatStats()
        self.ok = True
        self.n_problem = 0  # long problem clauses; the learned ones follow
        self.n_binary = 0  # problem binaries, kept as implications only
        self.n_tern = 0  # totalizer ternaries, propagated in place
        self.max_learnts = max_learnts
        self._units: list[int] = []
        self.expired = False  # construction ran past ``deadline``
        # 29 attributes: CPython 3.11 shares an instance's dict keys up to
        # 30, and past that every attribute read of the search is slower
        # (2 % of search time, measured by adding two to this solver)

        kept = self.clauses
        watches = self.watches
        implied = self.implied
        occurs = [0] * (2 * var_count + 1)  # by literal, over long clauses
        parts = clauses.parts if isinstance(clauses, cnf.Clauses) else (clauses,)
        for part in parts:
            built = type(part) is not list  # a family's clauses are built for this read
            if isinstance(part, cnf.ValueLinks):
                if _all_binary(part):
                    if not self._link(part, deadline):
                        self.expired = True
                        return
                    continue
                part = part.clauses()
            elif isinstance(part, cnf.Totalizer):
                if not self._bound(part, occurs, deadline):
                    self.expired = True
                    return
                continue
            unread = iter(part)
            while chunk := list(islice(unread, _DEADLINE_CHUNK)):
                if deadline is not None and time.monotonic() > deadline:
                    self.expired = True
                    return
                for clause in chunk:
                    if len(clause) == 2:  # most clauses: no set needed
                        x, y = clause
                        if x == -y:
                            continue
                        lits = clause if x != y else [x]  # only read
                    else:
                        present = set(clause)
                        if len(present) == len(clause) and present.isdisjoint(
                            map(neg, clause)
                        ):
                            lits = clause if built else list(clause)
                        else:
                            lits = self._sanitize(clause)
                            if lits is None:  # tautology
                                continue
                    if len(lits) > 2:
                        ci = len(kept)
                        watches[lits[0]].append(ci)
                        watches[lits[1]].append(ci)
                        kept.append(lits)
                        for lit in lits:
                            occurs[lit] += 1
                    elif len(lits) == 2:
                        x, y = lits
                        implied[x].append(y)
                        implied[y].append(x)
                    elif lits:
                        self._units.append(lits[0])
                    else:
                        self.ok = False
                        return
        self.n_problem = len(kept)
        self.n_binary = sum(map(len, implied)) // 2
        self.cla_act = [0.0] * len(kept)
        # Occurrence counts in kept clauses guide the first decisions, at
        # 1e-5 each, added one at a time; the seeded jitter keeps distinct
        # seeds on distinct (but reproducible) trajectories.
        counts = [
            len(implied[v]) + len(implied[-v]) + occurs[v] + occurs[-v]
            for v in range(1, n1)
        ]
        sums = [0.0]
        for _ in range(max(counts, default=0)):
            sums.append(sums[-1] + 1e-5)
        act = self.act = [0.0] + [sums[c] for c in counts]
        rng = Random(seed)
        for v in range(1, n1):
            act[v] += rng.random() * 1e-7
        self.heap = [(-act[v], v) for v in range(1, n1)]
        heapify(self.heap)

    def _link(self, links: cnf.ValueLinks, deadline: float | None) -> bool:
        """Take the family's clauses into the implication lists, in order,
        without building them; False when the deadline passed first."""
        implied = self.implied
        rows = links.rows
        unplaced = [[-s[i] for s in links.sel] for i in range(len(links.val))]
        step = max(1, _DEADLINE_CHUNK // max(1, len(links.val) * len(links.sel)))
        for lo in range(0, len(rows), step):
            if deadline is not None and time.monotonic() > deadline:
                return False
            for q in range(lo, min(lo + step, len(rows))):
                row = rows[q]
                for not_here, val in zip(unplaced, links.val):
                    signed = (-val[q], val[q])
                    for x, bit in zip(not_here, row):
                        y = signed[bit]
                        implied[x].append(y)
                        implied[y].append(x)
        return True

    def _bound(
        self, family: cnf.Totalizer, occurs: list[int], deadline: float | None
    ) -> bool:
        """Take a totalizer in without its ternaries; False when the
        deadline passed first.

        Node by node, in the family's order: the binaries go into the
        implication lists and the root's units into ``_units``.  A node
        whose children are both leaves keeps its one ternary as a clause,
        since its two inputs may repeat or complement each other.  Every
        other node's ternaries ``x | y | o``, over three distinct
        variables, become entries of ``tern`` for a false ``x``, ``y`` or
        ``o``, and their literals' occurrences are counted from the node's
        sizes, so the initial activities are those of the clauses.
        """
        implied, tern, kept = self.implied, self.tern, self.clauses
        read = due = 0  # clauses' worth read, and where the next look is due
        for not_a, not_b, out in family.nodes():
            if read >= due:
                if deadline is not None and time.monotonic() > deadline:
                    return False
                due = read + _DEADLINE_CHUNK
            if not out:  # the root: binaries and units only
                root = family.root(not_a, not_b)
                read += len(root)
                for clause in root:
                    if len(clause) == 1:
                        self._units.append(clause[0])
                    else:
                        x, y = clause
                        implied[x].append(y)
                        implied[y].append(x)
                continue
            p, q, r = len(not_a), len(not_b), len(out)
            for y, o in zip(not_b, out):
                implied[y].append(o)
                implied[o].append(y)
            for x, o in zip(not_a, out):
                implied[x].append(o)
                implied[o].append(x)
            read += p + q
            if p == q == 1:  # two leaves: -a_1 | -b_1 | o_2
                read += 1
                x, y, o = clause = [not_a[0], not_b[0], out[1]]
                if x == -y:
                    continue
                if x == y:
                    implied[x].append(o)
                    implied[o].append(x)
                    continue
                watches = self.watches
                watches[x].append(len(kept))
                watches[y].append(len(kept))
                kept.append(clause)
                for lit in clause:
                    occurs[lit] += 1
                continue
            # x = not_a[i] sits in the ternaries with not_b[j] and
            # out[i + j + 1], for i + j + 1 < r; and not_b[j] alike
            for mine, other in ((not_a, not_b), (not_b, not_a)):
                for i, x in enumerate(mine[: r - 1]):
                    tern[x] += ((other, out, i + 1),)
                    occurs[x] += min(len(other), r - i - 1)
            # o_l = out[l - 1] sits in the ternaries with not_a[i - 1] and
            # not_b[l - i - 1], for max(1, l - q) <= i <= min(p, l - 1)
            not_b_rev = not_b[::-1]
            for l in range(2, r + 1):
                o = out[l - 1]
                lo = max(1, l - q)
                count = min(p, l - 1) - lo + 1
                tern[o] += (
                    (not_b_rev, not_a, lo - 1) if lo > 1 else (not_a, not_b_rev, q - l + 1),
                )
                occurs[o] += count
                read += count
                self.n_tern += count
        return True

    @staticmethod
    def _sanitize(clause: list[int]) -> list[int] | None:
        lits: list[int] = []
        present: set[int] = set()
        for lit in clause:
            if -lit in present:
                return None
            if lit not in present:
                present.add(lit)
                lits.append(lit)
        return lits

    def _add_clause(self, lits: list[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.cla_act.append(0.0)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    def _enqueue(self, lit: int, reason_ci: int) -> None:
        val = self.val
        val[lit] = 1
        val[-lit] = 0
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns -1 or the conflict.

        A conflict is a clause index, or below -1 a code whose false
        literals are ``bin_conflict``: a problem binary's two or a
        totalizer ternary's three.  A false literal's implications run
        first, then its totalizer ternaries, then its watch list.
        """
        val = self.val
        clauses = self.clauses
        watches = self.watches
        implied = self.implied
        tern = self.tern
        natives = self.n_tern > 0
        base = self.bin_base
        trail = self.trail
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        props = 0
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            imps = implied[false_lit]
            if imps:
                why = base - false_lit
                for other in imps:
                    val_other = val[other]
                    if val_other == 1:
                        continue
                    if val_other == 0:
                        self.bin_conflict = (other, false_lit)
                        self.qhead = qhead
                        self.stats.propagations += props
                        return why
                    val[other] = 1
                    val[-other] = 0
                    v = other if other > 0 else -other
                    level[v] = cur_level
                    reason[v] = why
                    trail.append(other)
                    props += 1
            if natives:
                trig = tern[false_lit]
                if trig:
                    for first, second, shift in trig:
                        for u, w in zip(first, second[shift:]):  # the clause false_lit | u | w
                            val_u = val[u]
                            if val_u == 1:
                                continue
                            val_w = val[w]
                            if val_w == 1:
                                continue
                            if val_u == 0:
                                if val_w == 0:
                                    self.bin_conflict = (false_lit, u, w)
                                    self.qhead = qhead
                                    self.stats.propagations += props
                                    return base - false_lit
                                lit, other = w, u
                            elif val_w == 0:
                                lit, other = u, w
                            else:
                                continue
                            val[lit] = 1
                            val[-lit] = 0
                            v = lit if lit > 0 else -lit
                            level[v] = cur_level
                            reason[v] = (lit, false_lit, other)
                            trail.append(lit)
                            props += 1
            wl = watches[false_lit]
            if not wl:
                continue
            moved: list[int] = []
            for ci in wl:
                clause = clauses[ci]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                val_first = val[first]
                if val_first == 1:
                    continue
                if len(clause) > 2:  # look for a new watch
                    for k in range(2, len(clause)):
                        lk = clause[k]
                        if val[lk]:  # true (1) or unassigned (-1)
                            clause[1] = lk
                            clause[k] = false_lit
                            watches[lk].append(ci)
                            moved.append(ci)
                            break
                    else:
                        k = 0  # no new watch: the clause is unit or false
                    if k:
                        continue
                if val_first == 0:
                    if moved:  # the unvisited watchers stay
                        _drop(watches, false_lit, moved)
                    self.qhead = qhead
                    self.stats.propagations += props
                    return ci
                val[first] = 1
                val[-first] = 0
                v = first if first > 0 else -first
                level[v] = cur_level
                reason[v] = ci
                trail.append(first)
                props += 1
            if moved:
                _drop(watches, false_lit, moved)
        self.qhead = qhead
        self.stats.propagations += props
        return -1

    def _rebuild_heap(self) -> None:
        """One current entry per free variable and no stale ones."""
        act = self.act
        val = self.val
        self.heap = [(-act[u], u) for u in range(1, self.n + 1) if val[u] < 0]
        heapify(self.heap)
        self.in_heap = bytearray(val[u] < 0 for u in range(self.n + 1))

    def _rescale_vars(self) -> None:
        inv = 1.0 / _ACT_RESCALE
        act = self.act
        for u in range(1, self.n + 1):
            act[u] *= inv
        self.var_inc *= inv
        self._rebuild_heap()

    def _bump_clause(self, ci: int) -> None:
        """Bump learned clause ``ci`` (problem clauses carry no activity)."""
        self.cla_act[ci] += self.cla_inc
        if self.cla_act[ci] > _ACT_RESCALE:
            inv = 1.0 / _ACT_RESCALE
            for k in range(self.n_problem, len(self.cla_act)):
                self.cla_act[k] *= inv
            self.cla_inc *= inv

    def _analyze(self, confl_ci: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        seen = self.seen
        level = self.level
        trail = self.trail
        clauses = self.clauses
        reason = self.reason
        act = self.act
        in_heap = self.in_heap
        var_inc = self.var_inc
        n_problem = self.n_problem
        base = self.bin_base
        learnt: list[int] = [0]
        touched: list[int] = []
        cur_level = len(self.trail_lim)
        counter = 0
        p = 0
        idx = len(trail) - 1
        ci = confl_ci
        while True:
            if type(ci) is tuple:  # a totalizer ternary, its implied literal first
                clause = ci[1:]
            elif ci >= 0:
                clause = clauses[ci]
                if ci >= n_problem:
                    self._bump_clause(ci)
                if p:
                    clause = clause[1:]
            elif p:  # a binary reason: its one false literal
                clause = (base - ci,)
            else:
                clause = self.bin_conflict
            for q in clause:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    a = act[v] + var_inc
                    act[v] = a
                    if a > _ACT_RESCALE:
                        self._rescale_vars()
                        in_heap = self.in_heap
                        var_inc = self.var_inc
                    # v is assigned: its entry went stale, and _cancel_until
                    # pushes the current one when v is freed
                    in_heap[v] = 0
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            idx -= 1
            v = p if p > 0 else -p
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            ci = reason[v]
        learnt[0] = -p
        for q in learnt:  # keep the clause vars marked for minimization
            seen[q if q > 0 else -q] = 1
        kept = [learnt[0]]
        for q in learnt[1:]:  # a decision literal always stays
            if reason[q if q > 0 else -q] == -1 or not self._redundant(q, touched):
                kept.append(q)
        learnt = kept
        for v in touched:
            seen[v] = 0
        seen[abs(learnt[0])] = 0
        if len(learnt) == 1:
            return learnt, 0
        mi = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _redundant(self, lit: int, touched: list[int]) -> bool:
        """Deep check: is ``lit`` implied by the rest of the learned clause?

        Walks the reason chain; every reached variable must be marked seen
        or sit at level 0, otherwise the literal has to stay.  ``lit`` is
        not a decision, and no decision is pushed, so every literal popped
        has a reason.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        clauses = self.clauses
        base = self.bin_base
        stack = [lit]
        marked: list[int] = []
        while stack:
            p = stack.pop()
            ci = reason[p if p > 0 else -p]
            for r in (
                ci[1:] if type(ci) is tuple else clauses[ci][1:] if ci >= 0 else (base - ci,)
            ):
                w = r if r > 0 else -r
                if not seen[w] and level[w] > 0:
                    if reason[w] == -1:
                        for v in marked:
                            seen[v] = 0
                        return False
                    seen[w] = 1
                    marked.append(w)
                    stack.append(r)
        touched.extend(marked)  # redundant support stays marked until cleanup
        return True

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        limit = self.trail_lim[lvl]
        val = self.val
        saved = self.saved
        reason = self.reason
        act = self.act
        heap = self.heap
        in_heap = self.in_heap
        trail = self.trail
        for lit in reversed(trail[limit:]):
            v = lit if lit > 0 else -lit
            saved[v] = val[v]
            val[v] = val[-v] = -1
            reason[v] = -1
            if not in_heap[v]:
                in_heap[v] = 1
                heappush(heap, (-act[v], v))
        del trail[limit:]
        del self.trail_lim[lvl:]
        self.qhead = limit
        if len(heap) > 2 * self.n + 64:  # stale entries past it: rebuild
            self._rebuild_heap()

    def _pick_branch(self) -> int | None:
        heap = self.heap
        val = self.val
        act = self.act
        in_heap = self.in_heap
        while heap:
            neg_act, v = heappop(heap)
            if -neg_act == act[v]:  # v's one current entry; others are stale
                in_heap[v] = 0
                if val[v] < 0:
                    return v
        return None

    def _reduce_db(self) -> None:
        """Drop the low-activity half of the learned clauses (at level 0)."""
        learnts = list(range(self.n_problem, len(self.clauses)))
        if not learnts:
            return
        locked = {self.reason[abs(lit)] for lit in self.trail}
        learnts.sort(key=lambda ci: self.cla_act[ci])
        drop = set()
        for ci in learnts[: len(learnts) // 2]:
            if len(self.clauses[ci]) > 2 and ci not in locked:
                drop.add(ci)
        if not drop:
            return
        self.stats.learned_deleted += len(drop)
        remap: dict[int, int] = {}
        new_clauses: list[list[int]] = []
        new_act: list[float] = []
        for ci, clause in enumerate(self.clauses):
            if ci in drop:
                continue
            remap[ci] = len(new_clauses)
            new_clauses.append(clause)
            new_act.append(self.cla_act[ci])
        self.clauses = new_clauses
        self.cla_act = new_act
        self.watches = watches = [[] for _ in range(2 * self.n + 1)]
        for ci, clause in enumerate(self.clauses):
            watches[clause[0]].append(ci)
            watches[clause[1]].append(ci)
        for lit in self.trail:
            v = abs(lit)
            old = self.reason[v]
            if type(old) is int and old >= 0:
                self.reason[v] = remap.get(old, -1)

    def solve(self, budget: float | None = None) -> SatResult:
        start = time.monotonic()
        deadline = start + budget if budget is not None else None

        def finish(status: str, model: dict[int, int] | None) -> SatResult:
            self.stats.elapsed = time.monotonic() - start
            return SatResult(status, model, self.stats)

        if self.expired:
            return finish(TIMEOUT, None)
        if not self.ok:
            return finish(UNSAT, None)
        val = self.val
        for lit in self._units:
            if val[lit] == 0:
                return finish(UNSAT, None)
            if val[lit] == -1:
                self._enqueue(lit, -1)
        if self._propagate() != -1:
            return finish(UNSAT, None)

        restart_idx = 1
        conflicts_until_restart = _RESTART_BASE * _luby(restart_idx)
        learnt_cap = self.max_learnts
        if learnt_cap is None:
            learnt_cap = max(4000, 2 * max(1, self.n_problem + self.n_binary + self.n_tern))
        check_counter = 0
        stats = self.stats
        saved = self.saved

        while True:
            confl = self._propagate()
            if confl != -1:
                stats.conflicts += 1
                conflicts_until_restart -= 1
                if not self.trail_lim:
                    return finish(UNSAT, None)
                learnt, bt_level = self._analyze(confl)
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._add_clause(learnt)
                    self._bump_clause(ci)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= _VAR_DECAY
                self.cla_inc /= _CLA_DECAY
                check_counter += 1
                if deadline is not None and check_counter % 128 == 0:
                    if time.monotonic() > deadline:
                        return finish(TIMEOUT, None)
            else:
                if conflicts_until_restart <= 0:
                    stats.restarts += 1
                    restart_idx += 1
                    conflicts_until_restart = _RESTART_BASE * _luby(restart_idx)
                    self._cancel_until(0)
                    if len(self.clauses) - self.n_problem > learnt_cap:
                        self._reduce_db()
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    return finish(TIMEOUT, None)
                v = self._pick_branch()
                if v is None:
                    model = {u: val[u] for u in range(1, self.n + 1)}
                    return finish(SAT, model)
                stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if saved[v] else -v, -1)


def sat_solve(
    formula: cnf.Formula, budget: float | None = 900.0, seed: int = 0
) -> SatResult:
    """Run the embedded CDCL solver on the hard clauses of ``formula``.

    Soft clauses are ignored with a warning.  ``budget`` covers solver
    construction and search.  A SAT answer comes with a model verified
    against every hard clause; verification failure aborts.
    """
    if formula.soft:
        warnings.warn("sat_solve ignores soft clauses", stacklevel=2)
    deadline = None if budget is None else time.monotonic() + budget
    solver = CdclSolver(formula.hard, formula.var_count, seed=seed, deadline=deadline)
    result = solver.solve(None if deadline is None else deadline - time.monotonic())
    if result.status == SAT:
        assert result.model is not None
        if not cnf.verify_model(formula, result.model):
            raise RuntimeError("internal error: model fails hard-clause check")
    return result
