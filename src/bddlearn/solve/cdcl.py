"""Complete CDCL SAT solver for desk-scale instances.

Two-watched-literal propagation, first-UIP conflict learning, VSIDS
decisions with phase saving, Luby restarts, and activity-based deletion
of learned clauses.  Every model is re-checked against the input clauses
by the independent evaluator in :mod:`bddlearn.cnf` before it is returned.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from random import Random
from typing import Mapping

from .. import cnf

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

_RESTART_BASE = 128
_ACT_RESCALE = 1e100
_VAR_DECAY = 0.95
_CLA_DECAY = 0.999


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

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


def _luby(i: int) -> int:
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class CdclSolver:
    """One solver instance owns its formula; not thread-safe."""

    def __init__(
        self,
        clauses: list[list[int]],
        var_count: int,
        seed: int = 0,
        max_learnts: int | None = None,
        phases: Mapping[int, int] | None = None,
    ):
        self.n = var_count
        n1 = var_count + 1
        self.assign = [-1] * n1  # -1 unassigned, else 0/1
        self.level = [0] * n1
        self.reason = [-1] * n1
        self.saved = [0] * n1  # phase saving, default polarity 0
        # ``phases`` are the first polarities tried: a full model of the
        # clauses given here comes back from ``solve`` without a conflict
        for v, value in (phases or {}).items():
            if not 1 <= v <= var_count:
                raise ValueError(f"phase for variable {v} outside 1..{var_count}")
            self.saved[v] = 1 if value else 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.cla_act: list[float] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n1)]
        self.act = [0.0] * n1
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.seen = bytearray(n1)
        self.stats = SatStats()
        self.ok = True
        self.n_problem = 0
        self.max_learnts = max_learnts
        self._units: list[int] = []

        rng = Random(seed)
        for clause in clauses:
            lits = self._sanitize(clause)
            if lits is None:  # tautology
                continue
            if not lits:
                self.ok = False
                return
            if len(lits) == 1:
                self._units.append(lits[0])
                continue
            self._add_clause(lits)
        self.n_problem = len(self.clauses)
        # Occurrence counts guide the first decisions; the seeded jitter
        # keeps distinct seeds on distinct (but reproducible) trajectories.
        for clause in self.clauses:
            for lit in clause:
                self.act[abs(lit)] += 1e-5
        for v in range(1, n1):
            self.act[v] += rng.random() * 1e-7
            heappush(self.heap, (-self.act[v], v))

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
        self._watch(lits[0], ci)
        self._watch(lits[1], ci)
        return ci

    def _watch(self, lit: int, ci: int) -> None:
        idx = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
        self.watches[idx].append(ci)

    def _value(self, lit: int) -> int:
        a = self.assign[lit if lit > 0 else -lit]
        if a < 0:
            return -1
        return a if lit > 0 else 1 - a

    def _enqueue(self, lit: int, reason_ci: int) -> None:
        v = lit if lit > 0 else -lit
        self.assign[v] = 1 if lit > 0 else 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        props = 0
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            false_lit = -p
            widx = (false_lit << 1) if false_lit > 0 else ((-false_lit) << 1) | 1
            wl = watches[widx]
            i = j = 0
            end = len(wl)
            while i < end:
                ci = wl[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                a = assign[first if first > 0 else -first]
                val_first = -1 if a < 0 else (a if first > 0 else 1 - a)
                if val_first == 1:
                    wl[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    a = assign[lk if lk > 0 else -lk]
                    if a < 0 or (a if lk > 0 else 1 - a) == 1:
                        clause[1] = lk
                        clause[k] = false_lit
                        self._watch(lk, ci)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = ci
                j += 1
                if val_first == 0:
                    while i < end:  # conflict: keep the pending watchers
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self.stats.propagations += props
                    return ci
                self._enqueue(first, ci)
                props += 1
            del wl[j:]
        self.stats.propagations += props
        return -1

    def _bump_var(self, v: int) -> None:
        self.act[v] += self.var_inc
        if self.act[v] > _ACT_RESCALE:
            inv = 1.0 / _ACT_RESCALE
            for u in range(1, self.n + 1):
                self.act[u] *= inv
            self.var_inc *= inv
            self.heap = [
                (-self.act[u], u) for u in range(1, self.n + 1) if self.assign[u] < 0
            ]
            heapify(self.heap)
        heappush(self.heap, (-self.act[v], v))

    def _bump_clause(self, ci: int) -> None:
        if ci < self.n_problem:
            return
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
        learnt: list[int] = [0]
        touched: list[int] = []
        cur_level = len(self.trail_lim)
        counter = 0
        p = 0
        idx = len(trail) - 1
        ci = confl_ci
        while True:
            clause = self.clauses[ci]
            self._bump_clause(ci)
            for k in range(1 if p else 0, len(clause)):
                q = clause[k]
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = abs(p)
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[v]
        learnt[0] = -p
        for q in learnt:  # keep the clause vars marked for minimization
            seen[abs(q)] = 1
        kept = [learnt[0]]
        kept.extend(q for q in learnt[1:] if not self._redundant(q, touched))
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
        or sit at level 0, otherwise the literal has to stay.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        stack = [lit]
        marked: list[int] = []
        while stack:
            p = stack.pop()
            ci = reason[abs(p)]
            if ci < 0:
                for v in marked:
                    seen[v] = 0
                return False
            clause = self.clauses[ci]
            for r in clause[1:]:
                w = abs(r)
                if not seen[w] and level[w] > 0:
                    if reason[w] < 0:
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
        assign = self.assign
        for i in range(len(self.trail) - 1, limit - 1, -1):
            lit = self.trail[i]
            v = lit if lit > 0 else -lit
            self.saved[v] = assign[v]
            assign[v] = -1
            self.reason[v] = -1
            heappush(self.heap, (-self.act[v], v))
        del self.trail[limit:]
        del self.trail_lim[lvl:]
        self.qhead = limit

    def _pick_branch(self) -> int | None:
        heap = self.heap
        assign = self.assign
        while heap:
            neg_act, v = heappop(heap)
            if assign[v] < 0 and -neg_act == self.act[v]:
                return v
        for v in range(1, self.n + 1):  # heap went stale; shouldn't happen often
            if assign[v] < 0:
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
        self.watches = [[] for _ in range(2 * (self.n + 1))]
        for ci, clause in enumerate(self.clauses):
            self._watch(clause[0], ci)
            self._watch(clause[1], ci)
        for i, lit in enumerate(self.trail):
            v = abs(lit)
            old = self.reason[v]
            self.reason[v] = remap.get(old, -1) if old >= 0 else -1

    def solve(self, budget: float | None = None) -> SatResult:
        start = time.monotonic()
        deadline = start + budget if budget is not None else None

        def finish(status: str, model: dict[int, int] | None) -> SatResult:
            self.stats.elapsed = time.monotonic() - start
            return SatResult(status, model, self.stats)

        if not self.ok:
            return finish(UNSAT, None)
        for lit in self._units:
            val = self._value(lit)
            if val == 0:
                return finish(UNSAT, None)
            if val == -1:
                self._enqueue(lit, -1)
        if self._propagate() >= 0:
            return finish(UNSAT, None)

        restart_idx = 1
        conflicts_until_restart = _RESTART_BASE * _luby(restart_idx)
        learnt_cap = self.max_learnts
        if learnt_cap is None:
            learnt_cap = max(4000, 2 * max(1, self.n_problem))
        check_counter = 0

        while True:
            confl = self._propagate()
            if confl >= 0:
                self.stats.conflicts += 1
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
                    self.stats.restarts += 1
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
                    model = {u: self.assign[u] for u in range(1, self.n + 1)}
                    return finish(SAT, model)
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.saved[v] else -v, -1)


def sat_solve(
    formula: cnf.Formula, budget: float | None = 900.0, seed: int = 0
) -> SatResult:
    """Run the embedded CDCL solver on the hard clauses of ``formula``.

    Soft clauses are ignored with a warning.  A SAT answer comes with a
    model verified against every hard clause; verification failure aborts.
    """
    if formula.soft:
        warnings.warn("sat_solve ignores soft clauses", stacklevel=2)
    solver = CdclSolver(formula.hard, formula.var_count, seed=seed)
    result = solver.solve(budget)
    if result.status == SAT:
        assert result.model is not None
        if not cnf.verify_model(formula, result.model):
            raise RuntimeError("internal error: model fails hard-clause check")
    return result
