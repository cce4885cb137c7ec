"""Timing shims around the program's public functions, and per-layer totals.

Each shim replaces a module attribute at the place its caller resolves it
(``bddlearn.solve.maxsat.CdclSolver``, ``bddlearn.cnf.at_most_k``,
``bddlearn.search.gen_bdd`` ...), so no source file is edited.  A call
through a shim records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out once, when the run ends.  The
layer of a span is the part of its name before the first dot; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("data", "cnf", "encode", "cdcl", "maxsat", "postprocess", "bdd", "search")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "counts")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span store with a stack of the spans currently open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    def wrap(self, name: str, fn, count=None):
        """Shim around ``fn``; ``count(args, kwargs, result)`` fills span counts."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return shim

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                doc = {"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op}
                if s.counts:
                    doc["counts"] = s.counts
                out.write(json.dumps(doc) + "\n")


def _literals(formula) -> int:
    return sum(len(c) for c in formula.hard) + sum(len(c) for c, _ in formula.soft)


def install(tracer: Tracer) -> None:
    """Put a shim at every module attribute the program's callers resolve."""
    from bddlearn import cnf, data, encode, postprocess, search, solve
    from bddlearn.solve import cdcl, maxsat

    def patch(owners, attr, name, count=None):
        shim = tracer.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            setattr(owner, attr, shim)

    def nodes(diagram) -> int:
        sinks = {c for c in list(diagram.left.values()) + list(diagram.right.values()) if c < 0}
        if diagram.root < 0:
            sinks.add(diagram.root)
        return len(diagram.levels) + len(sinks)

    patch([data], "load_csv", "data.load")
    patch([data], "one_hot_binarize", "data.binarize")
    patch([data], "bind_like", "data.bind")
    patch([data, search, encode], "check_consistency", "data.consistency")

    at_most_k = cnf.at_most_k

    def at_most_k_shim(formula, lits, k):
        v0, c0 = formula.var_count, len(formula.hard)
        idx = tracer.open("cnf.at_most_k")
        try:
            at_most_k(formula, lits, k)
        finally:
            span = tracer.close(idx)
        span.counts["vars"] = formula.var_count - v0
        span.counts["clauses"] = len(formula.hard) - c0

    cnf.at_most_k = at_most_k_shim
    cnf.Formula.copy = tracer.wrap("cnf.copy", cnf.Formula.copy)
    patch([cnf], "verify_model", "cnf.verify")
    patch([cnf], "falsified_soft_weight", "cnf.soft_weight")
    patch([cnf], "literal_count", "cnf.literal_count")

    emit = cnf.emit_dimacs_wcnf

    def emit_shim(formula, out):
        pos = out.tell()
        idx = tracer.open("cnf.emit")
        try:
            emit(formula, out)
        finally:
            span = tracer.close(idx)
        span.counts["chars"] = out.tell() - pos

    cnf.emit_dimacs_wcnf = emit_shim

    def encoded(args, kwargs, result):
        formula = result[0]
        return {"vars": formula.var_count,
                "clauses": len(formula.hard) + len(formula.soft),
                "literals": _literals(formula)}

    patch([encode], "encode_bdd2", "encode.encode", encoded)
    patch([encode], "encode_maxsat", "encode.encode", encoded)
    patch([encode], "decode", "encode.decode")

    solver_cls = cdcl.CdclSolver

    def construct(*args, **kwargs):
        idx = tracer.open("cdcl.construct")
        try:
            return solver_cls(*args, **kwargs)
        finally:
            tracer.close(idx)

    for owner in (cdcl, maxsat, solve):
        owner.CdclSolver = construct

    def searched(args, kwargs, result):
        st = result.stats
        return {"conflicts": st.conflicts, "decisions": st.decisions,
                "propagations": st.propagations, "restarts": st.restarts,
                "learned_deleted": st.learned_deleted,
                "timeout": int(result.status == cdcl.TIMEOUT)}

    solver_cls.solve = tracer.wrap("cdcl.search", solver_cls.solve, searched)
    patch([solve], "sat_solve", "cdcl.sat_solve")

    def maxsat_counts(args, kwargs, result):
        return {"iterations": result.iterations, "relax_vars": len(args[0].soft),
                "stopped": int(not result.optimal)}

    patch([solve], "maxsat_solve", "maxsat.solve", maxsat_counts)

    def unknown(args, kwargs, result):
        return {"unknown_cells": result.cells.count("u")}

    patch([postprocess], "mark_unknown", "postprocess.mark_unknown", unknown)
    for bias in ("apply_bias_S", "apply_bias_P", "apply_bias_C"):
        patch([postprocess], bias, "postprocess.bias")

    def built(args, kwargs, result):
        return {"nodes": nodes(result)}

    patch([search, postprocess], "gen_bdd", "bdd.gen_bdd", built)
    patch([search], "learn", "search.learn")
    patch([search], "min_depth", "search.min_depth")
    patch([search], "training_accuracy", "search.train_accuracy")
    patch([search], "evaluate", "search.evaluate",
          lambda args, kwargs, result: {"rows": args[1].m})


# name -> unit, in the order the traced run reports them
PER_LAYER = {
    "cdcl.search_s": "s",
    "cdcl.conflicts": "count",
    "cdcl.decisions": "count",
    "cdcl.conflicts_per_s": "1/s",
    "cdcl.propagations": "count",
    "cdcl.propagations_per_s": "1/s",
    "cdcl.propagations_per_conflict": "count",
    "cdcl.construct_s": "s",
    "cdcl.calls": "count",
    "cdcl.restarts": "count",
    "cdcl.learned_deleted": "count",
    "cdcl.timeouts": "count",
    "maxsat.self_s": "s",
    "maxsat.sat_calls": "count",
    "maxsat.iterations": "count",
    "maxsat.relax_vars": "count",
    "maxsat.useful_ratio": "ratio",
    "cnf.at_most_k_s": "s",
    "cnf.card_vars": "count",
    "cnf.card_clauses": "count",
    "cnf.copy_s": "s",
    "cnf.verify_s": "s",
    "cnf.emit_s": "s",
    "cnf.emit_mb": "MB",
    "encode.s": "s",
    "encode.calls": "count",
    "encode.vars": "count",
    "encode.clauses": "count",
    "encode.literals": "count",
    "encode.decode_s": "s",
    "data.load_s": "s",
    "data.binarize_s": "s",
    "data.consistency_s": "s",
    "data.bind_s": "s",
    "search.learn_self_s": "s",
    "search.probes": "count",
    "search.train_accuracy_s": "s",
    "search.evaluate_s": "s",
    "postprocess.mark_unknown_s": "s",
    "postprocess.bias_s": "s",
    "postprocess.unknown_cells": "count",
    "bdd.gen_bdd_s": "s",
    "bdd.classify_rows_per_s": "1/s",
    "bdd.nodes": "count",
    **{f"layer.{name}.self_s": "s" for name in LAYERS + ("bench",)},
    "trace.norm.ops_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except ``trace.norm.ops_per_s``: name -> (value, unit)."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def time_of(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def under(name: str, parent: str) -> list[Span]:
        return [s for s in by_name.get(name, ()) if spans[s.parent].name == parent]

    search_s = time_of("cdcl.search")
    conflicts = total("cdcl.search", "conflicts")
    props = total("cdcl.search", "propagations")
    maxsat_calls = under("cdcl.search", "maxsat.solve")
    self_of = {name: 0.0 for name in LAYERS + ("bench",)}
    for s in spans:
        self_of[s.layer] += s.self_s
    values = {
        "cdcl.search_s": search_s,
        "cdcl.conflicts": conflicts,
        "cdcl.decisions": total("cdcl.search", "decisions"),
        "cdcl.conflicts_per_s": _ratio(conflicts, search_s),
        "cdcl.propagations": props,
        "cdcl.propagations_per_s": _ratio(props, search_s),
        "cdcl.propagations_per_conflict": _ratio(props, conflicts),
        "cdcl.construct_s": time_of("cdcl.construct"),
        "cdcl.calls": len(by_name.get("cdcl.search", ())),
        "cdcl.restarts": total("cdcl.search", "restarts"),
        "cdcl.learned_deleted": total("cdcl.search", "learned_deleted"),
        "cdcl.timeouts": total("cdcl.search", "timeout"),
        "maxsat.self_s": sum(s.self_s for s in by_name.get("maxsat.solve", ())),
        "maxsat.sat_calls": len(maxsat_calls),
        "maxsat.iterations": total("maxsat.solve", "iterations"),
        "maxsat.relax_vars": total("maxsat.solve", "relax_vars"),
        "maxsat.useful_ratio": _ratio(
            sum(1 for s in maxsat_calls if not s.counts["timeout"]), len(maxsat_calls)),
        "cnf.at_most_k_s": time_of("cnf.at_most_k"),
        "cnf.card_vars": total("cnf.at_most_k", "vars"),
        "cnf.card_clauses": total("cnf.at_most_k", "clauses"),
        "cnf.copy_s": time_of("cnf.copy"),
        "cnf.verify_s": time_of("cnf.verify"),
        "cnf.emit_s": time_of("cnf.emit"),
        "cnf.emit_mb": total("cnf.emit", "chars") / 1e6,
        "encode.s": time_of("encode.encode"),
        "encode.calls": len(by_name.get("encode.encode", ())),
        "encode.vars": total("encode.encode", "vars"),
        "encode.clauses": total("encode.encode", "clauses"),
        "encode.literals": total("encode.encode", "literals"),
        "encode.decode_s": time_of("encode.decode"),
        "data.load_s": time_of("data.load"),
        "data.binarize_s": time_of("data.binarize"),
        "data.consistency_s": time_of("data.consistency"),
        "data.bind_s": time_of("data.bind"),
        "search.learn_self_s": sum(s.self_s for s in by_name.get("search.learn", ())),
        "search.probes": len(under("search.learn", "search.min_depth")),
        "search.train_accuracy_s": time_of("search.train_accuracy"),
        "search.evaluate_s": time_of("search.evaluate"),
        "postprocess.mark_unknown_s": time_of("postprocess.mark_unknown"),
        "postprocess.bias_s": time_of("postprocess.bias"),
        "postprocess.unknown_cells": total("postprocess.mark_unknown", "unknown_cells"),
        "bdd.gen_bdd_s": time_of("bdd.gen_bdd"),
        "bdd.classify_rows_per_s": _ratio(
            total("search.evaluate", "rows"), time_of("search.evaluate")),
        "bdd.nodes": total("bdd.gen_bdd", "nodes"),
        **{f"layer.{name}.self_s": v for name, v in self_of.items()},
    }
    return {name: (value, PER_LAYER[name]) for name, value in values.items()}


# (span name, count key) pairs that repeat exactly for a seed when no
# solver call in the op hit its budget
DETERMINISTIC = (
    ("cdcl.search", "conflicts"),
    ("cdcl.search", "decisions"),
    ("cdcl.search", "propagations"),
    ("encode.encode", "vars"),
    ("encode.encode", "clauses"),
    ("encode.encode", "literals"),
    ("cnf.at_most_k", "vars"),
    ("bdd.gen_bdd", "nodes"),
)


def op_counts(tracer: Tracer, n_ops: int) -> list[dict]:
    """Per op: the DETERMINISTIC counts summed, and how often a budget was hit."""
    ops = [{f"{n}.{k}": 0 for n, k in DETERMINISTIC} | {"budget_hits": 0}
           for _ in range(n_ops)]
    for s in tracer.spans:
        doc = ops[s.op]
        for name, key in DETERMINISTIC:
            if s.name == name:
                doc[f"{name}.{key}"] += s.counts.get(key, 0)
        doc["budget_hits"] += s.counts.get("timeout", 0) + s.counts.get("stopped", 0)
    return ops
