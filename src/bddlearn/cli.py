"""Command-line interface for batch runs with persistent artifacts.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure or
timeout.  Machine-readable outputs are written atomically (temp file plus
rename).  The environment variable ``BDD_SOLVER_CMD`` supplies a default
external-solver command template.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, cnf, encode, search, solve
from .bdd import TruthTable, bdd_from_json, bdd_to_json, export_dot, node_count
from .data import DataError, Dataset, bind_like, load_csv, one_hot_binarize
from .search import (
    LearnConfig,
    LearnedModel,
    LearnError,
    PreselectConfig,
    cross_validate,
    evaluate,
    learn,
    min_depth,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

# --model -> (encoder in ``encode``, emitter in ``cnf``), resolved by name
# at call time so a replaced module attribute is the one that runs
ENCODINGS = {
    "bdd1": ("encode_bdd1", "emit_dimacs_cnf"),
    "bdd2": ("encode_bdd2", "emit_dimacs_cnf"),
    "maxsat": ("encode_maxsat", "emit_dimacs_wcnf"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(data_path, config: dict, timings: dict, outputs: list[str]) -> dict:
    return {
        "tool": "bddlearn",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "dataset_sha256": _sha256(data_path),
        "config": config,
        "timings": timings,
        "outputs": outputs,
    }


def _checked_options(args, check):
    """``check()``, whose ValueError names an option out of range: a
    one-line usage error.  ``check`` reads the options only, no data."""
    try:
        return check()
    except ValueError as exc:
        raise UsageError(f"bddlearn {args.command}: {exc}") from None


def _load_dataset(path, label: str) -> Dataset:
    return one_hot_binarize(load_csv(path, label))


def _default_solver(value: str | None) -> str | None:
    if value is None:
        value = os.environ.get("BDD_SOLVER_CMD") or "embedded"
    return None if value == "embedded" else value


def _model_doc(model: LearnedModel, data_path, dataset: Dataset, config: dict, timings) -> dict:
    return {
        "format": "bddlearn-model/1",
        "h": model.depth,
        "mode": model.mode,
        "bias": model.bias,
        "ordering": list(model.ordering_names),
        "ordering_indices": list(model.ordering),
        "table": model.table.cells,
        "metrics": {
            "train_accuracy": model.train_accuracy,
            "optimal": model.optimal,
            "literal_count": model.literal_count,
            "node_count": node_count(model.bdd),
            "solver": model.solver_stats,
        },
        "bdd": bdd_to_json(model.bdd, dataset.feature_names),
        "dataset": {
            "feature_names": list(dataset.feature_names),
            "feature_specs": [list(s) for s in dataset.feature_specs],
            "label_names": list(dataset.label_names),
        },
        "manifest": _manifest(data_path, config, timings, []),
    }


def _model_from_doc(doc: dict) -> tuple[LearnedModel, dict]:
    binding = doc["dataset"]
    model = LearnedModel(
        depth=int(doc["h"]),
        mode=doc["mode"],
        bias=doc["bias"],
        ordering=tuple(int(r) for r in doc["ordering_indices"]),
        feature_names=tuple(binding["feature_names"]),
        table=TruthTable(doc["table"]),
        bdd=bdd_from_json(doc["bdd"]),
        train_accuracy=float(doc["metrics"]["train_accuracy"]),
        optimal=bool(doc["metrics"]["optimal"]),
        literal_count=int(doc["metrics"]["literal_count"]),
        solver_stats=dict(doc["metrics"].get("solver", {})),
    )
    return model, binding


def cmd_binarize(args) -> int:
    dataset = _load_dataset(args.input, args.label)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(dataset.feature_names) + ["label"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow(list(row) + [label])
    _atomic_write(Path(args.output), buf.getvalue())
    print(f"wrote {args.output}: M={dataset.m} K={dataset.k}")
    return EXIT_OK


def cmd_encode(args) -> int:
    _checked_options(args, lambda: encode.check_depth(args.depth))
    dataset = _load_dataset(args.input, args.label)
    encoder, emitter = ENCODINGS[args.model]
    t0 = time.monotonic()
    formula, ctx = getattr(encode, encoder)(dataset, args.depth)
    buf = io.StringIO()
    getattr(cnf, emitter)(formula, buf)
    out = Path(args.output)
    _atomic_write(out, buf.getvalue())
    context_path = Path(args.context) if args.context else out.with_suffix(".context.json")
    doc = ctx.to_json()
    lits = cnf.literal_count(formula)
    doc["literal_count"] = lits
    doc["label_names"] = list(dataset.label_names)
    doc["feature_specs"] = [list(s) for s in dataset.feature_specs]
    _write_json(context_path, doc)
    elapsed = time.monotonic() - t0
    print(
        f"wrote {out} ({formula.var_count} vars, "
        f"{len(formula.hard) + len(formula.soft)} clauses, "
        f"{lits} literals) and {context_path} "
        f"in {elapsed:.2f}s"
    )
    return EXIT_OK


def _learn_config(args) -> LearnConfig:
    preselect = None
    if args.preselect == "cart":
        preselect = PreselectConfig(
            max_depth=args.preselect_depth or 2 * args.depth,
            min_leaf=args.preselect_min_leaf,
        )
    return _checked_options(
        args,
        lambda: LearnConfig(
            depth=args.depth,
            mode=args.mode,
            bias=args.bias,
            preselect=preselect,
            solver_cmd=_default_solver(args.solver),
            budget=args.budget,
            seed=args.seed,
        ),
    )


def _learn_config_doc(cfg: LearnConfig, label: str) -> dict:
    return {
        "depth": cfg.depth,
        "mode": cfg.mode,
        "bias": cfg.bias,
        "preselect": cfg.preselect.__dict__ if cfg.preselect else None,
        "solver": cfg.solver_cmd or "embedded",
        "budget": cfg.budget,
        "seed": cfg.seed,
        "label": label,
    }


def cmd_learn(args) -> int:
    dataset = _load_dataset(args.input, args.label)
    cfg = _learn_config(args)
    t0 = time.monotonic()
    model = learn(dataset, cfg)
    elapsed = time.monotonic() - t0
    config = _learn_config_doc(cfg, args.label)
    doc = _model_doc(model, args.input, dataset, config, {"learn_seconds": elapsed})
    _write_json(Path(args.out), doc)
    if args.dot:
        buf = io.StringIO()
        export_dot(model.bdd, buf, dataset.feature_names)
        _atomic_write(Path(args.dot), buf.getvalue())
    print(
        f"learned depth-{model.depth} model: train accuracy "
        f"{model.train_accuracy:.4f}, {node_count(model.bdd)} nodes, "
        f"optimal={model.optimal}"
    )
    return EXIT_OK


def cmd_mindepth(args) -> int:
    if args.h0 < 1:
        raise UsageError(f"bddlearn {args.command}: h0 must be >= 1")
    # the options of the first probe, which starts at depth min(h0, K)
    _checked_options(
        args,
        lambda: LearnConfig(depth=args.h0, mode=search.MODE_SAT, budget=args.budget),
    )
    dataset = _load_dataset(args.input, args.label)
    t0 = time.monotonic()
    result = min_depth(
        dataset,
        args.h0,
        budget=args.budget,
        seed=args.seed,
        solver_cmd=_default_solver(args.solver),
        strategy="binary" if args.binary else "linear",
    )
    elapsed = time.monotonic() - t0
    config = {
        "h0": args.h0,
        "budget": args.budget,
        "seed": args.seed,
        "label": args.label,
        "strategy": "binary" if args.binary else "linear",
    }
    doc = _model_doc(result.model, args.input, dataset, config, {"search_seconds": elapsed})
    doc["min_depth"] = {
        "depth": result.depth,
        "unsat_depth": result.unsat_depth,
        "probes": [[d, s] for d, s in result.probes],
    }
    _write_json(Path(args.out), doc)
    print(f"minimum depth {result.depth} (UNSAT certificate at {result.unsat_depth})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        doc = json.load(handle)
    model, binding = _model_from_doc(doc)
    raw = load_csv(args.test, args.label)
    test = bind_like(
        raw,
        [tuple(s) for s in binding["feature_specs"]],
        tuple(binding["label_names"]),
        binding["feature_names"],
    )
    accuracy = evaluate(model, test)
    print(f"{accuracy:.6f}")
    return EXIT_OK


def cmd_decode(args) -> int:
    ctx_doc = json.loads(Path(args.context).read_text(encoding="utf-8"))
    ctx = encode.EncodingContext.from_json(ctx_doc)
    with open(args.solver_output, encoding="utf-8") as handle:
        model_assignment = cnf.parse_model(handle.read())
    dataset = _load_dataset(args.data, args.label)
    positions, table = encode.decode(model_assignment, ctx)
    model = search.model_from_table(
        dataset,
        positions,
        table,
        depth=ctx.depth,
        mode=search.MODE_SAT if ctx.variant != encode.MAXSAT else search.MODE_MAXSAT,
        bias=args.bias,
        optimal=False,
        literal_count=int(ctx_doc.get("literal_count", 0)),
        solver_stats={"solver": "external", "decoded": True},
    )
    config = {"bias": args.bias, "context": str(args.context), "label": args.label}
    doc = _model_doc(model, args.data, dataset, config, {})
    _write_json(Path(args.out), doc)
    print(f"decoded model: train accuracy {model.train_accuracy:.4f}")
    return EXIT_OK


def cmd_cv(args) -> int:
    dataset = _load_dataset(args.input, args.label)
    cfg = _learn_config(args)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        raise UsageError("no seeds given")
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    t0 = time.monotonic()
    report = cross_validate(dataset, cfg, args.k, seeds, jobs=jobs)
    elapsed = time.monotonic() - t0
    config = {"k": args.k, "seeds": seeds, **_learn_config_doc(cfg, args.label)}
    doc = report.to_json()
    doc["format"] = "bddlearn-cv/1"
    doc["manifest"] = _manifest(args.input, config, {"cv_seconds": elapsed}, [])
    _write_json(Path(args.out_report), doc)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["seed", "fold", "status", "train", "test", "size", "e_size", "time", "opt"]
    )
    for run in report.runs:
        writer.writerow(
            [
                run.seed,
                run.fold,
                run.status,
                run.train_accuracy,
                run.test_accuracy,
                run.node_count,
                run.literal_count,
                run.solve_seconds,
                run.optimal,
            ]
        )
    _atomic_write(Path(args.out_csv), buf.getvalue())
    agg = report.aggregates
    print(
        f"{agg['runs']} runs ({agg['failed']} failed): "
        f"train {agg['train_accuracy']:.4f} test {agg['test_accuracy']:.4f} "
        f"opt rate {agg['optimal_rate']:.2f}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bddlearn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("input", help="training data CSV")
        p.add_argument("--label", required=True, help="name of the label column")

    p = sub.add_parser("binarize", help="one-hot binarize a CSV")
    add_data_flags(p)
    p.add_argument("output", help="binarized CSV to write")
    p.set_defaults(func=cmd_binarize)

    p = sub.add_parser("encode", help="emit a DIMACS encoding plus context sidecar")
    add_data_flags(p)
    p.add_argument("output", help="CNF/WCNF file to write")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--model", choices=list(ENCODINGS), default="bdd2")
    p.add_argument("--context", help="context sidecar path (default: <output>.context.json)")
    p.set_defaults(func=cmd_encode)

    def add_learn_flags(p):
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--mode", choices=["sat", "maxsat"], default="maxsat")
        p.add_argument("--bias", choices=search.BIASES, default="S")
        p.add_argument("--preselect", choices=["off", "cart"], default="off")
        p.add_argument(
            "--preselect-depth",
            type=int,
            default=None,
            help="tree depth for preselection (default: 2*depth)",
        )
        p.add_argument("--preselect-min-leaf", type=int, default=1)
        p.add_argument(
            "--solver",
            default=None,
            help="'embedded' or an external command template with {file} "
            "(default: $BDD_SOLVER_CMD or embedded)",
        )
        p.add_argument("--budget", type=float, default=900.0, help="seconds")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("learn", help="learn a classifier at a fixed depth")
    add_data_flags(p)
    add_learn_flags(p)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--dot", help="optional Graphviz rendering of the diagram")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("mindepth", help="find the minimum depth for perfect classification")
    add_data_flags(p)
    p.add_argument("--h0", type=int, default=7, help="initial depth for the search")
    p.add_argument("--budget", type=float, default=900.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver", default=None)
    p.add_argument("--binary", action="store_true", help="bisect instead of stepping")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_mindepth)

    p = sub.add_parser("evaluate", help="score a model JSON against a test CSV")
    p.add_argument("model", help="model JSON from learn/mindepth/decode")
    p.add_argument("test", help="test data CSV")
    p.add_argument("--label", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("decode", help="turn an external solver model into a model JSON")
    p.add_argument("--context", required=True, help="context sidecar from encode")
    p.add_argument("--solver-output", required=True, help="file with s/v lines")
    p.add_argument("--data", required=True, help="training data CSV")
    p.add_argument("--label", required=True)
    p.add_argument("--bias", choices=search.BIASES, default="S")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("cv", help="k-fold cross-validation over several seeds")
    add_data_flags(p)
    add_learn_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated split seeds")
    p.add_argument("--jobs", type=int, default=None, help="default: all cores")
    p.add_argument("--out-report", required=True, help="JSON report to write")
    p.add_argument("--out-csv", required=True, help="per-run CSV to write")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LearnError, solve.SolverError, cnf.ModelParseError, encode.DecodeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
