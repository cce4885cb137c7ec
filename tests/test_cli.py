import json
import sys

import pytest

from bddlearn.cli import main


def run(*argv):
    return main(list(argv))


def _strip_volatile(doc):
    """Drop wall-clock fields so reruns compare byte-identically."""
    doc = json.loads(json.dumps(doc))
    doc.get("manifest", {}).pop("created", None)
    doc.get("manifest", {}).pop("timings", None)
    metrics = doc.get("metrics", {})
    metrics.get("solver", {}).pop("elapsed", None)
    for row in doc.get("runs", []):
        row.pop("solve_seconds", None)
    doc.get("aggregates", {}).pop("solve_seconds", None)
    return doc


def test_binarize(tmp_path, demo8_csv, capsys):
    out = tmp_path / "bin.csv"
    assert run("binarize", str(demo8_csv), str(out), "--label", "label") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "f1,f2,f3,f4,label"
    assert lines[1] == "1,0,1,0,0"
    assert "M=8 K=4" in capsys.readouterr().out


def test_missing_label_flag_is_usage_error(tmp_path, demo8_csv, capsys):
    out = tmp_path / "bin.csv"
    assert run("binarize", str(demo8_csv), str(out)) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run("frobnicate") == 1


def test_missing_input_file(tmp_path, capsys):
    assert (
        run(
            "learn",
            str(tmp_path / "nope.csv"),
            "--label",
            "label",
            "--depth",
            "2",
            "--out",
            str(tmp_path / "m.json"),
        )
        == 1
    )


def test_empty_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("a,label\n")
    assert (
        run(
            "learn",
            str(path),
            "--label",
            "label",
            "--depth",
            "2",
            "--out",
            str(tmp_path / "m.json"),
        )
        == 2
    )
    assert "data error" in capsys.readouterr().err


def test_learn_writes_model_and_dot(tmp_path, demo8_csv, capsys):
    out = tmp_path / "model.json"
    dot = tmp_path / "model.dot"
    code = run(
        "learn",
        str(demo8_csv),
        "--label",
        "label",
        "--depth",
        "2",
        "--mode",
        "maxsat",
        "--bias",
        "S",
        "--budget",
        "60",
        "--out",
        str(out),
        "--dot",
        str(dot),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "bddlearn-model/1"
    assert doc["h"] == 2
    assert doc["metrics"]["train_accuracy"] == 1.0
    assert doc["metrics"]["optimal"] is True
    assert doc["metrics"]["solver"]["seed_cost"] >= doc["metrics"]["solver"]["cost"]
    assert doc["metrics"]["solver"]["core_rows"] == 0  # a witness encodes no proof
    assert doc["metrics"]["solver"]["core_pairs"] == 0
    assert set(doc["ordering"]) <= {"f1", "f2", "f3", "f4"}
    assert len(doc["table"]) == 4
    assert "digraph" in dot.read_text()
    assert "train accuracy 1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["sat", "maxsat"])
def test_learn_with_no_varying_feature_is_a_data_error(tmp_path, capsys, mode):
    # one-hot encoding of a constant column leaves no feature
    data = tmp_path / "constant.csv"
    data.write_text("a,label\nx,0\nx,1\n")
    out = tmp_path / "m.json"
    code = run(
        "learn", str(data), "--label", "label", "--depth", "1", "--mode", mode,
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "depth 1 is above the number of features, 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_learn_depth_insufficient_is_solver_error(tmp_path, demo8_csv, capsys):
    code = run(
        "learn",
        str(demo8_csv),
        "--label",
        "label",
        "--depth",
        "1",
        "--mode",
        "sat",
        "--out",
        str(tmp_path / "m.json"),
    )
    assert code == 3
    assert "depth 1 insufficient" in capsys.readouterr().err


def _wide_csv(tmp_path):
    """17 columns of bits, each set on one row: 17 or more features."""
    path = tmp_path / "wide.csv"
    lines = [",".join(f"c{r}" for r in range(17)) + ",label"]
    for q in range(18):
        lines.append(",".join("1" if q == r else "0" for r in range(17)) + f",{q % 2}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "wide, argv, message",
    [
        (False, ["learn", "--depth", "0"], "depth must be >= 1"),
        (False, ["learn", "--depth", "2", "--budget", "0"], "budget must be > 0"),
        (False, ["cv", "--depth", "0"], "depth must be >= 1"),
        (False, ["cv", "--depth", "2", "--budget", "0"], "budget must be > 0"),
        (False, ["mindepth", "--h0", "0"], "h0 must be >= 1"),
        (False, ["encode", "--depth", "0"], "depth must be >= 1"),
        (True, ["learn", "--depth", "17"], "depth 17 exceeds the supported maximum 16"),
        (True, ["cv", "--depth", "17"], "depth 17 exceeds the supported maximum 16"),
        (True, ["mindepth", "--h0", "17"], "depth 17 exceeds the supported maximum 16"),
        (True, ["encode", "--depth", "17"], "depth 17 exceeds the supported maximum 16"),
    ],
)
def test_an_option_out_of_range_is_a_one_line_usage_error(
    tmp_path, demo8_csv, capsys, wide, argv, message
):
    data = _wide_csv(tmp_path) if wide else demo8_csv
    command, *options = argv
    out = tmp_path / "out"
    outputs = {
        "learn": ["--out", str(out / "m.json")],
        "cv": ["--out-report", str(out / "r.json"), "--out-csv", str(out / "r.csv")],
        "mindepth": ["--out", str(out / "m.json")],
        "encode": [str(out / "f.cnf")],
    }[command]
    assert run(command, str(data), "--label", "label", *options, *outputs) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"bddlearn {command}: {message}"]
    assert not out.exists()


def test_learn_output_is_idempotent(tmp_path, demo8_csv):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert (
            run(
                "learn",
                str(demo8_csv),
                "--label",
                "label",
                "--depth",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            )
            == 0
        )
    a = _strip_volatile(json.loads(out_a.read_text()))
    b = _strip_volatile(json.loads(out_b.read_text()))
    assert a == b


def test_encode_bdd2_beats_bdd1(tmp_path, capsys):
    import random

    rng = random.Random(2)
    rows = ["".join(str(rng.randint(0, 1)) for _ in range(20)) for _ in range(100)]
    lines = [",".join(f"f{i}" for i in range(20)) + ",label"]
    for row in rows:
        lines.append(",".join(row) + f",{rng.randint(0, 1)}")
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(lines) + "\n")

    counts = {}
    for variant in ("bdd1", "bdd2"):
        out = tmp_path / f"{variant}.cnf"
        assert (
            run(
                "encode",
                str(data),
                str(out),
                "--label",
                "label",
                "--depth",
                "4",
                "--model",
                variant,
            )
            == 0
        )
        ctx = json.loads((tmp_path / f"{variant}.context.json").read_text())
        counts[variant] = ctx["literal_count"]
        assert out.read_text().startswith("p cnf ")
    assert counts["bdd2"] < counts["bdd1"]


def test_encode_maxsat_writes_wcnf(tmp_path, demo8_csv):
    out = tmp_path / "f.wcnf"
    assert (
        run(
            "encode",
            str(demo8_csv),
            str(out),
            "--label",
            "label",
            "--depth",
            "2",
            "--model",
            "maxsat",
        )
        == 0
    )
    text = out.read_text()
    assert text.startswith("p wcnf ")
    # one soft unit per example: the 8 weight-1 lines
    assert sum(line.startswith("1 ") for line in text.splitlines()) == 8
    ctx = json.loads((tmp_path / "f.context.json").read_text())
    assert ctx["variant"] == "maxsat"
    assert ctx["depth"] == 2


@pytest.mark.parametrize(
    "variant, digest, sizes",
    [
        (
            "bdd2",
            "5054074cb0262c6e917a0d8525db25dbea08840358d6180d9bb3ec0247edd708",
            "516 vars, 7550 clauses, 16180 literals",
        ),
        (
            "maxsat",
            "f8ee3a1ceeed0991f112f39c872cf582d58e2a02d58b2ef622c2763a17975c95",
            "576 vars, 7610 clauses, 16720 literals",
        ),
    ],
)
def test_encode_output_is_pinned(tmp_path, capsys, monkeypatch, variant, digest, sizes):
    # sha256 of the file, taken before the feature-value links became a
    # clause family; the command counts and writes it without its clauses
    import hashlib
    import random

    from bddlearn import cnf

    def no_lists(self):
        raise AssertionError("the encode command built the link lists")

    monkeypatch.setattr(cnf.ValueLinks, "__iter__", no_lists)

    rng = random.Random(5)
    lines = [",".join(f"c{i}" for i in range(12)) + ",label"]
    for _ in range(60):
        row = [rng.choice("abc") for _ in range(12)]
        label = "yes" if (row[0] == "a") != (row[3] == "b") else "no"
        lines.append(",".join(row + [label]))
    data = tmp_path / "seeded.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / f"{variant}.out"
    argv = ["encode", str(data), str(out), "--label", "label", "--depth", "3"]
    assert run(*argv, "--model", variant) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert f"({sizes})" in capsys.readouterr().out


def test_evaluate_round_trip(tmp_path, demo8_csv, capsys):
    model_path = tmp_path / "model.json"
    assert (
        run(
            "learn",
            str(demo8_csv),
            "--label",
            "label",
            "--depth",
            "2",
            "--out",
            str(model_path),
        )
        == 0
    )
    capsys.readouterr()
    assert run("evaluate", str(model_path), str(demo8_csv), "--label", "label") == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_mindepth_cli(tmp_path, demo8_csv, capsys):
    out = tmp_path / "model.json"
    assert (
        run(
            "mindepth",
            str(demo8_csv),
            "--label",
            "label",
            "--h0",
            "7",
            "--out",
            str(out),
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["min_depth"]["depth"] == 2
    assert doc["min_depth"]["unsat_depth"] == 1
    assert doc["h"] == 2
    assert "minimum depth 2" in capsys.readouterr().out


def test_decode_round_trip_without_resolving(
    tmp_path, demo8_csv, dimacs_shim, capsys
):
    cnf_path = tmp_path / "f.cnf"
    assert (
        run(
            "encode",
            str(demo8_csv),
            str(cnf_path),
            "--label",
            "label",
            "--depth",
            "2",
            "--model",
            "bdd2",
        )
        == 0
    )
    # stand-in for an external solver run on the emitted file
    import subprocess

    solver_out = tmp_path / "solver.out"
    proc = subprocess.run(
        [sys.executable, str(dimacs_shim), str(cnf_path)], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    solver_out.write_bytes(proc.stdout)
    model_path = tmp_path / "decoded.json"
    assert (
        run(
            "decode",
            "--context",
            str(tmp_path / "f.context.json"),
            "--solver-output",
            str(solver_out),
            "--data",
            str(demo8_csv),
            "--label",
            "label",
            "--out",
            str(model_path),
        )
        == 0
    )
    capsys.readouterr()
    assert run("evaluate", str(model_path), str(demo8_csv), "--label", "label") == 0
    assert capsys.readouterr().out.strip() == "1.000000"


@pytest.mark.parametrize(
    "solver_output, message",
    [
        ("s UNSATISFIABLE\n", "solver error: solver reported UNSATISFIABLE"),
        ("s SATISFIABLE\nv -1 0\n", "solver error: corrupt model: position 1 selects 0 features"),
    ],
)
def test_decode_of_a_failed_solver_run_is_a_solver_error(
    tmp_path, demo8_csv, capsys, solver_output, message
):
    cnf_path = tmp_path / "f.cnf"
    argv = ["encode", str(demo8_csv), str(cnf_path), "--label", "label", "--depth", "2"]
    assert run(*argv) == 0
    solver_out = tmp_path / "solver.out"
    solver_out.write_text(solver_output)
    model_path = tmp_path / "decoded.json"
    code = run(
        "decode",
        "--context",
        str(tmp_path / "f.context.json"),
        "--solver-output",
        str(solver_out),
        "--data",
        str(demo8_csv),
        "--label",
        "label",
        "--out",
        str(model_path),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [message]
    assert not model_path.exists()


@pytest.mark.parametrize("bias", ["S", "P", "C"])
@pytest.mark.parametrize("depth", ["2", "3"])
def test_decode_matches_learn_for_each_bias(
    tmp_path, demo8_csv, dimacs_shim, depth, bias
):
    # `learn --mode sat` runs the shim as its external solver, which takes
    # no greedy witness, so both paths build the model from the shim's
    # assignment of the same clauses; at depth 3 one cell captures no
    # example and bias C re-decides it
    import subprocess

    cnf_path = tmp_path / "f.cnf"
    data = (str(demo8_csv), "--label", "label", "--depth", depth)
    assert run("encode", data[0], str(cnf_path), *data[1:], "--model", "bdd2") == 0
    proc = subprocess.run(
        [sys.executable, str(dimacs_shim), str(cnf_path)], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    solver_out = tmp_path / "solver.out"
    solver_out.write_bytes(proc.stdout)
    decoded, learned = tmp_path / "decoded.json", tmp_path / "learned.json"
    code = run(
        "decode",
        "--context",
        str(tmp_path / "f.context.json"),
        "--solver-output",
        str(solver_out),
        "--data",
        str(demo8_csv),
        "--label",
        "label",
        "--bias",
        bias,
        "--out",
        str(decoded),
    )
    assert code == 0
    shim_cmd = f"{sys.executable} {dimacs_shim} {{file}}"
    code = run(
        "learn", *data, "--mode", "sat", "--bias", bias, "--solver", shim_cmd,
        "--out", str(learned),
    )
    assert code == 0
    a, b = json.loads(decoded.read_text()), json.loads(learned.read_text())
    assert a["bias"] == b["bias"] == bias
    for key in ("table", "ordering_indices", "bdd"):
        assert a[key] == b[key]
    assert a["metrics"]["train_accuracy"] == b["metrics"]["train_accuracy"]


def test_cv_cli(tmp_path, demo8_csv, capsys):
    report = tmp_path / "report.json"
    runs_csv = tmp_path / "runs.csv"
    code = run(
        "cv",
        str(demo8_csv),
        "--label",
        "label",
        "--depth",
        "2",
        "--k",
        "2",
        "--seeds",
        "1,2",
        "--jobs",
        "1",
        "--budget",
        "60",
        "--out-report",
        str(report),
        "--out-csv",
        str(runs_csv),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["format"] == "bddlearn-cv/1"
    assert len(doc["runs"]) == 4
    lines = runs_csv.read_text().splitlines()
    assert lines[0] == "seed,fold,status,train,test,size,e_size,time,opt"
    assert len(lines) == 5


def test_cv_report_idempotent_modulo_timing(tmp_path, demo8_csv):
    docs = []
    for name in ("r1", "r2"):
        report = tmp_path / f"{name}.json"
        assert (
            run(
                "cv",
                str(demo8_csv),
                "--label",
                "label",
                "--depth",
                "2",
                "--k",
                "2",
                "--seeds",
                "3",
                "--jobs",
                "1",
                "--out-report",
                str(report),
                "--out-csv",
                str(tmp_path / f"{name}.csv"),
            )
            == 0
        )
        docs.append(_strip_volatile(json.loads(report.read_text())))
    assert docs[0] == docs[1]


def test_solver_env_default(tmp_path, demo8_csv, dimacs_shim, monkeypatch):
    monkeypatch.setenv("BDD_SOLVER_CMD", f"{sys.executable} {dimacs_shim} {{file}}")
    out = tmp_path / "model.json"
    code = run(
        "learn",
        str(demo8_csv),
        "--label",
        "label",
        "--depth",
        "2",
        "--mode",
        "sat",
        "--out",
        str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["metrics"]["train_accuracy"] == 1.0


def test_importing_the_package_loads_no_process_pool():
    # only `cv --jobs N` with N > 1 needs worker processes; every other
    # run should not pay for loading multiprocessing
    import os
    import subprocess
    from pathlib import Path

    import bddlearn

    code = (
        "import sys, bddlearn, bddlearn.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bddlearn.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
