"""Bridge to external DIMACS solvers via a command template.

The template must contain a ``{file}`` placeholder; the formula is
written as CNF (hard-only) or WCNF (with soft clauses) into the working
directory, the command is run with the environment passed through, and
the ``s``/``v``/``o`` lines of its stdout are parsed.  Models are always
re-checked locally before they are accepted; exit codes 10/20 are used
as status hints when no status line is printed.  Errors about output
that cannot be used quote the last lines of the solver's stderr.  A
MaxSAT model has its falsified soft units made true wherever no clause
breaks (:func:`bddlearn.cnf.soft_unit_repair`) before its cost is
reported, so a non-optimal answer reports its real cost.

The command runs with its working directory set to ``workdir`` (a
temporary directory when called from ``search``), so relative paths in
the command or in the environment, ``PYTHONPATH`` for example, are
resolved from there rather than from the caller's directory.
"""

from __future__ import annotations

import shlex
import subprocess
import time
from pathlib import Path

from .. import cnf
from .cdcl import SAT, UNSAT, SatResult, SatStats
from .maxsat import FEASIBLE, OPTIMUM, MaxSatResult, SolverError


class IntegrationError(SolverError):
    """External solver output that cannot be trusted or parsed."""


def _stderr_tail(stderr: str) -> str:
    """The last five stderr lines, as a suffix for an error message."""
    tail = stderr.strip().splitlines()[-5:]
    return "; solver stderr: " + " | ".join(tail) if tail else ""


def _complete(model: dict[int, int], var_count: int) -> dict[int, int]:
    # Some solvers omit variables they never touched; default them to 0.
    return {v: model.get(v, 0) for v in range(1, var_count + 1)}


def external_solve(
    formula: cnf.Formula,
    solver_cmd: str,
    workdir: str | Path,
    budget: float | None = None,
) -> SatResult | MaxSatResult:
    if "{file}" not in solver_cmd:
        raise ValueError("solver command template must contain '{file}'")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    is_wcnf = bool(formula.soft)
    path = workdir / ("formula.wcnf" if is_wcnf else "formula.cnf")
    with open(path, "w", encoding="ascii") as out:
        if is_wcnf:
            cnf.emit_dimacs_wcnf(formula, out)
        else:
            cnf.emit_dimacs_cnf(formula, out)

    argv = [arg.replace("{file}", str(path)) for arg in shlex.split(solver_cmd)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=workdir,
            capture_output=True,
            text=True,
            timeout=budget,
        )
    except FileNotFoundError as exc:
        raise IntegrationError(f"solver command not found: {argv[0]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise IntegrationError(f"solver exceeded budget of {budget}s") from exc
    elapsed = time.monotonic() - start
    tail = _stderr_tail(proc.stderr)

    try:
        parsed = cnf.parse_solver_output(proc.stdout)
    except cnf.ModelParseError as exc:
        raise IntegrationError(f"unparsable solver output: {exc}{tail}") from exc
    status = parsed.status
    if status is None:
        if proc.returncode == 10 and parsed.model is not None:
            status = "SAT"
        elif proc.returncode == 20:
            status = "UNSAT"
        else:
            raise IntegrationError(
                f"no status line and exit code {proc.returncode} is not a hint"
                f"{tail}"
            )

    stats = SatStats(elapsed=elapsed)
    if status == "UNSAT":
        if is_wcnf:
            raise SolverError("hard clauses are unsatisfiable")
        return SatResult(UNSAT, None, stats)
    if status not in ("SAT", "OPTIMUM"):
        raise IntegrationError(
            f"solver finished without an answer ({status}){tail}"
        )
    if parsed.model is None:
        raise IntegrationError(f"satisfiable status but no v-line{tail}")
    model = _complete(parsed.model, formula.var_count)
    if not cnf.verify_model(formula, model):
        raise IntegrationError(
            f"solver model fails local hard-clause verification{tail}"
        )
    if not is_wcnf:
        return SatResult(SAT, model, stats)
    cost = cnf.falsified_soft_weight(formula, model)
    if parsed.cost is not None and parsed.cost != cost:
        raise IntegrationError(
            f"solver reported cost {parsed.cost} but the model falsifies {cost}"
            f"{tail}"
        )
    # a non-optimal model may falsify soft units it need not falsify
    model = cnf.soft_unit_repair(formula)(model)
    cost = cnf.falsified_soft_weight(formula, model)
    optimal = status == "OPTIMUM"
    return MaxSatResult(
        OPTIMUM if optimal else FEASIBLE, model, cost, optimal, stats, 1
    )
