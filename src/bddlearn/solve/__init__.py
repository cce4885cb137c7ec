"""Embedded CDCL, the one-call MaxSAT certificate and the external-solver bridge."""

from .cdcl import SAT, TIMEOUT, UNSAT, CdclSolver, SatResult, SatStats, sat_solve
from .external import IntegrationError, external_solve
from .maxsat import (
    FEASIBLE,
    OPTIMUM,
    TIMEOUT_NO_SOLUTION,
    MaxSatResult,
    SolverError,
    maxsat_solve,
)

__all__ = [
    "SAT",
    "UNSAT",
    "TIMEOUT",
    "OPTIMUM",
    "FEASIBLE",
    "TIMEOUT_NO_SOLUTION",
    "CdclSolver",
    "SatResult",
    "SatStats",
    "MaxSatResult",
    "SolverError",
    "IntegrationError",
    "sat_solve",
    "maxsat_solve",
    "external_solve",
]
