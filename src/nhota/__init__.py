"""Composite optimization by higher-order Taylor steps with nonmonotone acceptance.

Minimizes f(x) = F(x) + h(x) where F is p-times differentiable (p = 1 or 2)
and h is convex and prox-friendly.  Steps come from a power-regularized
Taylor model solved inexactly to a verifiable certificate; acceptance is
against a nonmonotone reference value that decays toward the objective.
"""

from .core import (
    CapabilityError,
    CompositeProblem,
    NonsmoothTerm,
    OracleFailure,
    SmoothOracle,
    l1_term,
    prox_l1,
    subdiff_dist_l1,
)
from .driver import IterateTrace, LineSearchFailure, RunConfig, nhota_run
from .inner import InnerSolveFailure, StepCertificate, certify, solve_subproblem
from .metrics import kl_probe, min_prefix, rate_fit, remainder_check, stationarity
from .problems import (
    DiagQuadL1Data,
    PhaseRetrievalData,
    diag_quad_problem,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    load_phase_retrieval,
    phase_oracle,
    phase_retrieval_problem,
    save_phase_retrieval,
)
from .taylor import ModelCenter

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CompositeProblem",
    "DiagQuadL1Data",
    "InnerSolveFailure",
    "IterateTrace",
    "LineSearchFailure",
    "ModelCenter",
    "NonsmoothTerm",
    "OracleFailure",
    "PhaseRetrievalData",
    "RunConfig",
    "SmoothOracle",
    "StepCertificate",
    "certify",
    "diag_quad_problem",
    "exact_solution_diag",
    "gen_diag_quad_l1",
    "gen_phase_retrieval",
    "kl_probe",
    "l1_term",
    "load_phase_retrieval",
    "min_prefix",
    "nhota_run",
    "phase_oracle",
    "phase_retrieval_problem",
    "prox_l1",
    "rate_fit",
    "remainder_check",
    "save_phase_retrieval",
    "solve_subproblem",
    "stationarity",
    "subdiff_dist_l1",
]
