"""Accelerated proximal-gradient laboratory.

Composite problems h = f + g with a beta-smooth f, momentum schedules
for the accelerated forward-backward methods (plain, accelerated,
monotone accelerated), instrumented solver traces, and certificate-style
diagnostics over those traces.
"""

from .catalog import build_nonsmooth, build_problem
from .errors import (
    AdmissibilityError,
    ApgError,
    ConfigError,
    OracleNotApplicable,
    OracleUnreliable,
    OutsideDomain,
    ParameterError,
)
from .problem import (
    CompositeProblem,
    NonsmoothTerm,
    SmoothTerm,
    evaluate_h,
    forward_backward_step,
    key_inequality_residual,
)
from .schedules import Schedule, canonical_schedule_spec, check_admissibility, make_schedule, prefix
from .solvers import (
    SolverOptions,
    SolverTrace,
    fista_run,
    ista_run,
    mfista_run,
    read_trace_csv,
    run_algorithm,
    run_batch,
    write_trace_csv,
)
from .diagnostics import build_report, reference_min, report_to_json, resolve_reference

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ApgError",
    "CompositeProblem",
    "ConfigError",
    "NonsmoothTerm",
    "OracleNotApplicable",
    "OracleUnreliable",
    "OutsideDomain",
    "ParameterError",
    "Schedule",
    "SmoothTerm",
    "SolverOptions",
    "SolverTrace",
    "build_nonsmooth",
    "build_problem",
    "build_report",
    "canonical_schedule_spec",
    "check_admissibility",
    "evaluate_h",
    "fista_run",
    "forward_backward_step",
    "ista_run",
    "key_inequality_residual",
    "make_schedule",
    "mfista_run",
    "prefix",
    "read_trace_csv",
    "reference_min",
    "report_to_json",
    "resolve_reference",
    "run_algorithm",
    "run_batch",
    "write_trace_csv",
]
