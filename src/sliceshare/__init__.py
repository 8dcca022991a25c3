"""Share-constrained multi-resource allocation and elastic-traffic simulation.

The model module defines instances (resources, slices, user classes),
the population weight rules (share-constrained, dominant-share and
discriminatory processor sharing), and feasibility checks.  The engines
module solves the weighted alpha-fair allocation problem, its max-min
limit and the static partition.  The analysis module evaluates utilities,
the efficiency/alignment factorization, and the protection, envy, and
surrogate-gap bounds.  The
sim module runs the discrete-event traffic simulation; scenario and cli
wrap everything in a file format and command line.
"""

from .model import (
    Resource, SliceSpec, UserClass, Instance, ValidationError,
    validate_instance, PopulationState, ClassWeights, scwa_weights,
    drf_weights, dps_weights, drf_unconstrained_weights, Allocation,
    FeasibilityReport, feasibility_report, EXPONENTIAL, DETERMINISTIC,
)
from .engines import (
    SolverOptions, SolverError, Residuals, SolveResult, DEFAULT_OPTIONS,
    solve_alpha_scs, maxmin_waterfill, static_partition,
)
from .analysis import (
    alignment_index, UtilityReport, utility,
    FactorizationReport, factorize, BoundReport,
    protection_report, envy_report, surrogate_report,
)
from .oracle import (
    oracle_concave_opt, oracle_maxmin, VariationalReport, variational_check,
)
from .sim import (
    EngineSpec, Scenario, SliceStats, Metrics, TraceEvent, Trace, RunResult,
    Simulation, run_simulation, busy_fractions, stability_probe,
    StabilityReport, Summary, replicate, ENGINES,
)
from .scenario import (
    ScenarioParseError, RunBlock, SweepSpec, ScenarioFile,
    parse_scenario_text, apply_sweep, builtin_names, load_builtin,
)

__version__ = "0.1.0"

__all__ = [
    "Resource", "SliceSpec", "UserClass", "Instance", "ValidationError",
    "validate_instance", "PopulationState", "ClassWeights", "scwa_weights",
    "drf_weights", "dps_weights", "drf_unconstrained_weights", "Allocation",
    "FeasibilityReport", "feasibility_report", "EXPONENTIAL", "DETERMINISTIC",
    "SolverOptions", "SolverError", "Residuals", "SolveResult",
    "DEFAULT_OPTIONS", "solve_alpha_scs", "maxmin_waterfill",
    "static_partition",
    "alignment_index", "UtilityReport", "utility",
    "FactorizationReport", "factorize", "BoundReport", "protection_report",
    "envy_report", "surrogate_report",
    "oracle_concave_opt", "oracle_maxmin", "VariationalReport",
    "variational_check",
    "EngineSpec", "Scenario", "SliceStats", "Metrics", "TraceEvent", "Trace",
    "RunResult", "Simulation", "run_simulation", "busy_fractions",
    "stability_probe", "StabilityReport", "Summary", "replicate",
    "ENGINES",
    "ScenarioParseError", "RunBlock", "SweepSpec", "ScenarioFile",
    "parse_scenario_text", "apply_sweep", "builtin_names", "load_builtin",
    "__version__",
]
