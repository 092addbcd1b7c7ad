"""Competition dynamics with sub-linear cross terms.

Core layers:

* :mod:`lvfte.kinetics`    -- parameter types, regimes, right-hand sides
* :mod:`lvfte.equilibria`  -- nullclines, equilibria, linear stability
* :mod:`lvfte.ode`         -- adaptive integration, finite-time extinction
  events, basins, separatrices, the scalar comparison equation
* :mod:`lvfte.pde`         -- 1-D reaction-diffusion twin with zero-flux
  boundaries and long-run verdicts
* :mod:`lvfte.scan`        -- parallel parameter sweeps
* :mod:`lvfte.config` / :mod:`lvfte.cli` -- INI experiment configs and the
  command-line front end
"""

from .exceptions import (
    CflViolation,
    ConfigError,
    ExpressionError,
    InvalidParameter,
    LvfteError,
    NonConvergence,
    NonFiniteField,
    NonFiniteState,
    NotASaddle,
    NumericalError,
    SingularLinearization,
    StepLimitReached,
    StepSizeUnderflow,
)
from .kinetics import (
    HarvestParams,
    KineticParams,
    Regime,
    Species,
    State2,
    classify_regime,
    harvest_rhs,
    rhs,
    safe_pow,
)
from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    NullclineSide,
    Stability,
    all_equilibria,
    boundary_equilibria,
    classify_stability,
    interior_equilibria,
    jacobian,
    nullcline_value,
)
from .ode import (
    Attractor,
    ComparisonOde,
    FteEvent,
    IntegrateOptions,
    Separatrix,
    Trajectory,
    classify_basin,
    comparison_extinction_time,
    comparison_solution,
    fte_threshold,
    integrate,
    predict_fte,
    trace_separatrix,
)
from .pde import (
    COEXIST,
    Grid1D,
    PdeOptions,
    PdeOutcome,
    PdeParams,
    PdeState,
    RecoveryReport,
    ResourceField,
    U_WINS,
    UNDECIDED,
    V_WINS,
    check_recovery_conditions,
    laplacian_neumann,
    simulate_pde,
    single_species_steady_state,
)
from .scan import (
    OutcomeGrid,
    WindowScan,
    initial_state_for_policy,
    log_axis,
    scan_c1_window,
    scan_diffusion,
)
from .expressions import Expression, parse_expression
from .config import (
    ExperimentConfig,
    apply_overrides,
    config_digest,
    emit_config,
    load_config,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "LvfteError",
    "InvalidParameter",
    "ConfigError",
    "ExpressionError",
    "NumericalError",
    "StepLimitReached",
    "StepSizeUnderflow",
    "NonFiniteState",
    "NotASaddle",
    "SingularLinearization",
    "CflViolation",
    "NonFiniteField",
    "NonConvergence",
    # kinetics
    "KineticParams",
    "HarvestParams",
    "State2",
    "Species",
    "Regime",
    "classify_regime",
    "rhs",
    "harvest_rhs",
    "safe_pow",
    # equilibria
    "Equilibrium",
    "EquilibriumKind",
    "Stability",
    "NullclineSide",
    "nullcline_value",
    "jacobian",
    "classify_stability",
    "boundary_equilibria",
    "interior_equilibria",
    "all_equilibria",
    # ode
    "IntegrateOptions",
    "Trajectory",
    "FteEvent",
    "Attractor",
    "integrate",
    "classify_basin",
    "fte_threshold",
    "predict_fte",
    "Separatrix",
    "trace_separatrix",
    "ComparisonOde",
    "comparison_solution",
    "comparison_extinction_time",
    # pde
    "Grid1D",
    "ResourceField",
    "PdeParams",
    "PdeState",
    "PdeOptions",
    "PdeOutcome",
    "RecoveryReport",
    "U_WINS",
    "V_WINS",
    "COEXIST",
    "UNDECIDED",
    "laplacian_neumann",
    "simulate_pde",
    "single_species_steady_state",
    "check_recovery_conditions",
    # scan
    "OutcomeGrid",
    "WindowScan",
    "initial_state_for_policy",
    "log_axis",
    "scan_diffusion",
    "scan_c1_window",
    # expressions / config
    "Expression",
    "parse_expression",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "emit_config",
    "apply_overrides",
    "config_digest",
]
