"""Equilibrium risk premia in a market of many exponential-utility agents.

The package constructs the endogenous market price of risk
theta = -gamma_hat * E[Z^{0,par} | common noise]^T by solving the
quadratic-growth BSDE of a representative continuum of agents: in closed
form for exponential-quadratic-Gaussian liabilities (Riccati ODEs), and by
regression Monte Carlo with a mean-field fixed-point iteration in general.
Finite-N market clearing at rate O(1/N) and the security-replacement
invariance of the equilibrium are verified numerically.
"""

from .bsde import (
    BsdeSolution,
    Perturbation,
    VerificationReport,
    bmo_proxy,
    doleans_weights,
    optimal_strategy,
    solve_agent_bsde,
    solve_under_q,
    verify_condition_r,
)
from .clearing import (
    ClearingReport,
    DiscreteDist,
    Population,
    ReplacementSpec,
    agent_strategies,
    build_population,
    clearing_residual,
    fresh_idio_levels,
    random_replacement,
    rate_fit,
    replacement_invariance,
    run_clearing_study,
    solve_equilibrium_cloud,
)
from .config import (
    Scenario,
    ScenarioConfig,
    apply_overrides,
    build_scenario,
    config_from_dict,
    config_sha256,
    config_to_dict,
    load_config,
)
from .equilibrium import (
    EquilibriumPath,
    closed_form_error,
    equilibrium_path,
    martingale_check,
    sign_law_violations,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    IllConditionedQ,
    InsufficientSpan,
    MfequilError,
    NonpositiveGamma,
    PicardDiverged,
    RegressionRankDeficient,
    SingularSigma,
    WeightDegenerate,
)
from .liabilities import LiabilitySpec, terminal_g
from .market import (
    MarketSpec,
    PopulationStats,
    TimeGrid,
    gamma_hat,
    market_geometry,
    validate_market,
)
from .meanfield import (
    ContractionDiagnostics,
    MeanFieldSolution,
    smallness_from_liability,
    smallness_report,
    solve_mean_field,
)
from .paths import PathBundle, simulate_paths
from .regression import BasisEngine, RegressionBasis, feature_columns
from .riccati import (
    EqgSpec,
    RiccatiSolution,
    riccati_closed_form,
    riccati_ode,
)

__version__ = "0.1.0"
