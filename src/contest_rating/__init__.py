"""Rating-protocol design for a two-worker crowdsourcing contest platform.

The package models two long-lived workers who repeatedly compete for a
requester's task, may sabotage each other, and are disciplined only
through a binary public rating updated from noisy observations of their
play. It holds what the CLI runs: monitored expected payoffs,
rating-chain analysis, sustainability (one-shot deviation) checks, the
requester's protocol optimizer with a grid oracle, and a seeded
Monte-Carlo simulator.
"""

from .designer import (
    BasePriceReport,
    CASE_ALPHA_ONE,
    CASE_BETA_ONE,
    CaseResult,
    DesignerConfig,
    DesignOutcome,
    OracleResult,
    brute_force_oracle,
    optimize,
    zero_base_price_check,
)
from .errors import (
    ConfigError,
    DegenerateChain,
    DegenerateDenominator,
    DomainError,
    Infeasible,
    UnsupportedStrategy,
)
from .incentives import (
    ConstraintCoefficients,
    LifetimeValues,
    SustainabilityReport,
    binding_lines,
    constraint_coefficients,
    deviation_value,
    is_sustainable,
    lifetime_values,
)
from .params import (
    DesignParams,
    IntrinsicParams,
    STRATEGIES,
    Strategy,
    default_params,
    design_violations,
    load_config,
    parse_config,
    validate,
    with_params,
)
from .payoffs import (
    against_compliant,
    payoff_line,
    payoff_table,
    perfect_monitoring_matrix,
    realized_mix,
)
from .ratings import (
    StationaryDistribution,
    observed_compliant_prob,
    stationary_distribution,
    transition_kernel,
)
from .requester import social_utility_closed
from .simulate import Estimate, SimConfig, SimResult, run_chain, run_utility, utility_horizon

__all__ = [name for name in dir() if not name.startswith("_")]
