"""Equilibrium balking analysis for a clearing queue in a two-state environment.

Customers arrive at a facility that removes everyone present at once at
random clearing epochs; arrival and clearing rates are modulated by an
alternating two-state environment. Each arriving customer weighs a fixed
service reward against linear waiting cost and decides whether to join.
The package computes, in closed form, the stationary behaviour of the
system and the customers' equilibrium strategies under four information
regimes, and ships two independent numerical oracles (a truncated
balance-equation solver and a discrete-event simulator) to check every
closed form.

Typical use::

    from clearbalk import (ModelParams, RewardCost, validate_params,
                           spectral_quantities, benefit_coefficients,
                           compute_equilibria)

    model = validate_params(ModelParams(2, 1, 1, 3, 1, 2), RewardCost(0.72, 1))
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, RewardCost(0.72, 1))
    report = compute_equilibria(model, spec, coef, RewardCost(0.72, 1))
"""

from .errors import (
    ClearbalkError,
    ConsistencyError,
    FloatRangeError,
    InputError,
    NoInteriorRoot,
    ScanLimitExceeded,
    SingularSystem,
    UnreachableState,
)
from .model import (
    CASE_TOLERANCE,
    SIGN_TOLERANCE,
    CaseKind,
    CaseLabel,
    ModelParams,
    RewardCost,
    ValidatedModel,
    congestion_case,
    validate_params,
)
from .strategies import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    Strategy,
    format_strategy,
    parse_strategy,
)
from .spectral import (
    SpectralData,
    StationaryDistribution,
    spectral_quantities,
    stationary_distribution,
)
from .dominant import (
    CriticalValues,
    DominanceKind,
    DominantStrategySet,
    Regime,
    critical_values,
    dominant_strategies,
)
from .benefit import (
    BenefitCoefficients,
    BenefitValue,
    benefit_coefficients,
    f_eval,
    g_eval,
    h_upper_limit,
    net_benefit_ao,
)
from .equilibrium import (
    EquilibriumItem,
    EquilibriumReport,
    Orientation,
    Subcase,
    ThresholdBounds,
    compute_equilibria,
    mixing_probability,
)
from .oracle import (
    CheckRecord,
    SimEstimates,
    TruncatedSolution,
    VerificationReport,
    simulate,
    solve_truncated_balance,
    verify_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "ClearbalkError",
    "ConsistencyError",
    "FloatRangeError",
    "InputError",
    "NoInteriorRoot",
    "ScanLimitExceeded",
    "SingularSystem",
    "UnreachableState",
    "CASE_TOLERANCE",
    "SIGN_TOLERANCE",
    "CaseKind",
    "CaseLabel",
    "ModelParams",
    "RewardCost",
    "ValidatedModel",
    "congestion_case",
    "validate_params",
    "AlwaysBalk",
    "AlwaysJoin",
    "JoinVector",
    "MixedThreshold",
    "PureThreshold",
    "ReverseThreshold",
    "Strategy",
    "format_strategy",
    "parse_strategy",
    "SpectralData",
    "StationaryDistribution",
    "spectral_quantities",
    "stationary_distribution",
    "CriticalValues",
    "DominanceKind",
    "DominantStrategySet",
    "Regime",
    "critical_values",
    "dominant_strategies",
    "BenefitCoefficients",
    "BenefitValue",
    "benefit_coefficients",
    "f_eval",
    "g_eval",
    "h_upper_limit",
    "net_benefit_ao",
    "EquilibriumItem",
    "EquilibriumReport",
    "Orientation",
    "Subcase",
    "ThresholdBounds",
    "compute_equilibria",
    "mixing_probability",
    "CheckRecord",
    "SimEstimates",
    "TruncatedSolution",
    "VerificationReport",
    "simulate",
    "solve_truncated_balance",
    "verify_equilibrium",
    "__version__",
]
