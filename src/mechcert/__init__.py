"""Mechanistic-information certificates for hybrid priors in sequential dosing.

Closed-form channel-capacity and regret certificates, two-level prior
construction, burn-in and distribution-shift bounds, and the seeded
Monte Carlo bandit experiments that validate them.

`sim`, the Monte Carlo engine, is the only module that imports numpy.
Its names are resolved on first access, so importing the package and
running the closed-form calculator needs the standard library only.
"""

from .certificates import (
    CalibrationParams,
    CertificateReport,
    Regime,
    UnreachableTarget,
    canonical_sigma_f2,
    certificate_report,
    channel_capacity,
    critical_bias,
    lb_envelope,
    residual_entropy,
    sample_complexity_ratio,
    solve_bias_for_capacity,
    ub_envelope,
)
from .prior import (
    JointDistribution,
    TwoLevelPrior,
    conditional_entropy,
    joint_from_channel,
    kl_divergence,
    mutual_information,
    solve_prior_for_r_mech,
    two_level_channel,
    two_level_entropy,
)
from .burnin import BurnInParams, BurnInResult, binary_kl, burn_in_lower_bound, effective_prior_weight
from .shift import (
    ImpossibilityReport,
    Retention,
    ShiftReport,
    check_retention,
    impossibility_construction,
    r_min,
    retention_threshold,
    verify_impossibility,
)
from .sweep import SweepSpec, linear_grid, sweep_1d, sweep_2d

__version__ = "0.1.0"

# Names resolved from `sim` on first access (PEP 562), so that numpy loads only when used.
_SIM_EXPORTS = ("BanditEnvironment", "ExperimentConfig", "RegretSummary", "build_environment",
                "run_monte_carlo", "run_trial", "table1_experiment", "table2_experiment")


def __getattr__(name: str):
    if name in _SIM_EXPORTS:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
