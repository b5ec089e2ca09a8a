"""Simulation and verification lab for multitype branching with migration.

The population model: at each step every individual of type i produces a
random offspring vector, and independently each type receives a random
migration adjustment (nothing, immigration of at least one individual, or
emigration of part of the current count) with state-dependent
probabilities.  The package computes exact conditional moments, classifies
growth regimes near criticality, and checks the distributional limits
(gamma, normal, L1, Feller diffusion) against Monte Carlo ensembles.
"""
from .algebra import SpectralData, criticality, is_primitive, odot, perron
from .laws import (
    BernoulliOffspring,
    Clamp,
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    FiniteOffspring,
    GeometricOffspring,
    IndependentOffspring,
    InverseCubeEmigration,
    PoissonOffspring,
    Power,
    ShiftedPoissonImmigration,
    Table,
    TableImmigration,
    TableOffspring,
    TruncatedGeometricEmigration,
    UniformEmigration,
    size_of,
)
from .model import (
    DeterministicInitial,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    SpecFormatError,
    TableInitial,
    Trajectory,
    advance,
    load_spec,
    sample_migration,
    sample_step_batch,
    simulate_path,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
    step,
)
from .moments import (
    MomentReport,
    cond_mean,
    cond_var,
    migration_atoms,
    migration_kappa,
    migration_mean,
    migration_var,
    moment_report,
    offspring_moments,
    sigma2,
)
from .classify import (
    CriteriaConfig,
    GrowthVerdict,
    check_growth_support,
    check_hypothesis_B,
    check_hypothesis_C,
    classify_growth,
    estimate_exponents,
    growth_ratio,
    is_absorbing_zero,
    probe_states,
)
from .limits import (
    LimitParams,
    ScaledPath,
    a_asymptotic,
    a_seq,
    euler_maruyama,
    feller_params,
    lambda_n,
    params_from_spec,
    scaled_path,
)
from .montecarlo import (
    Ensemble,
    GoFReport,
    MomentCheckReport,
    ProbabilityEstimate,
    ecdf,
    estimate_explosion,
    gamma_cdf,
    gamma_quantile,
    gof_report,
    ks_statistic,
    moment_check,
    normal_cdf,
    run_ensemble,
    stream_for,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
