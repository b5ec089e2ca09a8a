"""Simulation and verification lab for multitype branching with migration.

The population model: at each step every individual of type i produces a
random offspring vector, and independently each type receives a random
migration adjustment (nothing, immigration of at least one individual, or
emigration of part of the current count) with state-dependent
probabilities.  The package computes exact conditional moments, classifies
growth regimes near criticality, and checks the distributional limits
(gamma, normal, L1, Feller diffusion) against Monte Carlo ensembles.

Importing the package loads none of its submodules.  A submodule loads the
first time one of its names is used (PEP 562): ``from mbpm import
load_spec`` loads ``model`` and the two modules it needs, ``laws`` and
``algebra``, and leaves ``moments``, ``classify``, ``limits`` and
``montecarlo`` unloaded until something asks for them.  ``mbpm.cli``
imports every submodule at its top, so the ``mbpm`` command loads them all.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# The exported names of each submodule.
_EXPORTS = {
    "algebra": ("SpectralData", "criticality", "is_primitive", "odot", "perron"),
    "laws": (
        "BernoulliOffspring",
        "Clamp",
        "Constant",
        "DeterministicEmigration",
        "DeterministicImmigration",
        "FiniteOffspring",
        "GeometricOffspring",
        "IndependentOffspring",
        "InverseCubeEmigration",
        "PoissonOffspring",
        "Power",
        "ShiftedPoissonImmigration",
        "Table",
        "TableImmigration",
        "TableOffspring",
        "TruncatedGeometricEmigration",
        "UniformEmigration",
    ),
    "model": (
        "DeterministicInitial",
        "MigrationComponent",
        "ModelSpec",
        "SpecFormatError",
        "TableInitial",
        "advance",
        "load_spec",
        "sample_migration",
        "sample_offspring",
        "sample_step_batch",
        "simulate_path",
        "spec_digest",
        "spec_from_dict",
        "spec_to_dict",
    ),
    "moments": (
        "cond_mean",
        "cond_var",
        "migration_atoms",
        "migration_kappa",
        "migration_mean",
        "migration_var",
        "sigma2",
    ),
    "classify": (
        "CriteriaConfig",
        "GrowthVerdict",
        "classify_growth",
        "estimate_exponents",
    ),
    "limits": (
        "LimitParams",
        "a_seq",
        "euler_maruyama",
        "feller_params",
        "lambda_n",
        "params_from_spec",
    ),
    "montecarlo": (
        "Ensemble",
        "GoFReport",
        "MomentCheckReport",
        "ProbabilityEstimate",
        "estimate_explosion",
        "gamma_cdf",
        "gamma_quantile",
        "gof_report",
        "ks_statistic",
        "moment_check",
        "normal_cdf",
        "run_ensemble",
        "stream_for",
        "wilson_interval",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
