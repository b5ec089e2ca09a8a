"""Exact one-step moments against direct-enumeration oracles."""
import numpy as np
import pytest

import oracles
from conftest import emigration_atoms, load_doc, spec_path
from mbpm import cli, model
from mbpm import (
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    InverseCubeEmigration,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    PoissonOffspring,
    UniformEmigration,
    cond_mean,
    cond_var,
    load_spec,
    migration_atoms,
    migration_kappa,
    migration_mean,
    migration_var,
    moment_check,
    moment_report,
    sigma2,
)


@pytest.fixture(scope="module")
def drift_const_spec():
    """Single type, unit-mean offspring, +2 w.p. 1/2, -1 w.p. 1/4."""
    offspring = OffspringSpec(
        laws=(IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),)
    )
    comp = MigrationComponent(
        prob_imm=Constant(0.5),
        prob_em=Constant(0.25),
        immigration=DeterministicImmigration(value=2),
        emigration=DeterministicEmigration(value=1),
    )
    return ModelSpec(offspring, MigrationSpec(components=(comp,)),
                     DeterministicInitial(state=(1,)))


def test_offspring_moments_two_type(two_type_spec):
    m, cov = two_type_spec.offspring.mean_matrix(), two_type_spec.offspring.cov_tensor()
    assert np.allclose(m, 0.5)
    assert cov.shape == (2, 2, 2)
    for i in range(2):
        assert np.allclose(cov[i], np.diag([0.5, 0.5]))


def test_hand_computed_single_type_moments(drift_const_spec):
    z = np.array([100])
    h = migration_mean(drift_const_spec, z)
    assert abs(h[0] - 0.75) < 1e-15
    varm = migration_var(drift_const_spec, z)
    assert abs(varm[0, 0] - 1.6875) < 1e-15
    assert abs(cond_mean(drift_const_spec, z)[0] - 100.75) < 1e-12
    assert abs(cond_var(drift_const_spec, z)[0, 0] - 102.4375) < 1e-12
    assert abs(sigma2(drift_const_spec, z) - 102.4375) < 1e-12


def test_migration_moments_match_enumeration(two_type_spec):
    doc = load_doc("two_type_mixed")
    u = two_type_spec.spectral().u
    z = np.array([50, 30])
    zs = float(u @ z)
    h = migration_mean(two_type_spec, z)
    var = migration_var(two_type_spec, z)
    kap = migration_kappa(two_type_spec, z)
    for i in range(2):
        pmf = oracles.component_adjustment_pmf(doc["migration"][i], int(z[i]), zs)
        assert abs(sum(pmf.values()) - 1.0) < 1e-12
        m1 = oracles.pmf_moment(pmf, 1)
        assert abs(h[i] - m1) < 1e-10
        assert abs(var[i, i] - oracles.pmf_moment(pmf, 2, center=m1)) < 1e-9
        assert abs(kap[i] - oracles.pmf_moment(pmf, 4, center=m1)) < 1e-6
    assert var[0, 1] == 0.0  # components adjust independently


def test_migration_moments_small_support():
    doc = load_doc("small_support")
    from mbpm import load_spec
    from conftest import spec_path

    spec = load_spec(spec_path("small_support"))
    z = np.array([2, 1])
    h = migration_mean(spec, z)
    for i in range(2):
        pmf = oracles.component_adjustment_pmf(doc["migration"][i], int(z[i]), 0.0)
        assert abs(h[i] - oracles.pmf_moment(pmf, 1)) < 1e-12


def all_atoms(spec, i, z):
    """migration_atoms with the emigration branch it leaves out, that of a
    law whose support grows with the count, added from the oracle atoms."""
    vals, probs, pe = migration_atoms(spec, i, z)
    comp = spec.migration.components[i]
    zi = int(z[i])
    if pe == 0.0 or hasattr(comp.emigration, "atoms"):
        return vals, probs
    dv, dp = emigration_atoms(comp.emigration, zi)
    return np.concatenate((vals, -dv.astype(float))), np.concatenate((probs, pe * dp))


def test_migration_atoms_reproduce_moments(two_type_spec):
    z = np.array([50, 30])
    h = migration_mean(two_type_spec, z)
    var = migration_var(two_type_spec, z)
    for i in range(2):
        vals, probs = all_atoms(two_type_spec, i, z)
        mass = probs.sum()
        assert abs(mass - 1.0) < 1e-9
        mean = float(vals @ probs)
        assert abs(mean - h[i]) < 1e-8
        second = float((vals - mean) ** 2 @ probs)
        assert abs(second - var[i, i]) < 1e-6


def test_raw_migration_moments_evaluate_branches_once(two_type_spec, monkeypatch):
    z = np.array([50, 30])
    calls = []
    branch_probs = MigrationComponent.branch_probs

    def counted(self, *args):
        calls.append(self)
        return branch_probs(self, *args)

    monkeypatch.setattr(MigrationComponent, "branch_probs", counted)
    for fn in (migration_mean, migration_var, migration_kappa):
        calls.clear()
        fn(two_type_spec, z)
        assert len(calls) == two_type_spec.dim  # once per component, for all orders


def test_migration_folds_at_zero_state(two_type_spec):
    z = np.zeros(2, dtype=np.int64)
    h = migration_mean(two_type_spec, z)
    # emigration is impossible at zero counts, so the drift is the pure
    # immigration part: q_i * E I_i
    assert abs(h[0] - 0.3 * 2.0) < 1e-12
    assert abs(h[1] - 0.25 * 3.0) < 1e-12


def test_sigma2_consistent_with_cond_var(two_type_spec):
    # At criticality u^T m = u^T, so the weighted size variance can be
    # computed either from the conditional covariance or directly.
    u = two_type_spec.spectral().u
    for z in [np.array([50, 30]), np.array([5, 0]), np.array([1, 1])]:
        direct = sigma2(two_type_spec, z)
        via_cov = float(u @ cond_var(two_type_spec, z) @ u)
        assert abs(direct - via_cov) < 1e-10 * max(1.0, direct)


def test_moment_report_bundles_everything(two_type_spec, sqrt_spec):
    rep = moment_report(two_type_spec, [50, 30])
    assert rep.z.tolist() == [50, 30]
    assert np.allclose(rep.cond_mean, cond_mean(two_type_spec, [50, 30]))
    assert rep.sigma2 == sigma2(two_type_spec, [50, 30]) > 0
    d = cli._jsonable(rep)
    assert set(d) == {"z", "h", "cond_mean", "cond_cov", "varM", "sigma2"}
    # sqrt_drift's immigration mean reads the model's own size: h(100) = sqrt(100)
    assert moment_report(sqrt_spec, [100]).h.tolist() == [10.0]


def test_moment_report_needs_perron_weights(pure_death_spec):
    # pure_death's mean matrix is not primitive: sigma2, and so the bundle,
    # refuses it instead of weighting the types equally
    with pytest.raises(ValueError) as sigma2_error:
        sigma2(pure_death_spec, [3])
    with pytest.raises(ValueError) as report_error:
        moment_report(pure_death_spec, [3])
    assert str(report_error.value) == str(sigma2_error.value)


def test_moments_match_simulation(two_type_spec, sqrt_spec):
    report = moment_check(two_type_spec, np.array([50, 30]), N=200_000, seed=4)
    assert report.passed, report
    # state-dependent Clamp(Power) immigration through the batch kernel
    report = moment_check(sqrt_spec, np.array([100]), N=200_000, seed=4)
    assert report.passed, report


def test_moments_match_simulation_small_support(small_support_spec):
    report = moment_check(small_support_spec, np.array([2, 1]), N=200_000, seed=5)
    assert report.passed, report
