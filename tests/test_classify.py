"""Growth/no-growth criteria on the shipped example models."""
import collections
import json
import os

import numpy as np
import pytest

import mbpm.classify
import mbpm.moments
from conftest import spec_path
from mbpm import cli
from mbpm import (
    Constant,
    CriteriaConfig,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    PoissonOffspring,
    check_growth_support,
    check_hypothesis_B,
    check_hypothesis_C,
    classify_growth,
    estimate_exponents,
    growth_ratio,
    is_absorbing_zero,
    load_spec,
    probe_states,
)


@pytest.fixture(scope="module")
def drift_const_spec():
    offspring = OffspringSpec(
        laws=(IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),)
    )
    comp = MigrationComponent(
        prob_none=Constant(0.25),
        prob_imm=Constant(0.5),
        prob_em=Constant(0.25),
        immigration=DeterministicImmigration(value=2),
        emigration=DeterministicEmigration(value=1),
    )
    return ModelSpec(offspring, MigrationSpec(components=(comp,)),
                     DeterministicInitial(state=(1,)))


def test_criteria_config_validation():
    with pytest.raises(ValueError):
        CriteriaConfig(ray_points=(100.0,))
    with pytest.raises(ValueError):
        CriteriaConfig(ray_points=(1000.0, 100.0))
    with pytest.raises(ValueError):
        CriteriaConfig(ray_points=(5.0, 100.0))


def test_probe_states_follow_direction(two_type_spec):
    probes = probe_states(two_type_spec, CriteriaConfig(ray_points=(100.0, 1000.0)))
    assert len(probes) == 2
    for z, target in zip(probes, (100.0, 1000.0)):
        assert z.dtype == np.int64
        assert (z > 0).all()
        u = two_type_spec.spectral().u
        assert abs(float(u @ z) - target) / target < 0.05


def test_growth_ratio_hand_value(drift_const_spec):
    # drift 0.75, variance 100.75 * 1 + 1.6875 at z = 100
    val = growth_ratio(drift_const_spec, [1.0], [100])
    assert abs(val - 150.0 / 102.4375) < 1e-12


def test_is_absorbing_zero(gamma_spec, pure_death_spec, emigration_spec):
    assert not is_absorbing_zero(gamma_spec)  # immigration fires at zero
    assert is_absorbing_zero(pure_death_spec)
    assert is_absorbing_zero(emigration_spec)


def test_hypothesis_B(gamma_spec, sqrt_spec, two_type_spec):
    ok, evidence = check_hypothesis_B(gamma_spec)
    assert ok
    ok_sqrt, _ = check_hypothesis_B(sqrt_spec)
    assert ok_sqrt
    ok_two, evidence_two = check_hypothesis_B(two_type_spec)
    assert not ok_two  # uniform emigration grows linearly with the count
    assert isinstance(evidence_two, dict)


def test_hypothesis_C(gamma_spec, sqrt_spec, two_type_spec):
    limits = check_hypothesis_C(gamma_spec)
    assert limits is not None
    assert abs(limits["q"][0] - 1.0) < 1e-12
    assert abs(limits["a"][0] - 2.0) < 1e-12
    assert abs(limits["b"][0] - 0.0) < 1e-12
    assert check_hypothesis_C(sqrt_spec) is None  # immigration mean diverges
    assert check_hypothesis_C(two_type_spec) is None  # uniform emigration


def test_classify_two_type_no_growth(two_type_spec):
    verdict = classify_growth(two_type_spec)
    assert verdict.verdict == "no-growth"
    assert verdict.condition == "ratio-below-one"
    assert verdict.hypothesis_A
    assert (verdict.ratio_values < 0.9).all()
    d = verdict.to_dict()
    assert d["verdict"] == "no-growth"


def test_classify_gamma_growth(gamma_spec):
    verdict = classify_growth(gamma_spec)
    assert verdict.verdict == "growth-possible"
    assert verdict.hypothesis_A
    assert verdict.support_ok
    assert (verdict.ratio_values > 1.1).all()
    # constant drift 2, unit variance slope: ratio tends to 2*2/1 = 4
    assert abs(verdict.ratio_values[-1] - 4.0) < 0.1


def test_classify_sqrt_growth(sqrt_spec):
    verdict = classify_growth(sqrt_spec)
    assert verdict.verdict == "growth-possible"
    # ratio grows like 2 sqrt(s): unbounded, so well above the margin
    assert verdict.ratio_values[-1] > 100.0


def test_classify_pure_emigration(emigration_spec):
    verdict = classify_growth(emigration_spec)
    assert verdict.verdict == "no-growth"
    assert verdict.condition == "emigration-dominates"


def test_classify_requires_criticality(small_support_spec):
    verdict = classify_growth(small_support_spec)
    assert verdict.verdict == "inconclusive"
    assert verdict.condition == "not-critical"
    assert not verdict.hypothesis_A


def test_growth_support(gamma_spec, emigration_spec):
    assert check_growth_support(gamma_spec, np.array([5]))
    assert not check_growth_support(emigration_spec, np.array([5, 5]))


def test_estimate_exponents_gamma(gamma_spec):
    out = estimate_exponents(gamma_spec)
    assert abs(out["alpha"]) < 0.01
    assert abs(out["c_dot_u"] - 2.0) < 0.05
    assert abs(out["beta"] - 1.0) < 0.01
    assert abs(out["nu"] - 1.0) < 0.05
    assert abs(out["ratio_limit"] - 4.0) < 0.2


def test_estimate_exponents_sqrt(sqrt_spec):
    out = estimate_exponents(sqrt_spec)
    assert abs(out["alpha"] - 0.5) < 0.01
    assert abs(out["c_dot_u"] - 1.0) < 0.05
    # sigma2 = s + 2 sqrt(s) - 1, so the finite-ray slope sits just under 1
    assert abs(out["beta"] - 1.0) < 0.02


def test_fractional_moments_enumerate_atoms_once(two_type_spec, monkeypatch):
    # both order checks of classify_growth, and the surrogate of
    # estimate_exponents, share one atom enumeration per (probe, type)
    calls = []
    atoms = mbpm.classify.migration_atoms

    def counted(*args, **kwargs):
        calls.append(args[1])
        return atoms(*args, **kwargs)

    monkeypatch.setattr(mbpm.classify, "migration_atoms", counted)
    per_ray = len(CriteriaConfig().ray_points) * two_type_spec.dim
    classify_growth(two_type_spec)
    assert len(calls) == per_ray
    estimate_exponents(two_type_spec)
    assert len(calls) == 2 * per_ray


# the shipped documents that carry an expected verdict
_EXPECTED_VERDICT_DOCS = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
                          "pure_emigration"]


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS)
def test_classify_suite_evaluates_each_probe_once(tmp_path, monkeypatch, doc_name):
    calls = collections.Counter()
    for module, name in [(mbpm.classify, "migration_atoms"), (mbpm.classify, "sigma2"),
                         (mbpm.classify, "migration_mean"), (mbpm.moments, "migration_mean"),
                         (mbpm.moments, "migration_var")]:
        _count_calls(monkeypatch, module, name, calls)
    code = cli.main(["--spec", spec_path(doc_name), "--suite", "classify",
                     "--out", str(tmp_path / "rep")])
    assert code == 0
    probes = len(CriteriaConfig().ray_points)
    assert calls["migration_atoms"] == probes * load_spec(spec_path(doc_name)).dim
    assert calls["sigma2"] == probes
    assert calls["migration_var"] == probes
    assert calls["migration_mean"] <= 2 * probes


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS + ["small_support"])
def test_classify_suite_reads_what_the_public_functions_compute(tmp_path, doc_name):
    out = tmp_path / "rep"
    assert cli.main(["--spec", spec_path(doc_name), "--suite", "classify",
                     "--out", str(out)]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        results = json.load(fh)["results"]
    spec = load_spec(spec_path(doc_name))
    verdict = classify_growth(spec)
    assert results["classification"] == cli._jsonable(verdict.to_dict())
    assert results["fitted_exponents"] == cli._jsonable(estimate_exponents(spec))
    if verdict.hypothesis_A:
        u = spec.spectral().u
        for k, z in enumerate(probe_states(spec)):
            assert verdict.ratio_values[k] == growth_ratio(spec, u, z)  # bit for bit
