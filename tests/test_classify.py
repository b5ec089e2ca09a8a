"""Growth/no-growth criteria on the shipped example models."""
import collections
import json
import math
import os

import numpy as np
import pytest

import mbpm.classify
import mbpm.moments
from conftest import load_doc, spec_path
from mbpm import cli
from mbpm import (
    Clamp,
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
    Power,
    check_growth_support,
    check_hypothesis_C,
    classify_growth,
    estimate_exponents,
    growth_ratio,
    load_spec,
    probe_states,
    sigma2,
    spec_from_dict,
)
from mbpm.laws import growth_exponent_of, limit_of


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
    for top in (1e300, float("nan"), float("inf"), 2.0**63):  # no probe state fits int64
        with pytest.raises(ValueError, match=r"need finite magnitudes below 2\^63"):
            CriteriaConfig(ray_points=(10.0, top))


def test_probe_state_past_int64_is_named(small_support_spec):
    # v = (1.23, 0.70): 9e18 fits the config's bound, but not the state 1.1e19
    with pytest.raises(ValueError, match="probe state at magnitude 9e\\+18 does not fit int64"):
        probe_states(small_support_spec, CriteriaConfig(ray_points=(10.0, 9e18)))


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


def test_growth_ratio_reads_h_at_the_models_own_size(sqrt_spec):
    # sqrt_drift's h(100) = 10 at its own size s = z; weights u = 1/4 scale
    # u.z, u.h and sigma2 only, so the ratio is the one at u = 1
    z = [100]
    s2 = sigma2(sqrt_spec, [0.25], z)
    assert growth_ratio(sqrt_spec, [0.25], z) == 2.0 * 25.0 * 2.5 / s2
    assert growth_ratio(sqrt_spec, [0.25], z) == growth_ratio(sqrt_spec, [1.0], z)


def test_hypothesis_B(gamma_spec, sqrt_spec, two_type_spec):
    assert classify_growth(gamma_spec).hypothesis_B
    assert classify_growth(sqrt_spec).hypothesis_B
    verdict = classify_growth(two_type_spec)
    assert not verdict.hypothesis_B  # uniform emigration grows linearly with the count
    evidence = verdict.diagnostics["hypothesis_B_evidence"]
    assert evidence["worst_exponent"] == 1.0
    assert len(evidence["probe_ratios"]) == len(verdict.probe_sizes)


def test_hypothesis_B_sees_a_clamp_bound_take_over(tmp_path):
    # Clamp(Power(-1, 1), lo=0.2) is 0.2 at every size: the emigration term
    # prob_em * E[D] is bounded, and the probe ratios fall like 1/s
    doc = load_doc("gamma_single_type")
    doc["migration"][0].update(
        prob_none={"kind": "constant", "value": 0.3},
        prob_imm={"kind": "constant", "value": 0.5},
        prob_em={"kind": "clamp", "lo": 0.2,
                 "inner": {"kind": "power", "coeff": -1.0, "exponent": 1.0}},
        emigration={"family": "truncated_geometric", "ratio": 0.5},
    )
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rep"
    assert cli.main(["--spec", str(path), "--suite", "classify", "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        classification = json.load(fh)["results"]["classification"]
    assert classification["verdict"] == "growth-possible"
    assert classification["hypothesis_B"] is True
    evidence = classification["diagnostics"]["hypothesis_B_evidence"]
    assert evidence["term_exponents"] == [[0.0, 0.0]]
    assert evidence["worst_exponent"] == 0.0
    ratios = evidence["probe_ratios"]
    assert all(r2 < 0.2 * r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_hypothesis_B_skips_a_term_whose_probability_ends_at_zero():
    # immigration fires only below size 100: like a constant zero
    # probability, its term has no exponent
    doc = load_doc("gamma_single_type")
    doc["migration"][0].update(
        prob_none={"kind": "table", "breaks": [1.0, 100.0], "values": [0.0, 1.0]},
        prob_imm={"kind": "table", "breaks": [1.0, 100.0], "values": [1.0, 0.0]},
    )
    verdict = classify_growth(spec_from_dict(doc).validate())
    evidence = verdict.diagnostics["hypothesis_B_evidence"]
    assert evidence["term_exponents"] == [[None, None]]
    assert evidence["worst_exponent"] is None
    assert verdict.hypothesis_B


def test_clamp_bound_that_never_binds_keeps_the_divergence():
    # Clamp(Power(-1, 1), hi=0.5) diverges to -inf: the bound above never binds
    f = Clamp(Power(-1.0, 1.0), hi=0.5)
    assert f.leading() == (-1.0, 1.0)
    assert limit_of(f.leading()) == -math.inf
    assert growth_exponent_of(f.leading()) == 1.0


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
    d = cli._jsonable(verdict)
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


def test_fractional_moments_evaluate_once(two_type_spec, monkeypatch):
    # both order checks of classify_growth, and the surrogate of
    # estimate_exponents, share one migration_abs_moments call per (probe, type)
    calls = []
    abs_moments = mbpm.classify.migration_abs_moments

    def counted(*args, **kwargs):
        calls.append(args[1])
        return abs_moments(*args, **kwargs)

    monkeypatch.setattr(mbpm.classify, "migration_abs_moments", counted)
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
    for module, name in [(mbpm.classify, "migration_abs_moments"), (mbpm.classify, "sigma2"),
                         (mbpm.classify, "migration_mean"), (mbpm.moments, "migration_mean"),
                         (mbpm.moments, "migration_var")]:
        _count_calls(monkeypatch, module, name, calls)
    code = cli.main(["--spec", spec_path(doc_name), "--suite", "classify",
                     "--out", str(tmp_path / "rep")])
    assert code == 0
    probes = len(CriteriaConfig().ray_points)
    assert calls["migration_abs_moments"] == probes * load_spec(spec_path(doc_name)).dim
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
    assert results["classification"] == cli._jsonable(verdict)
    assert results["fitted_exponents"] == cli._jsonable(estimate_exponents(spec))
    if verdict.hypothesis_A:
        u = spec.spectral().u
        for k, z in enumerate(probe_states(spec)):
            assert verdict.ratio_values[k] == growth_ratio(spec, u, z)  # bit for bit


def test_classify_suite_without_perron_data(tmp_path, pure_death_spec):
    # pure_death's mean matrix is not primitive: the suite gives the verdict
    # of classify_growth and no fitted exponents instead of refusing the model
    out = tmp_path / "rep"
    assert cli.main(["--spec", spec_path("pure_death"), "--suite", "classify",
                     "--out", str(out)]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        results = json.load(fh)["results"]
    verdict = classify_growth(pure_death_spec)
    assert (verdict.verdict, verdict.condition) == ("inconclusive", "not-critical")
    assert results["classification"] == cli._jsonable(verdict)
    assert results["fitted_exponents"] is None


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS + ["small_support", "pure_death"])
def test_classify_enumerates_no_growing_support(tmp_path, monkeypatch, capsys, doc_name):
    # classify's absolute moments read migration_atoms once per probe and
    # type; uniform and inverse-cube emigration, one atom per removal size,
    # enter through their closed forms, so no support it reads grows with
    # the count (a uniform branch at the probe 10^5 would have 10^5 atoms)
    out = tmp_path / "rep"

    def run():
        code = cli.main(["--spec", spec_path(doc_name), "--suite", "classify", "--out", str(out)])
        files = {}
        if out.exists():
            for name in sorted(os.listdir(out)):
                with open(out / name) as fh:
                    files[name] = [line for line in fh if '"timestamp"' not in line]
        return code, files, capsys.readouterr()

    reference = run()
    with open(out / "report.json") as fh:  # no fitted exponents where there is no probe ray
        has_ray = json.load(fh)["results"]["fitted_exponents"] is not None
    sizes = []
    migration_atoms = mbpm.moments.migration_atoms

    def recording(*args, **kwargs):
        vals, probs, pe = migration_atoms(*args, **kwargs)
        sizes.append(len(vals))
        return vals, probs, pe

    monkeypatch.setattr(mbpm.moments, "migration_atoms", recording)
    assert run() == reference
    assert reference[0] == 0
    probes = len(CriteriaConfig().ray_points)
    assert len(sizes) == has_ray * probes * load_spec(spec_path(doc_name)).dim
    assert max(sizes, default=0) <= 1000
