"""Growth/no-growth criteria on the shipped example models."""
import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest

import mbpm.classify
import mbpm.moments
from conftest import SHIPPED, load_doc, spec_path
from mbpm import cli
from mbpm import (
    Clamp,
    Constant,
    CriteriaConfig,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    InverseCubeEmigration,
    MigrationComponent,
    ModelSpec,
    PoissonOffspring,
    Power,
    UniformEmigration,
    classify_growth,
    estimate_exponents,
    load_spec,
    migration_mean,
    params_from_spec,
    sigma2,
    spec_from_dict,
)
from mbpm.algebra import weigh
from mbpm.classify import _probe_ray
from mbpm.laws import exponent_of, limit_of
from mbpm.moments import abs_exponent, leading_moments, migration_leads


@pytest.fixture(scope="module")
def drift_const_spec():
    offspring = (IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),)
    comp = MigrationComponent(
        prob_imm=Constant(0.5),
        prob_em=Constant(0.25),
        immigration=DeterministicImmigration(value=2),
        emigration=DeterministicEmigration(value=1),
    )
    return ModelSpec(offspring, (comp,),
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
        classify_growth(small_support_spec, CriteriaConfig(ray_points=(10.0, 9e18)))


def test_probe_states_follow_direction(two_type_spec):
    probes = _probe_ray(two_type_spec, CriteriaConfig(ray_points=(100.0, 1000.0))).probes
    assert len(probes) == 2
    for z, target in zip(probes, (100.0, 1000.0)):
        assert z.dtype == np.int64
        assert (z > 0).all()
        u = two_type_spec.spectral().u
        assert abs(float(u @ z) - target) / target < 0.05


def test_growth_ratio_hand_value(drift_const_spec):
    # drift 0.75, variance 100.75 * 1 + 1.6875 at z = 100, the first probe
    verdict = classify_growth(drift_const_spec, CriteriaConfig(ray_points=(100, 1000)))
    assert abs(verdict.ratio_values[0] - 150.0 / 102.4375) < 1e-12


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
    assert exponent_of(f.leading()) == 1.0


def test_hypothesis_C(gamma_spec, sqrt_spec, two_type_spec):
    record = leading_moments(gamma_spec)
    assert record["converges"]
    assert [limit_of(record["leads"][0][key]) for key in "qab"] == [1.0, 2.0, 0.0]
    assert not leading_moments(sqrt_spec)["converges"]  # immigration mean diverges
    assert not leading_moments(two_type_spec)["converges"]  # uniform emigration


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


def test_growth_support(gamma_spec, emigration_spec, pure_death_spec):
    assert classify_growth(gamma_spec).support_ok
    assert not classify_growth(emigration_spec).support_ok  # no type receives immigrants
    # immigrants enter type 0 only; type 1 receives its descendants
    assert not classify_growth(load_spec(spec_path("two_type_coupled"))).support_ok
    # a zero mean column is not primitive: hypothesis (A) fails first
    assert classify_growth(pure_death_spec).support_ok is None


def test_growth_support_reads_the_large_size_forms():
    # immigration stops at size 100: its term is eventually 0, so the
    # support condition fails and emigration, the zero term, dominates
    # however large the probes are
    doc = load_doc("gamma_single_type")
    doc["migration"][0].update(
        prob_imm={"kind": "table", "breaks": [1.0, 100.0], "values": [1.0, 0.0]},
    )
    for ray_points in [(10.0, 50.0), (1e3, 1e4)]:
        verdict = classify_growth(spec_from_dict(doc).validate(),
                                  CriteriaConfig(ray_points=ray_points))
        assert (verdict.verdict, verdict.condition, verdict.support_ok) == (
            "no-growth", "emigration-dominates", False)
    # a decaying immigration probability 1/s still has a nonzero leading
    # coefficient: immigrants keep arriving, and theta = 0
    doc["migration"][0]["prob_imm"] = {
        "kind": "clamp", "hi": 1.0, "inner": {"kind": "power", "coeff": 1.0, "exponent": -1.0}}
    verdict = classify_growth(spec_from_dict(doc).validate())
    assert (verdict.verdict, verdict.condition, verdict.support_ok) == (
        "no-growth", "ratio-below-one", True)


def test_growth_support_reads_reproduction_from_the_mean():
    # type-1 parents have Poisson(1e-17) children of each type: exp(-2e-17)
    # rounds to 1, but a positive mean is a positive chance of a child
    def law(mean):
        return {"kind": "independent", "components": [{"family": "poisson", "mean": mean}] * 2}

    comp = load_doc("gamma_single_type")["migration"][0]
    spec = spec_from_dict({"offspring": [law(1.0), law(1e-17)], "migration": [comp, comp],
                           "initial": {"kind": "deterministic", "state": [1, 1]}})
    verdict = classify_growth(spec)
    assert (verdict.verdict, verdict.condition, verdict.support_ok) == (
        "growth-possible", "ratio-above-one", True)


def test_estimate_exponents_gamma(gamma_spec):
    # constant drift 2 and sigma2 = s + 1: the ratio tends to 2 * 2 / 1
    out = classify_growth(gamma_spec).exponents
    assert (out["alpha"], out["c_dot_u"], out["beta"], out["nu"]) == (0.0, 2.0, 1.0, 1.0)
    assert (out["delta1"], out["delta2"], out["ratio_limit"]) == (0.0, 0.5, 4.0)


def test_estimate_exponents_sqrt(sqrt_spec):
    # sigma2 = s + 2 sqrt(s) - 1: three-probe slope fits gave beta = 0.988
    # and nu = 1.152 here
    out = classify_growth(sqrt_spec).exponents
    assert (out["alpha"], out["c_dot_u"], out["beta"], out["nu"]) == (0.5, 1.0, 1.0, 1.0)
    assert out["ratio_limit"] == math.inf  # beta < 1 + alpha: the ratio grows without bound


@pytest.mark.parametrize("doc_name", ["gamma_single_type", "small_support",
                                      "sqrt_drift_single_type"])
def test_estimate_exponents_equal_the_limit_constants(doc_name):
    # wherever params_from_spec derives them (small_support is not critical)
    spec = load_spec(spec_path(doc_name))
    out, params = classify_growth(spec).exponents, params_from_spec(spec)
    assert (out["alpha"], out["c_dot_u"], out["beta"], out["nu"]) == (
        params.alpha, params.c_dot_u, params.beta, params.nu)


def test_estimate_exponents_where_the_limit_constants_are_refused(two_type_spec):
    # uniform emigration: drift -0.05 s and a variance ~ s^2 (slope fits
    # reported beta = 1.99); alpha = 1, so params_from_spec refuses
    out = classify_growth(two_type_spec).exponents
    assert (out["alpha"], out["c_dot_u"]) == (1.0, -0.05)  # u.h < 0 on the ray
    assert out["ratio_limit"] == pytest.approx(-120.0 / 17.0, rel=1e-15)  # 2 u.c / nu
    assert (out["beta"], out["delta1"], out["delta2"]) == (2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha must be < 1"):
        params_from_spec(two_type_spec)


# the shipped documents that carry an expected verdict
_EXPECTED_VERDICT_DOCS = ["gamma_single_type", "sqrt_drift_single_type", "two_type_mixed",
                          "pure_emigration"]


def _linear_immigration_doc():
    """gamma_single_type with immigration mean max(1, s/2): alpha = 1, and
    sigma2 = s + h + Var M ~ (1 + 1/2 + 1/2) s, where the h part of the
    offspring variance is on top beside the offspring's own."""
    doc = load_doc("gamma_single_type")
    del doc["limit"]
    doc["migration"][0]["immigration"]["mean"] = {
        "kind": "clamp", "lo": 1.0, "inner": {"kind": "power", "coeff": 0.5, "exponent": 1.0}}
    return doc


def _past_the_matched_variance_doc():
    """One type, Poisson(1) offspring, one 1 + Poisson(s^1.5 - 1) batch of
    immigrants at probability min(1, 1/s): alpha = 1/2 and beta = 2 > 1 +
    alpha, so the ratio shrinks like s^(-1/2)."""
    return {
        "offspring": [{"kind": "independent", "components": [{"family": "poisson", "mean": 1.0}]}],
        "migration": [{
            "prob_imm": {"kind": "clamp", "hi": 1.0,
                         "inner": {"kind": "power", "coeff": 1.0, "exponent": -1.0}},
            "prob_em": {"kind": "constant", "value": 0.0},
            "immigration": {"family": "shifted_poisson", "mean": {
                "kind": "clamp", "lo": 1.0,
                "inner": {"kind": "power", "coeff": 1.0, "exponent": 1.5}}}}],
        "initial": {"kind": "deterministic", "state": [1]},
    }


_BUILT_DOCS = {"linear_immigration": _linear_immigration_doc,
               "past_the_matched_variance": _past_the_matched_variance_doc}


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS + sorted(_BUILT_DOCS))
def test_estimate_exponents_agree_with_the_exact_moments_far_out(doc_name):
    # along z = s v at s = 1e12: sigma2(z) ~ nu s^beta, and u.h(z) ~ (u.c)
    # s^alpha where u.h > 0, also where alpha >= 1 keeps params_from_spec out
    if doc_name in _BUILT_DOCS:
        spec = spec_from_dict(_BUILT_DOCS[doc_name]())
    else:
        spec = load_spec(spec_path(doc_name))
    out = classify_growth(spec).exponents
    spectral = spec.spectral()
    z = np.rint(1e12 * spectral.v).astype(np.int64)
    s = float(spectral.u @ z)
    assert sigma2(spec, z) == pytest.approx(out["nu"] * s ** out["beta"], rel=1e-5)
    if out["alpha"] is not None:
        uh = float(spectral.u @ mbpm.moments.migration_mean(spec, z))
        assert uh == pytest.approx(out["c_dot_u"] * s ** out["alpha"], rel=1e-5)
    if doc_name == "linear_immigration":
        assert (out["alpha"], out["c_dot_u"], out["beta"], out["nu"]) == (1.0, 0.5, 1.0, 2.0)
    # the ratio's limit theta, reported where u.h is eventually positive:
    # the probe ratio at s = 1e9 is within 1e-6 of a finite theta, and
    # shrinks or grows along the ray where theta is 0 or infinite
    theta = mbpm.classify._exponents(spec)["theta"]  # moments.ratio_limit
    assert out["ratio_limit"] == (theta if out["alpha"] is not None else None)
    ratios = classify_growth(spec, CriteriaConfig(ray_points=(1e7, 1e8, 1e9))).ratio_values
    if math.isfinite(theta) and theta != 0.0:
        assert ratios[-1] == pytest.approx(theta, rel=1e-6)
    else:
        steps = np.diff(np.abs(ratios))
        assert (steps > 0.0).all() if math.isinf(theta) else (steps < 0.0).all()


def test_the_ratio_limit_is_zero_where_the_variance_outgrows_the_drift():
    verdict = classify_growth(spec_from_dict(_past_the_matched_variance_doc()))
    out = verdict.exponents
    assert (out["alpha"], out["beta"], out["ratio_limit"]) == (0.5, 2.0, 0.0)
    assert (verdict.verdict, verdict.condition) == ("no-growth", "ratio-below-one")
    assert (np.diff(verdict.ratio_values) < 0.0).all()  # 0.063, 0.020, 0.0063


def _table_immigration_doc(breaks, values, immigrants=1, emigration=0.0):
    """One type, Poisson(1) offspring, a batch of ``immigrants`` at the
    probability Table(breaks, values) of the size, and one emigrant at
    the probability ``emigration``: theta = 2 (immigrants values[-1] -
    emigration)."""
    migration = {"prob_imm": {"kind": "table", "breaks": breaks, "values": values},
                 "prob_em": {"kind": "constant", "value": emigration},
                 "immigration": {"family": "deterministic", "value": immigrants}}
    if emigration:
        migration["emigration"] = {"family": "deterministic", "value": 1}
    return spec_from_dict({
        "offspring": [{"kind": "independent", "components": [{"family": "poisson", "mean": 1.0}]}],
        "migration": [migration],
        "initial": {"kind": "deterministic", "state": [1]},
    }).validate()


# documents whose probes once moved the verdict: (table breaks, values,
# immigrants, emigration probability) and theta
_PROBE_DOCS = {
    # the ratio reads about 0.6 at every probe below 1e5
    "step": (([0.0, 1e5], [0.3, 0.8]), 1.6),
    # no immigrants below 5e4: h = -0.3 at the probes there, which read
    # emigration-dominates
    "late_immigration": (([0.0, 5e4], [0.0, 0.5], 3, 0.3), 2.4),
    # no immigrants on [1e4, 1e5): a probe there failed the support check
    "immigration_gap": (([0.0, 1e4, 1e5], [0.8, 0.0, 0.8]), 1.6),
    # no immigrants at the size 1: the state (1) failed the support check
    # at every probe set, yet from z0 = 10 (R = 4000) about 0.64 of the
    # paths have Z_n > n/4 at n = 250, 500 and 1000
    "no_immigration_at_one": (([0.0, 2.0], [0.0, 0.8]), 1.6),
}


@pytest.mark.parametrize("doc_name", sorted(_PROBE_DOCS))
def test_the_probes_do_not_move_the_verdict(doc_name):
    args, theta = _PROBE_DOCS[doc_name]
    spec = _table_immigration_doc(*args)
    for ray_points in [(1e3, 1e4), CriteriaConfig().ray_points, (1e5, 1e6)]:
        verdict = classify_growth(spec, CriteriaConfig(ray_points=ray_points))
        assert verdict.exponents["ratio_limit"] == theta
        assert (verdict.verdict, verdict.condition, verdict.support_ok) == (
            "growth-possible", "ratio-above-one", True)


@pytest.mark.parametrize("doc_name, shifted, centered", [
    ("gamma_single_type", [1.5], [0.0]),
    ("sqrt_drift_single_type", [1.5], [0.75]),  # a Poisson rate ~ s^1/2 spreads like s^1/4
    ("two_type_mixed", [1.5, 1.5], [3.0, 0.0]),  # uniform emigration spreads like z_0
])
def test_order_check_exponents(doc_name, shifted, centered):
    # E|z_i + M_i|^(3/2) grows like z_i^(3/2); E|M_i - h_i|^3 like the spread
    # of the branches and of their means
    checks = classify_growth(load_spec(spec_path(doc_name))).order_checks
    assert checks["shifted_vs_sigma"]["lhs_slopes"] == shifted
    assert checks["centered_vs_sigma"]["lhs_slopes"] == centered


def test_abs_moment_exponents_of_a_heavy_tail():
    # inverse-cube removals: E|D - E D|^q is bounded below q = 2, a log at
    # q = 2 and ~ z^(q - 2) above; a decaying branch probability s^-1
    # lowers every exponent by 1
    law = InverseCubeEmigration()
    assert [law.abs_leading(q) for q in (1.5, 2.0, 3.0)] == [(1.0, 0.0), (math.inf, 0.0),
                                                              (1.0, 1.0)]
    comp = MigrationComponent(
        prob_imm=Constant(0.5), prob_em=Power(1.0, -1.0),
        immigration=DeterministicImmigration(value=1), emigration=law,
    )
    assert [abs_exponent(comp, migration_leads(comp), q) for q in (1.5, 3.0)] == [0.0, 0.0]
    assert abs_exponent(comp, migration_leads(comp), 1.5, shifted=True) == 1.5
    uniform = dataclasses.replace(comp, emigration=UniformEmigration())
    assert [abs_exponent(uniform, migration_leads(uniform), q) for q in (1.5, 3.0)] == [0.5, 2.0]


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS)
def test_classify_suite_evaluates_each_probe_once(tmp_path, monkeypatch, doc_name):
    calls = collections.Counter()
    for module, name in [(mbpm.classify, "sigma2"), (mbpm.classify, "leading_moments"),
                         (mbpm.classify, "migration_mean"), (mbpm.moments, "migration_mean"),
                         (mbpm.moments, "migration_var")]:
        _count_calls(monkeypatch, module, name, calls)
    code = cli.main(["--spec", spec_path(doc_name), "--suite", "classify",
                     "--out", str(tmp_path / "rep")])
    assert code == 0
    probes = len(CriteriaConfig().ray_points)
    assert calls["leading_moments"] == 1  # one set of exponents for verdict and report
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
    assert results["fitted_exponents"] == cli._jsonable(verdict.exponents)
    if verdict.hypothesis_A:
        u = spec.spectral().u
        for k, z in enumerate(_probe_ray(spec, CriteriaConfig()).probes):
            ratio = 2 * weigh(z, u) * weigh(migration_mean(spec, z), u) / sigma2(spec, z)
            assert verdict.ratio_values[k] == ratio  # bit for bit


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


@pytest.mark.parametrize("doc_name", SHIPPED)
def test_the_verdict_carries_the_exponents(doc_name):
    # read from the verdict's own ray wherever the mean matrix has Perron
    # data, critical or not (small_support's rho is 1.227); pure_death's
    # has none
    spec = load_spec(spec_path(doc_name))
    exponents = classify_growth(spec).exponents
    if doc_name == "pure_death":
        with pytest.raises(ValueError):
            spec.spectral()
        assert exponents is None
    else:
        assert exponents == estimate_exponents(spec)


@pytest.mark.parametrize("doc_name", _EXPECTED_VERDICT_DOCS + ["small_support", "pure_death"])
def test_classify_enumerates_no_support(tmp_path, monkeypatch, doc_name):
    # the verdict and the exponents read leading forms and raw moments: no
    # law's atoms are listed, so a probe may lie at any magnitude
    def refused(*args, **kwargs):
        raise AssertionError("classify enumerated a migration law")

    monkeypatch.setattr(mbpm.moments, "migration_atoms", refused)
    for law in (*mbpm.model._IMMIGRATION.forms.values(), *mbpm.model._EMIGRATION.forms.values()):
        if hasattr(law[0], "atoms"):
            monkeypatch.setattr(law[0], "atoms", refused)
    assert cli.main(["--spec", spec_path(doc_name), "--suite", "classify",
                     "--out", str(tmp_path / "rep")]) == 0


_GUARD_EMIGRATION = 0.1  # b, the emigration probability of the verdict-guard family


def _theta_family(theta, uniform):
    """A single-type document whose growth ratio tends to about theta.

    Poisson(1) offspring; k = 1 + floor(theta / 2) immigrants with
    probability a, and one emigrant with probability b where z >= 1, so
    that theta = 2 (k a - b).  (One immigrant reaches only theta <= 2,
    and only without emigration.)

    With ``uniform`` the emigrant count is uniform on {1, ..., z} at the
    decaying probability 2b/s (b where that exceeds b): its mean removal
    b (1 + 1/z) tends to b, while its tail keeps a moment of every order q
    growing like s^(q-1).
    """
    b = _GUARD_EMIGRATION
    k = 1 + math.floor(theta / 2.0)
    a = (theta / 2.0 + b) / k
    if uniform:
        prob_em = {"kind": "clamp", "inner": {"kind": "power", "coeff": 2.0 * b, "exponent": -1.0},
                   "hi": b}
        emigration = {"family": "uniform"}
    else:
        prob_em = {"kind": "constant", "value": b}
        emigration = {"family": "deterministic", "value": 1}
    return spec_from_dict({
        "offspring": [{"kind": "independent", "components": [{"family": "poisson", "mean": 1.0}]}],
        "migration": [{"prob_imm": {"kind": "constant", "value": a}, "prob_em": prob_em,
                       "immigration": {"family": "deterministic", "value": k},
                       "emigration": emigration}],
        "initial": {"kind": "deterministic", "state": [1]},
    })


# (verdict, condition) of classify_growth, recorded on the slope-fit
# classifier that the exact exponents replaced; the entries at theta = 0.95,
# 1 and 1.05 (uniform: the ratio's limit is theta / (1 + 2b/3), 0.984 at
# 1.05) were inside its 10% band around 1, and are decided by the limit
_GUARDED_VERDICTS = {
    "gamma_single_type": ("growth-possible", "ratio-above-one"),
    "sqrt_drift_single_type": ("growth-possible", "ratio-above-one"),
    "two_type_mixed": ("no-growth", "ratio-below-one"),
    "pure_emigration": ("no-growth", "emigration-dominates"),
    "small_support": ("inconclusive", "not-critical"),
    "pure_death": ("inconclusive", "not-critical"),
    "deterministic-0.5": ("no-growth", "ratio-below-one"),
    "deterministic-0.8": ("no-growth", "ratio-below-one"),
    "deterministic-0.95": ("no-growth", "ratio-below-one"),
    "deterministic-1": ("inconclusive", None),
    "deterministic-1.05": ("growth-possible", "ratio-above-one"),
    "deterministic-1.25": ("growth-possible", "ratio-above-one"),
    "deterministic-2": ("growth-possible", "ratio-above-one"),
    "deterministic-4": ("growth-possible", "ratio-above-one"),
    "uniform-0.5": ("no-growth", "ratio-below-one"),
    "uniform-0.8": ("no-growth", "ratio-below-one"),
    "uniform-1.05": ("no-growth", "ratio-below-one"),
    # the uniform tail: E|M - h|^3 grows like s^2, which the log-damped
    # drift target s^2 u.h / log^2 s does not dominate
    "uniform-1.25": ("inconclusive", None),
    "uniform-2": ("inconclusive", None),
    "uniform-4": ("inconclusive", None),
}


@pytest.mark.parametrize("name", sorted(_GUARDED_VERDICTS))
def test_verdicts_are_guarded(name):
    family, _, theta = name.partition("-")
    if theta:
        spec = _theta_family(float(theta), uniform=family == "uniform")
    else:
        spec = load_spec(spec_path(name))
    verdict = classify_growth(spec)
    assert (verdict.verdict, verdict.condition) == _GUARDED_VERDICTS[name]
