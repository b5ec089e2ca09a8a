"""Limit-law parameters, size recursions, and the diffusion approximation."""
import collections
import math

import numpy as np
import pytest

import mbpm.classify
import mbpm.limits
import mbpm.moments
from conftest import SHIPPED, load_doc, spec_path
from mbpm import (
    Clamp,
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    FiniteOffspring,
    IndependentOffspring,
    InverseCubeEmigration,
    LimitParams,
    MigrationComponent,
    ModelSpec,
    PoissonOffspring,
    Power,
    TruncatedGeometricEmigration,
    UniformEmigration,
    a_seq,
    classify_growth,
    euler_maruyama,
    feller_params,
    lambda_n,
    load_spec,
    migration_mean,
    params_from_spec,
    sigma2,
    spec_from_dict,
    stream_for,
)
from mbpm.moments import migration_leads, migration_terms, ratio_limit


def _params(alpha, beta, nu=1.0, c=2.0):
    return LimitParams(alpha=alpha, c=np.array([c]), c_dot_u=c, beta=beta, nu=nu)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def test_limit_params_validation():
    LimitParams(alpha=0.5, c=np.array([1.0]), c_dot_u=1.0, beta=1.0, nu=1.0)
    with pytest.raises(ValueError):
        LimitParams(alpha=1.0, c=np.array([1.0]), c_dot_u=1.0, beta=1.0, nu=1.0)
    with pytest.raises(ValueError):
        LimitParams(alpha=0.0, c=np.array([1.0]), c_dot_u=0.0, beta=1.0, nu=1.0)
    with pytest.raises(ValueError):
        # variance exponent above 1 + alpha is outside the theory
        LimitParams(alpha=0.0, c=np.array([1.0]), c_dot_u=1.0, beta=1.5, nu=1.0)


def test_gamma_limit_params_hand_values():
    params = _params(0.0, 1.0, nu=1.0, c=2.0)
    assert abs(params.gamma_shape - 4.0) < 1e-12
    assert abs(params.gamma_scale - 0.5) < 1e-12
    params2 = _params(0.5, 1.5, nu=1.0, c=1.0)
    assert abs(params2.gamma_shape - 3.0) < 1e-12
    assert abs(params2.gamma_scale - 0.125) < 1e-12


def test_gamma_limit_params_mean_identity():
    # shape * scale = (2 u.c - nu alpha)(1 - alpha) / 2 for any admissible combo
    for alpha, nu, c in [(0.0, 1.0, 2.0), (0.5, 1.0, 1.0), (0.25, 0.5, 1.5)]:
        params = _params(alpha, 1.0 + alpha, nu=nu, c=c)
        shape, scale = params.gamma_shape, params.gamma_scale
        assert abs(shape * scale - (2 * c - nu * alpha) * (1 - alpha) / 2) < 1e-12


def test_gamma_limit_params_no_growth_regime():
    # nu >= 2 u.c: unbounded growth has probability zero, and no gamma limit exists
    params = _params(0.0, 1.0, nu=4.0, c=2.0)
    assert params.gamma_shape is None and params.gamma_scale is None


def test_l1_constant():
    assert abs(_params(0.5, 1.0, c=1.0).l1_constant - 0.25) < 1e-15
    assert abs(_params(0.0, 1.0, c=2.0).l1_constant - 2.0) < 1e-15


def test_limit_params_fill_gamma_only_in_regime():
    params = _params(0.0, 1.0, nu=1.0, c=2.0)
    assert params.gamma_shape == pytest.approx(4.0)
    assert params.l1_constant == pytest.approx(2.0)
    off = _params(0.0, 0.5, nu=1.0, c=2.0)
    assert off.gamma_shape is None and off.gamma_scale is None
    assert off.l1_constant == pytest.approx(2.0)  # the L1 limit needs no beta = 1 + alpha
    starved = _params(0.0, 1.0, nu=1.0, c=0.25)
    assert starved.gamma_shape is None  # nu >= 2 u.c: no gamma limit


@pytest.mark.parametrize("doc_name, gamma_shape", [
    ("gamma_single_type", 4.0),
    ("sqrt_drift_single_type", None),
])
def test_params_from_spec_derives_the_shipped_limit_blocks(doc_name, gamma_shape):
    doc = load_doc(doc_name)
    params = params_from_spec(spec_from_dict(doc))
    for key, value in doc["limit"].items():
        assert np.asarray(getattr(params, key)).tolist() == value  # bit for bit
    assert params.c_dot_u == doc["limit"]["c"][0]
    assert params.gamma_shape == gamma_shape


@pytest.mark.parametrize("doc_name, law", [
    ("gamma_single_type", (4.0, 0.5, 2.0)),
    ("two_type_coupled", (4.0, 0.25, 1.0)),
])
def test_the_three_limit_statements_name_one_law(doc_name, law):
    # gamma-limit's Gamma(shape, scale), feller's Gamma(2 delta / sigma,
    # sigma / 2) at t = 1 and l1-limit's constant, its mean, from one
    # document: the shape is also (theta - alpha) / (1 - alpha), theta the
    # limit of the growth ratio that classify reads
    spec = load_spec(spec_path(doc_name))
    params = params_from_spec(spec)
    drift, diffusion = feller_params(spec)
    theta = ratio_limit(params.alpha, params.c_dot_u, params.beta, params.nu)
    shape, scale = params.gamma_shape, params.gamma_scale
    assert (shape, scale, params.l1_constant) == law
    for ours, theirs in ((shape, 2.0 * drift / diffusion),
                         (shape, (theta - params.alpha) / (1.0 - params.alpha)),
                         (scale, diffusion / 2.0),
                         (params.l1_constant, shape * scale)):
        assert ours == pytest.approx(theirs, rel=1e-15, abs=0.0)


def test_params_from_spec_attaches_the_feller_coefficients(gamma_spec):
    params = params_from_spec(gamma_spec)
    assert (params.feller_drift, params.feller_diffusion) == (2.0, 1.0)
    assert params.to_dict()["delta1"] is None and params.to_dict()["delta2"] is None


def _two_type_candidate():
    """two_type_mixed started at (0, 0), with type 0's uniform emigration
    replaced by truncated_geometric (ratio 0.5): every migration law is
    bounded, so alpha = 0 and beta = 1."""
    doc = load_doc("two_type_mixed")
    doc["initial"]["state"] = [0, 0]
    doc["migration"][0]["emigration"] = {"family": "truncated_geometric", "ratio": 0.5}
    return spec_from_dict(doc)


def test_params_from_spec_on_the_two_type_candidate():
    # u = v = (1/2, 1/2) and (1, 1); h = (0.3 * 2 - 0.2 * 2, 0.25 * 3 - 0.25 * 2);
    # nu = sum_i v_i u^T Sigma_i u = 2 * (0.25 * 0.5 + 0.25 * 0.5)
    params = params_from_spec(_two_type_candidate())
    assert params.alpha == 0.0 and params.beta == 1.0
    assert params.c == pytest.approx([0.2, 0.25], rel=1e-12)
    assert params.c_dot_u == pytest.approx(0.225, rel=1e-12)
    assert params.nu == pytest.approx(0.5, rel=1e-12)
    # 2 u.c / nu = 0.9 is the shape of the Feller marginal Gamma(2 drift / diffusion, .)
    assert 2.0 * params.c_dot_u / params.nu == pytest.approx(0.9, rel=1e-12)
    assert params.feller_drift == pytest.approx(params.c_dot_u, rel=1e-12)
    assert params.feller_diffusion == pytest.approx(params.nu, rel=1e-12)
    # ... but nu > 2 u.c: unbounded growth is a null event, so no gamma limit law
    assert params.gamma_shape is None


# the shipped documents whose growth constants exist: the others have no
# Perron data (pure_death) or uniform emigration, linear in the count
_DERIVED = ("gamma_single_type", "small_support", "sqrt_drift_single_type", "two_type_coupled")


@pytest.mark.parametrize("doc_name", SHIPPED)
def test_params_from_spec_refuses_exactly_the_documents_without_constants(doc_name):
    spec = load_spec(spec_path(doc_name))
    if doc_name in _DERIVED:
        params_from_spec(spec)
    else:
        with pytest.raises(ValueError):
            params_from_spec(spec)


@pytest.mark.parametrize("doc_name", _DERIVED)
def test_derived_constants_agree_with_the_exact_moments_far_out(doc_name):
    # along z = s v at s = 1e12, u.h(z) ~ (u.c) s^alpha and sigma2(z) ~ nu s^beta
    spec = load_spec(spec_path(doc_name))
    params = params_from_spec(spec)
    spectral = spec.spectral()
    z = np.rint(1e12 * spectral.v).astype(np.int64)
    s = float(spectral.u @ z)
    uh = float(spectral.u @ migration_mean(spec, z))
    assert uh == pytest.approx(params.c_dot_u * s**params.alpha, rel=1e-5)
    assert sigma2(spec, z) == pytest.approx(params.nu * s**params.beta, rel=1e-5)


def test_derived_constants_are_exact_where_the_slope_fit_was_not(sqrt_spec):
    # three-probe slope fits gave nu = 1.152 and beta = 0.988 here
    params = params_from_spec(sqrt_spec)
    assert (params.alpha, params.c_dot_u, params.nu, params.beta) == (0.5, 1.0, 1.0, 1.0)


def _gamma_doc(**migration):
    doc = load_doc("gamma_single_type")
    del doc["limit"]
    doc["migration"][0].update(migration)
    return doc


def _constant(value):
    return {"kind": "constant", "value": value}


def test_params_from_spec_refuses_cancelling_mean_terms():
    # 0.5 * E[I] = 0.5 * 2 against 0.5 * E[D] = 0.5 * 2: the drift's order is unknown
    doc = _gamma_doc(prob_imm=_constant(0.5), prob_em=_constant(0.5),
                     emigration={"family": "deterministic", "value": 2})
    with pytest.raises(ValueError, match="leading mean migration terms cancel at exponent 0"):
        params_from_spec(spec_from_dict(doc))


def test_params_from_spec_refuses_a_log_variance_on_top():
    # one child each: no offspring variance, so inverse-cube emigration's
    # log-growing variance is the top term
    doc = _gamma_doc(prob_imm=_constant(0.5), prob_em=_constant(0.25),
                     emigration={"family": "inverse_cube"})
    doc["offspring"][0]["components"][0] = {"family": "deterministic", "value": 1}
    with pytest.raises(ValueError, match="grows like a log at its top"):
        params_from_spec(spec_from_dict(doc))
    # with Poisson offspring the linear offspring part stays on top
    doc["offspring"][0]["components"][0] = {"family": "poisson", "mean": 1.0}
    params = params_from_spec(spec_from_dict(doc))
    assert (params.nu, params.beta) == (1.0, 1.0)


def test_params_from_spec_weights_emigration_by_the_count():
    # a decaying emigration probability r = s^-1/2 (clamped below 1/2) times
    # uniform removals (z_i + 1) / 2: the term is s^1/2 / 2, below linear
    comp = MigrationComponent(
        prob_imm=Constant(0.0), prob_em=Clamp(Power(1.0, -0.5), hi=0.5),
        emigration=UniformEmigration(),
    )
    assert migration_terms(migration_leads(comp)) == ((0.0, 0.0), (0.5, 0.5))
    assert migration_terms(migration_leads(comp, 4.0)) == ((0.0, 0.0), (2.0, 0.5))  # z_i = 4 s


# ---------------------------------------------------------------------------
# deterministic size recursion
# ---------------------------------------------------------------------------


def test_a_seq_constant_drift_exact():
    a = a_seq(2.0, 0.0, 1000)
    assert np.array_equal(a, 1.0 + 2.0 * np.arange(1001))


def test_a_seq_linear_drift_doubles():
    a = a_seq(1.0, 1.0, 20)
    assert np.array_equal(a, 2.0 ** np.arange(21))


def test_a_seq_rejects_nonpositive_drift():
    with pytest.raises(ValueError, match="nonpositive"):
        a_seq(-1.0, 0.0, 5)


def test_a_seq_approaches_asymptote():
    # the closed form l1_constant n^{1/(1-alpha)}
    a = a_seq(1.0, 0.5, 10_000)
    ratio = a[-1] / (_params(0.5, 1.0, c=1.0).l1_constant * 10_000 ** (1.0 / (1.0 - 0.5)))
    assert abs(ratio - 1.0) < 0.05


def test_a_seq_power_drift_step():
    # the increment at size x is (u.c) x^alpha
    a = a_seq(2.0, 0.5, 2)
    assert a[1] == 3.0
    assert a[2] == 3.0 + 2.0 * 3.0**0.5


# ---------------------------------------------------------------------------
# fluctuation scale
# ---------------------------------------------------------------------------


def test_lambda_n_power_branch_exact():
    # alpha = 0, beta = 1, nu = 1, u.c = 2 collapses to Lambda_n = n exactly
    p = _params(0.0, 1.0)
    for n in [2, 10, 500, 1000]:
        assert lambda_n(p, n) == float(n)


def test_lambda_n_log_branch():
    # at beta = 3 alpha - 1 the scale gains a sqrt(log n) factor
    p = _params(0.5, 0.5, nu=1.0, c=1.0)
    n = 1000
    expected = (0.5) ** 0.5 * n * math.sqrt(math.log(n))
    assert lambda_n(p, n) == pytest.approx(expected, rel=1e-12)


def test_lambda_n_scales_with_nu():
    lo = lambda_n(_params(0.0, 1.0, nu=1.0), 500)
    hi = lambda_n(_params(0.0, 1.0, nu=4.0), 500)
    assert hi == pytest.approx(2.0 * lo)


def test_lambda_n_domain():
    with pytest.raises(ValueError):
        lambda_n(_params(0.0, 1.0), 1)
    with pytest.raises(ValueError):
        # beta below the log branch threshold is outside the fluctuation theory
        lambda_n(LimitParams(alpha=0.9, c=np.array([1.0]), c_dot_u=1.0,
                             beta=0.5, nu=1.0), 100)


# ---------------------------------------------------------------------------
# diffusion approximation
# ---------------------------------------------------------------------------


def test_feller_params_single_type(gamma_spec):
    drift, diffusion = feller_params(gamma_spec)
    assert drift == pytest.approx(2.0)
    assert diffusion == pytest.approx(1.0)


def test_feller_params_two_type_hand_value():
    # Poisson(0.5) offspring everywhere; constant migration with I = D = 1:
    # drift = u . (q - r) and diffusion = sum_i v_i sum_j u_j^2 Var X_ij = 0.5
    offspring = tuple(
        IndependentOffspring(
            components=(PoissonOffspring(mean=0.5), PoissonOffspring(mean=0.5))
        )
        for _ in range(2)
    )
    comps = tuple(
        MigrationComponent(
            prob_imm=Constant(0.3),
            prob_em=Constant(0.2),
            immigration=DeterministicImmigration(value=1),
            emigration=DeterministicEmigration(value=1),
        )
        for _ in range(2)
    )
    spec = ModelSpec(offspring, comps,
                     DeterministicInitial(state=(1, 1)))
    drift, diffusion = feller_params(spec)
    assert drift == pytest.approx(0.3 - 0.2)
    assert diffusion == pytest.approx(0.5)


def test_feller_params_requires_criticality(small_support_spec):
    with pytest.raises(ValueError, match="critical"):
        feller_params(small_support_spec)


def test_feller_params_requires_convergent_migration(two_type_spec):
    with pytest.raises(ValueError, match="converge"):
        feller_params(two_type_spec)


def _refused_as_none(fn, spec):
    try:
        return fn(spec)
    except ValueError:
        return None


def test_params_from_spec_attaches_what_feller_params_gives():
    both = []
    for doc_name in SHIPPED:
        spec = load_spec(spec_path(doc_name))
        params, pair = _refused_as_none(params_from_spec, spec), _refused_as_none(feller_params, spec)
        if params is None:
            continue
        attached = (params.feller_drift, params.feller_diffusion)
        if pair is None:
            assert attached == (None, None), doc_name
        else:
            assert [x.hex() for x in attached] == [x.hex() for x in pair], doc_name  # bit for bit
            both.append(doc_name)
    assert both == ["gamma_single_type", "two_type_coupled"]


def _one_type(offspring, immigration, emigration, prob_imm, prob_em):
    comp = MigrationComponent(prob_imm=Constant(prob_imm), prob_em=Constant(prob_em),
                              immigration=immigration, emigration=emigration)
    return ModelSpec((offspring,), (comp,), DeterministicInitial(state=(1,)))


def test_feller_pair_with_inverse_cube_emigration():
    # the drift is 0.5 * 2 - 0.25 E[D] at the limit, E[D] = zeta(2) / zeta(3);
    # the inverse-cube variance grows like a log, which the pair never reads
    spec = _one_type(IndependentOffspring(components=(PoissonOffspring(mean=1.0),)),
                     DeterministicImmigration(value=2), InverseCubeEmigration(), 0.5, 0.25)
    assert feller_params(spec) == (0.6578918055949485, 1.0)


def test_feller_diffusion_is_the_offspring_part_not_nu():
    # deterministic offspring: no diffusion, though migration gives the
    # one-step variance a constant top term nu = 3.25 (beta = 0)
    spec = _one_type(FiniteOffspring(vectors=((1,),), probs=(1.0,)),
                     DeterministicImmigration(value=2), TruncatedGeometricEmigration(ratio=0.5),
                     0.5, 0.25)
    assert feller_params(spec) == (0.5, 0.0)
    params = params_from_spec(spec)
    assert (params.feller_drift, params.feller_diffusion) == (0.5, 0.0)
    assert (params.nu, params.beta) == (3.25, 0.0)


@pytest.mark.parametrize("doc_name", ["gamma_single_type", "pure_emigration",
                                      "sqrt_drift_single_type", "two_type_coupled",
                                      "two_type_mixed"])
def test_the_laws_large_size_forms_are_walked_once(monkeypatch, doc_name):
    # every critical shipped document: the classifier, the limit constants and
    # the Feller pair each read one leading_moments record, one walk of the
    # types' leading forms, refused or not
    spec = load_spec(spec_path(doc_name))
    calls = collections.Counter()
    for module, name in [(mbpm.moments, "migration_leads"), (mbpm.classify, "leading_moments"),
                         (mbpm.limits, "leading_moments")]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for fn in (classify_growth, params_from_spec, feller_params):
        calls.clear()
        _refused_as_none(fn, spec)
        assert calls == {"migration_leads": spec.dim, "leading_moments": 1}, fn.__name__


def test_euler_maruyama_zero_diffusion_is_exact_ode():
    times, values = euler_maruyama(2.0, 0.0, T=1.0, dt=1e-3)
    assert values.shape == (1, len(times))
    assert np.allclose(values[0], 2.0 * times, atol=1e-12)


def test_euler_maruyama_absorbs_at_zero_without_drift():
    times, values = euler_maruyama(0.0, 1.0, T=1.0, dt=1e-3,
                                   rng=stream_for(1, 0), n_paths=16)
    assert np.all(values == 0.0)  # sqrt(0) kills the noise, drift is zero


def test_euler_maruyama_mean_matches_drift():
    rng = stream_for(2, 0)
    _, values = euler_maruyama(2.0, 1.0, T=1.0, dt=1e-3, rng=rng, n_paths=10_000)
    terminal = values[:, -1]
    # E Z_1 = drift * T; Var Z_1 = diffusion * drift * T^2 / 2
    se = math.sqrt(terminal.var() / len(terminal))
    assert abs(terminal.mean() - 2.0) < 4 * se + 0.01
    assert abs(terminal.var() - 1.0) < 0.1


def test_euler_maruyama_needs_rng_for_noise():
    with pytest.raises(ValueError):
        euler_maruyama(1.0, 1.0, T=1.0)
