"""Limit-law parameters, size recursions, and the diffusion approximation."""
import math

import numpy as np
import pytest

from mbpm import (
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    LimitParams,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    PoissonOffspring,
    a_asymptotic,
    a_seq,
    euler_maruyama,
    feller_params,
    lambda_n,
    params_from_spec,
    stream_for,
)


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


def test_params_from_spec_calibrated_overrides(gamma_spec):
    from conftest import load_doc

    doc = load_doc("gamma_single_type")
    params = params_from_spec(gamma_spec, calibrated=doc["limit"])
    assert params.alpha == 0.0
    assert params.c_dot_u == pytest.approx(2.0)
    assert params.nu == pytest.approx(1.0)
    assert params.beta == pytest.approx(1.0)
    assert params.gamma_shape == pytest.approx(4.0)
    assert params.feller_drift == pytest.approx(2.0)
    assert params.feller_diffusion == pytest.approx(1.0)
    assert params.delta1 is None and params.delta2 is None  # nothing was fitted


def test_params_from_spec_fitted(gamma_spec):
    params = params_from_spec(gamma_spec)
    assert abs(params.alpha) < 0.01
    assert abs(params.c_dot_u - 2.0) < 0.05


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


def test_a_asymptotic_values():
    assert a_asymptotic(2.0, 0.0, 10) == pytest.approx(20.0)
    assert a_asymptotic(1.0, 0.5, 100) == pytest.approx(2500.0)


def test_a_seq_approaches_asymptote():
    a = a_seq(1.0, 0.5, 10_000)
    ratio = a[-1] / a_asymptotic(1.0, 0.5, 10_000)
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
    offspring = OffspringSpec(
        laws=tuple(
            IndependentOffspring(
                components=(PoissonOffspring(mean=0.5), PoissonOffspring(mean=0.5))
            )
            for _ in range(2)
        )
    )
    comps = tuple(
        MigrationComponent(
            prob_none=Constant(0.5),
            prob_imm=Constant(0.3),
            prob_em=Constant(0.2),
            immigration=DeterministicImmigration(value=1),
            emigration=DeterministicEmigration(value=1),
        )
        for _ in range(2)
    )
    spec = ModelSpec(offspring, MigrationSpec(components=comps),
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
