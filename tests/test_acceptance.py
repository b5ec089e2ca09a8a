"""Acceptance gate: nine statistical and exact checks at full scale.

Each test prints one verdict line (collected into the terminal summary)
and enforces both the tolerance and the runtime budget.  Shared ensembles
come from session fixtures; their build time is charged to every
criterion that consumes them, which keeps the accounting conservative.
"""
import time

import numpy as np

import conftest
import oracles
from conftest import load_doc
from mbpm import (
    LimitParams,
    a_seq,
    classify_growth,
    feller_params,
    gamma_cdf,
    gof_report,
    lambda_n,
    moment_check,
    normal_cdf,
    perron,
    sample_step_batch,
    stream_for,
)


def record(num, passed, detail, elapsed, budget):
    line = (f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail} "
            f"({elapsed:.1f}s < {budget:.0f}s budget)")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line
    assert elapsed < budget, line


def test_criterion_1_one_step_moments(two_type_spec):
    budget = 30.0
    t0 = time.perf_counter()
    report = moment_check(two_type_spec, np.array([50, 30]), N=1_000_000,
                          seed=20260819)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.max_mean_sigmas < 4.0 and report.max_cov_sigmas < 4.0
    record(1, ok,
           f"one-step mean/cov agree with exact formulas at z=(50,30): "
           f"max mean {report.max_mean_sigmas:.2f} SE, "
           f"max cov {report.max_cov_sigmas:.2f} SE (N=1e6)",
           elapsed, budget)


def test_criterion_2_spectral_accuracy():
    budget = 1.0
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_rho = worst_resid = worst_norm = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        m = rng.random((p, p)) + 0.05
        m /= m.sum(axis=1, keepdims=True)  # row-stochastic: rho = 1, v = 1
        sd = perron(m)
        worst_rho = max(worst_rho, abs(sd.rho - 1.0))
        worst_resid = max(
            worst_resid,
            float(np.abs(sd.u @ m - sd.rho * sd.u).max()),
            float(np.abs(m @ sd.v - sd.rho * sd.v).max()),
        )
        worst_norm = max(worst_norm, abs(sd.u.sum() - 1.0), abs(sd.u @ sd.v - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_rho <= 1e-10 and worst_resid <= 1e-10 and worst_norm <= 1e-12
    record(2, ok,
           f"100 row-stochastic eigenpairs: |rho-1| {worst_rho:.1e}, "
           f"residual {worst_resid:.1e}, normalization {worst_norm:.1e}",
           elapsed, budget)


def test_criterion_3_gamma_limit(gamma_ensemble):
    budget = 300.0
    t0 = time.perf_counter()
    w = gamma_ensemble.terminal[:, 0] / gamma_ensemble.n
    d = gof_report(w, lambda x: gamma_cdf(x, 4.0, 0.5), "gamma", {"shape": 4.0, "scale": 0.5},
                   threshold=0.05).value
    elapsed = time.perf_counter() - t0 + conftest.BUILD_SECONDS["gamma_ensemble"]
    record(3, d <= 0.05,
           f"Z_n/n vs gamma(shape 4, scale 0.5): KS {d:.4f} <= 0.05 "
           f"(n=1000, R=5000)",
           elapsed, budget)


def test_criterion_4_l1_constant(sqrt_ensemble):
    budget = 300.0
    t0 = time.perf_counter()
    n = sqrt_ensemble.n
    w = sqrt_ensemble.terminal[:2000, 0] / n**2
    target = LimitParams(alpha=0.5, c=np.array([1.0]), c_dot_u=1.0, beta=1.0, nu=1.0).l1_constant
    rel = abs(w.mean() - target) / target
    elapsed = time.perf_counter() - t0 + conftest.BUILD_SECONDS["sqrt_ensemble"]
    record(4, rel <= 0.10,
           f"mean of Z_n/n^2 = {w.mean():.4f} within {rel * 100:.1f}% of "
           f"{target} (n=2000, R=2000)",
           elapsed, budget)


def test_criterion_5_normal_fluctuations(sqrt_ensemble):
    budget = 600.0
    t0 = time.perf_counter()
    n = sqrt_ensemble.n
    a_n = a_seq(1.0, 0.5, n)[-1]
    params = LimitParams(alpha=0.5, c=np.array([1.0]), c_dot_u=1.0, beta=1.0, nu=1.0)
    lam = lambda_n(params, n)
    w = (sqrt_ensemble.terminal[:, 0] - a_n) / lam
    d = gof_report(w, normal_cdf, "standard normal", {}, threshold=0.07).value
    elapsed = time.perf_counter() - t0 + conftest.BUILD_SECONDS["sqrt_ensemble"]
    record(5, d <= 0.07,
           f"(Z_n - a_n)/Lambda_n vs standard normal: KS {d:.4f} <= 0.07 "
           f"(n=2000, R=3000, a_n={a_n:.0f}, Lambda_n={lam:.0f})",
           elapsed, budget)


def test_criterion_6_diffusion_limit(gamma_spec, gamma_ensemble):
    budget = 300.0
    t0 = time.perf_counter()
    drift, diffusion = feller_params(gamma_spec)
    assert drift == 2.0 and diffusion == 1.0
    w_emp = gamma_ensemble.states[:2000, gamma_ensemble.steps.index(500), 0] / 500.0
    # the diffusion started at 0 is exactly Gamma(2 drift / diffusion, diffusion / 2) at t = 1
    shape, scale = 2.0 * drift / diffusion, diffusion / 2.0
    d = gof_report(w_emp, lambda x: gamma_cdf(x, shape, scale), "gamma",
                   {"shape": shape, "scale": scale}, threshold=0.05).value
    elapsed = time.perf_counter() - t0 + conftest.BUILD_SECONDS["gamma_ensemble"]
    record(6, d <= 0.05,
           f"Z_[n]/n at n=500 vs the diffusion's exact law Gamma(4, 0.5) "
           f"(drift 2, diffusion 1): one-sample KS {d:.4f} <= 0.05 (R=2000)",
           elapsed, budget)


def test_criterion_7_no_growth(emigration_spec, emigration_ensemble):
    budget = 120.0
    t0 = time.perf_counter()
    verdict = classify_growth(emigration_spec)
    norms = np.abs(emigration_ensemble.states).sum(axis=2)
    exceed = int((norms.max(axis=1) > 1e3).sum())
    elapsed = time.perf_counter() - t0 + conftest.BUILD_SECONDS["emigration_ensemble"]
    ok = (verdict.verdict == "no-growth" and exceed == 0
          and emigration_ensemble.replicates == 2000)
    record(7, ok,
           f"emigration-only model: verdict {verdict.verdict} "
           f"({verdict.condition}); {exceed}/2000 paths of length 500 ever "
           f"exceed l1 norm 1000 (max seen {norms.max():.0f})",
           elapsed, budget)


def test_criterion_8_exact_sequences():
    budget = 5.0
    t0 = time.perf_counter()
    n_big = 1_000_000
    ok = True
    for c in [2.0, 0.5]:
        a = a_seq(c, 0.0, n_big)
        ok = ok and np.array_equal(a, 1.0 + c * np.arange(n_big + 1))
    sqrt_params = LimitParams(alpha=0.5, c=np.array([1.0]), c_dot_u=1.0, beta=1.0, nu=1.0)
    asymptote = sqrt_params.l1_constant * 100_000 ** (1.0 / (1.0 - sqrt_params.alpha))
    ratio = a_seq(1.0, 0.5, 100_000)[-1] / asymptote
    ok = ok and abs(ratio - 1.0) <= 0.05
    params = LimitParams(alpha=0.0, c=np.array([2.0]), c_dot_u=2.0, beta=1.0, nu=1.0)
    lam_exact = all(lambda_n(params, n) == float(n)
                    for n in [2, 10, 500, 1000, 1_000_000])
    ok = ok and lam_exact
    elapsed = time.perf_counter() - t0
    record(8, ok,
           f"constant-drift recursion exact to n=1e6; sqrt-drift ratio to "
           f"asymptote {ratio:.5f}; fluctuation scale exactly n on the "
           f"calibrated constants",
           elapsed, budget)


def tally_pairs(rows):
    """Distinct rows of a (N, 2) array of counts, in lexicographic order, and
    how often each occurs: one int64 key s0 * (max s1 + 1) + s1 per row."""
    assert rows.min() >= 0
    base = int(rows[:, 1].max()) + 1
    keys, counts = np.unique(rows[:, 0] * base + rows[:, 1], return_counts=True)
    return np.column_stack(np.divmod(keys, base)), counts


def test_criterion_9_transition_law_oracle(small_support_spec):
    budget = 60.0
    t0 = time.perf_counter()
    doc = load_doc("small_support")
    z = (2, 1)
    exact = oracles.one_step_pmf(doc, z)
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    batch = sample_step_batch(small_support_spec, np.array(z), 1_000_000,
                              stream_for(97531, 0))
    states, counts = tally_pairs(batch)
    # The keys sort as the rows do, so this is np.unique(axis=0)'s tally.
    head = batch[:20_000]
    for got, want in zip(tally_pairs(head), np.unique(head, axis=0, return_counts=True)):
        assert np.array_equal(got, want)
    emp = {tuple(int(x) for x in s): c / len(batch)
           for s, c in zip(states, counts)}
    tv = oracles.total_variation(exact, emp)
    elapsed = time.perf_counter() - t0
    record(9, tv <= 0.005,
           f"exact one-step law ({len(exact)} states) vs 1e6 samples: "
           f"total variation {tv:.5f} <= 0.005",
           elapsed, budget)
