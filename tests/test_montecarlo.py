"""Ensemble machinery, tail estimates, and the hand-rolled statistics."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from mbpm import (
    Constant,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    MigrationComponent,
    MigrationSpec,
    ModelSpec,
    OffspringSpec,
    PoissonOffspring,
    TableOffspring,
    advance,
    ecdf,
    estimate_explosion,
    gamma_cdf,
    gamma_quantile,
    gof_report,
    ks_statistic,
    load_spec,
    moment_check,
    normal_cdf,
    run_ensemble,
    sample_step_batch,
    simulate_path,
    stream_for,
    wilson_interval,
)
from mbpm.montecarlo import BLOCK, MOMENT_BATCHES, ROWS, _simulate_blocks

import oracles
from conftest import load_doc, spec_path


def deterministic_spec():
    """Each individual has exactly one child; +1 immigration every step."""
    offspring = OffspringSpec(
        laws=(IndependentOffspring(components=(TableOffspring(values=(1,), probs=(1.0,)),)),)
    )
    comp = MigrationComponent(
        prob_none=Constant(0.0),
        prob_imm=Constant(1.0),
        prob_em=Constant(0.0),
        immigration=DeterministicImmigration(value=1),
        emigration=None,
    )
    return ModelSpec(offspring, MigrationSpec(components=(comp,)),
                     DeterministicInitial(state=(1,)))


# ---------------------------------------------------------------------------
# seed streams and ensembles
# ---------------------------------------------------------------------------


def test_stream_for_reproducible():
    a = stream_for(123, 7).integers(0, 2**63, size=5)
    b = stream_for(123, 7).integers(0, 2**63, size=5)
    assert np.array_equal(a, b)
    c = stream_for(123, 8).integers(0, 2**63, size=5)
    assert not np.array_equal(a, c)


def test_stream_for_validation():
    with pytest.raises(ValueError):
        stream_for(-1, 0)
    with pytest.raises(ValueError):
        stream_for(0, 2**64)


def test_ensemble_matches_direct_simulation(gamma_spec):
    # a one-replicate ensemble is block 0 with a single row
    ens = run_ensemble(gamma_spec, n=40, R=1, master_seed=99, store_paths=True)
    direct = simulate_path(gamma_spec, 40, stream_for(99, 0))
    assert np.array_equal(ens.paths[0], direct.states)
    assert np.array_equal(ens.terminal[0], direct.states[-1])


def test_ensemble_identical_across_worker_counts(gamma_spec):
    # three full blocks and a partial one, split across up to three workers
    kw = dict(n=20, R=3 * BLOCK + 1, master_seed=17)
    one = run_ensemble(gamma_spec, workers=1, store_paths=True, **kw)
    assert len(np.unique(one.terminal[:, 0])) > 10  # rows are not copies
    for workers in (2, 3):
        bare = run_ensemble(gamma_spec, workers=workers, **kw)
        assert np.array_equal(one.terminal, bare.terminal)
        full = run_ensemble(gamma_spec, workers=workers, store_paths=True, **kw)
        assert np.array_equal(one.terminal, full.terminal)
        assert np.array_equal(one.paths, full.paths)


@pytest.mark.parametrize("block", [1, 2], ids=["block-1", "partial-last-block"])
def test_ensemble_block_is_advance_on_its_own_stream(two_type_spec, block):
    # replicates [b BLOCK, (b+1) BLOCK) are advance iterated on stream_for(seed, b)
    R, n, seed = 2 * BLOCK + 37, 6, 23
    ens = run_ensemble(two_type_spec, n=n, R=R, master_seed=seed, store_paths=True)
    lo, hi = block * BLOCK, min((block + 1) * BLOCK, R)
    rng = stream_for(seed, block)
    Z = two_type_spec.initial.sample(rng, hi - lo)
    for k in range(n):
        assert np.array_equal(ens.paths[lo:hi, k], Z)
        Z = advance(two_type_spec, Z, rng)
    assert np.array_equal(ens.terminal[lo:hi], Z)


def test_ensemble_within_256_replicates_is_unchanged(gamma_spec):
    # terminal states of a 150-replicate ensemble as drawn with 256-row
    # blocks: any block of 256 rows or more keeps them, as it keeps block 0
    ens = run_ensemble(gamma_spec, n=500, R=150, master_seed=7)
    digest = hashlib.sha256(ens.terminal.astype("<i8").tobytes()).hexdigest()
    assert digest == "4d8073e48e1efa3d63d659106b5cc4eaf798f078b750408cdf9453bab67ba913"


def test_kernel_error_in_an_ensemble_names_the_step_and_the_block():
    # Poisson(1e9) children: rates 1e9 and ~1e18 pass, the ~1e27 of step 3 does not
    offspring = OffspringSpec(laws=(IndependentOffspring(components=(PoissonOffspring(1e9),)),))
    stay = MigrationComponent(prob_none=Constant(1.0), prob_imm=Constant(0.0),
                              prob_em=Constant(0.0))
    spec = ModelSpec(offspring, MigrationSpec(components=(stay,)), DeterministicInitial((1,)))
    with pytest.raises(ValueError, match=r"^step 3 of 5, block from replicate 0 \(row r is "
                                         r"replicate 0 \+ r\): Poisson offspring rate .* at row [012], "):
        run_ensemble(spec, n=5, R=3, master_seed=1)
    with pytest.raises(ValueError, match=rf"^step 3 of 5, block from replicate {BLOCK} \(row r "
                                         rf"is replicate {BLOCK} \+ r\): Poisson offspring "):
        _simulate_blocks((spec, 5, 1, BLOCK, BLOCK + 3, False))


def test_ensemble_paths_consistent(gamma_spec):
    ens = run_ensemble(gamma_spec, n=25, R=4, master_seed=5,
                       store_paths=True)
    assert ens.paths.shape == (4, 26, 1)
    assert np.array_equal(ens.paths[:, -1, :], ens.terminal)
    assert np.array_equal(ens.paths[:, 0, 0], np.ones(4))


def test_ensemble_refuses_a_negative_horizon(gamma_spec):
    # as simulate_path does: a negative horizon has no terminal states
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        run_ensemble(gamma_spec, n=-3, R=5, master_seed=1)
    assert (run_ensemble(gamma_spec, n=0, R=5, master_seed=1).terminal == 1).all()


def test_ensemble_deterministic_model():
    ens = run_ensemble(deterministic_spec(), n=10, R=5, master_seed=1)
    assert (ens.terminal == 11).all()  # 1 + one immigrant per step


def test_ensemble_summary_and_weighting(gamma_spec):
    ens = run_ensemble(gamma_spec, n=20, R=8, master_seed=2)
    s = ens.summary()
    assert s["replicates"] == 8
    assert s["n"] == 20
    assert "terminal_mean" in s and "fraction_null" in s
    assert "build_seconds" not in s  # reports stay free of timings
    w = ens.terminal_weighted(np.array([1.0]))
    assert w.shape == (8,)
    assert np.array_equal(w, ens.terminal[:, 0].astype(float))


# ---------------------------------------------------------------------------
# explosion probability
# ---------------------------------------------------------------------------


def test_estimate_explosion_pure_death(pure_death_spec):
    ens = run_ensemble(pure_death_spec, n=20, R=100, master_seed=3)
    est = estimate_explosion(ens, K=10.0)
    assert est.value == 0.0
    assert est.low == 0.0
    assert est.high < 0.05


def test_estimate_explosion_monotone_in_threshold(gamma_spec):
    ens = run_ensemble(gamma_spec, n=100, R=200, master_seed=4)
    ks = [10.0, 100.0, 300.0, 1e6]
    points = [estimate_explosion(ens, K=k).value for k in ks]
    assert all(a >= b for a, b in zip(points, points[1:]))
    assert points[-1] == 0.0


def test_estimate_explosion_validation(gamma_spec):
    ens = run_ensemble(gamma_spec, n=10, R=10, master_seed=5)
    with pytest.raises(ValueError):
        estimate_explosion(ens, K=-1.0)


def test_wilson_interval_hand_values():
    low, high = wilson_interval(5, 10)
    assert low == pytest.approx(0.2366, abs=2e-4)
    assert high == pytest.approx(0.7634, abs=2e-4)
    low0, high0 = wilson_interval(0, 50)
    assert low0 == 0.0 and high0 > 0.0
    low1, high1 = wilson_interval(50, 50)
    assert high1 == 1.0 and low1 < 1.0


# ---------------------------------------------------------------------------
# empirical distribution helpers
# ---------------------------------------------------------------------------


def test_ecdf_right_continuous():
    f = ecdf(np.array([1.0, 2.0, 2.0, 3.0]))
    assert f(0.5) == 0.0
    assert f(1.0) == 0.25
    assert f(1.999) == 0.25
    assert f(2.0) == 0.75
    assert f(10.0) == 1.0
    out = f(np.array([1.0, 2.0]))
    assert np.allclose(out, [0.25, 0.75])


def test_ks_statistic_single_point():
    d = ks_statistic(np.array([0.5]), lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5)


def test_ks_statistic_ideal_quantiles():
    n = 100
    sample = (np.arange(n) + 0.5) / n
    d = ks_statistic(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n)


def test_ks_statistic_disjoint_support():
    d = ks_statistic(np.array([-5.0, -4.0]), lambda x: gamma_cdf(x, 2.0, 1.0))
    assert d == pytest.approx(1.0)


def test_ks_statistic_brute_force_agreement():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        sample = rng.normal(size=n)
        d = ks_statistic(sample, lambda x: normal_cdf(x))
        xs = np.sort(sample)
        fe = ecdf(sample)
        grid = np.concatenate([xs, xs - 1e-9, [-10.0, 10.0]])
        brute = np.abs(fe(grid) - normal_cdf(grid)).max()
        assert d >= brute - 1e-9
        i = np.arange(1, n + 1)
        fx = normal_cdf(xs)
        exact = max((i / n - fx).max(), (fx - (i - 1) / n).max())
        assert d == pytest.approx(exact, abs=1e-12)


def test_ks_statistic_against_scipy():
    rng = np.random.default_rng(22)
    sample = rng.gamma(shape=3.0, scale=2.0, size=500)
    ours = ks_statistic(sample, lambda x: gamma_cdf(x, 3.0, 2.0))
    theirs = scipy.stats.kstest(sample, scipy.stats.gamma(a=3.0, scale=2.0).cdf)
    assert ours == pytest.approx(theirs.statistic, abs=1e-12)


# ---------------------------------------------------------------------------
# hand-rolled distribution functions
# ---------------------------------------------------------------------------


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
    grid = np.linspace(-8.0, 8.0, 401)
    assert np.abs(normal_cdf(grid) - scipy.stats.norm.cdf(grid)).max() < 1e-12


def test_gamma_cdf_special_cases():
    assert gamma_cdf(0.0, 2.0, 1.0) == 0.0
    assert gamma_cdf(-3.0, 2.0, 1.0) == 0.0
    # shape 1 is the exponential law
    assert gamma_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_gamma_cdf_against_scipy():
    shapes = [0.3, 1.0, 2.5, 4.0, 10.0, 50.0]
    scales = [0.5, 1.0, 2.0]
    for a in shapes:
        for s in scales:
            x = np.linspace(0.0, a * s * 5, 200)
            ours = gamma_cdf(x, a, s)
            theirs = scipy.special.gammainc(a, x / s)
            assert np.abs(ours - theirs).max() < 1e-10, (a, s)


@pytest.mark.parametrize("shape", [0.3, 4.0, 50.0])
def test_gamma_quantile_against_scipy(shape):
    # the feller suite's fan: five quantiles at t = 1, scale diffusion / 2
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    for scale in (0.5, 2.0):
        theirs = scipy.stats.gamma.ppf(qs, shape, scale=scale)
        assert np.abs(gamma_quantile(qs, shape, scale) / theirs - 1.0).max() <= 1e-12


def test_gamma_quantile_refuses_probabilities_outside_the_open_unit_interval():
    for q in (0.0, 1.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="probabilities must lie in"):
            gamma_quantile([0.5, q], 4.0, 0.5)


def reference_gamma_cdf(t: float, a: float) -> float:
    """P(a, t) point by point in plain floats (Numerical Recipes 6.2): the
    ascending series below a + 1, the modified-Lentz fraction above."""
    if t <= 0.0:
        return 0.0
    prefactor = math.exp(-t + a * math.log(t) - math.lgamma(a))
    if t < a + 1.0:
        term = total = 1.0 / a
        n = 0
        while True:
            n += 1
            term *= t / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-16 or n > 10_000:
                return min(1.0, total * prefactor)
    tiny = 1e-300
    b = t + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return min(1.0, max(0.0, 1.0 - prefactor * h))


@pytest.mark.parametrize("shape", [0.3, 1.0, 4.0, 50.0, 500.0])
def test_gamma_cdf_array_equals_scalar_calls(shape):
    scale = 0.7
    # t = x / scale below, at and above the series/fraction switch t = shape + 1,
    # out to t >= 1e3, plus x <= 0
    t = np.concatenate([
        np.linspace(0.0, 3.0 * (shape + 1.0), 301),
        (shape + 1.0) * (1.0 + np.array([-1e-12, 0.0, 1e-12])),
        np.geomspace(1e-8, 1e-2, 7),
        np.geomspace(1e3, 1e4, 5) * max(1.0, shape / 100.0),
    ])
    x = np.concatenate([t * scale, [-0.0, -1e-300, -2.0, -1e6]])
    arr = gamma_cdf(x, shape, scale)
    assert arr.shape == x.shape
    scalars = [gamma_cdf(float(v), shape, scale) for v in x]
    assert all(isinstance(v, float) for v in scalars)
    assert arr.tolist() == scalars  # bit for bit
    assert arr.tolist() == [reference_gamma_cdf(max(v, 0.0) / scale, shape) for v in x.tolist()]
    assert gamma_cdf(x.reshape(2, -1), shape, scale).tolist() == arr.reshape(2, -1).tolist()
    assert (arr[x <= 0.0] == 0.0).all()
    theirs = scipy.special.gammainc(shape, np.clip(x, 0.0, None) / scale)
    assert np.abs(arr - theirs).max() < 1e-10


def test_gamma_cdf_non_finite_points():
    out = gamma_cdf(np.array([np.inf, -np.inf, np.nan, 1.0]), 2.0, 1.0)
    assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
    assert out[3] == pytest.approx(scipy.special.gammainc(2.0, 1.0), abs=1e-15)


def test_ks_statistic_calls_cdf_once_on_the_sorted_sample():
    seen = []

    def cdf(x):
        seen.append(np.array(x))
        return np.clip(x, 0.0, 1.0)

    sample = np.array([0.9, 0.1, 0.5])
    ks_statistic(sample, cdf)
    assert len(seen) == 1 and seen[0].tolist() == [0.1, 0.5, 0.9]
    with pytest.raises(ValueError, match="array"):
        ks_statistic(sample, lambda x: 0.5)  # not vectorised


def test_gof_report_keeps_the_evaluated_reference():
    sample = np.random.default_rng(24).normal(size=300)
    rep = gof_report(sample, normal_cdf, "standard normal", {}, threshold=0.1)
    assert rep.sorted_sample.tolist() == sorted(sample.tolist())
    assert rep.reference_values.tolist() == normal_cdf(np.sort(sample)).tolist()
    assert rep.value == ks_statistic(sample, normal_cdf)
    assert set(rep.to_dict()) == {
        "statistic", "value", "sample_size", "reference", "params", "threshold", "passed"}


def test_gof_report_fields(gamma_spec):
    rng = np.random.default_rng(23)
    sample = rng.gamma(shape=4.0, scale=0.5, size=2000)
    rep = gof_report(sample, lambda x: gamma_cdf(x, 4.0, 0.5), "gamma",
                     {"shape": 4.0, "scale": 0.5}, threshold=0.05)
    assert rep.passed
    assert rep.statistic == "ks"
    assert rep.value < 0.05
    assert rep.reference == "gamma"
    bad = gof_report(sample, lambda x: gamma_cdf(x, 1.0, 1.0), "gamma",
                     {"shape": 1.0, "scale": 1.0}, threshold=0.05)
    assert not bad.passed


# ---------------------------------------------------------------------------
# one-step moment verification
# ---------------------------------------------------------------------------


def test_moment_check_deterministic_model():
    rep = moment_check(deterministic_spec(), np.array([5]), N=10_000, seed=6)
    assert rep.passed
    assert rep.max_mean_sigmas == 0.0


def test_moment_check_rejects_tiny_samples(gamma_spec):
    with pytest.raises(ValueError):
        moment_check(gamma_spec, np.array([5]), N=100, seed=7)


def two_pass_moments(spec, z, N, seed):
    """Mean, covariance and batch-means SE over moment_check's draws, two-pass.

    Every chunk is drawn again from its stream and the chunks concatenated;
    then np.mean, np.cov and one np.cov per batch, as over a single array.
    """
    size = N // MOMENT_BATCHES
    per_chunk = max(1, ROWS // size)
    firsts = range(0, MOMENT_BATCHES, per_chunk)
    parts = [
        sample_step_batch(spec, z, min(per_chunk, MOMENT_BATCHES - first) * size,
                          stream_for(seed, c))
        for c, first in enumerate(firsts)
    ]
    if N % MOMENT_BATCHES:
        parts.append(sample_step_batch(spec, z, N % MOMENT_BATCHES,
                                       stream_for(seed, len(firsts))))
    batch = np.concatenate(parts).astype(float)
    assert len(batch) == N
    cov = np.atleast_2d(np.cov(batch, rowvar=False, ddof=1))
    per_batch = np.array([
        np.atleast_2d(np.cov(batch[b * size:(b + 1) * size], rowvar=False, ddof=1))
        for b in range(MOMENT_BATCHES)
    ])
    se = per_batch.std(axis=0, ddof=1) / math.sqrt(MOMENT_BATCHES)
    return batch.mean(axis=0), cov, se, len(parts)


@pytest.mark.parametrize("N, streams", [(10_000, 1), (123_457, 3)], ids=["one-chunk", "leftover"])
@pytest.mark.parametrize("name, z", [("two_type_mixed", (50, 30)), ("small_support", (2, 1))],
                         ids=["two_type_mixed", "small_support"])
def test_moment_check_streams_the_two_pass_statistics(name, z, N, streams):
    spec = load_spec(spec_path(name))
    rep = moment_check(spec, np.array(z), N=N, seed=31)
    mean, cov, se, parts = two_pass_moments(spec, np.array(z), N, seed=31)
    assert parts == streams
    for got, want in ((rep.mean_empirical, mean), (rep.cov_empirical, cov),
                      (rep.cov_se, se)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_moment_check_memory_does_not_grow_with_samples(two_type_spec):
    def peak(N):
        tracemalloc.start()
        try:
            moment_check(two_type_spec, np.array([50, 30]), N=N, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200_000), peak(2_000_000)
    assert large <= 1.25 * small, (small, large)
    assert large < 16e6, large


def test_moment_check_detects_wrong_model(gamma_spec, sqrt_spec):
    # check the gamma model's samples against the sqrt model's moments
    from mbpm import cond_mean, sample_step_batch

    z = np.array([100])
    batch = sample_step_batch(gamma_spec, z, 100_000, stream_for(8, 0))
    wrong = cond_mean(sqrt_spec, z)
    se = math.sqrt(batch.var() / len(batch))
    assert abs(batch.mean() - wrong[0]) > 10 * se


# ---------------------------------------------------------------------------
# the exact n-step law across block boundaries
# ---------------------------------------------------------------------------

# Error rate of the total-variation gate.  TV(empirical, exact) moves by at
# most 1/R when one replicate changes, so McDiarmid's inequality gives
# P(TV >= E TV + t) <= exp(-2 R t^2); E TV is exact from the binomial cell
# counts.  The gate is E TV + sqrt(log(1/alpha) / (2 R)), fixed by R alone.
_TV_ALPHA = 1e-6


def test_multi_step_oracle_at_one_step_is_the_one_step_pmf():
    doc = load_doc("small_support")
    grid = oracles.multi_step_law(doc, 1)
    pmf = oracles.one_step_pmf(doc, doc["initial"]["state"])
    assert grid.sum() == pytest.approx(1.0, abs=1e-12)
    assert max(abs(grid[z] - q) for z, q in pmf.items()) < 1e-15
    assert grid.sum() - math.fsum(pmf.values()) < 1e-12  # no mass off the enumerated support


def _expected_total_variation(law, R):
    """E TV(empirical law of R draws, law).  A cell's count X is Binomial(R, p)
    and E X = R p, so E|X - R p| = 2 E(R p - X)^+, a sum over k <= R p."""
    p = law[law > 0]
    width = np.floor(R * p).astype(int) + 1
    cell = np.repeat(np.arange(p.size), width)
    k = np.arange(cell.size) - np.repeat(np.cumsum(width) - width, width)
    q = p[cell]
    log_pmf = (scipy.special.gammaln(R + 1) - scipy.special.gammaln(k + 1)
               - scipy.special.gammaln(R - k + 1) + k * np.log(q) + (R - k) * np.log1p(-q))
    return math.fsum(np.exp(log_pmf) * (R * q - k)) / R


@pytest.mark.parametrize("n", [3, 4])
def test_ensemble_terminal_law_is_the_exact_n_step_law(small_support_spec, pure_death_spec, n):
    # ten full blocks and a partial one
    R = 10 * BLOCK + 17
    exact = oracles.multi_step_law(load_doc("small_support"), n)
    bound = (_expected_total_variation(exact, R)
             + math.sqrt(math.log(1.0 / _TV_ALPHA) / (2 * R)))
    term = run_ensemble(small_support_spec, n=n, R=R, master_seed=4242).terminal
    shape = np.maximum(exact.shape, term.max(axis=0) + 1)
    freq = np.zeros(shape)
    np.add.at(freq, (term[:, 0], term[:, 1]), 1.0 / R)
    freq[: exact.shape[0], : exact.shape[1]] -= exact
    assert 0.5 * np.abs(freq).sum() <= bound
    # an absorbed row stays at zero in every block
    dead = run_ensemble(pure_death_spec, n=n, R=R, master_seed=4242, store_paths=True)
    assert (dead.paths[:, 0] == 5).all() and (dead.paths[:, 1:] == 0).all()
