"""Ensemble machinery, tail estimates, and the hand-rolled statistics."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from mbpm import cli
from mbpm import (
    Constant,
    DeterministicImmigration,
    DeterministicInitial,
    IndependentOffspring,
    MigrationComponent,
    ModelSpec,
    PoissonOffspring,
    TableOffspring,
    advance,
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
    spec_from_dict,
    stream_for,
    wilson_interval,
)
from mbpm.model import _trajectories
from mbpm.montecarlo import (BLOCK, MOMENT_BATCHES, ROWS, _gamma_pair, _gamma_prefactor,
                             _run_starts)

import oracles
from conftest import NUMPY_BASELINE, load_doc, run_fresh, run_python, spec_path


def deterministic_spec():
    """Each individual has exactly one child; +1 immigration every step."""
    offspring = (IndependentOffspring(components=(TableOffspring(values=(1,), probs=(1.0,)),)),)
    comp = MigrationComponent(
        prob_imm=Constant(1.0),
        prob_em=Constant(0.0),
        immigration=DeterministicImmigration(value=1),
        emigration=None,
    )
    return ModelSpec(offspring, (comp,),
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


def test_stream_for_separates_word_boundary_pairs():
    # the list form SeedSequence([seed, block]) maps these pairs together;
    # stream_for must not, nor any other pair of the grid
    def first_word(entropy):
        return np.random.SFC64(np.random.SeedSequence(entropy)).random_raw()

    colliding = [((7, 1), (2**32 + 7, 0)), ((2**32, 1), (0, 2**32 + 1))]
    for a, b in colliding:
        assert first_word(list(a)) == first_word(list(b))
    edges = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 7, 2**63, 2**64 - 1]
    pairs = {(seed, block) for seed in edges for block in edges}
    pairs.update(pair for both in colliding for pair in both)
    firsts = {stream_for(seed, block).bit_generator.random_raw() for seed, block in pairs}
    assert len(firsts) == len(pairs)


def test_stream_for_validation():
    with pytest.raises(ValueError):
        stream_for(-1, 0)
    with pytest.raises(ValueError):
        stream_for(0, 2**64)


def test_ensemble_matches_direct_simulation(gamma_spec):
    # a one-replicate ensemble is block 0 with a single row
    ens = run_ensemble(gamma_spec, n=40, R=1, master_seed=99, steps=range(41))
    direct = simulate_path(gamma_spec, 40, stream_for(99, 0))
    assert np.array_equal(ens.states[0], direct)
    assert np.array_equal(ens.terminal[0], direct[-1])


def test_ensemble_identical_across_worker_counts(gamma_spec):
    # three full blocks and a partial one, split across up to three workers
    kw = dict(n=20, R=3 * BLOCK + 1, master_seed=17)
    every = range(kw["n"] + 1)
    one = run_ensemble(gamma_spec, workers=1, steps=every, **kw)
    assert len(np.unique(one.terminal[:, 0])) > 10  # rows are not copies
    for workers in (2, 3):
        bare = run_ensemble(gamma_spec, workers=workers, **kw)
        assert np.array_equal(one.terminal, bare.terminal)
        full = run_ensemble(gamma_spec, workers=workers, steps=every, **kw)
        assert np.array_equal(one.terminal, full.terminal)
        assert np.array_equal(one.states, full.states)


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported by the first ensemble that has more than one job;
    # mbpm.cli loads every submodule, montecarlo included
    code = ("import sys, mbpm.cli; "
            "print('mbpm.montecarlo' in sys.modules, "
            "sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    assert run_python(code).strip() == "True []"


@pytest.mark.parametrize("block", [1, 2], ids=["block-1", "partial-last-block"])
def test_ensemble_block_is_advance_on_its_own_stream(two_type_spec, block):
    # replicates [b BLOCK, (b+1) BLOCK) are advance iterated on stream_for(seed, b)
    R, n, seed = 2 * BLOCK + 37, 6, 23
    ens = run_ensemble(two_type_spec, n=n, R=R, master_seed=seed, steps=range(n + 1))
    lo, hi = block * BLOCK, min((block + 1) * BLOCK, R)
    rng = stream_for(seed, block)
    Z = two_type_spec.initial.sample(rng, hi - lo)
    for k in range(n):
        assert np.array_equal(ens.states[lo:hi, k], Z)
        Z = advance(two_type_spec, Z, rng)
    assert np.array_equal(ens.terminal[lo:hi], Z)


def test_ensemble_draws_a_table_initial_law_from_each_block_stream():
    # each block's step-0 states are the first draws of its own stream
    probs = [0.2, 0.5, 0.3]
    doc = load_doc("gamma_single_type")
    doc["initial"] = {"kind": "table", "states": [[0], [5], [20]], "probs": probs}
    spec = spec_from_dict(doc)
    R = BLOCK + 300
    ens = run_ensemble(spec, 10, R, 7, steps=(0, 10), workers=1)
    for b in (0, 1):
        rows = min(BLOCK, R - b * BLOCK)
        want = np.array([0, 5, 20])[stream_for(7, b).choice(3, p=probs, size=rows)]
        assert np.array_equal(ens.states[b * BLOCK : b * BLOCK + rows, 0, 0], want), b
    pooled = run_ensemble(spec, 10, R, 7, steps=(0, 10), workers=2)
    assert np.array_equal(pooled.states, ens.states)


def test_ensemble_within_256_replicates_is_unchanged(gamma_spec):
    # terminal states of a 150-replicate ensemble, all in block 0.  First
    # recorded with 256-row blocks, to show that any BLOCK of 256 rows or
    # more keeps them; recorded again when stream_for moved from Philox to
    # SFC64, so it now pins block 0's stream
    ens = run_ensemble(gamma_spec, n=500, R=150, master_seed=7)
    digest = hashlib.sha256(ens.terminal.astype("<i8").tobytes()).hexdigest()
    assert digest == "cdd632edbfd618d32bdce1ecb2043b0ff421e0dce39483db56febfa3cfa51d3e"


def test_kernel_error_in_an_ensemble_names_the_step_and_the_block():
    # Poisson(1e9) children: rates 1e9 and ~1e18 pass, the ~1e27 of step 3 does not
    offspring = (IndependentOffspring(components=(PoissonOffspring(1e9),)),)
    stay = MigrationComponent(prob_imm=Constant(0.0), prob_em=Constant(0.0))
    spec = ModelSpec(offspring, (stay,), DeterministicInitial((1,)))
    with pytest.raises(ValueError, match=r"^step 3 of 5, block from replicate 0 \(row r is "
                                         r"replicate 0 \+ r\): Poisson offspring rate .* at row [012], "):
        run_ensemble(spec, n=5, R=3, master_seed=1)
    with pytest.raises(ValueError, match=rf"^step 3 of 5, block from replicate {BLOCK} \(row r "
                                         rf"is replicate {BLOCK} \+ r\): Poisson offspring "):
        _trajectories(spec, 5, (5,), stream_for(1, 1), np.empty((3, 1, 1), dtype=np.int64), BLOCK)


def test_ensemble_keeps_its_states_once(emigration_spec):
    # criterion 7's shape, every step kept: in one process each block is
    # written into the ensemble's own array, so the kept states are held once
    run_ensemble(emigration_spec, n=5, R=10, master_seed=1, workers=1)  # warm caches
    tracemalloc.start()
    try:
        ens = run_ensemble(emigration_spec, n=500, R=2000, master_seed=16180,
                           steps=range(501), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ens.states.nbytes, (peak, ens.states.nbytes)


def test_ensemble_paths_consistent(gamma_spec):
    ens = run_ensemble(gamma_spec, n=25, R=4, master_seed=5,
                       steps=range(26))
    assert ens.states.shape == (4, 26, 1)
    assert np.array_equal(ens.states[:, -1, :], ens.terminal)
    assert np.array_equal(ens.states[:, 0, 0], np.ones(4))


@pytest.mark.parametrize("steps", [(), (3, 1, 5), (1, 1, 5), (-1, 5), (2, 6), (1, 3),
                                   (2.5, 5)],
                         ids=["empty", "unsorted", "duplicate", "negative", "past-n",
                              "last-not-n", "fractional"])
def test_ensemble_refuses_steps_before_any_draw(gamma_spec, monkeypatch, steps):
    def no_draw(*args):
        raise AssertionError("a draw before the steps were checked")

    monkeypatch.setattr("mbpm.model.advance", no_draw)
    monkeypatch.setattr("mbpm.montecarlo.stream_for", no_draw)
    with pytest.raises(ValueError, match=r"^steps must be strictly increasing integers in "
                                         r"\[0, 5\] ending at 5$"):
        run_ensemble(gamma_spec, n=5, R=3, master_seed=1, steps=steps)


def test_ensemble_kept_steps_are_columns_of_every_step(two_type_spec):
    # two full blocks and a partial one; steps given as numpy integers
    n, R, seed = 12, 2 * BLOCK + 5, 29
    every = run_ensemble(two_type_spec, n=n, R=R, master_seed=seed, steps=range(n + 1))
    kept = np.array([0, 3, 4, 11, 12])
    for workers in (1, 2, 3):
        ens = run_ensemble(two_type_spec, n=n, R=R, master_seed=seed, steps=kept,
                           workers=workers)
        assert ens.steps == (0, 3, 4, 11, 12) and all(type(k) is int for k in ens.steps)
        assert np.array_equal(ens.states, every.states[:, kept])
        assert np.array_equal(ens.terminal, every.terminal)


def test_ensemble_refuses_a_negative_horizon(gamma_spec):
    # as simulate_path does: a negative horizon has no terminal states
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        run_ensemble(gamma_spec, n=-3, R=5, master_seed=1)
    assert (run_ensemble(gamma_spec, n=0, R=5, master_seed=1).terminal == 1).all()


def test_ensemble_refuses_a_worker_count_below_one_from_the_environment(gamma_spec,
                                                                       monkeypatch):
    # it was clamped to one worker without a word
    monkeypatch.setenv("MBPM_WORKERS", "0")
    with pytest.raises(ValueError, match="MBPM_WORKERS must be >= 1, got 0"):
        run_ensemble(gamma_spec, n=3, R=5, master_seed=1)
    assert run_ensemble(gamma_spec, n=3, R=5, master_seed=1, workers=1).terminal.shape == (5, 1)


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
    w = ens.terminal @ np.array([1.0])
    assert w.shape == (8,)
    assert np.array_equal(w, ens.terminal[:, 0].astype(float))


# ---------------------------------------------------------------------------
# explosion probability
# ---------------------------------------------------------------------------


def test_estimate_explosion_pure_death(pure_death_spec):
    ens = run_ensemble(pure_death_spec, n=20, R=100, master_seed=3)
    est = estimate_explosion(ens, K=10.0)
    assert est.value == 0.0
    assert est.ci95[0] == 0.0
    assert est.ci95[1] < 0.05


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


def test_estimate_explosion_refuses_a_nan_threshold(gamma_spec):
    # nan < 0 is false as well as nan >= 0: only the latter refuses it
    ens = run_ensemble(gamma_spec, n=10, R=10, master_seed=5)
    with pytest.raises(ValueError, match="threshold K must be >= 0, got nan"):
        estimate_explosion(ens, K=float("nan"))


@pytest.mark.parametrize("successes", [11, -1])
def test_wilson_interval_refuses_successes_outside_the_trials(successes):
    # outside [0, trials] the score interval's p (1 - p) is negative
    with pytest.raises(ValueError, match=rf"successes must lie in \[0, trials = 10\], got {successes}"):
        wilson_interval(successes, 10)


def test_wilson_interval_hand_values():
    low, high = wilson_interval(5, 10)
    assert low == pytest.approx(0.2366, abs=2e-4)
    assert high == pytest.approx(0.7634, abs=2e-4)
    low0, high0 = wilson_interval(0, 50)
    assert low0 == 0.0 and high0 > 0.0
    low1, high1 = wilson_interval(50, 50)
    assert high1 == 1.0 and low1 < 1.0


# ---------------------------------------------------------------------------
# the Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------


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
        grid = np.concatenate([xs, xs - 1e-9, [-10.0, 10.0]])
        empirical = np.searchsorted(xs, grid, side="right") / n  # right-continuous step function
        brute = np.abs(empirical - normal_cdf(grid)).max()
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
    assert normal_cdf(np.array([])).shape == (0,)


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


@pytest.mark.parametrize("shape", [0.01, 0.3, 0.5, 4.0, 50.0, 1e4])
def test_gamma_quantile_against_scipy(shape):
    # the feller suite's fan: five quantiles at t = 1, scale diffusion / 2
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    for scale in (0.5, 2.0):
        theirs = scipy.stats.gamma.ppf(qs, shape, scale=scale)
        assert np.abs(gamma_quantile(qs, shape, scale) / theirs - 1.0).max() <= 1e-12
    # far below the mean, where a Newton step on P moves log t by only about
    # -1/shape; at shapes 0.01 and 0.3 both quantiles lie below the float range
    for q in (1e-100, 1e-300):
        theirs = scipy.stats.gamma.ppf(q, shape, scale=0.5)
        ours = gamma_quantile(q, shape, 0.5)
        if theirs == 0.0:
            assert ours == 0.0
        else:
            assert abs(ours / theirs - 1.0) <= 1e-12
    # near 1, on the upper tail Q = 1 - q from the continued fraction: P =
    # 1 - Q would carry Q's absolute rounding, its whole size at 1 - 2^-52
    # (scipy agrees with mpmath at 50 digits here to 7e-16)
    qs = (1 - 1e-6, 1 - 1e-12, 1 - 2.0**-52)
    theirs = scipy.stats.gamma.ppf(qs, shape, scale=0.5)
    assert np.abs(gamma_quantile(qs, shape, 0.5) / theirs - 1.0).max() <= 1e-12


def test_gamma_quantile_refuses_probabilities_outside_the_open_unit_interval():
    for q in (0.0, 1.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="probabilities must lie in"):
            gamma_quantile([0.5, q], 4.0, 0.5)


@pytest.mark.parametrize("shape, scale", [(math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan),
                                          (4.0, math.inf), (0.0, 1.0), (-1.0, 1.0), (4.0, 0.0),
                                          (4.0, -0.5)])
def test_gamma_law_refuses_parameters_that_are_not_positive_and_finite(shape, scale):
    # nan and inf once gave [0, 0], [1, 1], [nan, nan] or a quantile that
    # did not converge, each without an error
    with pytest.raises(ValueError, match="shape and scale must be positive and finite"):
        gamma_cdf([1.0, 2.0], shape, scale)
    with pytest.raises(ValueError, match="shape and scale must be positive and finite"):
        gamma_quantile([0.5], shape, scale)


def test_gamma_law_of_a_scalar_is_a_float():
    # a plain float, as for the CDFs, not a numpy scalar
    assert type(gamma_quantile(0.5, 4.0, 1.0)) is float
    assert type(gamma_cdf(2.0, 4.0, 1.0)) is float
    assert type(normal_cdf(0.5)) is float


_FAN =(0.05, 0.25, 0.5, 0.75, 0.95)


def test_gamma_quantile_is_point_wise():
    # every quantile stops on its own test, so the fan's entries are their
    # one-entry calls bit for bit
    for shape in np.geomspace(0.01, 1e5, 29):
        fan = gamma_quantile(_FAN, shape, 0.5)
        assert fan.tolist() == [float(gamma_quantile(q, shape, 0.5)) for q in _FAN], shape


def test_gamma_quantile_fan_at_a_large_shape():
    # the fan's entries, each converged on its own within 7 steps, failed to
    # converge together when the converged ones were stepped again
    fan = gamma_quantile(_FAN, 9e5, 0.5)
    assert np.abs(gamma_cdf(fan, 9e5, 0.5) - np.array(_FAN)).max() <= 1e-9


def test_gamma_quantile_below_the_float_range_is_not_stepped_again():
    # at shape 1e-3 the 0.05 and 0.25 quantiles read 0; a further step would
    # take log(0) (a RuntimeWarning, which the test settings make an error)
    fan = gamma_quantile(_FAN, 1e-3, 0.5)
    assert (fan[:2] == 0.0).all() and (fan[2:] > 0.0).all()


def test_gamma_quantile_converges_and_round_trips():
    # 60 shapes from 1e-4 to 1e6, 40 probabilities from 5e-301 to 1/2 and 40
    # from 1/2 to 1 - 2^-53, and the three that raised ArithmeticError when
    # the step on log P took slope shape (q = 1e-7 at shape 1e6) and when the
    # stop test was finer than the rounding of Q = 1 - P (q = 0.995 at 1e-4).
    # Measured on these: the Newton step left at a quantile, |gap| over dP/ds,
    # is at most 3.2e-13 where q <= 1/2 and 1.6e-11 where q > 1/2 (at shapes
    # below 1e-3, where Q = 1 - P carries P's rounding, about 1e-15, and dP/ds
    # is about the shape), and half a unit in the last place of a subnormal
    # quantile.  856 quantiles read 0.
    probs = ([0.5 * 10 ** (-300 * (39 - k) / 39) for k in range(40)]
             + [1 - 0.5 * 10 ** (-15.5 * (39 - k) / 39) for k in range(40)])
    cases = [(10 ** (-4 + 10 * i / 59), probs) for i in range(60)]
    cases += [(1e6, [1e-7]), (4.6e5, [4e-7]), (1e-4, [0.995])]
    for shape, qs in cases:
        for q, x in zip(qs, gamma_quantile(qs, shape, 1.0).tolist()):
            if x == 0.0:  # the root lies below the float range
                assert _gamma_pair(5e-324, shape)[0] > q, (shape, q)
                continue
            lower, upper = _gamma_pair(x, shape)
            gap = upper - (1.0 - q) if q > 0.5 else q - lower
            tol = 1e-12 if q <= 0.5 else 3e-11
            assert abs(gap) <= (tol + math.ulp(x) / x) * _gamma_prefactor(x, shape), (shape, q)
    # a subnormal q, on whose way dP/ds underflows to 0
    assert gamma_cdf(gamma_quantile(5e-324, 4.0, 1.0), 4.0, 1.0) == 5e-324


def test_gamma_quantile_does_not_depend_on_numpy_simd_dispatch():
    # numpy's float64 exp and log round differently by SIMD kernel; the
    # quantile reads libm only.  The shapes are formed by Python floats, as
    # np.geomspace would go through those kernels itself.
    code = ("from mbpm import gamma_quantile\n"
            "for i in range(60):\n"
            "    shape = 10 ** (-3 + 9 * i / 59)\n"
            "    print(gamma_quantile((0.05, 0.25, 0.5, 0.75, 0.95), shape, 0.5).tolist())\n")
    proc = run_fresh(["-c", code], env=NUMPY_BASELINE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    here = [gamma_quantile(_FAN, 10 ** (-3 + 9 * i / 59), 0.5).tolist() for i in range(60)]
    assert proc.stdout == "".join(f"{fan}\n" for fan in here)


def reference_gamma_cdf(t: float, a: float) -> float:
    """P(a, t) point by point in plain floats (Numerical Recipes 6.2): the
    ascending series below a + 1, the modified-Lentz fraction above.  From
    shape 10 on, at t >= a / 2, the prefactor takes Stirling's form, as the
    module's does."""
    if t <= 0.0:
        return 0.0
    if a < 10.0 or t < 0.5 * a:
        prefactor = math.exp(-t + a * math.log(t) - math.lgamma(a))
    else:
        eta = (t - a) / a
        r = 1.0 / (a * a)
        series = 1/12 - r * (1/360 - r * (1/1260 - r * (1/1680 - r * (1/1188 - r * 691/360360))))
        log_f = 0.5 * math.log(a / (2.0 * math.pi)) - series / a + a * (math.log1p(eta) - eta)
        prefactor = math.exp(log_f)
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


@pytest.mark.parametrize("shape", [1e3, 1e4, 1e5, 1e6])
def test_gamma_tails_against_mpmath_at_large_shapes(shape):
    # -t + a log t - lgamma(a) cancels terms of size a: with the prefactor
    # in that form the error reached 1.8e-13 at shape 1e3 and 3.4e-10 at 1e6
    mpmath = pytest.importorskip("mpmath")
    t = np.append(shape + np.arange(-2, 3) * math.sqrt(shape), [shape / 3, 5 * shape + 50])
    lower, upper = np.array([_gamma_pair(x, shape) for x in t.tolist()]).T
    with mpmath.workdps(50):
        exact = [mpmath.gammainc(shape, x, mpmath.inf, regularized=True) for x in t.tolist()]
        want_lower = np.array([float(1 - q) for q in exact])
        want_upper = np.array([float(q) for q in exact])
    assert np.abs(lower - want_lower).max() <= 1e-13
    assert np.abs(upper - want_upper).max() <= 1e-13


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
    # a duplicated sample: once, on its distinct values in increasing order
    seen.clear()
    d = ks_statistic(np.array([0.9, 0.1, 0.5, 0.1, 0.9, 0.9]), cdf)
    assert len(seen) == 1 and seen[0].tolist() == [0.1, 0.5, 0.9]
    assert d == pytest.approx(0.9 - 3 / 6)  # F(x_4) - (4 - 1)/n
    with pytest.raises(ValueError, match="array"):
        ks_statistic(np.full(4, 0.5), lambda x: 0.5)


def tie_heavy_sample(with_specials: bool):
    """10**4 draws over 60 lattice values; with -0.0 beside 0.0, NaN and +-inf."""
    x = np.random.default_rng(31).integers(-10, 50, size=10_000) / 8.0
    if with_specials:
        x[:40] = [-0.0, 0.0, np.nan, np.inf, -np.inf] * 8
    return x


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_run_starts_split_by_bit_pattern():
    x = np.array([-1.0, -1.0, -0.0, 0.0, 0.0, 2.0, np.nan, np.nan, np.inf])
    assert _run_starts(x).tolist() == [0, 2, 3, 5, 6, 8]
    assert _run_starts(np.array([])).tolist() == []
    assert _run_starts(np.array([3.0])).tolist() == [0]
    x = np.sort(tie_heavy_sample(False))
    starts = _run_starts(x)
    assert x[starts].tolist() == np.unique(x).tolist()
    assert starts.tolist() == np.unique(x, return_index=True)[1].tolist()


def signed_cdf(x):
    """A point-wise map that tells -0.0 from 0.0 (and passes NaN and inf through)."""
    return np.where(np.signbit(x), 0.25, 0.75) + np.clip(x, -1e-3, 1e-3)


@pytest.mark.parametrize("with_specials", [False, True], ids=["lattice", "specials"])
@pytest.mark.parametrize("cdf", [lambda x: gamma_cdf(x, 4.0, 0.5), normal_cdf, signed_cdf],
                         ids=["gamma", "normal", "signed"])
def test_gof_report_on_ties_equals_the_cdf_point_by_point(cdf, with_specials):
    sample = tie_heavy_sample(with_specials)
    seen = []

    def counted(x):
        seen.append(np.array(x))
        return cdf(x)

    rep = gof_report(sample, counted, "reference", {}, threshold=1.0)
    xs = rep.sorted_sample
    assert bits(xs).tolist() == bits(np.sort(sample)).tolist()
    per_point = [float(cdf(np.array([v]))[0]) for v in xs.tolist()]
    assert bits(rep.reference_values).tolist() == bits(per_point).tolist()  # bit for bit
    assert len(seen) == 1
    heads = seen[0]
    assert set(bits(heads).tolist()) == set(bits(sample).tolist())
    # one head per run of equal bits: sorting may interleave -0.0 and 0.0
    assert heads.size == 1 + np.count_nonzero(np.diff(bits(xs)))
    if not with_specials:
        assert heads.size == 60 and np.all(np.diff(heads) > 0)  # strictly increasing
    F, i = np.array(per_point), np.arange(1, xs.size + 1)
    d = max(np.max(i / xs.size - F), np.max(F - (i - 1) / xs.size))
    assert rep.value == d or (with_specials and math.isnan(rep.value) and math.isnan(d))


def test_gof_report_keeps_the_evaluated_reference():
    sample = np.random.default_rng(24).normal(size=300)
    rep = gof_report(sample, normal_cdf, "standard normal", {}, threshold=0.1)
    assert rep.sorted_sample.tolist() == sorted(sample.tolist())
    assert rep.reference_values.tolist() == normal_cdf(np.sort(sample)).tolist()
    F, i = rep.reference_values, np.arange(1, sample.size + 1)
    assert rep.value == max(np.max(i / sample.size - F), np.max(F - (i - 1) / sample.size))
    assert set(cli._jsonable(rep)) == {
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


@pytest.mark.parametrize("N", [10_000, 10_037], ids=["whole-batches", "leftover"])
@pytest.mark.parametrize("z", [(50, 30), (300_000_000, 200_000_000)], ids=["small", "large"])
def test_moment_check_statistics_are_exact(two_type_spec, N, z):
    # the report's mean, covariance and batch covariances are the exact
    # rational statistics of the same draws, each rounded once; at the large
    # state the Gram entries of the shifted counts pass 2**53, where float64
    # sums lose the last bits
    from fractions import Fraction

    z = np.array(z)
    rep = moment_check(two_type_spec, z, N=N, seed=5)
    x = sample_step_batch(two_type_spec, z, 10_000, stream_for(5, 0))  # one chunk
    if N % MOMENT_BATCHES:
        x = np.concatenate([x, sample_step_batch(two_type_spec, z, N % MOMENT_BATCHES,
                                                 stream_for(5, 1))])
    rows = x.tolist()

    def mean_and_cov(rows):
        n = len(rows)
        mean = [Fraction(sum(col), n) for col in zip(*rows)]
        cov = [[sum((r[i] - mean[i]) * (r[j] - mean[j]) for r in rows) / (n - 1)
                for j in range(2)] for i in range(2)]
        return np.array([float(m) for m in mean]), np.array(cov, dtype=float)

    mean, cov = mean_and_cov(rows)
    assert rep.mean_empirical.tolist() == mean.tolist()
    assert rep.cov_empirical.tolist() == cov.tolist()
    size = N // MOMENT_BATCHES
    per_batch = np.array([mean_and_cov(rows[b * size:(b + 1) * size])[1]
                          for b in range(MOMENT_BATCHES)])
    se = per_batch.std(axis=0, ddof=1) / math.sqrt(MOMENT_BATCHES)
    assert rep.cov_se.tolist() == se.tolist()


def test_moment_check_does_not_depend_on_the_blas_kernel(two_type_spec):
    # OpenBLAS picks its kernels by CPU; the Haswell ones round products of
    # floats differently from the AVX-512 ones, which moved the last bit of
    # a covariance while the Gram matrices were float64 BLAS products.  The
    # int64 reduction calls no BLAS, so no kernel can move a bit.  At
    # (3e6, 2e6) the Gram entries of the unshifted counts pass 2**53
    states = [[50, 30], [3_000_000, 2_000_000]]
    code = ("import numpy as np; from mbpm import load_spec, moment_check; "
            f"spec = load_spec({spec_path('two_type_mixed')!r}); "
            f"reps = [moment_check(spec, np.array(z), N=1_000_000, seed=1) for z in {states!r}]; "
            "print([[a.tobytes().hex() for a in "
            "(rep.mean_empirical, rep.cov_empirical, rep.cov_se)] for rep in reps])")
    proc = run_fresh(["-c", code], env={"OPENBLAS_CORETYPE": "Haswell"}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    reps = [moment_check(two_type_spec, np.array(z), N=1_000_000, seed=1) for z in states]
    here = [[a.tobytes().hex() for a in (rep.mean_empirical, rep.cov_empirical, rep.cov_se)]
            for rep in reps]
    assert proc.stdout.strip() == str(here)


def test_moment_check_refuses_gram_sums_past_int64(two_type_spec):
    # the largest deviation from the rounded mean, about 1.35e10, squared
    # over the 100 rows of a batch is about 1.8e22 > 2**63
    with pytest.raises(ValueError, match=r"deviates by \d+ .* of 100 rows .* past int64"):
        moment_check(two_type_spec, np.array([30_000_000_000, 20_000_000_000]), N=10_000,
                     seed=5)


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


def test_moment_check_peak_memory_is_bounded(two_type_spec):
    # a chunk of 64 000 rows, its (R, 2) int64 states 1 MB: the draws, the
    # batch means and scatters must not hold more than a few such arrays
    moment_check(two_type_spec, np.array([50, 30]), N=200_000, seed=2)  # warm caches
    tracemalloc.start()
    try:
        moment_check(two_type_spec, np.array([50, 30]), N=200_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.1e6, peak


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
    dead = run_ensemble(pure_death_spec, n=n, R=R, master_seed=4242, steps=range(n + 1))
    assert (dead.states[:, 0] == 5).all() and (dead.states[:, 1:] == 0).all()
