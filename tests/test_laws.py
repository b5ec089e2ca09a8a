"""Distribution building blocks against direct-summation oracles."""
import math
import warnings

import numpy as np
import pytest

import oracles
from mbpm import (
    BernoulliOffspring,
    Clamp,
    Constant,
    DeterministicEmigration,
    DeterministicImmigration,
    FiniteOffspring,
    GeometricOffspring,
    IndependentOffspring,
    InverseCubeEmigration,
    PoissonOffspring,
    Power,
    ShiftedPoissonImmigration,
    Table,
    TableImmigration,
    TableOffspring,
    TruncatedGeometricEmigration,
    UniformEmigration,
    size_of,
)
from mbpm.laws import _faulhaber, _h_sum


def empirical_pmf(draws):
    vals, counts = np.unique(draws, return_counts=True)
    return {int(v): c / len(draws) for v, c in zip(vals, counts)}


# ---------------------------------------------------------------------------
# scalar size and state functions
# ---------------------------------------------------------------------------


def test_size_of():
    assert size_of([7.0]) == 7.0
    assert size_of([0, 0, 0]) == 0.0
    assert size_of([2.0, 3.0], [0.5, 0.5]) == 2.5
    with pytest.raises(ValueError):
        size_of([1.0, 2.0])
    stack = np.array([[2, 3], [0, 0], [4, 0]])
    assert size_of(stack, [0.5, 0.5]).tolist() == [2.5, 0.0, 2.0]
    assert size_of(np.zeros((3, 2))).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        size_of(stack)


def test_constant_function():
    f = Constant(2.0)
    assert f([123.0]) == 2.0
    assert f.growth_exponent() == 0.0
    assert f.limit() == 2.0


def test_power_function():
    f = Power(1.0, 0.5)
    assert f([4.0]) == 2.0
    assert f([0.0]) == 0.0
    assert f.growth_exponent() == 0.5
    assert f.limit() is None
    g = Power(3.0, -1.0)
    assert g([6.0]) == 0.5
    assert g.growth_exponent() == 0.0
    assert g.limit() == 0.0
    assert math.isinf(g([0.0]))


def test_power_limits_at_zero_size_raise_no_warning():
    # 0**(-e) = inf and 0**e = 0 are the limits at s = 0, not numerical accidents
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Power(3.0, -1.0)([0.0]) == math.inf
        assert Power(3.0, -1.0)(np.array([[0.0], [6.0]])).tolist() == [math.inf, 0.5]
        assert Power(1.0, 0.5)(np.zeros((2, 1))).tolist() == [0.0, 0.0]


def test_table_function_right_continuous():
    f = Table(breaks=(10.0, 100.0), values=(1.0, 5.0))
    assert f([3.0]) == 1.0
    assert f([10.0]) == 1.0
    assert f([99.0]) == 1.0
    assert f([100.0]) == 5.0
    assert f.limit() == 5.0
    assert f.growth_exponent() == 0.0
    with pytest.raises(ValueError):
        Table(breaks=(10.0, 5.0), values=(1.0, 2.0))
    with pytest.raises(ValueError):
        Table(breaks=(), values=())


def test_clamp_function():
    f = Clamp(Power(1.0, 0.5), lo=1.0)
    assert f([0.0]) == 1.0
    assert f([100.0]) == 10.0
    assert f.growth_exponent() == 0.5
    assert f.limit() is None
    g = Clamp(Power(1.0, 1.0), lo=0.0, hi=4.0)
    assert g([9.0]) == 4.0
    assert g.growth_exponent() == 0.0
    assert g.limit() == 4.0
    with pytest.raises(ValueError):
        Clamp(Constant(1.0))
    with pytest.raises(ValueError):
        Clamp(Constant(1.0), lo=2.0, hi=1.0)


@pytest.mark.parametrize("f", [
    Constant(0.3),
    Power(1.0, 0.5),
    Power(3.0, -1.0),
    Power(-2.0, -0.5),
    Power(0.0, -1.0),
    Power(2.0, 0.0),
    Table(breaks=(10.0, 100.0), values=(1.0, 5.0)),
    Clamp(Power(1.0, 0.5), lo=1.0),
    Clamp(Power(3.0, -1.0), hi=0.25),
    Clamp(Power(1.0, 1.0), lo=0.0, hi=4.0),
], ids=repr)
def test_state_functions_on_arrays_match_scalars(f):
    # sizes at 0, at and around the table breaks, and far out
    sizes = np.array([0.0, 1.0, 9.0, 10.0, 99.0, 100.0, 1e6])
    scalar = [f([s]) for s in sizes]
    stacked = np.broadcast_to(f(sizes[:, None]), sizes.shape)
    assert np.array_equal(stacked, scalar)


# ---------------------------------------------------------------------------
# exact sum helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_faulhaber_matches_direct_sum(k):
    for n in [0, 1, 2, 7, 50]:
        direct = float(sum(j**k for j in range(1, n + 1)))
        assert _faulhaber(k, n) == direct


def test_faulhaber_rejects_high_power():
    with pytest.raises(ValueError):
        _faulhaber(5, 10)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_h_sum_direct_range(power):
    for n in [1, 2, 10, 1000]:
        direct = math.fsum(j ** (-float(power)) for j in range(1, n + 1))
        assert abs(_h_sum(power, n) - direct) < 1e-13 * max(1.0, direct)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_h_sum_switchover_continuity(power):
    # One term past the direct-summation limit the tail formula takes over;
    # the two routes must agree to near round-off.
    n = 1_000_000
    below = _h_sum(power, n)
    above = _h_sum(power, n + 1)
    assert abs(above - (below + (n + 1) ** (-float(power)))) < 1e-12 * max(1.0, below)


# ---------------------------------------------------------------------------
# offspring marginals
# ---------------------------------------------------------------------------


def test_poisson_offspring_moments_and_atoms():
    law = PoissonOffspring(mean=1.7)
    assert law.mean == 1.7
    assert abs(law.var() - 1.7) < 1e-15
    assert abs(law.prob_zero() - math.exp(-1.7)) < 1e-15
    vals, probs = law.atoms()
    oracle = oracles.poisson_pmf(1.7)
    assert abs(probs.sum() - 1.0) < 1e-9
    for v, p in zip(vals, probs):
        assert abs(p - oracle.get(int(v), 0.0)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 25.0, 745.0, 746.0, 1e4])
def test_poisson_atoms_at_large_rates(lam):
    # exp(-lam) underflows to 0.0 from lam = 746 on; atoms must not start there
    vals, probs = PoissonOffspring(mean=lam).atoms()
    got = dict(zip(vals.tolist(), probs.tolist()))
    oracle = oracles.poisson_pmf(lam, tail=1e-12)
    assert max(abs(got.get(k, 0.0) - oracle.get(k, 0.0)) for k in set(got) | set(oracle)) < 1e-12
    assert probs.sum() >= 1.0 - 1e-12


@pytest.mark.parametrize("lam", [25.0, 100.0])
def test_oracle_poisson_pmf_at_default_tail(lam):
    # the oracle's stop test bounds the dropped tail analytically; a stop
    # test on a running float sum never fired from lam ~ 25 on
    pmf = oracles.poisson_pmf(lam)
    assert math.fsum(pmf.values()) >= 1.0 - 1e-12
    assert abs(math.fsum(k * q for k, q in pmf.items()) - lam) < 1e-12 * lam


def test_poisson_offspring_rate_past_numpy_limit_is_named():
    law = PoissonOffspring(mean=4.0)
    with pytest.raises(ValueError, match=r"rate 1\.844674407e\+19 at row 1 is past numpy's Poisson limit"):
        law.sample_sum_batch(np.random.default_rng(0), np.array([1, 2**62, 3]))


def test_poisson_atoms_at_rate_one_million():
    vals, probs = PoissonOffspring(mean=1e6).atoms()
    assert probs.sum() >= 1.0 - 1e-12
    assert abs(float(vals @ probs) - 1e6) < 1e-9 * 1e6
    assert len(vals) < 20_000  # a window around the mode, not the whole range from 0


def test_poisson_offspring_aggregate_law():
    # The sum over n parents is again Poisson with n times the mean.
    law = PoissonOffspring(mean=0.5)
    rng = np.random.default_rng(5)
    draws = law.sample_sum_batch(rng, np.full(200_000, 6))
    pmf = empirical_pmf(draws)
    exact = oracles.poisson_pmf(3.0)
    assert oracles.total_variation(pmf, exact) < 0.01


def test_bernoulli_offspring():
    law = BernoulliOffspring(prob=0.3)
    assert abs(law.mean - 0.3) < 1e-15
    assert abs(law.var() - 0.21) < 1e-15
    assert abs(law.prob_zero() - 0.7) < 1e-15
    rng = np.random.default_rng(6)
    draws = law.sample_sum_batch(rng, np.full(100_000, 4))
    assert draws.min() >= 0 and draws.max() <= 4
    assert abs(draws.mean() - 1.2) < 5 * math.sqrt(4 * 0.21 / 100_000)


def test_geometric_offspring():
    law = GeometricOffspring(mean=2.0)
    assert abs(law.var() - 2.0 * 3.0) < 1e-12
    assert abs(law.prob_zero() - 1.0 / 3.0) < 1e-12
    rng = np.random.default_rng(7)
    counts = np.array([0, 3, 0, 5, 1])
    draws = law.sample_sum_batch(rng, counts)
    assert (draws[counts == 0] == 0).all()
    big = law.sample_sum_batch(rng, np.full(100_000, 2))
    assert abs(big.mean() - 4.0) < 5 * math.sqrt(2 * 6.0 / 100_000)


def test_table_offspring_against_convolution_oracle():
    law = TableOffspring(values=(0, 1, 2), probs=(0.3, 0.4, 0.3))
    base = {0: 0.3, 1: 0.4, 2: 0.3}
    assert abs(law.mean - 1.0) < 1e-15
    assert abs(law.var() - oracles.pmf_moment(base, 2, center=1.0)) < 1e-15
    rng = np.random.default_rng(8)
    draws = law.sample_sum_batch(rng, np.full(200_000, 3))
    exact = oracles.convolve_power(base, 3)
    assert oracles.total_variation(empirical_pmf(draws), exact) < 0.01


def test_table_offspring_validation():
    with pytest.raises(ValueError):
        TableOffspring(values=(0, 1), probs=(0.5, 0.6))
    with pytest.raises(ValueError):
        TableOffspring(values=(0, 1), probs=(0.5,))


def test_independent_offspring_vector_moments():
    law = IndependentOffspring(
        components=(PoissonOffspring(mean=0.5), BernoulliOffspring(prob=0.25))
    )
    assert law.dim == 2
    assert np.allclose(law.mean_vec(), [0.5, 0.25])
    cov = law.cov()
    assert np.allclose(np.diag(cov), [0.5, 0.1875])
    assert cov[0, 1] == 0.0
    assert abs(law.prob_zero() - math.exp(-0.5) * 0.75) < 1e-14


def test_finite_offspring_vector_moments():
    vectors = ((0, 0), (2, 1), (1, 3))
    probs = (0.5, 0.3, 0.2)
    law = FiniteOffspring(vectors=vectors, probs=probs)
    mean = np.zeros(2)
    for vec, p in zip(vectors, probs):
        mean += p * np.array(vec, dtype=float)
    assert np.allclose(law.mean_vec(), mean)
    cov = np.zeros((2, 2))
    for vec, p in zip(vectors, probs):
        d = np.array(vec, dtype=float) - mean
        cov += p * np.outer(d, d)
    assert np.allclose(law.cov(), cov)
    assert abs(law.prob_zero() - 0.5) < 1e-15
    rng = np.random.default_rng(9)
    counts = np.array([10, 0, 3])
    total = np.ones((3, 2), dtype=np.int64)
    law.sample_sum_batch(rng, counts, total)  # adds in place
    assert (total >= 1).all()
    assert (total[1] == 1).all()


# ---------------------------------------------------------------------------
# immigration laws
# ---------------------------------------------------------------------------


def test_shifted_poisson_immigration_moments():
    law = ShiftedPoissonImmigration(mean_fn=Constant(2.0))
    z = np.array([10.0])
    assert law.mean(z) == 2.0
    oracle = oracles.shifted_poisson_pmf(2.0)
    for k in range(1, 5):
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, z) - direct) < 1e-10 * max(1.0, direct)
    rng = np.random.default_rng(10)
    draws = law.sample_batch(rng, np.broadcast_to(z, (50_000, 1)), np.ones(50_000, bool))
    assert draws.min() >= 1
    assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02


def test_shifted_poisson_immigration_state_dependence():
    law = ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0))
    assert law.mean(np.array([100.0])) == 10.0
    assert law.mean(np.array([0.0])) == 1.0
    # one draw per selected row, each at its own row's mean
    sizes = np.tile([0, 100, 400], 50_000)
    rows = sizes < 400
    draws = law.sample_batch(np.random.default_rng(15), sizes[:, None], rows)
    assert draws.shape == (100_000,)
    assert (draws[sizes[rows] == 0] == 1).all()
    assert abs(draws[sizes[rows] == 100].mean() - 10.0) < 5 * 3.0 / np.sqrt(50_000)


def test_shifted_poisson_immigration_rejects_mean_below_one():
    law = ShiftedPoissonImmigration(mean_fn=Constant(0.5))
    with pytest.raises(ValueError):
        law.mean(np.array([4.0]))
    # a stack of states raises if any selected row's mean is below 1
    law = ShiftedPoissonImmigration(mean_fn=Power(1.0, 1.0))
    Z = np.array([[4], [0], [9]])
    with pytest.raises(ValueError, match="below 1"):
        law.sample_batch(np.random.default_rng(16), Z, np.ones(3, bool))
    # ... and only the selected rows are read
    draws = law.sample_batch(np.random.default_rng(16), Z, np.array([True, False, True]))
    assert draws.shape == (2,) and draws.min() >= 1


def test_deterministic_immigration():
    law = DeterministicImmigration(value=3)
    for k in range(1, 5):
        assert law.raw_moment(k) == 3.0**k
    vals, probs = law.atoms()
    assert list(vals) == [3] and list(probs) == [1.0]
    with pytest.raises(ValueError):
        DeterministicImmigration(value=0)


def test_table_immigration():
    law = TableImmigration(values=(1, 4), probs=(0.75, 0.25))
    assert abs(law.mean() - 1.75) < 1e-15
    assert abs(law.raw_moment(2) - (0.75 + 0.25 * 16)) < 1e-15
    assert law.mean_limit() == 1.75
    with pytest.raises(ValueError):
        TableImmigration(values=(0, 2), probs=(0.5, 0.5))


class _NoGather(np.ndarray):
    """A state stack that fails when rows are gathered from it."""

    def __getitem__(self, key):
        raise AssertionError("the immigrating states were gathered")


@pytest.mark.parametrize("law, reads_states", [
    (ShiftedPoissonImmigration(mean_fn=Constant(2.0)), False),
    (DeterministicImmigration(value=3), False),
    (TableImmigration(values=(1, 4), probs=(0.75, 0.25)), False),
    (ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0)), True),
], ids=["shifted-poisson-constant", "deterministic", "table", "shifted-poisson-power"])
def test_immigration_draws_only_at_the_selected_rows(law, reads_states):
    Z = np.arange(0, 600, 3, dtype=np.int64)[:, None]
    rows = np.random.default_rng(17).random(len(Z)) < 0.4
    # the draws equal those of the selected rows alone, from the same stream
    masked = law.sample_batch(np.random.default_rng(18), Z, rows)
    alone = law.sample_batch(np.random.default_rng(18), Z[rows], np.ones(rows.sum(), bool))
    assert masked.shape == (rows.sum(),)
    assert masked.tolist() == alone.tolist()
    # rows=None selects every row
    every = law.sample_batch(np.random.default_rng(18), Z, None)
    assert every.tolist() == law.sample_batch(
        np.random.default_rng(18), Z, np.ones(len(Z), bool)).tolist()
    if reads_states:
        with pytest.raises(AssertionError, match="gathered"):
            law.sample_batch(np.random.default_rng(18), Z.view(_NoGather), rows)
    else:
        draws = law.sample_batch(np.random.default_rng(18), Z.view(_NoGather), rows)
        assert np.asarray(draws).tolist() == masked.tolist()


# ---------------------------------------------------------------------------
# emigration laws
# ---------------------------------------------------------------------------


def draws_at_count(law, zi, seed):
    """Draw at a shuffled vector of counts 0, 1 and zi; check every row's
    support and return the draws of the rows at count zi."""
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.repeat([0, 1, zi], [1000, 1000, 100_000]))
    draws = law.sample_batch(rng, counts)
    assert draws.shape == counts.shape
    assert (draws[counts == 0] == 0).all()
    assert ((draws >= 1) & (draws <= counts))[counts > 0].all()
    return draws[counts == zi]


def test_uniform_emigration_moments():
    law = UniformEmigration()
    zi = 50
    oracle = oracles.uniform_pmf(zi)
    for k in range(1, 5):
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, zi) - direct) < 1e-9 * max(1.0, direct)
    assert law.mean_limit() is None
    assert law.growth_exponent() == 1.0
    draws = draws_at_count(law, zi, 11)
    assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("zi", [1, 4, 1000, 100_000])
def test_truncated_geometric_emigration_raw_moments(ratio, zi):
    law = TruncatedGeometricEmigration(ratio=ratio)
    oracle = oracles.truncated_geometric_pmf(ratio, zi)
    for k in range(1, 5):
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, zi) - direct) < 1e-12 * direct


def test_truncated_geometric_emigration_moments():
    law = TruncatedGeometricEmigration(ratio=0.5)
    zi = 4
    oracle = oracles.truncated_geometric_pmf(0.5, zi)
    for k in range(1, 5):
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, zi) - direct) < 1e-12 * max(1.0, direct)
    assert abs(law.mean_limit() - 2.0) < 1e-12
    draws = draws_at_count(law, zi, 12)
    assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02


def test_inverse_cube_emigration_moments():
    law = InverseCubeEmigration()
    zi = 1000
    oracle = oracles.inverse_cube_pmf(zi)
    for k in [1, 2]:
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, zi) - direct) < 1e-9 * max(1.0, direct)
    # limit of the mean: zeta(2) / zeta(3)
    big = oracles.pmf_moment(oracles.inverse_cube_pmf(200_000), 1)
    assert abs(law.mean_limit() - big) < 1e-4
    draws = draws_at_count(law, zi, 13)
    assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02


@pytest.mark.parametrize("law", [UniformEmigration(), TruncatedGeometricEmigration(ratio=0.9),
                                 InverseCubeEmigration(), DeterministicEmigration(value=3)],
                         ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("zi", [1, 7, 10**3, 10**5, 10**6])
def test_emigration_atoms_agree_with_raw_moments(law, zi):
    # the enumeration describes the same law as the closed form at every
    # count, far beyond any table size
    vals, probs = law.atoms(zi)
    for k in range(1, 5):
        from_atoms = float(np.sum(probs * vals.astype(float) ** k))
        assert from_atoms == pytest.approx(law.raw_moment(k, zi), rel=1e-9, abs=0)


def test_deterministic_emigration_cap():
    law = DeterministicEmigration(value=2)
    assert law.raw_moment(1, 5) == 2.0
    assert law.raw_moment(3, 5) == 8.0
    assert law.raw_moment(1, 1) == 1.0  # capped at the available count
    rng = np.random.default_rng(14)
    assert law.sample_batch(rng, np.array([0, 1, 7, 2])).tolist() == [0, 1, 2, 2]
    with pytest.raises(ValueError):
        DeterministicEmigration(value=0)
