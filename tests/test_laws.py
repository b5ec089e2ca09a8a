"""Distribution building blocks against direct-summation oracles."""
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import emigration_atoms, load_doc
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
    spec_from_dict,
)
from mbpm.laws import _EM_START, _faulhaber, _h_sum, exponent_of, limit_of, remainder_of


def empirical_pmf(draws):
    vals, counts = np.unique(draws, return_counts=True)
    return {int(v): c / len(draws) for v, c in zip(vals, counts)}


# ---------------------------------------------------------------------------
# state functions of the scalar size
# ---------------------------------------------------------------------------


def test_constant_function():
    f = Constant(2.0)
    assert f(123.0) == 2.0
    assert f.leading() == (2.0, 0.0)


def test_power_function():
    f = Power(1.0, 0.5)
    assert f(4.0) == 2.0
    assert f(0.0) == 0.0
    assert f.leading() == (1.0, 0.5)
    assert (limit_of(f.leading()), exponent_of(f.leading())) == (math.inf, 0.5)
    g = Power(3.0, -1.0)
    assert g(6.0) == 0.5
    assert g.leading() == (3.0, -1.0)
    assert (limit_of(g.leading()), exponent_of(g.leading())) == (0.0, -1.0)
    assert math.isinf(g(0.0))


def test_power_limits_at_zero_size_raise_no_warning():
    # 0**(-e) = inf and 0**e = 0 are the limits at s = 0, not numerical accidents
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Power(3.0, -1.0)(0.0) == math.inf
        assert Power(3.0, -1.0)(np.array([0.0, 6.0])).tolist() == [math.inf, 0.5]
        assert Power(1.0, 0.5)(np.zeros(2)).tolist() == [0.0, 0.0]


def test_remainder_of_two_branch_probabilities():
    # 1 - (q + r) tends to K = 1 - (lim q + lim r): a constant where K is
    # a probability, here with a decaying emigration probability ...
    assert remainder_of((0.3, 0.0), (0.2, -1.0)) == (0.7, 0.0)
    assert remainder_of((0.0, 0.0), (0.0, 0.0)) == (1.0, 0.0)
    # ... and eventually 0 where K is 0 up to rounding, on either side
    assert remainder_of((0.7, 0.0), (0.3, 0.0)) == (0.0, 0.0)
    assert remainder_of((0.6, 0.0), (0.4 - 1e-13, 0.0)) == (0.0, 0.0)
    assert remainder_of((0.6, 0.0), (0.4 + 1e-13, 0.0)) == (0.0, 0.0)


def test_table_function_right_continuous():
    f = Table(breaks=(10.0, 100.0), values=(1.0, 5.0))
    assert f(3.0) == 1.0
    assert f(10.0) == 1.0
    assert f(99.0) == 1.0
    assert f(100.0) == 5.0
    assert f.leading() == (5.0, 0.0)
    with pytest.raises(ValueError):
        Table(breaks=(10.0, 5.0), values=(1.0, 2.0))
    with pytest.raises(ValueError):
        Table(breaks=(), values=())


def test_clamp_function():
    f = Clamp(Power(1.0, 0.5), lo=1.0)
    assert f(0.0) == 1.0
    assert f(100.0) == 10.0
    assert f.leading() == (1.0, 0.5)
    g = Clamp(Power(1.0, 1.0), lo=0.0, hi=4.0)
    assert g(9.0) == 4.0
    assert g.leading() == (4.0, 0.0)
    with pytest.raises(ValueError):
        Clamp(Constant(1.0))
    with pytest.raises(ValueError):
        Clamp(Constant(1.0), lo=2.0, hi=1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, None), (-0.0, None), (None, 0.0), (None, -0.0),
                                    (0.0, 1.0), (-0.0, 0.0), (-0.0, -0.0), (-1.0, 0.5)])
def test_clamp_is_np_clip_bit_for_bit(lo, hi):
    # signed zeros on both sides of each bound, scalar and array sizes
    inner = Table(breaks=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), values=(-0.0, 0.0, -1.0, 0.5, 2.0, 1.0))
    f = Clamp(inner, lo=lo, hi=hi)
    sizes = np.arange(6.0) + 0.5
    for s in [sizes, *sizes]:
        got, want = f(s), np.clip(inner(s), lo, hi)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (s, got, want)


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
    scalar = [f(s) for s in sizes]
    stacked = np.broadcast_to(f(sizes), sizes.shape)
    assert np.array_equal(stacked, scalar)


LARGE_SIZES = [1e6, 1e9, 1e12]


def assert_leading(value, lead, s, rel):
    """value agrees with coeff * s**exponent to the relative tolerance rel;
    it is exactly 0 where the leading form is (0, 0)."""
    coeff, exponent = lead
    expected = coeff * s**exponent
    assert abs(value - expected) <= rel * abs(expected), (value, lead, s)


# Beyond its last knee each state function is a constant or a single power,
# so evaluation and the leading form agree to rounding (measured: exactly).
@pytest.mark.parametrize("s", LARGE_SIZES)
@pytest.mark.parametrize("f", [
    Constant(0.3),
    Constant(0.0),
    Power(1.0, 0.5),
    Power(-2.0, 0.5),
    Power(3.0, -1.0),
    Power(-2.0, -0.5),
    Power(0.0, 1.0),
    Power(0.0, -1.0),
    Power(2.0, 0.0),
    Table(breaks=(10.0, 100.0), values=(1.0, 5.0)),
    Table(breaks=(10.0, 100.0), values=(1.0, 0.0)),
    Clamp(Power(1.0, 0.5), lo=1.0),  # lo only, not crossing
    Clamp(Power(-1.0, 1.0), lo=0.2),  # lo only, crossing
    Clamp(Power(1.0, 1.0), hi=4.0),  # hi only, crossing
    Clamp(Power(-1.0, 1.0), hi=0.5),  # hi only, not crossing
    Clamp(Power(1.0, 1.0), lo=0.0, hi=4.0),  # both, crossing hi
    Clamp(Power(-1.0, 0.5), lo=-3.0, hi=0.0),  # both, crossing lo
    Clamp(Power(1.0, -0.5), lo=-1.0, hi=1.0),  # both, not crossing
    Clamp(Power(3.0, -1.0), hi=0.25),  # decays inside the bound
    Clamp(Power(-1.0, -1.0), lo=0.0),  # decays to the bound from past it
    Clamp(Power(1.0, -1.0), lo=0.0),  # decays to the bound from inside
    Clamp(Power(1.0, -1.0), hi=0.0),
    Clamp(Power(-3.0, -1.0), hi=0.0),
    Clamp(Constant(5.0), hi=2.0),
    Clamp(Table(breaks=(10.0,), values=(1.0,)), lo=2.0),
    Clamp(Clamp(Power(1.0, 1.0), hi=4.0), lo=5.0),  # nested: the outer bound takes over
    Clamp(Clamp(Power(-1.0, 0.5), lo=-3.0), hi=-1.0),
    Clamp(Clamp(Power(-2.0, -1.0), lo=-5.0), lo=0.0),
], ids=repr)
def test_state_function_leading_form_agrees_with_evaluation(f, s):
    assert_leading(float(f(s)), f.leading(), s, rel=1e-15)


# The law means approach their leading forms like 1/s: uniform emigration's
# (zi + 1)/2 is 1/zi above 0.5 zi, inverse-cube's 0.61/zi below zeta(2)/zeta(3).
@pytest.mark.parametrize("s", LARGE_SIZES)
@pytest.mark.parametrize("law", [
    ShiftedPoissonImmigration(mean_fn=Constant(2.0)),
    ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0)),
    DeterministicImmigration(value=3),
    TableImmigration(values=(1, 4), probs=(0.75, 0.25)),
    UniformEmigration(),
    TruncatedGeometricEmigration(ratio=0.5),
    TruncatedGeometricEmigration(ratio=0.99),
    InverseCubeEmigration(),
    DeterministicEmigration(value=3),
], ids=repr)
def test_migration_law_leading_form_agrees_with_its_mean(law, s):
    if hasattr(law, "mean_fn"):
        value, lead = float(law.raw_moment(1, s)), law.mean_fn.leading()
    else:
        value, lead = law.raw_moment(1, int(s)), law.mean_leading()
    assert_leading(value, lead, s, rel=2.0 / s)


# The law variances approach their leading forms like s^-1/2 or faster: the
# clamped square-root mean's Poisson rate is s^1/2 - 1.  Inverse-cube
# emigration's variance grows like log(zi) / zeta(3), which no power
# states, and is checked on its own below.
@pytest.mark.parametrize("s", LARGE_SIZES)
@pytest.mark.parametrize("law", [
    ShiftedPoissonImmigration(mean_fn=Constant(2.0)),
    ShiftedPoissonImmigration(mean_fn=Constant(1.0)),
    ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0)),
    ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, -0.5), lo=1.0)),
    DeterministicImmigration(value=3),
    TableImmigration(values=(1, 4), probs=(0.75, 0.25)),
    TableImmigration(values=(2, 2), probs=(0.5, 0.5)),
    UniformEmigration(),
    TruncatedGeometricEmigration(ratio=0.5),
    TruncatedGeometricEmigration(ratio=0.99),
    DeterministicEmigration(value=3),
], ids=repr)
def test_migration_law_var_leading_agrees_with_its_variance(law, s):
    if hasattr(law, "mean_fn"):
        m1, m2 = (float(law.raw_moment(k, s)) for k in (1, 2))
    else:
        m1, m2 = (law.raw_moment(k, int(s)) for k in (1, 2))
    assert_leading(m2 - m1 * m1, law.var_leading(), s, rel=2.0 / math.sqrt(s))


@pytest.mark.parametrize("s", LARGE_SIZES)
def test_inverse_cube_variance_grows_like_a_log(s):
    law = InverseCubeEmigration()
    assert law.var_leading() == (math.inf, 0.0)
    var = law.raw_moment(2, int(s)) - law.raw_moment(1, int(s)) ** 2
    assert 0.85 < var * 1.2020569031595942 / math.log(s) < 1.0


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
    # Where the Euler-Maclaurin tail takes over from the direct terms, and
    # deep inside it, one more term must add its own value.
    for n in [_EM_START, _EM_START + 1, 1_000_000]:
        below = _h_sum(power, n)
        above = _h_sum(power, n + 1)
        assert abs(above - (below + (n + 1) ** (-float(power)))) < 1e-12 * max(1.0, below)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_h_sum_is_the_rounded_direct_sum(power):
    # Against math.fsum, the correctly rounded sum: every n <= 4096, then
    # 200 log-spaced n up to 2^20, whose reference is the fsum of the fsums
    # of the segments between them (its error is below 1e-17 relative).
    # Measured worst error: 1 ulp at each power.
    terms = []
    for n in range(1, 4097):
        terms.append(n ** -float(power))
        ref = math.fsum(terms)
        assert abs(_h_sum(power, n) - ref) <= math.ulp(ref), n
    segments, last = [], 4096
    for n in np.unique(np.geomspace(4097, 1 << 20, 200).round().astype(np.int64)).tolist():
        segments.append(math.fsum((np.arange(last + 1, n + 1, dtype=float) ** -float(power)).tolist()))
        last = n
        ref = math.fsum([math.fsum(terms), *segments])
        assert abs(_h_sum(power, n) - ref) <= math.ulp(ref), n


@pytest.mark.parametrize("power", [1, 2, 3])
def test_h_sum_against_mpmath_to_1e18(power):
    # zeta(p) - zeta(p, n + 1) at 40 digits (the harmonic number for p = 1).
    # Measured worst error: 0.76 ulp.
    mpmath = pytest.importorskip("mpmath")
    counts = np.geomspace(4097, 1e18, 60).astype(np.int64).tolist() + [10**18]
    with mpmath.workdps(40):
        for n in counts:
            if power == 1:
                ref = mpmath.harmonic(n)
            else:
                ref = mpmath.zeta(power) - mpmath.zeta(power, n + 1)
            assert abs(mpmath.mpf(_h_sum(power, n)) - ref) <= math.ulp(float(ref)), n


# ---------------------------------------------------------------------------
# offspring marginals
# ---------------------------------------------------------------------------


def poisson_atoms(lam):
    """Poisson(lam) atoms, read off the shifted-Poisson immigration law of
    mean lam + 1 and shifted back by 1."""
    vals, probs = ShiftedPoissonImmigration(mean_fn=Constant(lam + 1.0)).atoms(None)
    return vals - 1, probs


def test_poisson_offspring_moments_and_atoms():
    law = PoissonOffspring(mean=1.7)
    assert law.mean == 1.7
    assert abs(law.var() - 1.7) < 1e-15
    vals, probs = poisson_atoms(1.7)
    oracle = oracles.poisson_pmf(1.7)
    assert abs(probs.sum() - 1.0) < 1e-9
    for v, p in zip(vals, probs):
        assert abs(p - oracle.get(int(v), 0.0)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 25.0, 745.0, 746.0, 1e4])
def test_poisson_atoms_at_large_rates(lam):
    # exp(-lam) underflows to 0.0 from lam = 746 on; atoms must not start there
    vals, probs = poisson_atoms(lam)
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


def test_immigration_rate_past_numpy_limit_names_the_row_of_the_states():
    # rows 2 and 3 are selected; the second selected row is row 3 of Z
    law = ShiftedPoissonImmigration(mean_fn=Power(coeff=1e17, exponent=1.0))
    s = np.array([1.0, 2.0, 3.0, 500.0])
    with pytest.raises(ValueError, match=r"immigration rate 5e\+19 at row 3 is past"):
        law.sample_batch(np.random.default_rng(0), 2, s, np.array([2, 3]))
    with pytest.raises(ValueError, match=r"immigration rate 5e\+19 at row 3 is past"):
        law.sample_batch(np.random.default_rng(0), 4, s)


def test_poisson_atoms_at_rate_one_million():
    vals, probs = poisson_atoms(1e6)
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
    rng = np.random.default_rng(6)
    draws = law.sample_sum_batch(rng, np.full(100_000, 4))
    assert draws.min() >= 0 and draws.max() <= 4
    assert abs(draws.mean() - 1.2) < 5 * math.sqrt(4 * 0.21 / 100_000)


def test_geometric_offspring():
    law = GeometricOffspring(mean=2.0)
    assert abs(law.var() - 2.0 * 3.0) < 1e-12
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
    rng = np.random.default_rng(9)
    counts = np.array([10, 0, 3])
    total = np.ones((3, 2), dtype=np.int64)
    law.sample_sum_batch(rng, counts, total)  # adds in place
    assert (total >= 1).all()
    assert (total[1] == 1).all()


# ---------------------------------------------------------------------------
# immigration laws
# ---------------------------------------------------------------------------


def _clamped_root():
    return {"kind": "clamp", "lo": 1.0, "inner": {"kind": "power", "coeff": 1.0, "exponent": 0.5}}


_IMMIGRATION_DRAWS = 200_000  # R, fixed before the tolerances below are


# each case: the document's law, the size s, its exact mean at s, and the
# relative tolerance of its raw moments.  At mean 10^6 the oracle's terms
# exp(-lam + k log lam - lgamma(k + 1)) round in an exponent of size 10^6,
# about 10^6 * 2.2e-16 = 2e-10 each, so that case alone is held to 1e-8;
# every other case keeps 1e-10
@pytest.mark.parametrize("law_doc, s, exact_mean, rel", [
    ({"family": "shifted_poisson", "mean": {"kind": "constant", "value": 2.0}}, 10.0, 2.0, 1e-10),
    ({"family": "shifted_poisson", "mean": {"kind": "constant", "value": 1e3}}, 10.0, 1e3, 1e-10),
    ({"family": "shifted_poisson", "mean": {"kind": "constant", "value": 1e6}}, 10.0, 1e6, 1e-8),
    ({"family": "shifted_poisson", "mean": _clamped_root()}, 1e4, 100.0, 1e-10),
    ({"family": "deterministic", "value": 3}, 10.0, 3.0, 1e-10),
    ({"family": "table", "values": [1, 4], "probs": [0.75, 0.25]}, 10.0, 1.75, 1e-10),
], ids=["poisson-2", "poisson-1e3", "poisson-1e6", "poisson-clamped-power", "deterministic",
        "table"])
def test_immigration_laws_match_the_oracle(law_doc, s, exact_mean, rel):
    # the law as a document loads it, against the oracle's pmf of the same
    # document: its mean exactly, raw moments to the oracle's rounding, and
    # the draws' mean and variance within 5 standard errors at R draws
    doc = load_doc("gamma_single_type")
    del doc["limit"]
    doc["migration"][0]["immigration"] = law_doc  # immigration with probability 1
    law = spec_from_dict(doc).migration[0].immigration
    oracle = oracles.component_adjustment_pmf(doc["migration"][0], 1, s)
    assert law.raw_moment(1, s) == exact_mean
    for k in range(1, 5):
        assert law.raw_moment(k, s) == pytest.approx(oracles.pmf_moment(oracle, k), rel=rel)
    mean = oracles.pmf_moment(oracle, 1)
    var = oracles.pmf_moment(oracle, 2, center=mean)
    fourth = oracles.pmf_moment(oracle, 4, center=mean)
    n = _IMMIGRATION_DRAWS
    draws = law.sample_batch(np.random.default_rng(10), n, np.full(n, s))
    assert draws.shape == (n,) and draws.min() >= 1
    assert abs(draws.mean() - mean) <= 5.0 * math.sqrt(var / n)
    assert abs(draws.var(ddof=1) - var) <= 5.0 * math.sqrt((fourth - var * var) / n)
    if len(oracle) <= 64:  # a small support: its whole law
        assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02


def test_shifted_poisson_immigration_state_dependence():
    law = ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0))
    assert law.raw_moment(1, 100.0) == 10.0
    assert law.raw_moment(1, 0.0) == 1.0
    # one draw per selected row, each at its own row's mean
    sizes = np.tile([0.0, 100.0, 400.0], 50_000)
    rows = sizes < 400
    draws = law.sample_batch(np.random.default_rng(15), 100_000, sizes, rows)
    assert draws.shape == (100_000,)
    assert (draws[sizes[rows] == 0] == 1).all()
    assert abs(draws[sizes[rows] == 100].mean() - 10.0) < 5 * 3.0 / np.sqrt(50_000)


def test_shifted_poisson_immigration_rejects_mean_below_one():
    law = ShiftedPoissonImmigration(mean_fn=Constant(0.5))
    with pytest.raises(ValueError, match="below 1"):
        law.raw_moment(1, 4.0)
    # a stack of sizes raises if any selected row's mean is below 1
    law = ShiftedPoissonImmigration(mean_fn=Power(1.0, 1.0))
    s = np.array([4.0, 0.0, 9.0])
    with pytest.raises(ValueError, match="below 1"):
        law.sample_batch(np.random.default_rng(16), 3, s, np.ones(3, bool))
    # ... and only the selected rows are read
    draws = law.sample_batch(np.random.default_rng(16), 2, s, np.array([True, False, True]))
    assert draws.shape == (2,) and draws.min() >= 1


def test_deterministic_immigration():
    law = DeterministicImmigration(value=3)
    for k in range(1, 5):
        assert law.raw_moment(k) == 3.0**k
    vals, probs = law.atoms()
    assert list(vals) == [3] and list(probs) == [1.0]
    with pytest.raises(ValueError):
        DeterministicImmigration(value=0)


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_table_immigration_draws_are_those_of_choice(n):
    # the cached CDF draws what rng.choice draws, and leaves the stream where it does
    # the probabilities' float sum is 1 - 2**-53, which both normalise away
    law = TableImmigration(values=(1, 2, 5, 9, 3), probs=(0.7, 0.0, 0.1, 0.1, 0.1))
    for key in range(5):
        rng_a, rng_b = np.random.default_rng(key), np.random.default_rng(key)
        got = law.sample_batch(rng_a, n)
        want = np.asarray(law.values)[rng_b.choice(len(law.values), p=law.probs, size=n)]
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert rng_a.random() == rng_b.random()


def test_table_immigration():
    law = TableImmigration(values=(1, 4), probs=(0.75, 0.25))
    assert abs(law.raw_moment(1) - 1.75) < 1e-15
    assert abs(law.raw_moment(2) - (0.75 + 0.25 * 16)) < 1e-15
    assert law.mean_fn == Constant(1.75)
    with pytest.raises(ValueError):
        TableImmigration(values=(0, 2), probs=(0.5, 0.5))


class _NoGather(np.ndarray):
    """A stack of sizes that fails when rows are gathered from it."""

    def __getitem__(self, key):
        raise AssertionError("the immigrating sizes were gathered")


@pytest.mark.parametrize("law, reads_sizes", [
    (ShiftedPoissonImmigration(mean_fn=Constant(2.0)), False),
    (DeterministicImmigration(value=3), False),
    (TableImmigration(values=(1, 4), probs=(0.75, 0.25)), False),
    (ShiftedPoissonImmigration(mean_fn=Clamp(Constant(2.0), lo=1.0)), False),
    (ShiftedPoissonImmigration(mean_fn=Clamp(Power(1.0, 0.5), lo=1.0)), True),
], ids=["shifted-poisson-constant", "deterministic", "table", "shifted-poisson-clamped-constant",
        "shifted-poisson-power"])
def test_immigration_draws_only_at_the_selected_rows(law, reads_sizes):
    s = np.arange(0, 600, 3, dtype=float)
    rows = np.flatnonzero(np.random.default_rng(17).random(len(s)) < 0.4)
    k = rows.size
    # the draws equal those of the selected rows alone, from the same stream
    selected = law.sample_batch(np.random.default_rng(18), k, s, rows)
    alone = law.sample_batch(np.random.default_rng(18), k, s[rows], np.arange(k))
    assert selected.shape == (k,)
    assert selected.tolist() == alone.tolist()
    # rows=None selects every row
    every = law.sample_batch(np.random.default_rng(18), len(s), s)
    assert every.tolist() == law.sample_batch(
        np.random.default_rng(18), len(s), s, np.arange(len(s))).tolist()
    if reads_sizes:
        with pytest.raises(AssertionError, match="gathered"):
            law.sample_batch(np.random.default_rng(18), k, s.view(_NoGather), rows)
    else:
        draws = law.sample_batch(np.random.default_rng(18), k, s.view(_NoGather), rows)
        assert np.asarray(draws).tolist() == selected.tolist()
        # a spec whose state functions read no size forms none
        draws = law.sample_batch(np.random.default_rng(18), k, None, rows)
        assert np.asarray(draws).tolist() == selected.tolist()


# ---------------------------------------------------------------------------
# emigration laws
# ---------------------------------------------------------------------------


def draws_at_count(law, zi, seed):
    """Draw at a shuffled vector of counts 1 and zi; check every row's
    support and return the draws of the rows at count zi.  Emigration laws
    are defined on counts >= 1 only: branch_probs folds a count of 0 away."""
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.repeat([1, zi], [1000, 100_000]))
    draws = law.sample_batch(rng, counts)
    assert draws.shape == counts.shape
    assert ((draws >= 1) & (draws <= counts)).all()
    return draws[counts == zi]


def test_uniform_emigration_moments():
    law = UniformEmigration()
    zi = 50
    oracle = oracles.uniform_pmf(zi)
    for k in range(1, 5):
        direct = oracles.pmf_moment(oracle, k)
        assert abs(law.raw_moment(k, zi) - direct) < 1e-9 * max(1.0, direct)
    assert law.mean_leading() == (0.5, 1.0)
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
    assert law.mean_leading() == (2.0, 0.0)
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
    coeff, exponent = law.mean_leading()
    assert abs(coeff - big) < 1e-4 and exponent == 0.0
    draws = draws_at_count(law, zi, 13)
    assert oracles.total_variation(empirical_pmf(draws), oracle) < 0.02
    # its rejection loop would never end below a count of 1
    with pytest.raises(ValueError, match=r"^inverse-cube emigration needs counts >= 1, got 0$"):
        law.sample_batch(np.random.default_rng(13), np.array([3, 0, 5]))


@pytest.mark.parametrize("law", [UniformEmigration(), TruncatedGeometricEmigration(ratio=0.9),
                                 InverseCubeEmigration(), DeterministicEmigration(value=3)],
                         ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("zi", [1, 7, 10**3, 10**5, 10**6])
def test_emigration_atoms_agree_with_raw_moments(law, zi):
    # the enumeration describes the same law as the closed form at every
    # count, far beyond any table size: the law's own atoms where it has
    # them, the oracle's where its support grows with the count
    vals, probs = emigration_atoms(law, zi)
    for k in range(1, 5):
        from_atoms = float(np.sum(probs * vals.astype(float) ** k))
        assert from_atoms == pytest.approx(law.raw_moment(k, zi), rel=1e-9, abs=0)


def test_deterministic_emigration_cap():
    law = DeterministicEmigration(value=2)
    assert law.raw_moment(1, 5) == 2.0
    assert law.raw_moment(3, 5) == 8.0
    assert law.raw_moment(1, 1) == 1.0  # capped at the available count
    rng = np.random.default_rng(14)
    assert law.sample_batch(rng, np.array([1, 1, 7, 2])).tolist() == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        DeterministicEmigration(value=0)
