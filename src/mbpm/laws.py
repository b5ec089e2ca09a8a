"""Distribution families for offspring, immigration, and emigration.

Every family carries exact low-order moments next to its sampler, so the
moment formulas elsewhere never fall back on Monte Carlo.  A law whose
support is a window that does not grow with the count enumerates it
(`atoms`, truncated below a tolerance where it is infinite).  Uniform and
inverse-cube emigration, whose support grows with the count, have no
`atoms`; the tests enumerate those supports, and the transition law of
their total-variation checks, on their own.

State-dependent quantities (migration probabilities, immigration means)
are expressed through a small closed set of *state functions* of the
scalar size s = u . z, where u is the left Perron weight vector of the
offspring mean matrix: constants, powers coeff * s**exponent, step tables,
and clamps of those.  Each is called as f(s), at one size or an array of
sizes, and so are the immigration laws' moments, atoms and draws;
``ModelSpec.size`` is the one place a size is formed from a state, and
it forms one only where some state function ``reads_size``.
Keeping the set closed lets validation find every size at which a
function changes form (its ``knees``): between two knees, and beyond the
last, each one is a constant or a single power.

Each state function and migration law states its large-size form once:
``leading()`` of a state function, and of an immigration law's mean
``mean_fn``, ``mean_leading()`` of an emigration law, and
``var_leading()`` of every migration law, give (coeff, exponent) with
f(s) = coeff * s**exponent * (1 + o(1)) as s -> inf, and (0, 0) for a
function that is eventually 0.  ``abs_leading(q)`` of every migration law
gives the growth of its central q-th absolute moment in the same form, up
to its coefficient.  ``limit_of``, ``exponent_of``, ``product_of`` and
``remainder_of`` read that pair; model validation, the classifier's
hypotheses, order checks and exponents, the Feller parameters and the
limit constants all go through them instead of guessing from samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import dot

# Tail mass permitted to be dropped when enumerating an infinite support.
DEFAULT_ATOM_TAIL = 1e-12
# Largest Poisson window an enumeration builds.
_ENUM_LIMIT = 1 << 20
# Argument from which the harmonic sums switch to Euler-Maclaurin.
_EM_START = 64
_PROB_TOL = 1e-12  # a probability this far past a bound is taken as at it

_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.2020569031595942854


# ---------------------------------------------------------------------------
# State functions of the scalar size
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, s):
        return self.value

    def leading(self) -> tuple:
        return (float(self.value), 0.0)

    def knees(self) -> tuple:
        return ()

    def crossings(self, level: float) -> tuple:
        return ()


@dataclass(frozen=True)
class Power:
    """coeff * s**exponent of the size s (0 at s = 0 for exponent > 0)."""

    coeff: float
    exponent: float

    def __call__(self, s):
        if self.coeff == 0.0:
            return 0.0
        # 0**0 = 1 and 0**(-e) = inf give the limits at s = 0; only the
        # latter warns, and an errstate costs more than the power
        if self.exponent >= 0.0:
            return self.coeff * np.power(s, self.exponent)
        with np.errstate(divide="ignore"):
            return self.coeff * np.power(s, self.exponent)

    def leading(self) -> tuple:
        if self.coeff == 0.0:
            return (0.0, 0.0)
        return (float(self.coeff), float(self.exponent))

    def knees(self) -> tuple:
        return ()

    def crossings(self, level: float) -> tuple:
        """The size at which coeff * s**exponent equals level, if there is one."""
        if self.coeff == 0.0 or self.exponent == 0.0 or not level / self.coeff > 0.0:
            return ()
        try:
            return ((level / self.coeff) ** (1.0 / self.exponent),)
        except OverflowError:  # beyond every float size
            return ()


@dataclass(frozen=True)
class Table:
    """Right-continuous step function of the size, constant beyond the ends.

    ``breaks`` are ascending size thresholds; the value on [breaks[k],
    breaks[k+1]) is ``values[k]``, below breaks[0] it is values[0].
    """

    breaks: tuple
    values: tuple

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise ValueError("table needs matching nonempty breaks and values")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ValueError("table breaks must be strictly increasing")

    def __call__(self, s):
        idx = np.searchsorted(self.breaks, s, side="right") - 1
        return np.asarray(self.values)[np.maximum(idx, 0)]

    def leading(self) -> tuple:
        return (float(self.values[-1]), 0.0)

    def knees(self) -> tuple:
        return tuple(self.breaks)

    def crossings(self, level: float) -> tuple:
        return ()  # a table only changes value at its breaks


@dataclass(frozen=True)
class Clamp:
    inner: "StateFunction"
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.lo is None and self.hi is None:
            raise ValueError("clamp needs at least one bound")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("clamp bounds are inverted")

    def __call__(self, s):
        # np.clip's values without its Python wrapper, signed zeros included:
        # with one bound it is np.maximum(v, lo) or np.minimum(v, hi), which
        # return the bound where v equals it; with two it returns v there
        v = self.inner(s)
        if self.hi is None:
            return np.maximum(v, self.lo)
        if self.lo is None:
            return np.minimum(v, self.hi)
        return np.minimum(self.hi, np.maximum(self.lo, v))

    def leading(self) -> tuple:
        """The inner function's leading form, unless the inner function ends
        up past a bound: then the bound, a constant.  A decaying power that
        tends to a bound at 0 from past it ends up past it."""
        coeff, exponent = lead = self.inner.leading()
        end = limit_of(lead)
        for bound, side in ((self.lo, 1.0), (self.hi, -1.0)):
            if bound is not None and (side * (end - bound) < 0.0 or (
                    end == bound and exponent < 0.0 and side * coeff < 0.0)):
                return (float(bound), 0.0)
        return lead

    def knees(self) -> tuple:
        """The inner function's knees and the sizes at which it meets a bound."""
        bounds = [b for b in (self.lo, self.hi) if b is not None]
        return self.inner.knees() + sum((self.inner.crossings(b) for b in bounds), ())

    def crossings(self, level: float) -> tuple:
        return self.inner.crossings(level)


StateFunction = Constant | Power | Table | Clamp


def reads_size(f) -> bool:
    """Whether the state function f depends on the size: a constant, or a
    clamp of one, does not."""
    while isinstance(f, Clamp):
        f = f.inner
    return not isinstance(f, Constant)


def limit_of(lead: tuple) -> float:
    """The large-size limit of the leading form (coeff, exponent): +-inf
    where it diverges."""
    coeff, exponent = lead
    if exponent > 0.0 and coeff != 0.0:
        return math.copysign(math.inf, coeff)
    return coeff if exponent == 0.0 else 0.0


def exponent_of(lead: tuple) -> float:
    """The exponent of the leading form (coeff, exponent); -inf for a form
    that is eventually 0."""
    return lead[1] if lead[0] != 0.0 else -math.inf


def product_of(*leads) -> tuple:
    """The leading form of a product of functions with these leading forms:
    coefficients multiply and exponents add; (0, 0) where a factor is
    eventually 0."""
    coeff, exponent = 1.0, 0.0
    for c, e in leads:
        if c == 0.0:
            return (0.0, 0.0)
        coeff, exponent = coeff * c, exponent + e
    return (coeff, exponent)


def remainder_of(q: tuple, r: tuple) -> tuple:
    """The leading form of 1 - (q + r) for branch probabilities of leading
    forms q and r: (K, 0), K = 1 - (lim q + lim r), where K > _PROB_TOL,
    else (0, 0): a state function of the closed set reaches the bound it
    tends to, so a remainder that tends to 0 is eventually 0."""
    rest = 1.0 - (limit_of(q) + limit_of(r))
    return (rest, 0.0) if rest > _PROB_TOL else (0.0, 0.0)


# ---------------------------------------------------------------------------
# Exact sum helpers for emigration moments
# ---------------------------------------------------------------------------


def _faulhaber(k: int, n: int) -> float:
    """Sum of j**k for j = 1..n, exact in integer arithmetic."""
    if n <= 0:
        return 0.0
    if k == 0:
        return float(n)
    if k == 1:
        return float(n * (n + 1) // 2)
    if k == 2:
        return float(n * (n + 1) * (2 * n + 1) // 6)
    if k == 3:
        s = n * (n + 1) // 2
        return float(s * s)
    if k == 4:
        return float(n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30)
    raise ValueError(f"power sums only implemented for k <= 4, got {k}")


def _h_sum(power: int, n: int) -> float:
    """Sum of j**(-power) for j = 1..n, power in {1, 2, 3}.

    The first _EM_START terms are summed directly, the rest by
    Euler-Maclaurin through the B6 term: past j = 64 the remainder is
    below 3e-18 of the sum, so the result is exact to rounding.  fsum adds
    the integral, the half end terms and the three Bernoulli corrections;
    the integral is taken from span / a, exact where b - a would round.
    """
    if power not in (1, 2, 3):
        raise ValueError("harmonic sums implemented for powers 1..3 only")
    parts = (np.arange(1, min(n, _EM_START) + 1, dtype=float) ** -power).tolist()
    if n > _EM_START:  # the sum of x**q over x = a, a+1, ..., b
        q, a, b, span = -power, float(_EM_START + 1), float(n), n - _EM_START - 1
        log_ratio = math.log1p(span / a)
        if q == -1:
            parts.append(log_ratio)
        else:
            parts.append(1.0 / (q + 1) * a ** (q + 1) * math.expm1((q + 1) * log_ratio))
        parts.append(0.5 * (a**q + b**q))
        # B_2k / (2k)! times f^(2k-1)(b) - f^(2k-1)(a), k = 1..3, of f = x^q
        slope = q  # q (q - 1) ... (q - 2k + 2)
        for k, denominator in enumerate((12.0, -720.0, 30240.0), start=1):
            m = q - 2 * k + 1
            parts.append(slope * (b**m - a**m) / denominator)
            slope *= m * (m - 1)
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# Offspring marginals (counts of one child type from one parent)
# ---------------------------------------------------------------------------


def check_table(atoms, probs, noun: str, ndim: int = 1, least: int = 0):
    """Refuse a finite law unless it has one atom per probability (an
    integer, or with ndim = 2 an integer vector), every atom's entries are
    at least ``least``, and the probabilities are nonnegative and sum to 1.
    Each test is written so that a NaN fails it."""
    a = np.asarray(atoms)
    p = np.asarray(probs, dtype=float)
    if a.ndim != ndim or p.ndim != 1 or len(a) != p.size or a.size == 0:
        raise ValueError(f"{noun} needs one probability per atom")
    if not ((a >= least).all() and np.array_equal(a, a.astype(int))):
        raise ValueError(f"{noun} atoms must have integer entries >= {least}")
    if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= 1e-12):
        raise ValueError(f"{noun} probabilities must be nonnegative and sum to 1")


# numpy's Poisson sampler rejects rates above this (numpy/random/_common.pyx).
_POISSON_RATE_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def poisson_draws(rng, rates, size=None, law="offspring", rows=None):
    """One Poisson draw per entry of ``rates`` (R,) or (R, p), or ``size``
    draws at one scalar rate.

    A rate past numpy's limit raises a ValueError naming the ``law`` and,
    for an array of rates, the offending entry's row (and child type),
    instead of numpy's bare "lam value too large".  The row is the entry's
    index in ``rates``, or, where ``rates`` holds the rows of the states
    whose indices ``rows`` lists, the row of the states.  numpy checks
    every rate before it draws, so the search for the offending one runs
    only after its refusal.
    """
    try:
        return rng.poisson(rates, size)
    except ValueError:
        if not np.max(rates, initial=0.0) > _POISSON_RATE_MAX:
            raise
    where = np.unravel_index(np.argmax(rates), np.shape(rates))
    at = ""
    if where:
        row = where[0] if rows is None else rows[where[0]]
        at = f" at row {row}" + (f", child type {where[1]}" if len(where) > 1 else "")
    raise ValueError(
        f"Poisson {law} rate {np.max(rates):.10g}{at} is past numpy's "
        f"Poisson limit {_POISSON_RATE_MAX:.10g}"
    )


@dataclass(frozen=True)
class PoissonOffspring:
    mean: float

    def __post_init__(self):
        if not self.mean >= 0:
            raise ValueError("poisson mean must be nonnegative")

    def var(self) -> float:
        return self.mean

    def prob_zero(self) -> float:
        return math.exp(-self.mean)

    def largest(self) -> Optional[int]:
        return None  # no largest count

    def sample_sum_batch(self, rng, counts):
        return poisson_draws(rng, np.asarray(counts, dtype=np.int64) * self.mean)


@dataclass(frozen=True)
class BernoulliOffspring:
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("bernoulli probability must lie in [0, 1]")

    @property
    def mean(self) -> float:
        return self.prob

    def var(self) -> float:
        return self.prob * (1.0 - self.prob)

    def prob_zero(self) -> float:
        return 1.0 - self.prob

    def largest(self) -> int:
        return 1

    def sample_sum_batch(self, rng, counts):
        return rng.binomial(np.asarray(counts, dtype=np.int64), self.prob)


@dataclass(frozen=True)
class GeometricOffspring:
    """Geometric law on {0, 1, ...} parameterized by its mean."""

    mean: float

    def __post_init__(self):
        if not self.mean >= 0:
            raise ValueError("geometric mean must be nonnegative")

    @property
    def _ratio(self) -> float:
        # P(X = k) = (1 - s) s^k with s = mean / (1 + mean)
        return self.mean / (1.0 + self.mean)

    def var(self) -> float:
        return self.mean * (1.0 + self.mean)

    def prob_zero(self) -> float:
        return 1.0 / (1.0 + self.mean)

    def largest(self) -> Optional[int]:
        return None  # no largest count

    def sample_sum_batch(self, rng, counts):
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros(counts.shape, dtype=np.int64)
        if self.mean == 0.0:
            return out
        pos = counts > 0
        if pos.any():
            try:
                out[pos] = rng.negative_binomial(counts[pos], 1.0 - self._ratio)
            except ValueError as exc:  # numpy: "n too large or p too small"
                raise ValueError(
                    f"geometric offspring of mean {self.mean:.10g} from {counts.max()} "
                    "parents are past numpy's negative-binomial limit"
                ) from exc
        return out


@dataclass(frozen=True)
class TableOffspring:
    """Finite scalar count law given by atoms and probabilities."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        check_table(self.values, self.probs, "table law")

    @property
    def mean(self) -> float:
        return dot(self.values, self.probs)

    def var(self) -> float:
        return dot(np.square(self.values, dtype=float), self.probs) - self.mean**2

    def prob_zero(self) -> float:
        v = np.asarray(self.values)
        return float(np.asarray(self.probs, dtype=float)[v == 0].sum())

    def largest(self) -> int:
        return int(max(self.values))

    def sample_sum_batch(self, rng, counts):
        counts = np.asarray(counts, dtype=np.int64)
        draws = rng.multinomial(counts, self.probs)
        return draws @ np.asarray(self.values, dtype=np.int64)


def _poisson_atoms(lam: float):
    """Poisson(lam) atoms on a window around the mode m = floor(lam).

    Weights relative to the mode come from the ratios p(k+1)/p(k) =
    lam/(k+1), so nothing underflows at any rate (exp(-lam) is 0.0 from
    lam = 746 on).  Beyond the window the ratios fall geometrically, which
    bounds the dropped mass on each side; the window doubles until that
    bound is below DEFAULT_ATOM_TAIL.  The probabilities are normalized to
    the window plus the bound, so they sum to at least 1 - DEFAULT_ATOM_TAIL.
    """
    if lam == 0.0:
        return np.array([0]), np.array([1.0])
    m = math.floor(lam)
    width = 16 + int(8.0 * math.sqrt(lam))
    while True:
        if 2 * width + 1 > _ENUM_LIMIT:
            raise ValueError(f"poisson rate {lam:g} is too large to enumerate")
        lo, hi = max(0, m - width), m + width
        up = np.cumprod(lam / np.arange(m + 1, hi + 1))  # p(k)/p(m), k = m+1..hi
        down = np.cumprod(np.arange(m, lo, -1) / lam)  # p(k)/p(m), k = m-1..lo
        r = lam / (hi + 1)
        beyond = up[-1] * r / (1.0 - r)
        if lo > 0:
            q = lo / lam
            beyond += down[-1] * q / (1.0 - q)
        w = np.concatenate((down[::-1], [1.0], up))
        total = w.sum()
        if beyond < DEFAULT_ATOM_TAIL * total:
            return np.arange(lo, hi + 1), w / (total + beyond)
        width *= 2


# ---------------------------------------------------------------------------
# Joint offspring laws (vector of children of all types from one parent)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentOffspring:
    """Offspring vector with independent per-type marginal counts."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("independent offspring law needs at least one component")

    @property
    def dim(self) -> int:
        return len(self.components)

    def mean_vec(self):
        return np.array([c.mean for c in self.components], dtype=float)

    def cov(self):
        return np.diag([c.var() for c in self.components]).astype(float)

    def prob_zero(self) -> float:
        out = 1.0
        for c in self.components:
            out *= c.prob_zero()
        return out

    def largest_vec(self) -> list:
        """The largest count of each child type, 0 where its law has none."""
        return [c.largest() or 0 for c in self.components]

    def sample_sum_batch(self, rng, counts, out):
        """Add the summed children of counts[r] parents into row r of out (R, p)."""
        for j, c in enumerate(self.components):
            out[:, j] += c.sample_sum_batch(rng, counts)


@dataclass(frozen=True)
class FiniteOffspring:
    """Offspring vector drawn from an explicit finite table of vectors."""

    vectors: tuple  # of int tuples, shape (k, p)
    probs: tuple

    def __post_init__(self):
        check_table(self.vectors, self.probs, "finite offspring law", ndim=2)

    @property
    def dim(self) -> int:
        return np.asarray(self.vectors).shape[1]

    def mean_vec(self):
        return np.array([dot(self.probs, col) for col in np.asarray(self.vectors).T])

    def cov(self):
        cols, mu = np.asarray(self.vectors, dtype=float).T, self.mean_vec()
        return np.array([[dot(self.probs, a * b) for b in cols] for a in cols]) - np.outer(mu, mu)

    def prob_zero(self) -> float:
        v = np.asarray(self.vectors)
        mask = (v == 0).all(axis=1)
        return float(np.asarray(self.probs, dtype=float)[mask].sum())

    def largest_vec(self) -> list:
        """The largest count of each child type."""
        return [int(x) for x in np.asarray(self.vectors).max(axis=0)]

    def sample_sum_batch(self, rng, counts, out):
        """Add the summed children of counts[r] parents into row r of out (R, p)."""
        draws = rng.multinomial(np.asarray(counts, dtype=np.int64), self.probs)
        out += draws @ np.asarray(self.vectors, dtype=np.int64)


# ---------------------------------------------------------------------------
# Migration laws
# ---------------------------------------------------------------------------


class _SpreadsLikeItsDeviation:
    """``abs_leading(q)`` of a migration law whose spread about its mean
    scales like its standard deviation: a Poisson rate ~ s^e, a uniform
    window ~ zi, or a bounded law."""

    def abs_leading(self, q: float) -> tuple:
        """The leading form of E|X - E X|^q up to its coefficient, stated
        as 1: the q/2 power of the variance's; (0, 0) where the variance
        is eventually 0."""
        coeff, exponent = self.var_leading()
        return (1.0, q * exponent / 2.0) if coeff != 0.0 else (0.0, 0.0)


# ---------------------------------------------------------------------------
# Immigration laws (N-valued, at least one arrival per event)
# ---------------------------------------------------------------------------

# Raw Poisson moments E[P^k] as polynomials in the rate (Touchard).
def _poisson_raw(k: int, lam: float) -> float:
    if k == 0:
        return 1.0
    if k == 1:
        return lam
    if k == 2:
        return lam**2 + lam
    if k == 3:
        return lam**3 + 3 * lam**2 + lam
    if k == 4:
        return lam**4 + 6 * lam**3 + 7 * lam**2 + lam
    raise ValueError(f"poisson raw moments implemented for k <= 4, got {k}")


@dataclass(frozen=True)
class ShiftedPoissonImmigration(_SpreadsLikeItsDeviation):
    """1 + Poisson(a(s) - 1) arrivals with size-dependent mean a(s) >= 1."""

    mean_fn: StateFunction

    def _rate(self, s):
        a = np.asarray(self.mean_fn(s))
        if not a.min() >= 1.0 - 1e-12:
            raise ValueError(
                f"immigration mean {a.min()} fell below 1; clamp the mean state function"
            )
        return np.maximum(a - 1.0, 0.0)

    def raw_moment(self, k: int, s) -> float:
        lam = self._rate(s)
        return sum(math.comb(k, j) * _poisson_raw(j, lam) for j in range(k + 1))

    @cached_property
    def _constant_rate(self):
        """The Poisson rate of a constant mean, checked once; None if the mean reads the size."""
        return None if reads_size(self.mean_fn) else self._rate(None)

    def sample_batch(self, rng, n, s=None, rows=None):
        """``n`` draws, one per row of the sizes s (R,) whose indices rows
        lists (every row if None), each at its row's mean.

        A constant mean does not read the sizes, so they are not gathered.
        """
        rate = self._constant_rate
        if rate is None:
            rate = self._rate(s if rows is None else s[rows])
        draws = poisson_draws(rng, rate, n, law="immigration", rows=rows)
        draws += 1
        return draws

    def atoms(self, s):
        vals, probs = _poisson_atoms(self._rate(s))
        return vals + 1, probs

    def var_leading(self) -> tuple:
        """The variance is the Poisson rate a(s) - 1: a growing mean's
        leading form, else the mean's limit minus 1."""
        lead = self.mean_fn.leading()
        if lead[1] > 0.0:
            return lead
        rate = limit_of(lead) - 1.0
        return (rate, 0.0) if rate != 0.0 else (0.0, 0.0)


@dataclass(frozen=True)
class DeterministicImmigration(_SpreadsLikeItsDeviation):
    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("immigration size must be an integer >= 1")

    @property
    def mean_fn(self) -> Constant:
        return Constant(float(self.value))

    def raw_moment(self, k: int, s=None) -> float:
        return float(self.value) ** k

    def sample_batch(self, rng, n, s=None, rows=None):
        return np.full(n, int(self.value), dtype=np.int64)

    def atoms(self, s=None):
        return np.array([int(self.value)]), np.array([1.0])

    def var_leading(self) -> tuple:
        return (0.0, 0.0)


@dataclass(frozen=True)
class TableImmigration(_SpreadsLikeItsDeviation):
    values: tuple
    probs: tuple

    def __post_init__(self):
        check_table(self.values, self.probs, "immigration table", least=1)

    @property
    def mean_fn(self) -> Constant:
        return Constant(self.raw_moment(1))

    def raw_moment(self, k: int, s=None) -> float:
        return dot(np.asarray(self.values, dtype=float) ** k, self.probs)

    @cached_property
    def _cdf(self):
        cdf = np.cumsum(self.probs, dtype=float)
        cdf /= cdf[-1]
        return cdf

    def sample_batch(self, rng, n, s=None, rows=None):
        """``n`` draws by inversion of the cached CDF: draw for draw, and
        stream position included, those of ``rng.choice(len(values),
        p=probs, size=n)``, which forms the same CDF on every call."""
        idx = np.searchsorted(self._cdf, rng.random(n), side="right")
        return np.asarray(self.values, dtype=np.int64)[idx]

    def atoms(self, s=None):
        return np.asarray(self.values, dtype=np.int64), np.asarray(self.probs, dtype=float)

    def var_leading(self) -> tuple:
        spread = np.asarray(self.values, dtype=float) - self.raw_moment(1)
        var = dot(spread * spread, self.probs)
        return (var, 0.0) if var != 0.0 else (0.0, 0.0)


ImmigrationLaw = ShiftedPoissonImmigration | DeterministicImmigration | TableImmigration


# ---------------------------------------------------------------------------
# Emigration laws (removals from one type's current count zi >= 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformEmigration(_SpreadsLikeItsDeviation):
    """D uniform on {1, ..., zi}, for counts zi >= 1 (``branch_probs`` folds
    zi = 0 away): mean removals grow linearly with the count."""

    def raw_moment(self, k: int, zi: int) -> float:
        return _faulhaber(k, zi) / zi

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,)."""
        return rng.integers(1, np.asarray(zi, dtype=np.int64), endpoint=True)

    def mean_leading(self) -> tuple:
        return (0.5, 1.0)  # the mean (zi + 1) / 2

    def var_leading(self) -> tuple:
        return (1.0 / 12.0, 2.0)  # the variance (zi^2 - 1) / 12


@dataclass(frozen=True)
class TruncatedGeometricEmigration(_SpreadsLikeItsDeviation):
    """D proportional to ratio**(j-1) on {1, ..., zi}, for counts zi >= 1
    (``branch_probs`` folds zi = 0 away)."""

    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("geometric ratio must lie strictly inside (0, 1)")

    def _mass(self, m: int) -> float:
        # sum of ratio**(j-1), j = 1..m
        return (1.0 - self.ratio**m) / (1.0 - self.ratio)

    def raw_moment(self, k: int, zi: int) -> float:
        # Sum j^k s^(j-1) over j <= min(zi, cut).  From j = cut on each term
        # is at most rho = (1 + 1/cut)^k s times the one before, so the
        # dropped tail is below t_cut rho / (1 - rho); cut doubles until that
        # is below 1e-16 of the sum.
        s = self.ratio
        cut = 64
        while True:
            j = np.arange(1, min(zi, cut) + 1, dtype=float)
            terms = j**k * s ** (j - 1.0)
            total = float(terms.sum())
            if cut >= zi:
                break
            rho = (1.0 + 1.0 / cut) ** k * s
            if rho < 1.0 and terms[-1] * rho / (1.0 - rho) < 1e-16 * total:
                break
            cut *= 2
        return total / self._mass(zi)

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,)."""
        zi = np.asarray(zi, dtype=np.int64)
        return self._invert(rng.random(zi.shape), zi)

    def _invert(self, unif, zi):
        # CDF(j) = (1 - s^j) / (1 - s^zi): solve for the smallest j with CDF >= U
        log_s = math.log(self.ratio)
        target = unif * -np.expm1(zi * log_s)
        j = np.ceil(np.log1p(-target) / log_s)
        return np.minimum(np.maximum(j, 1), zi).astype(np.int64)

    def atoms(self, zi: int):
        # For huge counts, drop the analytically negligible geometric tail
        # (every term below 1e-18 of the total) instead of materializing it.
        cut = 1 + int(math.ceil(math.log(1e-18) / math.log(self.ratio)))
        m = min(zi, max(cut, 1))
        j = np.arange(1, m + 1)
        w = self.ratio ** (j - 1.0)
        return j, w / self._mass(zi)

    def mean_leading(self) -> tuple:
        return (1.0 / (1.0 - self.ratio), 0.0)

    def var_leading(self) -> tuple:
        return (self.ratio / (1.0 - self.ratio) ** 2, 0.0)


@dataclass(frozen=True)
class InverseCubeEmigration:
    """D proportional to 1/j^3 on {1, ..., zi}, for counts zi >= 1
    (``branch_probs`` folds zi = 0 away): bounded mean, heavy tail."""

    def raw_moment(self, k: int, zi: int) -> float:
        norm = _h_sum(3, zi)
        if k == 1:
            return _h_sum(2, zi) / norm
        if k == 2:
            return _h_sum(1, zi) / norm
        if k == 3:
            return zi / norm
        if k == 4:
            return _faulhaber(1, zi) / norm
        raise ValueError(f"inverse-cube moments implemented for k <= 4, got {k}")

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,), each at least 1.

        Zipf(3) draws, redrawn where they exceed their row's count: each
        draw is kept with probability >= 1/zeta(3) ~ 0.83 (rejection from
        the untruncated law, Devroye 1986), so the draws are exact at
        every count.  Below 1 no draw is ever kept, so such a count is
        refused.
        """
        zi = np.asarray(zi, dtype=np.int64)
        if np.min(zi, initial=1) < 1:
            raise ValueError(f"inverse-cube emigration needs counts >= 1, got {np.min(zi)}")
        out = np.zeros(zi.shape, dtype=np.int64)
        rows = np.arange(zi.size)
        while rows.size:
            draws = rng.zipf(3.0, size=rows.size)
            kept = draws <= zi[rows]
            out[rows[kept]] = draws[kept]
            rows = rows[~kept]
        return out

    def mean_leading(self) -> tuple:
        return (_ZETA2 / _ZETA3, 0.0)

    def var_leading(self) -> tuple:
        """E[D^2] = H_1(zi) / H_3(zi) grows like log(zi) / zeta(3), which no
        power states: an infinite coefficient at exponent 0 marks a factor
        that outgrows every constant and no positive power."""
        return (math.inf, 0.0)

    def abs_leading(self, q: float) -> tuple:
        """E|D - E D|^q is the tail sum of j^(q-3) / zeta(3) to leading
        order: bounded below q = 2, a log at q = 2 (marked as in
        var_leading), and like zi^(q-2) above."""
        if q == 2.0:
            return self.var_leading()
        return (1.0, max(q - 2.0, 0.0))


@dataclass(frozen=True)
class DeterministicEmigration(_SpreadsLikeItsDeviation):
    """Remove a fixed number, capped at the available count zi >= 1
    (``branch_probs`` folds zi = 0 away)."""

    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("emigration size must be an integer >= 1")

    def raw_moment(self, k: int, zi: int) -> float:
        return float(min(self.value, zi)) ** k

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,)."""
        return np.minimum(np.asarray(zi, dtype=np.int64), int(self.value))

    def atoms(self, zi: int):
        return np.array([min(int(self.value), zi)]), np.array([1.0])

    def mean_leading(self) -> tuple:
        return (float(self.value), 0.0)

    def var_leading(self) -> tuple:
        return (0.0, 0.0)


EmigrationLaw = (
    UniformEmigration
    | TruncatedGeometricEmigration
    | InverseCubeEmigration
    | DeterministicEmigration
)
