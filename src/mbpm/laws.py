"""Distribution families for offspring, immigration, and emigration.

Every family carries exact low-order moments next to its sampler, so the
moment formulas elsewhere never fall back on Monte Carlo, and enumeration
(`atoms`) for total-variation checks where the support is finite or can be
truncated below any tolerance.

State-dependent quantities (migration probabilities, immigration means)
are expressed through a small closed set of *state functions* of the
scalar size s = u . z, where u is the left Perron weight vector of the
offspring mean matrix: constants, powers coeff * s**exponent, step tables,
and clamps of those.  Keeping the set closed lets the classifier reason
structurally about growth exponents and limits instead of guessing from
samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# Tail mass permitted to be dropped when enumerating an infinite support.
DEFAULT_ATOM_TAIL = 1e-12

_EULER_GAMMA = 0.5772156649015329
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.2020569031595942854


def size_of(z, u=None):
    """Size u . z seen by state functions.

    ``z`` is one state (p,), giving a float, or a stack of states (R, p),
    giving one size per row.  For single-type models the weight vector
    defaults to (1,); with more types it must be supplied (it comes from
    the mean matrix spectrum), except at the null state.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if u is None:
        if z.shape[-1] != 1 and z.any():
            raise ValueError(
                "size-dependent state function needs the left Perron weights u "
                "for a multitype state"
            )
        u = np.ones(z.shape[-1])
    return z @ np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# State functions of the scalar size
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, z, u=None):
        return self.value

    def growth_exponent(self) -> float:
        return 0.0

    def limit(self) -> Optional[float]:
        return self.value

    def _divergence(self) -> int:
        return 0


@dataclass(frozen=True)
class Power:
    """coeff * s**exponent of the size s = u . z (0 at s = 0 for exponent > 0)."""

    coeff: float
    exponent: float

    def __call__(self, z, u=None):
        if self.coeff == 0.0:
            return 0.0
        # 0**0 = 1 and 0**(-e) = inf give the limits at s = 0
        with np.errstate(divide="ignore"):
            return self.coeff * np.power(size_of(z, u), self.exponent)

    def growth_exponent(self) -> float:
        if self.coeff == 0.0:
            return 0.0
        return max(self.exponent, 0.0)

    def limit(self) -> Optional[float]:
        if self.coeff == 0.0 or self.exponent < 0:
            return 0.0
        if self.exponent == 0:
            return self.coeff
        return None

    def _divergence(self) -> int:
        if self.coeff == 0.0 or self.exponent <= 0:
            return 0
        return 1 if self.coeff > 0 else -1


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

    def __call__(self, z, u=None):
        idx = np.searchsorted(self.breaks, size_of(z, u), side="right") - 1
        return np.asarray(self.values)[np.maximum(idx, 0)]

    def growth_exponent(self) -> float:
        return 0.0

    def limit(self) -> Optional[float]:
        return float(self.values[-1])

    def _divergence(self) -> int:
        return 0


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

    def __call__(self, z, u=None):
        return np.clip(self.inner(z, u), self.lo, self.hi)

    def growth_exponent(self) -> float:
        if self.hi is not None:
            return 0.0
        return self.inner.growth_exponent()

    def limit(self) -> Optional[float]:
        lim = self.inner.limit()
        if lim is None:
            d = self.inner._divergence()
            if d > 0:
                return self.hi  # None when unbounded above
            if d < 0:
                return self.lo
            return None
        if self.lo is not None:
            lim = max(lim, self.lo)
        if self.hi is not None:
            lim = min(lim, self.hi)
        return lim

    def _divergence(self) -> int:
        d = self.inner._divergence()
        if d > 0 and self.hi is not None:
            return 0
        if d < 0 and self.lo is not None:
            return 0
        return d


StateFunction = Constant | Power | Table | Clamp


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


_H_DIRECT_LIMIT = 1_000_000
_h_cache: dict = {}


def _h_sum(power: int, n: int) -> float:
    """Sum of j**(-power) for j = 1..n, power in {1, 2, 3}.

    Direct summation up to 1e6 terms, Euler-Maclaurin tail beyond: the
    switchover error is below 1e-14 relative either way.
    """
    if n <= 0:
        return 0.0
    key = (power, n)
    if key in _h_cache:
        return _h_cache[key]
    if n <= _H_DIRECT_LIMIT:
        j = np.arange(1, n + 1, dtype=float)
        val = float(np.sum(j**-power))
    elif power == 1:
        val = math.log(n) + _EULER_GAMMA + 1.0 / (2 * n) - 1.0 / (12 * n**2)
    elif power == 2:
        val = _ZETA2 - 1.0 / n + 1.0 / (2 * n**2) - 1.0 / (6 * n**3)
    elif power == 3:
        val = _ZETA3 - 1.0 / (2 * n**2) + 1.0 / (2 * n**3) - 1.0 / (4 * n**4)
    else:
        raise ValueError("harmonic sums implemented for powers 1..3 only")
    if len(_h_cache) < 65536:
        _h_cache[key] = val
    return val


# ---------------------------------------------------------------------------
# Offspring marginals (counts of one child type from one parent)
# ---------------------------------------------------------------------------

# numpy's Poisson sampler rejects rates above this (numpy/random/_common.pyx).
_POISSON_RATE_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def poisson_draws(rng, rates, size=None, law="offspring"):
    """One Poisson draw per entry of ``rates`` (R,) or (R, p), or ``size``
    draws at one scalar rate.

    A rate past numpy's limit raises a ValueError naming the ``law`` and,
    for an array of rates, the offending entry's row (and child type) in
    ``rates``, instead of numpy's bare "lam value too large".  numpy checks every rate before it draws,
    so the search for the offending one runs only after its refusal.
    """
    try:
        return rng.poisson(rates, size)
    except ValueError:
        if not np.max(rates, initial=0.0) > _POISSON_RATE_MAX:
            raise
    where = np.unravel_index(np.argmax(rates), np.shape(rates))
    at = ""
    if where:
        at = f" at row {where[0]}" + (f", child type {where[1]}" if len(where) > 1 else "")
    raise ValueError(
        f"Poisson {law} rate {np.max(rates):.10g}{at} is past numpy's "
        f"Poisson limit {_POISSON_RATE_MAX:.10g}"
    )


@dataclass(frozen=True)
class PoissonOffspring:
    mean: float

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("poisson mean must be nonnegative")

    def var(self) -> float:
        return self.mean

    def prob_zero(self) -> float:
        return math.exp(-self.mean)

    def sample_sum_batch(self, rng, counts):
        return poisson_draws(rng, np.asarray(counts, dtype=np.int64) * self.mean)

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        return _poisson_atoms(self.mean, tail)


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

    def sample_sum_batch(self, rng, counts):
        return rng.binomial(np.asarray(counts, dtype=np.int64), self.prob)

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        return np.array([0, 1]), np.array([1.0 - self.prob, self.prob])


@dataclass(frozen=True)
class GeometricOffspring:
    """Geometric law on {0, 1, ...} parameterized by its mean."""

    mean: float

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("geometric mean must be nonnegative")

    @property
    def _ratio(self) -> float:
        # P(X = k) = (1 - s) s^k with s = mean / (1 + mean)
        return self.mean / (1.0 + self.mean)

    def var(self) -> float:
        return self.mean * (1.0 + self.mean)

    def prob_zero(self) -> float:
        return 1.0 / (1.0 + self.mean)

    def sample_sum_batch(self, rng, counts):
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros(counts.shape, dtype=np.int64)
        if self.mean == 0.0:
            return out
        pos = counts > 0
        if pos.any():
            out[pos] = rng.negative_binomial(counts[pos], 1.0 - self._ratio)
        return out

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        if self.mean == 0.0:
            return np.array([0]), np.array([1.0])
        s = self._ratio
        # (1 - s) s^k tail beyond K is s^(K+1)
        kmax = max(1, int(math.ceil(math.log(tail) / math.log(s))))
        ks = np.arange(kmax + 1)
        return ks, (1.0 - s) * s ** ks.astype(float)


@dataclass(frozen=True)
class TableOffspring:
    """Finite scalar count law given by atoms and probabilities."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.values)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("table law needs matching nonempty values and probs")
        if (v < 0).any() or not np.array_equal(v, v.astype(int)):
            raise ValueError("table law values must be nonnegative integers")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("table law probabilities must be nonnegative and sum to 1")

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def var(self) -> float:
        v = np.asarray(self.values, dtype=float)
        return float(np.dot(v * v, self.probs) - self.mean**2)

    def prob_zero(self) -> float:
        v = np.asarray(self.values)
        return float(np.asarray(self.probs, dtype=float)[v == 0].sum())

    def sample_sum_batch(self, rng, counts):
        counts = np.asarray(counts, dtype=np.int64)
        draws = rng.multinomial(counts, self.probs)
        return draws @ np.asarray(self.values, dtype=np.int64)

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        return np.asarray(self.values, dtype=np.int64), np.asarray(self.probs, dtype=float)


ScalarOffspring = PoissonOffspring | BernoulliOffspring | GeometricOffspring | TableOffspring


def _poisson_atoms(lam: float, tail: float):
    """Poisson(lam) atoms on a window around the mode m = floor(lam).

    Weights relative to the mode come from the ratios p(k+1)/p(k) =
    lam/(k+1), so nothing underflows at any rate (exp(-lam) is 0.0 from
    lam = 746 on).  Beyond the window the ratios fall geometrically, which
    bounds the dropped mass on each side; the window doubles until that
    bound is below tail.  The probabilities are normalized to the window
    plus the bound, so they sum to at least 1 - tail.
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
        if beyond < tail * total:
            return np.arange(lo, hi + 1), w / (total + beyond)
        width *= 2


# ---------------------------------------------------------------------------
# Joint offspring laws (vector of children of all types from one parent)
# ---------------------------------------------------------------------------

_ENUM_LIMIT = 1 << 20


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

    def sample_sum_batch(self, rng, counts, out):
        """Add the summed children of counts[r] parents into row r of out (R, p)."""
        for j, c in enumerate(self.components):
            out[:, j] += c.sample_sum_batch(rng, counts)

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        per = [c.atoms(tail / max(len(self.components), 1)) for c in self.components]
        total = 1
        for vals, _ in per:
            total *= len(vals)
            if total > _ENUM_LIMIT:
                raise ValueError("joint offspring support too large to enumerate")
        grids = np.meshgrid(*[vals for vals, _ in per], indexing="ij")
        vectors = np.stack([g.reshape(-1) for g in grids], axis=1)
        probs = np.ones(1)
        for _, pr in per:
            probs = np.multiply.outer(probs, pr).reshape(-1)
        return vectors.astype(np.int64), probs


@dataclass(frozen=True)
class FiniteOffspring:
    """Offspring vector drawn from an explicit finite table of vectors."""

    vectors: tuple  # of int tuples, shape (k, p)
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.vectors)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 2 or v.shape[0] != p.shape[0] or v.size == 0:
            raise ValueError("finite offspring law needs one probability per vector")
        if (v < 0).any() or not np.array_equal(v, v.astype(int)):
            raise ValueError("offspring vectors must have nonnegative integer entries")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("offspring probabilities must be nonnegative and sum to 1")

    @property
    def dim(self) -> int:
        return np.asarray(self.vectors).shape[1]

    def mean_vec(self):
        return np.asarray(self.probs, dtype=float) @ np.asarray(self.vectors, dtype=float)

    def cov(self):
        v = np.asarray(self.vectors, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        mu = p @ v
        return (v * p[:, None]).T @ v - np.outer(mu, mu)

    def prob_zero(self) -> float:
        v = np.asarray(self.vectors)
        mask = (v == 0).all(axis=1)
        return float(np.asarray(self.probs, dtype=float)[mask].sum())

    def sample_sum_batch(self, rng, counts, out):
        """Add the summed children of counts[r] parents into row r of out (R, p)."""
        draws = rng.multinomial(np.asarray(counts, dtype=np.int64), self.probs)
        out += draws @ np.asarray(self.vectors, dtype=np.int64)

    def atoms(self, tail: float = DEFAULT_ATOM_TAIL):
        return np.asarray(self.vectors, dtype=np.int64), np.asarray(self.probs, dtype=float)


OffspringLaw = IndependentOffspring | FiniteOffspring


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


def _count(Z, rows) -> int:
    """The number of rows of Z that the mask rows (None: every row) selects."""
    return len(Z) if rows is None else np.count_nonzero(rows)


@dataclass(frozen=True)
class ShiftedPoissonImmigration:
    """1 + Poisson(a(z) - 1) arrivals with state-dependent mean a(z) >= 1."""

    mean_fn: StateFunction

    def _rate(self, z, u):
        a = np.asarray(self.mean_fn(z, u))
        if a.min() < 1.0 - 1e-12:
            raise ValueError(
                f"immigration mean {a.min()} fell below 1; clamp the mean state function"
            )
        return np.maximum(a - 1.0, 0.0)

    def mean(self, z, u=None) -> float:
        return 1.0 + self._rate(z, u)

    def raw_moment(self, k: int, z, u=None) -> float:
        lam = self._rate(z, u)
        return sum(math.comb(k, j) * _poisson_raw(j, lam) for j in range(k + 1))

    @cached_property
    def _constant_rate(self):
        """The Poisson rate of a constant mean, checked once; None if the mean reads the state."""
        return self._rate(None, None) if isinstance(self.mean_fn, Constant) else None

    def sample_batch(self, rng, Z, rows, u=None):
        """One draw per row of the states Z (R, p) selected by the mask rows
        (every row if None), at its mean.

        A constant mean does not read the states, so they are not gathered.
        """
        rate = self._constant_rate
        if rate is None:
            rate = self._rate(Z if rows is None else Z[rows], u)
        return 1 + poisson_draws(rng, rate, _count(Z, rows), law="immigration")

    def atoms(self, z, u=None, tail: float = DEFAULT_ATOM_TAIL):
        vals, probs = _poisson_atoms(self._rate(z, u), tail)
        return vals + 1, probs

    def mean_limit(self) -> Optional[float]:
        return self.mean_fn.limit()


@dataclass(frozen=True)
class DeterministicImmigration:
    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("immigration size must be an integer >= 1")

    def mean(self, z=None, u=None) -> float:
        return float(self.value)

    def raw_moment(self, k: int, z=None, u=None) -> float:
        return float(self.value) ** k

    def sample_batch(self, rng, Z, rows, u=None):
        return np.full(_count(Z, rows), int(self.value), dtype=np.int64)

    def atoms(self, z=None, u=None, tail: float = DEFAULT_ATOM_TAIL):
        return np.array([int(self.value)]), np.array([1.0])

    def mean_limit(self) -> Optional[float]:
        return float(self.value)


@dataclass(frozen=True)
class TableImmigration:
    values: tuple
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.values)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("immigration table needs matching values and probs")
        if (v < 1).any() or not np.array_equal(v, v.astype(int)):
            raise ValueError("immigration sizes must be integers >= 1")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("immigration probabilities must sum to 1")

    def mean(self, z=None, u=None) -> float:
        return float(np.dot(self.values, self.probs))

    def raw_moment(self, k: int, z=None, u=None) -> float:
        return float(np.dot(np.asarray(self.values, dtype=float) ** k, self.probs))

    def sample_batch(self, rng, Z, rows, u=None):
        idx = rng.choice(len(self.values), p=self.probs, size=_count(Z, rows))
        return np.asarray(self.values, dtype=np.int64)[idx]

    def atoms(self, z=None, u=None, tail: float = DEFAULT_ATOM_TAIL):
        return np.asarray(self.values, dtype=np.int64), np.asarray(self.probs, dtype=float)

    def mean_limit(self) -> Optional[float]:
        return self.mean()


ImmigrationLaw = ShiftedPoissonImmigration | DeterministicImmigration | TableImmigration


# ---------------------------------------------------------------------------
# Emigration laws (removals from one type's current count zi >= 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformEmigration:
    """D uniform on {1, ..., zi}: mean removals grow linearly with the count."""

    def raw_moment(self, k: int, zi: int) -> float:
        if zi <= 0:
            return 0.0
        return _faulhaber(k, zi) / zi

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,); 0 where a count is 0."""
        zi = np.asarray(zi, dtype=np.int64)
        return rng.integers(1, np.maximum(zi, 1), endpoint=True) * (zi > 0)

    def atoms(self, zi: int):
        if zi <= 0:
            return np.array([0]), np.array([1.0])
        return np.arange(1, zi + 1), np.full(zi, 1.0 / zi)

    def mean_limit(self) -> Optional[float]:
        return None  # diverges with the count

    def growth_exponent(self) -> float:
        return 1.0


@dataclass(frozen=True)
class TruncatedGeometricEmigration:
    """D proportional to ratio**(j-1) on {1, ..., zi}."""

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
        if zi <= 0:
            return 0.0
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
        """One draw per entry of the counts zi (k,); 0 where a count is 0."""
        zi = np.asarray(zi, dtype=np.int64)
        return self._invert(rng.random(zi.shape), np.maximum(zi, 1)) * (zi > 0)

    def _invert(self, unif, zi):
        # CDF(j) = (1 - s^j) / (1 - s^zi): solve for the smallest j with CDF >= U
        log_s = math.log(self.ratio)
        target = unif * -np.expm1(zi * log_s)
        j = np.ceil(np.log1p(-target) / log_s)
        return np.minimum(np.maximum(j, 1), zi).astype(np.int64)

    def atoms(self, zi: int):
        if zi <= 0:
            return np.array([0]), np.array([1.0])
        # For huge counts, drop the analytically negligible geometric tail
        # (every term below 1e-18 of the total) instead of materializing it.
        cut = 1 + int(math.ceil(math.log(1e-18) / math.log(self.ratio)))
        m = min(zi, max(cut, 1))
        j = np.arange(1, m + 1)
        w = self.ratio ** (j - 1.0)
        return j, w / self._mass(zi)

    def mean_limit(self) -> Optional[float]:
        return 1.0 / (1.0 - self.ratio)

    def growth_exponent(self) -> float:
        return 0.0


@dataclass(frozen=True)
class InverseCubeEmigration:
    """D proportional to 1/j^3 on {1, ..., zi}: bounded mean, heavy tail."""

    def raw_moment(self, k: int, zi: int) -> float:
        if zi <= 0:
            return 0.0
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
        """One draw per entry of the counts zi (k,); 0 where a count is 0.

        Zipf(3) draws, redrawn where they exceed their row's count: each
        draw is kept with probability >= 1/zeta(3) ~ 0.83 (rejection from
        the untruncated law, Devroye 1986), so the draws are exact at
        every count.
        """
        zi = np.asarray(zi, dtype=np.int64)
        out = np.zeros(zi.shape, dtype=np.int64)
        rows = np.flatnonzero(zi > 0)
        while rows.size:
            draws = rng.zipf(3.0, size=rows.size)
            kept = draws <= zi[rows]
            out[rows[kept]] = draws[kept]
            rows = rows[~kept]
        return out

    def atoms(self, zi: int):
        if zi <= 0:
            return np.array([0]), np.array([1.0])
        j = np.arange(1, zi + 1)
        return j, j.astype(float) ** -3.0 / _h_sum(3, zi)

    def mean_limit(self) -> Optional[float]:
        return _ZETA2 / _ZETA3

    def growth_exponent(self) -> float:
        return 0.0


@dataclass(frozen=True)
class DeterministicEmigration:
    """Remove a fixed number, capped at the available count."""

    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("emigration size must be an integer >= 1")

    def raw_moment(self, k: int, zi: int) -> float:
        if zi <= 0:
            return 0.0
        return float(min(self.value, zi)) ** k

    def sample_batch(self, rng, zi):
        """One draw per entry of the counts zi (k,); 0 where a count is 0."""
        return np.clip(np.asarray(zi, dtype=np.int64), 0, int(self.value))

    def atoms(self, zi: int):
        if zi <= 0:
            return np.array([0]), np.array([1.0])
        return np.array([min(int(self.value), zi)]), np.array([1.0])

    def mean_limit(self) -> Optional[float]:
        return float(self.value)

    def growth_exponent(self) -> float:
        return 0.0


EmigrationLaw = (
    UniformEmigration
    | TruncatedGeometricEmigration
    | InverseCubeEmigration
    | DeterministicEmigration
)
