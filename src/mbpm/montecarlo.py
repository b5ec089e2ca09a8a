"""Reproducible ensembles and the statistics used by the experiment suites.

An ensemble advances its replicates in lockstep and keeps their states
only at the steps its caller names.  It runs in fixed blocks of
BLOCK = 2048 rows: block b holds replicates [b BLOCK, (b+1) BLOCK) and
draws from its own stream, stream_for(master_seed, b) (an SFC64 generator
seeded by numpy's SeedSequence hash of master_seed and b; see there).
A block is one run of the model's trajectory loop: in one process it
writes into the ensemble's own array, in a worker pool it is one job
whose states are copied in.  So results are bit-identical for any worker
count, and an ensemble of at most BLOCK replicates runs in one process.
The size was chosen by measurement on a shared 2-vCPU host: a step's
cost is mostly fixed per numpy call, so wider blocks cost less per row-step
(1.5-2.8x less at 2048 rows than at 256, for R = 4096 and n = 800), and
with two workers the three acceptance ensembles took 1.7 s at 2048 rows
against 2.6 s at 256, 1.9 s at 1024 and 2.1 s at 4096.
On top of the ensembles sit the estimators the suites share: explosion
probabilities with binomial confidence intervals, the Kolmogorov-Smirnov
sup-distance to a reference law (gof_report), reference gamma and normal
CDFs accurate to 1e-13 (gamma: to shape 1e6), and a one-step moment checker that compares
empirical means and covariances against the exact formulas.  The checker draws in
chunks too, of whole batches and about ROWS = 2**16 rows: chunk c from
stream_for(seed, c).  It keeps only each batch's sums and Gram matrix,
exact integers, and totals them in Python ints, so its memory does not
grow with the sample count up to MOMENT_BATCHES * ROWS samples, and its
report does not depend on the host's BLAS.  ROWS was chosen by
measurement on the same host: from 2**12 to 2**18 rows the benchmark's
two moments ops took the same CPU time within noise, while the peak
memory grows with the chunk (traced: 1.5 MB at 2**15, 3.0 MB at 2**16,
12.6 MB at 2**18 for 10**6 samples of two_type_mixed; a chunk's samples
are dropped before the next chunk draws).

A reference CDF must be point-wise: its value at a point may not depend
on the other points of the array it is called on.  The KS statistics
call it once, on the distinct values of the sorted sample (its runs of
equal bit patterns), and spread the result over the ties.  The limit
suites' samples are normalised integer populations, so they sit on a
lattice: on a single-type document, 10**4 replicates at n = 8 take fewer
than a hundred distinct values.  The normal and gamma CDFs and the gamma
quantile map a plain-float function over their points (_pointwise),
through libm (the math module), never through numpy's float64 exp and log:
those take SIMD kernels picked by CPU, which round differently (on an
AVX-512 host numpy's exp differs from math.exp on 4.6% of random
arguments).  A gamma shape or scale must be positive and finite.

KS thresholds are deliberately experiment-level constants rather than
p-values: the sampled laws are only asymptotically the reference laws, so
a classical test would reject at large R no matter what.  A threshold
encodes "as close as the asymptotics promise at this horizon".
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .model import ModelSpec, _trajectories, spec_digest
from .moments import cond_mean, cond_var

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_EPS_GUARD = 1e-12

# Replicates per stream.  Fixed, so the draws never depend on the worker count.
BLOCK = 2048

# moment_check: batches of the batch-means covariance bands, and the rows a
# chunk of whole batches aims at (one stream and one reduction per chunk).
MOMENT_BATCHES = 100
ROWS = 2**16


def stream_for(master_seed: int, block: int):
    """The generator for one replicate block: SFC64 seeded from (master_seed, block).

    The state is hashed by SeedSequence(master_seed, spawn_key=(block,)),
    which pads the seed's 32-bit words to the pool's four before it
    appends the block's, so distinct pairs hash distinct words.  The list
    form SeedSequence([master_seed, block]) would not: it joins the two
    integers' words as they are, so (7, 1) and (2**32 + 7, 0), or
    (2**32, 1) and (0, 2**32 + 1), give the same state.  Streams of
    distinct pairs are not provably disjoint, as those of a keyed
    counter-based generator are, but SFC64's period is at least 2**64
    draws from any start.  It replaced Philox4x64-10 because it is
    cheaper per draw: on a shared 2-vCPU host a uniform took 1.5 ns
    against 4.0, a Poisson(40) 33 ns against 39 and a Poisson(1) 22 ns
    against 28.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be an integer in [0, 2**64)")
    if not 0 <= block < 2**64:
        raise ValueError("block must be an integer in [0, 2**64)")
    seeds = np.random.SeedSequence(master_seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(seeds))


@dataclass
class Ensemble:
    """Replicated trajectories of one model, kept at some steps, regenerable from the seed."""

    spec_digest: str
    n: int
    replicates: int
    master_seed: int
    steps: tuple  # strictly increasing steps in [0, n], ending at n
    states: np.ndarray  # (R, len(steps), p) int64, states[:, j] at step steps[j]

    @property
    def terminal(self) -> np.ndarray:
        """The (R, p) states at step n."""
        return self.states[:, -1]

    @cached_property
    def norms(self) -> np.ndarray:
        """The (R,) l1 norms of the terminal states, formed once."""
        return np.abs(self.terminal).sum(axis=1)

    def summary(self) -> dict:
        norms = self.norms
        return {
            "spec_digest": self.spec_digest,
            "n": self.n,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "terminal_mean": self.terminal.mean(axis=0).tolist(),
            "terminal_l1_median": float(np.median(norms)),
            "terminal_l1_max": int(norms.max()),
            "fraction_null": float((norms == 0).mean()),
        }


def _worker_count(workers: Optional[int]) -> int:
    """workers, or else the MBPM_WORKERS environment variable (1 when unset), refused below 1."""
    workers = int(os.environ.get("MBPM_WORKERS", "1")) if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers and MBPM_WORKERS must be >= 1, got {workers}")
    return workers


def _block(spec: ModelSpec, n: int, steps: tuple, master_seed: int, R: int, start: int):
    """A pool job: the kept states of the block from replicate start, in a new array."""
    out = np.empty((min(BLOCK, R - start), len(steps), spec.dim), dtype=np.int64)
    return _trajectories(spec, n, steps, stream_for(master_seed, start // BLOCK), out, start)


def run_ensemble(
    spec: ModelSpec,
    n: int,
    R: int,
    master_seed: int,
    steps: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> Ensemble:
    """R independent trajectories of length n, block by block.

    The ensemble keeps the states at steps, strictly increasing integers
    in [0, n] that end at n; left out, it keeps only (n,), the terminal
    states.  Other steps are refused before any draw.  workers defaults
    to the MBPM_WORKERS environment variable (_worker_count); no more
    workers start than there are blocks.  Any worker count yields the
    same ensemble bit for bit.
    """
    if R < 1:
        raise ValueError("need at least one replicate")
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    given = (n,) if steps is None else tuple(steps)
    steps = tuple(int(k) for k in given)  # Python ints: compared at every step
    if (not steps or steps != given or steps[0] < 0 or steps[-1] != n
            or any(a >= b for a, b in zip(steps, steps[1:]))):
        raise ValueError(f"steps must be strictly increasing integers in [0, {n}] ending at {n}")
    starts = range(0, R, BLOCK)
    workers = min(_worker_count(workers), len(starts))
    states = np.empty((R, len(steps), spec.dim), dtype=np.int64)
    if workers == 1:
        for start in starts:
            _trajectories(spec, n, steps, stream_for(master_seed, start // BLOCK),
                          states[start : start + BLOCK], start)
    else:
        # imported here: the pool's modules weigh on every import of mbpm
        from concurrent.futures import ProcessPoolExecutor

        job = partial(_block, spec, n, steps, master_seed, R)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(job, starts, chunksize=-(-len(starts) // workers))
            for start, block in zip(starts, done):
                states[start : start + BLOCK] = block

    return Ensemble(
        spec_digest=spec_digest(spec),
        n=n,
        replicates=R,
        master_seed=master_seed,
        steps=steps,
        states=states,
    )


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A binomial fraction with its 95% Wilson confidence interval."""

    value: float
    ci95: tuple  # (low, high)
    successes: int
    trials: int
    threshold: float


def wilson_interval(successes: int, trials: int):
    """95% score interval for a binomial proportion (no continuity correction)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials = {trials}], got {successes}")
    phat, z2 = successes / trials, _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def estimate_explosion(ensemble: Ensemble, K: float) -> ProbabilityEstimate:
    """Fraction of replicates whose terminal l1 norm exceeds K."""
    if not K >= 0:  # refuses nan too
        raise ValueError(f"threshold K must be >= 0, got {K!r}")
    hits = int((ensemble.norms > K).sum())
    return ProbabilityEstimate(
        value=hits / ensemble.replicates,
        ci95=wilson_interval(hits, ensemble.replicates),
        successes=hits,
        trials=ensemble.replicates,
        threshold=float(K),
    )


def _run_starts(x):
    """Indices at which a run of equal adjacent values of the float64 array x starts.

    Values compare by bit pattern, so -0.0 and 0.0 fall in different runs
    and NaNs of one pattern in the same one; no tolerance is involved.  A
    point-wise function takes one value on each run.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    return np.flatnonzero(new)


def _sorted_with_cdf(sample, cdf: Callable):
    """The sorted sample and the reference CDF at it, from one call of cdf.

    cdf must be point-wise.  It is called once, on the distinct values of
    the sorted sample in increasing order (the heads of its runs of equal
    bit patterns), and its values are repeated over each run.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise ValueError("empty sample")
    starts = _run_starts(xs)
    heads = xs[starts]
    F = np.asarray(cdf(heads), dtype=float)
    if F.shape != heads.shape:
        raise ValueError("the reference CDF must map an array to an array of its shape")
    return xs, np.repeat(F, np.diff(starts, append=xs.size))


def _ks_sorted(F) -> float:
    """max(i/n - F_i, F_i - (i-1)/n) over the CDF at the order statistics."""
    n = F.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def ks_statistic(sample, cdf: Callable) -> float:
    """Sup-distance between the sample's empirical CDF and a reference CDF.

    Both one-sided gaps are evaluated at the order statistics:
    max(i/n - F(x_i), F(x_i) - (i-1)/n).  cdf must be point-wise; it is
    called once, on the distinct values of the sorted sample as an array.
    """
    return _ks_sorted(_sorted_with_cdf(sample, cdf)[1])


def _pointwise(f: Callable[[float], float], x):
    """f, a function of one plain float, at each point of x: a float for a
    scalar x, otherwise an array of x's shape."""
    x = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal distribution function via the complementary error function."""
    return _pointwise(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), x)


def _gamma_series(a: float, x: float) -> float:
    """sum_n x^n / (a (a+1) ... (a+n)) at x < a + 1 (Numerical Recipes 6.2), to its
    last term below 1e-16 of the sum, or 10 000 terms."""
    term = total = 1.0 / a
    for n in range(1, 10_002):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total


def _gamma_fraction(a: float, x: float) -> float:
    """Continued fraction of Q(a, x) e^x x^-a Gamma(a) at x >= a + 1: modified
    Lentz (Numerical Recipes 6.2), to |delta - 1| < 1e-16, or 9 999 terms."""
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / (tiny if abs(d) < tiny else d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _gamma_prefactor(t: float, a: float) -> float:
    """e^-t t^a / Gamma(a) = dP(a, t) / d log t at a finite t > 0.  From shape 10 on,
    at t >= a / 2, Stirling's form, measured the more accurate: no a-sized terms
    cancel in it."""
    if a < 10.0 or t < 0.5 * a:
        return math.exp(-t + a * math.log(t) - math.lgamma(a))
    eta = (t - a) / a
    r = 1.0 / (a * a)  # s: Stirling's series of lgamma(a) through a^-11
    s = 1/12 - r * (1/360 - r * (1/1260 - r * (1/1680 - r * (1/1188 - r * 691/360360))))
    return math.exp(0.5 * math.log(a / (2.0 * math.pi)) - s / a + a * (math.log1p(eta) - eta))


def _gamma_pair(t: float, a: float):
    """The regularized incomplete gammas (P(a, t), Q(a, t) = 1 - P) at one t >= 0
    (nan stays nan).  Below a + 1 the series gives P, above it the continued
    fraction Q, the other tail is one minus it, and both are within 1e-13
    absolute up to shape 1e6 (1.2e-14 at most against mpmath at 50 digits)."""
    if not 0.0 < t < math.inf:
        p = t if math.isnan(t) else float(t == math.inf)
        return p, 1.0 - p
    f = _gamma_prefactor(t, a)
    if t < a + 1.0:
        p = min(1.0, _gamma_series(a, t) * f)
        return p, 1.0 - p
    q = f * _gamma_fraction(a, t)
    return min(1.0, max(0.0, 1.0 - q)), min(1.0, max(0.0, q))


def _gamma_params(shape, scale):
    """shape and scale as floats, refused unless both are positive and finite."""
    shape, scale = float(shape), float(scale)
    if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
        raise ValueError(f"shape and scale must be positive and finite, got {shape}, {scale}")
    return shape, scale


def gamma_cdf(x, shape: float, scale: float):
    """Gamma distribution function: regularized lower incomplete gamma of
    x/scale (_gamma_pair's P), point by point."""
    shape, scale = _gamma_params(shape, scale)
    return _pointwise(lambda v: _gamma_pair(max(v, 0.0) / scale, shape)[0], x)


def _gamma_root(p: float, a: float) -> float:
    """The t with P(a, t) = p, by gamma_quantile's steps."""
    t, lo, hi = a, 0.0, math.inf
    for _ in range(200):
        cdf, tail = _gamma_pair(t, a)
        gap = tail - (1.0 - p) if p > 0.5 else p - cdf  # positive below the root
        lo, hi = (t, hi) if gap > 0.0 else (lo, t)
        slope = _gamma_prefactor(t, a)  # dP / ds
        if cdf < 1e-3 * p or slope == 0.0:
            ds = math.nan  # bisect
        elif cdf <= 1e3 * p:
            ds = gap / slope
        else:  # log P is concave in s: the step lands at or below the root
            ds = math.log(p / cdf) * cdf / slope
            if t * math.exp(ds) == 0.0:  # slope a bounds d log P / ds from above
                ds = math.log(p / cdf) / a
        step = t * math.exp(min(ds, 1.0))
        # a Newton step below 1e-12 of t leaves an error at the CDF's own noise;
        # a bracket that narrow is the tail's rounding (below shape 1e-3, p near 1)
        if abs(step - t) <= 1e-12 * t or step == 0.0:
            return step
        if hi - lo <= 1e-12 * lo:
            return t
        if not lo < step <= hi:  # nan falls back too
            step = 2.0 * t if hi == math.inf else 0.5 * (lo + hi)
        t = step
    raise ArithmeticError(f"the gamma quantile at {p} did not converge")


def gamma_quantile(q, shape: float, scale: float):
    """Inverse of gamma_cdf at each probability in q, all in (0, 1), each on its own.

    Newton steps in s = log t from the mean, t = shape in units of scale, each
    multiplying t by at most e: on P(shape, e^s) = q, or on the upper tail Q = 1 - q
    where q > 1/2 (exact there, and Q from the continued fraction keeps its
    relative precision up to q = 1 - 2^-52).  Where P > 1e3 q the step is on
    log P, with slope (dP / ds) / P, and where that step reads 0 with slope
    shape, which never passes the root: a root below the float range reads 0.
    Every evaluation narrows a bracket of the root; a step that leaves it, or
    one from P < 1e-3 q, is replaced by its midpoint (doubling t while it has
    no upper end).  Plain bisection would need about 60 evaluations; Newton a few.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("probabilities must lie in (0, 1)")
    shape, scale = _gamma_params(shape, scale)
    return _pointwise(lambda p: scale * _gamma_root(p, shape), q)


@dataclass(frozen=True)
class GoFReport:
    """One goodness-of-fit comparison against a reference law.

    sorted_sample and reference_values (the reference CDF at the sorted
    sample) are kept for plot files; they are left out of the repr, and
    so of report.json.
    """

    statistic: str
    value: float
    sample_size: int
    reference: str
    params: dict
    threshold: float
    passed: bool
    sorted_sample: np.ndarray = field(default=None, repr=False, compare=False)
    reference_values: np.ndarray = field(default=None, repr=False, compare=False)


def gof_report(sample, cdf: Callable, reference: str, params: dict, threshold: float) -> GoFReport:
    """KS comparison of the sample with the reference law.

    cdf must be point-wise; it is called once, on the distinct values of
    the sorted sample, and reference_values repeats them over the ties.
    An empty sample has no KS distance: its value is nan, and it fails.
    """
    if len(sample):
        xs, F = _sorted_with_cdf(sample, cdf)
        d = _ks_sorted(F)
    else:
        xs = F = np.empty(0)
        d = math.nan
    return GoFReport(
        statistic="ks",
        value=d,
        sample_size=len(sample),
        reference=reference,
        params=dict(params),
        threshold=threshold,
        passed=bool(d <= threshold),
        sorted_sample=xs,
        reference_values=F,
    )


@dataclass(frozen=True)
class MomentCheckReport:
    """One-step empirical moments against the exact formulas, with 4 SE bands."""

    z: np.ndarray
    n_samples: int
    mean_exact: np.ndarray
    mean_empirical: np.ndarray
    mean_se: np.ndarray
    cov_exact: np.ndarray
    cov_empirical: np.ndarray
    cov_se: np.ndarray
    max_mean_sigmas: float
    max_cov_sigmas: float
    passed: bool


# float64 integers to Python ints, exactly, as an object array
_to_ints = np.frompyfunc(int, 1, 1)


def _cov_from_sums(n: int, s, q) -> np.ndarray:
    """Sample covariance of n rows from their Python-int sums s (..., p) and
    Gram matrices q (..., p, p): (n q - s s^T) / (n (n - 1)), each entry one
    correctly rounded division of two integers."""
    outer = s[..., :, None] * s[..., None, :]
    return ((n * q - outer) / (n * (n - 1))).astype(np.float64)


def moment_check(spec: ModelSpec, z, N: int = 1_000_000, seed: int = 0) -> MomentCheckReport:
    """Compare N one-step samples against the exact mean and covariance.

    Mean bands use the exact covariance (known, not estimated).  Covariance
    entry bands come from batch means: the first MOMENT_BATCHES * (N //
    MOMENT_BATCHES) samples are cut into MOMENT_BATCHES equal batches, whose
    sample covariances give the spread of the full-sample estimate.  Pass iff
    every entry is within 4 SE (plus a tiny absolute guard so exact-zero-
    variance models compare equal).

    The samples are drawn in chunks of whole batches, about ROWS rows each:
    chunk c from stream_for(seed, c), and the N % MOMENT_BATCHES leftover
    rows, which enter only the full-sample statistics, from the stream after
    the last chunk.  Each row x is first shifted by c, the exact
    conditional mean rounded to one int64 per type.  One reduction per chunk
    gives each batch's sums S and Gram matrix Q = x^T x of its shifted
    counts as float64, so no (N, p) array is built.  Both are sums of
    integers, hence exact whatever the BLAS kernel or the order of
    addition, while every entry stays below 2**53; after the shift that
    bounds the spread of the counts about their mean, not the counts.  The
    mean (sum S + N c) / N and the covariance (N sum Q - sum S sum S^T) /
    (N (N - 1)), which the shift leaves unchanged, of the full sample and
    of each batch are then formed from Python-int totals and rounded once,
    so the report does not depend on the host's BLAS.
    """
    from .model import sample_step_batch

    if N < 10_000:
        raise ValueError("moment_check needs at least 1e4 samples")
    z = np.asarray(z, dtype=np.int64)
    p = spec.dim
    size = N // MOMENT_BATCHES
    per_chunk = max(1, ROWS // size)
    # (groups, rows per group) of each chunk, then of the leftover rows.
    parts = [(min(per_chunk, MOMENT_BATCHES - first), size)
             for first in range(0, MOMENT_BATCHES, per_chunk)]
    if N % MOMENT_BATCHES:
        parts.append((1, N % MOMENT_BATCHES))
    mean_exact = cond_mean(spec, z)
    cov_exact = cond_var(spec, z)
    shift = np.rint(mean_exact).astype(np.int64)
    sums, grams = [], []
    for c, (g, rows) in enumerate(parts):
        x = sample_step_batch(spec, z, g * rows, stream_for(seed, c)).reshape(g, rows, p)
        x -= shift
        sums.append(np.einsum("grp->gp", x, dtype=np.float64))
        x = x.astype(np.float64)
        grams.append(np.matmul(x.transpose(0, 2, 1), x))
        del x  # not alive while the next chunk draws
    S, Q = (_to_ints(np.concatenate(a)) for a in (sums, grams))

    total_s, total_q = S.sum(axis=0), Q.sum(axis=0)
    mean_emp = ((total_s + N * _to_ints(shift)) / N).astype(np.float64)
    cov_emp = _cov_from_sums(N, total_s, total_q)
    per_batch = _cov_from_sums(size, S[:MOMENT_BATCHES], Q[:MOMENT_BATCHES])
    cov_se = per_batch.std(axis=0, ddof=1) / math.sqrt(MOMENT_BATCHES)

    mean_se = np.sqrt(np.clip(np.diag(cov_exact), 0.0, None) / N)
    mean_gap = np.abs(mean_emp - mean_exact)
    cov_gap = np.abs(cov_emp - cov_exact)
    mean_sigmas = float(np.max(mean_gap / (mean_se + _EPS_GUARD)))
    cov_sigmas = float(np.max(cov_gap / (cov_se + _EPS_GUARD)))
    passed = bool(
        (mean_gap <= 4.0 * mean_se + _EPS_GUARD).all()
        and (cov_gap <= 4.0 * cov_se + _EPS_GUARD).all()
    )
    return MomentCheckReport(
        z=z,
        n_samples=N,
        mean_exact=mean_exact,
        mean_empirical=mean_emp,
        mean_se=mean_se,
        cov_exact=cov_exact,
        cov_empirical=cov_emp,
        cov_se=cov_se,
        max_mean_sigmas=mean_sigmas,
        max_cov_sigmas=cov_sigmas,
        passed=passed,
    )
