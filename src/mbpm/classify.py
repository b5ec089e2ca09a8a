"""Growth regime classification for critical models.

The classifier asks whether the population can grow without bound.  With
u the left Perron weights, everything hinges on the ratio

    2 (u . z) (u . h(z)) / sigma2(z)

along rays to infinity: staying below 1 forbids unbounded growth and
exceeding 1 permits it, under side conditions bounding higher moments of
one transition.  The ratio is read at probe states on the ray (``_Ray``:
h and sigma2 once per probe), with a 10% safety margin around the
critical ratio 1 inside which the verdict is "inconclusive".

The side conditions are little-o comparisons of growth rates.  Every law
states its large-size form (see laws), so they compare exact growth
exponents along the ray (moments.leading_moments and
moments.abs_exponent); nothing is fitted.  The order checks form one
table, {shifted, centered} x {sigma, drift_log, drift}.  classify_growth
reads its verdict and the growth exponents, which it carries on the
verdict, from one ray.

Standing assumptions referenced throughout: (A) the offspring mean matrix
is primitive with Perron root 1; (B) mean migration is o(||z||); (C) the
migration parameters a, b, q, r converge at large sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import is_critical, weigh
from .laws import exponent_of, limit_of
from .model import ModelSpec
from .moments import (
    abs_exponent,
    leading_moments,
    migration_leads,
    migration_mean,
    migration_terms,
    sigma2,
)

_RATIO_MARGIN = 0.10  # safety band around the critical ratio 1
_SLOPE_SLACK = 0.05  # an exponent must undershoot its target's by this
DELTA = 1.0  # the moment orders are 1 + delta/2 and 2 + delta
ALPHA_TILDE = 2.0  # moment order of the delta2 surrogate
VERDICTS = ("no-growth", "growth-possible", "inconclusive")
_INT64_BOUND = 2.0**63  # the least float past int64


@dataclass(frozen=True)
class CriteriaConfig:
    """The probe ray: magnitudes of u . z at which the criteria probe the
    model, along the right Perron vector v.

    u sums to 1 and u . v = 1, so some entry of v is at least 1: a
    magnitude of 2^63 or more has a probe state past int64 in every model.
    """

    ray_points: tuple = (1e3, 1e4, 1e5)

    def __post_init__(self):
        pts = tuple(float(x) for x in self.ray_points)
        if not all(x < _INT64_BOUND for x in pts):  # refuses nan too
            raise ValueError("need finite magnitudes below 2^63")
        if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])) or pts[0] < 10:
            raise ValueError("need two or more increasing magnitudes >= 10")


@dataclass
class GrowthVerdict:
    verdict: str  # one of VERDICTS
    condition: Optional[str]
    ratio_values: np.ndarray
    probe_sizes: np.ndarray
    hypothesis_A: bool
    hypothesis_B: bool
    support_ok: Optional[bool]
    order_checks: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    # _fitted_exponents' dict, None without Perron data; outside the repr, so
    # the report's classification block does not show it
    exponents: Optional[dict] = field(default=None, repr=False)


def _hypothesis_B(ray, exps: dict) -> tuple:
    """(holds, evidence) of hypothesis (B): is the mean migration h(z) =
    o(||z||)?

    Decided structurally on the closed state-function set: each of the
    immigration term a_i q_i and emigration term b_i r_i gets the growth
    exponent of its leading form (_exponents; uniform emigration removes a
    linear fraction of the count, hence exponent 1), 0 for a bounded term,
    and the hypothesis holds when every exponent is strictly below 1.  A
    term that never fires has exponent -inf.  Probe ratios max_i |h_i(z)|
    / ||z|| on the ray are recorded as numeric evidence only.
    """
    exponents = [[e if math.isinf(e) else max(e, 0.0) for e in pair] for pair in exps["terms"]]
    ratios = [float(np.max(np.abs(h))) / float(np.sum(z)) for z, h in zip(ray.probes, ray.h)]
    worst = max(max(pair) for pair in exponents)
    evidence = {
        "term_exponents": [
            [None if math.isinf(a) and a < 0 else a for a in pair] for pair in exponents
        ],
        "probe_ratios": ratios,
        "worst_exponent": _finite(worst),
    }
    return worst < 1.0, evidence


def check_hypothesis_C(spec: ModelSpec) -> Optional[dict]:
    """Large-size limits of the migration parameters, or None if any diverges.

    Returns {"p": ..., "q": ..., "r": ..., "a": ..., "b": ...} as float
    arrays when every state function and law mean converges.  A missing
    law's probability and mean count as 0.
    """
    limits = {key: [] for key in "pqrab"}
    for comp in spec.migration.components:
        leads = migration_leads(comp)
        for key in limits:
            limits[key].append(limit_of(leads[key]))
    if not all(math.isfinite(v) for values in limits.values() for v in values):
        return None
    return {key: np.array(values) for key, values in limits.items()}


def growth_ratio(spec: ModelSpec, z) -> float:
    """The drift-to-fluctuation ratio 2 (u.z)(u.h(z)) / sigma2(z), u the
    left Perron weights."""
    u = spec.spectral().u
    z = np.asarray(z, dtype=np.int64)
    s2 = sigma2(spec, z)
    if s2 <= 0.0:
        raise ValueError("one-step variance vanishes at this state (deterministic model)")
    return 2.0 * float(weigh(z, u)) * float(weigh(migration_mean(spec, z), u)) / s2


def check_growth_support(spec: ModelSpec, z) -> bool:
    """Can every occupied type both receive immigrants and reproduce at z?"""
    z = np.asarray(z, dtype=np.int64)
    if not z.any():
        raise ValueError("support condition is defined for non-null states")
    s = spec.size(z)
    for i in np.flatnonzero(z > 0):
        comp = spec.migration.components[i]
        _, pi, _ = comp.branch_probs(s, int(z[i]))
        if pi <= 0.0:
            return False
        if spec.offspring.laws[i].prob_zero() >= 1.0:
            return False
    return True


@dataclass(frozen=True)
class _Ray:
    """The ratio's ingredients along the probe ray, evaluated once."""

    probes: list
    sizes: np.ndarray  # u.z per probe
    h: list  # h(z) per probe
    uh: np.ndarray
    s2: np.ndarray  # sigma2(z) per probe


def _probe_ray(spec: ModelSpec, config: CriteriaConfig) -> _Ray:
    """Evaluate the probe ray: one integer state per configured magnitude
    along the right Perron vector, and one migration mean and one sigma2
    per probe."""
    spectral = spec.spectral()
    u = spectral.u
    probes = []
    for mag in config.ray_points:
        z = np.rint(mag * spectral.v)
        if not z.max() < _INT64_BOUND:
            raise ValueError(f"the probe state at magnitude {mag:g} does not fit int64")
        z = z.astype(np.int64)
        probes.append(z if z.any() else np.ones(spec.dim, dtype=np.int64))
    h_list = [migration_mean(spec, z) for z in probes]
    return _Ray(
        probes=probes,
        sizes=weigh(np.array(probes), u),
        h=h_list,
        uh=weigh(np.array(h_list), u),
        s2=np.array([sigma2(spec, z) for z in probes]),
    )


def _finite(x):
    """x, or None where it is infinite (a quantity that is eventually 0)."""
    return None if math.isinf(x) else x


def _exponents(spec: ModelSpec) -> dict:
    """The exact growth exponents along the ray that the order checks and
    _fitted_exponents compare: moments.leading_moments, and per type the
    shifted moment E|z_i + M_i|^(1 + delta/2), the centered moment
    E|M_i - h_i|^(2 + delta) and the terms q_i E[I_i] and r_i E[D_i] of
    h_i (-inf where 0); and the surrogate, the larger of z_i + h_i (a
    count: linear) and E|M_i - h_i|^alpha_tilde over all types."""
    comps = spec.migration.components
    out = leading_moments(spec)
    out["shifted"] = [abs_exponent(c, 1.0 + DELTA / 2.0, shifted=True) for c in comps]
    out["centered"] = [abs_exponent(c, 2.0 + DELTA) for c in comps]
    out["surrogate"] = max(1.0, *(abs_exponent(c, ALPHA_TILDE) for c in comps))
    out["terms"] = [[exponent_of(t) for t in migration_terms(migration_leads(c))] for c in comps]
    return out


def _order_checks(ray: _Ray, exps: dict) -> dict:
    """The little-o checks {shifted, centered} x {sigma, drift_log, drift},
    keyed "<lhs>_vs_<rhs>": each holds when every type's exponent
    undershoots the target's by the slack.  The targets are s^(1 + delta)
    sigma2, s^(1 + delta) u.h / log(s)^2 and s^(2 + delta) u.h; a log
    factor moves no exponent.  The drift targets exist only where u.h > 0
    along the whole ray and its leading terms do not cancel."""
    targets = {"sigma": 1.0 + DELTA + exps["beta"]}
    if (ray.uh > 0.0).all() and not exps["cancels"]:
        targets["drift_log"] = 1.0 + DELTA + exps["alpha"]
        targets["drift"] = 2.0 + DELTA + exps["alpha"]
    checks = {}
    for rhs, rhs_exponent in targets.items():
        for lhs in ("shifted", "centered"):
            name = f"{lhs}_vs_{rhs}"
            checks[name] = {
                "name": name,
                "ok": all(e <= rhs_exponent - _SLOPE_SLACK for e in exps[lhs]),
                "applicable": True,
                "lhs_slopes": [_finite(e) for e in exps[lhs]],
                "rhs_slope": rhs_exponent,
            }
    return checks


def classify_growth(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()) -> GrowthVerdict:
    """Decide no-growth / growth-possible / inconclusive from probe states.

    No-growth fires when (a) every mean adjustment component is
    nonpositive at all probes (emigration dominates), or (b) the ratio
    stays below 1 - margin and the transition moments are dominated in the
    little-o sense.  Growth-possible needs the support condition, ratio
    above 1 + margin, and the log-damped moment dominations.  Anything
    else, including ratios inside the margin, is inconclusive; a mean
    matrix without hypothesis (A) gives inconclusive / not-critical.

    The sublinear-drift hypothesis (B) is reported, not enforced: the
    emigration-dominates condition is meaningful and corroborated by
    simulation even for linearly shrinking drifts.

    The verdict carries the growth exponents (_fitted_exponents), read
    from the same probe ray and exact exponents, wherever the mean matrix
    has Perron data (critical or not); None where it has none.
    """
    try:
        rho = spec.spectral().rho
    except ValueError:
        rho = None
    exponents = None
    if rho is not None:
        ray, exps = _probe_ray(spec, config), _exponents(spec)
        exponents = _fitted_exponents(ray, exps)
    if rho is None or not is_critical(rho):
        return GrowthVerdict(
            verdict="inconclusive",
            condition="not-critical",
            ratio_values=np.array([]),
            probe_sizes=np.array([]),
            hypothesis_A=False,
            hypothesis_B=False,
            support_ok=None,
            diagnostics={"rho": rho},
            exponents=exponents,
        )

    if (ray.s2 <= 0.0).any():
        raise ValueError("one-step variance vanishes at this state (deterministic model)")
    ratios = 2.0 * ray.sizes * ray.uh / ray.s2
    hyp_b, b_evidence = _hypothesis_B(ray, exps)
    checks = _order_checks(ray, exps)

    def dominated(rhs: str) -> bool:
        return all(checks.get(f"{lhs}_vs_{rhs}", {}).get("ok") for lhs in ("shifted", "centered"))

    try:
        ones = np.ones(spec.dim, dtype=np.int64)
        support_ok = all(check_growth_support(spec, z) for z in [*ray.probes, ones])
    except ValueError:
        support_ok = False

    diagnostics = {
        "hypothesis_B_evidence": b_evidence,
        "h_at_probes": [h.tolist() for h in ray.h],
        "sigma2_at_probes": ray.s2.tolist(),
        "u_dot_h_at_probes": ray.uh.tolist(),
    }

    verdict, condition = "inconclusive", None
    if all((h <= 1e-12).all() for h in ray.h):
        verdict, condition = "no-growth", "emigration-dominates"
    elif ratios.max() < 1.0 - _RATIO_MARGIN and (dominated("sigma") or dominated("drift")):
        verdict, condition = "no-growth", "ratio-below-one"
    elif support_ok and ratios.min() > 1.0 + _RATIO_MARGIN and dominated("drift_log"):
        verdict, condition = "growth-possible", "ratio-above-one"

    return GrowthVerdict(
        verdict=verdict,
        condition=condition,
        ratio_values=ratios,
        probe_sizes=ray.sizes,
        hypothesis_A=True,
        hypothesis_B=hyp_b,
        support_ok=support_ok,
        order_checks=checks,
        diagnostics=diagnostics,
        exponents=exponents,
    )


def _fitted_exponents(ray: _Ray, exps: dict) -> dict:
    """Exact growth exponents of the drift and variance along the ray, read
    from _exponents; the ray gives the probe sizes and the sign of u.h.

    Reports alpha and u.c of the drift u.h ~ (u.c) s^alpha, beta and nu
    of sigma2 ~ nu s^beta (as params_from_spec derives them), and the
    fluctuation exponent surrogates delta1 (growth of max_i |h_i|) and
    delta2 (growth of the alpha_tilde-moment surrogate, divided by
    alpha_tilde).  alpha and u.c are None where u.h is nonpositive
    somewhere on the ray or its leading terms cancel, nu where a log tops
    sigma2, and delta1 where h is eventually 0.
    """
    drift = (ray.uh > 0.0).all() and not exps["cancels"]
    out = {
        "sizes": ray.sizes.tolist(),
        "alpha": exps["alpha"] if drift else None,
        "c_dot_u": exps["c_dot_u"] if drift else None,
        "beta": exps["beta"],
        "nu": _finite(exps["nu"]),
        "delta1": _finite(max(max(pair) for pair in exps["terms"])),
        "delta2": exps["surrogate"] / ALPHA_TILDE,
        "ratio_limit": None,
    }
    if drift and out["nu"]:
        matched = abs(exps["beta"] - (exps["alpha"] + 1.0)) < 0.05
        out["ratio_limit"] = 2.0 * exps["c_dot_u"] / out["nu"] if matched else math.inf
    return out


def estimate_exponents(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()) -> dict:
    """classify_growth(spec, config).exponents, without the verdict; kept
    while the benchmark tracer (bench/tracer.py) names it."""
    return _fitted_exponents(_probe_ray(spec, config), _exponents(spec))
