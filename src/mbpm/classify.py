"""Growth regime classification for critical models.

The classifier asks whether the population can grow without bound.  With
u the left Perron weights, everything hinges on the ratio

    2 (u . z) (u . h(z)) / sigma2(z)

along rays to infinity: staying below 1 forbids unbounded growth and
exceeding 1 permits it, under side conditions bounding higher moments of
one transition.  Limits cannot be decided from finitely many states, so
the checks are honest approximations: structural reasoning on the closed
state-function set where possible, log-log slope regression at probe
states otherwise, and a 10% safety margin around the critical ratio 1
inside which the verdict is "inconclusive".

Every criterion reads one evaluation of the probe ray (``_Ray``): h and
sigma2 once per probe, and one call of moments.migration_abs_moments per
probe and type for all fractional moments.  No emigration law is
enumerated up to the count there, so a probe may lie at any magnitude whose
state fits int64.  The order checks form one table, {shifted, centered} x
{sigma, drift_log, drift}.  The classify suite reads its verdict and its
exponents from one ray.

Standing assumptions referenced throughout: (A) the offspring mean matrix
is primitive with Perron root 1; (B) mean migration is o(||z||); (C) the
migration parameters a, b, q, r converge at large sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import is_critical
from .laws import growth_exponent_of, limit_of, product_of
from .model import ModelSpec
from .moments import migration_abs_moments, migration_mean, sigma2

_RATIO_MARGIN = 0.10  # safety band around the critical ratio 1
_SLOPE_SLACK = 0.05  # fitted exponent must undershoot the target by this
_DELTA = 1.0  # the moment orders are 1 + delta/2 and 2 + delta
_ALPHA_LOG = 1.0  # exponent on the log factor of the growth-side conditions
_ALPHA_TILDE = 2.0  # moment order of the delta2 surrogate
_VERDICTS = ("no-growth", "growth-possible", "inconclusive")
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
    verdict: str  # one of _VERDICTS
    condition: Optional[str]
    ratio_values: np.ndarray
    probe_sizes: np.ndarray
    hypothesis_A: bool
    hypothesis_B: bool
    support_ok: Optional[bool]
    order_checks: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def probe_states(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()):
    """Integer states along the probe ray, one per configured magnitude."""
    direction = spec.spectral().v
    out = []
    for mag in config.ray_points:
        z = np.rint(mag * direction)
        if not z.max() < _INT64_BOUND:
            raise ValueError(f"the probe state at magnitude {mag:g} does not fit int64")
        z = z.astype(np.int64)
        if not z.any():
            z = np.ones(spec.dim, dtype=np.int64)
        out.append(z)
    return out


def _migration_leads(comp, vi: float = 1.0) -> dict:
    """Leading forms (coeff, exponent) in the size s of one migration
    component's parameters along the ray z = s v, where the type's count is
    z_i = vi s.

    "p", "q" and "r" are the no-migration, immigration and emigration
    probabilities, "a" and "b" the immigration and emigration law means,
    and "var_a" and "var_b" their variances.  An emigration law reads the
    count, so its coefficient is scaled by vi**exponent.  A missing law's
    probability, mean and variance are (0, 0).
    """
    nothing = (0.0, 0.0)
    imm, em = comp.immigration, comp.emigration

    def at_count(lead):
        return (lead[0] * vi ** lead[1], lead[1])

    return {
        "p": comp.prob_none.leading(),
        "q": nothing if imm is None else comp.prob_imm.leading(),
        "r": nothing if em is None else comp.prob_em.leading(),
        "a": nothing if imm is None else imm.mean_fn.leading(),
        "b": nothing if em is None else at_count(em.mean_leading()),
        "var_a": nothing if imm is None else imm.var_leading(),
        "var_b": nothing if em is None else at_count(em.var_leading()),
    }


def _migration_terms(leads: dict) -> tuple:
    """Leading forms of the immigration term q_i E[I_i] and the emigration
    term r_i E[D_i] of one component's mean h_i = q_i E[I_i] - r_i E[D_i],
    from its _migration_leads; (0, 0) for a term that never fires at large
    sizes."""
    return product_of(leads["q"], leads["a"]), product_of(leads["r"], leads["b"])


def _hypothesis_B(spec: ModelSpec, ray) -> tuple:
    """(holds, evidence) of hypothesis (B): is the mean migration h(z) =
    o(||z||)?

    Decided structurally on the closed state-function set: each of the
    immigration term a_i q_i and emigration term b_i r_i gets the growth
    exponent of its leading form (_migration_terms; uniform emigration
    removes a linear fraction of the count, hence exponent 1), and the
    hypothesis holds when every exponent is strictly below 1.  A term that
    never fires has exponent -inf.  Probe ratios max_i |h_i(z)| / ||z|| on
    the ray are recorded as numeric evidence only.
    """
    exponents = [tuple(growth_exponent_of(t) if t[0] != 0.0 else -math.inf
                       for t in _migration_terms(_migration_leads(c)))
                 for c in spec.migration.components]
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
        leads = _migration_leads(comp)
        for key in limits:
            limits[key].append(limit_of(leads[key]))
    if not all(math.isfinite(v) for values in limits.values() for v in values):
        return None
    return {key: np.array(values) for key, values in limits.items()}


def growth_ratio(spec: ModelSpec, u, z) -> float:
    """The drift-to-fluctuation ratio 2 (u.z)(u.h(z)) / sigma2(z): u weights
    z, h and Z', and h(z) reads the model's own size at z."""
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=np.int64)
    s2 = sigma2(spec, u, z)
    if s2 <= 0.0:
        raise ValueError("one-step variance vanishes at this state (deterministic model)")
    return 2.0 * float(u @ z) * float(u @ migration_mean(spec, z)) / s2


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
    """Everything the criteria read along the probe ray, evaluated once."""

    probes: list
    sizes: np.ndarray  # u.z per probe
    h: list  # h(z) per probe
    uh: np.ndarray
    s2: np.ndarray  # sigma2(z) per probe
    shifted: list  # [type][probe]: E|z_i + M_i|^(1 + delta/2)
    centered: list  # [type][probe]: E|M_i - h_i|^(2 + delta)
    surrogate: list  # [probe]: max over i of z_i + h_i and E|M_i - h_i|^alpha_tilde


def _probe_ray(spec: ModelSpec, config: CriteriaConfig) -> _Ray:
    """Evaluate the probe ray: one migration mean and one sigma2 per probe,
    and one call of migration_abs_moments per (probe, type) for all
    fractional moments."""
    u = spec.spectral().u
    probes = probe_states(spec, config)
    h_list = [migration_mean(spec, z) for z in probes]
    shifted_power, centered_power = 1.0 + _DELTA / 2.0, 2.0 + _DELTA
    shifted, centered = [[] for _ in range(spec.dim)], [[] for _ in range(spec.dim)]
    surrogate = []
    for z, h in zip(probes, h_list):
        candidates = []
        for i in range(spec.dim):
            zi, hi = float(z[i]), float(h[i])
            pairs = ((shifted_power, -zi), (centered_power, hi), (_ALPHA_TILDE, hi))
            m_shifted, m_centered, m_tilde = migration_abs_moments(spec, i, z, pairs)
            shifted[i].append(m_shifted)
            centered[i].append(m_centered)
            candidates.append(zi + hi)
            candidates.append(m_tilde)
        surrogate.append(max(candidates))
    return _Ray(
        probes=probes,
        sizes=np.array([float(u @ z) for z in probes]),
        h=h_list,
        uh=np.array([float(u @ h) for h in h_list]),
        s2=np.array([sigma2(spec, u, z) for z in probes]),
        shifted=shifted,
        centered=centered,
        surrogate=surrogate,
    )


def _slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs; -inf if any y is 0."""
    ys = np.asarray(ys, dtype=float)
    if (ys <= 0.0).any():
        return -math.inf
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _finite(x):
    """x, or None where it is infinite (a slope that does not exist)."""
    return None if math.isinf(x) else x


def _order_checks(ray: _Ray) -> dict:
    """The little-o slope checks {shifted, centered} x {sigma, drift_log,
    drift}, keyed "<lhs>_vs_<rhs>": each holds when every type's fitted
    exponent undershoots the target's by the slack.  The drift targets
    exist only where u.h > 0 along the whole ray."""
    sizes = ray.sizes
    targets = {"sigma": sizes ** (1.0 + _DELTA) * ray.s2}
    if (ray.uh > 0.0).all():
        targets["drift_log"] = (
            sizes ** (1.0 + _DELTA) * ray.uh / np.log(sizes) ** (1.0 + _ALPHA_LOG)
        )
        targets["drift"] = sizes ** (2.0 + _DELTA) * ray.uh
    lhs_slopes = {
        lhs: [_slope(sizes, ys) for ys in per_type]
        for lhs, per_type in (("shifted", ray.shifted), ("centered", ray.centered))
    }
    checks = {}
    for rhs, values in targets.items():
        rhs_slope = _slope(sizes, values)
        applicable = not math.isinf(rhs_slope)
        for lhs, slopes in lhs_slopes.items():
            name = f"{lhs}_vs_{rhs}"
            checks[name] = {
                "name": name,
                "ok": applicable and all(s <= rhs_slope - _SLOPE_SLACK for s in slopes),
                "applicable": applicable,
                "lhs_slopes": [_finite(s) for s in slopes],
                "rhs_slope": _finite(rhs_slope),
            }
    return checks


def _not_critical(spec: ModelSpec) -> Optional[GrowthVerdict]:
    """The inconclusive verdict of a model without hypothesis (A), else None."""
    try:
        rho = spec.spectral().rho
    except ValueError:
        rho = None
    if rho is not None and is_critical(rho):
        return None
    return GrowthVerdict(
        verdict="inconclusive",
        condition="not-critical",
        ratio_values=np.array([]),
        probe_sizes=np.array([]),
        hypothesis_A=False,
        hypothesis_B=False,
        support_ok=None,
        diagnostics={"rho": rho},
    )


def _growth_verdict(spec: ModelSpec, ray: _Ray) -> GrowthVerdict:
    """The verdict of a critical model, read from its probe ray."""
    if (ray.s2 <= 0.0).any():
        raise ValueError("one-step variance vanishes at this state (deterministic model)")
    ratios = 2.0 * ray.sizes * ray.uh / ray.s2
    hyp_b, b_evidence = _hypothesis_B(spec, ray)
    checks = _order_checks(ray)

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
    )


def classify_growth(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()) -> GrowthVerdict:
    """Decide no-growth / growth-possible / inconclusive from probe states.

    No-growth fires when (a) every mean adjustment component is
    nonpositive at all probes (emigration dominates), or (b) the ratio
    stays below 1 - margin and the transition moments are dominated in the
    little-o sense.  Growth-possible needs the support condition, ratio
    above 1 + margin, and the log-damped moment dominations.  Anything
    else, including ratios inside the margin, is inconclusive.

    The sublinear-drift hypothesis (B) is reported, not enforced: the
    emigration-dominates condition is meaningful and corroborated by
    simulation even for linearly shrinking drifts.
    """
    return _not_critical(spec) or _growth_verdict(spec, _probe_ray(spec, config))


def _fitted_exponents(ray: _Ray) -> dict:
    """The exponent fits of estimate_exponents, read from a probe ray."""
    sizes, uh, s2 = ray.sizes, ray.uh, ray.s2
    out = {"sizes": sizes.tolist()}
    alpha = _slope(sizes, uh) if (uh > 0.0).all() else None
    out["alpha"] = alpha
    out["c_dot_u"] = None if alpha is None else float(uh[-1] / sizes[-1] ** alpha)
    beta = _finite(_slope(sizes, s2))
    out["beta"] = beta
    out["nu"] = None if beta is None else float(s2[-1] / sizes[-1] ** beta)
    out["delta1"] = _finite(_slope(sizes, [float(np.max(np.abs(h))) for h in ray.h]))
    d2 = _finite(_slope(sizes, ray.surrogate))
    out["delta2"] = None if d2 is None else d2 / _ALPHA_TILDE

    out["ratio_limit"] = None
    if alpha is not None and beta is not None and out["nu"]:
        matched = abs(beta - (alpha + 1.0)) < 0.05
        out["ratio_limit"] = 2.0 * out["c_dot_u"] / out["nu"] if matched else math.inf
    return out


def estimate_exponents(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()) -> dict:
    """Fitted growth exponents of the drift and variance along the ray.

    Reports alpha (slope of log u.h), the matched drift coefficient
    u.c, beta and nu for sigma2, and the fluctuation exponent
    surrogates delta1 (growth of max_i |h_i|) and delta2 (growth of the
    alpha_tilde-moment surrogate, divided by alpha_tilde).  Entries are
    None where the quantity is nonpositive somewhere on the ray.
    """
    return _fitted_exponents(_probe_ray(spec, config))
