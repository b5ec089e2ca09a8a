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

Standing assumptions referenced throughout: (A) the offspring mean matrix
is primitive with Perron root 1; (B) mean migration is o(||z||); (C) the
migration parameters a, b, q, r converge at large sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import algebra
from .laws import Clamp, Constant, Power, ShiftedPoissonImmigration, Table
from .model import MigrationComponent, ModelSpec
from .moments import migration_atoms, migration_mean, sigma2

_RATIO_MARGIN = 0.10  # safety band around the critical ratio 1
_SLOPE_SLACK = 0.05  # fitted exponent must undershoot the target by this
_CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class CriteriaConfig:
    """Tunable parameters of the growth criteria.

    delta enters the moment orders 1 + delta/2 and 2 + delta; alpha_log is
    the exponent on the log factor in the growth-side conditions;
    alpha_tilde, delta1, delta2 parameterize the fluctuation-side exponent
    reports; ray_points are the probe magnitudes of u . z; direction is
    the ray direction (right Perron eigenvector when omitted).
    """

    delta: float = 1.0
    alpha_log: float = 1.0
    alpha_tilde: float = 2.0
    delta1: float = 0.9
    delta2: float = 0.9
    ray_points: tuple = (1e3, 1e4, 1e5)
    direction: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.alpha_log <= 0.0:
            raise ValueError("alpha_log must be positive")
        if not 1.0 < self.alpha_tilde <= 2.0:
            raise ValueError("alpha_tilde must lie in (1, 2]")
        if self.delta1 >= 1.0 or self.delta2 >= 1.0:
            raise ValueError("delta1 and delta2 must be < 1")
        pts = tuple(float(x) for x in self.ray_points)
        if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])) or pts[0] < 10:
            raise ValueError("ray_points must be increasing magnitudes >= 10")


@dataclass
class GrowthVerdict:
    verdict: str  # "no-growth" | "growth-possible" | "inconclusive"
    condition: Optional[str]
    ratio_values: np.ndarray
    probe_sizes: np.ndarray
    hypothesis_A: bool
    hypothesis_B: bool
    support_ok: Optional[bool]
    order_checks: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "condition": self.condition,
            "ratio_values": np.asarray(self.ratio_values).tolist(),
            "probe_sizes": np.asarray(self.probe_sizes).tolist(),
            "hypothesis_A": self.hypothesis_A,
            "hypothesis_B": self.hypothesis_B,
            "support_ok": self.support_ok,
            "order_checks": self.order_checks,
            "diagnostics": self.diagnostics,
        }


def probe_states(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()):
    """Integer states along the probe ray, one per configured magnitude."""
    if config.direction is not None:
        direction = np.asarray(config.direction, dtype=float)
        if (direction < 0).any() or not direction.any():
            raise ValueError("probe direction must be nonnegative and nonzero")
    else:
        direction = spec.spectral().v
    out = []
    for mag in config.ray_points:
        z = np.rint(mag * direction).astype(np.int64)
        if not z.any():
            z = np.ones(spec.dim, dtype=np.int64)
        out.append(z)
    return out


def is_absorbing_zero(spec: ModelSpec) -> bool:
    """Whether the zero state is absorbing (no immigration can fire there)."""
    zero = np.zeros(spec.dim, dtype=np.int64)
    for comp in spec.migration.components:
        _, pi, _ = comp.branch_probs(zero, None, 0)
        if pi > 0.0:
            return False
    return True


def _immigration_mean_exponent(law) -> float:
    if law is None:
        return 0.0
    if isinstance(law, ShiftedPoissonImmigration):
        return law.mean_fn.growth_exponent()
    return 0.0


def check_hypothesis_B(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()):
    """Is the mean migration h(z) = o(||z||)?  Returns (holds, evidence).

    Decided structurally on the closed state-function set: each of the
    immigration term a_i q_i and emigration term b_i r_i gets the growth
    exponent of its factors (uniform emigration removes a linear fraction
    of the count, hence exponent 1), and the hypothesis holds when every
    exponent is strictly below 1.  Probe ratios max_i |h_i(z)| / ||z|| are
    recorded as numeric evidence only.
    """
    exponents = []
    for comp in spec.migration.components:
        imm_e = comp.prob_imm.growth_exponent() + _immigration_mean_exponent(comp.immigration)
        if comp.immigration is None or (
            isinstance(comp.prob_imm, Constant) and comp.prob_imm.value == 0.0
        ):
            imm_e = -math.inf
        emi_e = comp.prob_em.growth_exponent() + (
            comp.emigration.growth_exponent() if comp.emigration is not None else 0.0
        )
        if comp.emigration is None or (
            isinstance(comp.prob_em, Constant) and comp.prob_em.value == 0.0
        ):
            emi_e = -math.inf
        exponents.append((imm_e, emi_e))

    try:
        u = spec.size_weights()
    except ValueError:
        u = None
    ratios = []
    try:
        for z in probe_states(spec, config):
            h = migration_mean(spec.migration, z, u if u is not None else spec.spectral().u)
            ratios.append(float(np.max(np.abs(h))) / float(np.sum(z)))
    except ValueError:
        ratios = []

    worst = max(max(pair) for pair in exponents)
    evidence = {
        "term_exponents": [
            [None if math.isinf(a) and a < 0 else a for a in pair] for pair in exponents
        ],
        "probe_ratios": ratios,
        "worst_exponent": None if math.isinf(worst) else worst,
    }
    return worst < 1.0, evidence


def check_hypothesis_C(spec: ModelSpec) -> Optional[dict]:
    """Large-size limits of the migration parameters, or None if any diverges.

    Returns {"p": ..., "q": ..., "r": ..., "a": ..., "b": ...} as float
    arrays when every state function and law mean converges.
    """
    p_lim, q_lim, r_lim, a_lim, b_lim = [], [], [], [], []
    for comp in spec.migration.components:
        pn = comp.prob_none.limit()
        qi = comp.prob_imm.limit()
        ri = comp.prob_em.limit()
        if comp.immigration is None:
            qi, ai = 0.0, 0.0
        else:
            ai = comp.immigration.mean_limit()
        if comp.emigration is None:
            ri, bi = 0.0, 0.0
        else:
            bi = comp.emigration.mean_limit()
        vals = (pn, qi, ri, ai, bi)
        if any(v is None for v in vals):
            return None
        p_lim.append(pn)
        q_lim.append(qi)
        r_lim.append(ri)
        a_lim.append(ai)
        b_lim.append(bi)
    return {
        "p": np.array(p_lim),
        "q": np.array(q_lim),
        "r": np.array(r_lim),
        "a": np.array(a_lim),
        "b": np.array(b_lim),
    }


def growth_ratio(spec: ModelSpec, u, z) -> float:
    """The drift-to-fluctuation ratio 2 (u.z)(u.h(z)) / sigma2(z)."""
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=np.int64)
    s2 = sigma2(spec, u, z)
    if s2 <= 0.0:
        raise ValueError("one-step variance vanishes at this state (deterministic model)")
    h = migration_mean(spec.migration, z, u)
    return 2.0 * float(u @ z) * float(u @ h) / s2


def check_growth_support(spec: ModelSpec, z) -> bool:
    """Can every occupied type both receive immigrants and reproduce at z?"""
    z = np.asarray(z, dtype=np.int64)
    if not z.any():
        raise ValueError("support condition is defined for non-null states")
    u = spec.size_weights()
    for i in np.flatnonzero(z > 0):
        comp = spec.migration.components[i]
        _, pi, _ = comp.branch_probs(z, u, int(z[i]))
        if pi <= 0.0:
            return False
        if spec.offspring.laws[i].prob_zero() >= 1.0:
            return False
    return True


def _exact_abs_moments(spec: ModelSpec, i: int, z, u, pairs) -> list:
    """E[|shift + M_i(z)|^power] for each (power, shift) in ``pairs``, by
    one enumeration of the migration atoms."""
    vals, probs = migration_atoms(spec.migration, i, z, u)
    return [float(np.sum(probs * np.abs(shift + vals) ** power)) for power, shift in pairs]


def _slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs; -inf if any y is 0."""
    ys = np.asarray(ys, dtype=float)
    if (ys <= 0.0).any():
        return -math.inf
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _order_check(sizes, lhs_per_type, rhs_values, name: str) -> dict:
    """Little-o slope check: every type's fitted exponent must undershoot
    the target's by the slack."""
    rhs_slope = _slope(sizes, rhs_values)
    lhs_slopes = [_slope(sizes, ys) for ys in lhs_per_type]
    applicable = not math.isinf(rhs_slope)
    ok = applicable and all(s <= rhs_slope - _SLOPE_SLACK for s in lhs_slopes)
    return {
        "name": name,
        "ok": bool(ok),
        "applicable": applicable,
        "lhs_slopes": [None if math.isinf(s) else s for s in lhs_slopes],
        "rhs_slope": None if math.isinf(rhs_slope) else rhs_slope,
    }


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
    try:
        spectral = spec.spectral()
        hyp_a = abs(spectral.rho - 1.0) <= _CRITICAL_TOL
    except ValueError:
        spectral = None
        hyp_a = False

    if not hyp_a:
        return GrowthVerdict(
            verdict="inconclusive",
            condition="not-critical",
            ratio_values=np.array([]),
            probe_sizes=np.array([]),
            hypothesis_A=False,
            hypothesis_B=False,
            support_ok=None,
            diagnostics={"rho": None if spectral is None else spectral.rho},
        )

    u = spectral.u
    probes = probe_states(spec, config)
    sizes = np.array([float(u @ z) for z in probes])
    hyp_b, b_evidence = check_hypothesis_B(spec, config)

    h_list = [migration_mean(spec.migration, z, u) for z in probes]
    ratios = np.array([growth_ratio(spec, u, z) for z in probes])
    s2_list = np.array([sigma2(spec, u, z) for z in probes])
    uh_list = np.array([float(u @ h) for h in h_list])

    delta = config.delta
    p = spec.dim
    lhs_shifted = [[] for _ in range(p)]  # E|z_i + M_i|^(1+delta/2)
    lhs_centered = [[] for _ in range(p)]  # E|M_i - h_i|^(2+delta)
    for z, h in zip(probes, h_list):
        for i in range(p):
            shifted, centered = _exact_abs_moments(
                spec, i, z, u, ((1.0 + delta / 2.0, float(z[i])), (2.0 + delta, -float(h[i])))
            )
            lhs_shifted[i].append(shifted)
            lhs_centered[i].append(centered)

    rhs_sigma = sizes ** (1.0 + delta) * s2_list
    checks = {
        "shifted_vs_sigma": _order_check(sizes, lhs_shifted, rhs_sigma, "shifted_vs_sigma"),
        "centered_vs_sigma": _order_check(sizes, lhs_centered, rhs_sigma, "centered_vs_sigma"),
    }
    if (uh_list > 0.0).all():
        rhs_log = sizes ** (1.0 + delta) * uh_list / np.log(sizes) ** (1.0 + config.alpha_log)
        rhs_drift = sizes ** (2.0 + delta) * uh_list
        checks["shifted_vs_drift_log"] = _order_check(
            sizes, lhs_shifted, rhs_log, "shifted_vs_drift_log"
        )
        checks["centered_vs_drift_log"] = _order_check(
            sizes, lhs_centered, rhs_log, "centered_vs_drift_log"
        )
        checks["shifted_vs_drift"] = _order_check(
            sizes, lhs_shifted, rhs_drift, "shifted_vs_drift"
        )
        checks["centered_vs_drift"] = _order_check(
            sizes, lhs_centered, rhs_drift, "centered_vs_drift"
        )

    try:
        support_ok = all(check_growth_support(spec, z) for z in probes) and check_growth_support(
            spec, np.ones(p, dtype=np.int64)
        )
    except ValueError:
        support_ok = False

    diagnostics = {
        "hypothesis_B_evidence": b_evidence,
        "h_at_probes": [h.tolist() for h in h_list],
        "sigma2_at_probes": s2_list.tolist(),
        "u_dot_h_at_probes": uh_list.tolist(),
    }

    verdict, condition = "inconclusive", None
    if all((h <= 1e-12).all() for h in h_list):
        verdict, condition = "no-growth", "emigration-dominates"
    elif ratios.max() < 1.0 - _RATIO_MARGIN and (
        (checks["shifted_vs_sigma"]["ok"] and checks["centered_vs_sigma"]["ok"])
        or (
            "shifted_vs_drift" in checks
            and checks["shifted_vs_drift"]["ok"]
            and checks["centered_vs_drift"]["ok"]
        )
    ):
        verdict, condition = "no-growth", "ratio-below-one"
    elif (
        support_ok
        and ratios.min() > 1.0 + _RATIO_MARGIN
        and "shifted_vs_drift_log" in checks
        and checks["shifted_vs_drift_log"]["ok"]
        and checks["centered_vs_drift_log"]["ok"]
    ):
        verdict, condition = "growth-possible", "ratio-above-one"

    return GrowthVerdict(
        verdict=verdict,
        condition=condition,
        ratio_values=ratios,
        probe_sizes=sizes,
        hypothesis_A=True,
        hypothesis_B=hyp_b,
        support_ok=support_ok,
        order_checks=checks,
        diagnostics=diagnostics,
    )


def estimate_exponents(spec: ModelSpec, config: CriteriaConfig = CriteriaConfig()) -> dict:
    """Fitted growth exponents of the drift and variance along the ray.

    Reports alpha (slope of log u.h), the matched drift coefficient
    u.c, beta and nu for sigma2, and the fluctuation exponent
    surrogates delta1 (growth of max_i |h_i|) and delta2 (growth of the
    alpha_tilde-moment surrogate, divided by alpha_tilde).  Entries are
    None where the quantity is nonpositive somewhere on the ray.
    """
    spectral = spec.spectral()
    u = spectral.u
    probes = probe_states(spec, config)
    sizes = np.array([float(u @ z) for z in probes])
    h_list = [migration_mean(spec.migration, z, u) for z in probes]
    uh = np.array([float(u @ h) for h in h_list])
    s2 = np.array([sigma2(spec, u, z) for z in probes])

    out = {"sizes": sizes.tolist()}
    if (uh > 0.0).all():
        alpha = _slope(sizes, uh)
        out["alpha"] = alpha
        out["c_dot_u"] = float(uh[-1] / sizes[-1] ** alpha)
    else:
        out["alpha"] = None
        out["c_dot_u"] = None
    beta = _slope(sizes, s2)
    out["beta"] = None if math.isinf(beta) else beta
    out["nu"] = None if math.isinf(beta) else float(s2[-1] / sizes[-1] ** beta)

    habs = np.array([float(np.max(np.abs(h))) for h in h_list])
    d1 = _slope(sizes, habs)
    out["delta1"] = None if math.isinf(d1) else d1

    at = config.alpha_tilde
    surrogate = []
    for z, h in zip(probes, h_list):
        vals = []
        for i in range(spec.dim):
            vals.append(float(z[i]) + float(h[i]))
            vals.extend(_exact_abs_moments(spec, i, z, u, ((at, -float(h[i])),)))
        surrogate.append(max(vals))
    d2 = _slope(sizes, surrogate)
    out["delta2"] = None if math.isinf(d2) else d2 / at

    if out["alpha"] is not None and out["beta"] is not None and out["nu"]:
        if abs(out["beta"] - (out["alpha"] + 1.0)) < 0.05:
            out["ratio_limit"] = 2.0 * out["c_dot_u"] / out["nu"]
        else:
            out["ratio_limit"] = math.inf
    else:
        out["ratio_limit"] = None
    return out
