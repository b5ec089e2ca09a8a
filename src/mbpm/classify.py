"""Growth regime classification for critical models.

The classifier asks whether the population can grow without bound.  With
u the left Perron weights, everything hinges on the ratio

    2 (u . z) (u . h(z)) / sigma2(z)

along rays to infinity, through its limit theta (Lamperti's test): theta
below 1 forbids unbounded growth and theta above 1 permits it, under side
conditions bounding higher moments of one transition; theta within
moments.EXACT_TOL of 1, or without a limit the laws state, decides
nothing.  theta is exact (moments.ratio_limit), and so are the
emigration-dominates and support conditions (classify_growth).  The
ratio is also read at probe states on the ray (``_Ray``: h and sigma2
once per probe), for the report only: the integer states nearest m v for
each magnitude m of RAY_POINTS, a constant, as no verdict reads them.

The side conditions are little-o comparisons of growth rates.  Every law
states its large-size form (see laws), so they compare exact growth
exponents along the ray (moments.leading_moments and
moments.abs_exponent); nothing is fitted.  The order checks form one
table, {shifted, centered} x {sigma, drift_log, drift}.  classify_growth
reads its verdict and the growth exponents, which it carries on the
verdict, from one ray.

Standing assumptions referenced throughout: (A) the offspring mean matrix
is primitive with Perron root 1; (B) mean migration is o(||z||); (C) the
migration parameters a, b, q, r converge at large sizes, which the record
moments.leading_moments states as "converges" (the Feller pair,
limits.feller_params, needs it; no verdict reads it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import is_critical, weigh
from .laws import exponent_of
from .model import ModelSpec
from .moments import (
    EXACT_TOL,
    abs_exponent,
    leading_moments,
    migration_mean,
    sigma2,
)

DELTA = 1.0  # the moment orders are 1 + delta/2 and 2 + delta
ALPHA_TILDE = 2.0  # moment order of the delta2 surrogate
RAY_POINTS = (1e3, 1e4, 1e5)  # magnitudes u.z of the report's probe states
VERDICTS = ("no-growth", "growth-possible", "inconclusive")
_INT64_BOUND = 2.0**63  # the least float past int64


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
    exponent of its leading form (uniform emigration removes a linear
    fraction of the count, hence exponent 1), 0 for a bounded term,
    and the hypothesis holds when every exponent is strictly below 1.  A
    term that never fires has exponent -inf.  Probe ratios max_i |h_i(z)|
    / ||z|| on the ray are recorded as numeric evidence only.
    """
    exponents = [[e if math.isinf(e) else max(e, 0.0) for e in map(exponent_of, pair)]
                 for pair in exps["terms"]]
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


@dataclass(frozen=True)
class _Ray:
    """The ratio's ingredients along the probe ray, evaluated once."""

    probes: list
    sizes: np.ndarray  # u.z per probe
    h: list  # h(z) per probe
    uh: np.ndarray
    s2: np.ndarray  # sigma2(z) per probe


def _probe_ray(spec: ModelSpec) -> _Ray:
    """Evaluate the probe ray: one integer state per magnitude of
    RAY_POINTS along the right Perron vector, and one migration mean and
    one sigma2 per probe.  A state past int64 is refused by name: u sums
    to 1 and u . v = 1, which leaves v unbounded (where v = (1, 1e14), the
    state at 1e5 is past int64)."""
    spectral = spec.spectral()
    u = spectral.u
    probes = []
    for mag in RAY_POINTS:
        z = np.rint(mag * spectral.v)
        if not z.max() < _INT64_BOUND:
            raise ValueError(f"the probe state at magnitude {mag:g} does not fit int64")
        probes.append(z.astype(np.int64))
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
    """The exact growth exponents along the ray that the verdict, the order
    checks and _fitted_exponents compare: the record moments.leading_moments,
    with its ratio limit "theta", plus "rising", that u.h is eventually
    positive (its top terms do not cancel and u.c > 0), and per type the
    shifted moment E|z_i + M_i|^(1 + delta/2) and the centered moment
    E|M_i - h_i|^(2 + delta); and the surrogate, the larger of z_i + h_i
    (a count: linear) and E|M_i - h_i|^alpha_tilde over all types.  The
    moments read each type's leads from the record."""
    out = leading_moments(spec)
    types = list(zip(spec.migration, out["leads"]))
    out["rising"] = out["c_dot_u"] > 0.0 and not out["cancels"]
    out["shifted"] = [abs_exponent(c, lead, 1.0 + DELTA / 2.0, shifted=True) for c, lead in types]
    out["centered"] = [abs_exponent(c, lead, 2.0 + DELTA) for c, lead in types]
    out["surrogate"] = max(1.0, *(abs_exponent(c, lead, ALPHA_TILDE) for c, lead in types))
    return out


def _order_checks(exps: dict) -> dict:
    """The little-o checks {shifted, centered} x {sigma, drift_log, drift},
    keyed "<lhs>_vs_<rhs>": each holds when every type's exponent is below
    the target's by more than EXACT_TOL.  The targets are s^(1 + delta)
    sigma2, s^(1 + delta) u.h / log(s)^2 and s^(2 + delta) u.h; a log
    factor moves no exponent.  The drift targets exist only where u.h is
    eventually positive ("rising")."""
    targets = {"sigma": 1.0 + DELTA + exps["beta"]}
    if exps["rising"]:
        targets["drift_log"] = 1.0 + DELTA + exps["alpha"]
        targets["drift"] = 2.0 + DELTA + exps["alpha"]
    checks = {}
    for rhs, rhs_exponent in targets.items():
        for lhs in ("shifted", "centered"):
            name = f"{lhs}_vs_{rhs}"
            checks[name] = {
                "name": name,
                "ok": all(e < rhs_exponent - EXACT_TOL for e in exps[lhs]),
                "applicable": True,
                "lhs_slopes": [_finite(e) for e in exps[lhs]],
                "rhs_slope": rhs_exponent,
            }
    return checks


def classify_growth(spec: ModelSpec) -> GrowthVerdict:
    """Decide no-growth / growth-possible / inconclusive from the ratio's
    exact limit theta (moments.ratio_limit).

    No-growth fires when (a) every h_i is eventually <= 0 (emigration
    dominates: of the leading forms of q_i E[I_i] and r_i E[D_i], the
    first is 0, or the second has the larger exponent, or the same and a
    coefficient as large within moments' cancel tolerance), or (b) theta <
    1 and the transition moments are dominated in the little-o sense.
    Growth-possible needs the support condition, theta > 1, and the
    log-damped moment dominations.  The support condition: every type's
    immigration probability has a nonzero leading coefficient (a batch
    has an immigrant, so q_i E[I_i] is not eventually 0); every type can
    reproduce by hypothesis (A), as a primitive mean matrix has no zero
    column.  Anything else, including theta within moments.EXACT_TOL of 1
    and a theta the laws do not state, is inconclusive; a mean matrix
    without hypothesis (A) gives inconclusive / not-critical.  The probes
    enter no condition: they are only reported (ratio_values, diagnostics).

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
        ray, exps = _probe_ray(spec), _exponents(spec)
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
    checks = _order_checks(exps)

    def dominated(rhs: str) -> bool:
        return all(checks.get(f"{lhs}_vs_{rhs}", {}).get("ok") for lhs in ("shifted", "centered"))

    support_ok = all(imm[0] != 0.0 for imm, _ in exps["terms"])

    diagnostics = {
        "hypothesis_B_evidence": b_evidence,
        "h_at_probes": [h.tolist() for h in ray.h],
        "sigma2_at_probes": ray.s2.tolist(),
        "u_dot_h_at_probes": ray.uh.tolist(),
    }

    theta = 1.0 if exps["theta"] is None else exps["theta"]  # no stated limit decides nothing
    verdict, condition = "inconclusive", None
    if exps["falls"]:
        verdict, condition = "no-growth", "emigration-dominates"
    elif theta < 1.0 - EXACT_TOL and (dominated("sigma") or dominated("drift")):
        verdict, condition = "no-growth", "ratio-below-one"
    elif support_ok and theta > 1.0 + EXACT_TOL and dominated("drift_log"):
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
    from _exponents; the ray gives the probe sizes.

    Reports alpha and u.c of the drift u.h ~ (u.c) s^alpha, beta and nu
    of sigma2 ~ nu s^beta (as params_from_spec derives them), the ratio's
    limit theta as ratio_limit, and the fluctuation exponent surrogates
    delta1 (growth of max_i |h_i|) and delta2 (growth of the
    alpha_tilde-moment surrogate, divided by alpha_tilde).  alpha, u.c
    and ratio_limit are None where the top mean terms cancel, nu and
    ratio_limit where a log tops sigma2, and delta1 where h is eventually
    0.
    """
    drift = not exps["cancels"]
    return {
        "sizes": ray.sizes.tolist(),
        "alpha": exps["alpha"] if drift else None,
        "c_dot_u": exps["c_dot_u"] if drift else None,
        "beta": exps["beta"],
        "nu": _finite(exps["nu"]),
        "delta1": _finite(max(exponent_of(t) for pair in exps["terms"] for t in pair)),
        "delta2": exps["surrogate"] / ALPHA_TILDE,
        "ratio_limit": exps["theta"] if drift else None,
    }


def estimate_exponents(spec: ModelSpec) -> dict:
    """classify_growth(spec).exponents, without the verdict; kept while the
    benchmark tracer (bench/tracer.py) names it."""
    return _fitted_exponents(_probe_ray(spec), _exponents(spec))
