"""Exact conditional moments of one transition.

With h(z) = E[M(z)] the mean migration adjustment, one step from z has

    E[Z' | z]   = m (z + h(z))
    Var[Z' | z] = (z + h(z)) (.) Sigma + m Var[M(z)] m^T

where (.) mixes a vector with the per-type offspring covariance matrices
(algebra.odot) and Var[M(z)] is diagonal because migration components are
independent across types.  So Var[Z' | z] is one weighted sum of 2p
matrices, Sigma_k weighted by (z + h)_k and m[:, k] m[:, k]^T by Var M_k,
and both moments are formed by algebra's one rounding rule, each entry one
correctly rounded sum (``dot``): the same bits on every host, whatever
kernel its BLAS picks.  The scalar variance of the size u . Z', with u
the model's left Perron weights, is sigma2.  Everything here is
closed-form; Monte Carlo appears only in tests, as the independent check
of these formulas.

Raw migration moments use that each component M_i is a three-way mixture:
+I_i with the immigration probability q_i, -D_i with the emigration
probability r_i, and 0 with the remainder 1 - (q_i + r_i), so

    E[M_i^k] = q_i E[I_i^k] + (-1)^k r_i E[D_i^k].

The same mixture states the large-size forms along the ray z = s v (v
the right Perron vector, u . v = 1, so u . z = s): ``leading_moments``
is the one record of the laws' leading forms (see laws) that the growth
classifier, the limit constants and the Feller pair read, with the top
terms of u . h(s v) and sigma2(s v) and, by ``ratio_limit``, the limit
theta of the growth ratio 2 s u . h(s v) / sigma2(s v); ``abs_exponent``
reads a type's leads there for the exponent of E|M_i - a|^q.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .algebra import dot, form, odot
from .laws import exponent_of, limit_of, product_of, remainder_of
from .model import ModelSpec

_CANCEL_TOL = 1e-12  # top mean terms whose sum is this small a share of their sizes cancel
EXACT_TOL = 1e-9  # exponents, and ratio limits, this close are equal


def _component_raws(comp, k: int, s, zi: int) -> list:
    """Raw moments E[M_i^1], ..., E[M_i^k] of one component's adjustment
    at the size s and the count zi.

    The branch probabilities are evaluated once for all orders.
    """
    _, pi, pe = comp.branch_probs(s, zi)
    raws = []
    for order in range(1, k + 1):
        out = 0.0
        if pi > 0.0:
            out += pi * comp.immigration.raw_moment(order, s)
        if pe > 0.0:
            sign = -1.0 if order % 2 else 1.0
            out += sign * pe * comp.emigration.raw_moment(order, zi)
        raws.append(out)
    return raws


def _per_type_raws(spec: ModelSpec, k: int, z) -> list:
    """_component_raws of every type at the state z, whose size is formed once."""
    z = np.asarray(z, dtype=np.int64)
    s = spec.size(z)
    return [_component_raws(comp, k, s, int(z[i]))
            for i, comp in enumerate(spec.migration)]


def migration_mean(spec: ModelSpec, z):
    """Mean migration adjustment h(z), one entry per type."""
    return np.array([m1 for (m1,) in _per_type_raws(spec, 1, z)])


def migration_var(spec: ModelSpec, z):
    """Covariance of M(z): diagonal under across-type independence."""
    return np.diag([m2 - m1 * m1 for m1, m2 in _per_type_raws(spec, 2, z)])


def migration_kappa(spec: ModelSpec, z):
    """Fourth central moments E[(M_i - h_i)^4], one entry per type."""
    return np.array([m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
                     for m1, m2, m3, m4 in _per_type_raws(spec, 4, z)])


def migration_atoms(spec: ModelSpec, i: int, z):
    """Support, probabilities and emigration probability of component i's
    adjustment M_i at z.

    Three branches: the atom 0 of no migration, the immigration atoms, and
    the emigration atoms where the law has ``atoms``.  Values are floats
    (they include negatives).  The probabilities fall short of 1 by the
    enumeration tail of unbounded immigration supports, and by the whole
    mass pe of a uniform or inverse-cube emigration branch, whose support
    grows with the count.  No moment here reads it; the tests check the
    laws against it.
    """
    z = np.asarray(z, dtype=np.int64)
    comp, s, zi = spec.migration[i], spec.size(z), int(z[i])
    pn, pi, pe = comp.branch_probs(s, zi)
    values = [np.zeros(1)]
    probs = [np.array([pn])]
    if pi > 0.0:
        iv, ip = comp.immigration.atoms(s)
        values.append(iv.astype(float))
        probs.append(pi * ip)
    if pe > 0.0 and hasattr(comp.emigration, "atoms"):
        dv, dp = comp.emigration.atoms(zi)
        values.append(-dv.astype(float))
        probs.append(pe * dp)
    return np.concatenate(values), np.concatenate(probs), pe


def cond_mean(spec: ModelSpec, z):
    """Conditional mean of the next state: m (z + h(z)), each entry by ``dot``."""
    z = np.asarray(z, dtype=np.int64)
    return dot(spec.mean_matrix(), z + migration_mean(spec, z))


def cond_var(spec: ModelSpec, z):
    """Conditional covariance of the next state: the one weighted sum of
    2p matrices above, by ``odot``, so it is exactly symmetric."""
    z = np.asarray(z, dtype=np.int64)
    h, second = np.array(_per_type_raws(spec, 2, z)).T
    m = spec.mean_matrix()
    outers = m.T[:, :, None] * m.T[:, None, :]  # outers[k] = m[:, k] m[:, k]^T
    return odot(np.concatenate((z + h, second - h * h)),
                np.concatenate((spec.cov_tensor(), outers)))


def sigma2(spec: ModelSpec, z) -> float:
    """Conditional variance of the size u . Z' given Z = z, u the left
    Perron weights (a ValueError on a mean matrix without them).

    Under criticality (u^T m = u^T) this equals u^T cond_var u; the direct
    form below avoids the matrix products.
    """
    u = spec.spectral().u
    z = np.asarray(z, dtype=np.int64)
    h, second = np.array(_per_type_raws(spec, 2, z)).T
    return form(u, odot(z + h, spec.cov_tensor()) + np.diag(second - h * h))


# ---------------------------------------------------------------------------
# Leading forms along the ray z = s v
# ---------------------------------------------------------------------------


def migration_leads(comp, vi: float = 1.0) -> dict:
    """Leading forms (coeff, exponent) in the size s of one migration
    component's parameters along the ray z = s v, where the type's count is
    z_i = vi s.

    "p", "q" and "r" are the no-migration, immigration and emigration
    probabilities, "a" and "b" the immigration and emigration law means,
    and "var_a" and "var_b" their variances.  An emigration law reads the
    count, so its coefficient is scaled by vi**exponent.  A missing law's
    probability, mean and variance are (0, 0), and "p", the remainder
    1 - (q + r), reads its form from those of q and r (``remainder_of``).
    """
    nothing = (0.0, 0.0)
    imm, em = comp.immigration, comp.emigration

    def at_count(lead):
        return (lead[0] * vi ** lead[1], lead[1])

    q = nothing if imm is None else comp.prob_imm.leading()
    r = nothing if em is None else comp.prob_em.leading()
    return {
        "p": remainder_of(q, r),
        "q": q,
        "r": r,
        "a": nothing if imm is None else imm.mean_fn.leading(),
        "b": nothing if em is None else at_count(em.mean_leading()),
        "var_a": nothing if imm is None else imm.var_leading(),
        "var_b": nothing if em is None else at_count(em.var_leading()),
    }


def migration_terms(leads: dict) -> tuple:
    """Leading forms of the immigration term q_i E[I_i] and the emigration
    term r_i E[D_i] of one component's mean h_i = q_i E[I_i] - r_i E[D_i],
    from its migration_leads; (0, 0) for a term that never fires at large
    sizes."""
    return product_of(leads["q"], leads["a"]), product_of(leads["r"], leads["b"])


def _top(terms) -> tuple:
    """The leading form of a sum of terms given by their leading forms: the
    largest exponent among the nonzero terms and the sum of their
    coefficients there; (0, 0) where every term is eventually 0."""
    live = [(c, e) for c, e in terms if c != 0.0]
    if not live:
        return (0.0, 0.0)
    exponent = max(e for _, e in live)
    return (sum(c for c, e in live if e == exponent), exponent)


def _falls(pair) -> bool:
    """Is the sum of these leading forms eventually <= 0 (a tie within _CANCEL_TOL is 0)?"""
    coeff, exponent = _top(pair)
    return coeff <= _CANCEL_TOL * sum(abs(c) for c, e in pair if c != 0.0 and e == exponent)


def _spread(lead) -> tuple:
    """The leading form of p (1 - p) for a probability p of leading form
    lead: an eventually constant p gives the constant p (1 - p), and a
    decaying p decays like p itself."""
    coeff, exponent = lead
    return lead if exponent < 0.0 else (coeff * (1.0 - coeff), 0.0)


def leading_moments(spec: ModelSpec) -> dict:
    """The laws' large-size forms along the ray z = s v, exact: "leads"
    holds each type's migration_leads(comp, v_i), and "converges" is
    hypothesis (C), that every q_i, r_i, a_i and b_i has a finite limit.

    Mean side: h_i(s v) = q_i E[I_i] - r_i E[D_i], each term a product of
    leading forms (migration_terms; "terms" holds the pairs): "alpha" is
    the top exponent over all types, "c" each type's coefficient there and
    "c_dot_u" = u . c; "cancels" says that the top terms cancel in u . c,
    so that the drift's order is below what the leading forms state;
    "falls" says that every h_i is eventually <= 0.

    Variance side: sigma2(s v) = u^T ((s v + h) odot Sigma) u
    + sum_i u_i^2 Var M_i, where s v + h is a count and each

        Var M_i = q Var I + r Var D + q (1 - q) E[I]^2 + r (1 - r) E[D]^2
                  + 2 q r E[I] E[D]

    is a sum of nonnegative terms, so nothing cancels: "beta" is the top
    exponent and "nu" the sum of the coefficients there, infinite where a
    log (inverse-cube emigration) tops it.  "diffusion", the offspring
    part per unit size u^T (v odot Sigma) u, is the Feller diffusion
    coefficient, and "theta" the ratio_limit of the top terms.
    """
    spectral = spec.spectral()
    u, v = spectral.u, spectral.v
    diffusion = form(u, odot(v, spec.cov_tensor()))
    weights = [form(u, cov) for cov in spec.cov_tensor()]  # u^T Sigma_i u
    leads = [migration_leads(comp, v[i]) for i, comp in enumerate(spec.migration)]
    means = []
    variances = [(diffusion, 1.0)]
    for i, lead in enumerate(leads):
        imm, em = migration_terms(lead)
        means.append((imm, (-em[0], em[1])))
        q, r, a, b = lead["q"], lead["r"], lead["a"], lead["b"]
        for coeff, exponent in (
            product_of(q, lead["var_a"]),
            product_of(r, lead["var_b"]),
            product_of(_spread(q), a, a),
            product_of(_spread(r), b, b),
            product_of((2.0, 0.0), q, r, a, b),
        ):
            variances.append((u[i] ** 2 * coeff, exponent))
        variances.extend((weights[i] * coeff, e) for coeff, e in means[-1])
    alpha = _top(term for pair in means for term in pair)[1]
    tops = [[coeff for coeff, e in pair if coeff != 0.0 and e == alpha] for pair in means]
    c = np.array([sum(top) for top in tops], dtype=float)
    c_dot_u = dot(u, c)
    scale = sum(u_i * abs(coeff) for u_i, top in zip(u, tops) for coeff in top)
    cancels = bool(scale > 0.0 and abs(c_dot_u) <= _CANCEL_TOL * scale)
    nu, beta = map(float, _top(variances))
    return {"alpha": alpha, "c": c, "c_dot_u": c_dot_u, "nu": nu, "beta": beta,
            "cancels": cancels, "terms": means, "falls": all(map(_falls, means)),
            "theta": ratio_limit(alpha, c_dot_u, beta, nu, cancels), "diffusion": diffusion,
            "leads": leads, "converges": all(math.isfinite(limit_of(lead[key]))
                                             for lead in leads for key in "qrab")}


def ratio_limit(alpha: float, c_dot_u: float, beta: float, nu: float,
                cancels: bool = False) -> Optional[float]:
    """The limit theta of the growth ratio 2 s u . h(s v) / sigma2(s v)
    along the ray, from the top terms u . h ~ (u . c) s^alpha and sigma2 ~
    nu s^beta (leading_moments).

    2 u.c / nu where beta = alpha + 1 within EXACT_TOL; where beta is
    below, the ratio grows like s^(alpha + 1 - beta), so +-inf by the sign
    of the drift (0 where every mean term is eventually 0); where beta is
    above, it shrinks to 0.  None where the top mean terms cancel, or
    where sigma2 has no power for its top (a log on top, or eventually 0).
    """
    if cancels or not 0.0 < nu < math.inf:
        return None
    gap = alpha + 1.0 - beta
    if abs(gap) <= EXACT_TOL:
        return 2.0 * c_dot_u / nu
    if gap < 0.0 or c_dot_u == 0.0:
        return 0.0
    return math.copysign(math.inf, c_dot_u)


def abs_exponent(comp, leads: dict, q: float, shifted: bool = False) -> float:
    """The growth exponent along the ray of E|M_i - a|^q for one migration
    component of migration_leads ``leads``, where a = h_i, or a = -z_i
    where ``shifted``; -inf where the moment is eventually 0.  It reads
    the leads' exponents and zeros only, which no count scale v_i changes.

    A branch (none: 0, immigration: +I, emigration: -D) whose probability
    has the leading form (c, e), c != 0, adds e plus the larger of its
    law's central exponent (``abs_leading``) and q times the exponent of
    its mean's gap to a.  The gap to h_i is the sum over the other
    branches b' of P_b' (mu_b - mu_b').  Branch means never cancel (+I > 0,
    none = 0, -D < 0), so for immigration and emigration every term has one
    sign and the gap grows like the larger mean.  The no-migration gap,
    r_i b_i - q_i a_i, may cancel at the top order: there the value is an
    upper bound, exact otherwise; an overstated exponent fails an order
    check, so the verdict turns inconclusive, never wrong.  The gap to
    -z_i, mu_b + z_i, grows like z_i or mu_b: a removal is at most the count.
    """
    branches = [(leads["p"], (0.0, 0.0), (0.0, 0.0))]
    if comp.immigration is not None:
        branches.append((leads["q"], leads["a"], comp.immigration.abs_leading(q)))
    if comp.emigration is not None:
        branches.append((leads["r"], leads["b"], comp.emigration.abs_leading(q)))
    live = [branch for branch in branches if branch[0][0] != 0.0]
    out = -math.inf
    for k, (prob, mean, spread) in enumerate(live):
        if shifted:
            gap = max(1.0, exponent_of(mean))
        else:
            gap = max((other[1] + max(exponent_of(mean), exponent_of(other_mean))
                       for j, (other, other_mean, _) in enumerate(live) if j != k),
                      default=-math.inf)
        out = max(out, prob[1] + max(exponent_of(spread), q * gap))
    return out
