"""Exact conditional moments of one transition.

With h(z) = E[M(z)] the mean migration adjustment, one step from z has

    E[Z' | z]   = m (z + h(z))
    Var[Z' | z] = (z + h(z)) (.) Sigma + m Var[M(z)] m^T

where (.) mixes a vector with the per-type offspring covariance matrices
(algebra.odot) and Var[M(z)] is diagonal because migration components are
independent across types.  The scalar variance of the weighted size u . Z'
is sigma2.  Everything here is closed-form; Monte Carlo appears only in
tests, as the independent check of these formulas.

Raw migration moments use that each component M_i is a three-way mixture:
0 with the no-migration probability, +I_i with the immigration
probability, -D_i with the emigration probability, so

    E[M_i^k] = q_i E[I_i^k] + (-1)^k r_i E[D_i^k].

The growth criteria read absolute moments E|M_i - a|^q at the orders
3/2, 2 and 3, which mix the same three branches (migration_abs_moments).
They sum over the one enumeration migration_atoms.  Uniform and
inverse-cube emigration, whose support grows with the count, have no
atoms and enter through their closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import odot
from .model import ModelSpec


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
            for i, comp in enumerate(spec.migration.components)]


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
    grows with the count.
    """
    z = np.asarray(z, dtype=np.int64)
    comp, s, zi = spec.migration.components[i], spec.size(z), int(z[i])
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


def migration_abs_moments(spec: ModelSpec, i: int, z, pairs) -> list:
    """E|M_i - a|^q of component i's adjustment at z, one per (q, a) in pairs,
    for q in {3/2, 2, 3} and real shifts a.

    Each moment sums over the atoms of migration_atoms, whose branch
    probabilities are evaluated once.  An emigration law without atoms
    adds its closed form, weighted by the emigration probability:
    E|-D - a|^q = E|D - (-a)|^q.
    """
    vals, probs, pe = migration_atoms(spec, i, z)
    comp = spec.migration.components[i]
    zi = int(z[i])
    closed = getattr(comp.emigration, "abs_moment", None)
    out = []
    for q, a in pairs:
        moment = float(np.sum(probs * np.abs(vals - a) ** q))
        if closed and pe > 0.0:
            moment += pe * closed(q, -a, zi)
        out.append(moment)
    return out


def cond_mean(spec: ModelSpec, z):
    """Conditional mean of the next state: m (z + h(z))."""
    z = np.asarray(z, dtype=np.int64)
    return spec.mean_matrix() @ (z + migration_mean(spec, z))


def cond_var(spec: ModelSpec, z):
    """Conditional covariance of the next state."""
    z = np.asarray(z, dtype=np.int64)
    m = spec.mean_matrix()
    branching = odot(z + migration_mean(spec, z), spec.cov_tensor())
    return branching + m @ migration_var(spec, z) @ m.T


def sigma2(spec: ModelSpec, u, z) -> float:
    """Conditional variance of the weighted size u . Z' given Z = z.

    ``u`` weights Z' only: the migration reads the model's own size at z.
    Under criticality (u^T m = u^T) this equals u^T cond_var u; the direct
    form below avoids the matrix products.
    """
    z = np.asarray(z, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    inner = odot(z + migration_mean(spec, z), spec.cov_tensor()) + migration_var(spec, z)
    return float(u @ inner @ u)


@dataclass(frozen=True)
class MomentReport:
    """Exact one-step moment summary at a state."""

    z: np.ndarray
    h: np.ndarray
    cond_mean: np.ndarray
    cond_cov: np.ndarray
    varM: np.ndarray
    sigma2: float
    kappa: np.ndarray


def moment_report(spec: ModelSpec, z, u=None) -> MomentReport:
    """All exact moment quantities at z in one bundle.

    ``u`` weights Z' in sigma2 only; every migration quantity reads the
    model's own size at z.  It defaults to the left Perron weights, or to
    equal weights on a mean matrix that has none.
    """
    z = np.asarray(z, dtype=np.int64)
    if u is None:
        try:
            u = spec.spectral().u
        except ValueError:
            u = np.full(spec.dim, 1.0 / spec.dim)
    return MomentReport(
        z=z.copy(),
        h=migration_mean(spec, z),
        cond_mean=cond_mean(spec, z),
        cond_cov=cond_var(spec, z),
        varM=migration_var(spec, z),
        sigma2=sigma2(spec, u, z),
        kappa=migration_kappa(spec, z),
    )
