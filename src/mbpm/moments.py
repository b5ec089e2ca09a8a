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
from .model import MigrationSpec, ModelSpec


def _component_raws(comp, k: int, z, u, zi: int) -> list:
    """Raw moments E[M_i^1], ..., E[M_i^k] of one component's adjustment.

    The branch probabilities are evaluated once for all orders.
    """
    _, pi, pe = comp.branch_probs(z, u, zi)
    raws = []
    for order in range(1, k + 1):
        out = 0.0
        if pi > 0.0:
            out += pi * comp.immigration.raw_moment(order, z, u)
        if pe > 0.0:
            sign = -1.0 if order % 2 else 1.0
            out += sign * pe * comp.emigration.raw_moment(order, zi)
        raws.append(out)
    return raws


def migration_mean(spec: MigrationSpec, z, u=None):
    """Mean migration adjustment h(z), one entry per type."""
    z = np.asarray(z, dtype=np.int64)
    return np.array(
        [
            _component_raws(comp, 1, z, u, int(z[i]))[0]
            for i, comp in enumerate(spec.components)
        ]
    )


def migration_var(spec: MigrationSpec, z, u=None):
    """Covariance of M(z): diagonal under across-type independence."""
    z = np.asarray(z, dtype=np.int64)
    diag = []
    for i, comp in enumerate(spec.components):
        m1, m2 = _component_raws(comp, 2, z, u, int(z[i]))
        diag.append(m2 - m1 * m1)
    return np.diag(diag)


def migration_kappa(spec: MigrationSpec, z, u=None):
    """Fourth central moments E[(M_i - h_i)^4], one entry per type."""
    z = np.asarray(z, dtype=np.int64)
    out = []
    for i, comp in enumerate(spec.components):
        m1, m2, m3, m4 = _component_raws(comp, 4, z, u, int(z[i]))
        out.append(m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4)
    return np.array(out)


def migration_atoms(spec: MigrationSpec, i: int, z, u=None):
    """Support and probabilities of component i's adjustment M_i at z.

    Three branches: the atom 0 of no migration, the immigration atoms, and
    the emigration atoms where the law has ``atoms``.  Values are floats
    (they include negatives).  The probabilities fall short of 1 by the
    enumeration tail of unbounded immigration supports, and by the whole
    mass of a uniform or inverse-cube emigration branch, whose support
    grows with the count.
    """
    z = np.asarray(z, dtype=np.int64)
    comp = spec.components[i]
    zi = int(z[i])
    pn, pi, pe = comp.branch_probs(z, u, zi)
    values = [np.zeros(1)]
    probs = [np.array([pn])]
    if pi > 0.0:
        iv, ip = comp.immigration.atoms(z, u)
        values.append(iv.astype(float))
        probs.append(pi * ip)
    if pe > 0.0 and hasattr(comp.emigration, "atoms"):
        dv, dp = comp.emigration.atoms(zi)
        values.append(-dv.astype(float))
        probs.append(pe * dp)
    return np.concatenate(values), np.concatenate(probs)


def migration_abs_moments(spec: MigrationSpec, i: int, z, u, pairs) -> list:
    """E|M_i - a|^q of component i's adjustment at z, one per (q, a) in pairs,
    for q in {3/2, 2, 3} and real shifts a.

    Each moment sums over migration_atoms.  An emigration law without
    atoms adds its closed form, weighted by the emigration probability:
    E|-D - a|^q = E|D - (-a)|^q.
    """
    z = np.asarray(z, dtype=np.int64)
    vals, probs = migration_atoms(spec, i, z, u)
    comp = spec.components[i]
    zi = int(z[i])
    closed = getattr(comp.emigration, "abs_moment", None)
    pe = comp.branch_probs(z, u, zi)[2] if closed else 0.0
    out = []
    for q, a in pairs:
        moment = float(np.sum(probs * np.abs(vals - a) ** q))
        if pe > 0.0:
            moment += pe * closed(q, -a, zi)
        out.append(moment)
    return out


def cond_mean(spec: ModelSpec, z):
    """Conditional mean of the next state: m (z + h(z))."""
    z = np.asarray(z, dtype=np.int64)
    h = migration_mean(spec.migration, z, spec.size_weights())
    return spec.mean_matrix() @ (z + h)


def cond_var(spec: ModelSpec, z):
    """Conditional covariance of the next state."""
    z = np.asarray(z, dtype=np.int64)
    u = spec.size_weights()
    h = migration_mean(spec.migration, z, u)
    m = spec.mean_matrix()
    branching = odot(z + h, spec.cov_tensor())
    return branching + m @ migration_var(spec.migration, z, u) @ m.T


def sigma2(spec: ModelSpec, u, z) -> float:
    """Conditional variance of the weighted size u . Z' given Z = z.

    Under criticality (u^T m = u^T) this equals u^T cond_var u; the direct
    form below avoids the matrix products.
    """
    z = np.asarray(z, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    h = migration_mean(spec.migration, z, u)
    inner = odot(z + h, spec.cov_tensor()) + migration_var(spec.migration, z, u)
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

    ``u`` defaults to the spec's own left Perron weights when available;
    sigma2 needs some weight vector, so constant-migration specs on
    non-primitive mean matrices must pass one explicitly.
    """
    z = np.asarray(z, dtype=np.int64)
    if u is None:
        u = spec.size_weights()
    if u is None:
        try:
            u = spec.spectral().u
        except ValueError:
            u = np.full(spec.dim, 1.0 / spec.dim)
    mig = spec.migration
    return MomentReport(
        z=z.copy(),
        h=migration_mean(mig, z, u),
        cond_mean=cond_mean(spec, z),
        cond_cov=cond_var(spec, z),
        varM=migration_var(mig, z, u),
        sigma2=sigma2(spec, u, z),
        kappa=migration_kappa(mig, z, u),
    )
