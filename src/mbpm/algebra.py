"""Vector and matrix operations for mean-matrix analysis.

Conventions: the mean matrix ``m`` has ``m[i, j]`` equal to the expected
number of type-``i`` children of one type-``j`` parent (columns indexed by
parent type), so conditional means act by left multiplication, m @ z.  The
weight vector ``u`` is the left eigenvector, ``v`` the right one.
Perron-Frobenius data is only defined for primitive nonnegative matrices;
everything here checks that first and fails loudly rather than returning
eigendata of the wrong eigenvalue.
"""
from __future__ import annotations

import dataclasses

import numpy as np

_POWER_TOL = 1e-12
_POWER_MAXIT = 100_000
# Distance from 1 within which a Perron root counts as critical.
_CRITICAL_TOL = 1e-9


def odot(z, mats):
    """Weighted sum ``sum_i z[i] * mats[i]`` of per-type matrices.

    ``mats`` has shape (p, p, p): ``mats[i]`` is the matrix attached to
    type ``i``.  Returns a (p, p) matrix.
    """
    z = np.asarray(z, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if z.ndim != 1:
        raise ValueError("odot expects a vector of weights")
    if mats.ndim != 3 or mats.shape[0] != z.shape[0]:
        raise ValueError(
            "odot expects one square matrix per vector component, got "
            f"weights of length {z.shape[0]} and matrix block {mats.shape}"
        )
    return np.tensordot(z, mats, axes=(0, 0))


def is_primitive(m) -> bool:
    """Whether a nonnegative square matrix is primitive.

    Uses the adjacency pattern only: ``m`` is primitive iff the boolean
    power B^((p-1)^2 + 1) is everywhere positive (Wielandt's bound, which
    is also necessary at that exact power).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("is_primitive expects a square matrix")
    if (m < 0).any():
        raise ValueError("is_primitive expects a nonnegative matrix")
    p = m.shape[0]
    b = m > 0
    if p == 1:
        return bool(b[0, 0])
    target = (p - 1) ** 2 + 1
    # Square-and-multiply on the boolean semiring.
    result = np.eye(p, dtype=bool)
    base = b
    k = target
    while k:
        if k & 1:
            result = (result.astype(np.uint8) @ base.astype(np.uint8)) > 0
        base = (base.astype(np.uint8) @ base.astype(np.uint8)) > 0
        k >>= 1
    return bool(result.all())


@dataclasses.dataclass(frozen=True)
class SpectralData:
    """Perron root and eigenvectors of a primitive mean matrix.

    ``u`` is the left eigenvector (u^T m = rho u^T) normalized to sum 1;
    ``v`` is the right eigenvector (m v = rho v) normalized so u . v = 1.
    """

    rho: float
    u: np.ndarray
    v: np.ndarray


def perron(m) -> SpectralData:
    """Perron root and eigenvector pair of a primitive matrix.

    Power iteration on m^T (for ``u``) and m (for ``v``); primitivity
    guarantees convergence and the iterates stay positive.
    """
    m = np.asarray(m, dtype=float)
    if not is_primitive(m):
        raise ValueError("perron requires a primitive nonnegative matrix")
    p = m.shape[0]

    def _iterate(a):
        x = np.full(p, 1.0 / p)
        lam = 1.0
        for _ in range(_POWER_MAXIT):
            y = a @ x
            lam_new = y.sum()
            if lam_new <= 0:
                raise ValueError("power iteration collapsed; matrix is degenerate")
            y /= lam_new
            if (np.abs(y - x).max() < _POWER_TOL
                    and abs(lam_new - lam) < _POWER_TOL * max(1.0, lam)):
                return lam_new, y
            x, lam = y, lam_new
        raise ValueError(f"power iteration did not converge in {_POWER_MAXIT} steps")

    rho_u, u = _iterate(m.T)
    rho_v, v = _iterate(m)
    rho = 0.5 * (rho_u + rho_v)
    u = u / u.sum()
    v = v / float(u @ v)
    return SpectralData(rho=float(rho), u=u, v=v)


def is_critical(rho: float) -> bool:
    """Whether the Perron root rho counts as 1."""
    return abs(rho - 1.0) <= _CRITICAL_TOL


def criticality(m) -> str:
    """Classify the Perron root as subcritical / critical / supercritical."""
    rho = perron(m).rho
    if is_critical(rho):
        return "critical"
    return "supercritical" if rho > 1.0 else "subcritical"
