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
import math

import numpy as np

_POWER_MAXIT = 100_000
# Distance from 1 within which a Perron root counts as critical.
_CRITICAL_TOL = 1e-9


def odot(z, mats):
    """Weighted sum ``sum_i z[i] * mats[i]`` of per-type matrices.

    ``mats`` has shape (p, p, p): ``mats[i]`` is the matrix attached to
    type ``i``.  Returns a (p, p) matrix, each entry formed by ``dot``.
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
    return dot(np.moveaxis(mats, 0, -1), z)


def dot(a, x):
    """The sums a @ x over the last axis, each correctly rounded, so the
    same bits on every host, which a BLAS product does not promise: each
    product is the rounded product and its rounding error, which Dekker's
    product finds exactly from the factors' halves (``_halves``; factors
    below 1e300 in magnitude), and ``math.fsum`` rounds each sum of these
    once.  A float where a is a vector, else an array of a's shape without
    its last axis."""
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    (a_hi, a_lo), (x_hi, x_lo) = _halves(a), _halves(x)
    prod = a * x
    err = a_lo * x_lo - (((prod - a_hi * x_hi) - a_lo * x_hi) - a_hi * x_lo)
    terms = np.concatenate((prod, err), axis=-1)
    sums = [math.fsum(row) for row in terms.reshape(-1, terms.shape[-1]).tolist()]
    return sums[0] if terms.ndim == 1 else np.reshape(sums, terms.shape[:-1])


def _halves(a):
    """a as hi + lo, each of at most 26 significant bits (Veltkamp's split)."""
    hi = 134217729.0 * a  # (2**27 + 1) a
    hi = hi - (hi - a)
    return hi, a - hi


def weigh(z, u):
    """The sums z @ u over the last axis of z, formed by numpy's elementwise
    products and sums, which round alike on every host, where a BLAS
    product may fuse them as its kernel chooses.  The one rule for a
    Perron-weighted sum u . z, of one state or of a stack of them."""
    z = np.asarray(z)
    out = z[..., 0] * u[0]
    for k in range(1, len(u)):
        out = out + z[..., k] * u[k]
    return out


def form(u, a) -> float:
    """The quadratic form u^T a u, as (u^T a) u, by ``dot``."""
    return dot(dot(np.asarray(a, dtype=float).T, u), u)


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
    # numpy's matmul of boolean matrices is the (or, and) product, which
    # cannot wrap as a count would
    p = m.shape[0]
    return bool(np.linalg.matrix_power(m > 0, (p - 1) ** 2 + 1).all())


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
    guarantees convergence and the iterates stay positive.  Each step is
    formed by ``dot``, so every iterate is the same to the last bit on
    every host.  The iteration stops at the first iterate that repeats an
    earlier one (a fixed point, or a cycle of floats a few ulps wide), so
    the result is a point the iteration returns to, not wherever a
    tolerance happened to stop it; it refuses after ``_POWER_MAXIT`` steps.
    """
    m = np.asarray(m, dtype=float)
    if not is_primitive(m):
        raise ValueError("perron requires a primitive nonnegative matrix")

    def _step(a, x):
        y = dot(a, x)
        lam = math.fsum(y)
        if lam <= 0:
            raise ValueError("power iteration collapsed; matrix is degenerate")
        return lam, y / lam

    def _iterate(a):
        x = np.full(len(a), 1.0 / len(a))
        seen = set()
        for _ in range(_POWER_MAXIT):
            lam, x = _step(a, x)
            if x.tobytes() in seen:
                return lam, x
            seen.add(x.tobytes())
        raise ValueError(f"power iteration did not repeat an iterate in {_POWER_MAXIT} steps")

    rho_u, u = _iterate(m.T)
    rho_v, v = _iterate(m)
    u = u / math.fsum(u)
    v = v / dot(u, v)
    return SpectralData(rho=0.5 * (rho_u + rho_v), u=u, v=v)


def is_critical(rho: float) -> bool:
    """Whether the Perron root rho counts as 1."""
    return abs(rho - 1.0) <= _CRITICAL_TOL


def criticality(m) -> str:
    """Classify the Perron root as subcritical / critical / supercritical."""
    rho = perron(m).rho
    if is_critical(rho):
        return "critical"
    return "supercritical" if rho > 1.0 else "subcritical"
