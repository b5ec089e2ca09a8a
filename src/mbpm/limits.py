"""Normalizing sequences and limit laws for near-critical growth.

When growth is possible, the deterministic recursion a_{k+1} = a_k +
(u.c) a_k^alpha tracks the typical size of u . Z_k.  Around it live three
limit statements this module parameterizes:

  * gamma regime (variance exponent beta = 1 + alpha, nu < 2 u.c): the
    (1 - alpha) power of the weighted size, normalized by n, is
    asymptotically gamma distributed;
  * normal fluctuations (3 alpha - 1 <= beta < 1 + alpha): the size
    recentred at a_n and scaled by Lambda_n is asymptotically standard
    normal on the survival event;
  * diffusion scaling: with migration parameters converging at large
    sizes, n^{-1} Z_{floor(nt)} converges weakly to a square-root
    diffusion in the Perron direction.

LimitParams holds the growth constants alpha, u.c, beta and nu and
derives the gamma and L1 constants from them; a_seq, lambda_n and those
constants are evaluated exactly as displayed in their defining formulas,
so calibrated integer cases come out exact in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra
from .classify import _ALPHA_TILDE, _DELTA, check_hypothesis_C, estimate_exponents
from .model import ModelSpec, Trajectory

_BETA_TOL = 1e-9


@dataclass(frozen=True)
class LimitParams:
    """Hypothesis parameters of a calibrated model plus derived constants.

    alpha is the growth exponent of the mean adjustment (u . h(z) ~
    (u . c) (u . z)^alpha), c its coefficient vector, beta and nu the
    exponent and coefficient of the one-step variance sigma2(z) ~
    nu (u . z)^beta.  delta1 and delta2 are the fitted fluctuation-side
    exponents, and the Feller coefficients those of the diffusion limit
    (None where they do not exist).  The gamma and L1 constants are
    derived from the growth constants.
    """

    alpha: float
    c: np.ndarray
    c_dot_u: float
    beta: float
    nu: float
    delta1: Optional[float] = None
    delta2: Optional[float] = None
    feller_drift: Optional[float] = None
    feller_diffusion: Optional[float] = None

    def __post_init__(self):
        if self.alpha >= 1.0:
            raise ValueError("alpha must be < 1")
        if self.c_dot_u <= 0.0:
            raise ValueError("u . c must be positive")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.beta > 1.0 + self.alpha + _BETA_TOL:
            raise ValueError("beta must be <= 1 + alpha")

    @property
    def _gamma_regime(self) -> bool:
        """beta = 1 + alpha and nu < 2 u.c: growth has positive probability
        and the gamma limit exists."""
        return abs(self.beta - (1.0 + self.alpha)) <= _BETA_TOL and self.nu < 2.0 * self.c_dot_u

    @property
    def gamma_shape(self) -> Optional[float]:
        """Shape (2 (u.c) - nu alpha) / (nu (1 - alpha)) of the limiting gamma law."""
        if not self._gamma_regime:
            return None
        return (2.0 * self.c_dot_u - self.nu * self.alpha) / (self.nu * (1.0 - self.alpha))

    @property
    def gamma_scale(self) -> Optional[float]:
        """Scale nu (1 - alpha)^2 / 2 of the limiting gamma law."""
        if not self._gamma_regime:
            return None
        return self.nu * (1.0 - self.alpha) ** 2 / 2.0

    @property
    def l1_constant(self) -> float:
        """Constant of the mean-normalized a.s./L1 limit: ((u.c)(1-alpha))^{1/(1-alpha)}."""
        return (self.c_dot_u * (1.0 - self.alpha)) ** (1.0 / (1.0 - self.alpha))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "c": np.asarray(self.c, dtype=float).tolist(),
            "c_dot_u": self.c_dot_u,
            "beta": self.beta,
            "nu": self.nu,
            "delta": _DELTA,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "alpha_tilde": _ALPHA_TILDE,
            "gamma_shape": self.gamma_shape,
            "gamma_scale": self.gamma_scale,
            "l1_constant": self.l1_constant,
            "feller_drift": self.feller_drift,
            "feller_diffusion": self.feller_diffusion,
        }


def params_from_spec(spec: ModelSpec, calibrated: Optional[dict] = None) -> LimitParams:
    """LimitParams for a model, from calibration or fitted exponents.

    calibrated, when given, is a mapping with keys among {"alpha", "c",
    "nu", "beta"} (the limit block of a model document) and takes
    precedence over the slope fits of classify.estimate_exponents; beta
    defaults to 1 + alpha.  The diffusion coefficients are attached
    whenever the large-size migration limits exist.
    """
    calibrated = dict(calibrated or {})
    u = spec.spectral().u
    fitted = {}
    need_fit = any(k not in calibrated for k in ("alpha", "c", "nu"))
    if need_fit:
        fitted = estimate_exponents(spec)
        if fitted["alpha"] is None or fitted["nu"] is None:
            raise ValueError(
                "cannot fit growth exponents (drift or variance not positive "
                "along the probe ray); pass calibrated parameters"
            )
    alpha = float(calibrated.get("alpha", fitted.get("alpha", 0.0)))
    if "c" in calibrated:
        c = np.atleast_1d(np.asarray(calibrated["c"], dtype=float))
    else:
        # distribute the fitted u.c over types along the Perron direction
        c = fitted["c_dot_u"] * spec.spectral().v
    nu = float(calibrated.get("nu", fitted.get("nu", 0.0)))
    beta = calibrated.get("beta", fitted.get("beta"))
    drift = diffusion = None
    try:
        drift, diffusion = feller_params(spec)
    except ValueError:
        pass
    return LimitParams(
        alpha=alpha,
        c=c,
        c_dot_u=float(u @ c),
        beta=1.0 + alpha if beta is None else float(beta),
        nu=nu,
        delta1=fitted.get("delta1"),
        delta2=fitted.get("delta2"),
        feller_drift=drift,
        feller_diffusion=diffusion,
    )


def a_seq(c_dot_u: float, alpha: float, n: int):
    """Values a_0 .. a_n of the size recursion a_{k+1} = a_k + (u.c) a_k^alpha, a_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = np.empty(n + 1)
    a[0] = x = 1.0
    for k in range(n):
        step = c_dot_u * x**alpha
        if not step > 0.0:
            raise ValueError(f"drift increment nonpositive at x={x!r}: {step!r}")
        x += step
        a[k + 1] = x
    return a


def a_asymptotic(c_dot_u: float, alpha: float, n: int) -> float:
    """Closed-form large-n equivalent ((u.c)(1-alpha) n)^{1/(1-alpha)} of a_n."""
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    if c_dot_u <= 0.0:
        raise ValueError("u . c must be positive")
    return (c_dot_u * (1.0 - alpha) * n) ** (1.0 / (1.0 - alpha))


def lambda_n(params: LimitParams, n: int) -> float:
    """Fluctuation scale Lambda_n of the normal limit.

    Two branches by the variance exponent: at the lower edge
    beta = 3 alpha - 1 the scale is

        nu^{1/2} ((u.c)(1-alpha))^{(3 alpha - 1)/(2 (1-alpha))}
            n^{alpha/(1-alpha)} (log n)^{1/2},

    and for beta > 3 alpha - 1 it is

        (nu (beta - 3 alpha + 1)^{-1} (u.c)^{beta/(1-alpha)}
            ((1-alpha) n)^{(beta - alpha + 1)/(1-alpha)})^{1/2}.
    """
    alpha, beta, nu, cu = params.alpha, params.beta, params.nu, params.c_dot_u
    if beta < 3.0 * alpha - 1.0 - _BETA_TOL or beta > alpha + 1.0 + _BETA_TOL:
        raise ValueError("beta must lie in [3 alpha - 1, alpha + 1]")
    if n < 2:
        raise ValueError("n must be >= 2")
    one = 1.0 - alpha
    if abs(beta - (3.0 * alpha - 1.0)) <= _BETA_TOL:
        return (
            math.sqrt(nu)
            * (cu * one) ** ((3.0 * alpha - 1.0) / (2.0 * one))
            * float(n) ** (alpha / one)
            * math.sqrt(math.log(n))
        )
    return math.sqrt(
        nu / (beta - 3.0 * alpha + 1.0) * cu ** (beta / one) * (one * n) ** ((beta - alpha + 1.0) / one)
    )


def feller_params(spec: ModelSpec):
    """Drift and diffusion coefficient of the scaling-limit SDE.

    Requires a critical primitive mean matrix and converging migration
    parameters; then drift = u . (a q - b r) at the limits and diffusion
    = u^T (v odot Sigma) u with Sigma the offspring covariance block.
    """
    m = spec.mean_matrix()
    if algebra.criticality(m) != "critical":
        raise ValueError("diffusion scaling limit requires a critical mean matrix")
    lims = check_hypothesis_C(spec)
    if lims is None:
        raise ValueError("migration parameters do not converge at large sizes")
    spectral = spec.spectral()
    u, v = spectral.u, spectral.v
    drift_vec = lims["a"] * lims["q"] - lims["b"] * lims["r"]
    drift = float(u @ drift_vec)
    diffusion = float(u @ algebra.odot(v, spec.cov_tensor()) @ u)
    return drift, diffusion


def euler_maruyama(
    drift: float,
    diffusion: float,
    T: float,
    dt: float = 1e-3,
    rng=None,
    n_paths: int = 1,
):
    """Explicit Euler paths of dY = drift dt + sqrt(diffusion * max(Y, 0)) dW, Y_0 = 0.

    The square-root coefficient is not Lipschitz at 0, so the argument of
    the root is clamped at 0 each step; transiently negative values are
    kept (not reflected).  Returns (times, values) with values of shape
    (n_paths, len(times)).
    """
    if dt <= 0.0 or T < 0.0:
        raise ValueError("need dt > 0 and T >= 0")
    if diffusion < 0.0:
        raise ValueError("diffusion coefficient must be nonnegative")
    steps = int(round(T / dt))
    times = np.arange(steps + 1) * dt
    values = np.zeros((n_paths, steps + 1))
    if diffusion == 0.0:
        values[:] = drift * times
        return times, values
    if rng is None:
        raise ValueError("a random generator is required when diffusion > 0")
    y = np.zeros(n_paths)
    sq = math.sqrt(dt)
    for k in range(steps):
        noise = rng.standard_normal(n_paths)
        y = y + drift * dt + np.sqrt(diffusion * np.maximum(y, 0.0)) * sq * noise
        values[:, k + 1] = y
    return times, values


@dataclass(frozen=True)
class ScaledPath:
    """A trajectory rescaled diffusively: values of Z_{floor(n t)} / n on a grid."""

    times: np.ndarray
    values: np.ndarray  # (len(times), p)
    n: int

    def weighted(self, u):
        """Scalar reduction u . values, one entry per grid time."""
        return self.values @ np.asarray(u, dtype=float)


def scaled_path(traj: Trajectory, n: int, T: float, grid: int = 200) -> ScaledPath:
    """Sample the step function t -> Z_{floor(n t)} / n on a uniform grid over [0, T]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = np.asarray(traj.states, dtype=float)
    need = math.floor(n * T)
    if states.shape[0] <= need:
        raise ValueError(
            f"trajectory has {states.shape[0] - 1} steps, needs at least {need}"
        )
    times = np.linspace(0.0, T, grid + 1)
    idx = np.floor(n * times).astype(np.int64)
    return ScaledPath(times=times, values=states[idx] / float(n), n=n)
