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
so integer cases come out exact in floating point.

params_from_spec reads the four constants off the document's laws along
the ray z = s v (v the right Perron vector, u . v = 1, so u . z = s): the
top term of u . h(s v) gives alpha and u . c, and the top term of
sigma2(s v) gives beta and nu (moments.leading_moments, which the growth
classifier reads too).  Every law states its large-size form as a
(coeff, exponent) pair (see laws), so the constants are exact; nothing is
fitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra
from .classify import ALPHA_TILDE, DELTA, check_hypothesis_C
from .model import ModelSpec
from .moments import leading_moments, offspring_diffusion

_BETA_TOL = 1e-9


@dataclass(frozen=True)
class LimitParams:
    """Growth constants of a model plus derived constants.

    alpha is the growth exponent of the mean adjustment (u . h(z) ~
    (u . c) (u . z)^alpha), c its coefficient vector, beta and nu the
    exponent and coefficient of the one-step variance sigma2(z) ~
    nu (u . z)^beta.  The Feller coefficients are those of the diffusion
    limit (None where it does not exist).  The gamma and L1 constants are
    derived from the growth constants.
    """

    alpha: float
    c: np.ndarray
    c_dot_u: float
    beta: float
    nu: float
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
        """Constant of the mean-normalized a.s./L1 limit: ((u.c)(1-alpha))^{1/(1-alpha)}.

        Times n^{1/(1-alpha)}, it is the closed-form large-n equivalent of a_n.
        """
        return (self.c_dot_u * (1.0 - self.alpha)) ** (1.0 / (1.0 - self.alpha))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "c": np.asarray(self.c, dtype=float).tolist(),
            "c_dot_u": self.c_dot_u,
            "beta": self.beta,
            "nu": self.nu,
            "delta": DELTA,
            "delta1": None,  # report keys of the retired fluctuation fits
            "delta2": None,
            "alpha_tilde": ALPHA_TILDE,
            "gamma_shape": self.gamma_shape,
            "gamma_scale": self.gamma_scale,
            "l1_constant": self.l1_constant,
            "feller_drift": self.feller_drift,
            "feller_diffusion": self.feller_diffusion,
        }


def params_from_spec(spec: ModelSpec) -> LimitParams:
    """LimitParams for a model, exact from its laws.

    The growth constants are the top terms of moments.leading_moments; a
    ValueError names a model whose constants do not exist or lie outside
    the theory: top mean terms that cancel in u . c, a variance that grows
    like a log at its top, or a LimitParams refusal.  The diffusion
    coefficients are attached whenever the large-size migration limits
    exist.
    """
    constants = leading_moments(spec)
    if constants.pop("cancels"):
        raise ValueError(
            f"the leading mean migration terms cancel at exponent {constants['alpha']:g}, "
            "so the drift's order is not stated by the laws' leading forms"
        )
    if math.isinf(constants["nu"]):
        raise ValueError(
            "the one-step variance grows like a log at its top (inverse-cube "
            "emigration), so no power nu s^beta states it"
        )
    drift = diffusion = None
    try:
        drift, diffusion = feller_params(spec)
    except ValueError:
        pass
    return LimitParams(**constants, feller_drift=drift, feller_diffusion=diffusion)


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
    spectral = spec.spectral()
    if not algebra.is_critical(spectral.rho):
        raise ValueError("diffusion scaling limit requires a critical mean matrix")
    lims = check_hypothesis_C(spec)
    if lims is None:
        raise ValueError("migration parameters do not converge at large sizes")
    drift_vec = lims["a"] * lims["q"] - lims["b"] * lims["r"]
    return algebra.dot(spectral.u, drift_vec), offspring_diffusion(spec, spectral)


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

