#!/usr/bin/env python3
"""Gamma limit law for the rescaled population under a constant surplus.

A critical single-type model with a constant expected migration surplus
of 2 per step grows linearly on the event of survival, and Z_n / n
converges in law to a gamma distribution.  With reproduction variance
nu = 1 the limit is Gamma(shape 4, scale 1/2): shape = 2 u.c / nu and
scale = nu / 2.  This script computes those parameters from the model,
simulates an ensemble, and compares the empirical distribution of
Z_n / n against the gamma reference with a Kolmogorov-Smirnov check.
"""
import numpy as np

from mbpm import (
    LimitParams,
    ecdf,
    estimate_exponents,
    gamma_cdf,
    ks_statistic,
    load_spec,
    run_ensemble,
)

spec = load_spec("specs/gamma_single_type.json")

# ---------------------------------------------------------------------------
# limit parameters, two ways: exact from the construction, and fitted
# from the moment structure along the growth ray
# ---------------------------------------------------------------------------

params = LimitParams(alpha=0.0, c=np.array([2.0]), c_dot_u=2.0, beta=1.0, nu=1.0)
print(f"exact:  drift exponent alpha = 0, u.c = {params.c_dot_u}, nu = {params.nu}")
print(f"        gamma shape = {params.gamma_shape}, scale = {params.gamma_scale}")

fitted = estimate_exponents(spec)
print(
    f"fitted: alpha = {fitted['alpha']:.4f}, u.c = {fitted['c_dot_u']:.4f}, "
    f"nu = {fitted['nu']:.4f}, beta = {fitted['beta']:.4f}"
)

# ---------------------------------------------------------------------------
# ensemble of trajectories started from a single individual
# ---------------------------------------------------------------------------

n, R = 400, 1200
print(f"\nsimulating {R} trajectories of length {n} ...")
ens = run_ensemble(spec, n=n, R=R, master_seed=60221)
scaled = ens.terminal[:, 0] / float(n)
print(f"fraction absorbed at zero: {ens.summary()['fraction_null']:.4f}")
print(f"sample mean of Z_n/n = {scaled.mean():.4f} (gamma mean = {params.gamma_shape * params.gamma_scale})")

ks = ks_statistic(scaled, lambda x: gamma_cdf(x, params.gamma_shape, params.gamma_scale))
print(f"KS distance to Gamma(4, 1/2): {ks:.4f}")

# side by side at a few reference points
print(f"\n{'x':>6} {'empirical':>10} {'gamma':>8}")
emp = ecdf(scaled)
for x in (0.5, 1.0, 2.0, 3.0, 5.0):
    print(f"{x:6.1f} {float(emp(x)):10.4f} {gamma_cdf(x, params.gamma_shape, params.gamma_scale):8.4f}")

assert ks < 0.08, "empirical law strayed from the gamma reference"
print("\nPASS: empirical law matches the gamma limit")
