#!/usr/bin/env python3
"""Gamma limit law for the rescaled population under a constant surplus.

A critical single-type model with a constant expected migration surplus
of 2 per step grows linearly on the event of survival, and Z_n / n
converges in law to a gamma distribution.  With reproduction variance
nu = 1 the limit is Gamma(shape 4, scale 1/2): shape = 2 u.c / nu and
scale = nu / 2.  This script derives those parameters from the model's
laws, checks that the classifier's exponents along the growth ray are the
same, simulates an ensemble, and compares the empirical distribution of
Z_n / n against the gamma reference with a Kolmogorov-Smirnov check.
"""
from mbpm import (
    ecdf,
    estimate_exponents,
    gamma_cdf,
    ks_statistic,
    load_spec,
    params_from_spec,
    run_ensemble,
)

spec = load_spec("specs/gamma_single_type.json")

# ---------------------------------------------------------------------------
# limit parameters, exact from the laws' large-size forms, which the
# classifier's exponents along the growth ray read too
# ---------------------------------------------------------------------------

params = params_from_spec(spec)
print(f"exact:  drift exponent alpha = {params.alpha}, u.c = {params.c_dot_u}, nu = {params.nu}")
print(f"        gamma shape = {params.gamma_shape}, scale = {params.gamma_scale}")

exponents = estimate_exponents(spec)
print(
    f"classifier: alpha = {exponents['alpha']}, u.c = {exponents['c_dot_u']}, "
    f"nu = {exponents['nu']}, beta = {exponents['beta']}"
)
assert (exponents["alpha"], exponents["c_dot_u"], exponents["nu"], exponents["beta"]) == (
    params.alpha, params.c_dot_u, params.nu, params.beta)

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
