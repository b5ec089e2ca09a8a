#!/usr/bin/env python3
"""Gaussian fluctuations around the deterministic growth profile.

When the migration surplus decays with population size (here the
expected surplus at size s is sqrt(s)), the surviving population still
grows without bound, but deterministically to first order: Z_n tracks
the profile a_n driven by the drift recursion a_{k+1} = a_k + sqrt(a_k).
The fluctuation Z_n - a_n, scaled by a power-law factor lambda_n, is
asymptotically standard normal.  This script builds a_n and lambda_n,
simulates an ensemble, and tests the standardized terminal values
against the normal reference.
"""
from mbpm import (
    a_asymptotic,
    a_seq,
    ks_statistic,
    lambda_n,
    load_spec,
    normal_cdf,
    params_from_spec,
    run_ensemble,
)

spec = load_spec("specs/sqrt_drift_single_type.json")

# ---------------------------------------------------------------------------
# deterministic profile: exact recursion versus closed-form asymptote
# ---------------------------------------------------------------------------

profile = a_seq(1.0, 0.5, 100_000)  # expected surplus sqrt(s) at size s
print("growth profile under drift sqrt(s):")
print(f"{'n':>8} {'a_n':>14} {'asymptote':>14} {'ratio':>8}")
for k in (10, 100, 1000, 10_000, 100_000):
    asym = a_asymptotic(1.0, 0.5, k)
    print(f"{k:8d} {profile[k]:14.2f} {asym:14.2f} {profile[k] / asym:8.5f}")

# ---------------------------------------------------------------------------
# fluctuation scale: the laws give alpha = 1/2, beta = 1, nu = 1, which
# puts the model in the power branch where lambda_n = n exactly
# ---------------------------------------------------------------------------

params = params_from_spec(spec)
n = 800
lam = lambda_n(params, n)
a_n = float(profile[n])
print(f"\nat n = {n}: a_n = {a_n:.1f}, lambda_n = {lam:.1f}")

# ---------------------------------------------------------------------------
# ensemble check of the standardized fluctuations
# ---------------------------------------------------------------------------

R = 1200
print(f"simulating {R} trajectories of length {n} ...")
ens = run_ensemble(spec, n=n, R=R, master_seed=14142)
w = (ens.terminal[:, 0] - a_n) / lam
print(f"standardized mean = {w.mean():+.4f}, standard deviation = {w.std(ddof=1):.4f}")

ks = ks_statistic(w, normal_cdf)
print(f"KS distance to N(0, 1): {ks:.4f}")

print(f"\n{'x':>6} {'empirical P(W <= x)':>20} {'normal':>8}")
for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
    print(f"{x:6.1f} {float((w <= x).mean()):20.4f} {normal_cdf(x):8.4f}")

assert ks < 0.10, "standardized fluctuations strayed from the normal reference"

# ---------------------------------------------------------------------------
# first-order growth in mean: with alpha = 1/2 the profile is quadratic,
# a_n ~ n^2 / 4, and E[Z_n] / n^2 approaches the same constant
# ---------------------------------------------------------------------------

target = params.l1_constant
observed = float(ens.terminal[:, 0].mean()) / n**2
print(f"\nmean growth rate: E[Z_n]/n^2 = {observed:.4f} (limit {target})")
assert abs(observed - target) / target < 0.10

print("\nPASS: fluctuations are asymptotically normal")
