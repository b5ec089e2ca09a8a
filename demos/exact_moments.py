#!/usr/bin/env python3
"""Exact one-step moments of a two-type branching model with migration.

Builds a critical two-type model in which every parent produces
Poisson(0.5) children of each type, type 0 receives Poisson-sized
immigration batches and loses a uniform share on emigration, and type 1
receives a fixed batch of 3 and loses a truncated-geometric share.
Prints the closed-form conditional mean and covariance of the next
generation and then verifies both against a large Monte Carlo batch.
"""
import numpy as np

from mbpm import (
    cond_mean,
    cond_var,
    load_spec,
    migration_mean,
    moment_check,
    sigma2,
)

spec = load_spec("specs/two_type_mixed.json")
z = np.array([50, 30])

print("mean matrix (column j = mean children of a type-j parent):")
print(spec.mean_matrix())

sd = spec.spectral()
print(f"\nPerron root rho = {sd.rho:.12f}")
print(f"left weights  u = {sd.u}")
print(f"right weights v = {sd.v}")

# ---------------------------------------------------------------------------
# closed-form moments at z = (50, 30)
# ---------------------------------------------------------------------------

direct = sigma2(spec, z)
cov = cond_var(spec, z)
print(f"\nstate z = {z.tolist()}")
print(f"migration drift h(z)       = {migration_mean(spec, z)}")
print(f"conditional mean m(z + h)  = {cond_mean(spec, z)}")
print("conditional covariance:")
print(cov)
print(f"size variance sigma^2(z)   = {direct:.6f}")

# consistency: at criticality the variance of the size u.Z' (u the left
# weights, which sigma2 reads from the model) can also be read off the
# conditional covariance matrix
via_cov = float(sd.u @ cov @ sd.u)
print(f"sigma^2 via covariance     = {via_cov:.6f} (diff {abs(direct - via_cov):.2e})")

# ---------------------------------------------------------------------------
# Monte Carlo verification
# ---------------------------------------------------------------------------

print("\nverifying with 200,000 one-step samples ...")
check = moment_check(spec, z, N=200_000, seed=12345)
print(f"max |mean error|      = {check.max_mean_sigmas:.2f} standard errors")
print(f"max |covariance error| = {check.max_cov_sigmas:.2f} standard errors")
print("PASS" if check.passed else "FAIL")
