#!/usr/bin/env python3
"""Growth versus extinction for critical models with state-dependent migration.

At criticality the branching mechanism alone cannot sustain growth; what
decides the long-run behaviour is the balance between the migration
drift h(z) and the size fluctuation sigma^2(z) at large population
sizes.  The classifier compares the limit theta of the ratio
2 (u.z)(u.h(z)) / sigma^2(z) along a ray of growing states, u the left
Perron weights, against the threshold 1: theta above it supports
unbounded growth, theta below it forces eventual collapse to the
absorption region.  theta is exact, from the laws' large-size forms; the
verdict carries it with the growth exponents of the drift and the
fluctuation, and the ratio itself at probe states on the ray.

Four calibrated models illustrate the regimes:
  * constant immigration surplus  -> growth (ratio tends to 4)
  * square-root immigration drift -> growth (ratio diverges)
  * uniform emigration share      -> no growth (emigration dominates)
  * mixed two-type migration      -> no growth (ratio stays below 1)
"""
import numpy as np

from mbpm import classify_growth, load_spec, migration_mean, sigma2

cases = [
    ("constant surplus", "specs/gamma_single_type.json"),
    ("sqrt drift", "specs/sqrt_drift_single_type.json"),
    ("uniform emigration", "specs/pure_emigration.json"),
    ("two-type mixed", "specs/two_type_mixed.json"),
]

for name, path in cases:
    spec = load_spec(path)
    result = classify_growth(spec)
    print(f"=== {name} ({path}) ===")
    print(f"verdict: {result.verdict}  [{result.condition}]")
    print(f"probe sizes:  {np.array2string(np.asarray(result.probe_sizes), precision=0)}")
    print(f"drift ratios: {np.array2string(np.asarray(result.ratio_values), precision=3)}")
    exponents = result.exponents
    if exponents["alpha"] is not None:
        print(
            f"drift ~ c*s^alpha with alpha = {exponents['alpha']:.3f}, "
            f"u.c = {exponents['c_dot_u']:.3f}; "
            f"fluctuation sigma^2 ~ nu*s^beta with beta = {exponents['beta']:.3f}"
        )
        print(f"ratio limit theta = {exponents['ratio_limit']:.3f}")
    print()

# ---------------------------------------------------------------------------
# the same machinery exposes the raw ingredients: migration drift and
# size fluctuation along a ray, for any model
# ---------------------------------------------------------------------------

spec = load_spec("specs/gamma_single_type.json")
spectral = spec.spectral()
print("constant-surplus model along the growth ray:")
print(f"{'size':>8} {'u.h(z)':>10} {'sigma^2(z)':>12} {'ratio':>8}")
for m in (10, 100, 1000, 10000):
    z = np.rint(m * spectral.v).astype(np.int64)
    size, uh, s2 = spectral.u @ z, spectral.u @ migration_mean(spec, z), sigma2(spec, z)
    print(f"{size:8.0f} {uh:10.4f} {s2:12.2f} {2.0 * size * uh / s2:8.3f}")
