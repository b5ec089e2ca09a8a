#!/usr/bin/env python3
"""Certifying that an emigration-dominated model cannot grow.

When each type sheds a uniform share of itself on every emigration
event, the expected loss grows linearly with the population while the
reproduction stays critical, so no trajectory escapes to infinity.
This script shows the two complementary certificates the package
offers: the analytic classifier verdict, and a Monte Carlo bound on
the probability that the population norm ever exceeds a threshold,
with a Wilson score interval around the observed frequency.
"""
import numpy as np

from mbpm import (
    classify_growth,
    estimate_explosion,
    load_spec,
    run_ensemble,
    wilson_interval,
)

spec = load_spec("specs/pure_emigration.json")

# ---------------------------------------------------------------------------
# analytic certificate
# ---------------------------------------------------------------------------

verdict = classify_growth(spec)
print(f"classifier verdict: {verdict.verdict}  [{verdict.condition}]")
print(f"drift ratios along the ray: {np.array2string(np.asarray(verdict.ratio_values), precision=3)}")

# ---------------------------------------------------------------------------
# Monte Carlo certificate: track full paths from a sizable start
# ---------------------------------------------------------------------------

n, R = 500, 1000
print(f"\nsimulating {R} paths of {n} steps from z0 = {list(spec.initial.state)} ...")
ens = run_ensemble(spec, n=n, R=R, master_seed=8675309, steps=range(n + 1))

norms = np.abs(ens.states).sum(axis=2)  # (R, n+1) l1 norm at each step
running_max = norms.max(axis=1)
print(f"largest norm ever reached: {int(running_max.max())}")
print(f"median terminal norm:      {float(np.median(norms[:, -1])):.1f}")
print(f"fraction absorbed at zero: {float((norms[:, -1] == 0).mean()):.3f}")

# excursion probability: chance that the norm EVER exceeds a threshold,
# with a 95% Wilson interval; zero observed hits still yields an honest
# nonzero upper bound
print(f"\n{'threshold':>10} {'P(max norm > K)':>16} {'95% interval':>20}")
for K in (25, 40, 100, 1000):
    hits = int((running_max > K).sum())
    low, high = wilson_interval(hits, R)
    print(f"{K:10d} {hits / R:16.4f}   [{low:.4f}, {high:.4f}]")

# terminal-norm version of the same certificate, via the packaged helper
est = estimate_explosion(ens, 1000)
print(f"\nterminal norm > 1000: estimate {est.value:.4f}, upper bound {est.ci95[1]:.4f}")
assert est.value == 0.0 and est.ci95[1] < 0.01
print("PASS: no growth, analytically and empirically")
