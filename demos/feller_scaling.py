#!/usr/bin/env python3
"""Diffusion approximation of the rescaled population path.

Viewed on the right scale, the whole trajectory (not just its endpoint)
of a critical model with constant migration surplus converges to a
Feller branching diffusion with immigration:

    dY = b dt + sqrt(a * max(Y, 0)) dW,   Y_0 = 0,

where the drift b is the weighted migration surplus and the diffusion
coefficient a is the reproduction variance seen through the Perron
weights.  This Y is a scaled squared Bessel process, so Y_1 follows the
Gamma law of shape 2b/a and scale a/2 exactly (Feller 1951).  This
script extracts (b, a) from the model, simulates the rescaled step
functions t -> Z_{floor(n t)} / n, and compares their endpoints with
that Gamma law by a one-sample KS distance.
"""
import numpy as np

from mbpm import (
    feller_params,
    gamma_cdf,
    gamma_quantile,
    gof_report,
    load_spec,
    run_ensemble,
)

spec = load_spec("specs/gamma_single_type.json")
drift, diffusion = feller_params(spec)
print(f"diffusion limit: dY = {drift} dt + sqrt({diffusion} * max(Y,0)) dW")

# ---------------------------------------------------------------------------
# one rescaled trajectory, as a step function on [0, 1]
# ---------------------------------------------------------------------------

n = 300
times = np.linspace(0.0, 1.0, 11)
steps = np.arange(11) * n // 10  # floor(n t) exactly, on integers
values = run_ensemble(spec, n=n, R=1, master_seed=7, steps=steps).states[0] / float(n)
print("\none rescaled path Z_{floor(nt)}/n:")
print("t:", np.array2string(times, precision=1))
print("Y:", np.array2string(values[:, 0], precision=3))

# ---------------------------------------------------------------------------
# endpoint law: rescaled ensemble versus the exact law of Y_1
# ---------------------------------------------------------------------------

R = 800
print(f"\nsimulating {R} trajectories of length {n} ...")
ens = run_ensemble(spec, n=n, R=R, master_seed=16021)
w_model = ens.terminal[:, 0] / float(n)
shape, scale = 2.0 * drift / diffusion, diffusion / 2.0

print(f"\nmodel endpoint:     mean {w_model.mean():.4f}, std {w_model.std(ddof=1):.4f}")
print(f"diffusion endpoint: mean {shape * scale:.4f}, std {np.sqrt(shape) * scale:.4f}"
      f" (Gamma({shape:g}, {scale:g}))")

ks = gof_report(w_model, lambda x: gamma_cdf(x, shape, scale), "gamma",
                {"shape": shape, "scale": scale}, threshold=0.10).value
print(f"one-sample KS distance: {ks:.4f}")

# quantiles of the model endpoints against the Gamma law's
qs = (0.1, 0.25, 0.5, 0.75, 0.9)
print(f"\n{'quantile':>9} {'model':>8} {'diffusion':>10}")
for q, ref in zip(qs, gamma_quantile(qs, shape, scale)):
    print(f"{q:9.2f} {np.quantile(w_model, q):8.3f} {ref:10.3f}")

assert ks < 0.10, "rescaled endpoints strayed from the diffusion law"
print("\nPASS: rescaled paths match the Feller diffusion")
