"""Independent brute-force oracles used by the tests.

Everything here is computed from first principles on plain Python
numbers, or on numpy arrays for the dense-grid n-step law and for the
emigration supports that grow with the count: probability tables are
read from the raw model documents (or given literally), and expectations
are direct weighted sums.  Nothing imports the library's law or moment
machinery, so agreement between these values and the package is
evidence, not tautology.
"""
import math
from itertools import product

import numpy as np


def poisson_pmf(lam, tail=1e-15):
    """Dict pmf of a Poisson law, truncated when the tail is below `tail`.

    From the first k with r = lam / (k + 1) < 1 on, every ratio
    p(j + 1) / p(j) = lam / (j + 1) with j >= k is at most r, so the mass
    beyond k is at most p(k) r / (1 - r).  Stopping on that bound needs no
    running sum, whose rounding can stall above 1 - tail.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return {0: 1.0}
    pmf = {}
    k = 0
    while True:
        p = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        pmf[k] = p
        r = lam / (k + 1)
        k += 1
        if r < 1.0 and p * r / (1.0 - r) < tail:
            break
    return pmf


def shifted_poisson_pmf(mean, tail=1e-15):
    """pmf of 1 + Poisson(mean - 1), the immigration law with the given mean."""
    if mean < 1.0:
        raise ValueError("mean must be >= 1")
    return {k + 1: p for k, p in poisson_pmf(mean - 1.0, tail).items()}


def uniform_pmf(zi):
    """pmf of the uniform emigration size on {1, ..., zi}."""
    if zi <= 0:
        return {0: 1.0}
    return {j: 1.0 / zi for j in range(1, zi + 1)}


def truncated_geometric_pmf(ratio, zi):
    """pmf proportional to ratio**(j-1) on {1, ..., zi}."""
    if zi <= 0:
        return {0: 1.0}
    weights = [ratio ** (j - 1) for j in range(1, zi + 1)]
    total = math.fsum(weights)
    return {j: w / total for j, w in zip(range(1, zi + 1), weights)}


def inverse_cube_pmf(zi):
    """pmf proportional to j**-3 on {1, ..., zi}."""
    if zi <= 0:
        return {0: 1.0}
    weights = [j ** -3.0 for j in range(1, zi + 1)]
    total = math.fsum(weights)
    return {j: w / total for j, w in zip(range(1, zi + 1), weights)}


def uniform_atoms(zi):
    """Uniform emigration on {1, ..., zi} as numpy arrays (values, probs),
    for counts zi >= 1; fast enough to enumerate 2^20 atoms."""
    weights = np.ones(zi)
    return np.arange(1, zi + 1), weights / math.fsum(weights)


def inverse_cube_atoms(zi):
    """Inverse-cube emigration on {1, ..., zi} as numpy arrays (values,
    probs), for counts zi >= 1; fast enough to enumerate 2^20 atoms."""
    values = np.arange(1, zi + 1)
    weights = values.astype(float) ** -3.0
    return values, weights / math.fsum(weights)


def pmf_moment(pmf, k, center=0.0, absolute=False):
    """Weighted sum of (x - center)**k (optionally |x - center|**k)."""
    if absolute:
        return math.fsum(p * abs(x - center) ** k for x, p in pmf.items())
    return math.fsum(p * (x - center) ** k for x, p in pmf.items())


def convolve(pmf_a, pmf_b):
    out = {}
    for x, p in pmf_a.items():
        for y, q in pmf_b.items():
            key = x + y
            out[key] = out.get(key, 0.0) + p * q
    return out


def convolve_power(pmf, n):
    """n-fold convolution of a pmf with itself (n = 0 gives the unit mass at 0)."""
    zero = {_zero_like(pmf): 1.0}
    out = zero
    base = pmf
    while n > 0:
        if n & 1:
            out = convolve(out, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return out


def _zero_like(pmf):
    key = next(iter(pmf))
    if isinstance(key, tuple):
        return (0,) * len(key)
    return 0


# ---------------------------------------------------------------------------
# One-step transition pmf from a raw model document (finite laws only)
# ---------------------------------------------------------------------------


def _statefn_value(doc, z_sum):
    kind = doc["kind"]
    if kind == "constant":
        return doc["value"]
    if kind == "power":
        return doc["coeff"] * z_sum ** doc["exponent"]
    if kind == "table":
        val = doc["values"][0]
        for b, v in zip(doc["breaks"], doc["values"]):
            if z_sum >= b:
                val = v
        return val
    if kind == "clamp":
        v = _statefn_value(doc["inner"], z_sum)
        if doc.get("lo") is not None:
            v = max(v, doc["lo"])
        if doc.get("hi") is not None:
            v = min(v, doc["hi"])
        return v
    raise ValueError(f"unsupported state function {kind!r}")


def _immigration_pmf(doc, z_sum):
    fam = doc["family"]
    if fam == "deterministic":
        return {doc["value"]: 1.0}
    if fam == "table":
        return dict(zip(doc["values"], doc["probs"]))
    if fam == "shifted_poisson":
        return shifted_poisson_pmf(_statefn_value(doc["mean"], z_sum))
    raise ValueError(f"unsupported immigration family {fam!r}")


def _emigration_pmf(doc, zi):
    fam = doc["family"]
    if fam == "deterministic":
        return {min(doc["value"], zi): 1.0}
    if fam == "uniform":
        return uniform_pmf(zi)
    if fam == "truncated_geometric":
        return truncated_geometric_pmf(doc["ratio"], zi)
    if fam == "inverse_cube":
        return inverse_cube_pmf(zi)
    raise ValueError(f"unsupported emigration family {fam!r}")


def component_adjustment_pmf(comp_doc, zi, z_sum):
    """pmf of M_i: +I or -D with the document's probabilities, 0 otherwise.

    A branch without a law never fires, and neither does emigration when
    the count is zero, matching the model definition; "no change" holds
    the rest of the mass.
    """
    p_imm = p_em = 0.0
    if comp_doc.get("immigration") is not None:
        p_imm = _statefn_value(comp_doc["prob_imm"], z_sum)
    if comp_doc.get("emigration") is not None and zi > 0:
        p_em = _statefn_value(comp_doc["prob_em"], z_sum)
    pmf = {0: 1.0 - p_imm - p_em}
    if p_imm > 0.0:
        for v, q in _immigration_pmf(comp_doc["immigration"], z_sum).items():
            pmf[v] = pmf.get(v, 0.0) + p_imm * q
    if p_em > 0.0:
        for v, q in _emigration_pmf(comp_doc["emigration"], zi).items():
            pmf[-v] = pmf.get(-v, 0.0) + p_em * q
    return pmf


def _marginal_pmf(doc):
    kind = doc.get("family", doc.get("kind"))
    if kind == "table":
        return dict(zip(doc["values"], doc["probs"]))
    if kind == "poisson":
        return poisson_pmf(doc["mean"])
    if kind == "bernoulli":
        return {0: 1.0 - doc["prob"], 1: doc["prob"]}
    raise ValueError(f"unsupported marginal {kind!r}")


def offspring_vector_pmf(law_doc, p):
    """pmf over child p-vectors of one parent, from the document block."""
    kind = law_doc["kind"]
    if kind == "independent":
        out = {(): 1.0}
        for comp in law_doc["components"]:
            comp_pmf = _marginal_pmf(comp)
            out = {
                vec + (x,): pr * q
                for vec, pr in out.items()
                for x, q in comp_pmf.items()
            }
        return out
    if kind == "finite":
        return {tuple(v): q for v, q in zip(law_doc["vectors"], law_doc["probs"])}
    raise ValueError(f"unsupported offspring law {kind!r}")


def _merge(pairs):
    out = {}
    for k, v in pairs:
        out[k] = out.get(k, 0.0) + v
    return out


def _vector_convolve(pmf_a, pmf_b):
    return _merge(
        (tuple(a + b for a, b in zip(x, y)), p * q)
        for x, p in pmf_a.items()
        for y, q in pmf_b.items()
    )


def vector_convolve_power(vec_pmf, n):
    out = {_zero_like(vec_pmf): 1.0}
    base = dict(vec_pmf)
    while n > 0:
        if n & 1:
            out = _vector_convolve(out, base)
        n >>= 1
        if n:
            base = _vector_convolve(base, base)
    return out


def one_step_pmf(doc, z, u=None):
    """Exact transition pmf from state z, straight from the raw document.

    Enumerates the migration outcome of every type, then convolves the
    per-parent offspring vector laws.  Only finite/tabulated laws are
    supported, which is what the tiny-support document uses.
    """
    p = len(doc["offspring"])
    z = list(z)
    if u is None:
        z_sum = float(sum(z))  # single-type or constant-only documents
    else:
        z_sum = float(sum(ui * zi for ui, zi in zip(u, z)))
    if all(v == 0 for v in z):
        z_sum = 0.0

    adj_pmfs = [
        component_adjustment_pmf(comp, z[i], z_sum)
        for i, comp in enumerate(doc["migration"])
    ]
    child_pmfs = [offspring_vector_pmf(law, p) for law in doc["offspring"]]

    out = {}
    for combo in product(*[pmf.items() for pmf in adj_pmfs]):
        prob = 1.0
        counts = []
        for i, (m, q) in enumerate(combo):
            prob *= q
            counts.append(z[i] + m)
        if prob == 0.0:
            continue
        total = {(0,) * p: 1.0}
        for i, c in enumerate(counts):
            if c > 0:
                total = _vector_convolve(total, vector_convolve_power(child_pmfs[i], c))
        for vec, pr in total.items():
            out[vec] = out.get(vec, 0.0) + prob * pr
    return out


def total_variation(pmf_a, pmf_b):
    keys = set(pmf_a) | set(pmf_b)
    return 0.5 * math.fsum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# n-step law of a two-type document on a dense grid (finite laws only)
# ---------------------------------------------------------------------------


def _grid(pmf):
    """A dict pmf over pairs (a, b) >= 0 as a 2-D array indexed [a, b]."""
    out = np.zeros((max(a for a, _ in pmf) + 1, max(b for _, b in pmf) + 1))
    for (a, b), q in pmf.items():
        out[a, b] += q
    return out


def _convolve_grid(acc, kernel):
    """2-D convolution of acc (..., X, Y) with a small kernel (x, y): one
    shifted, weighted add of acc per nonzero kernel cell."""
    x, y = kernel.shape
    out = np.zeros(acc.shape[:-2] + (acc.shape[-2] + x - 1, acc.shape[-1] + y - 1))
    for i, j in zip(*np.nonzero(kernel)):
        out[..., i : i + acc.shape[-2], j : j + acc.shape[-1]] += kernel[i, j] * acc
    return out


def _offspring_of_counts(counts, kernels):
    """Law of the children of parent counts distributed as counts[c0, c1].

    With f_i the law of one type-i parent's children, the children of
    (c0, c1) parents are f_0^{*c0} * f_1^{*c1}, so the mixture is the
    polynomial sum C[c0, c1] f_0^{c0} f_1^{c1} under convolution.  It is
    evaluated by Horner's rule: in c1 for every c0 at once, then in c0.
    """
    k0, k1 = kernels
    inner = counts[:, -1, None, None].copy()
    for c1 in range(counts.shape[1] - 2, -1, -1):
        inner = _convolve_grid(inner, k1)
        inner[:, 0, 0] += counts[:, c1]
    acc = inner[-1]
    for c0 in range(counts.shape[0] - 2, -1, -1):
        acc = _convolve_grid(acc, k0)
        acc[: inner.shape[1], : inner.shape[2]] += inner[c0]
    return acc


def multi_step_law(doc, n):
    """The law of Z_n of a two-type document as a 2-D array P[a, b].

    Exact up to rounding, straight from the raw document: per step, each
    state's mass is shifted by its migration outcomes (``component_adjustment_pmf``
    per type), then the parent counts are pushed through the offspring laws
    by repeated 2-D convolution.  Nothing is truncated but the Poisson
    tails of the document's pmfs (below 1e-15 each), and a law that holds
    less than 1 - 1e-12 of the mass is refused.  The initial state must be
    deterministic and every migration state function constant.
    """
    if len(doc["offspring"]) != 2:
        raise ValueError("the dense-grid oracle handles two-type documents")
    kernels = [_grid(offspring_vector_pmf(law, 2)) for law in doc["offspring"]]
    if doc["initial"]["kind"] != "deterministic":
        raise ValueError("the dense-grid oracle starts from a deterministic state")
    for comp in doc["migration"]:
        fns = [comp["prob_imm"], comp["prob_em"]]
        fns += [comp["immigration"]["mean"]] if "mean" in (comp.get("immigration") or {}) else []
        if any(fn["kind"] != "constant" for fn in fns):
            raise ValueError("the dense-grid oracle handles state-independent migration")
    law = _grid({tuple(doc["initial"]["state"]): 1.0})
    for _ in range(n):
        moved = {}
        for a, b in zip(*np.nonzero(law)):
            z = (int(a), int(b))
            adj = [component_adjustment_pmf(comp, z[i], 0.0)  # z_sum unread: constants only
                   for i, comp in enumerate(doc["migration"])]
            for m0, q0 in adj[0].items():
                for m1, q1 in adj[1].items():
                    key = (z[0] + m0, z[1] + m1)
                    moved[key] = moved.get(key, 0.0) + law[a, b] * q0 * q1
        law = _offspring_of_counts(_grid(moved), kernels)
    if abs(law.sum() - 1.0) > 1e-12:
        raise ValueError(f"the grid holds mass {law.sum()!r}, not 1 within 1e-12")
    return law
