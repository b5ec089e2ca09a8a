"""Independent checks of one op's outputs.

Each check reads what the op wrote (report.json and its TSV files) and
recomputes what it can without the package: reference CDFs with
scipy.stats, KS distances from the TSV columns, the Wilson interval with
scipy's binomial test, limit constants from the document's calibration
block, and exact one-step moments from the brute-force oracle in
tests/oracles.py.  A check returns a list of problems; empty means pass.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from workloads import Op, option

TOL = 1e-9  # TSV cells carry 10 significant digits


def load_oracle(root: Path):
    """tests/oracles.py as a module, imported read-only by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("mbpm_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact_moments(oracle, doc: dict, z):
    """Mean vector and covariance matrix of the oracle's one-step pmf at z."""
    pmf = oracle.one_step_pmf(doc, z)
    vecs = np.array(list(pmf.keys()), dtype=float)
    probs = np.array(list(pmf.values()))
    mean = probs @ vecs
    centered = vecs - mean
    return mean, (centered * probs[:, None]).T @ centered


def _read_tsv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return header, rows


def _numeric_tsv(path: Path):
    header, rows = _read_tsv(path)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _close(a, b, tol=TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _ks_from_columns(emp, ref) -> float:
    n = emp.size
    below = np.arange(n) / n
    return float(max(np.max(emp - ref), np.max(ref - below)))


def _single_type_limit(doc: dict):
    """(alpha, u.c, nu) of a single-type document's calibration (u = 1)."""
    if doc["dim"] != 1:
        raise ValueError("the independent limit constants cover single-type documents")
    lim = doc["limit"]
    return float(lim["alpha"]), float(sum(lim["c"])), float(lim["nu"])


def _constant(statefn: dict) -> float:
    if statefn["kind"] != "constant":
        raise ValueError("expected a constant state function")
    return float(statefn["value"])


def _check_cdf_pairs(out: Path, results: dict, reference, problems: list):
    """cdf_pairs.tsv: sorted sample, i/n column, reference CDF, KS distance."""
    header, data = _numeric_tsv(out / "cdf_pairs.tsv")
    if header != ["x", "empirical", "reference"]:
        problems.append(f"cdf_pairs.tsv header {header}")
        return
    x, emp, ref = data.T
    n = x.size
    if n == 0 or np.any(np.diff(x) < 0):
        problems.append("cdf_pairs.tsv sample is empty or unsorted")
        return
    if np.max(np.abs(emp - np.arange(1, n + 1) / n)) > TOL:
        problems.append("cdf_pairs.tsv empirical column is not i/n")
    expected = ref if reference is None else reference(x)
    gap = float(np.max(np.abs(ref - expected)))
    if gap > TOL:
        problems.append(f"reference column off by {gap:.3g} from scipy.stats")
    ks = _ks_from_columns(emp, expected)
    gof = results["gof"]
    if not _close(ks, gof["value"]):
        problems.append(f"KS from TSV {ks!r} != gof.value {gof['value']!r}")
    if gof["sample_size"] != n:
        problems.append("gof.sample_size differs from the TSV rows")
    return n


def _check_gamma(op, doc, report, out, problems):
    import scipy.stats as st

    alpha, cu, nu = _single_type_limit(doc)
    shape = (2.0 * cu - nu * alpha) / (nu * (1.0 - alpha))
    scale = nu * (1.0 - alpha) ** 2 / 2.0
    params = report["results"]["limit_params"]
    if not (_close(params["gamma_shape"], shape) and _close(params["gamma_scale"], scale)):
        problems.append(f"gamma params {params['gamma_shape']}, {params['gamma_scale']} "
                        f"!= {shape}, {scale}")
    n = _check_cdf_pairs(out, report["results"],
                         lambda x: st.gamma.cdf(x, shape, scale=scale), problems)
    _check_conditioning(op, report, n, problems)


def _check_normal(op, doc, report, out, problems):
    import scipy.stats as st

    n = _check_cdf_pairs(out, report["results"], st.norm.cdf, problems)
    _check_conditioning(op, report, n, problems)


def _check_conditioning(op, report, rows, problems):
    cond = report["results"]["conditioning"]
    if cond["total"] != int(option(op, "--reps", 1000)):
        problems.append("conditioning total differs from --reps")
    if rows is not None and cond["kept"] != rows:
        problems.append(f"kept {cond['kept']} != {rows} TSV rows")


def _check_l1(op, doc, report, out, problems):
    alpha, cu, _ = _single_type_limit(doc)
    target = (cu * (1.0 - alpha)) ** (1.0 / (1.0 - alpha))
    res = report["results"]
    if not _close(res["target"], target, 1e-12):
        problems.append(f"target {res['target']!r} != l1 constant {target!r}")
    _, rows = _read_tsv(out / "sample_summary.tsv")
    table = {k: float(v) for k, v in rows}
    if not _close(table["mean"], res["sample_mean"]):
        problems.append(f"TSV mean {table['mean']!r} != sample_mean {res['sample_mean']!r}")
    if not _close(table["target"], target):
        problems.append("TSV target differs from the l1 constant")
    qs = [table[f"q{q}"] for q in (5, 25, 50, 75, 95)]
    if any(b < a for a, b in zip(qs, qs[1:])):
        problems.append("TSV quantiles are not monotone")
    rel = abs(res["sample_mean"] - target) / target
    if not _close(res["relative_error"], rel):
        problems.append("relative_error is not |mean - target| / target")
    _check_conditioning(op, report, None, problems)


def _check_feller(op, doc, report, out, problems):
    if doc["dim"] != 1:
        raise ValueError("the independent Feller constants cover single-type documents")
    comp = doc["migration"][0]
    drift = _constant(comp["prob_imm"]) * _constant(comp["immigration"]["mean"])
    offspring = doc["offspring"][0]["components"][0]
    if offspring["family"] != "poisson":
        raise ValueError("the independent Feller diffusion covers Poisson offspring")
    diffusion = float(offspring["mean"])
    res = report["results"]
    if not (_close(res["drift"], drift, 1e-12) and _close(res["diffusion"], diffusion, 1e-12)):
        problems.append(f"drift/diffusion {res['drift']}, {res['diffusion']} "
                        f"!= {drift}, {diffusion}")
    n = _check_cdf_pairs(out, res, None, problems)
    if n is not None and n != int(option(op, "--reps", 1000)):
        problems.append("cdf_pairs.tsv rows differ from --reps")
    _, fan = _numeric_tsv(out / "quantile_fan.tsv")
    if fan.shape != (101, 11):
        problems.append(f"quantile_fan.tsv has shape {fan.shape}")


def _check_explosion(op, doc, report, out, problems):
    import scipy.stats as st

    est = report["results"]["explosion"]
    k, trials = est["successes"], est["trials"]
    if trials != int(option(op, "--reps", 1000)):
        problems.append("explosion trials differ from --reps")
    if not _close(est["value"], k / trials, 1e-15):
        problems.append("explosion value is not successes / trials")
    ci = st.binomtest(k, trials).proportion_ci(confidence_level=0.95, method="wilson")
    if not (abs(est["ci95"][0] - ci.low) <= TOL and abs(est["ci95"][1] - ci.high) <= TOL):
        problems.append(f"Wilson interval {est['ci95']} != scipy {[ci.low, ci.high]}")
    _, rows = _read_tsv(out / "terminal_norms.tsv")
    qs = [float(v) for _, v in rows]
    if len(qs) != 5 or any(b < a for a, b in zip(qs, qs[1:])):
        problems.append("terminal_norms.tsv quantiles are missing or not monotone")


def _check_moments(doc, report, out, problems, exact):
    mc = report["results"]["moment_check"]
    p = doc["dim"]
    _, rows = _read_tsv(out / "moment_bands.tsv")
    if len(rows) != p + p * p:
        problems.append("moment_bands.tsv has the wrong number of rows")
    if exact is not None:
        mean, cov = exact
        if np.max(np.abs(np.asarray(mc["mean_exact"]) - mean)) > TOL:
            problems.append(f"exact mean {mc['mean_exact']} != oracle {mean.tolist()}")
        if np.max(np.abs(np.asarray(mc["cov_exact"]) - cov)) > TOL:
            problems.append(f"exact covariance {mc['cov_exact']} != oracle {cov.tolist()}")


def _check_classify(op, doc, report, out, problems):
    verdict = report["results"]["classification"]["verdict"]
    if verdict != doc["expected_verdict"]:
        problems.append(f"verdict {verdict!r} != expected {doc['expected_verdict']!r}")


_CHECKS = {
    "gamma-limit": _check_gamma,
    "normal-limit": _check_normal,
    "l1-limit": _check_l1,
    "feller": _check_feller,
    "explosion": _check_explosion,
    "classify": _check_classify,
}


def check_op(op: Op, seed: int, doc: dict, out: Path, code: int, stdout: str,
             exact=None) -> list:
    """Problems with one op's exit status and outputs (empty when it passed).

    ``exact`` is the oracle's (mean, covariance) for a moments op whose
    document the oracle can enumerate.
    """
    problems = []
    if code != 0:
        problems.append(f"exit status {code}")
    if f"{op.suite}: PASS" not in stdout:
        problems.append("no PASS line on stdout")
    try:
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"report.json unreadable: {exc}"]
    if report.get("passed") is not True:
        problems.append("report says passed = false")
    if (report.get("suite"), report.get("seed"), report.get("workers")) != (op.suite, seed, 1):
        problems.append("report suite, seed or workers differ from the op")
    try:
        if op.suite == "moments":
            _check_moments(doc, report, out, problems, exact)
        else:
            _CHECKS[op.suite](op, doc, report, out, problems)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"output check could not read the outputs: {exc!r}")
    return problems
