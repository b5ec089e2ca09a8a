"""Command line entry point: run named experiment suites on a model document.

Each suite loads a model, runs a calibrated experiment, writes a
machine-readable report plus plain delimited plot data into the output
directory, prints a one-line verdict, and exits 0 when the suite's
assertions pass, 1 when they fail, and 2 on a malformed document or an
infeasible suite/model combination.

Reports are deterministic for a fixed document and seed: the wall-clock
timestamp is isolated in a single header field and no timings are
embedded, so reruns are byte-identical apart from that one line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import CriteriaConfig, classify_growth, estimate_exponents
from .limits import a_seq, euler_maruyama, feller_params, lambda_n, params_from_spec, power_drift
from .model import ModelSpec, SpecFormatError, spec_digest, spec_from_dict
from .montecarlo import (
    ecdf,
    estimate_explosion,
    gamma_cdf,
    gof_report,
    moment_check,
    normal_cdf,
    run_ensemble,
    stream_for,
)

SUITES = ("moments", "classify", "gamma-limit", "normal-limit", "l1-limit", "feller", "explosion")

_SURVIVAL_EPS = 0.01  # conditioning event: u.Z_n > eps * a_n
_FAN_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class InfeasibleSuiteError(ValueError):
    """The suite does not apply to this model (exit status 2)."""


@contextmanager
def _applicable(suite: str):
    """Report a refusal of the model by the analysis a suite needs as infeasibility.

    Wraps only the calls that derive the suite's parameters from the
    model, whose ValueErrors name a property the model lacks (a primitive
    or critical mean matrix, growth, convergent migration).
    """
    try:
        yield
    except ValueError as exc:
        raise InfeasibleSuiteError(f"{suite} is infeasible for this model: {exc}") from exc


@dataclass
class ExperimentConfig:
    spec_path: str
    suite: str
    n: int = 500
    reps: int = 1000
    seed: int = 12345
    out: str = "reports"
    threshold_ks: Optional[float] = None
    threshold_rel: float = 0.10
    probe_magnitudes: tuple = (1e3, 1e4, 1e5)
    dt: float = 1e-3
    explosion_k: float = 1e3
    state: Optional[tuple] = None
    workers: Optional[int] = None

    def ks_threshold(self) -> float:
        if self.threshold_ks is not None:
            return self.threshold_ks
        return {"normal-limit": 0.07}.get(self.suite, 0.05)


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def _write_tsv(path: Path, columns, rows):
    """Header plus one line per row: float cells as %.10g, other cells as str().

    One %-format string is built per pattern of cell types (one per file
    in practice) and the file is written with a single join.
    """
    formats = {}
    lines = ["\t".join(columns)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = "\t".join(
                "%.10g" if issubclass(k, float) else "%s" for k in kinds
            )
        lines.append(fmt % row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cdf_pairs(gof):
    """(x, empirical, reference) rows at the sorted sample of a GoFReport."""
    xs = gof.sorted_sample
    emp = np.arange(1, xs.size + 1) / xs.size
    return list(zip(xs.tolist(), emp.tolist(), gof.reference_values.tolist()))


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecFormatError("document", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SpecFormatError("document", f"not valid JSON: {exc}")


def _survivors(weighted, c_dot_u, alpha, n):
    """Indices passing the growth-conditioning event u.Z_n > eps * a_n."""
    a_n = float(a_seq(power_drift(c_dot_u, alpha), n)[-1])
    keep = weighted > _SURVIVAL_EPS * a_n
    return keep, a_n


# ---------------------------------------------------------------------------
# Suites: each returns (passed, payload, plot files)
# ---------------------------------------------------------------------------


def _suite_moments(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    if config.state is not None:
        z = np.asarray(config.state, dtype=np.int64)
    elif "reference_state" in doc:
        z = np.asarray(doc["reference_state"], dtype=np.int64)
    else:
        z = np.full(spec.dim, 10, dtype=np.int64)
    if z.shape != (spec.dim,):
        raise SpecFormatError("reference_state", f"expected {spec.dim} components")
    report = moment_check(spec, z, N=max(config.reps, 10_000), seed=config.seed)
    rows = []
    for i in range(spec.dim):
        rows.append(
            (f"mean[{i}]", float(report.mean_exact[i]), float(report.mean_empirical[i]),
             float(report.mean_se[i]))
        )
    for i in range(spec.dim):
        for j in range(spec.dim):
            rows.append(
                (f"cov[{i},{j}]", float(report.cov_exact[i, j]),
                 float(report.cov_empirical[i, j]), float(report.cov_se[i, j]))
            )
    files = {"moment_bands.tsv": (("entry", "exact", "empirical", "se"), rows)}
    return report.passed, {"moment_check": report.to_dict()}, files


def _suite_classify(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    cc = CriteriaConfig(ray_points=config.probe_magnitudes)
    with _applicable("classify"):
        verdict = classify_growth(spec, cc)
        exponents = estimate_exponents(spec, cc)
    expected = doc.get("expected_verdict")
    passed = True if expected is None else (verdict.verdict == expected)
    rows = [
        (float(s), float(r))
        for s, r in zip(verdict.probe_sizes, verdict.ratio_values)
    ]
    files = {"ratio_curve.tsv": (("size", "ratio"), rows)}
    payload = {
        "classification": verdict.to_dict(),
        "fitted_exponents": exponents,
        "expected_verdict": expected,
    }
    return passed, payload, files


def _suite_gamma(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    with _applicable("gamma-limit"):
        params = params_from_spec(spec, doc.get("limit"))
    if params.gamma_shape is None:
        raise InfeasibleSuiteError(
            "gamma-limit is infeasible for this model: it needs variance "
            "exponent beta = 1 + alpha and nu < 2 u.c (otherwise unbounded "
            "growth has probability zero and no gamma limit exists)"
        )
    u = spec.spectral().u
    uu = float(u @ u)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    weighted = ens.terminal_weighted(u)
    keep, a_n = _survivors(weighted, params.c_dot_u, params.alpha, config.n)
    scale_n = config.n ** (1.0 / (1.0 - params.alpha))
    w = (weighted[keep] / (scale_n * uu)) ** (1.0 - params.alpha)
    threshold = config.ks_threshold()
    gof = gof_report(
        w,
        lambda x: gamma_cdf(x, params.gamma_shape, params.gamma_scale),
        "gamma",
        {"shape": params.gamma_shape, "scale": params.gamma_scale},
        threshold,
    )
    payload = {
        "limit_params": params.to_dict(),
        "gof": gof.to_dict(),
        "conditioning": {
            "event": "u.Z_n > eps * a_n",
            "epsilon": _SURVIVAL_EPS,
            "a_n": a_n,
            "kept": int(keep.sum()),
            "total": config.reps,
        },
        "ensemble": ens.summary(),
    }
    files = {"cdf_pairs.tsv": (("x", "empirical", "reference"), _cdf_pairs(gof))}
    return gof.passed, payload, files


def _suite_normal(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    with _applicable("normal-limit"):
        params = params_from_spec(spec, doc.get("limit"))
    u = spec.spectral().u
    uu = float(u @ u)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    weighted = ens.terminal_weighted(u)
    keep, a_n = _survivors(weighted, params.c_dot_u, params.alpha, config.n)
    lam = lambda_n(params, config.n)
    w = (weighted[keep] - uu * a_n) / (uu * lam)
    threshold = config.ks_threshold()
    gof = gof_report(w, normal_cdf, "standard normal", {}, threshold)
    payload = {
        "limit_params": params.to_dict(),
        "a_n": a_n,
        "lambda_n": lam,
        "gof": gof.to_dict(),
        "conditioning": {
            "event": "u.Z_n > eps * a_n",
            "epsilon": _SURVIVAL_EPS,
            "a_n": a_n,
            "kept": int(keep.sum()),
            "total": config.reps,
        },
        "ensemble": ens.summary(),
    }
    files = {
        "cdf_pairs.tsv": (("x", "empirical", "reference"), _cdf_pairs(gof)),
    }
    return gof.passed, payload, files


def _suite_l1(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    with _applicable("l1-limit"):
        params = params_from_spec(spec, doc.get("limit"))
    target = params.l1_constant
    if target is None:
        raise InfeasibleSuiteError(
            "l1-limit is infeasible for this model: it needs alpha < 1 and u.c > 0"
        )
    u = spec.spectral().u
    uu = float(u @ u)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    weighted = ens.terminal_weighted(u)
    keep, a_n = _survivors(weighted, params.c_dot_u, params.alpha, config.n)
    w = weighted[keep] / (config.n ** (1.0 / (1.0 - params.alpha)) * uu)
    mean = float(w.mean())
    rel_err = abs(mean - target) / target
    passed = rel_err <= config.threshold_rel
    qs = np.quantile(w, _FAN_QUANTILES) if w.size else np.full(len(_FAN_QUANTILES), np.nan)
    payload = {
        "limit_params": params.to_dict(),
        "target": target,
        "sample_mean": mean,
        "relative_error": rel_err,
        "threshold_rel": config.threshold_rel,
        "conditioning": {
            "event": "u.Z_n > eps * a_n",
            "epsilon": _SURVIVAL_EPS,
            "a_n": a_n,
            "kept": int(keep.sum()),
            "total": config.reps,
        },
        "ensemble": ens.summary(),
    }
    rows = [(f"q{int(100 * q)}", float(v)) for q, v in zip(_FAN_QUANTILES, qs)]
    rows.append(("mean", mean))
    rows.append(("target", float(target)))
    files = {"sample_summary.tsv": (("statistic", "value"), rows)}
    return passed, payload, files


def _suite_feller(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    with _applicable("feller"):
        drift, diffusion = feller_params(spec)
    u = spec.spectral().u
    ens = run_ensemble(
        spec, config.n, config.reps, config.seed, store_paths=True, workers=config.workers
    )
    w_emp = ens.terminal_weighted(u) / config.n
    times, paths = euler_maruyama(
        drift,
        diffusion,
        T=1.0,
        dt=config.dt,
        rng=stream_for(config.seed, config.reps),
        n_paths=config.reps,
    )
    w_ref = paths[:, -1]
    threshold = config.ks_threshold()
    gof = gof_report(
        w_emp,
        ecdf(w_ref),
        "diffusion endpoint (reference integrator)",
        {"drift": drift, "diffusion": diffusion, "dt": config.dt},
        threshold,
    )
    # quantile fan of the rescaled trajectories against the integrator's
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.minimum((grid * config.n).astype(int), config.n)
    scaled = (ens.paths @ u)[:, idx] / config.n
    em_idx = np.minimum((grid / config.dt).astype(int), paths.shape[1] - 1)
    fan_rows = []
    for k, t in enumerate(grid):
        emp_q = np.quantile(scaled[:, k], _FAN_QUANTILES)
        ref_q = np.quantile(paths[:, em_idx[k]], _FAN_QUANTILES)
        fan_rows.append((float(t), *map(float, emp_q), *map(float, ref_q)))
    cols = (
        ["t"]
        + [f"emp_q{int(100 * q)}" for q in _FAN_QUANTILES]
        + [f"ref_q{int(100 * q)}" for q in _FAN_QUANTILES]
    )
    payload = {
        "drift": drift,
        "diffusion": diffusion,
        "dt": config.dt,
        "gof": gof.to_dict(),
        "ensemble": ens.summary(),
    }
    files = {
        "cdf_pairs.tsv": (("x", "empirical", "reference"), _cdf_pairs(gof)),
        "quantile_fan.tsv": (tuple(cols), fan_rows),
    }
    return gof.passed, payload, files


def _suite_explosion(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    est = estimate_explosion(ens, config.explosion_k)
    bounds = doc.get("explosion_bounds")
    if bounds is not None:
        lo, hi = float(bounds[0]), float(bounds[1])
        passed = lo <= est.value <= hi
    else:
        passed = True
    norms = np.abs(ens.terminal).sum(axis=1).astype(float)
    qs = np.quantile(norms, _FAN_QUANTILES)
    rows = [(f"q{int(100 * q)}", float(v)) for q, v in zip(_FAN_QUANTILES, qs)]
    payload = {
        "explosion": est.to_dict(),
        "bounds": bounds,
        "ensemble": ens.summary(),
    }
    files = {"terminal_norms.tsv": (("statistic", "value"), rows)}
    return passed, payload, files


_SUITE_RUNNERS = {
    "moments": _suite_moments,
    "classify": _suite_classify,
    "gamma-limit": _suite_gamma,
    "normal-limit": _suite_normal,
    "l1-limit": _suite_l1,
    "feller": _suite_feller,
    "explosion": _suite_explosion,
}


def run(config: ExperimentConfig) -> int:
    """Execute one suite; write report.json and plot data; return exit status."""
    doc = _load_document(config.spec_path)
    spec = spec_from_dict(doc)
    runner = _SUITE_RUNNERS[config.suite]
    passed, payload, files = runner(spec, doc, config)

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "suite": config.suite,
        "spec_path": str(config.spec_path),
        "spec_digest": spec_digest(spec),
        "seed": config.seed,
        "n": config.n,
        "replicates": config.reps,
        "thresholds": {
            "ks": config.ks_threshold(),
            "relative_error": config.threshold_rel,
            "explosion_norm": config.explosion_k,
        },
        "workers": config.workers or int(os.environ.get("MBPM_WORKERS", "1")),
        "passed": bool(passed),
        "results": payload,
    }
    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, (cols, rows) in files.items():
        _write_tsv(out_dir / name, cols, rows)

    print(f"{config.suite}: {'PASS' if passed else 'FAIL'} (report: {report_path})")
    return 0 if passed else 1


def _parse_floats(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbpm",
        description=(
            "Experiment suites for multitype branching models with random "
            "migration: exact moment checks, growth classification, limit-law "
            "comparisons, diffusion scaling, and explosion probabilities."
        ),
    )
    parser.add_argument("--spec", required=True, help="path to a model document (JSON)")
    parser.add_argument("--suite", required=True, choices=SUITES, help="experiment suite to run")
    parser.add_argument("--n", type=int, default=500, help="trajectory horizon (default 500)")
    parser.add_argument(
        "--reps", type=int, default=1000,
        help="replicates, or sample count for the moments suite (default 1000)",
    )
    parser.add_argument("--seed", type=int, default=12345, help="master seed (default 12345)")
    parser.add_argument("--out", default="reports", help="output directory (default ./reports)")
    parser.add_argument(
        "--threshold-ks", type=float, default=None,
        help="KS pass threshold (default 0.05; 0.07 for normal-limit)",
    )
    parser.add_argument(
        "--threshold-rel", type=float, default=0.10,
        help="relative-error threshold for l1-limit (default 0.10)",
    )
    parser.add_argument(
        "--probe-magnitudes", type=_parse_floats, default=(1e3, 1e4, 1e5),
        metavar="M1,M2,...", help="classify probe sizes (default 1e3,1e4,1e5)",
    )
    parser.add_argument(
        "--dt", type=float, default=1e-3, help="integrator step for feller (default 1e-3)"
    )
    parser.add_argument(
        "--explosion-k", type=float, default=1e3,
        help="norm threshold for the explosion suite (default 1e3)",
    )
    parser.add_argument(
        "--state", type=_parse_ints, default=None, metavar="Z1,Z2,...",
        help="probe state for the moments suite (default: document reference_state)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: MBPM_WORKERS environment variable, else 1)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        spec_path=args.spec,
        suite=args.suite,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        out=args.out,
        threshold_ks=args.threshold_ks,
        threshold_rel=args.threshold_rel,
        probe_magnitudes=args.probe_magnitudes,
        dt=args.dt,
        explosion_k=args.explosion_k,
        state=args.state,
        workers=args.workers,
    )
    try:
        return run(config)
    except (SpecFormatError, InfeasibleSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
