"""Command line entry point: run named experiment suites on a model document.

Each suite loads a model, runs a calibrated experiment, writes a
machine-readable report plus plain delimited plot data into the output
directory, prints a one-line verdict, and exits 0 when the suite's
assertions pass, 1 when they fail, and 2 on a malformed document or an
infeasible suite/model combination.

The three limit suites (gamma-limit, normal-limit, l1-limit) share one
runner, ``_suite_limit``: it derives the limit parameters and the
normalizing sequence a_n, asks the suite's entry in ``_LIMIT_LAWS`` for
its sample transform and gate (refusing the model before any ensemble is
drawn when the law does not exist), then keeps the replicates with
u.Z_n > eps * a_n and gates their transformed sizes.  The feller suite
gates the endpoints u.Z_n / n through the same gamma KS gate: its
diffusion limit has an exact Gamma law at every time, so no reference is
simulated.  Option defaults are the field defaults of ``ExperimentConfig``.

Each suite returns its plot data as named tables, a header plus one
sequence per column, and ``_write_tsv`` writes each one from its columns:
float64 columns as %.10g, label columns as str().

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
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import (
    _VERDICTS,
    CriteriaConfig,
    _fitted_exponents,
    _growth_verdict,
    _not_critical,
    _probe_ray,
)
from .limits import a_seq, feller_params, lambda_n, params_from_spec
from .model import ModelSpec, SpecFormatError, _integer, spec_digest, spec_from_dict
from .montecarlo import (
    estimate_explosion,
    gamma_cdf,
    gamma_quantile,
    gof_report,
    moment_check,
    normal_cdf,
    run_ensemble,
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
    or critical mean matrix, growth, convergent migration, a limit law).
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


def _write_tsv(path: Path, header, columns):
    """Header plus one line per row, from one sequence per column.

    A float64 column is written as %.10g, any other column as str() of its
    cells: one %-format string serves the file and the body is one join.
    """
    arrays = [np.asarray(col) for col in columns]
    floats = [a.dtype == np.float64 for a in arrays]
    fmt = "\t".join("%.10g" if f else "%s" for f in floats) + "\n"
    cells = [a.tolist() if f else col for a, f, col in zip(arrays, floats, columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n" + "".join(map(fmt.__mod__, zip(*cells))))


def _ks_check(sample, config, cdf, law: str, law_params: dict):
    """KS gate of a sample against a reference CDF: (passed, payload, files)."""
    gof = gof_report(sample, cdf, law, law_params, config.ks_threshold())
    n = gof.sorted_sample.size
    columns = (gof.sorted_sample, np.arange(1, n + 1) / n, gof.reference_values)
    files = {"cdf_pairs.tsv": (("x", "empirical", "reference"), columns)}
    return gof.passed, {"gof": gof.to_dict()}, files


def _gamma_gate(shape: float, scale: float):
    """The KS gate, gate(sample, config), of a sample against Gamma(shape, scale)."""
    return partial(_ks_check, cdf=lambda x: gamma_cdf(x, shape, scale), law="gamma",
                   law_params={"shape": shape, "scale": scale})


def _quantile_columns(x):
    """Labels q5 .. q95 and the sample's quantiles at them; nan when it is empty."""
    qs = np.quantile(x, _FAN_QUANTILES) if x.size else np.full(len(_FAN_QUANTILES), np.nan)
    return [f"q{int(100 * q)}" for q in _FAN_QUANTILES], qs


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecFormatError("document", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SpecFormatError("document", f"not valid JSON: {exc}")


# ---------------------------------------------------------------------------
# Document extras: the optional top-level fields a suite reads, checked as
# outside input before it runs; a malformed one raises SpecFormatError
# ---------------------------------------------------------------------------

_LIMIT_KEYS = ("alpha", "c", "nu", "beta")


def _number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise SpecFormatError(path, f"expected a finite number, got {x!r}")
    return float(x)


def _numbers(xs, size: int, path: str) -> list:
    if not isinstance(xs, list) or len(xs) != size:
        raise SpecFormatError(path, f"expected a list of {size} numbers, got {xs!r}")
    return [_number(x, f"{path}[{j}]") for j, x in enumerate(xs)]


def _counts(z, dim: int, path: str) -> np.ndarray:
    """A state of ``dim`` nonnegative integer counts."""
    if not isinstance(z, (list, tuple)):
        raise SpecFormatError(path, f"expected a list of counts, got {z!r}")
    if len(z) != dim:
        raise SpecFormatError(path, f"expected {dim} components")
    try:
        counts = np.array([_integer(x) for x in z], dtype=np.int64)
    except (OverflowError, ValueError) as exc:
        raise SpecFormatError(path, str(exc)) from None
    if (counts < 0).any():
        raise SpecFormatError(path, f"counts must be nonnegative, got {list(z)}")
    return counts


def _limit_block(block, dim: int) -> Optional[dict]:
    """The calibrated growth constants of a ``limit`` block: numbers alpha,
    nu and beta, and c, one number per type; any other key is refused."""
    if block is None:
        return None
    if not isinstance(block, dict):
        raise SpecFormatError("limit", f"expected a mapping, got {type(block).__name__}")
    calibrated = {}
    for key, value in block.items():
        path = f"limit.{key}"
        if key not in _LIMIT_KEYS:
            raise SpecFormatError(path, "unknown field (the block takes alpha, c, nu and beta)")
        calibrated[key] = _numbers(value, dim, path) if key == "c" else _number(value, path)
    return calibrated


def _expected_verdict(expected) -> Optional[str]:
    if expected is not None and expected not in _VERDICTS:
        raise SpecFormatError(
            "expected_verdict", f"expected one of {', '.join(_VERDICTS)}, got {expected!r}"
        )
    return expected


def _explosion_bounds(bounds) -> Optional[list]:
    """The interval [lo, hi] the explosion probability must fall in."""
    if bounds is None:
        return None
    lo, hi = _numbers(bounds, 2, "explosion_bounds")
    if lo > hi:
        raise SpecFormatError("explosion_bounds", f"lower bound {lo!r} exceeds upper bound {hi!r}")
    return [lo, hi]


# ---------------------------------------------------------------------------
# Suites: each returns (passed, payload, plot files)
# ---------------------------------------------------------------------------


def _suite_moments(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    if config.state is not None:
        z, source = config.state, "--state"
    else:
        z, source = doc.get("reference_state", [10] * spec.dim), "reference_state"
    z = _counts(z, spec.dim, source)
    report = moment_check(spec, z, N=max(config.reps, 10_000), seed=config.seed)
    p = range(spec.dim)
    labels = [f"mean[{i}]" for i in p] + [f"cov[{i},{j}]" for i in p for j in p]
    columns = [labels] + [
        np.concatenate((mean, cov.ravel())).astype(float)
        for mean, cov in ((report.mean_exact, report.cov_exact),
                          (report.mean_empirical, report.cov_empirical),
                          (report.mean_se, report.cov_se))
    ]
    files = {"moment_bands.tsv": (("entry", "exact", "empirical", "se"), columns)}
    return report.passed, {"moment_check": report.to_dict()}, files


def _suite_classify(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    """The verdict and the fitted exponents, both read from one probe ray."""
    expected = _expected_verdict(doc.get("expected_verdict"))
    cc = CriteriaConfig(ray_points=config.probe_magnitudes)
    with _applicable("classify"):
        ray = _probe_ray(spec, cc)
        verdict = _not_critical(spec) or _growth_verdict(spec, ray)
        exponents = _fitted_exponents(ray)
    passed = True if expected is None else (verdict.verdict == expected)
    columns = [np.asarray(verdict.probe_sizes, dtype=float),
               np.asarray(verdict.ratio_values, dtype=float)]
    files = {"ratio_curve.tsv": (("size", "ratio"), columns)}
    payload = {
        "classification": verdict.to_dict(),
        "fitted_exponents": exponents,
        "expected_verdict": expected,
    }
    return passed, payload, files


def _size_scale(params, n):
    """The scale n^{1/(1-alpha)} of the gamma and l1 limits, refused where it is 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** (1.0 / (1.0 - params.alpha))


def _gamma_law(params, n, uu, a_n):
    if params.gamma_shape is None:
        raise ValueError(
            "it needs variance exponent beta = 1 + alpha and nu < 2 u.c (otherwise "
            "unbounded growth has probability zero and no gamma limit exists)"
        )
    scale_n = _size_scale(params, n)
    gate = _gamma_gate(params.gamma_shape, params.gamma_scale)
    return lambda w: (w / (scale_n * uu)) ** (1.0 - params.alpha), gate, {}


def _normal_law(params, n, uu, a_n):
    lam = lambda_n(params, n)
    gate = partial(_ks_check, cdf=normal_cdf, law="standard normal", law_params={})
    return lambda w: (w - uu * a_n) / (uu * lam), gate, {"a_n": a_n, "lambda_n": lam}


def _l1_law(params, n, uu, a_n):
    target = params.l1_constant
    scale_n = _size_scale(params, n)

    def gate(w, config):
        mean = float(w.mean())
        rel_err = abs(mean - target) / target
        payload = {
            "target": target,
            "sample_mean": mean,
            "relative_error": rel_err,
            "threshold_rel": config.threshold_rel,
        }
        labels, values = _quantile_columns(w)
        columns = (labels + ["mean", "target"], np.append(values, (mean, target)))
        files = {"sample_summary.tsv": (("statistic", "value"), columns)}
        return rel_err <= config.threshold_rel, payload, files

    return lambda w: w / (scale_n * uu), gate, {}


# Each limit law maps (params, n, u.u, a_n) to (transform of the surviving
# weighted sizes u.Z_n, gate(sample, config) -> (passed, payload, files),
# extra payload keys), or raises ValueError when the law does not exist
# for the model.
_LIMIT_LAWS = {"gamma-limit": _gamma_law, "normal-limit": _normal_law, "l1-limit": _l1_law}


def _suite_limit(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    """A limit law on the ensemble conditioned on survival, u.Z_n > eps * a_n."""
    calibrated = _limit_block(doc.get("limit"), spec.dim)
    with _applicable(config.suite):
        params = params_from_spec(spec, calibrated)
        u = spec.spectral().u
        uu = float(u @ u)
        a_n = float(a_seq(params.c_dot_u, params.alpha, config.n)[-1])
        transform, gate, extra = _LIMIT_LAWS[config.suite](params, config.n, uu, a_n)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    weighted = ens.terminal_weighted(u)
    keep = weighted > _SURVIVAL_EPS * a_n
    passed, payload, files = gate(transform(weighted[keep]), config)
    payload.update(
        extra,
        limit_params=params.to_dict(),
        conditioning={
            "event": "u.Z_n > eps * a_n",
            "epsilon": _SURVIVAL_EPS,
            "a_n": a_n,
            "kept": int(keep.sum()),
            "total": config.reps,
        },
        ensemble=ens.summary(),
    )
    return passed, payload, files


def _suite_feller(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    """Rescaled paths u.Z_[nt]/n against their Feller diffusion limit Y, Y_0 = 0.

    Y is a scaled squared Bessel process (Feller 1951), so Y_t is exactly
    Gamma(2 drift / diffusion, diffusion t / 2): the endpoints take the
    one-sample gamma KS gate, and the fan's reference quantiles at time t
    are t times those at t = 1.
    """
    with _applicable("feller"):
        drift, diffusion = feller_params(spec)
        if drift <= 0.0:
            raise ValueError("it needs drift > 0 (a limit started at 0 without drift stays at 0)")
        if diffusion <= 0.0:
            raise ValueError("it needs diffusion > 0 (otherwise the limit is degenerate)")
        if config.n < 1:  # the endpoint u.Z_n / n is rescaled by n
            raise ValueError("n must be >= 1")
    shape, scale = 2.0 * drift / diffusion, diffusion / 2.0
    u = spec.spectral().u
    ens = run_ensemble(
        spec, config.n, config.reps, config.seed, store_paths=True, workers=config.workers
    )
    passed, payload, files = _gamma_gate(shape, scale)(ens.terminal_weighted(u) / config.n, config)
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.minimum((grid * config.n).astype(int), config.n)
    emp_q = np.quantile((ens.paths @ u)[:, idx] / config.n, _FAN_QUANTILES, axis=0)
    ref_q = np.outer(gamma_quantile(_FAN_QUANTILES, shape, scale), grid)
    header = (
        ["t"]
        + [f"emp_q{int(100 * q)}" for q in _FAN_QUANTILES]
        + [f"ref_q{int(100 * q)}" for q in _FAN_QUANTILES]
    )
    payload.update(drift=drift, diffusion=diffusion, ensemble=ens.summary())
    files["quantile_fan.tsv"] = (header, [grid, *emp_q, *ref_q])
    return passed, payload, files


def _suite_explosion(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    bounds = _explosion_bounds(doc.get("explosion_bounds"))
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    est = estimate_explosion(ens, config.explosion_k)
    passed = bounds is None or bounds[0] <= est.value <= bounds[1]
    norms = np.abs(ens.terminal).sum(axis=1).astype(float)
    payload = {
        "explosion": est.to_dict(),
        "bounds": bounds,
        "ensemble": ens.summary(),
    }
    files = {"terminal_norms.tsv": (("statistic", "value"), _quantile_columns(norms))}
    return passed, payload, files


_SUITE_RUNNERS = {
    "moments": _suite_moments,
    "classify": _suite_classify,
    **dict.fromkeys(_LIMIT_LAWS, _suite_limit),
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
    for name, (header, columns) in files.items():
        _write_tsv(out_dir / name, header, columns)

    print(f"{config.suite}: {'PASS' if passed else 'FAIL'} (report: {report_path})")
    return 0 if passed else 1


def _parse_ints(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _at_least(convert, lo):
    """An option type: a value read by ``convert`` that is >= lo (NaN is refused)."""

    def parse(text: str):
        value = convert(text)
        if not value >= lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


def _probe_magnitudes(text: str):
    """Probe magnitudes by CriteriaConfig's own rule."""
    try:
        magnitudes = tuple(float(tok) for tok in text.split(",") if tok.strip())
        CriteriaConfig(ray_points=magnitudes)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need two or more increasing magnitudes >= 10, got {text}"
        ) from None
    return magnitudes


def build_parser() -> argparse.ArgumentParser:
    """The command line; option defaults are those of ExperimentConfig."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    parser = argparse.ArgumentParser(
        prog="mbpm",
        description=(
            "Experiment suites for multitype branching models with random "
            "migration: exact moment checks, growth classification, limit-law "
            "comparisons, diffusion scaling, and explosion probabilities."
        ),
    )
    parser.add_argument(
        "--spec", dest="spec_path", required=True, metavar="SPEC",
        help="path to a model document (JSON)",
    )
    parser.add_argument("--suite", required=True, choices=SUITES, help="experiment suite to run")
    parser.add_argument(
        "--n", type=_at_least(int, 0), help="trajectory horizon (default %(default)s)"
    )
    parser.add_argument(
        "--reps", type=_at_least(int, 1),
        help="replicates, or sample count for the moments suite (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, help="master seed (default %(default)s)")
    parser.add_argument("--out", help="output directory (default ./%(default)s)")
    parser.add_argument(
        "--threshold-ks", type=float,
        help="KS pass threshold (default 0.05; 0.07 for normal-limit)",
    )
    parser.add_argument(
        "--threshold-rel", type=float,
        help="relative-error threshold for l1-limit (default %(default)g)",
    )
    parser.add_argument(
        "--probe-magnitudes", type=_probe_magnitudes, metavar="M1,M2,...",
        help="classify probe sizes (default "
        + ",".join(f"{m:g}" for m in defaults["probe_magnitudes"]) + ")",
    )
    parser.add_argument(
        "--explosion-k", type=_at_least(float, 0),
        help="norm threshold for the explosion suite (default %(default)g)",
    )
    parser.add_argument(
        "--state", type=_parse_ints, metavar="Z1,Z2,...",
        help="probe state for the moments suite (default: document reference_state)",
    )
    parser.add_argument(
        "--workers", type=int,
        help="worker processes (default: MBPM_WORKERS environment variable, else 1)",
    )
    parser.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
    try:
        return run(config)
    except (SpecFormatError, InfeasibleSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
