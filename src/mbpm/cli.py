"""Command line entry point: run named experiment suites on a model document.

Each suite loads a model, runs an experiment, writes a
machine-readable report plus plain delimited plot data into the output
directory, prints a one-line verdict, and exits 0 when the suite's
assertions pass, 1 when they fail, and 2 on a malformed document or an
infeasible suite/model combination.

The three limit suites (gamma-limit, normal-limit, l1-limit) share one
runner, ``_suite_limit``: it refuses a mean matrix that is not critical,
derives the limit parameters from the laws and the normalizing sequence
a_n, asks the suite's entry in ``_LIMIT_LAWS`` for its sample transform
and gate (refusing the model before any ensemble is drawn when the law
does not exist), checks the document's ``limit`` block against the
derived constants, then keeps the replicates with u.Z_n > eps * a_n and
gates their transformed sizes.
The feller suite gates the endpoints u.Z_n / n through the same gamma KS gate: its
diffusion limit has an exact Gamma law at every time, so no reference is
simulated.  Classify, moments and explosion take no option of their own: they read
classify.RAY_POINTS, the document's reference_state and _EXPLOSION_K = 10^3.
Option defaults are the field defaults of ``ExperimentConfig``.

Each suite returns its plot data as named tables, a header plus one
sequence per column, and ``_write_tsv`` writes each one by whole columns in
UTF-8: a float64 column as %.10g, where a column of the ranks i/n (the
empirical CDF of every KS gate) is formatted from the integers i and n and
any other once per run of equal adjacent cells, and any other column as
str().  Each column becomes one array of cell texts; the rows are joined
column by column, and the lines in one join.

Reports are deterministic for a fixed document and seed: the wall-clock
timestamp is isolated in a single header field and no timings are
embedded, so reruns at one worker count are byte-identical apart from
that one line.  The report also records ``workers``, which a rerun at
another worker count changes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import is_critical, weigh
from .classify import VERDICTS, classify_growth
from .limits import a_seq, feller_params, lambda_n, params_from_spec
from .model import (
    ModelSpec,
    SpecFormatError,
    _integer,
    _load_document,
    _number,
    _numbers,
    spec_digest,
    spec_from_dict,
)
from .montecarlo import (
    _run_starts,
    _worker_count,
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
_EXPLOSION_K = 1e3  # a document's explosion_bounds bound P(||Z_n||_1 > 10^3)
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
    workers: Optional[int] = None

    def ks_threshold(self) -> float:
        if self.threshold_ks is not None:
            return self.threshold_ks
        return {"normal-limit": 0.07}.get(self.suite, 0.05)


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays and non-finite floats for JSON.

    A report record (a dataclass) becomes the dict of the fields its repr
    shows, keyed by their declared names."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}
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


_RANK_LIMIT = 9 * 10**8  # below it i·10^(k+9) < 10^10·n fits in an int64


def _rank_cells(n: int, sep: bytes) -> np.ndarray:
    """sep + %.10g of i/n for i = 1 .. n, as bytes, read from the integers i and n.

    k is the smallest number with i·10^k >= n, so q, rem = divmod(i·10^(k+9), n)
    holds the ten significant digits of the rational i/n, rounded to nearest
    on 2·rem against n.  The text below 1 is "0." and the 13 decimals
    q·10^(4-k) with their trailing zeros cut, so a q of 10^10 carries into
    decimal k - 1; row n is "1".  The double i/n lies within 2^-53 of the
    rational, relative: about 1.1e-6 of a unit in the 10th digit, so the
    two round alike except within n // 10^5 + 1 of a tie.  Rows there, ties
    included, and rows below 1e-4 (%g's exponent form, k = 5) are formatted
    from the double.
    """
    i = np.arange(1, n + 1)
    # the rows with k = 5, 4, .., 0 are runs: i·10^k >= n from ceil(n / 10^k) on
    runs = np.diff(-(-n // 10 ** np.arange(4, -1, -1)), prepend=1, append=n + 1)
    scaled = i * np.repeat(10 ** np.arange(14, 8, -1), runs)
    q = scaled // n
    gap = 2 * (scaled - q * n) - n
    q += gap > 0
    slow = np.abs(gap) <= n // 10**5 + 1
    slow[:runs[0]] = True  # k = 5: below 1e-4
    decimals = q * np.repeat(10 ** np.array([0, 0, 1, 2, 3, 4]), runs)
    # the 13 decimals, last first, digit-major; trailing zeros become NUL
    # bytes, which the bytes view drops
    head = sep + b"0."
    w = len(head)
    buf = np.empty((w + 13, n), dtype=np.uint8)
    buf[:w] = np.frombuffer(head, dtype=np.uint8)[:, None]
    kept = np.zeros(n, dtype=bool)  # a nonzero digit at or after this place
    for place in range(w + 12, w - 1, -1):
        tens = decimals // 10
        digit = decimals - 10 * tens
        decimals = tens
        kept |= digit != 0
        np.multiply(digit + ord("0"), kept, out=buf[place], casting="unsafe")
    cells = np.ascontiguousarray(buf.T).view(f"S{w + 13}").ravel()
    redo = np.flatnonzero(slow)
    texts = np.array([sep + b"%.10g" % x for x in (i[redo] / n).tolist()] + [sep + b"1"])
    cells = cells.astype(np.result_type(cells, texts))
    cells[np.append(redo, n - 1)] = texts
    return cells


def _float_cells(a, sep: bytes) -> np.ndarray:
    """sep + %.10g of each cell of the float64 array a, as bytes.

    The ranks i/n, i = 1 .. n, are read from the integers; any other column
    is formatted once per run of equal cells, whose texts are repeated.
    """
    n = a.size
    if 0 < n < _RANK_LIMIT and np.array_equal(a, np.arange(1, n + 1) / n):
        return _rank_cells(n, sep)
    starts = _run_starts(a)
    heads = np.array(list(map((sep + b"%.10g").__mod__, a[starts].tolist())), dtype="S")
    return heads if starts.size == n else np.repeat(heads, np.diff(starts, append=n))


def _write_tsv(path: Path, header, columns):
    """Header plus one line per row, from one sequence per column, in UTF-8.

    Each column becomes one array of cell texts, the tab before each cell
    included: a float64 column as %.10g (a column of the ranks i/n from
    the integers i and n, any other formatted once per run of equal
    adjacent cells, since equal bit patterns give equal text), any other
    column as str() of its cells.  The rows are joined column by column,
    then the lines in one join, and written at once.  numpy byte strings
    drop trailing NUL bytes, so a cell text must not end in one.
    """
    cells = []
    for j, col in enumerate(columns):
        sep = b"\t" if j else b""
        a = np.asarray(col)
        if a.dtype == np.float64:
            cells.append(_float_cells(a, sep))
        else:
            cells.append(np.array([sep + str(c).encode() for c in col], dtype="S"))
    rows = cells[0]
    for c in cells[1:]:
        rows = np.char.add(rows, c)
    path.write_bytes(b"\n".join(["\t".join(header).encode(), *rows.tolist()]) + b"\n")


def _ks_check(sample, config, cdf, law: str, law_params: dict):
    """KS gate of a sample against a reference CDF: (passed, payload, files)."""
    gof = gof_report(sample, cdf, law, law_params, config.ks_threshold())
    n = gof.sorted_sample.size
    columns = (gof.sorted_sample, np.arange(1, n + 1) / n, gof.reference_values)
    files = {"cdf_pairs.tsv": (("x", "empirical", "reference"), columns)}
    return gof.passed, {"gof": gof}, files


def _gamma_gate(shape: float, scale: float):
    """The KS gate, gate(sample, config), of a sample against Gamma(shape, scale)."""
    return partial(_ks_check, cdf=lambda x: gamma_cdf(x, shape, scale), law="gamma",
                   law_params={"shape": shape, "scale": scale})


def _quantile_columns(x):
    """Labels q5 .. q95 and the sample's quantiles at them; nan when it is empty."""
    qs = np.quantile(x, _FAN_QUANTILES) if x.size else np.full(len(_FAN_QUANTILES), np.nan)
    return [f"q{int(100 * q)}" for q in _FAN_QUANTILES], qs


# ---------------------------------------------------------------------------
# Document extras: the optional top-level fields a suite reads, checked as
# outside input before it runs; a malformed one raises SpecFormatError
# ---------------------------------------------------------------------------

_LIMIT_KEYS = ("alpha", "c", "nu", "beta")
_LIMIT_RTOL = 1e-12  # a limit block's value must equal the derived one to this, relative


def _counts(z, dim: int, path: str) -> np.ndarray:
    """A state of ``dim`` nonnegative integer counts."""
    if not isinstance(z, (list, tuple)):
        raise SpecFormatError(path, f"expected a list of counts, got {z!r}")
    if len(z) != dim:
        raise SpecFormatError(path, f"expected {dim} components")
    counts = np.array([_integer(x, f"{path}[{j}]") for j, x in enumerate(z)], dtype=np.int64)
    if (counts < 0).any():
        raise SpecFormatError(path, f"counts must be nonnegative, got {list(z)}")
    return counts


def _limit_block(block, dim: int) -> dict:
    """The growth constants a ``limit`` block asserts: numbers alpha, nu and
    beta, and c, one number per type; any other key is refused."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise SpecFormatError("limit", f"expected a mapping, got {type(block).__name__}")
    claimed = {}
    for key, value in block.items():
        path = f"limit.{key}"
        if key not in _LIMIT_KEYS:
            raise SpecFormatError(path, "unknown field (the block takes alpha, c, nu and beta)")
        claimed[key] = _numbers(value, path, dim) if key == "c" else _number(value, path)
    return claimed


def _check_limit_block(claimed: dict, params) -> None:
    """Refuse a ``limit`` block key whose value is not the one derived from
    the laws, to _LIMIT_RTOL relative."""
    for key, value in claimed.items():
        derived = getattr(params, key)
        if not np.allclose(value, derived, rtol=_LIMIT_RTOL, atol=0.0):
            derived = np.asarray(derived, dtype=float).tolist()
            raise SpecFormatError(f"limit.{key}", f"the laws give {derived!r}, not {value!r}")


def _expected_verdict(expected) -> Optional[str]:
    if expected is not None and expected not in VERDICTS:
        raise SpecFormatError(
            "expected_verdict", f"expected one of {', '.join(VERDICTS)}, got {expected!r}"
        )
    return expected


def _explosion_bounds(bounds) -> Optional[list]:
    """The interval [lo, hi] the explosion probability must fall in."""
    if bounds is None:
        return None
    lo, hi = _numbers(bounds, "explosion_bounds", 2)
    if lo > hi:
        raise SpecFormatError("explosion_bounds", f"lower bound {lo!r} exceeds upper bound {hi!r}")
    return [lo, hi]


# ---------------------------------------------------------------------------
# Suites: each returns (passed, payload, plot files)
# ---------------------------------------------------------------------------


def _suite_moments(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    z = _counts(doc.get("reference_state", [10] * spec.dim), spec.dim, "reference_state")
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
    return report.passed, {"moment_check": report}, files


def _suite_classify(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    """The verdict of classify_growth and the exponents it carries (none for
    a model without Perron data)."""
    expected = _expected_verdict(doc.get("expected_verdict"))
    with _applicable("classify"):
        verdict = classify_growth(spec)
    passed = True if expected is None else (verdict.verdict == expected)
    columns = [np.asarray(verdict.probe_sizes, dtype=float),
               np.asarray(verdict.ratio_values, dtype=float)]
    files = {"ratio_curve.tsv": (("size", "ratio"), columns)}
    payload = {
        "classification": verdict,
        "fitted_exponents": verdict.exponents,
        "expected_verdict": expected,
    }
    return passed, payload, files


def _size_scale(params, n):
    """The scale n^{1/(1-alpha)} of the gamma and l1 limits, refused where it is 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** (1.0 / (1.0 - params.alpha))


def _gamma_law(params, n, a_n):
    if params.gamma_shape is None:
        raise ValueError(
            "it needs variance exponent beta = 1 + alpha and nu < 2 u.c (otherwise "
            "unbounded growth has probability zero and no gamma limit exists)"
        )
    scale_n = _size_scale(params, n)
    gate = _gamma_gate(params.gamma_shape, params.gamma_scale)
    return lambda w: (w / scale_n) ** (1.0 - params.alpha), gate, {}


def _normal_law(params, n, a_n):
    lam = lambda_n(params, n)
    gate = partial(_ks_check, cdf=normal_cdf, law="standard normal", law_params={})
    return lambda w: (w - a_n) / lam, gate, {"a_n": a_n, "lambda_n": lam}


def _l1_law(params, n, a_n):
    target = params.l1_constant
    scale_n = _size_scale(params, n)

    def gate(w, config):
        mean = float(w.mean()) if w.size else math.nan  # no replicate kept: fails
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

    return lambda w: w / scale_n, gate, {}


# Each limit law maps (params, n, a_n) to (transform of the surviving
# weighted sizes u.Z_n, gate(sample, config) -> (passed, payload, files),
# extra payload keys), or raises ValueError when the law does not exist
# for the model.  a_n tracks u.Z_n itself (u.v = 1): no rescaling by u.u.
_LIMIT_LAWS = {"gamma-limit": _gamma_law, "normal-limit": _normal_law, "l1-limit": _l1_law}


def _suite_limit(spec: ModelSpec, doc: dict, config: ExperimentConfig):
    """A limit law on the ensemble conditioned on survival, u.Z_n > eps * a_n,
    of a model with a critical mean matrix (feller refuses others too)."""
    claimed = _limit_block(doc.get("limit"), spec.dim)
    with _applicable(config.suite):
        spectral = spec.spectral()
        if not is_critical(spectral.rho):
            raise ValueError("the limit law requires a critical mean matrix")
        params = params_from_spec(spec)
        u = spectral.u
        a_n = float(a_seq(params.c_dot_u, params.alpha, config.n)[-1])
        transform, gate, extra = _LIMIT_LAWS[config.suite](params, config.n, a_n)
    _check_limit_block(claimed, params)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, workers=config.workers)
    weighted = weigh(ens.terminal, u)
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
    are t times those at t = 1.  The ensemble keeps only the fan's steps
    [n t] at t = 0, 0.01, ..., 1.
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
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.arange(101) * config.n // 100  # [n t] exactly; a float n t may fall below it
    steps = np.unique(idx)
    ens = run_ensemble(spec, config.n, config.reps, config.seed, steps, config.workers)
    passed, payload, files = _gamma_gate(shape, scale)(weigh(ens.terminal, u) / config.n, config)
    weighted = weigh(ens.states, u)[:, np.searchsorted(steps, idx)]
    emp_q = np.quantile(weighted / config.n, _FAN_QUANTILES, axis=0)
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
    est = estimate_explosion(ens, _EXPLOSION_K)
    passed = bounds is None or bounds[0] <= est.value <= bounds[1]
    norms = ens.norms.astype(float)
    payload = {
        "explosion": est,
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
    try:
        doc = _load_document(config.spec_path)
    except FileNotFoundError:
        raise SpecFormatError("document", f"no such file: {config.spec_path}") from None
    spec = spec_from_dict(doc)
    config = replace(config, workers=_worker_count(config.workers))  # suites and report
    passed, payload, files = _SUITE_RUNNERS[config.suite](spec, doc, config)

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
            "explosion_norm": _EXPLOSION_K,
        },
        "workers": config.workers,
        "passed": bool(passed),
        "results": payload,
    }
    report_path = out_dir / "report.json"
    # one string, one write: json.dump writes every chunk of the encoder on its own
    report_path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    for name, (header, columns) in files.items():
        _write_tsv(out_dir / name, header, columns)

    print(f"{config.suite}: {'PASS' if passed else 'FAIL'} (report: {report_path})")
    return 0 if passed else 1


def _at_least(convert, lo, below=None):
    """An option type: a value read by ``convert`` that is >= lo, and < below
    where that is given (NaN is refused)."""

    def parse(text: str):
        value = convert(text)
        if not value >= lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        if below is not None and not value < below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


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
        help="replicates, or sample count for the moments suite, which draws at least "
        "10000 (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=_at_least(int, 0, 2**64), help="master seed (default %(default)s)"
    )
    parser.add_argument("--out", help="output directory (default ./%(default)s)")
    parser.add_argument(
        "--threshold-ks", type=_at_least(float, 0, 1),
        help="KS pass threshold (default 0.05; 0.07 for normal-limit)",
    )
    parser.add_argument(
        "--threshold-rel", type=_at_least(float, 0, math.inf),
        help="relative-error threshold for l1-limit (default %(default)g)",
    )
    parser.add_argument(
        "--workers", type=_at_least(int, 1),
        help="worker processes (default: MBPM_WORKERS environment variable, else 1)",
    )
    parser.set_defaults(**defaults)
    return parser


# one parser per process: building it takes 0.2-0.3 ms, which a process that
# calls main() many times (a benchmark loop, the tests) paid on every call
_parser = cache(build_parser)


def main(argv=None) -> int:
    config = ExperimentConfig(**vars(_parser().parse_args(argv)))
    try:
        return run(config)
    except (SpecFormatError, InfeasibleSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
